// Package ir defines the three-address intermediate representation the
// optimizer, register allocators and code generator operate on.
//
// The IR is not SSA: temps are mutable storage locations, exactly as in the
// Ucode setting of the paper, where the allocation candidates are program
// variables and compiler temporaries with arbitrary def/use patterns. A
// function is a list of basic blocks; every block ends in exactly one
// terminator (Jmp, Br or Ret).
package ir

import "fmt"

// Op enumerates IR operations.
type Op int

// IR operations. Binary comparisons produce 0/1 ints.
const (
	OpConst Op = iota // Dst = Imm
	OpCopy            // Dst = A
	OpNeg             // Dst = -A
	OpNot             // Dst = !A

	OpAdd // Dst = A + B
	OpSub
	OpMul
	OpDiv // traps if B == 0
	OpRem // traps if B == 0
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	OpLoadG    // Dst = *Global (scalar global)
	OpStoreG   // *Global = A
	OpLoadIdx  // Dst = Arr[A]
	OpStoreIdx // Arr[A] = B
	OpFuncAddr // Dst = &Callee (function value)

	OpCall    // Dst? = Callee(Args...)
	OpCallInd // Dst? = (*A)(Args...)
	OpPrint   // print(A)

	OpJmp // goto Target
	OpBr  // if A != 0 goto Target else goto Else
	OpRet // return A?
)

var opNames = [...]string{
	OpConst: "const", OpCopy: "copy", OpNeg: "neg", OpNot: "not",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpCmpEq: "cmpeq", OpCmpNe: "cmpne", OpCmpLt: "cmplt", OpCmpLe: "cmple",
	OpCmpGt: "cmpgt", OpCmpGe: "cmpge",
	OpLoadG: "loadg", OpStoreG: "storeg", OpLoadIdx: "loadidx", OpStoreIdx: "storeidx",
	OpFuncAddr: "funcaddr",
	OpCall:     "call", OpCallInd: "callind", OpPrint: "print",
	OpJmp: "jmp", OpBr: "br", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpJmp || o == OpBr || o == OpRet }

// IsCall reports whether the op is a procedure call.
func (o Op) IsCall() bool { return o == OpCall || o == OpCallInd }

// IsCmp reports whether the op is a comparison producing 0/1.
func (o Op) IsCmp() bool { return o >= OpCmpEq && o <= OpCmpGe }

// Temp is an allocatable storage location: a user variable, a parameter, or
// a compiler temporary.
type Temp struct {
	ID    int
	Name  string
	IsVar bool // user-declared variable (including parameters)
}

func (t *Temp) String() string {
	if t == nil {
		return "<nil>"
	}
	return t.Name
}

// Operand is either a temp or an integer constant.
type Operand struct {
	Temp  *Temp
	Const int64
}

// TempOp wraps a temp as an operand.
func TempOp(t *Temp) Operand { return Operand{Temp: t} }

// ConstOp wraps a constant as an operand.
func ConstOp(v int64) Operand { return Operand{Const: v} }

// IsConst reports whether the operand is a constant.
func (o Operand) IsConst() bool { return o.Temp == nil }

func (o Operand) String() string {
	if o.Temp != nil {
		return o.Temp.Name
	}
	return fmt.Sprintf("%d", o.Const)
}

// Global is a module-level variable: one word for scalars, Size words for
// arrays. Addr is its word address in the VM data segment, assigned by
// Module.Layout.
type Global struct {
	Name    string
	Size    int
	IsArray bool
	Addr    int
}

func (g *Global) String() string { return g.Name }

// LocalArray is a stack-allocated array. Its frame offset is assigned during
// code generation.
type LocalArray struct {
	Name string
	Size int
	// IsSpill marks a one-word home slot created by live-range splitting;
	// its accesses are scalar traffic (of a variable when SpillVar is set,
	// of a compiler temporary otherwise), not aggregate traffic.
	IsSpill  bool
	SpillVar bool
}

func (a *LocalArray) String() string { return a.Name }

// ArrayRef names either a global array or a local array; exactly one of the
// fields is non-nil.
type ArrayRef struct {
	Global *Global
	Local  *LocalArray
}

// Valid reports whether exactly one side is set.
func (a ArrayRef) Valid() bool { return (a.Global != nil) != (a.Local != nil) }

// Len returns the number of elements.
func (a ArrayRef) Len() int {
	if a.Global != nil {
		return a.Global.Size
	}
	return a.Local.Size
}

func (a ArrayRef) String() string {
	if a.Global != nil {
		return a.Global.Name
	}
	if a.Local != nil {
		return a.Local.Name
	}
	return "<none>"
}

// Instr is a single IR instruction.
type Instr struct {
	Op     Op
	Dst    *Temp     // result, nil if none
	A, B   Operand   // generic operands (see per-op comments)
	Args   []Operand // call arguments
	Callee *Func     // direct call target / FuncAddr target
	Global *Global   // for OpLoadG/OpStoreG
	Arr    ArrayRef  // for OpLoadIdx/OpStoreIdx
	Imm    int64     // for OpConst
	Target *Block    // for OpJmp/OpBr (taken edge)
	Else   *Block    // for OpBr (fallthrough edge)
}

// Uses appends the temps read by the instruction to buf and returns it.
func (in *Instr) Uses(buf []*Temp) []*Temp {
	add := func(o Operand) {
		if o.Temp != nil {
			buf = append(buf, o.Temp)
		}
	}
	switch in.Op {
	case OpConst, OpFuncAddr, OpJmp:
	case OpCopy, OpNeg, OpNot, OpLoadIdx, OpStoreG, OpPrint, OpBr:
		add(in.A)
	case OpRet:
		add(in.A)
	case OpStoreIdx:
		add(in.A)
		add(in.B)
	case OpLoadG:
	case OpCall:
		for _, a := range in.Args {
			add(a)
		}
	case OpCallInd:
		add(in.A)
		for _, a := range in.Args {
			add(a)
		}
	default: // binary arithmetic/comparison
		add(in.A)
		add(in.B)
	}
	return buf
}

// Def returns the temp written by the instruction, or nil.
func (in *Instr) Def() *Temp { return in.Dst }

// HasSideEffects reports whether the instruction must be kept even if its
// result is unused.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStoreG, OpStoreIdx, OpCall, OpCallInd, OpPrint, OpJmp, OpBr, OpRet:
		return true
	case OpDiv, OpRem:
		return true // may trap
	case OpLoadIdx:
		return true // may trap on bad index
	}
	return false
}

// Block is a basic block.
type Block struct {
	ID     int
	Name   string
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
	// LoopDepth is the natural-loop nesting depth, filled by dataflow.Loops.
	LoopDepth int
	// ProfCount is the measured execution count from a training run, or -1
	// when no profile is attached (the paper's planned profile feedback).
	ProfCount int64
}

func (b *Block) String() string { return b.Name }

// SetProfile attaches a measured execution count.
func (b *Block) SetProfile(count int64) { b.ProfCount = count }

// ClearProfile detaches profile data.
func (b *Block) ClearProfile() { b.ProfCount = -1 }

// Terminator returns the block's final instruction, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Freq is the execution-frequency estimate for the block. With a profile
// attached it is the measured count; otherwise it is the classic static
// loop-nesting heuristic 10^depth that the paper's allocator used in place
// of profile data.
func (b *Block) Freq() float64 {
	if b.ProfCount >= 0 {
		return float64(b.ProfCount)
	}
	f := 1.0
	for i := 0; i < b.LoopDepth && i < 6; i++ {
		f *= 10
	}
	return f
}

// Func is an IR function.
type Func struct {
	Name         string
	Params       []*Temp
	Returns      bool
	Extern       bool
	AddressTaken bool
	Blocks       []*Block
	LocalArrays  []*LocalArray

	nextTemp  int
	nextBlock int
	temps     []*Temp
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewTemp creates a fresh temp. If name is empty a compiler-temporary name
// is invented and IsVar is false.
func (f *Func) NewTemp(name string, isVar bool) *Temp {
	t := &Temp{ID: f.nextTemp, Name: name, IsVar: isVar}
	if name == "" {
		t.Name = fmt.Sprintf("t%d", f.nextTemp)
	}
	f.nextTemp++
	f.temps = append(f.temps, t)
	return t
}

// Temps returns all temps ever created, indexed by ID.
func (f *Func) Temps() []*Temp { return f.temps }

// TruncateTemps discards temps created after the first n, undoing temp
// creation when a speculative IR rewrite is rolled back. The caller must
// guarantee the discarded temps are unreferenced.
func (f *Func) TruncateTemps(n int) {
	if n < len(f.temps) {
		f.temps = f.temps[:n]
		f.nextTemp = n
	}
}

// NumTemps returns the number of temps created so far.
func (f *Func) NumTemps() int { return f.nextTemp }

// NumBlockIDs returns one more than the largest block ID handed out so far,
// the length of a slice indexed by b.ID. RemoveUnreachable renumbers blocks
// densely and lowers it again.
func (f *Func) NumBlockIDs() int { return f.nextBlock }

// NewBlock appends a fresh empty block (no profile attached).
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlock, Name: fmt.Sprintf("b%d", f.nextBlock), ProfCount: -1}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// ComputeCFG rebuilds Preds/Succs from terminators.
func (f *Func) ComputeCFG() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
		b.Succs = b.Succs[:0]
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		switch t.Op {
		case OpJmp:
			b.Succs = append(b.Succs, t.Target)
		case OpBr:
			b.Succs = append(b.Succs, t.Target)
			if t.Else != t.Target {
				b.Succs = append(b.Succs, t.Else)
			}
		}
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// RPO returns the blocks in reverse postorder from the entry. Unreachable
// blocks are excluded.
func (f *Func) RPO() []*Block {
	seen := make([]bool, f.nextBlock)
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if len(f.Blocks) > 0 {
		dfs(f.Entry())
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// RemoveUnreachable drops blocks not reachable from entry and recomputes the
// CFG. Block IDs are reassigned densely.
func (f *Func) RemoveUnreachable() {
	reach := f.RPO()
	inReach := make(map[*Block]bool, len(reach))
	for _, b := range reach {
		inReach[b] = true
	}
	var kept []*Block
	for _, b := range f.Blocks {
		if inReach[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
	for i, b := range f.Blocks {
		b.ID = i
	}
	f.nextBlock = len(f.Blocks)
	f.ComputeCFG()
}

// ExitBlocks returns the blocks ending in OpRet.
func (f *Func) ExitBlocks() []*Block {
	var out []*Block
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == OpRet {
			out = append(out, b)
		}
	}
	return out
}

// CallSites returns every call instruction with its block, in block order.
type CallSite struct {
	Block *Block
	Index int // instruction index within the block
	Instr *Instr
}

// CallSites lists the calls in the function.
func (f *Func) CallSites() []CallSite {
	var out []CallSite
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op.IsCall() {
				out = append(out, CallSite{Block: b, Index: i, Instr: in})
			}
		}
	}
	return out
}

// IsLeaf reports whether the function performs no calls.
func (f *Func) IsLeaf() bool { return len(f.CallSites()) == 0 }

// Module is a whole program in IR form.
type Module struct {
	Globals []*Global
	Funcs   []*Func
	byName  map[string]*Func
}

// NewModule creates an empty module.
func NewModule() *Module { return &Module{byName: map[string]*Func{}} }

// AddFunc registers a function.
func (m *Module) AddFunc(f *Func) {
	m.Funcs = append(m.Funcs, f)
	m.byName[f.Name] = f
}

// Lookup finds a function by name.
func (m *Module) Lookup(name string) *Func { return m.byName[name] }

// FuncIndex returns the 1-based "address" of a function, the runtime
// representation of function values (0 is the invalid function).
func (m *Module) FuncIndex(f *Func) int64 {
	for i, g := range m.Funcs {
		if g == f {
			return int64(i + 1)
		}
	}
	return 0
}

// DataBase is the word address where module globals begin in the VM data
// segment. Nonzero so that 0 can serve as an obviously-invalid address.
const DataBase = 1024

// Layout assigns word addresses to globals.
func (m *Module) Layout() {
	addr := DataBase
	for _, g := range m.Globals {
		g.Addr = addr
		addr += g.Size
	}
}

// DataSize returns the number of words of the data segment, including the
// reserved low region.
func (m *Module) DataSize() int {
	n := DataBase
	for _, g := range m.Globals {
		n += g.Size
	}
	return n
}
