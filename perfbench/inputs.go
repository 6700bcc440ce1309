package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/interp"
	"chow88/internal/parser"
	"chow88/internal/progen"
	"chow88/internal/sema"
)

// program is one benchmark input carved into its top-level chunks, with the
// functions an edit may touch.
type program struct {
	name string
	src  string
	// paper marks the 13 suite programs and benchprog.Large: the fixed set
	// whose generated-code metrics are summed. Seeded progen programs vary
	// too much in size and run time to be summed steadily.
	paper  bool
	chunks []front.Chunk
	// editable indexes chunks of functions whose first parameter is an int
	// (name in param); main is always editable with a print.
	editable []int
	param    map[int]string
	main     int
}

// firstIntParam matches a function head whose first parameter is an int.
var firstIntParam = regexp.MustCompile(`^func\s+\w+\s*\(\s*(\w+)\s+int\s*[,)]`)

func newProgram(name, src string, paper bool) (*program, error) {
	chunks, err := front.ChunkSource(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &program{name: name, src: src, paper: paper, chunks: chunks, param: map[int]string{}, main: -1}
	for i, c := range chunks {
		if c.Kind != front.ChunkFunc {
			continue
		}
		if c.Name == "main" {
			p.main = i
			continue
		}
		if m := firstIntParam.FindStringSubmatch(c.Head); m != nil {
			p.editable = append(p.editable, i)
			p.param[i] = m[1]
		}
	}
	if p.main < 0 {
		return nil, fmt.Errorf("%s: no main", name)
	}
	return p, nil
}

// corpus returns the compile and edit inputs: the 13 suite programs,
// benchprog.Large, and nProgen seeded progen programs.
func corpus(seed int64, nProgen int) ([]*program, error) {
	var out []*program
	for _, b := range append(benchprog.All(), benchprog.Large()) {
		p, err := newProgram(b.Name, b.Source, true)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	for s, want := seed*1000, len(out)+nProgen; len(out) < want; s++ {
		src := progen.Generate(s, progen.DefaultConfig())
		if len(src) < progenMinBytes || len(src) > progenMaxBytes || !quick(src) {
			continue
		}
		p, err := newProgram(fmt.Sprintf("progen%d", s), src, false)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Progen programs are drawn until nProgen pass quick: the interpreter
// finishes them within quickSteps and they print at most quickOutput
// values, so no seed buys an oracle or a run that dwarfs the suite's.
// Their source must also fall within progenMinBytes..progenMaxBytes:
// compile time tracks source size, and the window keeps it from changing
// much from seed to seed (default-config programs span about 1.5-4.7 KB).
const (
	quickSteps     = 2_000_000
	quickOutput    = 1000
	progenMinBytes = 2500
	progenMaxBytes = 3300
)

func quick(src string) bool {
	tree, err := parser.Parse(src)
	if err != nil {
		return false
	}
	info, err := sema.Check(tree)
	if err != nil {
		return false
	}
	res, err := interp.Run(info, interp.Options{MaxSteps: quickSteps})
	return err == nil && len(res.Output) <= quickOutput
}

// An edit is one statement block inserted at the start of one function body.
// pressure marks a pressureEdit.
type edit struct {
	chunk    int
	stmt     string
	pressure bool
}

// guardMagic keeps guarded prints from ever firing: no suite or progen
// value reaches it, and the interpreter oracle would catch one that did.
const guardMagic = 987654321

// bodyEdit changes one function's code without changing what the program
// prints: a guarded print on the first parameter, or a print in main. uniq
// makes the revision's source unique.
func (p *program) bodyEdit(rng *rand.Rand, uniq int64) edit {
	n := len(p.editable)
	if n == 0 || rng.Intn(n+1) == n {
		return edit{chunk: p.main, stmt: fmt.Sprintf("print(%d);", uniq)}
	}
	i := p.editable[rng.Intn(n)]
	return edit{chunk: i, stmt: fmt.Sprintf("if (%s == %d) { print(%d); }", p.param[i], -guardMagic-uniq, uniq)}
}

// pressureEdit holds eight values live at once in one function, enough to
// widen its register-usage summary and push the change to its callers.
func (p *program) pressureEdit(rng *rand.Rand, uniq int64) edit {
	if len(p.editable) == 0 {
		return p.bodyEdit(rng, uniq)
	}
	i := p.editable[rng.Intn(len(p.editable))]
	x := p.param[i]
	stmt := fmt.Sprintf(`var zpa int; var zpb int; var zpc int; var zpd int;
  var zpe int; var zpf int; var zpg int; var zph int;
  zpa = %[1]s + %[2]d; zpb = zpa * 3 + %[1]s; zpc = zpb - zpa * 5; zpd = zpc + zpb * 7;
  zpe = zpd - zpc + zpa; zpf = zpe * zpb + zpd; zpg = zpf - zpe * zpc; zph = zpg + zpf - zpd;
  if (zpa + zpb + zpc + zpd + zpe + zpf + zpg + zph == %[3]d) { print(%[2]d); }`, x, uniq, -guardMagic-uniq)
	return edit{chunk: i, stmt: stmt, pressure: true}
}

// mixedEdit is a body edit three times in four, a pressure edit otherwise:
// most edits leave every summary alone, some propagate. The ratio is a
// choice, not a measured edit mix; the traced run reports the share of
// rebuilds that did reach beyond the edited function
// (incr.propagated_ratio, incr.pressure_propagated_ratio).
func (p *program) mixedEdit(rng *rand.Rand, uniq int64) edit {
	if rng.Intn(4) == 0 {
		return p.pressureEdit(rng, uniq)
	}
	return p.bodyEdit(rng, uniq)
}

// source renders the program with at most one inserted block per function.
func (p *program) source(slots map[int]string) string {
	var b strings.Builder
	for i, c := range p.chunks {
		if stmt, ok := slots[i]; ok {
			brace := strings.Index(c.Text, "{")
			b.WriteString(c.Text[:brace+1])
			b.WriteString("\n  ")
			b.WriteString(stmt)
			b.WriteString(c.Text[brace+1:])
		} else {
			b.WriteString(c.Text)
		}
		b.WriteString("\n\n")
	}
	return b.String()
}

// revision renders the program with the single edit e.
func (p *program) revision(e edit) string {
	return p.source(map[int]string{e.chunk: e.stmt})
}

// chain is an editing session on one program: each step replaces the
// block inserted in one function, so consecutive revisions differ in
// exactly that function and sources stay bounded however long it runs.
type chain struct {
	p     *program
	rng   *rand.Rand
	slots map[int]string
}

func newChain(p *program, seed int64) *chain {
	return &chain{p: p, rng: rand.New(rand.NewSource(seed)), slots: map[int]string{}}
}

// step applies e and returns the new revision's source.
func (c *chain) step(e edit) string {
	c.slots[e.chunk] = e.stmt
	return c.p.source(c.slots)
}
