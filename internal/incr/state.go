package incr

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"

	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/faultinject"
	"chow88/internal/front"
	"chow88/internal/ir"
	"chow88/internal/regalloc"
)

// State is everything a later compile needs to replay one build
// incrementally: per-function source hashes to detect edits, the call/
// address-reference structure to rebuild the call graph without
// re-front-ending unchanged bodies, the published linkage (the paper's
// summary + argument locations, canonically encoded) to decide where
// invalidation stops, and the relocatable code artifact to reuse verbatim.
type State struct {
	// ModeFP fingerprints every Mode field that can change output; a state
	// captured under a different mode is unusable.
	ModeFP string
	// GlobalsFP hashes all top-level var declarations together: any global
	// edit changes the data layout every function may depend on, so it
	// forces a full rebuild.
	GlobalsFP [sha256.Size]byte
	// Funcs describes every function declaration, in module order.
	Funcs []FuncState
}

// FuncState is one function's captured build artifacts.
type FuncState struct {
	Name   string
	Extern bool
	// ChunkHash covers the declaration's whole source chunk; HeadHash just
	// the signature (whose change invalidates callers, not only the body's
	// owner). Head is the signature text, re-declared as `extern Head;` in
	// mini-sources.
	ChunkHash [sha256.Size]byte
	HeadHash  [sha256.Size]byte
	Head      string
	// Call-graph structure of the lowered body: distinct direct callees in
	// first-call order, functions whose address the body takes, and
	// whether it calls indirectly. Enough to rebuild this function's
	// call-graph contribution without its body.
	Callees     []string
	AddrTakes   []string
	HasIndirect bool
	// Published linkage. Open/summary mirror the plan; Linkage is
	// core.EncodeLinkage's canonical encoding, the unit of delta
	// comparison.
	Open        bool
	HasSummary  bool
	SummaryUsed uint32
	SummaryArgs []regalloc.ArgLoc
	Linkage     []byte
	// Code is the relocatable emitted body (nil for extern).
	Code *codegen.FuncCode
}

// Statefile format: magic, format version, checksum of the gob payload,
// payload. Load rejects anything that does not verify end to end — a
// corrupt statefile must degrade to a full recompile, never miscompile.
const (
	stateMagic = "CHOWINCR"
	// Version is the statefile format version; bump on any layout change.
	// v2: mcode.Instr gained the Linkage attribution bit (gob layout of the
	// cached FuncCode bodies changed, and v1 code replayed into a v2 build
	// would silently lack linkage-cycle accounting).
	Version = 2
)

// ErrLocked reports that another writer holds the statefile's advisory
// lock. The loser of a write race gets this typed error and no side
// effects: the winner's .tmp+rename sequence can never interleave with
// another writer's, so the statefile on disk is always one writer's
// complete, checksummed output. Callers treat a lost race like a failed
// save — the next round simply has no head start.
var ErrLocked = errors.New("incr: statefile locked by another writer")

// LockPath returns the advisory lockfile guarding the statefile at path.
func LockPath(path string) string { return path + ".lock" }

// lock acquires the advisory lockfile with O_CREATE|O_EXCL — atomic on
// every platform the toolchain targets, no flock dependency. The lockfile
// records the holder's pid for post-mortem debugging. A crashed holder
// leaves the lock behind; that only blocks future state captures (each
// degrading to a full rebuild next round, never a miscompile), and
// long-lived daemons clear stale locks for the state directories they own
// at startup.
func lock(path string) (release func(), err error) {
	lp := LockPath(path)
	f, err := os.OpenFile(lp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			holder, _ := os.ReadFile(lp)
			return nil, fmt.Errorf("%w (%s held by pid %s)", ErrLocked, lp, bytes.TrimSpace(holder))
		}
		return nil, err
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	f.Close()
	return func() { os.Remove(lp) }, nil
}

// Save writes the state to path (atomically, via a rename) under the
// statefile's advisory lock. A concurrent writer gets ErrLocked instead of
// a torn or interleaved file.
func (st *State) Save(path string) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return fmt.Errorf("incr: encode state: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	var out bytes.Buffer
	out.WriteString(stateMagic)
	var ver [4]byte
	binary.LittleEndian.PutUint32(ver[:], Version)
	out.Write(ver[:])
	out.Write(sum[:])
	out.Write(payload.Bytes())
	if faultinject.Armed() && faultinject.CorruptStatefile(path) {
		// Chaos: flip one payload byte after the checksum was computed, so
		// the corruption is end-to-end detectable. Load must reject the
		// file and the next build degrade to a full rebuild.
		b := out.Bytes()
		b[len(b)-1] ^= 0x01
	}
	release, err := lock(path)
	if err != nil {
		return err
	}
	defer release()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a statefile. Any mismatch — magic, version, checksum, gob
// decoding — is an error; the caller treats it as "no previous state".
func Load(path string) (*State, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr := len(stateMagic) + 4 + sha256.Size
	if len(raw) < hdr || string(raw[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("incr: %s is not a statefile", path)
	}
	if v := binary.LittleEndian.Uint32(raw[len(stateMagic):]); v != Version {
		return nil, fmt.Errorf("incr: statefile version %d, want %d", v, Version)
	}
	var sum [sha256.Size]byte
	copy(sum[:], raw[len(stateMagic)+4:])
	payload := raw[hdr:]
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("incr: statefile checksum mismatch")
	}
	st := &State{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(st); err != nil {
		return nil, fmt.Errorf("incr: decode state: %w", err)
	}
	return st, nil
}

// ModeFingerprint flattens every output-relevant Mode field. Sequential is
// deliberately excluded: it only bypasses the front-end cache, and cold and
// cached compiles are byte-identical, so states transfer between them.
func ModeFingerprint(mode core.Mode) string {
	cfg := mode.Config
	fo := append([]string(nil), mode.ForceOpen...)
	sort.Strings(fo)
	return fmt.Sprintf("v%d|%s|ipra=%t|sw=%t|opt=%t|nosplit=%t|validate=%t|strict=%t|inline=%t/%d|cfg=%s/%08x/%08x/%v|forceopen=%v",
		Version, mode.Name, mode.IPRA, mode.ShrinkWrap, mode.Optimize, mode.DisableSplitting,
		mode.Validate, mode.Strict, mode.Inline, mode.InlineBudget,
		cfg.Name, uint32(cfg.CallerSaved), uint32(cfg.CalleeSaved), cfg.Params, fo)
}

// Capture builds the state of a finished full build: src must be the
// source pp was compiled from, and codes the relocatable bodies the build
// emitted from pp's final plans (codegen.Generate's slice, one per
// pp.Module function), kept as the code artifacts.
func Capture(src string, mode core.Mode, pp *core.ProgramPlan, codes []*codegen.FuncCode) (*State, error) {
	chunks, err := front.ChunkSource(src)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]front.Chunk, len(chunks))
	for _, c := range chunks {
		byName[c.Name] = c
	}
	st := &State{ModeFP: ModeFingerprint(mode), GlobalsFP: globalsFingerprint(chunks)}
	for i, f := range pp.Module.Funcs {
		c, ok := byName[f.Name]
		if !ok {
			return nil, fmt.Errorf("incr: no source chunk for %s", f.Name)
		}
		if wantKind := front.ChunkFunc; (f.Extern && c.Kind != front.ChunkExtern) || (!f.Extern && c.Kind != wantKind) {
			return nil, fmt.Errorf("incr: chunk kind mismatch for %s", f.Name)
		}
		fs := FuncState{
			Name:      f.Name,
			Extern:    f.Extern,
			ChunkHash: sha256.Sum256([]byte(c.Text)),
			HeadHash:  sha256.Sum256([]byte(c.Head)),
			Head:      c.Head,
		}
		if !f.Extern {
			fp := pp.Funcs[f]
			if fp == nil {
				return nil, fmt.Errorf("incr: no plan for %s", f.Name)
			}
			scanBody(f, &fs)
			fs.Open = pp.Graph.Open[f]
			setLinkage(&fs, fp.Summary)
			fs.Code = codes[i]
		}
		st.Funcs = append(st.Funcs, fs)
	}
	return st, nil
}

// setLinkage records a plan's published linkage on the state entry.
func setLinkage(fs *FuncState, s *core.Summary) {
	if s != nil && !fs.Open {
		fs.HasSummary = true
		fs.SummaryUsed = uint32(s.Used)
		fs.SummaryArgs = append([]regalloc.ArgLoc(nil), s.Args...)
	}
	if fs.Open {
		fs.Linkage = core.EncodeLinkage(true, nil)
	} else {
		fs.Linkage = core.EncodeLinkage(false, s)
	}
}

// scanBody extracts the call-graph contribution of f's lowered body.
func scanBody(f *ir.Func, fs *FuncState) {
	seenCall := map[string]bool{}
	seenAddr := map[string]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCall:
				if !seenCall[in.Callee.Name] {
					seenCall[in.Callee.Name] = true
					fs.Callees = append(fs.Callees, in.Callee.Name)
				}
			case ir.OpCallInd:
				fs.HasIndirect = true
			case ir.OpFuncAddr:
				if !seenAddr[in.Callee.Name] {
					seenAddr[in.Callee.Name] = true
					fs.AddrTakes = append(fs.AddrTakes, in.Callee.Name)
				}
			}
		}
	}
}

// globalsFingerprint hashes every top-level var declaration, in order.
func globalsFingerprint(chunks []front.Chunk) [sha256.Size]byte {
	h := sha256.New()
	for _, c := range chunks {
		if c.Kind == front.ChunkGlobal {
			h.Write([]byte(c.Text))
			h.Write([]byte{0})
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
