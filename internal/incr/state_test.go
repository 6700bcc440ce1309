package incr

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"chow88/internal/codegen"
	"chow88/internal/core"
	"chow88/internal/mach"
	"chow88/internal/regalloc"
)

func sampleState() *State {
	return &State{
		ModeFP:    ModeFingerprint(core.ModeC()),
		GlobalsFP: sha256.Sum256([]byte("var g int;")),
		Funcs: []FuncState{
			{
				Name:      "helper",
				Extern:    true,
				ChunkHash: sha256.Sum256([]byte("extern func helper(x int) int;")),
				HeadHash:  sha256.Sum256([]byte("")),
				Head:      "",
				Linkage:   nil,
				Code:      nil,
			},
			{
				Name:        "work",
				ChunkHash:   sha256.Sum256([]byte("func work(a int) int { return helper(a); }")),
				HeadHash:    sha256.Sum256([]byte("func work(a int) int")),
				Head:        "func work(a int) int",
				Callees:     []string{"helper"},
				AddrTakes:   []string{"helper"},
				HasIndirect: true,
				Open:        false,
				HasSummary:  true,
				SummaryUsed: 0x00ff00f0,
				SummaryArgs: []regalloc.ArgLoc{{InReg: true, Reg: 4}},
				Linkage:     []byte{1, 0xf0, 0x00, 0xff, 0x00, 1, 1, 4, 0, 0, 0, 0},
				Code:        &codegen.FuncCode{FrameSize: 16},
			},
		},
	}
}

// TestStateRoundTrip: Save then Load reproduces the state exactly.
func TestStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.state")
	st := sampleState()
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, st)
	}

	// Saving over an existing statefile replaces it cleanly.
	st.Funcs = st.Funcs[:1]
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != 1 {
		t.Errorf("overwrite not visible: %d funcs, want 1", len(got.Funcs))
	}
}

// TestModeFingerprint: every output-relevant mode axis separates states;
// Sequential — the one axis that cannot change output — does not.
func TestModeFingerprint(t *testing.T) {
	modes := map[string]core.Mode{
		"base": core.ModeBase(),
		"A":    core.ModeA(),
		"B":    core.ModeB(),
		"C":    core.ModeC(),
		"D":    core.ModeD(),
		"E":    core.ModeE(),
	}
	fps := map[string]string{}
	for name, m := range modes {
		fps[name] = ModeFingerprint(m)
	}
	for a, fa := range fps {
		for b, fb := range fps {
			if a != b && fa == fb {
				t.Errorf("modes %s and %s share fingerprint %q", a, b, fa)
			}
		}
	}

	c := core.ModeC()
	base := ModeFingerprint(c)

	seq := c
	seq.Sequential = !seq.Sequential
	if ModeFingerprint(seq) != base {
		t.Error("Sequential must not affect the fingerprint (cold and cached compiles are byte-identical)")
	}

	fo := c
	fo.ForceOpen = []string{"b", "a"}
	fo2 := c
	fo2.ForceOpen = []string{"a", "b"}
	if ModeFingerprint(fo) != ModeFingerprint(fo2) {
		t.Error("ForceOpen order must not affect the fingerprint")
	}
	if ModeFingerprint(fo) == base {
		t.Error("ForceOpen contents must affect the fingerprint")
	}

	axes := map[string]func(*core.Mode){
		"IPRA":             func(m *core.Mode) { m.IPRA = !m.IPRA },
		"ShrinkWrap":       func(m *core.Mode) { m.ShrinkWrap = !m.ShrinkWrap },
		"Optimize":         func(m *core.Mode) { m.Optimize = !m.Optimize },
		"DisableSplitting": func(m *core.Mode) { m.DisableSplitting = !m.DisableSplitting },
		"Validate":         func(m *core.Mode) { m.Validate = !m.Validate },
		"Strict":           func(m *core.Mode) { m.Strict = !m.Strict },
		"Inline":           func(m *core.Mode) { m.Inline = !m.Inline },
		"InlineBudget":     func(m *core.Mode) { m.InlineBudget = 75 },
	}
	for name, flip := range axes {
		m := core.ModeC()
		flip(&m)
		if ModeFingerprint(m) == base {
			t.Errorf("flipping %s must change the fingerprint", name)
		}
	}
}

// TestModeFingerprintConventionAudit sweeps the entire convention
// enumeration: every distinct calling convention must fingerprint
// distinctly, or a statefile captured under one partition could be spliced
// into a build for another (stale summaries, wrong save sites — a silent
// miscompile, not a failure).
func TestModeFingerprintConventionAudit(t *testing.T) {
	cands := append([]*mach.Config{mach.Default(), mach.CallerOnly7(), mach.CalleeOnly7()},
		mach.Enumerate(-1)...)
	seen := map[string]string{} // fingerprint -> spec
	for _, c := range cands {
		fp := ModeFingerprint(core.ModeConv(c))
		spec := c.Spec()
		if prev, ok := seen[fp]; ok && prev != spec {
			t.Errorf("conventions %s and %s share fingerprint %q", prev, spec, fp)
		}
		seen[fp] = spec
	}
	// Same shape, different members: the short name collides (both are one
	// 2/1 partition) but the register sets must still separate the states.
	a := core.ModeConv(&mach.Config{Name: "x", CallerSaved: mach.SetOf(mach.T0, mach.T1), CalleeSaved: mach.SetOf(mach.S0)})
	b := core.ModeConv(&mach.Config{Name: "x", CallerSaved: mach.SetOf(mach.T0, mach.T2), CalleeSaved: mach.SetOf(mach.S0)})
	if ModeFingerprint(a) == ModeFingerprint(b) {
		t.Error("same-named conventions with different register sets share a fingerprint")
	}
	// And the parameter list alone must separate, too.
	p0 := core.ModeConv(mach.Boundary(9, 0))
	p4 := core.ModeConv(mach.Boundary(9, 4))
	if ModeFingerprint(p0) == ModeFingerprint(p4) {
		t.Error("parameter count does not reach the fingerprint")
	}
}

// TestSaveLockHeld: a writer that finds the advisory lock taken gets the
// typed ErrLocked and leaves the statefile untouched.
func TestSaveLockHeld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.state")
	st := sampleState()
	if err := st.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(LockPath(path), []byte("424242\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := sampleState()
	st2.GlobalsFP = sha256.Sum256([]byte("var h int;"))
	err := st2.Save(path)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("save under a held lock returned %v, want ErrLocked", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("statefile damaged by a locked-out writer: %v", err)
	}
	if got.GlobalsFP != st.GlobalsFP {
		t.Fatal("locked-out writer's payload reached the statefile")
	}
	if err := os.Remove(LockPath(path)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Save(path); err != nil {
		t.Fatalf("save after lock release: %v", err)
	}
}

// TestSaveConcurrentWriters hammers one statefile path from many
// goroutines. The advisory lock admits one writer at a time: every loser
// gets the typed ErrLocked (never a different error, never a partial
// write), and after every round the file on disk verifies end to end —
// magic, version, checksum, gob — as exactly one writer's output.
func TestSaveConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.state")
	const writers = 8
	const rounds = 25

	states := make([]*State, writers)
	for i := range states {
		states[i] = sampleState()
		states[i].GlobalsFP = sha256.Sum256([]byte{byte(i)})
	}

	var wins, losses atomic.Int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = states[i].Save(path)
			}(i)
		}
		wg.Wait()
		okByFP := map[[sha256.Size]byte]bool{}
		for i, err := range errs {
			switch {
			case err == nil:
				wins.Add(1)
				okByFP[states[i].GlobalsFP] = true
			case errors.Is(err, ErrLocked):
				losses.Add(1)
			default:
				t.Fatalf("round %d writer %d: unexpected error class: %v", round, i, err)
			}
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("round %d: statefile fails verification after concurrent writes: %v", round, err)
		}
		if !okByFP[got.GlobalsFP] {
			t.Fatalf("round %d: statefile holds a losing writer's payload", round)
		}
	}
	if wins.Load() == 0 {
		t.Fatal("no writer ever won the lock")
	}
	if losses.Load() == 0 {
		t.Skip("writers never actually contended; lock exclusion unexercised this run")
	}
}
