package chow88

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chow88/internal/benchprog"
	"chow88/internal/front"
	"chow88/internal/incr"
	"chow88/internal/mach"
	"chow88/internal/obs"
	"chow88/internal/pipeline"
	"chow88/internal/progen"
)

// Incremental recompilation's contract is absolute: whatever the edit,
// whatever was reused, the output must be byte-identical to a full
// compile of the same source. These tests enforce it over hand-written
// edits, generated programs and randomized edit sequences, and pin the
// reuse accounting (the whole point of the feature) via obs counters.

// samePrograms compares two linked images in full: every instruction,
// every function record, the data layout.
func sameProgram(t *testing.T, ctx string, got, want *Program) {
	t.Helper()
	if got.Disassemble() != want.Disassemble() {
		t.Fatalf("%s: incremental disassembly diverged from full compile", ctx)
	}
	if !reflect.DeepEqual(got.Code, want.Code) {
		t.Fatalf("%s: incremental image diverged from full compile beyond the disassembly", ctx)
	}
}

// bodyEdit inserts a statement at the start of the named function's body.
func bodyEdit(t testing.TB, src, name, stmt string) string {
	t.Helper()
	chunks, err := front.ChunkSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if c.Kind == front.ChunkFunc && c.Name == name {
			brace := strings.Index(c.Text, "{")
			chunks[i].Text = c.Text[:brace+1] + "\n  " + stmt + c.Text[brace+1:]
			return joinChunks(chunks)
		}
	}
	t.Fatalf("no function %s in source", name)
	return ""
}

func joinChunks(chunks []front.Chunk) string {
	var b strings.Builder
	for _, c := range chunks {
		b.WriteString(c.Text)
		b.WriteString("\n\n")
	}
	return b.String()
}

// definedFuncs returns the names of the function definitions in src, in
// declaration order.
func definedFuncs(t testing.TB, src string) []string {
	t.Helper()
	chunks, err := front.ChunkSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range chunks {
		if c.Kind == front.ChunkFunc {
			names = append(names, c.Name)
		}
	}
	return names
}

// TestIncrementalByteIdentity: for every suite program and a spread of
// modes, an incremental rebuild after a body edit must equal the full
// compile of the edited source, and an untouched rebuild must reuse
// every function.
func TestIncrementalByteIdentity(t *testing.T) {
	for _, mode := range []Mode{ModeBase(), ModeB(), ModeC()} {
		for _, b := range benchprog.All() {
			t.Run(mode.Name+"/"+b.Name, func(t *testing.T) {
				res1, err := pipeline.BuildIncremental(b.Source, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res1.Incremental {
					t.Fatal("first build with no state claims to be incremental")
				}
				if res1.State == nil {
					t.Fatal("clean full build captured no state")
				}

				// No edit: everything must be reused.
				res2, err := pipeline.BuildIncremental(b.Source, mode, res1.State)
				if err != nil {
					t.Fatal(err)
				}
				if !res2.Incremental {
					t.Fatalf("identical source fell back to a full rebuild")
				}
				if res2.Replanned != 0 {
					t.Fatalf("identical source replanned %d functions", res2.Replanned)
				}
				full, err := Compile(b.Source, mode)
				if err != nil {
					t.Fatal(err)
				}
				sameProgram(t, "no-edit", &Program{Code: res2.Prog}, full)

				// Body edit on the last defined function that isn't main.
				names := definedFuncs(t, b.Source)
				victim := names[0]
				for _, n := range names {
					if n != "main" {
						victim = n
					}
				}
				edited := bodyEdit(t, b.Source, victim, "print(90001);")
				res3, err := pipeline.BuildIncremental(edited, mode, res2.State)
				if err != nil {
					t.Fatal(err)
				}
				if !res3.Incremental {
					t.Fatalf("body edit fell back to a full rebuild: %s", res3.FallbackReason)
				}
				fullEdited, err := Compile(edited, mode)
				if err != nil {
					t.Fatal(err)
				}
				sameProgram(t, "body-edit "+victim, &Program{Code: res3.Prog}, fullEdited)
				if res3.Replanned == 0 {
					t.Error("body edit replanned nothing")
				}
			})
		}
	}
}

// arity counts the parameters a chunk head declares.
func arity(head string) int {
	open := strings.Index(head, "(")
	close := strings.Index(head, ")")
	inner := strings.TrimSpace(head[open+1 : close])
	if inner == "" {
		return 0
	}
	return strings.Count(inner, ",") + 1
}

// mutate applies one random edit to the chunk list and returns the new
// source: a body edit, a consistent parameter rename (signature edit), a
// new call edge, or a new function plus a call to it.
func mutate(t *testing.T, rng *rand.Rand, src string, step int) string {
	t.Helper()
	chunks, err := front.ChunkSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var fns []int
	for i, c := range chunks {
		if c.Kind == front.ChunkFunc {
			fns = append(fns, i)
		}
	}
	pick := func(notMain bool) int {
		for {
			i := fns[rng.Intn(len(fns))]
			if !notMain || chunks[i].Name != "main" {
				return i
			}
		}
	}
	insert := func(i int, stmt string) {
		c := chunks[i]
		brace := strings.Index(c.Text, "{")
		chunks[i].Text = c.Text[:brace+1] + "\n  " + stmt + c.Text[brace+1:]
	}
	switch rng.Intn(4) {
	case 0: // body edit
		insert(pick(false), fmt.Sprintf("print(%d);", 100000+step))
	case 1: // signature edit: rename the first parameter everywhere in the chunk
		i := pick(true)
		from, to := "p0", "qq0"
		if !strings.Contains(chunks[i].Head, from) {
			from, to = "qq0", "p0"
		}
		if strings.Contains(chunks[i].Head, from) {
			chunks[i].Text = strings.ReplaceAll(chunks[i].Text, from, to)
			chunks[i].Head = strings.ReplaceAll(chunks[i].Head, from, to)
		} else {
			insert(i, fmt.Sprintf("print(%d);", 200000+step))
		}
	case 2: // call-edge edit: make one function call another
		caller, callee := pick(false), pick(true)
		args := make([]string, arity(chunks[callee].Head))
		for k := range args {
			args[k] = fmt.Sprint(rng.Intn(5))
		}
		insert(caller, fmt.Sprintf("print(%s(%s));", chunks[callee].Name, strings.Join(args, ", ")))
	case 3: // new function, inserted at a random declaration position
		name := fmt.Sprintf("zq%d", step)
		nc := front.Chunk{
			Name: name,
			Kind: front.ChunkFunc,
			Text: fmt.Sprintf("func %s(a int) int { return a * 2 + %d; }", name, step),
		}
		at := fns[rng.Intn(len(fns))]
		chunks = append(chunks[:at], append([]front.Chunk{nc}, chunks[at:]...)...)
		// ... and a caller, so the new function is reachable.
		fns = fns[:0]
		for i, c := range chunks {
			if c.Kind == front.ChunkFunc && c.Name != name {
				fns = append(fns, i)
			}
		}
		insert(pick(false), fmt.Sprintf("print(%s(%d));", name, step))
	}
	return joinChunks(chunks)
}

// TestIncrementalEditSequences drives randomized edit sequences over
// generated programs — body, signature, call-edge and new-function
// mutations — checking byte-identity against a from-scratch compile at
// every step, and that the incremental path (not the fallback) is doing
// the work.
func TestIncrementalEditSequences(t *testing.T) {
	steps := 8
	if testing.Short() {
		steps = 3
	}
	for _, mode := range []Mode{ModeBase(), ModeC()} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				src := progen.Generate(seed, progen.DefaultConfig())
				res, err := pipeline.BuildIncremental(src, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				incremental := 0
				for step := 0; step < steps; step++ {
					src = mutate(t, rng, src, step)
					res, err = pipeline.BuildIncremental(src, mode, res.State)
					if err != nil {
						t.Fatalf("step %d: %v\nsource:\n%s", step, err, src)
					}
					if res.Incremental {
						incremental++
					} else {
						t.Logf("step %d fell back: %s", step, res.FallbackReason)
					}
					full, err := Compile(src, mode)
					if err != nil {
						t.Fatalf("step %d full compile: %v\nsource:\n%s", step, err, src)
					}
					sameProgram(t, fmt.Sprintf("step %d", step), &Program{Code: res.Prog}, full)
				}
				if incremental == 0 {
					t.Error("no step took the incremental path")
				}
			})
		}
	}
}

// TestIncrementalEditSequenceStress widens the sequence test to every
// measurement mode and a dozen seeds (including the register-pressure
// configurations D and E, whose linkage vectors differ most). Trimmed
// under -short; `make incr` runs it in full.
func TestIncrementalEditSequenceStress(t *testing.T) {
	modes := []Mode{ModeBase(), ModeB(), ModeC(), ModeD(), ModeE()}
	seeds, steps := int64(12), 12
	if testing.Short() {
		modes = []Mode{ModeC()}
		seeds, steps = 2, 4
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.Name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 1000))
				src := progen.Generate(seed, progen.DefaultConfig())
				res, err := pipeline.BuildIncremental(src, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < steps; step++ {
					src = mutate(t, rng, src, step)
					res, err = pipeline.BuildIncremental(src, mode, res.State)
					if err != nil {
						t.Fatalf("step %d: %v\nsource:\n%s", step, err, src)
					}
					full, err := Compile(src, mode)
					if err != nil {
						t.Fatalf("step %d full compile: %v\nsource:\n%s", step, err, src)
					}
					sameProgram(t, fmt.Sprintf("step %d", step), &Program{Code: res.Prog}, full)
				}
			})
		}
	}
}

// TestIncrementalFrontier is the acceptance bar for the reuse accounting:
// on the large suite program, a one-function body edit must replan only
// that function once its republished linkage matches (summary cut-off),
// reuse every other function's plan and code, and still be byte-identical.
func TestIncrementalFrontier(t *testing.T) {
	b := benchprog.Large()
	mode := ModeC()
	s := obs.Begin(obs.Options{})
	defer obs.End()

	res1, err := pipeline.BuildIncremental(b.Source, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	defined := definedFuncs(t, b.Source)
	victim := ""
	for _, n := range defined {
		if n != "main" {
			victim = n
		}
	}

	// A comment-only body edit: the chunk hash changes, so the function is
	// replanned — but its plan, and therefore its published linkage, comes
	// out identical, so the delta propagation must stop immediately.
	edited := bodyEdit(t, b.Source, victim, "/* nudge */")
	snap := s.Snap()
	res2, err := pipeline.BuildIncremental(edited, mode, res1.State)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.ReportSince(snap)
	if !res2.Incremental {
		t.Fatalf("fell back to a full rebuild: %s", res2.FallbackReason)
	}
	if got := rep.Counter("incr.funcs_replanned"); got != 1 {
		t.Errorf("replanned %d functions for a one-function edit, want 1", got)
	}
	if got := rep.Counter("incr.summary_cutoffs"); got != 1 {
		t.Errorf("summary cut-offs %d, want 1 (the edited function republishes identical linkage)", got)
	}
	if got := rep.Counter("incr.delta_propagations"); got != 0 {
		t.Errorf("delta propagated to %d callers, want 0", got)
	}
	if got := rep.Counter("incr.funcs_reused"); got != int64(len(defined)-1) {
		t.Errorf("reused %d functions, want %d", got, len(defined)-1)
	}
	if got := rep.Counter("incr.code_reused"); got != int64(len(defined)-1) {
		t.Errorf("reused %d code artifacts, want %d", got, len(defined)-1)
	}
	full, err := Compile(edited, mode)
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "comment edit", &Program{Code: res2.Prog}, full)

	// A real edit to the same function: still byte-identical; the frontier
	// stays bounded by the function plus its transitive callers.
	edited2 := bodyEdit(t, edited, victim, "print(424242);")
	snap = s.Snap()
	res3, err := pipeline.BuildIncremental(edited2, mode, res2.State)
	if err != nil {
		t.Fatal(err)
	}
	rep = s.ReportSince(snap)
	if !res3.Incremental {
		t.Fatalf("fell back to a full rebuild: %s", res3.FallbackReason)
	}
	if got := rep.Counter("incr.funcs_replanned"); got < 1 || got >= int64(len(defined)) {
		t.Errorf("replanned %d functions, want at least 1 and fewer than all %d", got, len(defined))
	}
	full2, err := Compile(edited2, mode)
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "real edit", &Program{Code: res3.Prog}, full2)
}

// TestIncrementalStatefile exercises the on-disk path end to end:
// CompileIncremental creates, uses and refreshes the statefile, and every
// corruption of it degrades to a correct full recompile.
func TestIncrementalStatefile(t *testing.T) {
	b := benchprog.Lookup("stanford")
	mode := ModeC()
	path := filepath.Join(t.TempDir(), "stanford.state")

	p1, err := CompileIncremental(b.Source, mode, path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("statefile not written: %v", err)
	}
	if _, err := incr.Load(path); err != nil {
		t.Fatalf("fresh statefile does not load: %v", err)
	}
	full, err := Compile(b.Source, mode)
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "first build", p1, full)

	edited := bodyEdit(t, b.Source, definedFuncs(t, b.Source)[0], "print(31337);")
	p2, err := CompileIncremental(edited, mode, path)
	if err != nil {
		t.Fatal(err)
	}
	fullEdited, err := Compile(edited, mode)
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "incremental edit", p2, fullEdited)

	// Corrupt the statefile every way we can think of; each must be
	// rejected by Load and the compile must stay correct.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string][]byte{
		"bit-flip-payload": append(append([]byte{}, good[:len(good)-7]...), good[len(good)-7]^0x40),
		"truncated":        good[:len(good)/2],
		"bad-magic":        append([]byte("NOTSTATE"), good[8:]...),
		"bad-version":      append(append([]byte{}, good[:8]...), append([]byte{0xff, 0xff, 0xff, 0xff}, good[12:]...)...),
		"empty":            {},
		"garbage":          []byte("CHOWINCR but not really"),
	}
	for name, data := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := incr.Load(path); err == nil {
				t.Error("corrupt statefile loaded without error")
			}
			p, err := CompileIncremental(edited, mode, path)
			if err != nil {
				t.Fatalf("corrupt statefile broke the compile: %v", err)
			}
			sameProgram(t, name, p, fullEdited)
			// The full rebuild must have replaced the corrupt statefile with
			// a usable one.
			if _, err := incr.Load(path); err != nil {
				t.Errorf("statefile not repaired after fallback: %v", err)
			}
		})
	}
}

// TestIncrementalModeChange: a state captured under one mode must not
// serve another; the build falls back and recaptures.
func TestIncrementalModeChange(t *testing.T) {
	b := benchprog.Lookup("stanford")
	res, err := pipeline.BuildIncremental(b.Source, ModeC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pipeline.BuildIncremental(b.Source, ModeB(), res.State)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental {
		t.Fatal("state captured under ModeC was reused for ModeB")
	}
	if !strings.Contains(res2.FallbackReason, "mode changed") {
		t.Errorf("fallback reason %q does not mention the mode change", res2.FallbackReason)
	}
	full, err := Compile(b.Source, ModeB())
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "mode change", &Program{Code: res2.Prog}, full)
}

// TestIncrementalConventionChange proves a statefile is keyed to its
// calling convention: state captured under the default convention is never
// spliced into a build for a different caller/callee partition (stale
// summaries and save sites would miscompile silently), while state captured
// under the custom convention still transfers to a matching build.
func TestIncrementalConventionChange(t *testing.T) {
	b := benchprog.Lookup("stanford")
	conv := mach.Boundary(13, 2)
	res, err := pipeline.BuildIncremental(b.Source, ModeC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pipeline.BuildIncremental(b.Source, ModeConv(conv), res.State)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Incremental {
		t.Fatal("state captured under the default convention was reused for " + conv.Spec())
	}
	if !strings.Contains(res2.FallbackReason, "mode changed") {
		t.Errorf("fallback reason %q does not mention the mode change", res2.FallbackReason)
	}
	full, err := Compile(b.Source, ModeConv(conv))
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "convention change", &Program{Code: res2.Prog}, full)

	// The full rebuild's state is keyed to the new convention and transfers
	// to the next matching build.
	res3, err := pipeline.BuildIncremental(b.Source, ModeConv(conv), res2.State)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Incremental {
		t.Errorf("convention-matched state did not transfer: %q", res3.FallbackReason)
	}
}
