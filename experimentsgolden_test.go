package chow88

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExperimentsGolden pins every paper metric the evaluation prints: the
// full `experiments -all` output (Tables 1–2, Figures 1–4, the height
// ablation, profile feedback, inlining vs IPRA, the convention sweep and the
// tuner) must match testdata/experiments.golden byte for byte. The output is
// deterministic (the sweep and tuner are byte-identical across worker
// counts), so any drift is a change to generated code or to what a table
// measures; run with -update only after such an intended change.
func TestExperimentsGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	got, err := exec.Command(bin, "-all").Output()
	if err != nil {
		t.Fatalf("experiments -all: %v", err)
	}
	golden := filepath.Join("testdata", "experiments.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("experiments -all drifted from %s (run with -update if intended)\n%s",
			golden, firstDiff(string(want), string(got)))
	}
}
