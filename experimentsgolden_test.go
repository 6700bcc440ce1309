package chow88

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"chow88/internal/experiments"
)

// buildExperiments builds cmd/experiments into a temporary directory.
func buildExperiments(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestExperimentsGolden pins every paper metric the evaluation prints: the
// full `experiments -all` output (Tables 1–2, Figures 1–4, the height
// ablation, profile feedback, inlining vs IPRA, the convention sweep and the
// tuner) must match testdata/experiments.golden byte for byte. The output is
// deterministic (the sweep and tuner are byte-identical across worker
// counts), so any drift is a change to generated code or to what a table
// measures; run with -update only after such an intended change.
func TestExperimentsGolden(t *testing.T) {
	got, err := exec.Command(buildExperiments(t), "-all").Output()
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

// TestExperimentsConventionFlags drives the convention-space flags of the
// experiments binary: an incoherent -conv spec exits with the bad-convention
// code and names the broken rule, and -sample/-gen size the sweep's
// candidates and workload.
func TestExperimentsConventionFlags(t *testing.T) {
	bin := buildExperiments(t)

	cmd := exec.Command(bin, "-sweep", "-conv", "caller=t0-t9;callee=t0,s0-s8;params=a0")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != ExitBadConv {
		t.Errorf("bad -conv: %v, want exit code %d", err, ExitBadConv)
	}
	if !strings.Contains(stderr.String(), "caller-callee-overlap") {
		t.Errorf("bad -conv stderr %q does not name caller-callee-overlap", stderr.String())
	}

	got, err := exec.Command(bin, "-sweep", "-sample", "2", "-gen", "1").Output()
	if err != nil {
		t.Fatalf("-sweep -sample 2 -gen 1: %v", err)
	}
	wl, err := experiments.SweepWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.Sweep(experiments.SampleConventions(2), wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.FormatSweep(rep) + "\n"; string(got) != want {
		t.Errorf("-sweep -sample 2 -gen 1 differs from Sweep(SampleConventions(2), SweepWorkload(1)):\n%s",
			firstDiff(want, string(got)))
	}
}
