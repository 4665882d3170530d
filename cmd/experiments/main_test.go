package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperiment: an -exp name outside the experiment list,
// including the retired bench, serve, load and chaos, exits with status
// 1 and an error that lists every valid name, so a stale script fails
// instead of printing nothing and passing.
func TestUnknownExperiment(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range []string{"nosuch", "bench", "serve", "load", "chaos"} {
		out, err := exec.Command(bin, "-exp", name).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("-exp %s: %v, want exit status 1; output:\n%s", name, err, out)
			continue
		}
		for _, valid := range expNames() {
			if !strings.Contains(string(out), valid) {
				t.Errorf("-exp %s: error does not list %q:\n%s", name, valid, out)
			}
		}
	}
}
