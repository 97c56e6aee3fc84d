package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrayArguments: a bare "miratrace gen NAME FILE" names neither the
// workload nor the output file, so it must stop with exit 2 instead of
// generating the default workload to stdout. The retired replay
// subcommand is a usage error too.
func TestStrayArguments(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "miratrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"gen", "tpcw", "out.trace"}, `unexpected argument "tpcw"`},
		{[]string{"replay", "out.trace"}, "usage:"},
	} {
		cmd := exec.Command(bin, c.args...)
		cmd.Dir = dir
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(e.String(), c.want) || o.Len() > 0 {
			t.Errorf("miratrace %q: exit %d, stderr %q, %d bytes on stdout; want exit 2 naming %q",
				c.args, code, e.String(), o.Len(), c.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.trace")); err == nil {
		t.Error("a rejected command wrote out.trace")
	}
}
