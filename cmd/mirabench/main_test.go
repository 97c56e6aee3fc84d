package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mirabench is the command under test, built once by TestMain.
var mirabench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mirabench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mirabench = filepath.Join(dir, "mirabench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", mirabench, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes mirabench with args in dir and returns its stdout, stderr
// and exit status.
func run(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(mirabench, args...)
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return o.String(), e.String(), cmd.ProcessState.ExitCode()
}

// TestEditsLeaveTablesUnchanged: each edit that replaced a retired flag
// (-shards, -stepmode, -obswindow, -enginestats) prints the bare run's
// tables byte for byte.
func TestEditsLeaveTablesUnchanged(t *testing.T) {
	bare, errOut, code := run(t, t.TempDir(), "-quick", "-workers", "2", "fig8")
	if code != 0 || !strings.Contains(bare, "== fig8:") {
		t.Fatalf("bare fig8: exit %d, stdout\n%s%s", code, bare, errOut)
	}
	for _, edit := range []string{"shards=4", "shards=-1", "step_mode=checked", "observe.window=500", "observe.engine=true"} {
		t.Run(edit, func(t *testing.T) {
			out, errOut, code := run(t, t.TempDir(), "-quick", "-workers", "2", "-set", edit, "fig8")
			if code != 0 || out != bare {
				t.Errorf("-set %s: exit %d, stdout\n%s\nwant\n%s%s", edit, code, out, bare, errOut)
			}
			if engine := strings.Contains(errOut, "msg=engine"); engine != (edit == "observe.engine=true") {
				t.Errorf("-set %s: engine progress lines on stderr = %v\n%s", edit, engine, errOut)
			}
		})
	}
}

// TestBenchContract runs the invocation the benchmark harness makes and
// checks the -timing file keeps its fields and lists the experiments in
// the order they ran.
func TestBenchContract(t *testing.T) {
	dir := t.TempDir()
	out, errOut, code := run(t, dir, "-quick", "-csv", "-workers", "2", "-seed", "7", "-timing", "t.json", "table1", "fig8")
	if code != 0 || !strings.HasPrefix(out, "# table1\n") || !strings.Contains(out, "\n# fig8\n") {
		t.Fatalf("exit %d, stdout\n%s%s", code, out, errOut)
	}
	data, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range rep {
		keys = append(keys, k)
	}
	if want := []string{"experiments", "gomaxprocs", "quick", "seed", "total_seconds", "workers"}; !sameSet(keys, want) {
		t.Errorf("timing fields %v, want %v", keys, want)
	}
	if rep["quick"] != true || rep["seed"] != 7.0 || rep["workers"] != 2.0 {
		t.Errorf("timing header %v", rep)
	}
	exps, _ := rep["experiments"].([]any)
	var ids []string
	for _, e := range exps {
		e, _ := e.(map[string]any)
		var fields []string
		for k := range e {
			fields = append(fields, k)
		}
		if want := []string{"id", "points_reused", "points_run", "seconds"}; !sameSet(fields, want) {
			t.Errorf("experiment fields %v, want %v", fields, want)
		}
		ids = append(ids, fmt.Sprint(e["id"]))
	}
	if !reflect.DeepEqual(ids, []string{"table1", "fig8"}) {
		t.Errorf("timing lists %v", ids)
	}
}

func sameSet(got, want []string) bool {
	seen := map[string]bool{}
	for _, g := range got {
		seen[g] = true
	}
	for _, w := range want {
		if !seen[w] {
			return false
		}
	}
	return len(got) == len(want)
}

// TestUsageErrors: a retired flag, a bad edit, an unknown experiment or
// no experiment at all exits 2 before anything simulates.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"retired -shards", []string{"-shards", "4", "fig8"}, "-shards"},
		{"retired -stepmode", []string{"-stepmode", "checked", "fig8"}, "-stepmode"},
		{"retired -obswindow", []string{"-obswindow", "500", "fig8"}, "-obswindow"},
		{"retired -enginestats", []string{"-enginestats", "fig8"}, "-enginestats"},
		{"retired -obs", []string{"-obs"}, "-obs"},
		{"retired -memprofile", []string{"-memprofile", "m.out", "fig8"}, "-memprofile"},
		{"unknown key", []string{"-set", "nosuch=1", "fig8"}, `unknown field "nosuch"`},
		{"mistyped value", []string{"-set", "shards=x", "fig8"}, "shards"},
		{"bad step mode", []string{"-set", "step_mode=bogus", "fig8"}, "step_mode=bogus"},
		{"unknown experiment", []string{"fig99"}, "fig99"},
		{"no experiment", nil, "usage: mirabench"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, errOut, code := run(t, t.TempDir(), c.args...)
			if code != 2 || out != "" || !strings.Contains(errOut, c.want) {
				t.Errorf("mirabench %q: exit %d, stdout %q, stderr %q; want exit 2 naming %q", c.args, code, out, errOut, c.want)
			}
		})
	}
}
