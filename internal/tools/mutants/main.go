// Command mutants is the kill pass: it applies each mutant of the
// committed corpus (testdata/*.json) to the source and runs the tests
// that must fail on it.
//
//	go run ./internal/tools/mutants
//
// A mutant replaces one exact snippet of one file. The mutated file is
// written to a temporary directory and swapped in through a build
// overlay passed in GOFLAGS, not through go test's -overlay flag: the
// cmd/ tests build their binary with their own go build, which sees
// GOFLAGS but not a flag. So nothing is copied, the repository is never
// written and the build cache is shared. Each mutant runs
//
//	go test -count=1 -failfast -vet=off -timeout=3m -run <run> ./<pkg>
//
// from the module root (-vet=off: a vet complaint is not a test
// failure). It is killed when that fails, survived when it passes and
// invalid when the mutated package or the test does not build, or its
// snippet is not in the file exactly once. An entry with an
// "equivalent" reason is reported and not run. The command prints one
// line per mutant and a total, and exits 1 if any mutant survived or is
// invalid.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// mutant is one entry of the corpus.
type mutant struct {
	Name string `json:"name"`
	File string `json:"file"` // relative to the module root
	Old  string `json:"old"`  // occurs exactly once in File
	New  string `json:"new"`
	Pkg  string `json:"pkg"` // relative to the module root, e.g. internal/noc
	Run  string `json:"run"` // go test -run pattern whose tests must fail
	// Equivalent, when set, says why no test can tell the mutant from
	// the original; it is not run and not counted as a kill.
	Equivalent string `json:"equivalent,omitempty"`
}

// corpusDir is where the corpus lives, relative to the module root.
const corpusDir = "internal/tools/mutants/testdata"

// load reads every corpus file under root, in file-name order.
func load(root string) ([]mutant, error) {
	files, err := filepath.Glob(filepath.Join(root, corpusDir, "*.json"))
	if err != nil {
		return nil, err
	}
	var all []mutant
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var ms []mutant
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ms); err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		all = append(all, ms...)
	}
	return all, nil
}

// moduleRoot is the directory of the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(mod), nil
}

func main() { os.Exit(run()) }

// run is the kill pass; it returns the exit code.
func run() int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		return 1
	}
	ms, err := load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "mutants-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	count := map[string]int{}
	start := time.Now()
	for i, m := range ms {
		t0 := time.Now()
		status, detail := apply(root, filepath.Join(tmp, fmt.Sprint(i)), m)
		count[status]++
		fmt.Printf("%-44s %-22s %-10s %6.1fs\n", m.Name, m.Pkg, status, time.Since(t0).Seconds())
		if detail != "" {
			fmt.Printf("\t%s\n", strings.ReplaceAll(strings.TrimSpace(detail), "\n", "\n\t"))
		}
	}
	fmt.Printf("%d mutants: %d killed, %d survived, %d equivalent, %d invalid in %.0fs\n",
		len(ms), count["killed"], count["survived"], count["equivalent"], count["invalid"], time.Since(start).Seconds())
	if count["survived"]+count["invalid"] > 0 {
		return 1
	}
	return 0
}

// apply runs one mutant with its scratch files under dir and returns
// its status and, for anything but a kill, what to show about it.
func apply(root, dir string, m mutant) (status, detail string) {
	if m.Equivalent != "" {
		return "equivalent", m.Equivalent
	}
	path := filepath.Join(root, m.File)
	src, err := os.ReadFile(path)
	if err != nil {
		return "invalid", err.Error()
	}
	if n := strings.Count(string(src), m.Old); n != 1 || m.Old == m.New {
		return "invalid", fmt.Sprintf("old snippet occurs %d times in %s, or equals new", n, m.File)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "invalid", err.Error()
	}
	mutated := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
		return "invalid", err.Error()
	}
	overlay, _ := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return "invalid", err.Error()
	}
	goCmd := func(args ...string) ([]byte, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GOFLAGS=-overlay="+overlayPath)
		return cmd.CombinedOutput()
	}
	// The mutated package must build on its own: a cmd/ test that builds
	// its binary would otherwise report a compile error as a failure.
	if out, err := goCmd("build", "-o", os.DevNull, "./"+filepath.Dir(m.File)); err != nil {
		return "invalid", lastLines(out, 10)
	}
	out, err := goCmd("test", "-count=1", "-failfast", "-vet=off", "-timeout=3m", "-run", m.Run, "./"+m.Pkg)
	switch {
	case err == nil:
		return "survived", lastLines(out, 5)
	case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
		return "invalid", lastLines(out, 10)
	}
	return "killed", ""
}

// lastLines is the tail of a command's output.
func lastLines(out []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
