package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFunc matches a top-level Test or Fuzz function declaration.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// TestCorpus checks every entry without running it: names are unique;
// the old snippet occurs exactly once in its file and differs from the
// new one; the package exists; and the top level of the run pattern
// names only Test or Fuzz functions the package declares, so deleting
// or renaming a test cannot silently turn its mutants into survivors.
// A refactor that moves mutated code fails here until the mutant is
// re-targeted or retired.
func TestCorpus(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := load(root)
	if err != nil || len(ms) == 0 {
		t.Fatalf("%d mutants (%v)", len(ms), err)
	}
	names := map[string]bool{}
	tests := map[string]map[string]bool{} // package -> its Test and Fuzz functions
	for _, m := range ms {
		if m.Name == "" || names[m.Name] {
			t.Errorf("%q: empty or duplicate name", m.Name)
		}
		names[m.Name] = true
		src, err := os.ReadFile(filepath.Join(root, m.File))
		if n := strings.Count(string(src), m.Old); err != nil || n != 1 || m.Old == m.New {
			t.Errorf("%s: old snippet occurs %d times in %s (%v), or equals new", m.Name, n, m.File, err)
		}
		if tests[m.Pkg] == nil {
			files, _ := filepath.Glob(filepath.Join(root, m.Pkg, "*_test.go"))
			if len(files) == 0 {
				t.Errorf("%s: package %s has no test files", m.Name, m.Pkg)
			}
			tests[m.Pkg] = map[string]bool{}
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, sub := range testFunc.FindAllStringSubmatch(string(src), -1) {
					tests[m.Pkg][sub[1]] = true
				}
			}
		}
		top, _, _ := strings.Cut(m.Run, "/")
		for _, name := range strings.Split(strings.Trim(top, "^$()"), "|") {
			if !tests[m.Pkg][name] {
				t.Errorf("%s: run pattern %q: %s declares no test %q", m.Name, m.Run, m.Pkg, name)
			}
		}
	}
}
