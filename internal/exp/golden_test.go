package exp

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mira/internal/stats"
)

// Golden tests pin the fully deterministic analytic artifacts (areas,
// delays, energies) cell by cell, guarding the calibration against
// accidental constant drift. Simulation-backed tables are checked
// behaviourally elsewhere, not pinned.

func findRow(t *testing.T, tb stats.Table, name string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("%s: row %q missing", tb.ID, name)
	return nil
}

func TestGoldenTable1(t *testing.T) {
	tb := Table1()
	want := map[string][]string{
		"RC":         {"1717", "2404", "1717", "3091"},
		"SA1":        {"1008", "1411", "1008", "1814"},
		"SA2":        {"6201", "11306", "6201", "25024"},
		"VA1":        {"2016", "2822", "2016", "3629"},
		"VA2":        {"29312", "62725", "9771", "41842"},
		"Crossbar":   {"230400", "451584", "14400", "46656"},
		"Buffer":     {"162973", "228162", "40743", "73338"},
		"Total area": {"433627", "760414", "260827", "639059"},
	}
	for name, cells := range want {
		row := findRow(t, tb, name)
		for i, w := range cells {
			if row[i+1] != w {
				t.Errorf("table1 %s[%s] = %s, want %s", name, tb.Header[i+1], row[i+1], w)
			}
		}
	}
}

func TestGoldenTable3(t *testing.T) {
	tb := Table3()
	want := map[string][]string{
		"2DB":   {"378.56", "309.48", "688.04", "No"},
		"3DB":   {"599.90", "309.48", "909.38", "No"},
		"3DM":   {"142.86", "157.73", "300.59", "Yes"},
		"3DM-E": {"182.84", "315.47", "498.31", "Yes"},
	}
	for name, cells := range want {
		row := findRow(t, tb, name)
		for i, w := range cells {
			if row[i+1] != w {
				t.Errorf("table3 %s[%d] = %s, want %s", name, i, row[i+1], w)
			}
		}
	}
}

func TestGoldenFig9(t *testing.T) {
	tb := Fig9()
	want := map[string]string{
		"2DB":   "64.29",
		"3DB":   "70.47",
		"3DM":   "34.66",
		"3DM-E": "39.64",
	}
	for name, total := range want {
		row := findRow(t, tb, name)
		if row[len(row)-1] != total {
			t.Errorf("fig9 %s total = %s, want %s", name, row[len(row)-1], total)
		}
	}
}

func TestGoldenFig3(t *testing.T) {
	tb := Fig3()
	row := findRow(t, tb, "3DM")
	if row[4] != "0.26" {
		t.Errorf("fig3 3DM footprint ratio = %s, want 0.26", row[4])
	}
}

// updateGolden regenerates the scenario-port equivalence goldens:
//
//	go test ./internal/exp -run TestScenarioPortGolden -update
//
// The checked-in files were rendered by the pre-scenario drivers (each
// experiment hand-wiring its own Design/Network/Sim); the test asserts
// the scenario-based construction path reproduces them byte for byte.
var updateGolden = flag.Bool("update", false, "rewrite the scenario-port golden files")

// portGoldenOpts are the windows the equivalence goldens were rendered
// with. Deliberately small: every simulation-backed driver runs, so the
// full set has to stay test-suite cheap.
func portGoldenOpts() Options {
	return Options{Warmup: 200, Measure: 800, Drain: 3000, TraceCycles: 2000, Seed: 42}
}

// portGoldenDrivers lists every experiment with a golden file: the
// simulation-backed drivers (the analytic tables are pinned cell-by-cell
// above).
func portGoldenDrivers(t *testing.T) []Experiment {
	var out []Experiment
	for _, e := range Experiments {
		if _, err := os.Stat(filepath.Join("testdata", "port", e.ID+".golden")); err == nil {
			out = append(out, e)
		}
	}
	if len(out) != 27 {
		t.Fatalf("%d experiments have a golden file, want 27", len(out))
	}
	return out
}

// TestScenarioPortGolden asserts every simulation-backed driver renders
// byte-identically to its pre-scenario-layer output (same seed, same
// windows), i.e. the scenario port changed zero simulated behaviour.
func TestScenarioPortGolden(t *testing.T) {
	o := portGoldenOpts()
	for _, d := range portGoldenDrivers(t) {
		t.Run(d.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := d.Run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
			got := tb.String()
			path := filepath.Join("testdata", "port", d.ID+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from the pre-scenario-port output:\n--- want ---\n%s\n--- got ---\n%s",
					d.ID, want, got)
			}
		})
	}
}

func TestGoldenFig10Shape(t *testing.T) {
	s := Fig10().String()
	// 2D layout has two CPU rows of the c P P P P c shape.
	if strings.Count(s, "c P P P P c") != 2 {
		t.Errorf("fig10 2D layout wrong:\n%s", s)
	}
	// 3DB top layer ring of CPUs around a cache.
	if !strings.Contains(s, "P c P") {
		t.Errorf("fig10 3DB top layer wrong:\n%s", s)
	}
}
