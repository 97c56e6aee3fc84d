package exp

import (
	"context"
	"reflect"
	"testing"

	"mira/internal/scenario"
	"mira/internal/stats"
)

// stepModeOpts is deliberately small: the point is comparing modes
// cell-for-cell, not exercising long windows.
func stepModeOpts(mode string) Options {
	return Options{
		Warmup: 200, Measure: 800, Drain: 3000, TraceCycles: 2000,
		Seed: 42, Workers: 2, Edits: scenario.Edits{"step_mode=" + mode},
	}
}

// TestStepModeTablesIdentical is the experiment-level half of the
// step-mode contract: whole rendered tables — every formatted latency,
// throughput and note — must match between the default mode and checked
// mode, which also revalidates every invariant after every cycle of
// every point (whether those cycles are the right ones is the oracle's
// business: internal/noc FuzzOracle). Fig8 covers the pipeline option
// matrix (lookahead, speculation, ST+LT) on top of the sweep runner;
// Fig11a covers all six architectures including the 3D fabrics.
func TestStepModeTablesIdentical(t *testing.T) {
	drivers := []struct {
		name   string
		run    func(context.Context, Options) (stats.Table, error)
		points int64
	}{
		{"fig8", Fig8, 15},
		{"fig11a", Fig11a, ratePoints},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			// Each arm must really simulate its every point, or the
			// comparison proves nothing.
			run := func(mode string) stats.Table {
				o := stepModeOpts(mode)
				var sims simCount
				o.Progress = sims.add
				tb, err := d.run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if ran := sims.ran.Load(); ran != d.points || sims.reused.Load() != 0 {
					t.Fatalf("%v: %d simulations ran (%d reused), want %d", mode, ran, sims.reused.Load(), d.points)
				}
				return tb
			}
			chk, act := run("checked"), run("activity")
			if !reflect.DeepEqual(chk, act) {
				t.Fatalf("tables diverge between step modes:\nchecked:\n%s\nactivity:\n%s",
					chk.String(), act.String())
			}
			if len(act.Rows) == 0 {
				t.Fatal("empty table; comparison is vacuous")
			}
		})
	}
}

// TestStepModeCheckedTable runs one sweep under the per-cycle
// invariant-checking mode; any activity-tracking drift panics inside
// Step, so completing the table at all is the assertion.
func TestStepModeCheckedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("checked mode is slow")
	}
	o := stepModeOpts("checked")
	o.Warmup, o.Measure, o.Drain = 50, 200, 1500
	tb, err := Fig8(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("checked-mode sweep produced no rows")
	}
}
