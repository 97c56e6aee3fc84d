package exp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mira/internal/scenario"
	"mira/internal/stats"
)

// TestShardTablesIdentical is the experiment-level half of the
// shard-determinism regression: whole rendered tables must match
// cell-for-cell between sequential stepping and sharded stepping, and
// the two parallelism axes must compose — -workers fans sweep points
// across goroutines while -shards splits each simulation — without
// perturbing a single formatted value. Fig11a covers all six
// architectures including the 3D fabrics.
func TestShardTablesIdentical(t *testing.T) {
	run := func(workers, shards int) stats.Table {
		o := Options{
			Warmup: 200, Measure: 800, Drain: 3000, TraceCycles: 2000,
			Seed: 42, Workers: workers, Edits: scenario.Edits{fmt.Sprintf("shards=%d", shards)},
		}
		var sims simCount
		o.Progress = sims.add
		tb, err := Fig11a(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if ran := sims.ran.Load(); ran != ratePoints {
			t.Fatalf("workers=%d shards=%d: %d simulations ran, want %d: the arm compares nothing",
				workers, shards, ran, ratePoints)
		}
		return tb
	}
	ref := run(1, 1)
	if len(ref.Rows) == 0 {
		t.Fatal("empty reference table; comparison is vacuous")
	}
	for _, c := range []struct{ workers, shards int }{{1, 4}, {8, 1}, {8, 4}} {
		got := run(c.workers, c.shards)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d shards=%d: table diverges from sequential:\nsequential:\n%s\ngot:\n%s",
				c.workers, c.shards, ref.String(), got.String())
		}
	}
}
