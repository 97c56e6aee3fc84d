package exp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mira/internal/scenario"
	"mira/internal/stats"
)

func TestCollectiveSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("collective sweep is a full 9-point simulation sweep")
	}
	o := Quick()
	tb, err := CollectiveSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("collective sweep: %d rows, want 9", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if done := row[len(row)-1]; done != "2/2" {
			t.Errorf("%s on %s: %s iterations complete, want 2/2", row[0], row[1], done)
		}
	}
	// The 1x1 chip grid IS the monolithic 8x8 mesh, so splitting into a
	// 2x2 grid with 1-cycle full-width d2d channels must reproduce it
	// bit for bit (rows 0 and 1 of every algorithm block).
	for a := 0; a < 3; a++ {
		mono, ideal := tb.Rows[3*a], tb.Rows[3*a+1]
		if !reflect.DeepEqual(mono[2:], ideal[2:]) {
			t.Errorf("%s: ideal-d2d chiplet row diverges from monolithic:\n%v\n%v", mono[0], mono, ideal)
		}
	}
	t.Logf("\n%s", tb)
}

// TestCollectiveTablesIdentical is the experiment-level half of the
// determinism criterion for ext-collective: the rendered table must
// match cell for cell across worker counts, shard counts (including
// auto) and step modes.
func TestCollectiveTablesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep seven times")
	}
	run := func(workers, shards int, mode string) stats.Table {
		o := Quick()
		o.Workers = workers
		o.Edits = scenario.Edits{fmt.Sprintf("shards=%d", shards), "step_mode=" + mode}
		tb, err := CollectiveSweep(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	ref := run(1, 1, "activity")
	if len(ref.Rows) == 0 {
		t.Fatal("empty reference table; comparison is vacuous")
	}
	cases := []struct {
		workers, shards int
		mode            string
	}{
		{8, 1, "activity"},
		{1, 4, "activity"},
		{8, 4, "activity"},
		{1, -1, "activity"},
		{1, 4, "checked"},
	}
	for _, c := range cases {
		got := run(c.workers, c.shards, c.mode)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d shards=%d mode=%s: table diverges from sequential:\nsequential:\n%s\ngot:\n%s",
				c.workers, c.shards, c.mode, ref.String(), got.String())
		}
	}
}
