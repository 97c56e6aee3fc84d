package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// TestSpanStagesDeterministic pins the obs-stages driver's determinism
// contract: the rendered decomposition table is byte-identical for any
// worker count and in both step modes. Span folding rides on the probe
// stream, so this also guards the stream's cross-mode equivalence at
// the experiment level.
func TestSpanStagesDeterministic(t *testing.T) {
	run := func(mode string, workers int) string {
		o := stepModeOpts(mode)
		o.Workers = workers
		tb, err := SpanStages(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return tb.CSV()
	}
	ref := run("activity", 1)
	if !strings.Contains(ref, "2DB") || len(strings.Split(ref, "\n")) < 4+1 {
		t.Fatalf("reference table is degenerate:\n%s", ref)
	}
	variants := []struct {
		name    string
		mode    string
		workers int
	}{
		{"activity_w4", "activity", 4},
		{"checked_w3", "checked", 3},
	}
	for _, v := range variants {
		if got := run(v.mode, v.workers); got != ref {
			t.Errorf("%s table diverges from activity_w1:\n%s\nwant:\n%s", v.name, got, ref)
		}
	}
}

// TestSpanStagesSumsToNetwork re-checks the telescoping identity at the
// driver level: in every row the stage means (route onward) sum to the
// network mean within formatting precision.
func TestSpanStagesSumsToNetwork(t *testing.T) {
	tb, err := SpanStages(context.Background(), stepModeOpts("activity"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		// Header: arch flits queue route va_stall sa_stall st_lt network avg-lat.
		var sum float64
		for _, cell := range row[3:7] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q: %v", cell, err)
			}
			sum += v
		}
		network, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("bad network cell %q: %v", row[7], err)
		}
		if diff := sum - network; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: stage means sum to %.2f, network mean is %.2f", row[0], sum, network)
		}
	}
}
