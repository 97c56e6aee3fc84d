package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"mira/internal/core"
	"mira/internal/noc"
)

// TestSpanStagesDeterministic pins the obs-stages driver's determinism
// contract: the rendered decomposition table is byte-identical for any
// worker count and in both step modes. Span folding rides on the probe
// stream, so this also guards the stream's cross-mode equivalence at
// the experiment level.
func TestSpanStagesDeterministic(t *testing.T) {
	archs := []core.Arch{core.Arch2DB, core.Arch3DM}
	run := func(mode noc.StepMode, workers int) string {
		o := stepModeOpts(mode)
		o.Workers = workers
		tb := SpanStages(context.Background(), archs, 0.12, o)
		return tb.CSV()
	}
	ref := run(noc.StepActivity, 1)
	if !strings.Contains(ref, "2DB") || len(strings.Split(ref, "\n")) < len(archs)+1 {
		t.Fatalf("reference table is degenerate:\n%s", ref)
	}
	variants := []struct {
		name    string
		mode    noc.StepMode
		workers int
	}{
		{"activity_w4", noc.StepActivity, 4},
		{"checked_w3", noc.StepChecked, 3},
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
	o := stepModeOpts(noc.StepActivity)
	tb := SpanStages(context.Background(), []core.Arch{core.Arch3DME}, 0.12, o)
	if len(tb.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(tb.Rows))
	}
	row := tb.Rows[0]
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
		t.Errorf("stage means sum to %.2f, network mean is %.2f", sum, network)
	}
}
