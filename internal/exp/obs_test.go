package exp

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/scenario"
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

// gateCounter counts switch grants, one per flit per router visit, and
// passes every event on to the collector.
type gateCounter struct {
	next   noc.Probe
	grants int64
}

func (g *gateCounter) ProbeEvent(ev noc.ProbeEvent) {
	if ev.Kind == noc.ProbeSAGrant {
		g.grants++
	}
	g.next.ProbeEvent(ev)
}

// TestSpanStagesSTLTLaw: in every obs-stages row the st_lt cycles are
// the architecture's STLTCycles per router visit, exactly. The span fold
// charges each of a flit's visits its delay from final grant to eject,
// so the law says that delay is STLTCycles for every flit of every
// architecture (1 for 3DM and 3DM-E, 2 for 2DB and 3DB).
func TestSpanStagesSTLTLaw(t *testing.T) {
	o := Quick()
	scs := spanStagesPoints(o)
	got := make([]string, len(scs))
	err := runPoints(context.Background(), o, scs, func(ctx context.Context, i int, sc scenario.Scenario) error {
		var g gateCounter
		var stlt int64
		out, err := run(ctx, o, sc, func(e *scenario.Elaboration) {
			g.next, stlt = e.Obs, int64(e.Config.STLTCycles)
			e.Net.SetProbe(&g)
		})
		if err != nil {
			return err
		}
		s := out.Obs.Spans().Attribution().Total()
		if s.N == 0 || s.Cycles[obs.StageXfer] != stlt*g.grants {
			return fmt.Errorf("%s: st_lt %d cycles over %d visits of %d flits, want %d x visits",
				sc.Arch, s.Cycles[obs.StageXfer], g.grants, s.N, stlt)
		}
		got[i] = fmt.Sprintf("%s:%d", sc.Arch, stlt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "[2DB:2 3DB:2 3DM:1 3DM-E:1]"; fmt.Sprint(got) != want {
		t.Errorf("STLTCycles per architecture %v, want %s", got, want)
	}
}
