package exp

import (
	"context"
	"fmt"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// Observability-backed experiments: sweeps that attach the internal/obs
// collector to every point and aggregate the per-point summaries.

// observed is sc with a collector attached; observe.* edits carry over.
func observed(sc scenario.Scenario) scenario.Scenario {
	if sc.Observe == nil {
		sc.Observe = &scenario.Observe{}
	}
	return sc
}

// ObsURSweep sweeps uniform-random injection rates on 3DM with a
// collector attached to every point and aggregates the per-point
// summaries: probe-derived flit and packet latency percentiles next to
// the simulator's own measured latency, plus the windowed backpressure
// totals. The probe percentiles cover every flit the network carried
// (warm-up included), so they bracket the measured-window averages of
// the paper's Fig. 11 curves.
func ObsURSweep(ctx context.Context, o Options) (stats.Table, error) {
	const a = core.Arch3DM
	rates := []float64{0.05, 0.10, 0.15, 0.20, 0.25}
	t := stats.Table{
		ID:    "obs-ur",
		Title: fmt.Sprintf("%s uniform random: observability summaries per injection rate", a),
		Header: []string{"rate", "avg lat", "flit p50", "flit p95", "flit p99",
			"pkt p99", "credit stalls", "windows"},
	}
	res, err := sweep(ctx, o, rates, []core.Arch{a}, func(o Options, rate float64, a core.Arch) scenario.Scenario {
		return observed(o.synthetic(a, "ur", rate))
	})
	if err != nil {
		return t, err
	}
	for i, outs := range res {
		out := outs[0]
		var sum obs.Summary
		if out.Obs != nil { // nil: a canceled sweep never ran this point
			sum = out.Obs.Summary()
		}
		l := sum.Latency
		t.Rows = append(t.Rows, []string{
			f2(rates[i]), latCell(out.Result),
			fmt.Sprint(l.FlitP50), fmt.Sprint(l.FlitP95), fmt.Sprint(l.FlitP99),
			fmt.Sprint(l.PacketP99),
			fmt.Sprint(out.Result.Counters.CreditStalls),
			fmt.Sprint(sum.Windows),
		})
	}
	t.Notes = append(t.Notes,
		"probe percentiles cover all carried flits (warm-up included); avg lat is the measured window only")
	return t, nil
}

// spanStagesRate is SpanStages' load.
const spanStagesRate = 0.15

// spanStagesPoints are SpanStages' points: one per paperArchs entry, in
// order, with span folding on.
func spanStagesPoints(o Options) []scenario.Scenario {
	scs := make([]scenario.Scenario, len(paperArchs))
	for i, a := range paperArchs {
		scs[i] = observed(o.synthetic(a, "ur", spanStagesRate))
		scs[i].Observe.Spans = true
	}
	return scs
}

// SpanStages runs one mid-load uniform-random point per architecture
// with span folding attached and decomposes the mean flit latency into
// the pipeline stages (inject-queue wait, route, VA stall, SA stall,
// ST+LT). The stage means sum exactly to the probe-measured mean
// network latency — the per-flit identity SpanBuilder enforces — so the
// table is an exact accounting of where each architecture's cycles go,
// not an estimate. Tables are bit-identical for any worker count and
// step mode.
func SpanStages(ctx context.Context, o Options) (stats.Table, error) {
	archs, scs := paperArchs, spanStagesPoints(o)
	type staged struct {
		res  noc.Result
		sums obs.StageSums
	}
	res := make([]staged, len(scs))
	err := runPoints(ctx, o, scs, func(ctx context.Context, i int, sc scenario.Scenario) error {
		out, err := run(ctx, o, sc, nil)
		if err != nil {
			return err
		}
		sb := out.Obs.Spans()
		res[i] = staged{res: out.Result, sums: sb.Attribution().Total()}
		return sb.Err()
	})
	if err != nil {
		return stats.Table{}, err
	}

	t := stats.Table{
		ID:    "obs-stages",
		Title: fmt.Sprintf("per-flit latency decomposition at %.2f flits/node/cycle (mean cycles per stage)", spanStagesRate),
		Header: []string{"arch", "flits", "queue", "route", "va_stall", "sa_stall",
			"st_lt", "network", "avg lat"},
	}
	mean := func(cycles, n int64) string {
		if n == 0 {
			return "0.00"
		}
		return fmt.Sprintf("%.2f", float64(cycles)/float64(n))
	}
	for i, r := range res {
		s := r.sums
		row := []string{archs[i].String(), fmt.Sprint(s.N)}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			row = append(row, mean(s.Cycles[st], s.N))
		}
		row = append(row, mean(s.NetworkCycles(), s.N), latCell(r.res))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"stage means sum exactly to the network mean (all carried flits, warm-up included); avg lat is the measured window only")
	return t, nil
}
