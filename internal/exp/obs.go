package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/scenario"
)

// Observability-backed experiments: sweeps that attach the internal/obs
// collector to every point and aggregate the per-point summaries, plus
// the probe-overhead measurement behind mirabench -obs.

// ObsURSweep sweeps uniform-random injection rates on one architecture
// with a collector attached to every point, fanning the points through
// RunAll and aggregating the per-point summaries: probe-derived flit and
// packet latency percentiles next to the simulator's own measured
// latency, plus the windowed backpressure totals. The probe percentiles
// cover every flit the network carried (warm-up included), so they
// bracket the measured-window averages of the paper's Fig. 11 curves.
func ObsURSweep(ctx context.Context, a core.Arch, rates []float64, o Options) Table {
	if o.ObserveWindow == 0 {
		o.ObserveWindow = obs.DefaultWindow
	}
	points := make([]Point[Outcome], len(rates))
	for i, rate := range rates {
		points[i] = simPoint(fmt.Sprintf("%s ur %.2f", a, rate),
			func(o Options) scenario.Scenario { return o.synthetic(a, "ur", rate) })
	}
	t := Table{
		ID:    "obs-ur",
		Title: fmt.Sprintf("%s uniform random: observability summaries per injection rate", a),
		Header: []string{"rate", "avg lat", "flit p50", "flit p95", "flit p99",
			"pkt p99", "credit stalls", "windows"},
	}
	for i, out := range RunAll(ctx, o, points) {
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
	return t
}

// SpanStages runs one mid-load uniform-random point per architecture
// with span folding attached and decomposes the mean flit latency into
// the pipeline stages (inject-queue wait, route, VA stall, SA stall,
// ST+LT). The stage means sum exactly to the probe-measured mean
// network latency — the per-flit identity SpanBuilder enforces — so the
// table is an exact accounting of where each architecture's cycles go,
// not an estimate. Tables are bit-identical for any worker count and
// step mode.
func SpanStages(ctx context.Context, archs []core.Arch, rate float64, o Options) Table {
	type staged struct {
		res  noc.Result
		sums obs.StageSums
	}
	points := make([]Point[staged], len(archs))
	for i, a := range archs {
		points[i] = Point[staged]{
			Label: fmt.Sprintf("%s ur %.2f spans", a, rate),
			Run: func(ctx context.Context, o Options) staged {
				sc := o.synthetic(a, "ur", rate)
				if sc.Observe == nil {
					sc.Observe = &scenario.Observe{}
				}
				sc.Observe.Spans = true
				out := mustRun(ctx, o, sc)
				sb := out.Obs.Spans()
				if err := sb.Err(); err != nil {
					panic(err)
				}
				return staged{res: out.Result, sums: sb.Attribution().Total()}
			},
		}
	}
	results := RunAll(ctx, o, points)

	t := Table{
		ID:    "obs-stages",
		Title: fmt.Sprintf("per-flit latency decomposition at %.2f flits/node/cycle (mean cycles per stage)", rate),
		Header: []string{"arch", "flits", "queue", "route", "va_stall", "sa_stall",
			"st_lt", "network", "avg lat"},
	}
	mean := func(cycles, n int64) string {
		if n == 0 {
			return "0.00"
		}
		return fmt.Sprintf("%.2f", float64(cycles)/float64(n))
	}
	for i, r := range results {
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
	return t
}

// ObsOverhead measures the live cost of the observability layer on one
// mid-load uniform-random run: the same scenario is executed bare, with
// the full collector attached, with the collector streaming a JSONL
// trace to a discarded writer, and with span folding on top of that
// (what the ur6x6_observed benchmark workload attaches). Each variant
// runs reps times and keeps its fastest wall-clock, the standard noise
// reduction for this kind of measurement. Simulated results are
// bit-identical across variants (the probe observes, never steers),
// which the table asserts in its note.
func ObsOverhead(ctx context.Context, o Options) Table {
	sc := o.synthetic(core.Arch3DM, "ur", 0.15)

	const reps = 3
	run := func(observe *scenario.Observe, trace bool) (noc.Result, time.Duration) {
		var best time.Duration
		var res noc.Result
		for r := 0; r < reps; r++ {
			s := sc
			s.Observe = observe
			e, err := s.Elaborate()
			if err != nil {
				panic(err) // driver-authored scenario
			}
			if trace {
				e.Obs.SetTraceWriter(io.Discard)
			}
			start := time.Now()
			res = e.Sim.Run(ctx)
			if e.Obs != nil {
				// Timed: the sinks fold their last batch and flush here.
				if err := e.Obs.Close(); err != nil {
					panic(err)
				}
			}
			elapsed := time.Since(start)
			if r == 0 || elapsed < best {
				best = elapsed
			}
		}
		return res, best
	}

	bareRes, bare := run(nil, false)
	probedRes, probed := run(&scenario.Observe{}, false)
	tracedRes, traced := run(&scenario.Observe{}, true)
	spannedRes, spanned := run(&scenario.Observe{Spans: true}, true)

	cycles := sc.Warmup + sc.Measure // lower bound; drain adds more
	row := func(name string, d time.Duration) []string {
		overhead := 100 * (d.Seconds() - bare.Seconds()) / bare.Seconds()
		return []string{name, fmt.Sprintf("%.1f", float64(d.Microseconds())/1e3),
			fmt.Sprintf("%.1f", float64(cycles)/d.Seconds()/1e6),
			fmt.Sprintf("%+.1f%%", overhead)}
	}
	t := Table{
		ID:     "obs-overhead",
		Title:  "probe overhead: 3DM uniform random at 0.15 flits/node/cycle",
		Header: []string{"variant", "wall ms", "Mcycles/s", "overhead"},
		Rows: [][]string{
			row("no probe", bare),
			row("collector", probed),
			row("collector + trace", traced),
			row("collector + spans + trace", spanned),
		},
	}
	if bareRes.AvgLatency != probedRes.AvgLatency || bareRes.AvgLatency != tracedRes.AvgLatency ||
		bareRes.AvgLatency != spannedRes.AvgLatency {
		t.Notes = append(t.Notes, "WARNING: observing changed simulation results — probe purity violated")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"simulated results bit-identical across variants (avg lat %.2f); wall times are host-dependent", bareRes.AvgLatency))
	}
	return t
}
