package exp

import (
	"context"
	"fmt"
	"sync"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/power"
	"mira/internal/routing"
	"mira/internal/scenario"
	"mira/internal/stats"
	"mira/internal/thermal"
	"mira/internal/topology"
)

// paperArchs are the four routers the paper's figures compare; the
// (NC) variants share their silicon with the combined ones.
var paperArchs = []core.Arch{core.Arch2DB, core.Arch3DB, core.Arch3DM, core.Arch3DME}

// URRates is the injection-rate sweep of Figures 11 (a) and 12 (a). The
// top rates push the planar designs past saturation, where the latency
// gap to 3DM-E is widest (the paper's "51 % at 30 % injection rate").
var URRates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}

// Fig1 reports the data-pattern breakdown of each workload's payload
// words (all-0 / all-1 / other frequent patterns / irregular).
func Fig1(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig1",
		Title:  "Data pattern breakdown (fraction of data words)",
		Header: []string{"Workload", "all-0", "all-1", "frequent", "other", "short flits %"},
	}
	var names []string
	for _, w := range cmp.Workloads {
		names = append(names, w.Name)
	}
	res, err := traceStats(ctx, o, names)
	if err != nil {
		return t, err
	}
	for i, name := range names {
		st := res[i]
		sh := st.WordPatternShares()
		t.Rows = append(t.Rows, []string{
			name,
			f3(sh[0]), f3(sh[1]), f3(sh[2]), f3(sh[3]),
			f1(st.ShortFlitPct()),
		})
	}
	t.Notes = append(t.Notes, "synthetic workload models calibrated to the paper's Figure 1 / 13(a) statistics")
	return t, nil
}

// traceStats generates each workload's trace, one point per workload.
// Only the statistics are wanted, so the scenario is elaborated and never
// simulated: no result, nothing for run to reuse. The trace is generated
// on the 2DB floorplan (the 6x6 NUCA mesh); the statistics depend only on
// the workload model and seed.
func traceStats(ctx context.Context, o Options, names []string) ([]cmp.Stats, error) {
	scs := make([]scenario.Scenario, len(names))
	for i, name := range names {
		scs[i] = o.trace(core.Arch2DB, name, "")
	}
	st := make([]cmp.Stats, len(scs))
	return st, runPoints(ctx, o, scs, func(_ context.Context, i int, sc scenario.Scenario) error {
		e, err := sc.Elaborate()
		if err == nil {
			st[i] = e.Stats
		}
		return err
	})
}

// Fig2 reports the packet-type distribution of the coherence traffic.
func Fig2(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig2",
		Title:  "Packet type distribution (fraction of packets)",
		Header: []string{"Workload", "GetS", "GetX", "Upgrade", "Inv", "Fwd", "Ack", "Data", "WB", "control total"},
	}
	res, err := traceStats(ctx, o, cmp.Presented)
	if err != nil {
		return t, err
	}
	for i, name := range cmp.Presented {
		st := res[i]
		var total int64
		for _, c := range st.KindCounts {
			total += c
		}
		row := []string{name}
		for k := cmp.MsgKind(0); k < cmp.NumKinds; k++ {
			row = append(row, f3(float64(st.KindCounts[k])/float64(total)))
		}
		row = append(row, f3(st.ControlPacketFrac()))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// archTable renders a grid whose columns are core.Archs, one row per
// label; cell also sees the row's 2DB result, for normalized readings.
func archTable(id, title, first string, labels []string, res [][]scenario.Outcome, cell func(d *core.Design, r, base noc.Result) string) stats.Table {
	t := stats.Table{ID: id, Title: title}
	t.Header = []string{first}
	for _, a := range core.Archs {
		t.Header = append(t.Header, a.String())
	}
	for i, outs := range res {
		row := []string{labels[i]}
		for j, a := range core.Archs {
			row = append(row, cell(designs()[a], outs[j].Result, outs[0].Result)) // core.Archs[0] is 2DB
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figures 11 and 12 are two readings — latency and power — of the same
// simulations: 11a/12a/12d share the UR grid, 11b/12b the NUCA-UR grid
// and 11c/11d/12c the trace grid, point for point (same index, hence
// same SeedFor seed). Under a Scope each grid is simulated once.

// rateTable reads the (rate × arch) grid of one synthetic traffic kind;
// a non-empty metric adds the curve's note.
func rateTable(ctx context.Context, o Options, kind, id, title, metric string, cell func(d *core.Design, r, base noc.Result) string) (stats.Table, error) {
	res, err := sweep(ctx, o, URRates, core.Archs, func(o Options, rate float64, a core.Arch) scenario.Scenario {
		return o.synthetic(a, kind, rate)
	})
	if err != nil {
		return stats.Table{}, err
	}
	var labels []string
	for _, rate := range URRates {
		labels = append(labels, f2(rate))
	}
	t := archTable(id, title, "inj rate", labels, res, cell)
	if metric != "" {
		t.Notes = append(t.Notes, fmt.Sprintf("metric: %s; '*' marks saturated points", metric))
	}
	return t, nil
}

// latency and powerW are the Figure 11 and Figure 12 readings of a cell.
func latency(_ *core.Design, r, _ noc.Result) string { return latCell(r) }

func powerW(d *core.Design, r, _ noc.Result) string { return f3(NetworkPowerW(d, r, false)) }

// Fig11a: average latency vs injection rate, uniform random traffic.
func Fig11a(ctx context.Context, o Options) (stats.Table, error) {
	return rateTable(ctx, o, "ur", "fig11a", "Average latency, uniform random (cycles)", "avg packet latency", latency)
}

// Fig11b: average latency vs injection rate, NUCA-constrained bimodal
// traffic.
func Fig11b(ctx context.Context, o Options) (stats.Table, error) {
	return rateTable(ctx, o, "nuca", "fig11b", "Average latency, NUCA-UR (cycles)", "avg packet latency", latency)
}

// traceGrid runs every presented workload's trace on every architecture:
// the MP-trace grid of Figures 11 (c), 11 (d) and 12 (c).
func traceGrid(ctx context.Context, o Options) ([][]scenario.Outcome, error) {
	return sweep(ctx, o, cmp.Presented, core.Archs, func(o Options, name string, a core.Arch) scenario.Scenario {
		return o.trace(a, name, "")
	})
}

// Fig11c: per-workload latency normalized to 2DB.
func Fig11c(ctx context.Context, o Options) (stats.Table, error) {
	res, err := traceGrid(ctx, o)
	if err != nil {
		return stats.Table{}, err
	}
	return archTable("fig11c", "MP-trace latency normalized to 2DB", "workload", cmp.Presented, res,
		func(d *core.Design, r, base noc.Result) string {
			return f3(stats.Ratio(r.AvgLatency, base.AvgLatency))
		}), nil
}

// Fig11d: average hop count per architecture for the three traffic
// types. UR and NUCA-UR hop counts are computed analytically from the
// routing function; MP-trace hops are measured from the trace runs.
func Fig11d(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig11d",
		Title:  "Average hop count",
		Header: []string{"design", "UR", "NUCA-UR", "MP-traces"},
	}
	res, err := traceGrid(ctx, o)
	if err != nil {
		return t, err
	}
	for j, a := range core.Archs {
		d := designs()[a]
		ur, err := routing.AverageHops(d.Topo, routing.DOR{}, nil, nil)
		if err != nil {
			return t, err
		}
		cpus, caches := d.Topo.CPUs(), d.Topo.Caches()
		req, err := routing.AverageHops(d.Topo, routing.DOR{}, cpus, caches)
		if err != nil {
			return t, err
		}
		resp, err := routing.AverageHops(d.Topo, routing.DOR{}, caches, cpus)
		if err != nil {
			return t, err
		}
		var traceHops stats.Mean
		for _, outs := range res {
			traceHops.Add(outs[j].Result.AvgHops)
		}
		t.Rows = append(t.Rows, []string{
			d.Arch.String(), f2(ur), f2((req + resp) / 2), f2(traceHops.Mean()),
		})
	}
	return t, nil
}

// Fig12a: average network power vs injection rate, uniform random, 0 %
// short flits (pure structural comparison, no shutdown).
func Fig12a(ctx context.Context, o Options) (stats.Table, error) {
	return rateTable(ctx, o, "ur", "fig12a", "Average power, uniform random, 0% short flits (W)", "avg network power", powerW)
}

// Fig12b: average power under NUCA-UR traffic.
func Fig12b(ctx context.Context, o Options) (stats.Table, error) {
	return rateTable(ctx, o, "nuca", "fig12b", "Average power, NUCA-UR (W)", "avg network power", powerW)
}

// Fig12c: MP-trace power normalized to a 2DB baseline *without* layer
// shutdown; the other designs use the shutdown technique, as in the
// paper ("with no layer shut down in the base cases").
func Fig12c(ctx context.Context, o Options) (stats.Table, error) {
	res, err := traceGrid(ctx, o)
	if err != nil {
		return stats.Table{}, err
	}
	t := archTable("fig12c", "MP-trace power normalized to 2DB (no shutdown)", "workload", cmp.Presented, res,
		func(d *core.Design, r, base noc.Result) string {
			base2DB := designs()[core.Arch2DB]
			baseW := NetworkPowerW(base2DB, base, false)
			return f3(stats.Ratio(NetworkPowerW(d, r, true), baseW))
		})
	t.Notes = append(t.Notes, "numerators use short-flit layer shutdown; denominator is 2DB without shutdown")
	return t, nil
}

// designs holds one design per architecture, built on first use, for
// the power, area, floorplan and hop-count readings the tables take;
// every caller shares it, so it is read-only.
var designs = sync.OnceValue(func() map[core.Arch]*core.Design {
	m := map[core.Arch]*core.Design{}
	for _, a := range core.Archs {
		m[a] = core.MustDesign(a)
	}
	return m
})

// Fig12d: power-delay product normalized to 2DB, uniform random.
func Fig12d(ctx context.Context, o Options) (stats.Table, error) {
	return rateTable(ctx, o, "ur", "fig12d", "Normalized power-delay product, uniform random", "",
		func(d *core.Design, r, base noc.Result) string {
			basePDP := NetworkPowerW(designs()[core.Arch2DB], base, false) * base.AvgLatency
			pdp := NetworkPowerW(d, r, false) * r.AvgLatency
			return f3(stats.Ratio(pdp, basePDP))
		})
}

// Fig13a: short-flit percentage per workload.
func Fig13a(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig13a",
		Title:  "Short flit percentage per workload",
		Header: []string{"workload", "short flits %"},
	}
	res, err := traceStats(ctx, o, cmp.Presented)
	if err != nil {
		return t, err
	}
	var avg stats.Mean
	for i, name := range cmp.Presented {
		st := res[i]
		avg.Add(st.ShortFlitPct())
		t.Rows = append(t.Rows, []string{name, f1(st.ShortFlitPct())})
	}
	t.Rows = append(t.Rows, []string{"average", f1(avg.Mean())})
	return t, nil
}

// Fig13b: power saving from the layer-shutdown technique at 25 % and
// 50 % short flits (uniform random at a fixed moderate load).
func Fig13b(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig13b",
		Title:  "Power saving from layer shutdown (% vs same design, 0% short)",
		Header: []string{"design", "25% short", "50% short"},
	}
	const rate = 0.15
	archs := []core.Arch{core.Arch2DB, core.Arch3DM, core.Arch3DME} // the paper reports 2DB/3DM/3DM-E
	res, err := sweep(ctx, o, archs, []float64{0, 0.25, 0.50}, func(o Options, a core.Arch, frac float64) scenario.Scenario {
		sc := o.synthetic(a, "ur", rate)
		sc.Traffic.ShortFrac = frac
		return sc
	})
	if err != nil {
		return t, err
	}
	for i, a := range archs {
		var w [3]float64
		for j, out := range res[i] {
			w[j] = NetworkPowerW(designs()[a], out.Result, true)
		}
		t.Rows = append(t.Rows, []string{
			a.String(),
			f1(100 * (1 - w[1]/w[0])),
			f1(100 * (1 - w[2]/w[0])),
		})
	}
	return t, nil
}

// Fig13c: average chip temperature reduction of the 3DM design when
// 50 % of flits are short, at three injection rates. Router power comes
// from the simulation; CPU (8 W) and cache-bank (0.1 W) static power
// uses the paper's §4.2.3 numbers, spread equally over the four layers.
func Fig13c(ctx context.Context, o Options) (stats.Table, error) {
	t := stats.Table{
		ID:     "fig13c",
		Title:  "3DM average temperature reduction, 50% vs 0% short flits (K)",
		Header: []string{"inj rate", "avg dT (K)", "max dT (K)"},
	}
	rates := []float64{0.10, 0.20, 0.30}
	scs := make([]scenario.Scenario, len(rates))
	for i, rate := range rates {
		scs[i] = o.synthetic(core.Arch3DM, "ur", rate)
	}
	dts := make([][2]float64, len(scs))
	err := runPoints(ctx, o, scs, func(ctx context.Context, i int, sc scenario.Scenario) (err error) {
		dts[i], err = fig13cDeltas(ctx, o, sc, 0.5)
		return err
	})
	if err != nil {
		return t, err
	}
	for i, dt := range dts {
		t.Rows = append(t.Rows, []string{f2(rates[i]), f2(dt[0]), f2(dt[1])})
	}
	t.Notes = append(t.Notes, "CPU 8 W, cache bank 0.1 W static; router power from simulation with shutdown")
	return t, nil
}

// fig13cDeltas is one Fig. 13 (c) point: the 3DM chip's average and
// maximum temperature drop when a fraction short of the flits is short,
// at the point's rate; both simulations run on the point's seed.
func fig13cDeltas(ctx context.Context, o Options, sc scenario.Scenario, short float64) ([2]float64, error) {
	d := designs()[core.Arch3DM]
	var temps [2][]float64
	for i, frac := range []float64{0, short} {
		sc.Traffic.ShortFrac = frac
		out, err := run(ctx, o, sc, nil)
		if err != nil {
			return [2]float64{}, err
		}
		temps[i] = solveChipTemps(d, out.Result, EvenCoreLayers)
	}
	return [2]float64{thermal.Average(temps[0]) - thermal.Average(temps[1]), thermal.Max(temps[0]) - thermal.Max(temps[1])}, nil
}

// EvenCoreLayers is the paper's §4.1.1 assumption: "all four layers in
// each processor and cache core statically consume the same amount of
// power".
var EvenCoreLayers = [core.Layers]float64{0.25, 0.25, 0.25, 0.25}

// HerdedCoreLayers models Thermal-Herding-style multi-layer cores
// (Puttaswamy & Loh, the paper's future-work item): operand activity is
// steered to the layer nearest the heat sink, indices ordered bottom
// (farthest from the sink) to top.
var HerdedCoreLayers = [core.Layers]float64{0.10, 0.10, 0.20, 0.60}

// solveChipTemps builds the 3DM chip power map and solves the thermal
// grid with the given core-power split over the layers; router datapath
// power (buffer, crossbar, links) spreads evenly, while the allocator/RC
// control logic sits in the layer closest to the heat sink (§3.2.7).
func solveChipTemps(d *core.Design, res noc.Result, coreDist [core.Layers]float64) []float64 {
	g := thermal.NewGrid(6, 6, core.Layers, core.Pitch3DMMM)
	p := make([]float64, g.NumBlocks())
	top := core.Layers - 1 // grid layer adjacent to the heat sink
	for _, n := range d.Topo.Nodes() {
		nodeW := 0.1 // cache bank
		if n.Type == topology.CPU {
			nodeW = 8.0
		}
		rb := power.NetworkEnergy(d.Energy, res.PerRouter[n.ID], true)
		datapathW := power.AvgPowerW(power.Breakdown{
			Buffer: rb.Buffer, Crossbar: rb.Crossbar, Link: rb.Link,
		}, res.Cycles)
		controlW := power.AvgPowerW(power.Breakdown{Allocators: rb.Allocators}, res.Cycles)
		for z := 0; z < core.Layers; z++ {
			p[g.Index(n.Coord.X, n.Coord.Y, z)] += nodeW*coreDist[z] + datapathW/float64(core.Layers)
		}
		p[g.Index(n.Coord.X, n.Coord.Y, top)] += controlW
	}
	return g.Solve(p)
}
