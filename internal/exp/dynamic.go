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

func corePowerFlitHop(d *core.Design) power.FlitHop {
	return power.FlitHopEnergy(d.AreaParams, d.LinkLenMM)
}

// URRates is the injection-rate sweep of Figures 11 (a) and 12 (a). The
// top rates push the planar designs past saturation, where the latency
// gap to 3DM-E is widest (the paper's "51 % at 30 % injection rate").
var URRates = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}

// Fig1 reports the data-pattern breakdown of each workload's payload
// words (all-0 / all-1 / other frequent patterns / irregular).
func Fig1(ctx context.Context, o Options) (Table, error) {
	t := Table{
		ID:     "fig1",
		Title:  "Data pattern breakdown (fraction of data words)",
		Header: []string{"Workload", "all-0", "all-1", "frequent", "other", "short flits %"},
	}
	res := RunAll(ctx, o, traceStatPoints(cmp.Workloads))
	for i, w := range cmp.Workloads {
		if res[i].err != nil {
			return t, res[i].err
		}
		st := res[i].st
		sh := st.WordPatternShares()
		t.Rows = append(t.Rows, []string{
			w.Name,
			f3(sh[0]), f3(sh[1]), f3(sh[2]), f3(sh[3]),
			f1(st.ShortFlitPct()),
		})
	}
	t.Notes = append(t.Notes, "synthetic workload models calibrated to the paper's Figure 1 / 13(a) statistics")
	return t, nil
}

// statOut carries one workload's trace statistics through the runner.
type statOut struct {
	st  cmp.Stats
	err error
}

// traceStatPoints builds one trace-generation point per workload. Only
// the statistics are wanted, so the scenario is elaborated and never
// simulated: no result, nothing for run to reuse. The trace is
// generated on the 2DB floorplan (the 6x6 NUCA mesh); the statistics
// depend only on the workload model and seed.
func traceStatPoints(ws []cmp.Workload) []Point[statOut] {
	points := make([]Point[statOut], 0, len(ws))
	for _, w := range ws {
		points = append(points, Point[statOut]{
			Label: "trace-stats " + w.Name,
			Run: func(ctx context.Context, o Options) statOut {
				e, err := o.trace(core.Arch2DB, w.Name, "").Elaborate()
				if err != nil {
					return statOut{err: err}
				}
				return statOut{st: e.Stats}
			},
		})
	}
	return points
}

// Fig2 reports the packet-type distribution of the coherence traffic.
func Fig2(ctx context.Context, o Options) (Table, error) {
	t := Table{
		ID:     "fig2",
		Title:  "Packet type distribution (fraction of packets)",
		Header: []string{"Workload", "GetS", "GetX", "Upgrade", "Inv", "Fwd", "Ack", "Data", "WB", "control total"},
	}
	ws := presentedWorkloads()
	res := RunAll(ctx, o, traceStatPoints(ws))
	for i, w := range ws {
		if res[i].err != nil {
			return t, res[i].err
		}
		st := res[i].st
		var total int64
		for _, c := range st.KindCounts {
			total += c
		}
		row := []string{w.Name}
		for k := cmp.MsgKind(0); k < cmp.NumKinds; k++ {
			row = append(row, f3(float64(st.KindCounts[k])/float64(total)))
		}
		row = append(row, f3(st.ControlPacketFrac()))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// presentedWorkloads resolves cmp.Presented names to their workloads.
func presentedWorkloads() []cmp.Workload {
	ws := make([]cmp.Workload, 0, len(cmp.Presented))
	for _, name := range cmp.Presented {
		w, _ := cmp.ByName(name)
		ws = append(ws, w)
	}
	return ws
}

// SweepResult couples each architecture's result at one injection rate.
type SweepResult struct {
	Rate    float64
	Results map[core.Arch]noc.Result
}

// runSweep executes one synthetic traffic kind over all architectures
// and rates as a (rate × arch) grid of independent points on the
// parallel runner. Each point elaborates its own Design so no topology
// state is shared between workers.
func runSweep(ctx context.Context, o Options, kind string, rates []float64) []SweepResult {
	points := make([]Point[Outcome], 0, len(rates)*len(core.Archs))
	for _, rate := range rates {
		for _, a := range core.Archs {
			points = append(points, simPoint(fmt.Sprintf("rate=%.2f arch=%s", rate, a),
				func(o Options) scenario.Scenario { return o.synthetic(a, kind, rate) }))
		}
	}
	res := RunAll(ctx, o, points)
	out := make([]SweepResult, 0, len(rates))
	k := 0
	for _, rate := range rates {
		sr := SweepResult{Rate: rate, Results: make(map[core.Arch]noc.Result, len(core.Archs))}
		for _, a := range core.Archs {
			sr.Results[a] = res[k].Result
			k++
		}
		out = append(out, sr)
	}
	return out
}

func sweepTable(id, title, metric string, sweep []SweepResult, cell func(*core.Design, noc.Result) string) Table {
	t := Table{ID: id, Title: title}
	t.Header = []string{"inj rate"}
	designs := Designs()
	for _, d := range designs {
		t.Header = append(t.Header, d.Arch.String())
	}
	for _, sr := range sweep {
		row := []string{f2(sr.Rate)}
		for _, d := range designs {
			row = append(row, cell(d, sr.Results[d.Arch]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("metric: %s; '*' marks saturated points", metric))
	return t
}

// Figures 11 and 12 are two readings — latency and power — of the same
// simulations: 11a/12a/12d share the UR grid, 11b/12b the NUCA-UR grid
// and 11c/11d/12c the trace grid, point for point (same index, hence
// same SeedFor seed). Under a Scope each grid is simulated once.

// Fig11a: average latency vs injection rate, uniform random traffic.
func Fig11a(ctx context.Context, o Options) Table {
	return sweepTable("fig11a", "Average latency, uniform random (cycles)", "avg packet latency",
		runSweep(ctx, o, "ur", URRates), func(d *core.Design, r noc.Result) string { return latCell(r) })
}

// Fig11b: average latency vs injection rate, NUCA-constrained bimodal
// traffic.
func Fig11b(ctx context.Context, o Options) Table {
	return sweepTable("fig11b", "Average latency, NUCA-UR (cycles)", "avg packet latency",
		runSweep(ctx, o, "nuca", URRates), func(d *core.Design, r noc.Result) string { return latCell(r) })
}

// TraceRun bundles the per-workload, per-architecture results of the
// MP-trace experiments (Figures 11 (c) and 12 (c)).
type TraceRun struct {
	Workload string
	Results  map[core.Arch]noc.Result
	Stats    map[core.Arch]cmp.Stats
}

// RunTraces executes all presented workloads over all architectures as
// a (workload × arch) grid on the parallel runner.
func RunTraces(ctx context.Context, o Options) ([]TraceRun, error) {
	points := make([]Point[tried], 0, len(cmp.Presented)*len(core.Archs))
	for _, name := range cmp.Presented {
		for _, a := range core.Archs {
			points = append(points, tryPoint(fmt.Sprintf("trace=%s arch=%s", name, a),
				func(o Options) scenario.Scenario { return o.trace(a, name, "") }))
		}
	}
	res := RunAll(ctx, o, points)
	var out []TraceRun
	k := 0
	for _, name := range cmp.Presented {
		tr := TraceRun{
			Workload: name,
			Results:  make(map[core.Arch]noc.Result, len(core.Archs)),
			Stats:    make(map[core.Arch]cmp.Stats, len(core.Archs)),
		}
		for _, a := range core.Archs {
			r := res[k]
			k++
			if r.err != nil {
				return nil, r.err
			}
			tr.Results[a] = r.Result
			tr.Stats[a] = r.Stats
		}
		out = append(out, tr)
	}
	return out, nil
}

// Fig11c: per-workload latency normalized to 2DB.
func Fig11c(ctx context.Context, o Options) (Table, error) {
	runs, err := RunTraces(ctx, o)
	if err != nil {
		return Table{}, err
	}
	return traceTable("fig11c", "MP-trace latency normalized to 2DB", runs,
		func(d *core.Design, r noc.Result, base noc.Result) string {
			return f3(stats.Ratio(r.AvgLatency, base.AvgLatency))
		}), nil
}

func traceTable(id, title string, runs []TraceRun, cell func(*core.Design, noc.Result, noc.Result) string) Table {
	t := Table{ID: id, Title: title}
	designs := Designs()
	t.Header = []string{"workload"}
	for _, d := range designs {
		t.Header = append(t.Header, d.Arch.String())
	}
	for _, run := range runs {
		base := run.Results[core.Arch2DB]
		row := []string{run.Workload}
		for _, d := range designs {
			row = append(row, cell(d, run.Results[d.Arch], base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig11d: average hop count per architecture for the three traffic
// types. UR and NUCA-UR hop counts are computed analytically from the
// routing function; MP-trace hops are measured from the trace runs.
func Fig11d(ctx context.Context, o Options) (Table, error) {
	t := Table{
		ID:     "fig11d",
		Title:  "Average hop count",
		Header: []string{"design", "UR", "NUCA-UR", "MP-traces"},
	}
	runs, err := RunTraces(ctx, o)
	if err != nil {
		return t, err
	}
	for _, d := range Designs() {
		ur, err := routing.AverageHops(d.Topo, d.Alg, nil, nil)
		if err != nil {
			return t, err
		}
		cpus, caches := d.Topo.CPUs(), d.Topo.Caches()
		req, err := routing.AverageHops(d.Topo, d.Alg, cpus, caches)
		if err != nil {
			return t, err
		}
		resp, err := routing.AverageHops(d.Topo, d.Alg, caches, cpus)
		if err != nil {
			return t, err
		}
		var traceHops stats.Mean
		for _, run := range runs {
			traceHops.Add(run.Results[d.Arch].AvgHops)
		}
		t.Rows = append(t.Rows, []string{
			d.Arch.String(), f2(ur), f2((req + resp) / 2), f2(traceHops.Mean()),
		})
	}
	return t, nil
}

// Fig12a: average network power vs injection rate, uniform random, 0 %
// short flits (pure structural comparison, no shutdown).
func Fig12a(ctx context.Context, o Options) Table {
	return sweepTable("fig12a", "Average power, uniform random, 0% short flits (W)", "avg network power",
		runSweep(ctx, o, "ur", URRates), func(d *core.Design, r noc.Result) string { return f3(NetworkPowerW(d, r, false)) })
}

// Fig12b: average power under NUCA-UR traffic.
func Fig12b(ctx context.Context, o Options) Table {
	return sweepTable("fig12b", "Average power, NUCA-UR (W)", "avg network power",
		runSweep(ctx, o, "nuca", URRates), func(d *core.Design, r noc.Result) string { return f3(NetworkPowerW(d, r, false)) })
}

// Fig12c: MP-trace power normalized to a 2DB baseline *without* layer
// shutdown; the other designs use the shutdown technique, as in the
// paper ("with no layer shut down in the base cases").
func Fig12c(ctx context.Context, o Options) (Table, error) {
	runs, err := RunTraces(ctx, o)
	if err != nil {
		return Table{}, err
	}
	t := traceTable("fig12c", "MP-trace power normalized to 2DB (no shutdown)", runs,
		func(d *core.Design, r noc.Result, base noc.Result) string {
			base2DB := corePowerOf(core.Arch2DB)
			baseW := NetworkPowerW(base2DB, base, false)
			return f3(stats.Ratio(NetworkPowerW(d, r, true), baseW))
		})
	t.Notes = append(t.Notes, "numerators use short-flit layer shutdown; denominator is 2DB without shutdown")
	return t, nil
}

var (
	designMu    sync.Mutex
	designCache = map[core.Arch]*core.Design{}
)

// corePowerOf returns a cached design for power/area lookups. The cache
// is mutex-guarded because table builders may consult it from parallel
// sweep workers; callers must treat the returned design as read-only.
func corePowerOf(a core.Arch) *core.Design {
	designMu.Lock()
	defer designMu.Unlock()
	if d, ok := designCache[a]; ok {
		return d
	}
	d := core.MustDesign(a)
	designCache[a] = d
	return d
}

// Fig12d: power-delay product normalized to 2DB, uniform random.
func Fig12d(ctx context.Context, o Options) Table {
	sweep := runSweep(ctx, o, "ur", URRates)
	t := Table{ID: "fig12d", Title: "Normalized power-delay product, uniform random", Header: []string{"inj rate"}}
	designs := Designs()
	for _, d := range designs {
		t.Header = append(t.Header, d.Arch.String())
	}
	for _, sr := range sweep {
		base := sr.Results[core.Arch2DB]
		basePDP := NetworkPowerW(corePowerOf(core.Arch2DB), base, false) * base.AvgLatency
		row := []string{f2(sr.Rate)}
		for _, d := range designs {
			r := sr.Results[d.Arch]
			pdp := NetworkPowerW(d, r, false) * r.AvgLatency
			row = append(row, f3(stats.Ratio(pdp, basePDP)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig13a: short-flit percentage per workload.
func Fig13a(ctx context.Context, o Options) (Table, error) {
	t := Table{
		ID:     "fig13a",
		Title:  "Short flit percentage per workload",
		Header: []string{"workload", "short flits %"},
	}
	ws := presentedWorkloads()
	res := RunAll(ctx, o, traceStatPoints(ws))
	var avg stats.Mean
	for i, w := range ws {
		if res[i].err != nil {
			return t, res[i].err
		}
		st := res[i].st
		avg.Add(st.ShortFlitPct())
		t.Rows = append(t.Rows, []string{w.Name, f1(st.ShortFlitPct())})
	}
	t.Rows = append(t.Rows, []string{"average", f1(avg.Mean())})
	return t, nil
}

// Fig13b: power saving from the layer-shutdown technique at 25 % and
// 50 % short flits (uniform random at a fixed moderate load).
func Fig13b(ctx context.Context, o Options) Table {
	t := Table{
		ID:     "fig13b",
		Title:  "Power saving from layer shutdown (% vs same design, 0% short)",
		Header: []string{"design", "25% short", "50% short"},
	}
	const rate = 0.15
	archs := []core.Arch{core.Arch2DB, core.Arch3DM, core.Arch3DME} // the paper reports 2DB/3DM/3DM-E
	fracs := []float64{0, 0.25, 0.50}
	points := make([]Point[float64], 0, len(archs)*len(fracs))
	for _, a := range archs {
		for _, frac := range fracs {
			points = append(points, Point[float64]{
				Label: fmt.Sprintf("arch=%s short=%.0f%%", a, 100*frac),
				Run: func(ctx context.Context, o Options) float64 {
					return NetworkPowerW(corePowerOf(a), RunUR(ctx, a, rate, frac, o), true)
				},
			})
		}
	}
	res := RunAll(ctx, o, points)
	for i, a := range archs {
		base, s25, s50 := res[3*i], res[3*i+1], res[3*i+2]
		t.Rows = append(t.Rows, []string{
			a.String(),
			f1(100 * (1 - s25/base)),
			f1(100 * (1 - s50/base)),
		})
	}
	return t
}

// Fig13c: average chip temperature reduction of the 3DM design when
// 50 % of flits are short, at three injection rates. Router power comes
// from the simulation; CPU (8 W) and cache-bank (0.1 W) static power
// uses the paper's §4.2.3 numbers, spread equally over the four layers.
func Fig13c(ctx context.Context, o Options) Table {
	t := Table{
		ID:     "fig13c",
		Title:  "3DM average temperature reduction, 50% vs 0% short flits (K)",
		Header: []string{"inj rate", "avg dT (K)", "max dT (K)"},
	}
	rates := []float64{0.10, 0.20, 0.30}
	points := make([]Point[[2]float64], 0, len(rates))
	for _, rate := range rates {
		rate := rate
		points = append(points, Point[[2]float64]{
			Label: fmt.Sprintf("rate=%.2f", rate),
			Run: func(ctx context.Context, o Options) [2]float64 {
				avgDT, maxDT := fig13cDeltas(ctx, o, rate)
				return [2]float64{avgDT, maxDT}
			},
		})
	}
	for i, dt := range RunAll(ctx, o, points) {
		t.Rows = append(t.Rows, []string{f2(rates[i]), f2(dt[0]), f2(dt[1])})
	}
	t.Notes = append(t.Notes, "CPU 8 W, cache bank 0.1 W static; router power from simulation with shutdown")
	return t
}

// Fig13cAt returns the average temperature reduction at one injection
// rate (used by the benchmark harness).
func Fig13cAt(ctx context.Context, o Options, rate float64) float64 {
	avgDT, _ := fig13cDeltas(ctx, o, rate)
	return avgDT
}

func fig13cDeltas(ctx context.Context, o Options, rate float64) (avgDT, maxDT float64) {
	d := corePowerOf(core.Arch3DM)
	r0 := RunUR(ctx, core.Arch3DM, rate, 0, o)
	r50 := RunUR(ctx, core.Arch3DM, rate, 0.5, o)
	t0 := solveChipTemps(d, r0)
	t50 := solveChipTemps(d, r50)
	return thermal.Average(t0) - thermal.Average(t50), thermal.Max(t0) - thermal.Max(t50)
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
// grid with the paper's even core-power split; router datapath power
// (buffer, crossbar, links) spreads evenly, while the allocator/RC
// control logic sits in the layer closest to the heat sink (§3.2.7).
func solveChipTemps(d *core.Design, res noc.Result) []float64 {
	return solveChipTempsDist(d, res, EvenCoreLayers)
}

func solveChipTempsDist(d *core.Design, res noc.Result, coreDist [core.Layers]float64) []float64 {
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
