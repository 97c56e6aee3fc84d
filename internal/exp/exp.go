// Package exp contains one driver per table and figure of the MIRA
// paper's evaluation, listed in Experiments, each returning a
// stats.Table. The mirabench command runs them, and their outputs
// populate EXPERIMENTS.md. Each experiment is deterministic given
// Options.Seed. Every point is a scenario, and one pool and one run
// (runner.go, reuse.go) execute the sweeps' points and mirasim's and
// the serving layer's scenario batches alike.
package exp

import (
	"context"
	"fmt"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/power"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// Options sizes the simulations.
type Options struct {
	Warmup  int64
	Measure int64
	Drain   int64
	// TraceCycles is the CMP generation window for the MP-trace
	// experiments.
	TraceCycles int64
	Seed        int64
	// Workers caps the worker pool that fans independent sweep points
	// across goroutines; 0 (the default) means GOMAXPROCS. Results are
	// bit-identical for every worker count — see runner.go.
	Workers int
	// Progress, when non-nil, is called after each scenario a sweep
	// simulates or serves from Reuse, for progress/timing reporting. It
	// runs on the point's worker, concurrently with other workers.
	Progress func(Progress)
	// Reuse, when non-nil, is the run-scoped result table the drivers
	// consult before simulating a sweep point (see Scope): figures that
	// read the same sweep simulate it once. The zero Options has none
	// and always simulates.
	Reuse *Scope
	// Edits are scenario key=value edits (mirabench -set) applied to the
	// base scenario of every simulation, before the driver sets its own
	// fields: step_mode, shards, observe.window and observe.engine leave
	// every table bit-identical. Build them through Edits.Set, which
	// rejects an edit that does not apply.
	Edits scenario.Edits
}

// Default returns the full-size experiment windows.
func Default() Options {
	return Options{Warmup: 5000, Measure: 20000, Drain: 30000, TraceCycles: 30000, Seed: 42}
}

// Quick returns scaled-down windows for benchmarks and smoke tests.
func Quick() Options {
	return Options{Warmup: 1000, Measure: 4000, Drain: 10000, TraceCycles: 8000, Seed: 42}
}

// Scenario converts the options into a base run description for one
// architecture: windows and seed carried over and the edits applied,
// traffic and overrides left for the caller to fill in. Every simulation
// a driver runs goes Options -> Scenario -> run, so mirabench -set and
// -seed reach every simulation and any driver's point can be reproduced
// standalone from its serialized scenario.
func (o Options) Scenario(a core.Arch) scenario.Scenario {
	sc := scenario.Scenario{
		Arch:    a.String(),
		Warmup:  o.Warmup,
		Measure: o.Measure,
		Drain:   o.Drain,
		Seed:    o.Seed,
	}
	sc, err := o.Edits.Apply(sc)
	if err != nil {
		panic(err) // edits not built through Edits.Set
	}
	return sc
}

// synthetic is Scenario with a rate-driven synthetic traffic kind.
func (o Options) synthetic(a core.Arch, kind string, rate float64) scenario.Scenario {
	sc := o.Scenario(a)
	sc.Traffic = scenario.Traffic{Kind: kind, Rate: rate}
	return sc
}

// trace is Scenario replaying the workload's CMP coherence trace,
// generated on the architecture's own topology under the given protocol
// ("" for the default MESI).
func (o Options) trace(a core.Arch, workload, protocol string) scenario.Scenario {
	sc := o.Scenario(a)
	sc.Traffic = scenario.Traffic{Kind: "trace", Workload: workload, TraceCycles: o.TraceCycles, Protocol: protocol}
	return sc
}

// mustRun is run for RunUR and RunNUCAUR, whose scenarios are statically
// valid: failure there is a programming error, not an input error.
func mustRun(ctx context.Context, o Options, sc scenario.Scenario) scenario.Outcome {
	out, err := run(ctx, o, sc, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// Experiment is one table or figure: its mirabench ID, a one-line
// description and its driver.
type Experiment struct {
	ID, Desc string
	Run      func(context.Context, Options) (stats.Table, error)
}

// analytic adapts a table computed from the models alone.
func analytic(f func() stats.Table) func(context.Context, Options) (stats.Table, error) {
	return func(context.Context, Options) (stats.Table, error) { return f(), nil }
}

// Experiments lists every experiment, in mirabench's "all" order.
var Experiments = []Experiment{
	{"table1", "router component areas (TSMC 90nm model)", analytic(Table1)},
	{"table2", "physical design parameters", analytic(Table2)},
	{"table3", "ST+LT pipeline combination delays", analytic(Table3)},
	{"fig1", "data pattern breakdown per workload", Fig1},
	{"fig2", "packet type distribution per workload", Fig2},
	{"fig3", "chip footprint comparison", analytic(Fig3)},
	{"fig8", "router pipeline family comparison", Fig8},
	{"fig9", "per-flit energy breakdown", analytic(Fig9)},
	{"fig10", "NUCA node layouts", analytic(Fig10)},
	{"fig11a", "latency vs injection rate, uniform random", Fig11a},
	{"fig11b", "latency vs injection rate, NUCA-UR", Fig11b},
	{"fig11c", "MP-trace latency normalized to 2DB", Fig11c},
	{"fig11d", "average hop counts", Fig11d},
	{"fig12a", "power vs injection rate, uniform random", Fig12a},
	{"fig12b", "power vs injection rate, NUCA-UR", Fig12b},
	{"fig12c", "MP-trace power normalized to 2DB", Fig12c},
	{"fig12d", "normalized power-delay product", Fig12d},
	{"fig13a", "short flit percentage per workload", Fig13a},
	{"fig13b", "layer-shutdown power savings", Fig13b},
	{"fig13c", "temperature reduction from shutdown", Fig13c},
	{"ablation-buf", "3DM buffer-depth ablation (extension)", AblationBufferDepth},
	{"ablation-vc", "3DM VC-count ablation (extension)", AblationVCs},
	{"ablation-express", "express-interval ablation (extension)", AblationExpressInterval},
	{"ext-leakage", "leakage-thermal feedback (extension)", ExtLeakage},
	{"ext-patterns", "adversarial traffic patterns (extension)", ExtPatterns},
	{"ext-qos", "QoS priority arbitration (extension)", ExtQoS},
	{"ext-fault", "link-fault tolerance via west-first routing (extension)", ExtFault},
	{"ext-herding", "thermal herding + router shutdown (extension)", ExtHerding},
	{"ext-protocol", "MESI vs MOESI coherence traffic (extension)", ExtProtocol},
	{"ext-chiplet", "chiplet grid d2d link sweep (extension)", ChipletSweep},
	{"ext-collective", "collective workloads: ring allreduce / reduce-scatter / tree broadcast (extension)", CollectiveSweep},
	{"obs-ur", "observability summaries across UR injection rates (extension)", ObsURSweep},
	{"obs-stages", "per-flit latency stage decomposition per architecture (extension)", SpanStages},
}

// RunUR simulates one architecture under uniform-random traffic at the
// given injection rate (flits/node/cycle) with the given short-flit
// fraction.
func RunUR(ctx context.Context, a core.Arch, rate, shortFrac float64, o Options) noc.Result {
	sc := o.synthetic(a, "ur", rate)
	sc.Traffic.ShortFrac = shortFrac
	return mustRun(ctx, o, sc).Result
}

// RunNUCAUR simulates the layout-constrained bimodal request/response
// workload (§4.2.1's "NUCA-UR").
func RunNUCAUR(ctx context.Context, a core.Arch, rate, shortFrac float64, o Options) noc.Result {
	sc := o.synthetic(a, "nuca", rate)
	sc.Traffic.ShortFrac = shortFrac
	return mustRun(ctx, o, sc).Result
}

// NetworkPowerW converts a simulation result into average network power
// (W) under the design's energy model, optionally applying the
// short-flit layer-shutdown accounting.
func NetworkPowerW(d *core.Design, res noc.Result, shutdown bool) float64 {
	b := power.NetworkEnergy(d.Energy, res.Counters, shutdown)
	return power.AvgPowerW(b, res.Cycles)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// latCell renders a latency with a saturation marker.
func latCell(r noc.Result) string {
	s := f1(r.AvgLatency)
	if r.Saturated {
		s += "*"
	}
	return s
}
