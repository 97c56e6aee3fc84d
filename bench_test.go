// Package mira_test holds the benchmark harness: one testing.B benchmark
// per simulated sweep of the MIRA paper's evaluation section, plus the
// engine micro-benchmarks. Each figure benchmark regenerates its
// artifact via internal/exp (with shortened simulation windows so
// `go test -bench=.` stays tractable) and reports the headline quantity
// of that artifact as a custom benchmark metric. Figures 12a-d and 11d
// read the sweeps Fig11a/b/c time and have no benchmark of their own;
// nor do the analytic tables, which cost nanoseconds.
//
// The options carry no exp.Scope, so every iteration simulates: these
// benchmarks time simulation, never a result lookup.
//
// Full-length regeneration (the numbers recorded in EXPERIMENTS.md) is
// done with `go run ./cmd/mirabench all`.
package mira_test

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"mira/internal/cmp"
	"mira/internal/core"
	"mira/internal/exp"
	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// bg is the context all benchmarks run under (never canceled).
func bg() context.Context { return context.Background() }

// benchOpts trims the windows so each iteration is sub-second.
func benchOpts() exp.Options {
	return exp.Options{Warmup: 500, Measure: 2000, Drain: 6000, TraceCycles: 5000, Seed: 42}
}

func parseCell(b *testing.B, s string) float64 {
	b.Helper()
	if len(s) > 0 && s[len(s)-1] == '*' {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

// BenchmarkFig1DataPatterns regenerates the data-pattern breakdown.
func BenchmarkFig1DataPatterns(b *testing.B) {
	o := benchOpts()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig1(bg(), o)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "workloads")
}

// BenchmarkFig2PacketTypes regenerates the packet-type distribution.
func BenchmarkFig2PacketTypes(b *testing.B) {
	o := benchOpts()
	var ctrl float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig2(bg(), o)
		if err != nil {
			b.Fatal(err)
		}
		ctrl = parseCell(b, t.Rows[0][len(t.Rows[0])-1])
	}
	b.ReportMetric(ctrl, "ctrl_pkt_frac_tpcw")
}

// BenchmarkFig11aLatencyUR regenerates the uniform-random latency curve
// at three representative injection rates.
func BenchmarkFig11aLatencyUR(b *testing.B) {
	o := benchOpts()
	var ratio float64
	for i := 0; i < b.N; i++ {
		var r2, re float64
		for _, rate := range []float64{0.05, 0.15, 0.30} {
			r2 = exp.RunUR(bg(), core.Arch2DB, rate, 0, o).AvgLatency
			re = exp.RunUR(bg(), core.Arch3DME, rate, 0, o).AvgLatency
		}
		ratio = re / r2 // at the highest rate
	}
	b.ReportMetric(ratio, "lat_3DME_vs_2DB@0.30")
}

// BenchmarkFig11bLatencyNUCA regenerates the NUCA-UR latency comparison.
func BenchmarkFig11bLatencyNUCA(b *testing.B) {
	o := benchOpts()
	var ratio float64
	for i := 0; i < b.N; i++ {
		r2 := exp.RunNUCAUR(bg(), core.Arch2DB, 0.10, 0, o).AvgLatency
		re := exp.RunNUCAUR(bg(), core.Arch3DME, 0.10, 0, o).AvgLatency
		ratio = re / r2
	}
	b.ReportMetric(ratio, "lat_3DME_vs_2DB")
}

// BenchmarkFig11cLatencyTraces regenerates the MP-trace latency ratio
// for one representative workload.
func BenchmarkFig11cLatencyTraces(b *testing.B) {
	o := benchOpts()
	w, _ := cmp.ByName("tpcw")
	var ratio float64
	for i := 0; i < b.N; i++ {
		r2, _, err := exp.RunTrace(bg(), core.Arch2DB, w, o)
		if err != nil {
			b.Fatal(err)
		}
		re, _, err := exp.RunTrace(bg(), core.Arch3DME, w, o)
		if err != nil {
			b.Fatal(err)
		}
		ratio = re.AvgLatency / r2.AvgLatency
	}
	b.ReportMetric(ratio, "lat_3DME_vs_2DB")
}

// BenchmarkFig13aShortFlits regenerates the per-workload short-flit
// percentages.
func BenchmarkFig13aShortFlits(b *testing.B) {
	o := benchOpts()
	var avg float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Fig13a(bg(), o)
		if err != nil {
			b.Fatal(err)
		}
		avg = parseCell(b, t.Rows[len(t.Rows)-1][1])
	}
	b.ReportMetric(avg, "avg_short_flit_pct")
}

// BenchmarkFig13bShutdown regenerates the layer-shutdown power savings.
func BenchmarkFig13bShutdown(b *testing.B) {
	o := benchOpts()
	var saving float64
	for i := 0; i < b.N; i++ {
		d := core.MustDesign(core.Arch3DM)
		base := exp.NetworkPowerW(d, exp.RunUR(bg(), core.Arch3DM, 0.15, 0, o), true)
		s50 := exp.NetworkPowerW(d, exp.RunUR(bg(), core.Arch3DM, 0.15, 0.5, o), true)
		saving = 100 * (1 - s50/base)
	}
	b.ReportMetric(saving, "pct_saving_50short")
}

// BenchmarkFig13cThermal regenerates the temperature-reduction analysis
// at one injection rate.
func BenchmarkFig13cThermal(b *testing.B) {
	o := benchOpts()
	var dT float64
	for i := 0; i < b.N; i++ {
		t := exp.Fig13cAt(bg(), o, 0.2)
		dT = t
	}
	b.ReportMetric(dT, "avg_dT_K")
}

// BenchmarkFig8Pipelines regenerates the router pipeline family
// comparison.
func BenchmarkFig8Pipelines(b *testing.B) {
	o := benchOpts()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(exp.Fig8(bg(), o).Rows)
	}
	b.ReportMetric(float64(rows), "variants")
}

// BenchmarkAblationBufferDepth regenerates the buffer-depth ablation.
func BenchmarkAblationBufferDepth(b *testing.B) {
	o := benchOpts()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(exp.AblationBufferDepth(bg(), o).Rows)
	}
	b.ReportMetric(float64(rows), "depths")
}

// BenchmarkAblationExpress regenerates the express-interval ablation.
func BenchmarkAblationExpress(b *testing.B) {
	o := benchOpts()
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := exp.AblationExpressInterval(bg(), o)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "intervals")
}

// BenchmarkExtLeakage regenerates the leakage-thermal feedback table.
func BenchmarkExtLeakage(b *testing.B) {
	o := benchOpts()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(exp.ExtLeakage(bg(), o).Rows)
	}
	b.ReportMetric(float64(rows), "designs")
}

// BenchmarkExtCosim runs the closed-loop CMP/NoC co-simulation for one
// workload on 2DB vs 3DM-E and reports the miss-latency ratio.
func BenchmarkExtCosim(b *testing.B) {
	w, _ := cmp.ByName("tpcw")
	var ratio float64
	for i := 0; i < b.N; i++ {
		run := func(a core.Arch) float64 {
			d := core.MustDesign(a)
			s, err := cmp.NewClosedSystem(cmp.DefaultParams(w, d.Topo, 42), d.NoCConfig(noc.ByClass, 42))
			if err != nil {
				b.Fatal(err)
			}
			st := s.Run(6000)
			return st.MissLatency.Mean()
		}
		ratio = run(core.Arch3DME) / run(core.Arch2DB)
	}
	b.ReportMetric(ratio, "missLat_3DME_vs_2DB")
}

// BenchmarkRouterCycle measures the simulator's raw per-cycle cost on
// a loaded 6x6 mesh (engine micro-benchmark, not a paper artifact).
func BenchmarkRouterCycle(b *testing.B) {
	o := exp.Options{Warmup: 0, Measure: int64(b.N), Drain: 0, Seed: 1}
	b.ResetTimer()
	exp.RunUR(bg(), core.Arch2DB, 0.2, 0, o)
	b.ReportMetric(float64(36), "routers")
}

// benchStep measures the steady-state cost of the generate/enqueue/step
// hot path on a 6x6 mesh at the given injection rate and step mode. The
// steady state should be allocation-light: the spec buffer is reused
// across cycles and the injection queues hold values, so per-cycle
// garbage comes only from packet births.
func benchStep(b *testing.B, rate float64, mode noc.StepMode) {
	benchStepProbe(b, rate, mode, nil)
}

// benchStepProbe is benchStep with an explicit probe attachment, for
// measuring the observability layer's hot-path cost.
func benchStepProbe(b *testing.B, rate float64, mode noc.StepMode, p noc.Probe) {
	b.Helper()
	d := core.MustDesign(core.Arch2DB)
	gen := &traffic.Uniform{Topo: d.Topo, InjectionRate: rate, PacketSize: core.DataPacketFlits}
	cfg := d.NoCConfig(noc.AnyFree, 1)
	cfg.Mode = mode
	net := noc.NewNetwork(cfg)
	net.SetProbe(p)
	runStepBench(b, net, gen)
}

// runStepBench warms net up to steady state (1000 cycles) and then runs
// b.N timed cycles. Traffic generation is pure rng work whose cost is
// identical for every simulator variant, so it runs with the timer
// stopped — specs are pre-generated a chunk of cycles at a time and the
// timed region is exactly Enqueue+Step. Generation depends only on the
// cycle number, so batching it does not change the injected traffic.
func runStepBench(b *testing.B, net *noc.Network, gen *traffic.Uniform) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var specs []noc.Spec
	cycle := int64(0)
	for ; cycle < 1000; cycle++ { // reach steady state before measuring
		specs = gen.Generate(cycle, rng, specs[:0])
		for _, sp := range specs {
			if _, err := net.Enqueue(sp); err != nil {
				b.Fatal(err)
			}
		}
		net.Step()
	}
	const chunk = 4096 // cycles pre-generated per timer pause
	var (
		flat []noc.Spec // chunk's specs, concatenated in cycle order
		off  []int      // off[i]:off[i+1] bounds cycle i's specs
	)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		nc := chunk
		if rem := b.N - done; rem < nc {
			nc = rem
		}
		b.StopTimer()
		flat, off = flat[:0], off[:0]
		for i := 0; i < nc; i++ {
			off = append(off, len(flat))
			flat = gen.Generate(cycle+int64(i), rng, flat)
		}
		off = append(off, len(flat))
		b.StartTimer()
		for i := 0; i < nc; i++ {
			for _, sp := range flat[off[i]:off[i+1]] {
				if _, err := net.Enqueue(sp); err != nil {
					b.Fatal(err)
				}
			}
			net.Step()
		}
		cycle += int64(nc)
	}
}

// BenchmarkStepUR is the loaded-mesh baseline (0.2 flits/node/cycle,
// default activity-driven stepping).
func BenchmarkStepUR(b *testing.B) { benchStep(b, 0.2, noc.StepActivity) }

// BenchmarkStepURFullScan is BenchmarkStepUR on the reference full-scan
// path, for before/after comparison under load.
func BenchmarkStepURFullScan(b *testing.B) { benchStep(b, 0.2, noc.StepFullScan) }

// countingProbe is the cheapest possible live probe: one counter bump
// per event, no allocation, no indirection beyond the interface call.
type countingProbe struct{ n int64 }

func (p *countingProbe) ProbeEvent(noc.ProbeEvent) { p.n++ }

// BenchmarkStepURNilProbe is BenchmarkStepUR with the probe explicitly
// detached: the zero-overhead-when-nil contract of internal/noc's probe
// layer says this must match BenchmarkStepUR within noise (each emission
// site pays one nil check either way).
func BenchmarkStepURNilProbe(b *testing.B) { benchStepProbe(b, 0.2, noc.StepActivity, nil) }

// BenchmarkStepURProbed measures the floor cost of live observation: the
// loaded-mesh step loop with a minimal counting probe attached, i.e. the
// per-event dispatch overhead before any collector logic runs.
func BenchmarkStepURProbed(b *testing.B) { benchStepProbe(b, 0.2, noc.StepActivity, &countingProbe{}) }

// BenchmarkStepHighRate measures the near-saturation regime the SoA
// router core targets: at 0.3 flits/node/cycle most VCs hold flits most
// cycles, so activity tracking prunes little and per-cycle cost is
// dominated by the stage loops walking live VC state. This is the
// regime the fig11/fig12 sweeps spend most of their wall-clock in.
func BenchmarkStepHighRate(b *testing.B) { benchStep(b, 0.3, noc.StepActivity) }

// BenchmarkStepHighRateFullScan is the full-scan reference for
// BenchmarkStepHighRate.
func BenchmarkStepHighRateFullScan(b *testing.B) { benchStep(b, 0.3, noc.StepFullScan) }

// benchStepMeter is benchStep with the engine meter attached or
// detached, for measuring the engine-telemetry layer's hot-path cost.
func benchStepMeter(b *testing.B, rate float64, metered bool) {
	b.Helper()
	d := core.MustDesign(core.Arch2DB)
	gen := &traffic.Uniform{Topo: d.Topo, InjectionRate: rate, PacketSize: core.DataPacketFlits}
	cfg := d.NoCConfig(noc.AnyFree, 1)
	cfg.Mode = noc.StepActivity
	net := noc.NewNetwork(cfg)
	if metered {
		net.EnableEngineMeter()
	}
	runStepBench(b, net, gen)
}

// BenchmarkStepTelemetryOff is BenchmarkStepHighRate with the engine
// meter explicitly detached: the telemetry layer's
// zero-overhead-when-off contract says each metered site pays one nil
// check, so this must match BenchmarkStepHighRate within noise.
// scripts/benchguard.sh holds it against the StepHighRate baseline.
func BenchmarkStepTelemetryOff(b *testing.B) { benchStepMeter(b, 0.3, false) }

// BenchmarkStepTelemetryOn is the attached reference: the step loop
// with the engine meter collecting per-cycle wall time (two
// time.Now() calls per sequential cycle).
func BenchmarkStepTelemetryOn(b *testing.B) { benchStepMeter(b, 0.3, true) }

// benchStepLarge is benchStep on a 16x16 mesh (256 routers, ~7x the
// 6x6 fabric), pinning that per-cycle cost stays proportional to
// traffic as the flat state arrays grow. shards > 1 partitions the
// mesh into concurrently stepped router-ID ranges (noc/shard.go).
func benchStepLarge(b *testing.B, rate float64, mode noc.StepMode, shards int) {
	b.Helper()
	topo := topology.NewMesh2D(16, 16, core.Pitch2DMM)
	cfg := noc.Config{
		Topo:       topo,
		Alg:        routing.ForTopology(topo),
		VCs:        core.VCsPerPort,
		BufDepth:   core.BufDepth,
		STLTCycles: 2,
		Layers:     core.Layers,
		Policy:     noc.AnyFree,
		Seed:       1,
		Mode:       mode,
		Shards:     shards,
	}
	gen := &traffic.Uniform{Topo: topo, InjectionRate: rate, PacketSize: core.DataPacketFlits}
	net := noc.NewNetwork(cfg)
	b.Cleanup(net.ReleaseWorkers)
	runStepBench(b, net, gen)
}

// BenchmarkStepHighRateLargeMesh is BenchmarkStepHighRate on a 16x16
// mesh — the giant-fabric regime sharded stepping partitions, so its
// single-threaded cost is the baseline the shard sweep is read against.
func BenchmarkStepHighRateLargeMesh(b *testing.B) { benchStepLarge(b, 0.3, noc.StepActivity, 1) }

// BenchmarkStepSharded sweeps shard counts over the high-load 16x16
// mesh of BenchmarkStepHighRateLargeMesh. Results are bit-identical at
// every shard count (pinned by noc's TestShardDeterminism); what the
// sweep measures is wall-clock scaling while shards <= cores (the
// barrier spins) and the barrier's parking cost beyond that (every wait
// blocks; see noc/pool.go).
func BenchmarkStepSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			benchStepLarge(b, 0.3, noc.StepActivity, shards)
		})
	}
}

// BenchmarkStepChiplet measures per-cycle cost on the chiplet fabric
// the ext-chiplet sweep runs: a 2x2 grid of 4x4-node chips joined by
// 4-cycle serializing (ser=2) die-to-die channels, uniform-random
// traffic at 0.10 flits/node/cycle — about 80% of the d2d bisection
// capacity, so the serialization lanes and latency-stamped cross-chip
// events are exercised every cycle without saturating the boundary
// queues. Read against BenchmarkStepUR (same stepping mode, monolithic
// mesh) to bound the chiplet bookkeeping overhead.
func BenchmarkStepChiplet(b *testing.B) {
	topo := topology.NewChipGrid(topology.ChipGridSpec{
		ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4,
		PitchMM: core.Pitch2DMM, D2DLatency: 4, D2DSerCycles: 2,
	})
	cfg := noc.Config{
		Topo:       topo,
		Alg:        routing.ForTopology(topo),
		VCs:        core.VCsPerPort,
		BufDepth:   core.BufDepth,
		STLTCycles: 2,
		Layers:     core.Layers,
		Policy:     noc.AnyFree,
		Seed:       1,
		Mode:       noc.StepActivity,
		Shards:     1,
	}
	gen := &traffic.Uniform{Topo: topo, InjectionRate: 0.1, PacketSize: core.DataPacketFlits}
	runStepBench(b, noc.NewNetwork(cfg), gen)
}

// BenchmarkStepLowRate measures the regime activity tracking targets:
// at 0.05 flits/node/cycle most routers are idle most cycles, so the
// activity path should beat BenchmarkStepLowRateFullScan by >= 3x.
func BenchmarkStepLowRate(b *testing.B) { benchStep(b, 0.05, noc.StepActivity) }

// BenchmarkStepLowRateFullScan is the full-scan reference for
// BenchmarkStepLowRate: it pays the whole-fabric rescan every cycle
// regardless of how little traffic exists.
func BenchmarkStepLowRateFullScan(b *testing.B) { benchStep(b, 0.05, noc.StepFullScan) }

// BenchmarkStepIdle steps a completely empty network: the activity path
// reduces to four empty-set scans, so cost is O(1) per cycle and zero
// allocations regardless of fabric size.
func BenchmarkStepIdle(b *testing.B) {
	d := core.MustDesign(core.Arch2DB)
	net := noc.NewNetwork(d.NoCConfig(noc.AnyFree, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkStepIdleFullScan is the empty-network full scan: the cost
// floor the activity path removes.
func BenchmarkStepIdleFullScan(b *testing.B) {
	d := core.MustDesign(core.Arch2DB)
	cfg := d.NoCConfig(noc.AnyFree, 1)
	cfg.Mode = noc.StepFullScan
	net := noc.NewNetwork(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// sweepPoints is the parallel-engine workload: a quick fig11a-style
// (rate × arch) grid of independent uniform-random simulations.
func sweepPoints() []exp.Point[float64] {
	rates := []float64{0.05, 0.15, 0.30}
	points := make([]exp.Point[float64], 0, len(rates)*len(core.Archs))
	for _, rate := range rates {
		for _, a := range core.Archs {
			rate, a := rate, a
			points = append(points, exp.Point[float64]{
				Label: "bench sweep",
				Run: func(ctx context.Context, o exp.Options) float64 {
					return exp.RunUR(ctx, a, rate, 0, o).AvgLatency
				},
			})
		}
	}
	return points
}

func benchSweep(b *testing.B, workers int) {
	o := benchOpts()
	o.Workers = workers
	points := sweepPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.RunAll(bg(), o, points)
	}
}

// BenchmarkSweepSequential runs the quick sweep grid on one worker —
// the baseline for BenchmarkSweepParallel.
func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel runs the same grid across all CPUs; on an
// N-core machine the speedup over BenchmarkSweepSequential approaches
// min(N, points) since sweep points are fully independent.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }
