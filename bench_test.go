// Package mira_test holds the engine micro-benchmarks: the per-cycle
// hot path of noc.Network.Step on fixed fabrics and loads, for profile
// sessions (`go test -run '^$' -bench BenchmarkStepHighRate -cpuprofile
// ...`). They are a working handle, not a ledger: end-to-end and
// per-layer numbers, and every before/after pair a change quotes, come
// from `go run ./bench` (bench/README.md), whose paper_suite workload
// also times each figure, ablation and extension through `mirabench
// -timing`.
package mira_test

import (
	"math/rand"
	"strconv"
	"testing"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// benchStep measures the steady-state cost of the generate/enqueue/step
// hot path on a 6x6 mesh at the given injection rate. The
// steady state should be allocation-light: the spec buffer is reused
// across cycles and the injection queues hold values, so per-cycle
// garbage comes only from packet births.
func benchStep(b *testing.B, rate float64) {
	benchStepProbe(b, rate, nil)
}

// benchStepProbe is benchStep with an explicit probe attachment, for
// measuring the observability layer's hot-path cost.
func benchStepProbe(b *testing.B, rate float64, p noc.Probe) {
	b.Helper()
	d := core.MustDesign(core.Arch2DB)
	gen := &traffic.Uniform{Topo: d.Topo, InjectionRate: rate, PacketSize: core.DataPacketFlits}
	cfg := d.NoCConfig(noc.AnyFree, 1)
	net := noc.NewNetwork(cfg)
	net.SetProbe(p)
	runStepBench(b, net, gen)
}

// runStepBench warms net up to steady state (1000 cycles) and then runs
// b.N timed cycles. Traffic generation is pure rng work whose cost is
// identical for every simulator variant, so it runs with the timer
// stopped — specs are pre-generated a chunk of cycles at a time and the
// timed region is exactly Enqueue+Step. Generation reads nothing the
// network writes and still sees every cycle once, in order, so batching
// it does not change the injected traffic.
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
func BenchmarkStepUR(b *testing.B) { benchStep(b, 0.2) }

// countingProbe is the cheapest possible live probe: one counter bump
// per event, no allocation, no indirection beyond the interface call.
type countingProbe struct{ n int64 }

func (p *countingProbe) ProbeEvent(noc.ProbeEvent) { p.n++ }

// BenchmarkStepURNilProbe is BenchmarkStepUR with the probe explicitly
// detached: the zero-overhead-when-nil contract of internal/noc's probe
// layer says this must match BenchmarkStepUR within noise (each emission
// site pays one nil check either way).
func BenchmarkStepURNilProbe(b *testing.B) { benchStepProbe(b, 0.2, nil) }

// BenchmarkStepURProbed measures the floor cost of live observation: the
// loaded-mesh step loop with a minimal counting probe attached, i.e. the
// per-event dispatch overhead before any collector logic runs.
func BenchmarkStepURProbed(b *testing.B) { benchStepProbe(b, 0.2, &countingProbe{}) }

// BenchmarkStepHighRate measures the near-saturation regime the SoA
// router core targets: at 0.3 flits/node/cycle most VCs hold flits most
// cycles, so activity tracking prunes little and per-cycle cost is
// dominated by the stage loops walking live VC state. This is the
// regime the fig11/fig12 sweeps spend most of their wall-clock in.
func BenchmarkStepHighRate(b *testing.B) { benchStep(b, 0.3) }

// benchStepMeter is benchStep with the engine meter attached or
// detached, for measuring the engine-telemetry layer's hot-path cost.
func benchStepMeter(b *testing.B, rate float64, metered bool) {
	b.Helper()
	d := core.MustDesign(core.Arch2DB)
	gen := &traffic.Uniform{Topo: d.Topo, InjectionRate: rate, PacketSize: core.DataPacketFlits}
	cfg := d.NoCConfig(noc.AnyFree, 1)
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
// with the engine meter collecting per-cycle wall time and the
// drain/busy split (five clock reads per single-shard cycle).
func BenchmarkStepTelemetryOn(b *testing.B) { benchStepMeter(b, 0.3, true) }

// benchStepLarge is benchStep on a 16x16 mesh (256 routers, ~7x the
// 6x6 fabric), pinning that per-cycle cost stays proportional to
// traffic as the flat state arrays grow. shards > 1 partitions the
// mesh into concurrently stepped router-ID ranges (noc/shard.go).
func benchStepLarge(b *testing.B, rate float64, shards int) {
	b.Helper()
	topo := topology.NewMesh2D(16, 16, core.Pitch2DMM)
	cfg := noc.Config{
		Topo:       topo,
		Alg:        routing.DOR{},
		VCs:        core.VCsPerPort,
		BufDepth:   core.BufDepth,
		STLTCycles: 2,
		Layers:     core.Layers,
		Policy:     noc.AnyFree,
		Seed:       1,
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
func BenchmarkStepHighRateLargeMesh(b *testing.B) { benchStepLarge(b, 0.3, 1) }

// BenchmarkStepSharded sweeps shard counts over the high-load 16x16
// mesh of BenchmarkStepHighRateLargeMesh. Results are bit-identical at
// every shard count (pinned by noc's TestShardDeterminism); what the
// sweep measures is wall-clock scaling while shards <= cores (the
// barrier spins) and the barrier's parking cost beyond that (every wait
// blocks; see noc/pool.go).
func BenchmarkStepSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			benchStepLarge(b, 0.3, shards)
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
		Alg:        routing.DOR{},
		VCs:        core.VCsPerPort,
		BufDepth:   core.BufDepth,
		STLTCycles: 2,
		Layers:     core.Layers,
		Policy:     noc.AnyFree,
		Seed:       1,
		Shards:     1,
	}
	gen := &traffic.Uniform{Topo: topo, InjectionRate: 0.1, PacketSize: core.DataPacketFlits}
	runStepBench(b, noc.NewNetwork(cfg), gen)
}

// BenchmarkStepLowRate measures the regime activity tracking targets:
// at 0.05 flits/node/cycle most routers are idle most cycles, so a
// cycle should cost a fraction of BenchmarkStepUR's.
func BenchmarkStepLowRate(b *testing.B) { benchStep(b, 0.05) }

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
