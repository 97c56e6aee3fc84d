package noc

import (
	"context"
	"math/rand"
	"testing"

	"mira/internal/topology"
)

func TestRouterSet(t *testing.T) {
	s := newRouterSet(130)
	if got := s.appendMembers(nil); len(got) != 0 {
		t.Fatalf("empty set yields %v", got)
	}
	for _, i := range []int{129, 0, 63, 64, 7, 63} { // 63 twice: add is idempotent
		s.add(i)
	}
	if s.n != 5 {
		t.Fatalf("population %d, want 5", s.n)
	}
	want := []int32{0, 7, 63, 64, 129}
	got := s.appendMembers(nil)
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v not ascending as %v", got, want)
		}
	}
	for _, i := range []int{63, 63} { // remove is idempotent
		s.remove(i)
	}
	if s.n != 4 || s.has(63) || !s.has(64) {
		t.Fatalf("after remove: n=%d has(63)=%v has(64)=%v", s.n, s.has(63), s.has(64))
	}
}

// ejection is one packet leaving the network, in callback order. The
// determinism contract requires the full stream — order included — to
// be identical across step modes.
type ejection struct {
	id       int64
	ejected  int64
	injected int64
	hops     int
}

// runModal drives cfg under Bernoulli traffic of size-flit packets for
// the given cycles, recording the ejection stream, and returns it with
// the final counters.
func runModal(t *testing.T, cfg Config, mode StepMode, rate float64, size int, cycles int64) ([]ejection, Counters, *Network) {
	t.Helper()
	cfg.Mode = mode
	net := NewNetwork(cfg)
	t.Cleanup(net.ReleaseWorkers)
	var stream []ejection
	net.SetEjectHandler(func(p *Packet) {
		stream = append(stream, ejection{id: p.ID, ejected: p.EjectedAt, injected: p.InjectedAt, hops: p.Hops})
	})
	gen := bernoulli(cfg.Topo, rate, size, Data)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for cycle := int64(0); cycle < cycles; cycle++ {
		for _, spec := range gen.Generate(cycle, rng, nil) {
			if _, err := net.Enqueue(spec); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
	}
	for i := int64(0); i < 20000 && !net.Idle(); i++ {
		net.Step()
	}
	return stream, net.TotalCounters(), net
}

// TestActivityMatchesFullScan is the regression for activity tracking:
// production, which visits only routers and VCs with pending work, must
// reproduce the oracle, which scans every port and VC of every router
// every cycle (oracle_test.go) — same ejection stream in the same order,
// same backlog every cycle, same switching counters — across fabrics,
// pipeline options, arbiters and loads (including past saturation).
func TestActivityMatchesFullScan(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"mesh-stlt2", cfg2D(2), 0.2},
		{"mesh-stlt1-lookahead", func() Config { c := cfg2D(1); c.LookaheadRC = true; return c }(), 0.2},
		{"mesh-spec-sa", func() Config { c := cfg2D(2); c.SpecSA = true; return c }(), 0.2},
		{"mesh-matrix-arb", func() Config { c := cfg2D(2); c.Arb = ArbMatrix; return c }(), 0.2},
		{"mesh-qos", func() Config { c := cfg2D(2); c.QoSPriority = true; return c }(), 0.2},
		{"mesh3d", cfg3D(2), 0.2},
		{"express-low", cfgExpress(1), 0.05},
		{"express-saturated", cfgExpress(1), 0.9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Seed = 11
			if got := againstOracle(t, c.cfg, bernoulli(c.cfg.Topo, c.rate, 4, Data), 600, oracleOpts{}); len(got) == 0 {
				t.Fatal("no traffic delivered; test is vacuous")
			}
		})
	}
}

// TestSpecLookaheadSingleFlitChainReentry is the regression for the
// stepVA chain-walk guards. Under SpecSA+LookaheadRC a single-flit
// (HeadTail) packet granted early in stepVA can speculatively forward,
// release its channel and route the next buffered head straight back
// into vcWaitVC within the same stage — with readyAt = cycle+1 and
// possibly a different output port. The stale per-port chain still
// lists that VC, so the walk must re-check readiness and output port,
// not just the wait state; otherwise later (oi, ov) rounds grant it a
// cycle early on its old port, leaking the reservation when the new
// head routes elsewhere. Saturated single-flit traffic keeps a queued
// head behind every tail, the shape that triggers the re-entry; several
// seeds are swept because one arbiter history may not expose it. The
// oracle has no chain to go stale — it rebuilds every round's requests
// from the VC state — so with the guards removed production diverges
// from it within ten cycles (CHANGES.md, PR 22).
func TestSpecLookaheadSingleFlitChainReentry(t *testing.T) {
	for _, seed := range []int64{3, 11, 42, 1234} {
		cfg := cfg2D(1)
		cfg.SpecSA = true
		cfg.LookaheadRC = true
		cfg.BufDepth = 4
		cfg.Seed = seed
		if got := againstOracle(t, cfg, bernoulli(cfg.Topo, 0.8, 1, Data), 500, oracleOpts{}); len(got) == 0 {
			t.Fatal("no traffic delivered; test is vacuous")
		}
	}
}

// sameResult requires two complete Sim runs to agree in every derived
// metric — float means included — and in the per-router counter tables.
func sameResult(t *testing.T, what string, ref, got Result) {
	t.Helper()
	if ref.Ejected != got.Ejected || ref.Generated != got.Generated {
		t.Fatalf("%s: packet counts diverge: %d/%d vs %d/%d",
			what, ref.Ejected, ref.Generated, got.Ejected, got.Generated)
	}
	if ref.AvgLatency != got.AvgLatency || ref.P99Latency != got.P99Latency ||
		ref.AvgHops != got.AvgHops || ref.AvgQueueDelay != got.AvgQueueDelay ||
		ref.ThroughputFPC != got.ThroughputFPC || ref.Saturated != got.Saturated {
		t.Fatalf("%s: metrics diverge:\n%v\n%v", what, ref.String(), got.String())
	}
	if ref.Counters != got.Counters {
		t.Fatalf("%s: window counters diverge:\n%+v\n%+v", what, ref.Counters, got.Counters)
	}
	for i := range ref.PerRouter {
		if ref.PerRouter[i] != got.PerRouter[i] {
			t.Fatalf("%s: router %d counters diverge", what, i)
		}
	}
	if ref.PerClass != got.PerClass {
		t.Fatalf("%s: per-class results diverge: %+v vs %+v", what, ref.PerClass, got.PerClass)
	}
}

// wideTraffic is 2-flit packets at the given flits/node/cycle on a 4x2
// mesh: the bottom row (nodes 4-7) sends to node 1, so its packets
// converge on router 5's north link and from there on the last input
// port of router 1; the top row sends uniformly.
func wideTraffic(topo *topology.Topology, rate float64) Generator {
	base := bernoulli(topo, rate, 2, Data)
	return GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		specs = base.Generate(cycle, rng, specs)
		for i := range specs {
			if specs[i].Src >= 4 {
				specs[i].Dst = 1
			}
		}
		return specs
	})
}

// TestActivityMatchesFullScanSim compares complete Sim runs (warmup,
// measurement, drain) on a real sweep point: a checked run — and, for
// the last case, a sharded one — must give the bit-identical Result.
//
// The wide cases sit on the edge of the request mask: a 4x2 mesh has
// 4-port routers, so 16 VCs per port is exactly the 64 flat VCs
// Config.Validate accepts. VCs fill from the bottom, so reaching the top
// one takes sixteen packets at once on one link: BufDepth 2, 2-flit
// packets at 0.3 flits/node/cycle, the bottom row all sending to node 1
// in the top row (wideTraffic). Each case is stepped against the oracle
// and must get there — flat VC 63 has to bid for an output VC (bit 63 of
// a request mask) and a round-robin rotor has to be left equal to the
// width by a lone grant to it — and then run as a complete Sim.
func TestActivityMatchesFullScanSim(t *testing.T) {
	type simCase struct {
		name   string
		cfg    Config
		rate   float64
		params SimParams
		wide   bool
		shards int // also run this shard count, if > 1
	}
	cases := []simCase{{name: "mesh-stlt2", cfg: cfg2D(2), rate: 0.15, params: SimParams{Warmup: 300, Measure: 2000, DrainMax: 8000}}}
	for _, arb := range []ArbPolicy{ArbRoundRobin, ArbMatrix} {
		for _, qos := range []bool{false, true} {
			for _, spec := range []bool{false, true} {
				c := cfg2D(2)
				c.Topo = topology.NewMesh2D(4, 2, 3.1)
				c.VCs, c.BufDepth = 16, 2
				c.Arb, c.QoSPriority = arb, qos
				c.SpecSA, c.LookaheadRC = spec, spec
				name := "wide-" + arb.String()
				if qos {
					name += "-qos"
				}
				if spec {
					name += "-spec"
				}
				cases = append(cases, simCase{name: name, cfg: c, rate: 0.3, wide: true,
					params: SimParams{Warmup: 100, Measure: 600, DrainMax: 8000}})
			}
		}
	}
	cases[len(cases)-1].shards = 3 // once is enough: the shard axis has its own suites
	traffic := func(c simCase) Generator {
		if c.wide {
			return wideTraffic(c.cfg.Topo, c.rate)
		}
		return bernoulli(c.cfg.Topo, c.rate, 4, Data)
	}
	run := func(c simCase, mode StepMode, shards int) Result {
		cfg := c.cfg
		cfg.Seed = 42
		cfg.Mode = mode
		cfg.Shards = shards
		net := NewNetwork(cfg)
		s := NewSim(net, traffic(c))
		s.Params = c.params
		return s.Run(context.Background())
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.wide {
				cfg := c.cfg
				cfg.Seed = 42
				cfg.Shards = c.shards
				topBids, fullRotor := 0, 0
				againstOracle(t, cfg, traffic(c), 400, oracleOpts{watch: func(net *Network) {
					for i := range net.routers {
						r := &net.routers[i]
						if len(r.vcState) == 64 && r.vcState[63] == vcWaitVC {
							topBids++
						}
						for k := range r.arbs {
							if r.arbs[k].next == 64 {
								fullRotor++
							}
						}
					}
				}})
				if topBids == 0 || (c.cfg.Arb == ArbRoundRobin && fullRotor == 0) {
					t.Fatalf("the mask's edge was not reached: flat VC 63 waited for a VC on %d router-cycles, a rotor stood at 64 on %d", topBids, fullRotor)
				}
			}
			act := run(c, StepActivity, 1)
			if act.Generated == 0 || act.Ejected != act.Generated {
				t.Fatalf("activity run did not deliver all traffic: %v", act.String())
			}
			sameResult(t, "checked vs activity", run(c, StepChecked, 1), act)
			if c.shards > 1 {
				sameResult(t, "sharded vs 1 shard", run(c, StepActivity, c.shards), act)
			}
		})
	}
}

// TestCheckedStepMode runs the per-cycle cross-checking mode end to end:
// every cycle of a loaded run revalidates all invariants.
func TestCheckedStepMode(t *testing.T) {
	cfg := cfgExpress(1)
	cfg.Mode = StepChecked
	cfg.SpecSA = true
	cfg.LookaheadRC = true
	net := NewNetwork(cfg)
	s := NewSim(net, bernoulli(cfg.Topo, 0.25, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 400, DrainMax: 4000}
	res := s.Run(context.Background())
	if res.Ejected == 0 || res.Ejected != res.Generated {
		t.Fatalf("checked run did not deliver: %v", res.String())
	}
}

// TestCheckedStepAPI exercises the non-panicking debug entry point.
func TestCheckedStepAPI(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	if _, err := net.Enqueue(Spec{Src: 0, Dst: 7, Size: 4, Class: Data}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !net.Idle(); i++ {
		if err := net.CheckedStep(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if !net.Idle() {
		t.Fatal("single packet did not drain in 50 checked cycles")
	}
}

// TestIdleNetworkStaysCheap documents the activity contract directly:
// a drained network has empty activity sets, so stepping it visits no
// routers at all.
func TestIdleNetworkStaysCheap(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	if _, err := net.Enqueue(Spec{Src: 0, Dst: 35, Size: 4, Class: Data}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500 && !net.Idle(); i++ {
		net.Step()
	}
	if !net.Idle() {
		t.Fatal("packet did not drain")
	}
	sh := &net.shards[0]
	for _, s := range []*routerSet{&sh.actRC[0], &sh.actRC[1], &sh.actVA, &sh.actSA, &sh.actNI} {
		if s.n != 0 {
			t.Fatalf("idle network has %d active entries", s.n)
		}
	}
	before := net.Cycle()
	for i := 0; i < 10; i++ {
		net.Step()
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if net.Cycle() != before+10 {
		t.Fatalf("cycle advanced %d, want 10", net.Cycle()-before)
	}
}

// TestStepModeMixedClasses covers ByClass VC allocation plus QoS under
// bimodal control/data traffic: against the oracle, and as a complete
// Sim run in both step modes.
func TestStepModeMixedClasses(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Policy = ByClass
	cfg.QoSPriority = true
	cfg.Seed = 3
	gen := GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		if rng.Float64() < 0.4 {
			a := topology.NodeID(rng.Intn(36))
			b := topology.NodeID(rng.Intn(36))
			if a != b {
				specs = append(specs,
					Spec{Src: a, Dst: b, Size: 1, Class: Control},
					Spec{Src: b, Dst: a, Size: 4, Class: Data})
			}
		}
		return specs
	})
	againstOracle(t, cfg, gen, 600, oracleOpts{})
	mk := func(mode StepMode) Result {
		cfg.Mode = mode
		s := NewSim(NewNetwork(cfg), gen)
		s.Params = SimParams{Warmup: 200, Measure: 1500, DrainMax: 8000}
		return s.Run(context.Background())
	}
	sameResult(t, "checked vs activity", mk(StepChecked), mk(StepActivity))
}
