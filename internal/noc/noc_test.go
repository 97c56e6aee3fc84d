package noc

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mira/internal/routing"
	"mira/internal/topology"
)

func cfg2D(stlt int) Config {
	return Config{
		Topo:       topology.NewMesh2D(6, 6, 3.1),
		Alg:        routing.DOR{},
		VCs:        2,
		BufDepth:   8,
		STLTCycles: stlt,
		Layers:     4,
		Policy:     AnyFree,
		Seed:       1,
	}
}

func cfgExpress(stlt int) Config {
	c := cfg2D(stlt)
	c.Topo = topology.NewExpressMesh2D(6, 6, 1.58, 2)
	return c
}

func cfg3D(stlt int) Config {
	c := cfg2D(stlt)
	c.Topo = topology.NewMesh3D(3, 3, 4, 3.1, 0.02)
	return c
}

// onePacket runs a single packet through an otherwise idle network and
// returns it after ejection.
func onePacket(t *testing.T, cfg Config, spec Spec) *Packet {
	t.Helper()
	net := NewNetwork(cfg)
	var done *Packet
	net.SetEjectHandler(func(p *Packet) { done = p })
	pkt, err := net.Enqueue(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && done == nil; i++ {
		net.Step()
	}
	if done == nil {
		t.Fatalf("packet not delivered within 1000 cycles")
	}
	if done != pkt {
		t.Fatalf("wrong packet ejected")
	}
	if !net.Idle() {
		t.Fatalf("network not idle after single packet: queued=%d inflight=%d",
			net.QueuedPackets(), net.InFlightFlits())
	}
	return pkt
}

// Zero-load head latency: 1 (injection) + perHop*(hops+1) cycles, where
// perHop is 5 for the 4-stage pipeline with a separate link stage and 4
// with ST+LT combined (Figure 8). Tail adds size-1 serialization cycles.
func TestZeroLoadLatencySeparateSTLT(t *testing.T) {
	cfg := cfg2D(2)
	pkt := onePacket(t, cfg, Spec{Src: 0, Dst: 1, Size: 1, Class: Control})
	if lat := pkt.EjectedAt - pkt.CreatedAt; lat != 1+5*2 {
		t.Errorf("1-hop 1-flit latency = %d, want 11", lat)
	}
	if pkt.Hops != 1 {
		t.Errorf("hops = %d, want 1", pkt.Hops)
	}
}

func TestZeroLoadLatencyCombinedSTLT(t *testing.T) {
	cfg := cfg2D(1)
	pkt := onePacket(t, cfg, Spec{Src: 0, Dst: 1, Size: 1, Class: Control})
	if lat := pkt.EjectedAt - pkt.CreatedAt; lat != 1+4*2 {
		t.Errorf("1-hop 1-flit latency = %d, want 9", lat)
	}
}

func TestZeroLoadLatencyMultiHop(t *testing.T) {
	cfg := cfg2D(2)
	// 0 -> 35 is 5+5 = 10 hops.
	pkt := onePacket(t, cfg, Spec{Src: 0, Dst: 35, Size: 1, Class: Control})
	if pkt.Hops != 10 {
		t.Errorf("hops = %d, want 10", pkt.Hops)
	}
	if lat := pkt.EjectedAt - pkt.CreatedAt; lat != 1+5*11 {
		t.Errorf("10-hop latency = %d, want 56", lat)
	}
}

func TestZeroLoadSerialization(t *testing.T) {
	cfg := cfg2D(2)
	pkt := onePacket(t, cfg, Spec{Src: 0, Dst: 1, Size: 4, Class: Data})
	if lat := pkt.EjectedAt - pkt.CreatedAt; lat != 11+3 {
		t.Errorf("4-flit latency = %d, want 14", lat)
	}
}

func TestZeroLoadExpressFewerHops(t *testing.T) {
	cfg := cfgExpress(1)
	src := cfg.Topo.MustNodeAt(topology.Coord{X: 0, Y: 0}).ID
	dst := cfg.Topo.MustNodeAt(topology.Coord{X: 4, Y: 0}).ID
	pkt := onePacket(t, cfg, Spec{Src: src, Dst: dst, Size: 1, Class: Control})
	if pkt.Hops != 2 { // two express hops of span 2
		t.Errorf("express hops = %d, want 2", pkt.Hops)
	}
}

func TestZeroLoad3DVertical(t *testing.T) {
	cfg := cfg3D(2)
	src := cfg.Topo.MustNodeAt(topology.Coord{X: 0, Y: 0, Z: 0}).ID
	dst := cfg.Topo.MustNodeAt(topology.Coord{X: 0, Y: 0, Z: 3}).ID
	pkt := onePacket(t, cfg, Spec{Src: src, Dst: dst, Size: 1, Class: Control})
	if pkt.Hops != 3 {
		t.Errorf("vertical hops = %d, want 3", pkt.Hops)
	}
}

// bernoulli builds a uniform-random Bernoulli generator for tests.
func bernoulli(topo *topology.Topology, flitsPerNodeCycle float64, size int, class Class) Generator {
	n := topo.NumNodes()
	pPkt := flitsPerNodeCycle / float64(size)
	return GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		for src := 0; src < n; src++ {
			if rng.Float64() >= pPkt {
				continue
			}
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			specs = append(specs, Spec{
				Src: topology.NodeID(src), Dst: topology.NodeID(dst),
				Size: size, Class: class,
			})
		}
		return specs
	})
}

func shortSim(cfg Config, gen Generator) Result {
	s := NewSim(NewNetwork(cfg), gen)
	s.Params = SimParams{Warmup: 1000, Measure: 3000, DrainMax: 8000}
	return s.Run(context.Background())
}

func TestConservationUnderLoad(t *testing.T) {
	cfg := cfg2D(2)
	res := shortSim(cfg, bernoulli(cfg.Topo, 0.1, 4, Data))
	if res.Generated == 0 {
		t.Fatal("no packets generated")
	}
	if res.Saturated {
		t.Fatalf("0.1 flits/node/cycle should not saturate a 6x6 mesh: %v", res.String())
	}
	if res.Ejected != res.Generated {
		t.Errorf("ejected %d != generated %d", res.Ejected, res.Generated)
	}
}

func TestCounterConsistency(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	gen := bernoulli(cfg.Topo, 0.08, 4, Data)
	s := NewSim(net, gen)
	s.Params = SimParams{Warmup: 0, Measure: 2000, DrainMax: 8000}
	res := s.Run(context.Background())
	if res.Saturated {
		t.Fatal("unexpected saturation")
	}
	// After full drain every buffered flit was read and crossed the
	// crossbar exactly once per hop.
	c := net.TotalCounters()
	if c.BufWrites != c.BufReads {
		t.Errorf("BufWrites %d != BufReads %d after drain", c.BufWrites, c.BufReads)
	}
	if c.XbarFlits != c.BufReads {
		t.Errorf("XbarFlits %d != BufReads %d", c.XbarFlits, c.BufReads)
	}
	// Every buffer write is either an injection or a link arrival.
	var injFlits int64
	// All generated packets (measured or not) were 4 flits.
	totalPkts := res.Generated // warmup=0, so all packets measured
	injFlits = totalPkts * 4
	if got := c.BufWrites - c.LinkFlits; got != injFlits {
		t.Errorf("BufWrites-LinkFlits = %d, want injected %d", got, injFlits)
	}
}

func TestWeightedCountersFullLayersEqualRaw(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	s := NewSim(net, bernoulli(cfg.Topo, 0.05, 2, Data))
	s.Params = SimParams{Warmup: 0, Measure: 1000, DrainMax: 4000}
	s.Run(context.Background())
	c := net.TotalCounters()
	if c.WBufWrites != float64(c.BufWrites) || c.WXbarFlits != float64(c.XbarFlits) {
		t.Errorf("full-layer flits should weight 1.0: %+v", c)
	}
}

func TestWeightedCountersShortFlits(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	gen := GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		if cycle != 0 {
			return specs
		}
		return append(specs, Spec{Src: 0, Dst: 5, Size: 2, Class: Data, LayersPerFlit: []uint8{1, 1}})
	})
	s := NewSim(net, gen)
	s.Params = SimParams{Warmup: 0, Measure: 100, DrainMax: 400}
	s.Run(context.Background())
	c := net.TotalCounters()
	if c.BufWrites == 0 {
		t.Fatal("no activity")
	}
	want := float64(c.BufWrites) * 0.25 // 1 of 4 layers active
	if diff := c.WBufWrites - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("WBufWrites = %v, want %v", c.WBufWrites, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := cfg2D(1)
		cfg.Seed = 42
		return shortSim(cfg, bernoulli(cfg.Topo, 0.15, 4, Data))
	}
	a, b := run(), run()
	if a.AvgLatency != b.AvgLatency || a.Generated != b.Generated || a.Ejected != b.Ejected {
		t.Errorf("non-deterministic: %v vs %v", a.String(), b.String())
	}
}

func TestSaturationDetection(t *testing.T) {
	cfg := cfg2D(2)
	low := shortSim(cfg, bernoulli(cfg.Topo, 0.05, 4, Data))
	high := shortSim(cfg, bernoulli(cfg.Topo, 0.9, 4, Data))
	if low.Saturated {
		t.Errorf("low load saturated: %v", low.String())
	}
	if !high.Saturated {
		t.Errorf("0.9 flits/node/cycle must saturate: %v", high.String())
	}
	if high.AvgLatency <= low.AvgLatency {
		t.Errorf("latency should grow with load: low %v high %v", low.AvgLatency, high.AvgLatency)
	}
}

func TestCombinedPipelineFasterUnderLoad(t *testing.T) {
	cfgNC, cfgC := cfg2D(2), cfg2D(1)
	rNC := shortSim(cfgNC, bernoulli(cfgNC.Topo, 0.1, 4, Data))
	rC := shortSim(cfgC, bernoulli(cfgC.Topo, 0.1, 4, Data))
	if rC.AvgLatency >= rNC.AvgLatency {
		t.Errorf("combined ST+LT should be faster: %.2f vs %.2f", rC.AvgLatency, rNC.AvgLatency)
	}
}

func TestExpressFasterThanMesh(t *testing.T) {
	cfgM, cfgE := cfg2D(1), cfgExpress(1)
	rM := shortSim(cfgM, bernoulli(cfgM.Topo, 0.1, 4, Data))
	rE := shortSim(cfgE, bernoulli(cfgE.Topo, 0.1, 4, Data))
	if rE.AvgHops >= rM.AvgHops {
		t.Errorf("express should reduce hops: %.2f vs %.2f", rE.AvgHops, rM.AvgHops)
	}
	if rE.AvgLatency >= rM.AvgLatency {
		t.Errorf("express should reduce latency: %.2f vs %.2f", rE.AvgLatency, rM.AvgLatency)
	}
}

func TestByClassPolicyRequestResponse(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Policy = ByClass
	// Bimodal request/response traffic at moderate load must drain.
	gen := GeneratorFunc(func(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
		for src := 0; src < 36; src++ {
			if rng.Float64() < 0.02 {
				dst := rng.Intn(35)
				if dst >= src {
					dst++
				}
				specs = append(specs, Spec{Src: topology.NodeID(src), Dst: topology.NodeID(dst), Size: 1, Class: Control})
				specs = append(specs, Spec{Src: topology.NodeID(dst), Dst: topology.NodeID(src), Size: 4, Class: Data})
			}
		}
		return specs
	})
	res := shortSim(cfg, gen)
	if res.Saturated || res.Ejected != res.Generated {
		t.Errorf("by-class bimodal traffic failed to drain: %v", res.String())
	}
}

func TestEnqueueValidation(t *testing.T) {
	net := NewNetwork(cfg2D(2))
	cases := []Spec{
		{Src: -1, Dst: 1, Size: 1},
		{Src: 0, Dst: 99, Size: 1},
		{Src: 3, Dst: 3, Size: 1},
		{Src: 0, Dst: 1, Size: 0},
		{Src: 0, Dst: 1, Size: 2, LayersPerFlit: []uint8{1}},
	}
	for _, spec := range cases {
		if _, err := net.Enqueue(spec); err == nil {
			t.Errorf("Enqueue(%+v) should fail", spec)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg2D(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.Alg = nil },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.STLTCycles = 0 },
		func(c *Config) { c.STLTCycles = 3 },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.VCs = 1; c.Policy = ByClass },
		func(c *Config) { c.VCs = 30 }, // 5 ports x 30 VCs > 64 flat VCs
	}
	for i, mutate := range bad {
		c := cfg2D(2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Buffer depth has no upper bound: a 200-deep VC holds one packet
	// against the oracle like any other.
	deep := cfg2D(2)
	deep.BufDepth = 200
	if err := deep.Validate(); err != nil {
		t.Fatalf("BufDepth 200 rejected: %v", err)
	}
	againstOracle(t, deep, GeneratorFunc(func(c int64, _ *rand.Rand, specs []Spec) []Spec {
		if c == 0 {
			specs = append(specs, Spec{Src: 0, Dst: 35, Size: 150, Class: Data})
		}
		return specs
	}), 1, oracleOpts{})
	// The widest router is one request-mask word: ports x VCs <= 64, and
	// the rejection names both factors.
	for _, c := range []struct {
		topo   *topology.Topology
		vcs    int
		reject string // "" = accepted
	}{
		{topology.NewMesh2D(4, 2, 3.1), 16, ""}, // 4 ports x 16 = 64
		{topology.NewMesh2D(4, 2, 3.1), 17, "4 ports x 17 VCs = 68 flat VCs"},
		{topology.NewExpressMesh2D(5, 4, 1.58, 2), 8, ""}, // 8 ports x 8 = 64
		{topology.NewMesh2D(6, 6, 3.1), 12, ""},           // 5 ports x 12 = 60
		{topology.NewMesh2D(6, 6, 3.1), 13, "5 ports x 13 VCs = 65 flat VCs"},
	} {
		cfg := cfg2D(2)
		cfg.Topo, cfg.VCs = c.topo, c.vcs
		err := cfg.Validate()
		if c.reject == "" && err != nil {
			t.Errorf("%s with %d VCs rejected: %v", c.topo.Name, c.vcs, err)
		}
		if c.reject != "" && (err == nil || !strings.Contains(err.Error(), c.reject)) {
			t.Errorf("%s with %d VCs: error %v, want one naming %q", c.topo.Name, c.vcs, err, c.reject)
		}
	}
}

func TestInjectionBackpressure(t *testing.T) {
	// Flood a single source; the NI queue must absorb everything and
	// packets still deliver in order of acceptance without loss.
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	var ejected int
	net.SetEjectHandler(func(p *Packet) { ejected++ })
	for i := 0; i < 50; i++ {
		if _, err := net.Enqueue(Spec{Src: 0, Dst: 35, Size: 4, Class: Data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000 && !net.Idle(); i++ {
		net.Step()
	}
	if ejected != 50 {
		t.Errorf("delivered %d/50 packets", ejected)
	}
}

func TestOccupancyBounded(t *testing.T) {
	cfg := cfg2D(2)
	net := NewNetwork(cfg)
	s := NewSim(net, bernoulli(cfg.Topo, 0.6, 4, Data))
	s.Params = SimParams{Warmup: 0, Measure: 2000, DrainMax: 0}
	s.Run(context.Background())
	// 6x6 mesh, 5 ports, 2 VCs, 8 flits.
	max := 36 * 5 * 2 * 8
	if occ := net.Occupancy(); occ > max {
		t.Errorf("occupancy %d exceeds physical capacity %d", occ, max)
	}
}
