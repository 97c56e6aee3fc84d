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
	cfgM, cfgE := cfg2D(1), cfg2D(1)
	cfgE.Topo = topology.NewExpressMesh2D(6, 6, 1.58, 2)
	rM := shortSim(cfgM, bernoulli(cfgM.Topo, 0.1, 4, Data))
	rE := shortSim(cfgE, bernoulli(cfgE.Topo, 0.1, 4, Data))
	if rE.AvgHops >= rM.AvgHops {
		t.Errorf("express should reduce hops: %.2f vs %.2f", rE.AvgHops, rM.AvgHops)
	}
	if rE.AvgLatency >= rM.AvgLatency {
		t.Errorf("express should reduce latency: %.2f vs %.2f", rE.AvgLatency, rM.AvgLatency)
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
		func(c *Config) { c.BufDepth = MaxBufDepth + 1 },
		func(c *Config) { c.BufDepth = 100_000_000 }, // rejected before any ring is allocated
		func(c *Config) { c.STLTCycles = 0 },
		func(c *Config) { c.STLTCycles = 3 },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.VCs = 1; c.Policy = ByClass },
		func(c *Config) { c.VCs = 30 }, // 5 ports x 30 VCs > 64 flat VCs
		func(c *Config) { c.Shards = -2 },
	}
	for i, mutate := range bad {
		c := cfg2D(2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Below the bound, a 200-deep VC holds one packet against the oracle
	// like any other.
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
