package noc

import "testing"

func TestPipelineOrderingUnderLoad(t *testing.T) {
	run := func(look, spec bool) Result {
		cfg := cfg2D(2)
		cfg.LookaheadRC = look
		cfg.SpecSA = spec
		return shortSim(cfg, bernoulli(cfg.Topo, 0.15, 4, Data))
	}
	base := run(false, false)
	spec := run(false, true)
	both := run(true, true)
	if base.Ejected != base.Generated || spec.Ejected != spec.Generated || both.Ejected != both.Generated {
		t.Fatalf("loss under load: base %v spec %v both %v", base, spec, both)
	}
	if !(both.AvgLatency < spec.AvgLatency && spec.AvgLatency < base.AvgLatency) {
		t.Errorf("pipeline ordering violated: base %.2f spec %.2f both %.2f",
			base.AvgLatency, spec.AvgLatency, both.AvgLatency)
	}
}

func TestSpeculationDoesNotStealFromWinners(t *testing.T) {
	// With speculation on, throughput at saturation must not drop below
	// the non-speculative pipeline (speculation only uses leftover
	// switch slots).
	cfgBase := cfg2D(2)
	base := shortSim(cfgBase, bernoulli(cfgBase.Topo, 0.6, 4, Data))
	cfgSpec := cfg2D(2)
	cfgSpec.SpecSA = true
	spec := shortSim(cfgSpec, bernoulli(cfgSpec.Topo, 0.6, 4, Data))
	if spec.ThroughputFPC < 0.93*base.ThroughputFPC {
		t.Errorf("speculation hurt saturation throughput: %.4f vs %.4f",
			spec.ThroughputFPC, base.ThroughputFPC)
	}
}
