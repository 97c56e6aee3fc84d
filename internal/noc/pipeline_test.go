package noc

import (
	"testing"

	"mira/internal/topology"
)

// The Figure 8 pipeline family. Zero-load head latency per hop (from
// buffer write to the next router's buffer write) is:
//
//	(a) 4-stage + LT:          RC, VA, SA, ST | LT      -> 3 + STLT
//	(b) speculative SA:        RC, VA+SA, ST | LT       -> 2 + STLT
//	(c) look-ahead + spec:     VA+SA, ST | LT           -> 1 + STLT
//	(d) 3DM (combined ST+LT):  same stages, STLT = 1
//
// End-to-end 1-flit latency over H hops: 1 (injection) + perHop*(H+1).
func pipelineLatency(t *testing.T, look, spec bool, stlt int, hops int) int64 {
	t.Helper()
	cfg := cfg2D(stlt)
	cfg.LookaheadRC = look
	cfg.SpecSA = spec
	dst := topology.NodeID(hops) // straight east along row 0
	pkt := onePacket(t, cfg, Spec{Src: 0, Dst: dst, Size: 1, Class: Control})
	return pkt.EjectedAt - pkt.CreatedAt
}

func TestPipelineFig8aBaseline(t *testing.T) {
	if got := pipelineLatency(t, false, false, 2, 3); got != 1+5*4 {
		t.Errorf("4-stage latency = %d, want 21", got)
	}
}

func TestPipelineFig8bSpeculative(t *testing.T) {
	if got := pipelineLatency(t, false, true, 2, 3); got != 1+4*4 {
		t.Errorf("speculative latency = %d, want 17", got)
	}
}

func TestPipelineFig8cLookaheadSpec(t *testing.T) {
	if got := pipelineLatency(t, true, true, 2, 3); got != 1+3*4 {
		t.Errorf("2-stage latency = %d, want 13", got)
	}
}

func TestPipelineLookaheadOnly(t *testing.T) {
	// Look-ahead without speculation removes only the RC cycle.
	if got := pipelineLatency(t, true, false, 2, 3); got != 1+4*4 {
		t.Errorf("look-ahead latency = %d, want 17", got)
	}
}

func TestPipelineFig8dCombined(t *testing.T) {
	// The 3DM trick orthogonally removes the LT cycle.
	if got := pipelineLatency(t, false, false, 1, 3); got != 1+4*4 {
		t.Errorf("ST+LT-combined latency = %d, want 17", got)
	}
	// All techniques together: the aggressive 2-stage single-cycle-hop
	// router (alloc, ST+LT).
	if got := pipelineLatency(t, true, true, 1, 3); got != 1+2*4 {
		t.Errorf("fully combined latency = %d, want 9", got)
	}
}

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
