package scenario

import (
	"context"
	"fmt"

	"mira/internal/cmp"
	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/routing"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// Elaboration is the ready-to-run product of a scenario: the elaborated
// design, the simulator configuration derived from it, and the network,
// generator and simulation wired together. Everything is freshly built
// and owned by this elaboration — nothing is shared with other runs, so
// elaborations are safe to execute concurrently.
type Elaboration struct {
	Scenario Scenario
	Design   *core.Design
	Config   noc.Config
	Net      *noc.Network
	Gen      noc.Generator
	Sim      *noc.Sim
	// Trace and Stats are populated by the trace-backed traffic kinds.
	Trace *traffic.Trace
	Stats cmp.Stats
	// Collective is the closed-loop dependency engine ("collective"
	// traffic), already wired to the Sim's delivery callback; read its
	// Summary/StepTable after the run (Run takes its Report).
	Collective *collective.Engine
	// Obs is the attached observability collector, present iff the
	// scenario carries an Observe block. Callers that want a flit-event
	// trace call Obs.SetTraceWriter before Run, which closes it.
	Obs *obs.Collector
}

// design elaborates the architecture with the scenario's fabric
// overrides applied: the express interval or the chip grid.
func (s Scenario) design() (*core.Design, error) {
	arch, err := ArchByName(s.Arch)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDesign(arch)
	if err != nil {
		return nil, err
	}
	if s.ExpressInterval != 0 {
		// A non-default express interval rebuilds the fabric: same
		// 6x6 NUCA floorplan, different express-channel span.
		topo := topology.NewExpressMesh2D(6, 6, core.Pitch3DMMM, s.ExpressInterval)
		if err := topology.ApplyNUCALayout2D(topo); err != nil {
			return nil, err
		}
		d.Topo = topo
	}
	if c := s.Chips; c != nil {
		// A chiplet grid replaces the floorplan wholesale; the
		// architecture keeps setting the router pipeline and the on-chip
		// link pitch the grid tiles with.
		d.Topo = topology.NewChipGrid(c.spec(d.LinkLenMM))
	}
	return d, nil
}

// NoCConfig elaborates the design and simulator configuration without
// building traffic: the architecture with every scenario override
// applied (buffer geometry, pipeline options, step mode, routing,
// express interval). The returned config has no VC policy or generator
// yet — callers that only read the fabric (e.g. the express-interval
// ablation) stop here; Elaborate layers the traffic on top.
func (s Scenario) NoCConfig() (*core.Design, noc.Config, error) {
	if err := s.validateCore(); err != nil {
		return nil, noc.Config{}, err
	}
	d, err := s.design()
	if err != nil {
		return nil, noc.Config{}, err
	}

	cfg := d.NoCConfig(noc.AnyFree, s.Seed)
	if s.VCs > 0 {
		cfg.VCs = s.VCs
	}
	if s.BufDepth > 0 {
		cfg.BufDepth = s.BufDepth
	}
	if s.STLTCycles > 0 {
		cfg.STLTCycles = s.STLTCycles
	}
	cfg.LookaheadRC = s.LookaheadRC
	cfg.SpecSA = s.SpecSA
	cfg.QoSPriority = s.QoSPriority
	mode, err := noc.ParseStepMode(s.StepMode)
	if err != nil {
		return nil, noc.Config{}, err
	}
	cfg.Mode = mode
	cfg.Shards = s.Shards

	if s.Routing == "westfirst" {
		var faults []routing.LinkFault
		for _, f := range s.Faults {
			if f.Src >= d.Topo.NumNodes() {
				return nil, noc.Config{}, fmt.Errorf("scenario: fault source node %d outside %s's %d nodes",
					f.Src, d.Arch, d.Topo.NumNodes())
			}
			dir, err := parseDir(f.Dir)
			if err != nil {
				return nil, noc.Config{}, err
			}
			faults = append(faults, routing.LinkFault{Src: topology.NodeID(f.Src), Dir: dir})
		}
		alg, err := routing.NewWestFirst(d.Topo, faults)
		if err != nil {
			return nil, noc.Config{}, err
		}
		cfg.Alg = alg
	}
	return d, cfg, nil
}

// Elaborate validates the scenario and builds the full simulation:
// design, traffic generator, network and Sim. It is the only
// construction path from a run description to a runnable simulation;
// the experiment drivers and all commands go through here.
func (s Scenario) Elaborate() (*Elaboration, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d, cfg, err := s.NoCConfig()
	if err != nil {
		return nil, err
	}
	built, err := builders[s.Traffic.Kind].Build(s, d)
	if err != nil {
		return nil, err
	}
	cfg.Policy = built.Policy
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	net := noc.NewNetwork(cfg)
	sim := noc.NewSim(net, built.Gen)
	sim.Params = noc.SimParams{Warmup: s.Warmup, Measure: s.Measure, DrainMax: s.Drain}
	if built.Collective != nil {
		// Closed-loop traffic: deliveries unlock dependent sends.
		sim.OnEject = built.Collective.OnDeliver
	}
	e := &Elaboration{
		Scenario:   s,
		Design:     d,
		Config:     cfg,
		Net:        net,
		Gen:        built.Gen,
		Sim:        sim,
		Trace:      built.Trace,
		Stats:      built.Stats,
		Collective: built.Collective,
	}
	if o := s.Observe; o != nil {
		for _, lists := range [][]int{o.PerVCNodes, o.TraceNodes} {
			for _, n := range lists {
				if n >= d.Topo.NumNodes() {
					return nil, fmt.Errorf("scenario: observe node %d outside %s's %d nodes",
						n, d.Arch, d.Topo.NumNodes())
				}
			}
		}
		e.Obs = obs.New(net, obs.Config{
			Window:      o.Window,
			PerVCNodes:  o.PerVCNodes,
			TraceNodes:  o.TraceNodes,
			TraceClass:  o.TraceClass,
			Spans:       o.Spans,
			Engine:      o.Engine,
			EngineLabel: fmt.Sprintf("%s/%s", s.Arch, s.Traffic.Kind),
		})
		e.Obs.Attach(sim)
	}
	return e, nil
}

// Outcome is what one simulated scenario yields. An Outcome served
// from an exp.Scope is shared with every caller that asked for the same
// scenario (Result.PerRouter and Collective.StepLat alias the stored
// copy): treat it as read-only.
type Outcome struct {
	Result     noc.Result
	Stats      cmp.Stats         // CMP trace generation (trace-backed traffic)
	Collective collective.Report // completion report ("collective" traffic)
	// Obs is the collector of an observed scenario, closed.
	Obs *obs.Collector
}

// Run simulates the elaboration under the context: Sim.Run, then
// Obs.Close (folding the last event batch and the trailing sample
// window, flushing any trace writer), then the collective report. It
// is the one run sequence every caller goes through. The result is
// partial (Result.Canceled) if the context ends first; the error is the
// collector's (a failing trace writer), returned with the outcome.
func (e *Elaboration) Run(ctx context.Context) (Outcome, error) {
	out := Outcome{Result: e.Sim.Run(ctx), Stats: e.Stats, Obs: e.Obs}
	var err error
	if e.Obs != nil {
		err = e.Obs.Close()
	}
	if e.Collective != nil {
		out.Collective = e.Collective.Report()
	}
	return out, err
}
