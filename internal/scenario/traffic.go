package scenario

import (
	"fmt"
	"os"

	"mira/internal/cmp"
	"mira/internal/collective"
	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// Built is a traffic builder's product: the generator to drive the
// simulation, the VC policy the traffic needs (request/response traffic
// must separate classes to stay deadlock-free), and — for the
// trace-backed kinds — the trace and its generation statistics.
type Built struct {
	Gen    noc.Generator
	Policy noc.VCPolicy
	// Trace is the replayed trace ("trace" and "replay" kinds), nil for
	// synthetic traffic.
	Trace *traffic.Trace
	// Stats carries the CMP generation statistics ("trace" kind only).
	Stats cmp.Stats
	// Collective is the closed-loop dependency engine ("collective"
	// kind only); Elaborate wires its delivery callback to the Sim.
	Collective *collective.Engine
}

// Builder constructs one traffic kind. Validate checks the
// scenario's traffic parameters without elaborating a design; Build
// produces the generator against the elaborated design's topology.
type Builder struct {
	Validate func(sc Scenario) error
	Build    func(sc Scenario, d *core.Design) (Built, error)
}

// shortProfile is the layer-shutdown sampling profile shared by the
// synthetic kinds. Frac 0 draws nothing from the RNG, so a scenario
// without short flits is bit-identical to a generator built with no
// profile at all.
func shortProfile(sc Scenario) traffic.ShortFlitProfile {
	return traffic.ShortFlitProfile{Frac: sc.Traffic.ShortFrac, Layers: core.Layers}
}

func validateRate(sc Scenario) error {
	if sc.Traffic.Rate <= 0 {
		return fmt.Errorf("scenario: traffic kind %q needs rate > 0, got %g", sc.Traffic.Kind, sc.Traffic.Rate)
	}
	if sc.Traffic.ShortFrac < 0 || sc.Traffic.ShortFrac > 1 {
		return fmt.Errorf("scenario: short_frac = %g outside [0, 1]", sc.Traffic.ShortFrac)
	}
	return nil
}

func validateProtocol(p string) (cmp.Protocol, error) {
	switch p {
	case "", "mesi":
		return cmp.MESI, nil
	case "moesi":
		return cmp.MOESI, nil
	}
	return cmp.MESI, fmt.Errorf("scenario: unknown protocol %q (want \"mesi\" or \"moesi\")", p)
}

// builders is the fixed table of traffic kinds, keyed by Traffic.Kind.
var builders = map[string]Builder{
	"ur": {
		Validate: validateRate,
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			return Built{
				Gen: &traffic.Uniform{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					PacketSize:    core.DataPacketFlits,
					ShortFlits:    shortProfile(sc),
				},
				Policy: noc.AnyFree,
			}, nil
		},
	},

	"nuca": {
		Validate: validateRate,
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			return Built{
				Gen: &traffic.NUCA{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					RequestSize:   core.ControlPacketFlits,
					ResponseSize:  core.DataPacketFlits,
					ShortFlits:    shortProfile(sc),
				},
				Policy: noc.ByClass,
			}, nil
		},
	},

	"transpose":  permutation("transpose", traffic.Transpose),
	"complement": permutation("complement", traffic.Complement),
	"tornado":    permutation("tornado", traffic.Tornado),

	"hotspot": {
		Validate: func(sc Scenario) error {
			if err := validateRate(sc); err != nil {
				return err
			}
			if sc.Traffic.HotFrac <= 0 || sc.Traffic.HotFrac > 1 {
				return fmt.Errorf("scenario: hotspot needs hot_frac in (0, 1], got %g", sc.Traffic.HotFrac)
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			// The hot set is the chip centre of the 6-wide floorplans
			// (four nodes on the top layer; degenerates to one node on
			// 3DB's 3x3 layers).
			var hot []topology.NodeID
			for _, n := range d.Topo.Nodes() {
				c := n.Coord
				if (c.X == 2 || c.X == 3) && (c.Y == 2 || c.Y == 3) && c.Z == d.Topo.ZDim-1 {
					hot = append(hot, n.ID)
				}
			}
			return Built{
				Gen: &traffic.Hotspot{
					Topo:          d.Topo,
					InjectionRate: sc.Traffic.Rate,
					PacketSize:    core.DataPacketFlits,
					Hot:           hot,
					Frac:          sc.Traffic.HotFrac,
				},
				Policy: noc.AnyFree,
			}, nil
		},
	},

	"trace": {
		Validate: func(sc Scenario) error {
			if _, ok := cmp.ByName(sc.Traffic.Workload); !ok {
				return fmt.Errorf("scenario: unknown workload %q", sc.Traffic.Workload)
			}
			if sc.Traffic.TraceCycles <= 0 {
				return fmt.Errorf("scenario: trace kind needs trace_cycles > 0, got %d", sc.Traffic.TraceCycles)
			}
			_, err := validateProtocol(sc.Traffic.Protocol)
			return err
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			w, ok := cmp.ByName(sc.Traffic.Workload)
			if !ok {
				return Built{}, fmt.Errorf("scenario: unknown workload %q", sc.Traffic.Workload)
			}
			proto, err := validateProtocol(sc.Traffic.Protocol)
			if err != nil {
				return Built{}, err
			}
			p := cmp.DefaultParams(w, d.Topo, sc.Seed)
			p.Protocol = proto
			sys, err := cmp.NewSystem(p)
			if err != nil {
				return Built{}, err
			}
			tr, st := sys.Run(sc.Traffic.TraceCycles)
			return Built{
				Gen:    &traffic.Replayer{Trace: tr},
				Policy: noc.ByClass,
				Trace:  tr,
				Stats:  st,
			}, nil
		},
	},

	"collective": {
		Validate: func(sc Scenario) error {
			c := sc.Traffic.Collective
			if c == nil {
				return fmt.Errorf("scenario: collective kind needs a traffic.collective block")
			}
			if _, err := collective.ParseAlgorithm(c.Algorithm); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
			if c.Participants < 0 {
				return fmt.Errorf("scenario: collective participants = %d, need >= 0 (0 = all nodes)", c.Participants)
			}
			if c.MessageFlits < 0 {
				return fmt.Errorf("scenario: collective message_flits = %d, need >= 0 (0 = %d)", c.MessageFlits, core.DataPacketFlits)
			}
			if c.Iterations < 0 {
				return fmt.Errorf("scenario: collective iterations = %d, need >= 0 (0 = 1)", c.Iterations)
			}
			if sc.Warmup != 0 {
				return fmt.Errorf("scenario: collective traffic is closed-loop and starts at cycle 0; set warmup to 0, not %d", sc.Warmup)
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			c := sc.Traffic.Collective
			flits := c.MessageFlits
			if flits == 0 {
				flits = core.DataPacketFlits
			}
			eng, err := collective.New(d.Topo, collective.Params{
				Algorithm:    collective.Algorithm(c.Algorithm),
				Participants: c.Participants,
				MessageFlits: flits,
				Iterations:   c.Iterations,
			})
			if err != nil {
				return Built{}, err
			}
			return Built{Gen: eng, Policy: noc.AnyFree, Collective: eng}, nil
		},
	},

	"replay": {
		Validate: func(sc Scenario) error {
			if sc.Traffic.TraceFile == "" {
				return fmt.Errorf("scenario: replay kind needs trace_file")
			}
			return nil
		},
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			f, err := os.Open(sc.Traffic.TraceFile)
			if err != nil {
				return Built{}, err
			}
			defer f.Close()
			tr, err := traffic.ReadTrace(f)
			if err != nil {
				return Built{}, fmt.Errorf("scenario: %s: %w", sc.Traffic.TraceFile, err)
			}
			for _, e := range tr.Events {
				if int(e.Src) >= d.Topo.NumNodes() || int(e.Dst) >= d.Topo.NumNodes() {
					return Built{}, fmt.Errorf("scenario: trace node outside %s's %d nodes (trace recorded for another arch?)",
						d.Arch, d.Topo.NumNodes())
				}
			}
			return Built{
				Gen:    &traffic.Replayer{Trace: tr},
				Policy: noc.ByClass,
				Trace:  tr,
			}, nil
		},
	},
}

// permutation builds a fixed-destination permutation kind.
func permutation(kind string, dst traffic.DstFunc) Builder {
	return Builder{
		Validate: validateRate,
		Build: func(sc Scenario, d *core.Design) (Built, error) {
			gen := &traffic.Permutation{
				Topo:          d.Topo,
				InjectionRate: sc.Traffic.Rate,
				PacketSize:    core.DataPacketFlits,
				Dst:           dst,
				Name:          kind,
			}
			if err := gen.Validate(); err != nil {
				return Built{}, err
			}
			return Built{Gen: gen, Policy: noc.AnyFree}, nil
		},
	}
}
