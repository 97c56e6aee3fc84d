// Package core assembles the six router architectures evaluated in the
// MIRA paper — 2DB, 3DB, 3DM, 3DM(NC), 3DM-E and 3DM-E(NC) — from the
// substrate packages: topology + routing + pipeline depth (timing) +
// area + energy. A Design is everything an experiment needs to simulate
// one architecture.
package core

import (
	"fmt"

	"mira/internal/area"
	"mira/internal/noc"
	"mira/internal/power"
	"mira/internal/routing"
	"mira/internal/timing"
	"mira/internal/topology"
)

// Arch enumerates the evaluated router architectures.
type Arch int

// Architectures (§4: "the six architectures").
const (
	// Arch2DB is the planar 6x6 mesh baseline.
	Arch2DB Arch = iota
	// Arch3DB stacks full 2D routers into a 3x3x4 mesh with up/down
	// ports (the naive 3D baseline, §3.1).
	Arch3DB
	// Arch3DM splits each router's datapath across 4 layers (§3.2),
	// with the ST and LT pipeline stages combined (Figure 8 (d)).
	Arch3DM
	// Arch3DMNC is 3DM without the ST+LT combination ("NC" = not
	// combined), isolating the pipeline benefit.
	Arch3DMNC
	// Arch3DME adds 2-hop express channels using the spare wire
	// bandwidth of the multi-layer design (§3.3).
	Arch3DME
	// Arch3DMENC is 3DM-E without ST+LT combination.
	Arch3DMENC
	NumArchs
)

// Archs lists all architectures in presentation order.
var Archs = []Arch{Arch2DB, Arch3DB, Arch3DM, Arch3DMNC, Arch3DME, Arch3DMENC}

func (a Arch) String() string {
	switch a {
	case Arch2DB:
		return "2DB"
	case Arch3DB:
		return "3DB"
	case Arch3DM:
		return "3DM"
	case Arch3DMNC:
		return "3DM(NC)"
	case Arch3DME:
		return "3DM-E"
	case Arch3DMENC:
		return "3DM-E(NC)"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Physical design constants shared by all configurations (§4.1, Tables
// 1, 2, 4).
const (
	// FlitWidth is the flit/link width in bits (a 64 B cache line is 4
	// flits).
	FlitWidth = 128
	// VCsPerPort and BufDepth define the input buffers: 2 VCs of 8
	// flits each.
	VCsPerPort = 2
	BufDepth   = 8
	// Layers is the 3D stack height.
	Layers = 4
	// Pitch2DMM is the inter-router link length of the planar designs;
	// Pitch3DMMM is the multi-layer design's pitch: folding each node
	// into 4 layers halves the footprint edge (Table 2: 1.58 mm).
	Pitch2DMM  = 3.1
	Pitch3DMMM = 1.58
	// TSVLenMM is the vertical hop length of the 3DB stack (4 layers
	// of bonded silicon, ~20 um).
	TSVLenMM = 0.02
	// ExpressInterval is the hop span of the 3DM-E express channels.
	ExpressInterval = 2
	// DataPacketFlits / ControlPacketFlits are the NUCA packet sizes: a
	// 64 B cache line and a single address/coherence flit.
	DataPacketFlits    = 4
	ControlPacketFlits = 1
)

// Design is a fully-elaborated architecture instance.
type Design struct {
	Arch Arch
	// Topo carries the NUCA CPU/cache layout of Figure 10.
	Topo *topology.Topology
	// AreaParams feeds the area and power models; its Layers field is
	// 1 for the planar datapaths (2DB, 3DB) and 4 for the multi-layer
	// family.
	AreaParams area.Params
	Area       area.Breakdown
	Energy     power.Energy
	// LinkLenMM is the nominal planar hop length (Figure 9's link
	// component uses it).
	LinkLenMM float64
	// STLTCycles is 1 when ST+LT combine (validated by the timing
	// model), 2 otherwise.
	STLTCycles int
}

// NewDesign elaborates an architecture. The returned design's topology
// has the NUCA node types applied.
func NewDesign(a Arch) (*Design, error) {
	d := &Design{Arch: a}
	switch a {
	case Arch2DB:
		d.Topo = topology.NewMesh2D(6, 6, Pitch2DMM)
		d.LinkLenMM = Pitch2DMM
		d.AreaParams = area.Params{Ports: 5, VCs: VCsPerPort, FlitWidth: FlitWidth, BufDepth: BufDepth, Layers: 1}
		if err := topology.ApplyNUCALayout2D(d.Topo); err != nil {
			return nil, err
		}
	case Arch3DB:
		d.Topo = topology.NewMesh3D(3, 3, 4, Pitch2DMM, TSVLenMM)
		d.LinkLenMM = Pitch2DMM
		d.AreaParams = area.Params{Ports: 7, VCs: VCsPerPort, FlitWidth: FlitWidth, BufDepth: BufDepth, Layers: 1}
		if err := topology.ApplyNUCALayout3D(d.Topo); err != nil {
			return nil, err
		}
	case Arch3DM, Arch3DMNC:
		d.Topo = topology.NewMesh2D(6, 6, Pitch3DMMM)
		d.LinkLenMM = Pitch3DMMM
		d.AreaParams = area.Params{Ports: 5, VCs: VCsPerPort, FlitWidth: FlitWidth, BufDepth: BufDepth, Layers: Layers}
		if err := topology.ApplyNUCALayout2D(d.Topo); err != nil {
			return nil, err
		}
	case Arch3DME, Arch3DMENC:
		d.Topo = topology.NewExpressMesh2D(6, 6, Pitch3DMMM, ExpressInterval)
		d.LinkLenMM = Pitch3DMMM
		d.AreaParams = area.Params{Ports: 9, VCs: VCsPerPort, FlitWidth: FlitWidth, BufDepth: BufDepth, Layers: Layers}
		if err := topology.ApplyNUCALayout2D(d.Topo); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown architecture %d", int(a))
	}

	d.Area = area.Model(d.AreaParams)
	d.Energy = power.Model(d.AreaParams)

	// Pipeline: the NC variants force the separate link stage; the
	// others take whatever the delay model validates (Table 3). The
	// express design must also fit its 2-hop links in the combined
	// stage, so evaluate at the longest link the router drives.
	maxLink := d.LinkLenMM
	if a == Arch3DME || a == Arch3DMENC {
		maxLink = d.LinkLenMM * ExpressInterval
	}
	d.STLTCycles = timing.STLTCycles(area.XbarSideUM(d.AreaParams), maxLink)
	if a == Arch3DMNC || a == Arch3DMENC {
		d.STLTCycles = 2
	}
	return d, nil
}

// MustDesign is NewDesign for statically valid architectures.
func MustDesign(a Arch) *Design {
	d, err := NewDesign(a)
	if err != nil {
		panic(err)
	}
	return d
}

// NoCConfig builds the simulator configuration, routed by DOR. The
// policy separates request/response VCs for NUCA and trace traffic;
// synthetic uniform traffic uses AnyFree.
func (d *Design) NoCConfig(policy noc.VCPolicy, seed int64) noc.Config {
	return noc.Config{
		Topo:       d.Topo,
		Alg:        routing.DOR{},
		VCs:        VCsPerPort,
		BufDepth:   BufDepth,
		STLTCycles: d.STLTCycles,
		Layers:     Layers,
		Policy:     policy,
		Seed:       seed,
	}
}
