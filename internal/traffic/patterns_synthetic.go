package traffic

import (
	"fmt"
	"math/rand"

	"mira/internal/noc"
	"mira/internal/topology"
)

// Classic synthetic permutation and hotspot workloads. The MIRA paper
// evaluates uniform random traffic only, but adversarial patterns are
// the standard way to probe a topology's weak spots (transpose and
// tornado stress dimension-ordered routing; hotspots model a contended
// home bank), so a production NoC library ships them.

// DstFunc maps a source node to its fixed destination in a permutation
// pattern.
type DstFunc func(t *topology.Topology, src topology.NodeID) topology.NodeID

// Transpose sends (x, y) to (y, x); it requires a square planar mesh
// and concentrates traffic on the diagonal under X-Y routing.
func Transpose(t *topology.Topology, src topology.NodeID) topology.NodeID {
	c := t.Node(src).Coord
	return t.MustNodeAt(topology.Coord{X: c.Y, Y: c.X, Z: c.Z}).ID
}

// Complement sends node i to node N-1-i (the coordinate-wise mirror on
// a mesh), maximizing average distance.
func Complement(t *topology.Topology, src topology.NodeID) topology.NodeID {
	return topology.NodeID(t.NumNodes() - 1 - int(src))
}

// Tornado sends each node halfway around its row, the canonical
// adversary for rings and an asymmetric load for meshes.
func Tornado(t *topology.Topology, src topology.NodeID) topology.NodeID {
	c := t.Node(src).Coord
	return t.MustNodeAt(topology.Coord{X: (c.X + t.XDim/2) % t.XDim, Y: c.Y, Z: c.Z}).ID
}

// Permutation is a fixed-destination synthetic workload.
type Permutation struct {
	Topo *topology.Topology
	// InjectionRate is offered load in flits/node/cycle.
	InjectionRate float64
	PacketSize    int
	Dst           DstFunc
	// Name labels the pattern in experiment output.
	Name string

	arr arrivals
}

var _ noc.Generator = (*Permutation)(nil)

// Generate implements noc.Generator.
func (p *Permutation) Generate(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
	for _, src := range p.arr.fire(cycle, rng, p.Topo.NumNodes(), p.InjectionRate/float64(p.PacketSize)) {
		s := topology.NodeID(src)
		d := p.Dst(p.Topo, s)
		if d == s {
			continue // self-pairs (diagonal of transpose) stay local
		}
		specs = append(specs, noc.Spec{Src: s, Dst: d, Size: p.PacketSize, Class: noc.Data})
	}
	return specs
}

// Validate checks the pattern is total and in-range over the topology.
func (p *Permutation) Validate() error {
	if p.Dst == nil {
		return fmt.Errorf("traffic: permutation has no destination function")
	}
	for _, n := range p.Topo.Nodes() {
		d := p.Dst(p.Topo, n.ID)
		if d < 0 || int(d) >= p.Topo.NumNodes() {
			return fmt.Errorf("traffic: %s maps node %d outside the network (%d)", p.Name, n.ID, d)
		}
	}
	return nil
}

// Hotspot is uniform random traffic with a fraction of packets directed
// at a small set of hot nodes (e.g. contended home banks).
type Hotspot struct {
	Topo          *topology.Topology
	InjectionRate float64
	PacketSize    int
	// Hot lists the hotspot destinations; Frac is the probability a
	// packet targets one of them.
	Hot  []topology.NodeID
	Frac float64

	arr arrivals
}

var _ noc.Generator = (*Hotspot)(nil)

// Generate implements noc.Generator. One draw u picks the hot set (u <
// Frac) and, scaled to [0, 1) by u / Frac, the hot node.
func (h *Hotspot) Generate(cycle int64, rng *rand.Rand, specs []noc.Spec) []noc.Spec {
	n := h.Topo.NumNodes()
	for _, src := range h.arr.fire(cycle, rng, n, h.InjectionRate/float64(h.PacketSize)) {
		dst := topology.NodeID(-1)
		if len(h.Hot) > 0 {
			if u := rng.Float64(); u < h.Frac {
				dst = h.Hot[min(int(u/h.Frac*float64(len(h.Hot))), len(h.Hot)-1)]
			}
		}
		if dst < 0 {
			dst = topology.NodeID(rng.Intn(n))
		}
		if dst == topology.NodeID(src) {
			continue
		}
		specs = append(specs, noc.Spec{Src: topology.NodeID(src), Dst: dst, Size: h.PacketSize, Class: noc.Data})
	}
	return specs
}
