package traffic

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
)

func mesh66() *topology.Topology { return topology.NewMesh2D(6, 6, 1) }

func TestTransposeMapping(t *testing.T) {
	m := mesh66()
	src := m.MustNodeAt(topology.Coord{X: 1, Y: 4}).ID
	dst := Transpose(m, src)
	if got := m.Node(dst).Coord; got != (topology.Coord{X: 4, Y: 1}) {
		t.Errorf("transpose(1,4) = %v", got)
	}
	// Diagonal maps to itself.
	diag := m.MustNodeAt(topology.Coord{X: 3, Y: 3}).ID
	if Transpose(m, diag) != diag {
		t.Errorf("diagonal should self-map")
	}
	// Transpose is an involution.
	for _, n := range m.Nodes() {
		if Transpose(m, Transpose(m, n.ID)) != n.ID {
			t.Fatalf("transpose not an involution at %d", n.ID)
		}
	}
}

func TestComplementMapping(t *testing.T) {
	m := mesh66()
	if Complement(m, 0) != 35 || Complement(m, 35) != 0 {
		t.Errorf("complement endpoints wrong")
	}
	for _, n := range m.Nodes() {
		if Complement(m, Complement(m, n.ID)) != n.ID {
			t.Fatalf("complement not an involution at %d", n.ID)
		}
	}
}

func TestTornadoMapping(t *testing.T) {
	m := mesh66()
	src := m.MustNodeAt(topology.Coord{X: 1, Y: 2}).ID
	dst := Tornado(m, src)
	if got := m.Node(dst).Coord; got != (topology.Coord{X: 4, Y: 2}) {
		t.Errorf("tornado(1,2) = %v, want (4,2)", got)
	}
	// Tornado keeps the row.
	for _, n := range m.Nodes() {
		if m.Node(Tornado(m, n.ID)).Coord.Y != n.Coord.Y {
			t.Fatalf("tornado changed row at %d", n.ID)
		}
	}
}

func TestPermutationValidate(t *testing.T) {
	m := mesh66()
	good := &Permutation{Topo: m, Dst: Transpose, Name: "transpose"}
	if err := good.Validate(); err != nil {
		t.Errorf("transpose should validate: %v", err)
	}
	bad := &Permutation{Topo: m, Name: "nil"}
	if err := bad.Validate(); err == nil {
		t.Errorf("nil DstFunc should fail validation")
	}
	oob := &Permutation{Topo: m, Name: "oob", Dst: func(*topology.Topology, topology.NodeID) topology.NodeID {
		return 99
	}}
	if err := oob.Validate(); err == nil {
		t.Errorf("out-of-range mapping should fail validation")
	}
}

func TestPermutationGenerate(t *testing.T) {
	m := mesh66()
	p := &Permutation{Topo: m, InjectionRate: 0.4, PacketSize: 4, Dst: Complement, Name: "complement"}
	rng := rand.New(rand.NewSource(1))
	var flits int64
	const cycles = 20000
	for c := int64(0); c < cycles; c++ {
		for _, s := range p.Generate(c, rng, nil) {
			if s.Dst != Complement(m, s.Src) {
				t.Fatalf("wrong destination for %d", s.Src)
			}
			flits += int64(s.Size)
		}
	}
	got := float64(flits) / cycles / 36
	if math.Abs(got-0.4) > 0.02 {
		t.Errorf("offered load = %v, want 0.4", got)
	}
}

func TestHotspotConcentration(t *testing.T) {
	m := mesh66()
	hot := []topology.NodeID{14, 21}
	h := &Hotspot{Topo: m, InjectionRate: 0.5, PacketSize: 1, Hot: hot, Frac: 0.5}
	rng := rand.New(rand.NewSource(2))
	counts := map[topology.NodeID]int{}
	total := 0
	for c := int64(0); c < 30000; c++ {
		for _, s := range h.Generate(c, rng, nil) {
			counts[s.Dst]++
			total++
		}
	}
	hotShare := float64(counts[14]+counts[21]) / float64(total)
	// 50% targeted + ~2/36 of the uniform remainder.
	want := 0.5 + 0.5*2.0/36
	if math.Abs(hotShare-want) > 0.03 {
		t.Errorf("hotspot share = %.3f, want ~%.3f", hotShare, want)
	}
}

func TestAdversarialPatternsLoadNetwork(t *testing.T) {
	// End-to-end: transpose on a mesh must deliver everything at low
	// load, and tornado must load east-going links asymmetrically.
	m := mesh66()
	cfg := noc.Config{
		Topo: m, Alg: routing.DOR{}, VCs: 2, BufDepth: 8,
		STLTCycles: 2, Layers: 4, Policy: noc.AnyFree, Seed: 1,
	}
	p := &Permutation{Topo: m, InjectionRate: 0.1, PacketSize: 4, Dst: Transpose, Name: "transpose"}
	s := noc.NewSim(noc.NewNetwork(cfg), p)
	s.Params = noc.SimParams{Warmup: 500, Measure: 2000, DrainMax: 8000}
	res := s.Run(context.Background())
	if res.Generated == 0 || res.Ejected != res.Generated {
		t.Fatalf("transpose lost packets: %v", res.String())
	}
}
