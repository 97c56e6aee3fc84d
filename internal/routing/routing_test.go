package routing

import (
	"testing"

	"mira/internal/topology"
)

func mesh6() *topology.Topology    { return topology.NewMesh2D(6, 6, 3.1) }
func mesh334() *topology.Topology  { return topology.NewMesh3D(3, 3, 4, 3.1, 0.02) }
func expressM() *topology.Topology { return topology.NewExpressMesh2D(6, 6, 1.58, 2) }

func TestAverageHopsUR2D(t *testing.T) {
	m := mesh6()
	got, err := AverageHops(m, DOR{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: mean 1D distance over distinct pairs is 35/15 per axis...
	// over ordered pairs incl. other axis it's 2 * (35*2/ (36*35/ (6)))...
	// Simplest closed form: E|i-j| over i!=j pairs weighted with the other
	// axis equal or not. Computed independently: 4.0 for a 6x6 mesh over
	// all ordered distinct pairs.
	if got < 3.9 || got > 4.1 {
		t.Errorf("UR avg hops 6x6 = %v, want ~4.0", got)
	}
}

func TestAverageHopsOrdering(t *testing.T) {
	// Figure 11 (d): 3DM-E < 3DB < 2DB for uniform random traffic.
	m2, m3, me := mesh6(), mesh334(), expressM()
	h2, err := AverageHops(m2, DOR{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := AverageHops(m3, DOR{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	he, err := AverageHops(me, DOR{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(he < h3 && h3 < h2) {
		t.Errorf("hop ordering violated: express %.2f, 3D %.2f, 2D %.2f", he, h3, h2)
	}
}

func TestAverageHopsNUCA3DBWorse(t *testing.T) {
	// Figure 11 (d): with NUCA layout constraints the 3DB hop count
	// exceeds its UR hop count (CPUs pinned to the top layer).
	m3 := mesh334()
	if err := topology.ApplyNUCALayout3D(m3); err != nil {
		t.Fatal(err)
	}
	ur, err := AverageHops(m3, DOR{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpus, caches := m3.CPUs(), m3.Caches()
	req, err := AverageHops(m3, DOR{}, cpus, caches)
	if err != nil {
		t.Fatal(err)
	}
	if req <= ur {
		t.Errorf("3DB NUCA hops %.2f should exceed UR hops %.2f", req, ur)
	}
}

func TestAverageHopsEmpty(t *testing.T) {
	m := mesh6()
	got, err := AverageHops(m, DOR{}, []topology.NodeID{3}, []topology.NodeID{3})
	if err != nil || got != 0 {
		t.Errorf("AverageHops over self pair = %v, %v; want 0, nil", got, err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
