package routing

import (
	"testing"

	"mira/internal/topology"
)

func chipGrid(express bool) *topology.Topology {
	return topology.NewChipGrid(topology.ChipGridSpec{
		ChipsX: 3, ChipsY: 2, NodesX: 3, NodesY: 3,
		PitchMM: 3.1, D2DLatency: 4, D2DSerCycles: 2,
		Express: express,
	})
}

func isX(d topology.Dir) bool {
	return d == topology.East || d == topology.West || d == topology.EastExp || d == topology.WestExp
}

// TestChipDORReachability walks every ordered pair of a 3x2-chip grid
// (with and without express channels) and asserts the route terminates
// at the destination — the routing-level reachability and no-livelock
// guarantee — and stays globally dimension-ordered: no X move after any
// Y move, which makes the channel dependency graph acyclic and the
// network deadlock-free under wormhole flow control.
func TestChipDORReachability(t *testing.T) {
	for _, express := range []bool{false, true} {
		tp := chipGrid(express)
		alg := ChipDOR{}
		for src := 0; src < tp.NumNodes(); src++ {
			for dst := 0; dst < tp.NumNodes(); dst++ {
				if src == dst {
					continue
				}
				p, err := Path(tp, alg, topology.NodeID(src), topology.NodeID(dst))
				if err != nil {
					t.Fatalf("express=%v: %v", express, err)
				}
				seenY := false
				for _, d := range p {
					if isX(d) && seenY {
						t.Fatalf("express=%v %d->%d: X move after Y move in %v", express, src, dst, p)
					}
					if !isX(d) {
						seenY = true
					}
				}
			}
		}
	}
}

// TestChipDORMatchesXYWithoutExpress pins ChipDOR's hierarchical
// decision against flat XY on an express-free grid: the grid is one
// large mesh, so both must take identical minimal DOR paths.
func TestChipDORMatchesXYWithoutExpress(t *testing.T) {
	tp := chipGrid(false)
	for src := 0; src < tp.NumNodes(); src++ {
		for dst := 0; dst < tp.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			want := XY{}.NextPort(tp, topology.NodeID(src), topology.NodeID(dst))
			got := ChipDOR{}.NextPort(tp, topology.NodeID(src), topology.NodeID(dst))
			if got != want {
				t.Fatalf("%d->%d: ChipDOR %v, XY %v", src, dst, got, want)
			}
		}
	}
}

// TestChipDORExpressReducesHops checks express channels actually
// shorten chip-crossing routes and never lengthen any route.
func TestChipDORExpressReducesHops(t *testing.T) {
	plain, exp := chipGrid(false), chipGrid(true)
	var reduced bool
	for src := 0; src < plain.NumNodes(); src++ {
		for dst := 0; dst < plain.NumNodes(); dst++ {
			if src == dst {
				continue
			}
			hPlain, err := HopCount(plain, ChipDOR{}, topology.NodeID(src), topology.NodeID(dst))
			if err != nil {
				t.Fatal(err)
			}
			hExp, err := HopCount(exp, ChipDOR{}, topology.NodeID(src), topology.NodeID(dst))
			if err != nil {
				t.Fatal(err)
			}
			if hExp > hPlain {
				t.Fatalf("%d->%d: express route longer (%d > %d)", src, dst, hExp, hPlain)
			}
			if hExp < hPlain {
				reduced = true
			}
		}
	}
	if !reduced {
		t.Fatal("express channels never reduced a route")
	}
}

// TestForTopologyChipGrid resolves chip grids to ChipDOR and leaves
// single-chip fabrics on their existing algorithms.
func TestForTopologyChipGrid(t *testing.T) {
	if got := ForTopology(chipGrid(false)).Name(); got != "chipdor" {
		t.Errorf("chip grid resolved to %q, want chipdor", got)
	}
	if got := ForTopology(chipGrid(true)).Name(); got != "chipdor" {
		t.Errorf("express chip grid resolved to %q, want chipdor", got)
	}
	if got := ForTopology(topology.NewMesh2D(4, 4, 1)).Name(); got != "xy" {
		t.Errorf("mesh resolved to %q, want xy", got)
	}
	if got := ForTopology(topology.NewExpressMesh2D(6, 6, 1, 2)).Name(); got != "express" {
		t.Errorf("express mesh resolved to %q, want express", got)
	}
}
