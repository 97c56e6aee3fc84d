package routing_test

import (
	"testing"

	"mira/internal/core"
	"mira/internal/routing"
	"mira/internal/topology"
)

// move gives the axis a port travels along (0 X, 1 Y, 2 Z) and the
// express port of its direction (Local along Z, which has none).
var move = map[topology.Dir]struct {
	axis int
	exp  topology.Dir
}{
	topology.East: {0, topology.EastExp}, topology.EastExp: {0, topology.EastExp},
	topology.West: {0, topology.WestExp}, topology.WestExp: {0, topology.WestExp},
	topology.South: {1, topology.SouthExp}, topology.SouthExp: {1, topology.SouthExp},
	topology.North: {1, topology.NorthExp}, topology.NorthExp: {1, topology.NorthExp},
	topology.Up: {2, topology.Local}, topology.Down: {2, topology.Local},
}

func axisDist(a, b topology.Coord, axis int) int {
	d := [3]int{a.X - b.X, a.Y - b.Y, a.Z - b.Z}[axis]
	return max(d, -d)
}

// checkRoute walks DOR from src to dst and asserts its properties: the
// route reaches dst covering exactly the Manhattan distance; no move
// along an axis follows a move along a later one (X, then Y, then Z);
// an express port is taken exactly when the distance left along its
// axis covers its span; and a route without express hops, as on every
// fabric without express links, is as long as the Manhattan distance.
func checkRoute(t *testing.T, tp *topology.Topology, src, dst topology.NodeID) {
	t.Helper()
	s, d := tp.Node(src).Coord, tp.Node(dst).Coord
	manhattan := axisDist(s, d, 0) + axisDist(s, d, 1) + axisDist(s, d, 2)
	cur, axis, span, hops, express := src, 0, 0, 0, false
	for ; cur != dst; hops++ {
		if hops > manhattan {
			t.Fatalf("%s %d->%d: no arrival after %d hops", tp.Name, src, dst, hops)
		}
		dir := routing.DOR{}.NextPort(tp, cur, dst)
		m, ok := move[dir]
		l, linked := tp.OutLink(cur, dir)
		if !ok || !linked {
			t.Fatalf("%s %d->%d: port %v at %d", tp.Name, src, dst, dir, cur)
		}
		if m.axis < axis {
			t.Fatalf("%s %d->%d: %v at %d after a move along axis %d", tp.Name, src, dst, dir, cur, axis)
		}
		el, hasExp := tp.OutLink(cur, m.exp)
		if want := hasExp && el.Span <= axisDist(tp.Node(cur).Coord, d, m.axis); dir.IsExpress() != want {
			t.Fatalf("%s %d->%d: %v at %d, express wanted %v", tp.Name, src, dst, dir, cur, want)
		}
		axis, span, express = m.axis, span+l.Span, express || dir.IsExpress()
		cur = l.Dst
	}
	if got := (routing.DOR{}).NextPort(tp, dst, dst); got != topology.Local || span != manhattan {
		t.Fatalf("%s %d->%d: spans %d (Manhattan %d), then %v", tp.Name, src, dst, span, manhattan, got)
	}
	if !express && hops != manhattan {
		t.Fatalf("%s %d->%d: %d hops without an express one, Manhattan %d", tp.Name, src, dst, hops, manhattan)
	}
}

// TestDORProperties checks every route of every shipped architecture's
// fabric, express meshes at intervals 2 to 5, and a sweep of chip grids
// with and without inter-chip express links.
func TestDORProperties(t *testing.T) {
	var fabrics []*topology.Topology
	for _, a := range core.Archs {
		fabrics = append(fabrics, core.MustDesign(a).Topo)
	}
	for iv := 2; iv <= 5; iv++ {
		fabrics = append(fabrics, topology.NewExpressMesh2D(8, 7, 1.58, iv))
	}
	for chips := 0; chips < 9; chips++ {
		for nodes := 0; nodes < 16; nodes++ {
			for _, express := range []bool{false, true} {
				fabrics = append(fabrics, topology.NewChipGrid(topology.ChipGridSpec{
					ChipsX: 1 + chips%3, ChipsY: 1 + chips/3, NodesX: 1 + nodes%4, NodesY: 1 + nodes/4,
					PitchMM: 1, Express: express,
				}))
			}
		}
	}
	for _, tp := range fabrics {
		for src := range tp.NumNodes() {
			for dst := range tp.NumNodes() {
				checkRoute(t, tp, topology.NodeID(src), topology.NodeID(dst))
			}
		}
	}
}

// FuzzDOR checks one route of a generated fabric: a chip grid of 1-4 x
// 1-4 chips of 1-5 x 1-5 nodes, express links on or off, when kind is
// even; an express mesh of interval 2-5 otherwise.
func FuzzDOR(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(2), uint8(2), true, uint16(0), uint16(35))
	f.Add(uint8(0), uint8(3), uint8(2), uint8(0), uint8(4), true, uint16(77), uint16(3))
	f.Add(uint8(2), uint8(2), uint8(0), uint8(3), uint8(1), false, uint16(5), uint16(40))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(5), uint8(5), false, uint16(0), uint16(35))
	f.Add(uint8(7), uint8(3), uint8(9), uint8(10), uint8(2), false, uint16(130), uint16(4))
	f.Fuzz(func(t *testing.T, kind, a, b, c, d uint8, express bool, src, dst uint16) {
		var tp *topology.Topology
		if kind%2 == 0 {
			tp = topology.NewChipGrid(topology.ChipGridSpec{
				ChipsX: 1 + int(a%4), ChipsY: 1 + int(b%4), NodesX: 1 + int(c%5), NodesY: 1 + int(d%5),
				PitchMM: 1, Express: express,
			})
		} else {
			tp = topology.NewExpressMesh2D(1+int(c%12), 1+int(d%12), 1, 2+int(kind/2%4))
		}
		n := tp.NumNodes()
		checkRoute(t, tp, topology.NodeID(int(src)%n), topology.NodeID(int(dst)%n))
	})
}
