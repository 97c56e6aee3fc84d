package topology

import "fmt"

// NewMesh2D builds an xd x yd 2D mesh with bidirectional links of the
// given node pitch (mm). This is the 2DB and 3DM(-NC) fabric; 3DM routers
// differ only in pitch (1.58 mm vs 3.1 mm) because each node's footprint
// shrinks when folded into four layers.
func NewMesh2D(xd, yd int, pitchMM float64) *Topology {
	if xd < 1 || yd < 1 {
		panic(fmt.Sprintf("topology: invalid mesh dimensions %dx%d", xd, yd))
	}
	t := newTopology(fmt.Sprintf("mesh%dx%d", xd, yd), xd, yd, 1)
	for y := 0; y < yd; y++ {
		for x := 0; x < xd; x++ {
			n := t.MustNodeAt(Coord{X: x, Y: y})
			if x+1 < xd {
				e := t.MustNodeAt(Coord{X: x + 1, Y: y})
				t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: East, LengthMM: pitchMM})
			}
			if y+1 < yd {
				s := t.MustNodeAt(Coord{X: x, Y: y + 1})
				t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: South, LengthMM: pitchMM})
			}
		}
	}
	return t
}

// NewMesh3D builds an xd x yd x zd stacked mesh: the 3DB fabric. In-plane
// links have the given horizontal pitch; vertical links are through-
// silicon vias of vertMM length (tens of micrometres per layer).
func NewMesh3D(xd, yd, zd int, pitchMM, vertMM float64) *Topology {
	if xd < 1 || yd < 1 || zd < 1 {
		panic(fmt.Sprintf("topology: invalid mesh dimensions %dx%dx%d", xd, yd, zd))
	}
	t := newTopology(fmt.Sprintf("mesh%dx%dx%d", xd, yd, zd), xd, yd, zd)
	for z := 0; z < zd; z++ {
		for y := 0; y < yd; y++ {
			for x := 0; x < xd; x++ {
				n := t.MustNodeAt(Coord{X: x, Y: y, Z: z})
				if x+1 < xd {
					e := t.MustNodeAt(Coord{X: x + 1, Y: y, Z: z})
					t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: East, LengthMM: pitchMM})
				}
				if y+1 < yd {
					s := t.MustNodeAt(Coord{X: x, Y: y + 1, Z: z})
					t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: South, LengthMM: pitchMM})
				}
				if z+1 < zd {
					u := t.MustNodeAt(Coord{X: x, Y: y, Z: z + 1})
					t.addBiLink(Link{Src: n.ID, Dst: u.ID, SrcPort: Up, LengthMM: vertMM})
				}
			}
		}
	}
	return t
}

// NewExpressMesh2D builds the 3DM-E fabric: a 2D mesh plus multi-hop
// express channels (Dally's express cubes, §3.3 / Figure 7). Every node
// gains an express port per cardinal direction connecting to the node
// `interval` hops away, where one exists, for a maximum radix of 9
// (4 normal + 4 express + local). Express links are interval x pitch long.
func NewExpressMesh2D(xd, yd int, pitchMM float64, interval int) *Topology {
	if interval < 2 {
		panic(fmt.Sprintf("topology: express interval must be >= 2, got %d", interval))
	}
	t := NewMesh2D(xd, yd, pitchMM)
	t.Name = fmt.Sprintf("express%dx%d/%d", xd, yd, interval)
	elen := pitchMM * float64(interval)
	for y := 0; y < yd; y++ {
		for x := 0; x < xd; x++ {
			n := t.MustNodeAt(Coord{X: x, Y: y})
			if x+interval < xd {
				e := t.MustNodeAt(Coord{X: x + interval, Y: y})
				t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: EastExp, LengthMM: elen, Span: interval})
			}
			if y+interval < yd {
				s := t.MustNodeAt(Coord{X: x, Y: y + interval})
				t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: SouthExp, LengthMM: elen, Span: interval})
			}
		}
	}
	return t
}
