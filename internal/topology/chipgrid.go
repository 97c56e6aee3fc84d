package topology

import "fmt"

// ChipGridSpec describes a grid of identical mesh chips joined by
// die-to-die channels. The grid tiles ChipsX x ChipsY chips, each an
// on-chip NodesX x NodesY 2D mesh; every facing boundary-node pair of
// adjacent chips is joined by a bidirectional d2d channel, so the global
// node graph stays a full (ChipsX*NodesX) x (ChipsY*NodesY) mesh and
// dimension-ordered routing remains valid — only the d2d edges' marks
// and timings differ.
type ChipGridSpec struct {
	// ChipsX, ChipsY are the chip-grid dimensions (>= 1 each, > 1 in
	// at least one for a true multi-chip system).
	ChipsX, ChipsY int
	// NodesX, NodesY are the node dimensions of one chip (>= 1 each).
	NodesX, NodesY int
	// PitchMM is the on-chip node pitch; the d2d gap is modeled as one
	// extra pitch of wire unless D2DLengthMM overrides it.
	PitchMM float64
	// D2DLengthMM is the physical die-to-die channel length; 0 means
	// 2*PitchMM (boundary node to boundary node across the gap).
	D2DLengthMM float64
	// D2DLatency is the die-to-die traversal latency in cycles
	// (0 = 1 cycle, indistinguishable from an on-chip wire).
	D2DLatency int
	// D2DSerCycles is the serialization factor of the d2d channels:
	// the cycles a flit occupies the link, ceil(flit bytes / link
	// width bytes). 0 or 1 means a full-width parallel channel; > 1
	// means a narrow serial one.
	D2DSerCycles int
	// Express adds inter-chip express channels: every boundary node on
	// a chip's east (south) edge links to the matching boundary node
	// one whole chip ahead, skipping the interior — MIRA's 3DM-E
	// express cubes at chip scale. Express links are full width and
	// take D2DLatency (one die gap plus a chip of dedicated wire).
	Express bool
}

// maxD2DLatency bounds the configurable link delays so the simulator's
// event-ring horizon (sized from MaxLinkDelay) stays modest.
const maxD2DLatency = 1024

// maxChipGridNodes bounds a chip grid's node count far above the 16x16
// fabrics the experiments build: every node is a router whose state is
// allocated up front, so an unbounded grid is an out-of-memory crash
// instead of an error.
const maxChipGridNodes = 1 << 14

// Validate bounds-checks the spec; NewChipGrid panics on a spec that
// fails it, so callers elaborating external input validate first.
func (s ChipGridSpec) Validate() error {
	if s.ChipsX < 1 || s.ChipsY < 1 {
		return fmt.Errorf("topology: chip grid %dx%d chips, need >= 1 each", s.ChipsX, s.ChipsY)
	}
	if s.NodesX < 1 || s.NodesY < 1 {
		return fmt.Errorf("topology: chip grid nodes %dx%d, need >= 1 each", s.NodesX, s.NodesY)
	}
	// In float64, where the product of four ints cannot wrap.
	if n := float64(s.ChipsX) * float64(s.ChipsY) * float64(s.NodesX) * float64(s.NodesY); n > maxChipGridNodes {
		return fmt.Errorf("topology: chip grid of %.0f nodes, need <= %d", n, maxChipGridNodes)
	}
	if s.D2DLatency < 0 || s.D2DLatency > maxD2DLatency {
		return fmt.Errorf("topology: d2d latency %d, need 0..%d", s.D2DLatency, maxD2DLatency)
	}
	if s.D2DSerCycles < 0 || s.D2DSerCycles > maxD2DLatency {
		return fmt.Errorf("topology: d2d serialization %d, need 0..%d", s.D2DSerCycles, maxD2DLatency)
	}
	return nil
}

// NewChipGrid builds a multi-chip topology from spec. It panics on an
// invalid spec; use ChipGridSpec fields within the documented ranges.
func NewChipGrid(spec ChipGridSpec) *Topology {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	// addLink turns a zero latency or serialization into 1.
	lat, ser := int32(spec.D2DLatency), int32(spec.D2DSerCycles)
	d2dLen := spec.D2DLengthMM
	if d2dLen == 0 {
		d2dLen = 2 * spec.PitchMM
	}
	xd, yd := spec.ChipsX*spec.NodesX, spec.ChipsY*spec.NodesY
	t := newTopology(fmt.Sprintf("chipgrid%dx%d/%dx%d", spec.ChipsX, spec.ChipsY, spec.NodesX, spec.NodesY), xd, yd, 1)
	for y := 0; y < yd; y++ {
		for x := 0; x < xd; x++ {
			n := t.MustNodeAt(Coord{X: x, Y: y})
			if x+1 < xd {
				e := t.MustNodeAt(Coord{X: x + 1, Y: y})
				if (x+1)%spec.NodesX == 0 {
					// The eastward edge crosses a die boundary.
					t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: East, LengthMM: d2dLen, D2D: true, Latency: lat, SerCycles: ser})
				} else {
					t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: East, LengthMM: spec.PitchMM})
				}
			}
			if y+1 < yd {
				s := t.MustNodeAt(Coord{X: x, Y: y + 1})
				if (y+1)%spec.NodesY == 0 {
					t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: South, LengthMM: d2dLen, D2D: true, Latency: lat, SerCycles: ser})
				} else {
					t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: South, LengthMM: spec.PitchMM})
				}
			}
		}
	}
	if spec.Express {
		// An express hop runs from a chip's trailing boundary node to
		// the next chip's trailing boundary node in the same row or
		// column, spanning one whole chip of interior nodes plus one
		// die gap.
		elenX := d2dLen + float64(spec.NodesX-1)*spec.PitchMM
		elenY := d2dLen + float64(spec.NodesY-1)*spec.PitchMM
		for y := 0; y < yd; y++ {
			for x := spec.NodesX - 1; x+spec.NodesX < xd; x += spec.NodesX {
				n := t.MustNodeAt(Coord{X: x, Y: y})
				e := t.MustNodeAt(Coord{X: x + spec.NodesX, Y: y})
				t.addBiLink(Link{Src: n.ID, Dst: e.ID, SrcPort: EastExp, LengthMM: elenX, Span: spec.NodesX, D2D: true, Latency: lat})
			}
		}
		for x := 0; x < xd; x++ {
			for y := spec.NodesY - 1; y+spec.NodesY < yd; y += spec.NodesY {
				n := t.MustNodeAt(Coord{X: x, Y: y})
				s := t.MustNodeAt(Coord{X: x, Y: y + spec.NodesY})
				t.addBiLink(Link{Src: n.ID, Dst: s.ID, SrcPort: SouthExp, LengthMM: elenY, Span: spec.NodesY, D2D: true, Latency: lat})
			}
		}
	}
	return t
}
