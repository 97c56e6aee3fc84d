package topology

import (
	"strings"
	"testing"
)

// TestDirHelpers pins the Dir helper tables exhaustively: Opposite is a
// self-inverse pairing, and the express/vertical predicates partition
// the directions exactly as the router's port logic assumes.
func TestDirHelpers(t *testing.T) {
	opposite := map[Dir]Dir{
		East: West, West: East, North: South, South: North,
		Up: Down, Down: Up,
		EastExp: WestExp, WestExp: EastExp, NorthExp: SouthExp, SouthExp: NorthExp,
	}
	express := map[Dir]bool{EastExp: true, WestExp: true, NorthExp: true, SouthExp: true}
	vertical := map[Dir]bool{Up: true, Down: true}
	for d := Dir(1); d < NumDirs; d++ {
		if got, want := d.Opposite(), opposite[d]; got != want {
			t.Errorf("%v.Opposite() = %v, want %v", d, got, want)
		}
		if got := d.Opposite().Opposite(); got != d {
			t.Errorf("%v.Opposite().Opposite() = %v, want %v", d, got, d)
		}
		if got, want := d.IsExpress(), express[d]; got != want {
			t.Errorf("%v.IsExpress() = %v, want %v", d, got, want)
		}
		if got, want := d.IsVertical(), vertical[d]; got != want {
			t.Errorf("%v.IsVertical() = %v, want %v", d, got, want)
		}
	}
}

// TestChipGridSymmetry is the link-level property test: every edge of a
// chip grid is symmetric (the reverse link exists on the opposite port)
// and consistent (both directions carry the same d2d mark, latency and
// serialization factor), and exactly the links that cross a chip
// boundary are d2d, for parallel, serial and express specs.
func TestChipGridSymmetry(t *testing.T) {
	specs := []ChipGridSpec{
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, PitchMM: 3.1, D2DLatency: 4},
		{ChipsX: 3, ChipsY: 2, NodesX: 3, NodesY: 3, PitchMM: 3.1, D2DLatency: 8, D2DSerCycles: 4},
		{ChipsX: 2, ChipsY: 3, NodesX: 2, NodesY: 4, PitchMM: 1.58, D2DLatency: 2, Express: true},
	}
	for _, spec := range specs {
		tp := NewChipGrid(spec)
		for _, l := range tp.Links() {
			rev, ok := tp.OutLink(l.Dst, l.SrcPort.Opposite())
			if !ok {
				t.Fatalf("%s: link %d-%v->%d has no reverse", tp.Name, l.Src, l.SrcPort, l.Dst)
			}
			if rev.Dst != l.Src {
				t.Fatalf("%s: reverse of %d-%v->%d lands on %d", tp.Name, l.Src, l.SrcPort, l.Dst, rev.Dst)
			}
			if rev.D2D != l.D2D || rev.Latency != l.Latency || rev.SerCycles != l.SerCycles {
				t.Fatalf("%s: link %d-%v->%d d2d/lat/ser %v/%d/%d, reverse %v/%d/%d",
					tp.Name, l.Src, l.SrcPort, l.Dst,
					l.D2D, l.Latency, l.SerCycles, rev.D2D, rev.Latency, rev.SerCycles)
			}
			a, b := tp.Node(l.Src).Coord, tp.Node(l.Dst).Coord
			crossesChip := a.X/spec.NodesX != b.X/spec.NodesX || a.Y/spec.NodesY != b.Y/spec.NodesY
			if l.D2D != crossesChip {
				t.Fatalf("%s: link %d-%v->%d d2d %v but crosses chip = %v",
					tp.Name, l.Src, l.SrcPort, l.Dst, l.D2D, crossesChip)
			}
		}
	}
}

// TestChipGridAddressing tiles an asymmetric grid into one flat mesh
// address space: a node's chip is its coordinate divided by the chip's
// node dimensions.
func TestChipGridAddressing(t *testing.T) {
	tp := NewChipGrid(ChipGridSpec{ChipsX: 3, ChipsY: 2, NodesX: 4, NodesY: 3, PitchMM: 3.1})
	if tp.XDim != 3*4 || tp.YDim != 2*3 || tp.ZDim != 1 || tp.NumNodes() != 3*4*2*3 {
		t.Fatalf("grid %dx%dx%d with %d nodes, want 12x6x1 with 72", tp.XDim, tp.YDim, tp.ZDim, tp.NumNodes())
	}
}

// TestChipGridMaxLinkDelay pins the event-ring horizon input: the worst
// link occupies latency + ser - 1 extra cycles beyond an on-chip wire.
func TestChipGridMaxLinkDelay(t *testing.T) {
	cases := []struct {
		spec ChipGridSpec
		want int
	}{
		{ChipGridSpec{ChipsX: 2, ChipsY: 1, NodesX: 2, NodesY: 2, PitchMM: 1}, 1},
		{ChipGridSpec{ChipsX: 2, ChipsY: 1, NodesX: 2, NodesY: 2, PitchMM: 1, D2DLatency: 7}, 7},
		{ChipGridSpec{ChipsX: 2, ChipsY: 1, NodesX: 2, NodesY: 2, PitchMM: 1, D2DLatency: 7, D2DSerCycles: 4}, 10},
		{ChipGridSpec{ChipsX: 2, ChipsY: 1, NodesX: 2, NodesY: 2, PitchMM: 1, D2DLatency: 9, Express: true}, 9},
	}
	for _, c := range cases {
		if got := NewChipGrid(c.spec).MaxLinkDelay(); got != c.want {
			t.Errorf("spec %+v: MaxLinkDelay = %d, want %d", c.spec, got, c.want)
		}
	}
	// A plain mesh has no multi-cycle links.
	if got := NewMesh2D(4, 4, 1).MaxLinkDelay(); got != 1 {
		t.Errorf("mesh MaxLinkDelay = %d, want 1", got)
	}
}

// TestChipGridSpecValidate rejects out-of-range specs, a grid too large
// to allocate included, without building any.
func TestChipGridSpecValidate(t *testing.T) {
	for _, good := range []ChipGridSpec{
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, PitchMM: 3.1},
		{ChipsX: 8, ChipsY: 8, NodesX: 16, NodesY: 16}, // 16 384 nodes, the bound
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", good, err)
		}
	}
	huge := ChipGridSpec{ChipsX: 1 << 20, ChipsY: 1 << 20, NodesX: 1 << 20, NodesY: 1 << 20} // wraps an int64 product
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "need <= 16384") {
		t.Errorf("2^80-node grid: error %v, want one naming the bound 16384", err)
	}
	bad := []ChipGridSpec{
		{ChipsX: 0, ChipsY: 2, NodesX: 4, NodesY: 4},
		{ChipsX: 2, ChipsY: 2, NodesX: 0, NodesY: 4},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: -1},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 1 << 20},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DSerCycles: -2},
		{ChipsX: 129, ChipsY: 1, NodesX: 128, NodesY: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
}
