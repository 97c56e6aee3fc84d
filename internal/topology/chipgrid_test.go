package topology

import "testing"

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

// TestLinkClassString covers the class labels and the d2d predicate.
func TestLinkClassString(t *testing.T) {
	cases := []struct {
		c    LinkClass
		name string
		d2d  bool
	}{
		{ClassOnChip, "on-chip", false},
		{ClassD2DParallel, "d2d-parallel", true},
		{ClassD2DSerial, "d2d-serial", true},
		// A chip-express channel still crosses a die gap.
		{ClassChipExpress, "chip-express", true},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.name {
			t.Errorf("class %d: name %q, want %q", c.c, got, c.name)
		}
		if got := c.c.IsD2D(); got != c.d2d {
			t.Errorf("class %v: IsD2D %v, want %v", c.c, got, c.d2d)
		}
	}
}

// TestChipGridSymmetry is the link-level property test: every edge of a
// chip grid is symmetric (the reverse link exists on the opposite port)
// and class-consistent (both directions carry the same class, latency
// and serialization factor), for parallel, serial and express specs.
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
			if rev.Class != l.Class || rev.Latency != l.Latency || rev.SerCycles != l.SerCycles {
				t.Fatalf("%s: link %d-%v->%d class/lat/ser %v/%d/%d, reverse %v/%d/%d",
					tp.Name, l.Src, l.SrcPort, l.Dst,
					l.Class, l.Latency, l.SerCycles, rev.Class, rev.Latency, rev.SerCycles)
			}
			crossesChip := func(a, b NodeID) bool {
				ax, ay := tp.ChipOf(a)
				bx, by := tp.ChipOf(b)
				return ax != bx || ay != by
			}(l.Src, l.Dst)
			if l.Class.IsD2D() != crossesChip {
				t.Fatalf("%s: link %d-%v->%d class %v but crosses chip = %v",
					tp.Name, l.Src, l.SrcPort, l.Dst, l.Class, crossesChip)
			}
			if l.SrcPort.IsExpress() && l.Class != ClassChipExpress {
				t.Fatalf("%s: express link %d-%v->%d has class %v", tp.Name, l.Src, l.SrcPort, l.Dst, l.Class)
			}
		}
	}
}

// TestChipGridAddressing places every node of an asymmetric grid on its
// chip.
func TestChipGridAddressing(t *testing.T) {
	tp := NewChipGrid(ChipGridSpec{ChipsX: 3, ChipsY: 2, NodesX: 4, NodesY: 3, PitchMM: 3.1})
	if got := tp.NumChips(); got != 6 {
		t.Fatalf("NumChips = %d, want 6", got)
	}
	if tp.NumNodes() != 3*4*2*3 {
		t.Fatalf("NumNodes = %d, want %d", tp.NumNodes(), 3*4*2*3)
	}
	for _, n := range tp.Nodes() {
		cx, cy := tp.ChipOf(n.ID)
		if cx != n.Coord.X/4 || cy != n.Coord.Y/3 {
			t.Fatalf("node %d at %v: chip (%d,%d)", n.ID, n.Coord, cx, cy)
		}
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

// TestChipGridSpecValidate rejects out-of-range specs.
func TestChipGridSpecValidate(t *testing.T) {
	good := ChipGridSpec{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, PitchMM: 3.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []ChipGridSpec{
		{ChipsX: 0, ChipsY: 2, NodesX: 4, NodesY: 4},
		{ChipsX: 2, ChipsY: 2, NodesX: 0, NodesY: 4},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: -1},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DLatency: 1 << 20},
		{ChipsX: 2, ChipsY: 2, NodesX: 4, NodesY: 4, D2DSerCycles: -2},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated", s)
		}
	}
}
