package topology

import (
	"testing"
	"testing/quick"
)

func TestDirOpposite(t *testing.T) {
	for d := Dir(1); d < NumDirs; d++ {
		if got := d.Opposite().Opposite(); got != d {
			t.Errorf("Opposite(Opposite(%v)) = %v", d, got)
		}
		if d.Opposite() == d {
			t.Errorf("Opposite(%v) must differ", d)
		}
	}
	if Local.Opposite() != Local {
		t.Errorf("Local opposite should be Local")
	}
}

func TestDirPredicates(t *testing.T) {
	if !EastExp.IsExpress() || !SouthExp.IsExpress() {
		t.Errorf("express dirs misclassified")
	}
	if East.IsExpress() || Local.IsExpress() {
		t.Errorf("non-express dirs misclassified")
	}
	if !Up.IsVertical() || !Down.IsVertical() || North.IsVertical() {
		t.Errorf("vertical predicate wrong")
	}
}

func TestDirString(t *testing.T) {
	if East.String() != "east" || Local.String() != "local" {
		t.Errorf("Dir.String wrong: %v %v", East, Local)
	}
	if Dir(99).String() == "" {
		t.Errorf("out-of-range Dir.String should not be empty")
	}
}

func TestMesh2DStructure(t *testing.T) {
	m := NewMesh2D(6, 6, 3.1)
	if m.NumNodes() != 36 {
		t.Fatalf("nodes = %d, want 36", m.NumNodes())
	}
	// 2*(xd-1)*yd + 2*(yd-1)*xd unidirectional links.
	if got, want := len(m.Links()), 2*5*6+2*5*6; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	// Corner has 3 ports (local+2), edge 4, interior 5.
	if p := m.NumPorts(m.MustNodeAt(Coord{X: 0, Y: 0}).ID); p != 3 {
		t.Errorf("corner ports = %d, want 3", p)
	}
	if p := m.NumPorts(m.MustNodeAt(Coord{X: 3, Y: 0}).ID); p != 4 {
		t.Errorf("edge ports = %d, want 4", p)
	}
	if p := m.NumPorts(m.MustNodeAt(Coord{X: 2, Y: 3}).ID); p != 5 {
		t.Errorf("interior ports = %d, want 5", p)
	}
	if m.MaxPorts() != 5 {
		t.Errorf("MaxPorts = %d, want 5", m.MaxPorts())
	}
	for _, l := range m.Links() {
		if l.LengthMM != 3.1 || l.Span != 1 || l.SrcPort.IsVertical() || l.D2D {
			t.Fatalf("bad link %+v", l)
		}
	}
}

func TestMesh2DLinkSymmetry(t *testing.T) {
	m := NewMesh2D(4, 3, 1)
	for _, l := range m.Links() {
		back, ok := m.OutLink(l.Dst, l.SrcPort.Opposite())
		if !ok {
			t.Fatalf("no reverse link for %+v", l)
		}
		if back.Dst != l.Src {
			t.Fatalf("reverse of %+v goes to %d", l, back.Dst)
		}
	}
}

func TestMesh2DCoordRoundTrip(t *testing.T) {
	m := NewMesh2D(6, 6, 1)
	for _, n := range m.Nodes() {
		got, ok := m.NodeAt(n.Coord)
		if !ok || got.ID != n.ID {
			t.Fatalf("NodeAt(%v) = %v, want id %d", n.Coord, got.ID, n.ID)
		}
	}
}

func TestNodeAtOutOfRange(t *testing.T) {
	m := NewMesh2D(2, 2, 1)
	for _, c := range []Coord{{X: -1}, {X: 2}, {Y: 2}, {Z: 1}} {
		if _, ok := m.NodeAt(c); ok {
			t.Errorf("NodeAt(%v) should not exist", c)
		}
	}
}

func TestMesh3DStructure(t *testing.T) {
	m := NewMesh3D(3, 3, 4, 3.1, 0.02)
	if m.NumNodes() != 36 {
		t.Fatalf("nodes = %d, want 36", m.NumNodes())
	}
	if m.MaxPorts() != 7 {
		t.Errorf("MaxPorts = %d, want 7 (3DB adds up/down)", m.MaxPorts())
	}
	// Centre node of a middle layer has all 7 ports.
	c := m.MustNodeAt(Coord{X: 1, Y: 1, Z: 1})
	if p := m.NumPorts(c.ID); p != 7 {
		t.Errorf("centre ports = %d, want 7", p)
	}
	var vert, horiz int
	for _, l := range m.Links() {
		if l.SrcPort.IsVertical() {
			vert++
			if l.LengthMM != 0.02 {
				t.Fatalf("vertical link length %v", l.LengthMM)
			}
		} else {
			horiz++
			if l.LengthMM != 3.1 {
				t.Fatalf("horizontal link length %v", l.LengthMM)
			}
		}
	}
	if vert != 2*9*3 { // 9 columns x 3 layer gaps x 2 directions
		t.Errorf("vertical links = %d, want 54", vert)
	}
	if horiz != 4*24 { // per layer: 2*(2*3) + 2*(2*3) = 24; x4 layers = 96
		t.Errorf("horizontal links = %d, want 96", horiz)
	}
}

func TestExpressMeshStructure(t *testing.T) {
	m := NewExpressMesh2D(6, 6, 1.58, 2)
	if m.NumNodes() != 36 {
		t.Fatalf("nodes = %d, want 36", m.NumNodes())
	}
	if m.MaxPorts() != 9 {
		t.Errorf("MaxPorts = %d, want 9 (3DM-E radix)", m.MaxPorts())
	}
	// Express link from (0,0) east should reach (2,0) with length 3.16.
	l, ok := m.OutLink(m.MustNodeAt(Coord{}).ID, EastExp)
	if !ok {
		t.Fatalf("no east express link at origin")
	}
	if o := m.MustNodeAt(Coord{}).ID; l.Span != 2 || m.ExpressSpan(o, EastExp) != 2 || m.ExpressSpan(o, WestExp) != 0 {
		t.Errorf("express span = %d, ExpressSpan east %d west %d, want 2, 2, 0",
			l.Span, m.ExpressSpan(o, EastExp), m.ExpressSpan(o, WestExp))
	}
	if got := m.Node(l.Dst).Coord; got != (Coord{X: 2}) {
		t.Errorf("express east from origin lands at %v", got)
	}
	if l.LengthMM < 3.159 || l.LengthMM > 3.161 {
		t.Errorf("express length = %v, want 3.16", l.LengthMM)
	}
	// Normal links still exist.
	if _, ok := m.OutLink(m.MustNodeAt(Coord{}).ID, East); !ok {
		t.Errorf("normal east link missing at origin")
	}
}

func TestExpressMeshInteriorRadix(t *testing.T) {
	m := NewExpressMesh2D(6, 6, 1.58, 2)
	n := m.MustNodeAt(Coord{X: 2, Y: 3})
	ports := m.Ports(n.ID)
	if len(ports) != 9 {
		t.Errorf("interior express node ports = %d (%v), want 9", len(ports), ports)
	}
}

func TestExpressIntervalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("interval 1 should panic")
		}
	}()
	NewExpressMesh2D(6, 6, 1, 1)
}

func TestMeshDimensionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("zero-dimension mesh should panic")
		}
	}()
	NewMesh2D(0, 6, 1)
}

func TestDuplicateLinkPanics(t *testing.T) {
	m := NewMesh2D(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate link should panic")
		}
	}()
	m.addBiLink(Link{Src: 0, Dst: 1, SrcPort: East, LengthMM: 1})
}

func TestNUCALayout2D(t *testing.T) {
	m := NewMesh2D(6, 6, 3.1)
	if err := ApplyNUCALayout2D(m); err != nil {
		t.Fatal(err)
	}
	if got := len(m.CPUs()); got != 8 {
		t.Errorf("CPUs = %d, want 8", got)
	}
	if got := len(m.Caches()); got != 28 {
		t.Errorf("caches = %d, want 28", got)
	}
	// CPUs are in the middle rows (y = 2 or 3).
	for _, id := range m.CPUs() {
		c := m.Node(id).Coord
		if c.Y != 2 && c.Y != 3 {
			t.Errorf("CPU at %v not in middle rows", c)
		}
	}
}

func TestNUCALayout2DWrongShape(t *testing.T) {
	m := NewMesh2D(4, 4, 1)
	if err := ApplyNUCALayout2D(m); err == nil {
		t.Errorf("4x4 should be rejected")
	}
}

func TestNUCALayout3D(t *testing.T) {
	m := NewMesh3D(3, 3, 4, 3.1, 0.02)
	if err := ApplyNUCALayout3D(m); err != nil {
		t.Fatal(err)
	}
	if got := len(m.CPUs()); got != 8 {
		t.Errorf("CPUs = %d, want 8", got)
	}
	if got := len(m.Caches()); got != 28 {
		t.Errorf("caches = %d, want 28", got)
	}
	// All CPUs in top layer.
	for _, id := range m.CPUs() {
		if m.Node(id).Coord.Z != 3 {
			t.Errorf("CPU at %v not in top layer", m.Node(id).Coord)
		}
	}
}

func TestNUCALayout3DWrongShape(t *testing.T) {
	m := NewMesh3D(2, 2, 4, 1, 0.02)
	if err := ApplyNUCALayout3D(m); err == nil {
		t.Errorf("2x2x4 should be rejected")
	}
}

func TestLayoutString(t *testing.T) {
	m := NewMesh2D(6, 6, 3.1)
	if err := ApplyNUCALayout2D(m); err != nil {
		t.Fatal(err)
	}
	s := LayoutString(m)
	var cpus int
	for _, r := range s {
		if r == 'P' {
			cpus++
		}
	}
	if cpus != 8 {
		t.Errorf("layout string has %d CPUs:\n%s", cpus, s)
	}
}

// Property: every link's destination port direction is the opposite of
// its source port direction when traced back.
func TestLinkOppositeProperty(t *testing.T) {
	f := func(xd, yd uint8) bool {
		x := int(xd%5) + 2
		y := int(yd%5) + 2
		m := NewExpressMesh2D(x+2, y+2, 1, 2)
		for _, l := range m.Links() {
			back, ok := m.OutLink(l.Dst, l.SrcPort.Opposite())
			if !ok || back.Dst != l.Src || back.LengthMM != l.LengthMM {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
