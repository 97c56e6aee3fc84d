// Package topology models the interconnect graphs evaluated in the MIRA
// paper: the 6x6 2D mesh (2DB, 3DM), the 3x3x4 stacked mesh (3DB), and
// the 6x6 express mesh with multi-hop links (3DM-E), together with the
// NUCA CPU/cache node layouts of Figure 10.
package topology

import "fmt"

// NodeID identifies a router/node pair in a topology.
type NodeID int

// Coord is a node position. Z is 0 for planar topologies.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Dir names a router port. Local is the NI (network interface) port;
// the *Exp directions are the multi-hop express ports of 3DM-E.
type Dir int

// Port directions.
const (
	Local Dir = iota
	East
	West
	North
	South
	Up
	Down
	EastExp
	WestExp
	NorthExp
	SouthExp
	NumDirs // sentinel
)

var dirNames = [...]string{
	"local", "east", "west", "north", "south", "up", "down",
	"east-exp", "west-exp", "north-exp", "south-exp",
}

func (d Dir) String() string {
	if d < 0 || int(d) >= len(dirNames) {
		return fmt.Sprintf("dir(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the port on the receiving router for a link that
// leaves through d: a flit sent east arrives on the west port.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	case Up:
		return Down
	case Down:
		return Up
	case EastExp:
		return WestExp
	case WestExp:
		return EastExp
	case NorthExp:
		return SouthExp
	case SouthExp:
		return NorthExp
	}
	return Local
}

// IsExpress reports whether d is a multi-hop express port.
func (d Dir) IsExpress() bool {
	return d >= EastExp && d <= SouthExp
}

// IsVertical reports whether d crosses silicon layers (3DB only).
func (d Dir) IsVertical() bool { return d == Up || d == Down }

// NodeType distinguishes processor from cache nodes in the NUCA layouts.
type NodeType int

// Node types.
const (
	Cache NodeType = iota
	CPU
)

func (t NodeType) String() string {
	if t == CPU {
		return "cpu"
	}
	return "cache"
}

// Node is one network endpoint with its attached router.
type Node struct {
	ID    NodeID
	Coord Coord
	Type  NodeType
}

// Link is a unidirectional channel between two routers.
type Link struct {
	Src, Dst NodeID
	// SrcPort is the output direction on the source router; the flit
	// arrives on SrcPort.Opposite() at the destination.
	SrcPort  Dir
	LengthMM float64
	// Span is the Manhattan distance covered (1 for normal links, the
	// express interval for express links).
	Span int
	// D2D marks an off-chip die-to-die channel of a chip grid
	// (NewChipGrid), express or not; the simulator counts the flits
	// crossing one.
	D2D bool
	// Latency is the traversal time in cycles from the source router's
	// link stage to the destination buffer write (1 for on-chip wires).
	Latency int32
	// SerCycles is the number of cycles a flit occupies the link while
	// being serialized over it: ceil(flit bytes / link width bytes).
	// 1 for full-width links; > 1 only on narrow d2d channels.
	SerCycles int32
}

// Topology is an immutable directed graph of routers.
type Topology struct {
	Name             string
	XDim, YDim, ZDim int
	nodes            []Node
	links            []Link
	out              [][]int // out[node][dir] = link index+1, 0 if none
	// expSpan[node][d-EastExp] is the span of the express link leaving
	// node through d, 0 if none: the one lookup DOR's express test reads.
	expSpan [][4]int
}

func newTopology(name string, xd, yd, zd int) *Topology {
	n := xd * yd * zd
	t := &Topology{Name: name, XDim: xd, YDim: yd, ZDim: zd}
	t.nodes = make([]Node, n)
	t.out = make([][]int, n)
	t.expSpan = make([][4]int, n)
	for i := range t.nodes {
		t.nodes[i] = Node{ID: NodeID(i), Coord: t.coordOf(NodeID(i))}
		t.out[i] = make([]int, NumDirs)
	}
	return t
}

func (t *Topology) coordOf(id NodeID) Coord {
	perLayer := t.XDim * t.YDim
	z := int(id) / perLayer
	rem := int(id) % perLayer
	return Coord{X: rem % t.XDim, Y: rem / t.XDim, Z: z}
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Nodes returns all nodes. The slice must not be modified.
func (t *Topology) Nodes() []Node { return t.nodes }

// Node returns the node with the given id.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// NodeAt returns the node at coordinate c and whether it exists.
func (t *Topology) NodeAt(c Coord) (Node, bool) {
	if c.X < 0 || c.X >= t.XDim || c.Y < 0 || c.Y >= t.YDim || c.Z < 0 || c.Z >= t.ZDim {
		return Node{}, false
	}
	id := NodeID(c.Z*t.XDim*t.YDim + c.Y*t.XDim + c.X)
	return t.nodes[id], true
}

// MustNodeAt returns the node at c, panicking when out of range. It is
// intended for construction-time code with statically valid coordinates.
func (t *Topology) MustNodeAt(c Coord) Node {
	n, ok := t.NodeAt(c)
	if !ok {
		panic(fmt.Sprintf("topology %s: no node at %v", t.Name, c))
	}
	return n
}

// SetType assigns a node type (used by the NUCA layouts).
func (t *Topology) SetType(id NodeID, typ NodeType) { t.nodes[id].Type = typ }

// Links returns all unidirectional links. The slice must not be modified.
func (t *Topology) Links() []Link { return t.links }

// OutLink returns the link leaving node id through port d, if any.
func (t *Topology) OutLink(id NodeID, d Dir) (Link, bool) {
	li := t.out[id][d]
	if li == 0 {
		return Link{}, false
	}
	return t.links[li-1], true
}

// ExpressSpan returns the span of the express link leaving node id
// through the express port d, or 0 when id has no link there.
func (t *Topology) ExpressSpan(id NodeID, d Dir) int { return t.expSpan[id][d-EastExp] }

// Ports returns the output directions with links at node id, always
// including Local first.
func (t *Topology) Ports(id NodeID) []Dir {
	ports := []Dir{Local}
	for d := Dir(1); d < NumDirs; d++ {
		if t.out[id][d] != 0 {
			ports = append(ports, d)
		}
	}
	return ports
}

// NumPorts returns the number of physical ports (incl. Local) at node id.
func (t *Topology) NumPorts(id NodeID) int { return len(t.Ports(id)) }

// MaxPorts returns the largest router radix in the topology; this is the
// "P" used for area and power models (5 for meshes, 7 for 3DB, 9 for
// 3DM-E).
func (t *Topology) MaxPorts() int {
	max := 0
	for _, n := range t.nodes {
		if p := t.NumPorts(n.ID); p > max {
			max = p
		}
	}
	return max
}

// addBiLink installs l and its reverse twin, so every edge, die-to-die
// ones included, is symmetric by construction (the chip-grid property
// test pins this).
func (t *Topology) addBiLink(l Link) {
	t.addLink(l)
	l.Src, l.Dst, l.SrcPort = l.Dst, l.Src, l.SrcPort.Opposite()
	t.addLink(l)
}

func (t *Topology) addLink(l Link) {
	if t.out[l.Src][l.SrcPort] != 0 {
		panic(fmt.Sprintf("topology %s: duplicate link at node %d port %v", t.Name, l.Src, l.SrcPort))
	}
	// Normalize zero values to the one-hop on-chip defaults, so
	// consumers never special-case them.
	if l.Span == 0 {
		l.Span = 1
	}
	if l.Latency == 0 {
		l.Latency = 1
	}
	if l.SerCycles == 0 {
		l.SerCycles = 1
	}
	if l.Latency < 1 || l.SerCycles < 1 {
		panic(fmt.Sprintf("topology %s: link at node %d port %v has latency %d ser %d (need >= 1)",
			t.Name, l.Src, l.SrcPort, l.Latency, l.SerCycles))
	}
	t.links = append(t.links, l)
	t.out[l.Src][l.SrcPort] = len(t.links)
	if l.SrcPort.IsExpress() {
		t.expSpan[l.Src][l.SrcPort-EastExp] = l.Span
	}
}

// MaxLinkDelay returns the largest latency + SerCycles - 1 over all
// links (the longest time a flit can spend between leaving a router and
// landing downstream), or 1 for a linkless topology. The simulator sizes
// its event-ring horizon from it.
func (t *Topology) MaxLinkDelay() int {
	max := 1
	for _, l := range t.links {
		if d := int(l.Latency) + int(l.SerCycles) - 1; d > max {
			max = d
		}
	}
	return max
}

// CPUs returns the IDs of all CPU nodes.
func (t *Topology) CPUs() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Type == CPU {
			out = append(out, n.ID)
		}
	}
	return out
}

// Caches returns the IDs of all cache nodes.
func (t *Topology) Caches() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.Type == Cache {
			out = append(out, n.ID)
		}
	}
	return out
}
