// Package noc is a cycle-accurate network-on-chip simulator: wormhole
// flow control, virtual channels with credit-based backpressure, and a
// canonical RC/VA/SA/ST(+LT) router pipeline (Figure 8 of the MIRA
// paper). The engine is architecture-agnostic; the 2DB/3DB/3DM/3DM-E
// configurations of the paper are expressed purely through the Config
// (topology, routing, pipeline depth, layer count).
package noc

import (
	"fmt"

	"mira/internal/topology"
)

// Class is the message class of a packet. The MIRA NUCA traffic is
// bimodal (§1, Figure 2): short address/coherence control packets and
// cache-line data packets. Classes also separate request/response
// traffic onto distinct virtual channels ("one VC per control and data
// traffic", §3.2.4), which avoids protocol deadlock.
type Class uint8

// Message classes.
const (
	Control Class = iota // single-flit address/coherence packets
	Data                 // multi-flit cache-line packets
	NumClasses
)

func (c Class) String() string {
	if c == Control {
		return "control"
	}
	return "data"
}

// FlitType tags a flit's position within its packet.
type FlitType uint8

// Flit types. A single-flit packet is tagged HeadTail.
const (
	HeadFlit FlitType = iota
	BodyFlit
	TailFlit
	HeadTailFlit
)

// IsHead reports whether the flit opens a packet (carries the header).
func (t FlitType) IsHead() bool { return t == HeadFlit || t == HeadTailFlit }

// IsTail reports whether the flit closes a packet (releases channels).
func (t FlitType) IsTail() bool { return t == TailFlit || t == HeadTailFlit }

// Packet is one network message.
type Packet struct {
	ID    int64
	Src   topology.NodeID
	Dst   topology.NodeID
	Size  int // flits
	Class Class

	// CreatedAt is the cycle the packet entered its source queue;
	// InjectedAt the cycle its head flit entered the router; EjectedAt
	// the cycle its tail flit left the network. Latency is measured
	// from creation, so source queueing counts (as in the paper's
	// latency/injection-rate curves).
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64

	// Hops counts router traversals of the head flit; an express hop
	// counts once.
	Hops int

	// Measured marks packets created inside the measurement window.
	Measured bool
}

// Flit is the flow-control unit.
type Flit struct {
	Pkt *Packet
	// Seq is the flit's position within its packet. int32 rather than
	// int: flits are copied along every hop (buffer slots), and the
	// packed layout keeps the struct at 16 bytes — half the memory
	// traffic of the naive one.
	Seq  int32
	Type FlitType
	// ActiveLayers is how many of the router's datapath layers this
	// flit actually needs (§3.2.1): 1 for a short flit whose lower
	// words are redundant, up to Config.Layers for a full flit. The
	// zero value means "all layers".
	ActiveLayers uint8
}

// Spec describes a packet for injection; traffic generators produce
// these.
type Spec struct {
	Src, Dst topology.NodeID
	Size     int
	Class    Class
	// LayersPerFlit optionally gives per-flit active-layer counts
	// (len == Size). Nil means every flit uses all layers.
	LayersPerFlit []uint8
}

// Validate reports whether the spec is well-formed for a network with n
// nodes.
func (s Spec) Validate(n int) error {
	if s.Src < 0 || int(s.Src) >= n {
		return fmt.Errorf("noc: spec src %d out of range [0,%d)", s.Src, n)
	}
	if s.Dst < 0 || int(s.Dst) >= n {
		return fmt.Errorf("noc: spec dst %d out of range [0,%d)", s.Dst, n)
	}
	if s.Src == s.Dst {
		return fmt.Errorf("noc: spec src == dst (%d)", s.Src)
	}
	if s.Size < 1 {
		return fmt.Errorf("noc: spec size %d < 1", s.Size)
	}
	if s.LayersPerFlit != nil && len(s.LayersPerFlit) != s.Size {
		return fmt.Errorf("noc: spec has %d layer entries for %d flits", len(s.LayersPerFlit), s.Size)
	}
	return nil
}
