package noc

import "mira/internal/topology"

// ProbeKind tags one observable event in a flit's life. The six kinds
// cover the full path of §3.2's router pipeline: creation at the source
// NI, the RC/VA/SA stages, the link traversal, and the ejection at the
// destination NI. The network emits five; internal/obs derives ProbeLink.
type ProbeKind uint8

// Probe event kinds, in the order a flit experiences them.
const (
	// ProbeInject fires when a flit leaves its source NI and is written
	// into the local input buffer of its source router.
	ProbeInject ProbeKind = iota
	// ProbeRoute fires when a head flit's output port is computed (the
	// RC stage, or the upstream look-ahead computation).
	ProbeRoute
	// ProbeVCAlloc fires when a head flit wins an output virtual
	// channel (the VA stage).
	ProbeVCAlloc
	// ProbeSAGrant fires when a flit wins the crossbar (the SA stage,
	// including speculative grants) and starts switch traversal.
	ProbeSAGrant
	// ProbeLink is a flit sent over an inter-router link. The network
	// never emits it: it is the ProbeSAGrant whose Dir is not Local.
	ProbeLink
	// ProbeEject fires when a flit leaves the network at its
	// destination NI.
	ProbeEject
	// NumProbeKinds is the number of distinct event kinds.
	NumProbeKinds
)

func (k ProbeKind) String() string {
	switch k {
	case ProbeInject:
		return "inject"
	case ProbeRoute:
		return "route"
	case ProbeVCAlloc:
		return "vcalloc"
	case ProbeSAGrant:
		return "sagrant"
	case ProbeLink:
		return "link"
	case ProbeEject:
		return "eject"
	}
	return "unknown"
}

// ParseProbeKind converts a serialized kind name back to its value.
func ParseProbeKind(s string) (ProbeKind, bool) {
	for k := ProbeKind(0); k < NumProbeKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ProbeEvent is one pipeline event: a fixed-width, packet-free record the
// emitting shard fills from the flit, so a probe may keep it. Router is
// where the event happened; Dir and VC are the output port and virtual
// channel for route/VC-alloc/SA events, an SA Dir also the link crossed
// (Dir is Local and VC the injection VC for inject events; both are zero
// for eject events). Created, the packet's creation cycle, is set on
// inject and eject events, and Layers, the flit's active datapath layer
// count (0 = all, §3.2.1), on inject events only.
type ProbeEvent struct {
	Cycle, Pkt, Created   int64
	Router, Src, Dst, Seq int32
	Dir                   topology.Dir
	Kind                  ProbeKind
	Type                  FlitType
	Class                 Class
	VC                    int8
	Layers                uint8
}

// Probe observes router-pipeline events. A probe is attached to a
// Network with SetProbe; a nil probe costs a single pointer check per
// emission site, which keeps the simulator's hot path unaffected when
// nothing is observing (see BenchmarkStepUR vs BenchmarkStepURNilProbe).
//
// Events are emitted in a deterministic order: for a fixed scenario the
// stream is bit-reproducible, and identical under StepChecked (the same
// cycle plus a check) and at any shard count (SetProbe below). Within a
// cycle the stages emit in order — ejections, injection, SA, VA, RC —
// each over routers in ascending ID, so a cycle's ejections come first
// and its routes last, look-ahead ones included (the RC stage of the
// cycle a head lands in computes them); the RC stage emits a router's
// route events in ascending flat input-VC index (port-major). Only the
// per-flit contract below is part of the model: the order of one
// cycle's events across flits is the order the engine visits them in.
//
// Per flit, the stream satisfies a span-folding contract (relied on by
// internal/obs's Replay and SpanBuilder): inject is the flit's first
// event — even under look-ahead routing, where the route event fires in
// the same cycle — eject is its last, cycles never decrease in between,
// and each router visit emits its stage events in pipeline order
// (route, VC alloc, switch grant, which on a network port is the link
// traversal). Body and tail flits inherit the head's route and VC, so
// their visits carry switch-grant events only.
//
// Implementations must not mutate the network from inside a callback.
type Probe interface {
	ProbeEvent(ev ProbeEvent)
}

// SetProbe attaches p to the network (nil detaches); call it between
// steps. The probe observes every subsequent pipeline event; attach
// before the first Step for a complete trace.
//
// The emission sites buffer their events per shard, and the serial
// epilogue of Step replays the buffers into p stage by stage, shards in
// ascending order within each stage (shard.go), so the stream p sees is
// byte-identical at any shard count.
func (n *Network) SetProbe(p Probe) { n.probe = p }

// Instrumentation accessors: read-only views of live router state for
// the cycle sampler (internal/obs). All are O(buffer slots) or cheaper
// and never mutate the router.

// ID returns the router's node ID.
func (r *Router) ID() topology.NodeID { return r.id }

// Occupancy returns the flits currently buffered (landed) across all
// of the router's input VCs.
func (r *Router) Occupancy() int {
	n := 0
	for f := range r.vcLen {
		n += r.vcLanded(f, r.net.cycle)
	}
	return n
}

// Counters returns the router's activity counters, a buffer write
// counted once its flit lands and a read as the flit crosses the crossbar.
func (r *Router) Counters() Counters {
	writes, layers := r.onWire()
	c := r.cnt
	c.BufReads, c.WBufReads = c.XbarFlits, c.WXbarFlits
	c.BufWrites -= writes
	c.WBufWrites = float64(r.bufLayers-layers) / float64(r.net.cfg.Layers)
	return c
}

// NumInVCs returns the number of input VCs (ports × VCs per port).
func (r *Router) NumInVCs() int { return len(r.inPorts) * r.vcsPerPort }

// VCOccupancy returns the landed flits in input VC vi of port pi.
func (r *Router) VCOccupancy(pi, vi int) int { return r.vcLanded(r.flatVC(pi, vi), r.net.cycle) }
