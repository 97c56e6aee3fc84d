package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"

	"mira/internal/noc"
	"mira/internal/stats"
	"mira/internal/topology"
)

// Span-level tracing: the six probe event kinds of one flit's life fold
// into a sequence of per-hop spans, each decomposed into the pipeline
// stages of §3.2 — the wait for route computation, the VA stall, the SA
// stall and the switch(+link) traversal — plus the source-queue wait
// before injection. Because every stage boundary is the difference of
// two consecutive event cycles, the stages of a flit telescope exactly
// to its inject-to-eject latency: the decomposition cannot drift from
// the live collector's per-flit numbers (pinned by TestSpanTotals*).
//
// This is the latency analogue of Orion-style per-component energy
// models: instead of one end-to-end percentile, every cycle of latency
// is attributed to a router, a stage, a traffic class and a datapath
// layer count, which is exactly where 3DM's merged ST+LT stage and the
// §3.2.1 layer shutdown are supposed to pay off against 2DB/3DB.

// Stage indexes one latency component of a flit's journey.
type Stage int

// Latency stages, in the order a flit experiences them at each hop.
// StageQueue occurs once per flit (source NI queueing before inject);
// the remaining four occur once per router visit.
const (
	// StageQueue is creation-to-inject source queueing (NI backlog).
	StageQueue Stage = iota
	// StageRoute is arrival-to-RC-done: buffer wait behind earlier
	// packets plus the route computation itself (zero for body flits
	// and for look-ahead routed heads).
	StageRoute
	// StageVA is the stall between route computation and winning an
	// output virtual channel.
	StageVA
	// StageSA is the stall between VC allocation (or, for body/tail
	// flits, arrival) and winning the crossbar.
	StageSA
	// StageXfer is switch(+link) traversal: SA grant to arrival at the
	// next router or the destination NI. It equals the architecture's
	// ST+LT depth — 1 cycle for the merged 3DM stage, 2 for 2DB/3DB —
	// times the hop count.
	StageXfer
	// NumStages is the number of distinct stages.
	NumStages
)

var stageNames = [NumStages]string{"queue", "route", "va_stall", "sa_stall", "st_lt"}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// HopSpan is one router visit of one flit, expressed as the cycles at
// which the flit crossed each stage boundary. Durations are differences
// of adjacent fields; Depart of hop h equals Arrive of hop h+1 (or the
// eject cycle on the final hop), so a flit's hops tile its network
// latency with no gaps.
type HopSpan struct {
	Router int    `json:"router"`
	Arrive int64  `json:"arrive"` // cycle the flit entered this router's input buffer
	Route  int64  `json:"route"`  // RC done (== Arrive for body/tail flits)
	Alloc  int64  `json:"alloc"`  // output VC won (== Route for body/tail flits)
	Grant  int64  `json:"grant"`  // crossbar won, traversal begins
	Depart int64  `json:"depart"` // arrival downstream, or ejection at the NI
	Dir    string `json:"dir"`    // granted output direction ("local" on the ejection hop)
	VC     int    `json:"vc"`     // granted output VC
}

// Wait returns the duration of stage s at this hop (0 for StageQueue,
// which is a flit-level, not hop-level, component).
func (h HopSpan) Wait(s Stage) int64 {
	switch s {
	case StageRoute:
		return h.Route - h.Arrive
	case StageVA:
		return h.Alloc - h.Route
	case StageSA:
		return h.Grant - h.Alloc
	case StageXfer:
		return h.Depart - h.Grant
	}
	return 0
}

// FlitSpan is the complete stage-resolved trajectory of one flit.
type FlitSpan struct {
	Pkt     int64     `json:"pkt"`
	Seq     int       `json:"seq"`
	Type    string    `json:"type"`
	Class   string    `json:"class"`
	Src     int       `json:"src"`
	Dst     int       `json:"dst"`
	Layers  int       `json:"layers"` // active datapath layers (0 = all)
	Created int64     `json:"created"`
	Inject  int64     `json:"inject"`
	Eject   int64     `json:"eject"`
	Hops    []HopSpan `json:"hops"`
}

// Network is the inject-to-eject latency — identical to the live
// collector's per-flit latency and to the sum of the hop stages.
func (s FlitSpan) Network() int64 { return s.Eject - s.Inject }

// hop is one router visit of an open flit: the probed stage boundaries,
// -1 until their events arrive. Arrive and Depart are derived — a hop
// departs ST+LT after its grant and arrives as the previous one departs.
type hop struct {
	route, alloc, grant int64
	router              int32
	dir                 int8 // topology.Dir of the granted output
	vc                  int8
}

// spanHdr is the fixed-width part of an open flit's span.
type spanHdr struct {
	pkt, created, inject, eject int64
	seq, src, dst               int32
	typ                         noc.FlitType
	class                       noc.Class
	layers                      uint8
}

// openFlit is the slab slot of a flit in flight. The hop slice's
// storage stays with the slot when the flit leaves.
type openFlit struct {
	spanHdr
	injected bool // an inject event has been seen (cycle 0 is a valid inject)
	hops     []hop
}

type flitKey struct {
	pkt int64
	seq int32
}

// spanLog keeps completed spans in eject order as one append-only byte
// log of varints, in chunks of logChunk bytes. A span never straddles two
// chunks — add reserves its worst-case size first — so growing never
// copies. A wormhole packet's body and tail flits take its head's routers,
// output ports and VCs, so heads keeps the path of each packet's last
// logged head until its tail is logged, and a span that repeats the path
// is written compact, as a reference to its head.
type spanLog struct {
	chunks            [][]byte
	spans, hops, size int
	pkt, inject       int64 // the last span's, which the next one's are deltas against
	heads             map[int64]headPath
	spare             [][]hop // the path storage of packets whose tail was logged
}

// headPath is what a compact span takes from its packet's head.
type headPath struct {
	created, stlt int64
	src, dst      int32
	class         noc.Class
	hops          []hop // of which only router, dir and vc are read
}

// logChunk is a chunk's size; maxSpanBytes and maxHopBytes bound what
// add writes for a span's fields and for each of its hops.
const (
	logChunk     = 64 << 10
	maxSpanBytes = 9*binary.MaxVarintLen64 + 2
	maxHopBytes  = 4*binary.MaxVarintLen64 + 2
)

// zigzag is the signed mapping of binary.AppendVarint, so that one
// uvarint loop writes signed and unsigned fields alike.
func zigzag(v int64) uint64 { return uint64(v<<1 ^ v>>63) }

// add appends a span: a tag byte, type<<4|class (0x80|type<<5|layers when
// compact), then uvarints. First zigzag deltas of pkt and inject against
// the last span's and zigzag seq; a full span goes on with zigzag
// created-inject, src and dst, layers, the hop count and the ST+LT depth,
// and per hop its router, its dir and vc bytes and the waits route-arrive
// and alloc-route. Each hop ends with grant-alloc; a compact span's route
// and alloc waits are 0. Eject is the last grant plus ST+LT. finish
// checked the waits are non-negative; differences wrap, so any int64
// round-trips.
func (l *spanLog) add(s *spanHdr, hops []hop) {
	need, n := maxSpanBytes+len(hops)*maxHopBytes, len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < need {
		l.chunks, n = append(l.chunks, make([]byte, 0, max(logChunk, need))), n+1
	}
	c, stlt, arrive := l.chunks[n-1], s.eject-hops[len(hops)-1].grant, s.inject
	head, ok := l.heads[s.pkt]
	compact := ok && head.follows(s, hops, stlt)
	tag, f := byte(s.typ)<<4|byte(s.class), [...]uint64{zigzag(s.pkt - l.pkt), zigzag(s.inject - l.inject),
		zigzag(int64(s.seq)), zigzag(s.created - s.inject), zigzag(int64(s.src)), zigzag(int64(s.dst)),
		uint64(s.layers), uint64(len(hops)), uint64(stlt)}
	nf := len(f)
	if compact {
		tag, nf = 0x80|byte(s.typ)<<5|s.layers, 3
	}
	c = append(c, tag)
	for _, v := range f[:nf] {
		c = binary.AppendUvarint(c, v)
	}
	for i := range hops {
		h := &hops[i]
		if !compact {
			c = append(binary.AppendUvarint(c, uint64(uint32(h.router))), byte(h.dir), byte(h.vc))
			c = binary.AppendUvarint(binary.AppendUvarint(c, uint64(h.route-arrive)), uint64(h.alloc-h.route))
		}
		c, arrive = binary.AppendUvarint(c, uint64(h.grant-h.alloc)), h.grant+stlt
	}
	switch {
	case s.typ == noc.HeadFlit:
		if !ok && len(l.spare) > 0 {
			head.hops, l.spare = l.spare[len(l.spare)-1], l.spare[:len(l.spare)-1]
		}
		l.heads[s.pkt] = headPath{s.created, stlt, s.src, s.dst, s.class, append(head.hops[:0], hops...)}
	case s.typ == noc.TailFlit && ok:
		l.spare = append(l.spare, head.hops)
		delete(l.heads, s.pkt)
	}
	l.size += len(c) - len(l.chunks[n-1])
	l.chunks[n-1], l.pkt, l.inject, l.spans, l.hops = c, s.pkt, s.inject, l.spans+1, l.hops+len(hops)
}

// follows reports whether s can be written compact against its head h:
// same header fields and path, no route or VC wait at any hop (HopSpan),
// and layers that fit the tag.
func (h *headPath) follows(s *spanHdr, hops []hop, stlt int64) bool {
	if h.created != s.created || h.stlt != stlt || h.src != s.src || h.dst != s.dst || h.class != s.class ||
		len(h.hops) != len(hops) || s.layers >= 32 {
		return false
	}
	arrive := s.inject
	for i, p := range hops {
		if q := &h.hops[i]; p.route != arrive || p.alloc != arrive || p.router != q.router || p.dir != q.dir || p.vc != q.vc {
			return false
		}
		arrive = p.grant + stlt
	}
	return true
}

// logReader decodes a chunk of the span log front to back.
type logReader []byte

func (r *logReader) uvarint() uint64 { v, n := binary.Uvarint(*r); *r = (*r)[n:]; return v }

func (r *logReader) varint() int64 { v, n := binary.Varint(*r); *r = (*r)[n:]; return v }

func (r *logReader) next() (v byte) { v, *r = (*r)[0], (*r)[1:]; return v }

// SpanBuilder is the layer's per-flit state machine: one slab slot per
// flit in flight, ejects matched to injects for the latency statistics,
// and — what it is named for — the stage events in between folded into
// spans and an Attribution aggregate. Live events (the Collector) and
// events read back from a trace (Replay, BuildSpans) go through the
// same Feed, so a span built from an unfiltered recorded trace is
// byte-identical to the live one.
//
// Folding requires a complete, unfiltered event stream: a
// node/class-filtered trace truncates flit histories and Feed reports
// the first inconsistency it proves (an event for a flit never
// injected, an eject with no SA grant). Completed spans are kept as a
// varint log (spanLog) and become []FlitSpan only when Spans is called.
type SpanBuilder struct {
	fold   bool    // fold stage events into hops and the attribution
	retain bool    // keep completed spans
	slots  []int32 // the in-flight table: slab index + 1 by key position, 0 when empty
	spill  map[flitKey]int32
	slab   []openFlit
	free   []int32 // vacant slab slots
	lat    latencyAcc
	log    spanLog
	agg    *Attribution
	err    error
}

// NewSpanBuilder returns a builder that aggregates attribution totals.
// When retain is true, completed spans are also kept (required for the
// Perfetto and heatmap exports) in a log of about 3.4 bytes a completed
// hop: memory grows with the run, not with the in-flight window.
func NewSpanBuilder(retain bool) *SpanBuilder { return newSpanBuilder(true, retain) }

func newSpanBuilder(fold, retain bool) *SpanBuilder {
	return &SpanBuilder{fold: fold, retain: retain, slots: make([]int32, 256), spill: make(map[flitKey]int32),
		log: spanLog{heads: make(map[int64]headPath)},
		agg: &Attribution{}, lat: latencyAcc{flitHist: stats.NewHistogram(histBins), pktHist: stats.NewHistogram(histBins)}}
}

// Err returns the first protocol inconsistency encountered, or nil.
// Events after the first error are not folded, so a partial trace fails
// loudly instead of producing a silently wrong decomposition.
func (b *SpanBuilder) Err() error { return b.err }

// Spans materializes the completed spans in flit-completion (eject)
// order, which is deterministic for a fixed scenario across step modes.
// Only populated when the builder retains spans; decoded anew per call.
func (b *SpanBuilder) Spans() []FlitSpan {
	spans := make([]FlitSpan, 0, b.log.spans)
	hops := make([]HopSpan, 0, b.log.hops)
	// spanLog.heads as indexes into spans. A compact span refers to the
	// last head of its pkt, so an entry need not be dropped at the tail.
	heads := make(map[int64]int)
	var pkt, inject int64
	for _, c := range b.log.chunks {
		for r := logReader(c); len(r) > 0; {
			tag, first := r.next(), len(hops)
			pkt, inject = pkt+r.varint(), inject+r.varint()
			var s FlitSpan
			var path []HopSpan
			typ, seq, n, stlt := noc.FlitType(tag>>4), int(r.varint()), 0, int64(0)
			if tag&0x80 != 0 {
				s = spans[heads[pkt]]
				typ, s.Layers, path, n = noc.FlitType(tag>>5&3), int(tag&31), s.Hops, len(s.Hops)
				stlt = s.Eject - path[n-1].Grant
			} else {
				s.Created, s.Src, s.Dst = inject+r.varint(), int(r.varint()), int(r.varint())
				s.Class, s.Layers = noc.Class(tag&15).String(), int(r.uvarint())
				n, stlt = int(r.uvarint()), int64(r.uvarint())
			}
			arrive := inject
			for j := 0; j < n; j++ {
				h := HopSpan{Arrive: arrive, Route: arrive, Alloc: arrive}
				if path != nil {
					h.Router, h.Dir, h.VC = path[j].Router, path[j].Dir, path[j].VC
				} else {
					h.Router, h.Dir, h.VC = int(int32(r.uvarint())), topology.Dir(int8(r.next())).String(), int(int8(r.next()))
					h.Route += int64(r.uvarint())
					h.Alloc = h.Route + int64(r.uvarint())
				}
				h.Grant = h.Alloc + int64(r.uvarint())
				h.Depart, arrive = h.Grant+stlt, h.Grant+stlt
				hops = append(hops, h)
			}
			s.Pkt, s.Seq, s.Type, s.Inject, s.Eject = pkt, seq, flitTypeName(typ), inject, arrive
			if s.Hops = hops[first:len(hops):len(hops)]; typ == noc.HeadFlit {
				heads[pkt] = len(spans)
			}
			spans = append(spans, s)
		}
	}
	return spans
}

// RetainedBytes returns the size of the completed-span log (about 3.4
// bytes a hop with 4-flit packets), allocated logChunk bytes at a time.
func (b *SpanBuilder) RetainedBytes() int64 { return int64(b.log.size) }

// Attribution returns the running latency decomposition aggregate.
func (b *SpanBuilder) Attribution() *Attribution { return b.agg }

// InFlight returns the number of flits with an open, unejected span.
func (b *SpanBuilder) InFlight() int { return len(b.slab) - len(b.free) }

// The in-flight table is direct-mapped on a key's position: the IDs Network.Enqueue
// issues rise, so flits in flight rarely collide. A collision doubles it, up to
// maxSlotsPerFlit slots a flit; a key that still collides (a straggler, a packet
// longer than 1<<seqBits flits, a backlogged fabric) goes to the spill map.
const seqBits, maxSlotsPerFlit = 2, 16 // a data packet has four flits

func (k flitKey) pos() uint64 { return uint64(k.pkt)<<seqBits + uint64(k.seq) }

func (o *openFlit) key() flitKey { return flitKey{o.pkt, o.seq} }

func (b *SpanBuilder) slot(k flitKey) *int32 { return &b.slots[k.pos()&uint64(len(b.slots)-1)] }

func (b *SpanBuilder) find(k flitKey) (int32, bool) {
	if i := *b.slot(k) - 1; i >= 0 && b.slab[i].key() == k {
		return i, true
	}
	i, ok := b.spill[k]
	return i, ok
}

// open files k, which is not in flight, at slab slot i.
func (b *SpanBuilder) open(k flitKey, i int32) {
	b.slab[i].pkt, b.slab[i].seq = k.pkt, k.seq
	s := b.slot(k)
	for ; *s != 0 && len(b.slots) < maxSlotsPerFlit*b.InFlight() && b.slab[*s-1].key().pos() != k.pos(); s = b.slot(k) {
		old := b.slots
		b.slots = make([]int32, 2*len(old))
		for _, j := range old {
			if j != 0 {
				*b.slot(b.slab[j-1].key()) = j // distinct slots before, distinct after
			}
		}
	}
	if *s == 0 {
		*s = i + 1
	} else {
		b.spill[k] = i
	}
}

// vacate takes k, in flight at slab slot i, out of the table.
func (b *SpanBuilder) vacate(k flitKey, i int32) {
	if s := b.slot(k); *s == i+1 {
		*s = 0
	} else {
		delete(b.spill, k)
	}
	b.free = append(b.free, i)
}

func (b *SpanBuilder) fail(e *Event, format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("obs: span flit %d.%d "+format, append([]any{e.Pkt, e.Seq}, args...)...)
	}
}

// Feed advances e's flit and returns the builder's sticky error state
// (nil while the stream stays consistent). An inject opens a slot and
// an eject vacates it; when folding, so does a route event, which
// look-ahead routing may emit one site before the same cycle's inject.
func (b *SpanBuilder) Feed(e *Event) error {
	k := flitKey{e.Pkt, e.Seq}
	i, known := b.find(k)
	if !known {
		if e.Kind != noc.ProbeInject && !(b.fold && e.Kind == noc.ProbeRoute) {
			if b.fold {
				b.fail(e, "%s before inject (trace filtered or truncated?)", e.Kind)
			}
			return b.err
		}
		if n := len(b.free); n > 0 {
			i, b.free = b.free[n-1], b.free[:n-1]
		} else {
			i = int32(len(b.slab))
			b.slab = append(b.slab, openFlit{})
		}
		b.open(k, i)
	}
	o := &b.slab[i]
	if b.fold && b.err == nil {
		b.foldEvent(e, o)
	}
	switch e.Kind {
	case noc.ProbeInject:
		o.injected = true
		o.spanHdr = spanHdr{pkt: e.Pkt, seq: e.Seq, typ: e.Type, class: e.Class, src: e.Src, dst: e.Dst,
			layers: e.Layers, created: e.Created, inject: e.Cycle}
	case noc.ProbeEject:
		if o.injected {
			b.lat.add(e.Cycle-o.inject, e)
		}
		o.injected, o.hops = false, o.hops[:0]
		b.vacate(k, i)
	}
	return b.err
}

// foldEvent applies one stage event to the flit's open hop.
func (b *SpanBuilder) foldEvent(e *Event, o *openFlit) {
	if e.Router < 0 || e.Router >= 1<<16 { // a router numbers an attribution row
		b.fail(e, "at router %d (want 0 to 65535)", e.Router)
		return
	}
	var h *hop
	if n := len(o.hops); n > 0 {
		h = &o.hops[n-1]
	}
	// here: h is this router's visit and has not won the switch yet.
	here := h != nil && h.grant < 0 && h.router == e.Router
	switch e.Kind {
	case noc.ProbeInject:
		if o.injected || len(o.hops) > 1 {
			// A same-cycle look-ahead route may legitimately precede the
			// inject event; anything more means a duplicated inject.
			b.fail(e, "injected twice")
		} else if h == nil {
			o.hops = append(o.hops, hop{router: e.Router, route: -1, alloc: -1, grant: -1})
		}
	case noc.ProbeRoute:
		switch {
		case !here:
			o.hops = append(o.hops, hop{router: e.Router, route: e.Cycle, alloc: -1, grant: -1})
		case h.route >= 0:
			b.fail(e, "routed twice at router %d", e.Router)
		default:
			h.route = e.Cycle
		}
	case noc.ProbeVCAlloc:
		if !here {
			b.fail(e, "VC grant at router %d without a routed hop", e.Router)
			return
		}
		h.alloc = e.Cycle
	case noc.ProbeSAGrant:
		if !here {
			// Body/tail flit: no RC/VA events at this hop.
			o.hops = append(o.hops, hop{router: e.Router, route: -1, alloc: -1})
			h = &o.hops[len(o.hops)-1]
		}
		h.grant, h.dir, h.vc = e.Cycle, int8(e.Dir), e.VC
	case noc.ProbeLink:
		// Only a replayed trace has link events (a live one derives them),
		// each in its SA grant's cycle: no stage boundary, a cross-check.
		if h == nil || h.grant != e.Cycle {
			b.fail(e, "link traversal at cycle %d without a matching switch grant", e.Cycle)
		}
	case noc.ProbeEject:
		b.finish(e, o)
	}
}

// finish resolves the open flit into a completed span: the ST+LT depth
// is the eject delay after the final grant (the NI ejection takes
// exactly the configured traversal cycles), which fixes every hop's
// departure and therefore every arrival.
func (b *SpanBuilder) finish(e *Event, o *openFlit) {
	n := len(o.hops)
	if n == 0 || o.hops[n-1].grant < 0 {
		b.fail(e, "ejected without a switch grant (trace filtered or truncated?)")
		return
	}
	if !o.injected {
		b.fail(e, "ejected without an inject event")
		return
	}
	stlt := e.Cycle - o.hops[n-1].grant
	if stlt < 1 {
		b.fail(e, "ejected %d cycles after its final grant (want >= 1)", stlt)
		return
	}
	arrive := o.inject
	for i := range o.hops {
		h := &o.hops[i]
		if h.grant < 0 {
			b.fail(e, "hop %d at router %d never won the switch", i, h.router)
			return
		}
		if h.route < 0 {
			h.route = arrive // body/tail flit, or look-ahead at arrival
		}
		if h.alloc < 0 {
			h.alloc = h.route
		}
		if h.route < arrive || h.alloc < h.route || h.grant < h.alloc {
			b.fail(e, "hop %d stage cycles not monotonic (%d/%d/%d/%d)", i, arrive, h.route, h.alloc, h.grant)
			return
		}
		arrive = h.grant + stlt
	}
	o.eject = e.Cycle
	b.agg.add(&o.spanHdr, o.hops)
	if b.retain {
		b.log.add(&o.spanHdr, o.hops)
	}
}

// BuildSpans folds a complete recorded trace, streamed from r, into
// the attribution aggregate and — with retain — the spans behind the
// Perfetto and heatmap exports: the entry point of "miratrace spans".
func BuildSpans(r io.Reader, retain bool) (*SpanBuilder, error) {
	b := NewSpanBuilder(retain)
	return b, ScanTrace(r, b.Feed)
}

// StageSums accumulates stage cycle totals over a set of flits (or, for
// the per-router grouping, router visits).
type StageSums struct {
	N      int64 // flits, or visits for the router grouping
	Cycles [NumStages]int64
}

// NetworkCycles is the total in-network latency (all stages but queue).
func (s StageSums) NetworkCycles() int64 {
	var sum int64
	for st := StageRoute; st < NumStages; st++ {
		sum += s.Cycles[st]
	}
	return sum
}

// Attribution is the latency-decomposition aggregate over completed
// spans: stage cycle totals overall and grouped by router, traffic
// class, hop count, and active datapath layers. All sums are integer
// cycles, so equal event streams produce byte-identical tables
// regardless of step mode or accumulation order.
type Attribution struct {
	total StageSums
	by    [len(groupNames)][]StageSums // per grouping, by key; a key with N 0 has no row
}

// sums returns the key's sums, valid until the grouping next grows.
func (a *Attribution) sums(group, key int) *StageSums {
	if n := key + 1 - len(a.by[group]); n > 0 {
		a.by[group] = append(a.by[group], make([]StageSums, n)...)
	}
	return &a.by[group][key]
}

func (a *Attribution) add(s *spanHdr, hops []hop) {
	stlt := s.eject - hops[len(hops)-1].grant
	flit := StageSums{N: 1}
	flit.Cycles[StageQueue] = s.inject - s.created
	arrive := s.inject
	for i := range hops {
		h := &hops[i]
		wait := [NumStages]int64{StageRoute: h.route - arrive, StageVA: h.alloc - h.route,
			StageSA: h.grant - h.alloc, StageXfer: stlt}
		r := a.sums(byRouter, int(h.router))
		r.N++
		for st := StageRoute; st < NumStages; st++ {
			flit.Cycles[st] += wait[st]
			r.Cycles[st] += wait[st]
		}
		arrive = h.grant + stlt
	}
	// Source queueing happens at the injecting router's NI.
	a.sums(byRouter, int(hops[0].router)).Cycles[StageQueue] += flit.Cycles[StageQueue]

	for _, dst := range [...]*StageSums{&a.total, a.sums(byClass, int(s.class)),
		a.sums(byHops, len(hops)), a.sums(byLayers, int(s.layers))} {
		dst.N++
		for st := range flit.Cycles {
			dst.Cycles[st] += flit.Cycles[st]
		}
	}
}

// Total returns the stage sums over every completed flit.
func (a *Attribution) Total() StageSums { return a.total }

// Flits returns the number of completed flits aggregated so far.
func (a *Attribution) Flits() int64 { return a.total.N }

// Groupings, in the order they appear in the combined table.
const (
	GroupRouter = "router"
	GroupClass  = "class"
	GroupHops   = "hops"
	GroupLayers = "layers"
)

// Grouping indexes, in table order.
const (
	byRouter = iota
	byClass
	byHops
	byLayers
)

var groupNames = [...]string{byRouter: GroupRouter, byClass: GroupClass, byHops: GroupHops, byLayers: GroupLayers}

// attribution table header; "n" counts flits, except for the router
// grouping where it counts router visits (hops).
var attribHeader = []string{"key", "n", "queue", "route", "va_stall", "sa_stall", "st_lt", "network", "per_n"}

func attribRow(key string, s *StageSums) []string {
	net := s.NetworkCycles()
	row := []string{key, strconv.FormatInt(s.N, 10)}
	for st := Stage(0); st < NumStages; st++ {
		row = append(row, strconv.FormatInt(s.Cycles[st], 10))
	}
	perN := 0.0
	if s.N > 0 {
		perN = float64(net) / float64(s.N)
	}
	return append(row, strconv.FormatInt(net, 10), strconv.FormatFloat(perN, 'f', 2, 64))
}

// rowsFor renders grouping g's rows in key order (for classes the enum
// order, which is also the order of their names).
func (a *Attribution) rowsFor(g int) [][]string {
	rows := make([][]string, 0, len(a.by[g]))
	for k := range a.by[g] {
		if a.by[g][k].N == 0 {
			continue
		}
		label := strconv.Itoa(k)
		switch {
		case g == byClass:
			label = noc.Class(k).String()
		case g == byLayers && k == 0:
			label = "all"
		}
		rows = append(rows, attribRow(label, &a.by[g][k]))
	}
	return rows
}

// Table renders one grouping's latency decomposition: integer cycle
// totals per stage plus the mean network latency per flit (per visit
// for the router grouping).
func (a *Attribution) Table(group string) (stats.Table, error) {
	g := slices.Index(groupNames[:], group)
	if g < 0 {
		return stats.Table{}, fmt.Errorf("obs: unknown attribution grouping %q (want %s, %s, %s or %s)",
			group, GroupRouter, GroupClass, GroupHops, GroupLayers)
	}
	t := stats.Table{
		Title:  fmt.Sprintf("latency attribution by %s (%d flits)", group, a.total.N),
		Header: append([]string{group}, attribHeader[1:]...),
		Rows:   a.rowsFor(g),
	}
	t.Notes = append(t.Notes, "cycle totals per stage; st_lt is switch(+link) traversal, per_n is mean network cycles")
	return t, nil
}

// CombinedTable stacks every grouping into one machine-readable table
// (a "group" discriminator column followed by the per-group key), the
// format behind "mirasim -attrib". A "total" row leads.
func (a *Attribution) CombinedTable() stats.Table {
	t := stats.Table{
		Title:  fmt.Sprintf("latency attribution (%d flits)", a.total.N),
		Header: append([]string{"group"}, attribHeader...),
	}
	t.Rows = append(t.Rows, append([]string{"total"}, attribRow("", &a.total)...))
	for g, name := range groupNames {
		for _, r := range a.rowsFor(g) {
			t.Rows = append(t.Rows, append([]string{name}, r...))
		}
	}
	t.Notes = append(t.Notes,
		"n counts flits (router group: visits); stage columns are cycle totals, per_n mean network cycles per n")
	return t
}
