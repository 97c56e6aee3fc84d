package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
)

// mapBacked is the reference for the in-flight table: a builder whose
// table is one the size of no run, every slot taken by a sentinel flit
// no event names, so that every key lands in the spill map and the
// table never grows. The sentinel holds slab slot 0, so the reference's
// InFlight reads one more than the builder under test.
func mapBacked(fold, retain bool) *SpanBuilder {
	b := newSpanBuilder(fold, retain)
	b.slab = []openFlit{{spanHdr: spanHdr{pkt: math.MinInt64, seq: math.MinInt32}}}
	b.slots = make([]int32, 1<<20)
	for i := range b.slots {
		b.slots[i] = 1
	}
	return b
}

// packet is one packet of a synthetic stream: flits enter at router
// src one a cycle from inject, the head routed and allocated a VC in its
// inject cycle unless bare, and win the switch one a cycle from grant.
type packet struct {
	id            int64
	flits         int
	inject, grant int64
	bare          bool // no route, VC and link events: a third of the trace to replay
}

// streamOf lays the packets' events out in cycle order.
func streamOf(pkts []packet) []noc.ProbeEvent {
	var events []noc.ProbeEvent
	for _, p := range pkts {
		src, dst := int32(p.id%16), int32((p.id+5)%16)
		class := noc.Data
		if p.flits == 1 {
			class = noc.Control
		}
		for s := 0; s < p.flits; s++ {
			typ := noc.BodyFlit
			switch {
			case p.flits == 1:
				typ = noc.HeadTailFlit
			case s == 0:
				typ = noc.HeadFlit
			case s == p.flits-1:
				typ = noc.TailFlit
			}
			ev := func(kind noc.ProbeKind, cycle int64, router int32) noc.ProbeEvent {
				return noc.ProbeEvent{Cycle: cycle, Pkt: p.id, Seq: int32(s), Kind: kind, Type: typ, Class: class,
					Router: router, Src: src, Dst: dst, Dir: topology.Dir(p.id % 5), Created: p.inject}
			}
			in, grant := p.inject+int64(s), p.grant+int64(s)
			events = append(events, ev(noc.ProbeInject, in, src))
			if s == 0 && !p.bare {
				events = append(events, ev(noc.ProbeRoute, in, src), ev(noc.ProbeVCAlloc, in, src))
			}
			events = append(events, ev(noc.ProbeSAGrant, grant, src))
			if !p.bare {
				events = append(events, ev(noc.ProbeLink, grant, src))
			}
			events = append(events, ev(noc.ProbeEject, grant+2, dst))
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events
}

// eventReader streams events as a JSONL trace one line at a time.
type eventReader struct {
	events []noc.ProbeEvent
	line   []byte
}

func (r *eventReader) Read(p []byte) (int, error) {
	for len(r.line) == 0 {
		if len(r.events) == 0 {
			return 0, io.EOF
		}
		r.line, r.events = appendEvent(nil, &r.events[0]), r.events[1:]
	}
	n := copy(p, r.line)
	r.line = r.line[n:]
	return n, nil
}

// TestOpenTableMatchesMap: the direct-mapped in-flight table folds every
// stream as the map-backed reference does — spans, attribution, flits
// in flight, Replay's summary and the sticky errors — including streams
// built to collide in it, grow it and spill from it, and a node- and
// class-filtered recording that breaks the per-flit protocol.
func TestOpenTableMatchesMap(t *testing.T) {
	var spaced, long, straggler []packet
	for j := int64(0); j < 200; j++ { // IDs 64 apart share a slot of the 256-slot table
		spaced = append(spaced, packet{id: 64 * j, flits: 1, inject: j / 8, grant: 40 + j/4})
	}
	for p := int64(0); p < 60; p++ { // flit 4 on shares a position with the next packet
		long = append(long, packet{id: p, flits: 10, inject: 3 * p, grant: 3*p + 12})
	}
	// The straggler is held while the IDs move on by 10^5, every eighth
	// carrying a packet: one a cycle, 40 cycles in flight.
	straggler = append(straggler, packet{id: 0, flits: 1, inject: 0, grant: 100_000/8 + 50})
	for p := int64(8); p <= 100_000; p += 8 {
		straggler = append(straggler, packet{id: p, flits: 1, inject: p / 8, grant: p/8 + 40, bare: true})
	}
	var filtered bytes.Buffer
	tw := NewTraceWriter(&filtered, NodeClassFilter([]int{0, 5}, "data"))
	for _, e := range recordedStream(t) {
		tw.Record(&e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	recorded, err := readTrace(&filtered)
	if err != nil {
		t.Fatal(err)
	}

	// A stray VC grant for a flit long ejected ends the spaced stream: the
	// table must not still find the flit in its slot.
	spacedEvents := streamOf(spaced)
	stray := spacedEvents[2]
	stray.Cycle = spacedEvents[len(spacedEvents)-1].Cycle
	spacedEvents = append(spacedEvents, stray)

	for _, tc := range []struct {
		name        string
		events      []noc.ProbeEvent
		grow, spill bool // what a synthetic stream must make the table do
	}{
		{"spaced", spacedEvents, true, true},
		{"long", streamOf(long), false, true},
		{"straggler", streamOf(straggler), true, true},
		{"filtered", recorded, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := newSpanBuilder(true, true), mapBacked(true, true)
			spilled := 0
			for i := range tc.events {
				got.Feed(&tc.events[i]) //nolint:errcheck // compared through Err below
				ref.Feed(&tc.events[i]) //nolint:errcheck
				spilled = max(spilled, len(got.spill))
				if i%1000 == 0 && got.InFlight() != ref.InFlight()-1 {
					t.Fatalf("event %d: %d flits in flight, reference %d", i, got.InFlight(), ref.InFlight()-1)
				}
			}
			if grew := len(got.slots) > 256; tc.name != "filtered" && (grew != tc.grow || (spilled > 0) != tc.spill) {
				t.Errorf("table grew to %d slots and spilled up to %d keys; want growth %v, spill %v",
					len(got.slots), spilled, tc.grow, tc.spill)
			}
			if g, r := fmt.Sprint(got.Err()), fmt.Sprint(ref.Err()); g != r {
				t.Errorf("sticky error %s, reference %s", g, r)
			}
			if (tc.name == "filtered" || tc.name == "spaced") && got.Err() == nil {
				t.Error("a stream that breaks the per-flit protocol folded without an error")
			}
			if g, r := got.InFlight(), ref.InFlight()-1; g != r {
				t.Errorf("%d flits in flight, reference %d", g, r)
			}
			if g, r := got.Spans(), ref.Spans(); !reflect.DeepEqual(g, r) || len(g) == 0 && tc.name != "filtered" {
				t.Errorf("%d spans, reference %d (or they differ)", len(g), len(r))
			}
			if g, r := got.Attribution().CombinedTable().CSV(), ref.Attribution().CombinedTable().CSV(); g != r {
				t.Errorf("attribution\n%s\nreference\n%s", g, r)
			}

			gotSum, gotErr := replay(&eventReader{events: tc.events}, newSpanBuilder(false, false))
			refSum, refErr := replay(&eventReader{events: tc.events}, mapBacked(false, false))
			if fmt.Sprint(gotErr) != fmt.Sprint(refErr) || !reflect.DeepEqual(gotSum, refSum) {
				t.Errorf("Replay %+v, %v\nreference %+v, %v", gotSum, gotErr, refSum, refErr)
			}
			if gotSum.Latency.Flits == 0 {
				t.Error("Replay matched no flit")
			}
		})
	}
}
