package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanID names one layer boundary the traced pass records a span at.
type spanID uint8

const (
	spanRun spanID = iota
	spanGenerate
	spanEnqueue
	spanStep
	spanProbe
	spanEject
	spanDeliver
	spanOnCycle
	spanObsClose
	numSpans
)

var spanNames = [numSpans]string{
	"sim.run", "gen.generate", "noc.enqueue", "noc.step", "obs.probe",
	"sim.eject", "collective.deliver", "obs.oncycle", "obs.close",
}

// maxSpans bounds the spans kept for the dump. A traced repetition
// makes up to ~15 M spans (3 M cycles on ur6x6_sparse); the totals per
// name are always complete, the dump holds the first maxSpans begun.
const maxSpans = 1 << 16

// span is one recorded interval, in ns since the tracer started; Parent
// indexes the dump (-1 for the root).
type span struct {
	Name   spanID
	Parent int32
	Start  int64
	End    int64
}

type spanTotals struct {
	Calls      int64
	ChildCalls int64 // direct child spans begun inside
	Total      time.Duration
	Child      time.Duration // covered by direct child spans
}

type frame struct {
	name       spanID
	idx        int32 // index in tracer.spans, -1 when past maxSpans
	start      time.Duration
	child      time.Duration
	childCalls int64
}

// tracer records spans from one goroutine: begin/end pairs nest, every
// span's duration is added to its name's totals and to its parent's
// child time, and the first maxSpans are kept for the dump.
type tracer struct {
	t0      time.Time
	stack   []frame
	totals  [numSpans]spanTotals
	spans   []span
	dropped int64
}

// now is the time since the tracer started. time.Since reads only the
// monotonic clock, half the cost of time.Now on this path.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) begin(name spanID) {
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent})
	} else {
		t.dropped++
	}
	t.stack = append(t.stack, frame{name: name, idx: idx})
	// The clock is read last here and first in end, so the least
	// bookkeeping falls inside the measured interval.
	t.stack[len(t.stack)-1].start = t.now()
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	tot := &t.totals[f.name]
	tot.Calls++
	tot.ChildCalls += f.childCalls
	tot.Total += d
	tot.Child += f.child
	if f.idx >= 0 {
		t.spans[f.idx].Start = f.start.Nanoseconds()
		t.spans[f.idx].End = now.Nanoseconds()
	}
	if n > 0 {
		t.stack[n-1].child += d
		t.stack[n-1].childCalls++
	}
}

// timerCost is what recording a span costs: Pair is one begin+end,
// Inside the part of it that falls between the two clock reads and so
// inside the span's own duration.
type timerCost struct {
	Pair, Inside time.Duration
}

// calibrate times empty spans. It runs past maxSpans so that the cost
// is the steady-state one, where spans are counted but no longer kept.
func calibrate() timerCost {
	const n = 4 * maxSpans
	t := newTracer()
	t.begin(spanRun)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(spanProbe)
		t.end()
	}
	wall := time.Since(start)
	t.end()
	return timerCost{Pair: wall / n, Inside: t.totals[spanProbe].Total / n}
}

// self is a name's own time: its spans minus what their child spans
// cover, minus the tracer's own cost. Each of its spans holds the
// inside part of its own recording and, per direct child, the part of
// the child's recording that fell outside the child.
func (t *tracer) self(name spanID, c timerCost) time.Duration {
	tot := t.totals[name]
	d := tot.Total - tot.Child -
		time.Duration(tot.Calls)*c.Inside -
		time.Duration(tot.ChildCalls)*(c.Pair-c.Inside)
	return max(d, 0)
}

// dump writes the kept spans as JSON lines: a header, then one span per
// line whose "id" is its position, so "parent" can be followed.
func (t *tracer) dump(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	header["spans_kept"] = len(t.spans)
	header["spans_dropped"] = t.dropped
	head, err := json.Marshal(header)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", head)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.Name], s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
