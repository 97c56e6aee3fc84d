package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mira/internal/noc"
)

// observation is everything a reader can get out of one observed stream.
type observation struct {
	trace   []byte
	mid     []byte // Latency JSON part-way through the stream
	summary []byte
	spans   []FlitSpan
	attrib  string
	// Close's error and the span builder's, printed ("<nil>" for none).
	closeErr, spanErr string
}

// handOffStream repeats the recorded stream (every flit it injects it
// also ejects) to a length of several batches and a part of one.
func handOffStream(t *testing.T) []noc.ProbeEvent {
	one := recordedStream(t)
	var stream []noc.ProbeEvent
	for len(stream) < 2*batchEvents {
		stream = append(stream, one...)
	}
	if len(stream)%batchEvents == 0 {
		t.Fatalf("stream of %d events is a whole number of batches", len(stream))
	}
	return stream
}

// throughCollector feeds the stream to a collector writing its trace
// through sink, reading Latency once on the way.
func throughCollector(stream []noc.ProbeEvent, sink func(*bytes.Buffer) io.Writer) observation {
	var buf bytes.Buffer
	var o observation
	c := New(noc.NewNetwork(testConfig()), Config{Spans: true})
	c.SetTraceWriter(sink(&buf))
	for i := range stream {
		if i == len(stream)/2 {
			o.mid = c.Latency().JSON()
		}
		c.ProbeEvent(stream[i])
	}
	o.closeErr = fmt.Sprint(c.Close())
	o.summary, _ = json.Marshal(c.Summary())
	sb := c.Spans()
	o.trace, o.spans, o.attrib, o.spanErr = buf.Bytes(), sb.Spans(), sb.Attribution().CombinedTable().String(), fmt.Sprint(sb.Err())
	return o
}

// inline is the reference: the same stream through the two sinks, one
// event at a time on the calling goroutine, with a link counted and
// written after each grant onto a network port.
func inline(stream []noc.ProbeEvent, sink func(*bytes.Buffer) io.Writer) observation {
	var buf bytes.Buffer
	var o observation
	var counts [noc.NumProbeKinds]int64
	sb, tw := newSpanBuilder(true, true), NewTraceWriter(sink(&buf), nil)
	for i := range stream {
		if i == len(stream)/2 {
			o.mid = sb.lat.stats().JSON()
		}
		e := &stream[i]
		counts[e.Kind]++
		sb.Feed(e) //nolint:errcheck // compared through Err below
		tw.Record(e)
		if crossesLink(e.Kind, e.Dir) {
			counts[noc.ProbeLink]++
			tw.recordLink()
		}
	}
	o.closeErr = fmt.Sprint(tw.Close())
	o.summary, _ = json.Marshal(Summary{Events: eventCounts(&counts), Latency: sb.lat.stats(),
		Window: DefaultWindow, Traced: tw.Written()})
	o.trace, o.spans, o.attrib, o.spanErr = buf.Bytes(), sb.Spans(), sb.Attribution().CombinedTable().String(), fmt.Sprint(sb.Err())
	return o
}

func (o *observation) diff(t *testing.T, name string, want *observation) {
	t.Helper()
	if !bytes.Equal(o.trace, want.trace) {
		t.Errorf("%s: trace bytes differ (%d vs %d)", name, len(o.trace), len(want.trace))
	}
	if !bytes.Equal(o.mid, want.mid) {
		t.Errorf("%s: mid-stream latency\n got %s\nwant %s", name, o.mid, want.mid)
	}
	if !bytes.Equal(o.summary, want.summary) {
		t.Errorf("%s: summary\n got %s\nwant %s", name, o.summary, want.summary)
	}
	if !reflect.DeepEqual(o.spans, want.spans) {
		t.Errorf("%s: spans differ (%d vs %d)", name, len(o.spans), len(want.spans))
	}
	if o.attrib != want.attrib {
		t.Errorf("%s: attribution tables differ\n got %s\nwant %s", name, o.attrib, want.attrib)
	}
	if o.closeErr != want.closeErr || o.spanErr != want.spanErr {
		t.Errorf("%s: errors %q / %q, want %q / %q", name, o.closeErr, o.spanErr, want.closeErr, want.spanErr)
	}
}

// settled waits for the sink goroutines of finished batches to be gone:
// one has signalled its batch done a moment before it exits.
func settled(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the collector existed", runtime.NumGoroutine(), base)
		}
	}
}

// panicWriter is a trace sink with a bug.
type panicWriter struct{ v any }

func (w panicWriter) Write([]byte) (int, error) { panic(w.v) }

// TestCollectorHandOffEquivalence: the batched hand-off shows every
// reader what inline sinks would have — with one thread and with two, a
// read in mid-stream included — when the sink works, when it fails and
// when it panics; and it leaves no goroutine behind, closed or dropped.
func TestCollectorHandOffEquivalence(t *testing.T) {
	stream := handOffStream(t)
	base := runtime.NumGoroutine()
	sinks := map[string]func(*bytes.Buffer) io.Writer{
		"working": func(b *bytes.Buffer) io.Writer { return b },
		// Fails part-way through the second batch.
		"failing": func(*bytes.Buffer) io.Writer { return &failAfterWriter{budget: 100 * batchEvents * 3 / 2} },
	}
	for name, sink := range sinks {
		want := inline(stream, sink)
		if name == "working" && (len(want.trace) == 0 || len(want.spans) == 0 || want.spanErr != "<nil>") {
			t.Fatalf("reference is empty or inconsistent: %d trace bytes, %d spans, err %q",
				len(want.trace), len(want.spans), want.spanErr)
		}
		if name == "failing" && !(strings.Contains(want.closeErr, "disk full") && strings.Contains(want.closeErr, "events written")) {
			t.Fatalf("reference Close of a failing sink: %q", want.closeErr)
		}
		for _, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got := throughCollector(stream, sink)
				got.diff(t, fmt.Sprintf("%s sink, GOMAXPROCS %d", name, procs), &want)
			}()
			settled(t, base)
		}
	}

	// A panic in a sink reaches the simulation goroutine with its value:
	// at the hand-off after it, or in Close when there is none.
	boom := errors.New("sink exploded")
	for _, n := range []int{len(stream), batchEvents / 8} {
		c := New(noc.NewNetwork(testConfig()), Config{Spans: true})
		c.SetTraceWriter(panicWriter{boom})
		var inClose bool
		var got any
		func() {
			defer func() { got = recover() }()
			for i := 0; i < n; i++ {
				c.ProbeEvent(stream[i])
			}
			inClose = true
			c.Close() //nolint:errcheck // panics
		}()
		if got != any(boom) {
			t.Errorf("%d events into a panicking sink: recovered %v, want %v", n, got, boom)
		}
		if wantClose := n < batchEvents; inClose != wantClose {
			t.Errorf("%d events into a panicking sink: panic surfaced in Close = %v, want %v", n, inClose, wantClose)
		}
		settled(t, base)
	}

	// Dropped without Close, with a batch at the sinks and a part of one
	// filled: the goroutines end with their batch.
	c := observedCollector()
	for i := 0; i < batchEvents+100; i++ {
		c.ProbeEvent(stream[i])
	}
	settled(t, base)
}
