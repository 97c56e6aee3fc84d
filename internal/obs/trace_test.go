package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
)

// readTrace is ScanTrace into a slice.
func readTrace(r io.Reader) (out []noc.ProbeEvent, err error) {
	err = ScanTrace(r, func(e *noc.ProbeEvent) error {
		out = append(out, *e)
		return nil
	})
	return out, err
}

func mkEvent(kind noc.ProbeKind, cycle, pkt int64, seq int32) noc.ProbeEvent {
	return noc.ProbeEvent{Cycle: cycle, Kind: kind, Pkt: pkt, Seq: seq, Type: noc.HeadTailFlit, Class: noc.Data}
}

// jsonl encodes events the way the trace writer does.
func jsonl(events ...noc.ProbeEvent) *bytes.Buffer {
	var buf []byte
	for i := range events {
		buf = appendEvent(buf, &events[i])
	}
	return bytes.NewBuffer(buf)
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"garbage", "not json\n", "line 1"},
		{"unknown kind", `{"c":1,"k":"teleport","p":0,"s":0}` + "\n", "unknown event kind"},
		{"out of order", `{"c":5,"k":"inject","p":0,"s":0}` + "\n" + `{"c":3,"k":"eject","p":0,"s":0}` + "\n", "out of order"},
		{"unknown type", `{"c":1,"k":"inject","p":0,"s":0,"t":"middle"}` + "\n", "unknown flit type"},
		{"unknown class", `{"c":1,"k":"inject","p":0,"s":0,"cl":"bulk"}` + "\n", "unknown message class"},
		{"unknown dir", `{"c":1,"k":"inject","p":0,"s":0,"d":"sideways"}` + "\n", "unknown direction"},
		{"vc out of range", `{"c":1,"k":"inject","p":0,"s":0,"vc":300}` + "\n", "line 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readTrace(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadTraceSkipsBlankLines(t *testing.T) {
	in := `{"c":1,"k":"inject","p":0,"s":0,"t":"headtail","cl":"data"}` + "\n\n" +
		`{"c":4,"k":"eject","p":0,"s":0,"t":"headtail","cl":"data"}` + "\n"
	events, err := readTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("readTrace: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
}

func TestReplayProtocolViolations(t *testing.T) {
	cases := []struct {
		name    string
		events  []noc.ProbeEvent
		wantErr string
	}{
		{"double inject",
			[]noc.ProbeEvent{mkEvent(noc.ProbeInject, 1, 7, 0), mkEvent(noc.ProbeInject, 2, 7, 0)},
			"injected twice"},
		{"eject before inject",
			[]noc.ProbeEvent{mkEvent(noc.ProbeEject, 1, 7, 0)},
			"before inject"},
		{"event after eject",
			[]noc.ProbeEvent{mkEvent(noc.ProbeInject, 1, 7, 0), mkEvent(noc.ProbeEject, 2, 7, 0), mkEvent(noc.ProbeLink, 3, 7, 0)},
			"after eject"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(jsonl(tc.events...))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want substring %q", err, tc.wantErr)
			}
			if !errors.Is(err, ErrFlitProtocol) {
				t.Errorf("err = %v does not wrap ErrFlitProtocol", err)
			}
		})
	}
}

func TestReplayComputesLatency(t *testing.T) {
	inject, eject := mkEvent(noc.ProbeInject, 10, 1, 0), mkEvent(noc.ProbeEject, 25, 1, 0)
	inject.Created, eject.Created = 8, 8
	sum, err := Replay(jsonl(inject, eject))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if sum.Events["inject"] != 1 || sum.Events["eject"] != 1 || sum.Events["link"] != 0 {
		t.Errorf("event counts wrong: %v", sum.Events)
	}
	stats := sum.Latency
	if stats.Flits != 1 || stats.Packets != 1 {
		t.Fatalf("counts wrong: %s", stats.JSON())
	}
	if stats.FlitMean != 15 || stats.FlitMax != 15 {
		t.Errorf("flit latency = %v/%v, want 15 (eject - inject)", stats.FlitMean, stats.FlitMax)
	}
	if stats.PacketMean != 17 || stats.PacketMax != 17 {
		t.Errorf("packet latency = %v/%v, want 17 (eject - created)", stats.PacketMean, stats.PacketMax)
	}
	if stats.PerClass["data"] != 1 {
		t.Errorf("per-class count wrong: %s", stats.JSON())
	}
}

// injectEvent is the record of a single-flit data packet entering at
// router 0 in the given cycle.
func injectEvent(cycle int64) noc.ProbeEvent {
	return noc.ProbeEvent{Kind: noc.ProbeInject, Cycle: cycle, Pkt: 1, Type: noc.HeadTailFlit, Class: noc.Data}
}

// TestTraceWriterBufferFlush checks the byte buffer bounds memory
// without dropping: write several buffers' worth of events, the sink
// gets full buffers mid-run and the rest on Close, in order.
func TestTraceWriterBufferFlush(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, nil)
	e := injectEvent(0)
	n := 3 * traceBufSize / len(appendEvent(nil, &e))
	for i := 0; i < n; i++ {
		e := injectEvent(int64(i))
		tw.Record(&e)
	}
	if w := tw.Written(); w == 0 || w >= int64(n) {
		t.Errorf("written before close = %d, want some but not all of %d", w, n)
	}
	if buf.Len() < 2*traceBufSize || cap(tw.buf) > traceBufSize+lineHeadroom {
		t.Errorf("sink holds %d bytes, writer buffer grew to %d", buf.Len(), cap(tw.buf))
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tw.Written() != int64(n) {
		t.Errorf("written after close = %d, want %d", tw.Written(), n)
	}
	events, err := readTrace(&buf)
	if err != nil {
		t.Fatalf("readTrace: %v", err)
	}
	if len(events) != n {
		t.Fatalf("trace has %d events, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Cycle != int64(i) {
			t.Fatalf("event %d out of order: cycle %d", i, e.Cycle)
		}
	}
}

func TestNodeClassFilterNil(t *testing.T) {
	if NodeClassFilter(nil, "") != nil {
		t.Error("empty filter spec should compile to no filter at all")
	}
	f := NodeClassFilter([]int{3}, "")
	ev := noc.ProbeEvent{Router: 3}
	if !f(ev) {
		t.Error("allow-listed router rejected")
	}
	ev.Router = 4
	if f(ev) {
		t.Error("other router admitted")
	}
}

// TestNodeClassFilterClass: the class name is parsed once, to the enum
// the events carry; a name that is no class admits nothing.
func TestNodeClassFilterClass(t *testing.T) {
	ctl, data := noc.ProbeEvent{Class: noc.Control}, noc.ProbeEvent{Class: noc.Data}
	for _, tc := range []struct {
		class         string
		wantCtl, want bool
	}{
		{"control", true, false},
		{"data", false, true},
		{"bulk", false, false},
	} {
		f := NodeClassFilter(nil, tc.class)
		if got := f(ctl); got != tc.wantCtl {
			t.Errorf("class %q admits control = %v, want %v", tc.class, got, tc.wantCtl)
		}
		if got := f(data); got != tc.want {
			t.Errorf("class %q admits data = %v, want %v", tc.class, got, tc.want)
		}
	}
}

// failAfterWriter fails every Write after the first n bytes have been
// accepted, mimicking a disk filling up mid-run.
type failAfterWriter struct {
	budget int
	wrote  int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.budget {
		return 0, errors.New("disk full")
	}
	w.wrote += len(p)
	return len(p), nil
}

// TestTraceWriterCloseReportsFailure: a writer that starts failing
// mid-run surfaces the error (with the count of events that made it
// out) from Close instead of silently truncating the trace.
func TestTraceWriterCloseReportsFailure(t *testing.T) {
	// The sink takes the first full buffer and fails from then on; the
	// failure surfaces at Close at the latest.
	tw := NewTraceWriter(&failAfterWriter{budget: traceBufSize + lineHeadroom}, nil)
	e := injectEvent(0)
	n := 3 * traceBufSize / len(appendEvent(nil, &e))
	for i := 0; i < n; i++ {
		e := injectEvent(int64(i))
		tw.Record(&e)
	}
	err := tw.Close()
	if err == nil {
		t.Fatal("Close returned nil for a failing writer")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("error does not carry the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "events written") {
		t.Errorf("error does not report the written count: %v", err)
	}
	if w := tw.Written(); w == 0 || w >= int64(n)/2 {
		t.Errorf("written = %d of %d, want the one buffer the sink accepted", w, n)
	}
}

// TestTraceWriterCloseCleanOK: Close on a healthy writer returns nil.
func TestTraceWriterCloseCleanOK(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, nil)
	e := injectEvent(1)
	tw.Record(&e)
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if tw.Written() != 1 {
		t.Errorf("written = %d, want 1", tw.Written())
	}
}

// legacyEvent is the string-typed record the JSONL format began as,
// kept as the oracle: what encoding/json writes for it is the format.
type legacyEvent struct {
	Cycle   int64  `json:"c"`
	Kind    string `json:"k"`
	Router  int    `json:"r"`
	Dir     string `json:"d,omitempty"`
	VC      int    `json:"vc,omitempty"`
	Pkt     int64  `json:"p"`
	Seq     int    `json:"s"`
	Type    string `json:"t"`
	Class   string `json:"cl"`
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	Created int64  `json:"created,omitempty"`
	Layers  int    `json:"al,omitempty"`
}

func legacyOf(e *noc.ProbeEvent) legacyEvent {
	l := legacyEvent{Cycle: e.Cycle, Kind: e.Kind.String(), Router: int(e.Router), VC: int(e.VC),
		Pkt: e.Pkt, Seq: int(e.Seq), Type: flitTypeNames[e.Type], Class: e.Class.String(),
		Src: int(e.Src), Dst: int(e.Dst), Created: e.Created, Layers: int(e.Layers)}
	if e.Kind != noc.ProbeEject {
		l.Dir = e.Dir.String()
	}
	return l
}

// FuzzEventJSON: for any field values the append encoder writes the
// bytes encoding/json writes for the legacy record, and the reader
// turns those bytes back into the same noc.ProbeEvent.
func FuzzEventJSON(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int32(0), int32(0), int32(0), int32(0), uint8(0), uint8(0), uint8(0), uint8(0), int8(0), uint8(0))
	f.Add(int64(31999), int64(43193), int64(31950), int32(35), int32(0), int32(35), int32(3), uint8(5), uint8(2), uint8(1), uint8(0), int8(0), uint8(0))
	f.Add(int64(17), int64(9), int64(12), int32(4), int32(4), int32(20), int32(0), uint8(0), uint8(3), uint8(0), uint8(0), int8(1), uint8(1))
	f.Add(int64(18), int64(9), int64(0), int32(4), int32(4), int32(20), int32(1), uint8(3), uint8(1), uint8(1), uint8(9), int8(-1), uint8(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64), int32(math.MinInt32), int32(math.MaxInt32),
		int32(-1), int32(math.MaxInt32), uint8(255), uint8(255), uint8(255), uint8(255), int8(math.MinInt8), uint8(255))
	f.Fuzz(func(t *testing.T, cycle, pkt, created int64, router, src, dst, seq int32, kind, typ, class, dir uint8, vc int8, layers uint8) {
		e := noc.ProbeEvent{Cycle: cycle, Pkt: pkt, Created: created, Router: router, Src: src, Dst: dst, Seq: seq,
			Kind:  noc.ProbeKind(kind) % noc.NumProbeKinds,
			Type:  noc.FlitType(int(typ) % len(flitTypeNames)),
			Class: noc.Class(class) % noc.NumClasses,
			Dir:   topology.Dir(dir) % topology.NumDirs,
			VC:    vc, Layers: layers}
		got := appendEvent(nil, &e)
		want, err := json.Marshal(legacyOf(&e))
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("append encoder wrote\n%sencoding/json writes\n%s", got, want)
		}
		if len(got) >= lineHeadroom {
			t.Errorf("line of %d bytes outgrows the trace buffer's headroom", len(got))
		}
		if cycle < 0 {
			return // ScanTrace takes cycles from 0 up
		}
		if e.Kind == noc.ProbeEject {
			e.Dir = 0 // an eject's direction is not serialized
		}
		back, err := readTrace(bytes.NewReader(got))
		if err != nil || len(back) != 1 || back[0] != e {
			t.Fatalf("ScanTrace(%s) = %+v, %v; want %+v", got, back, err, e)
		}
	})
}

// trace3dmHead is the first lines of the trace_3dm stream (testdata/trace_3dm.json).
const trace3dmHead = `{"c":1,"k":"inject","r":31,"d":"local","p":1,"s":0,"t":"head","cl":"data","src":31,"dst":27}
{"c":2,"k":"inject","r":31,"d":"local","p":1,"s":1,"t":"body","cl":"data","src":31,"dst":27}
{"c":2,"k":"route","r":31,"d":"east","p":1,"s":0,"t":"head","cl":"data","src":31,"dst":27}
{"c":3,"k":"inject","r":31,"d":"local","p":1,"s":2,"t":"body","cl":"data","src":31,"dst":27}
{"c":3,"k":"inject","r":33,"d":"local","p":2,"s":0,"t":"head","cl":"data","src":33,"dst":15,"created":2}
{"c":3,"k":"vcalloc","r":31,"d":"east","p":1,"s":0,"t":"head","cl":"data","src":31,"dst":27}
{"c":4,"k":"inject","r":2,"d":"local","p":3,"s":0,"t":"head","cl":"data","src":2,"dst":23,"created":3}
{"c":4,"k":"inject","r":3,"d":"local","p":4,"s":0,"t":"head","cl":"data","src":3,"dst":13,"created":3}
{"c":4,"k":"inject","r":10,"d":"local","p":5,"s":0,"t":"head","cl":"data","src":10,"dst":35,"created":3}
{"c":4,"k":"inject","r":18,"d":"local","p":6,"s":0,"t":"head","cl":"data","src":18,"dst":21,"created":3}
{"c":4,"k":"inject","r":30,"d":"local","p":7,"s":0,"t":"head","cl":"data","src":30,"dst":4,"created":3}
{"c":4,"k":"inject","r":31,"d":"local","p":1,"s":3,"t":"tail","cl":"data","src":31,"dst":27}
{"c":4,"k":"inject","r":33,"d":"local","p":2,"s":1,"t":"body","cl":"data","src":33,"dst":15,"created":2}
{"c":4,"k":"sagrant","r":31,"d":"east","p":1,"s":0,"t":"head","cl":"data","src":31,"dst":27}
{"c":4,"k":"link","r":31,"d":"east","p":1,"s":0,"t":"head","cl":"data","src":31,"dst":27}
{"c":4,"k":"route","r":33,"d":"north","p":2,"s":0,"t":"head","cl":"data","src":33,"dst":15}
`

// fuzzEvents decodes a fuzz input into an event stream: per event, varints
// for the cycle step (signed: cycles may go back), pkt, seq, src, dst,
// router and created, then a byte each for kind, type, class, dir, vc and
// layers. fuzzInput is its inverse.
func fuzzEvents(data []byte) (events []noc.ProbeEvent) {
	var cycle int64
	for {
		var v [7]int64
		for i := range v {
			n := 0
			if v[i], n = binary.Varint(data); n <= 0 {
				return events
			}
			data = data[n:]
		}
		if len(data) < 6 {
			return events
		}
		b := data[:6]
		data = data[6:]
		cycle += v[0]
		events = append(events, noc.ProbeEvent{Cycle: cycle, Pkt: v[1], Seq: int32(v[2]), Src: int32(v[3]), Dst: int32(v[4]),
			Router: int32(v[5]), Created: v[6], Kind: noc.ProbeKind(b[0]) % noc.NumProbeKinds,
			Type: noc.FlitType(int(b[1]) % len(flitTypeNames)), Class: noc.Class(b[2]) % noc.NumClasses,
			Dir: topology.Dir(b[3]) % topology.NumDirs, VC: int8(b[4]), Layers: b[5]})
	}
}

func fuzzInput(events ...noc.ProbeEvent) (data []byte) {
	var cycle int64
	for _, e := range events {
		for _, v := range [...]int64{e.Cycle - cycle, e.Pkt, int64(e.Seq), int64(e.Src), int64(e.Dst), int64(e.Router), e.Created} {
			data = binary.AppendVarint(data, v)
		}
		data = append(data, byte(e.Kind), byte(e.Type), byte(e.Class), byte(e.Dir), byte(e.VC), e.Layers)
		cycle = e.Cycle
	}
	return data
}

// FuzzTraceWriterStream: whatever the stream — a key back with other
// src/dst/type/class, keys sharing a run slot, cycles going back, runs too
// long to cache — TraceWriter writes the appendEvent lines of its events,
// and after a grant onto a network port the line of its link event,
// copied with or without a flush between the two lines.
func FuzzTraceWriterStream(f *testing.F) {
	head, err := readTrace(strings.NewReader(trace3dmHead))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzInput(head...))
	a := head[0]
	stream := []noc.ProbeEvent{a}
	for _, change := range []func(*noc.ProbeEvent){ // the same key with one other field, then back
		func(e *noc.ProbeEvent) { e.Src++ }, func(e *noc.ProbeEvent) { e.Dst++ },
		func(e *noc.ProbeEvent) { e.Type = noc.TailFlit }, func(e *noc.ProbeEvent) { e.Class = noc.Control },
		func(e *noc.ProbeEvent) { e.Pkt += runSlots >> seqBits }, // another key in the same slot
		func(e *noc.ProbeEvent) { e.Cycle-- },
		func(e *noc.ProbeEvent) { // a run longer than a slot holds
			e.Pkt, e.Seq, e.Src, e.Dst, e.Type, e.Class = math.MinInt64, math.MinInt32, math.MinInt32, math.MinInt32, noc.HeadTailFlit, noc.Control
		},
	} {
		b := a
		change(&b)
		stream = append(stream, b, b, a)
	}
	f.Add(fuzzInput(stream...))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzEvents(data)
		for _, flush := range []bool{false, true} {
			var got bytes.Buffer
			var want []byte
			tw := NewTraceWriter(&got, nil)
			for i := range events {
				e := &events[i]
				link := crossesLink(e.Kind, e.Dir)
				if pad := traceBufSize - 1 - len(tw.buf); flush && link && pad > 0 {
					// A blank-padded line leaves the grant's line to fill the buffer.
					line := strings.Repeat(" ", pad-1) + "\n"
					tw.buf, want = append(tw.buf, line...), append(want, line...)
				}
				tw.Record(e)
				want = appendEvent(want, e)
				if link {
					if flush && len(tw.buf) != 0 {
						t.Fatalf("event %d: the grant's line left %d bytes unflushed", i, len(tw.buf))
					}
					tw.recordLink()
					l := *e
					l.Kind = noc.ProbeLink
					want = appendEvent(want, &l)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			wantLines := bytes.NewBuffer(want)
			for i, line := range strings.SplitAfter(got.String(), "\n") {
				if wantLine, _ := wantLines.ReadString('\n'); line != wantLine {
					t.Fatalf("flush %v, line %d: TraceWriter wrote\n%sappendEvent writes\n%s", flush, i, line, wantLine)
				}
			}
			if wantLines.Len() != 0 {
				t.Fatalf("flush %v: TraceWriter left out the lines\n%s", flush, wantLines)
			}
		}
	})
}
