package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"mira/internal/noc"
	"mira/internal/topology"
)

// The layer works on noc.ProbeEvent as the network fills it or ScanTrace
// decodes it, so live and replayed streams drive one state machine. Kind,
// Type, Class and Dir have names only in the JSONL encoding (appendEvent,
// wireEvent) and the FlitSpan/Perfetto exports. A *noc.ProbeEvent handed
// to a callback is valid for the call; keep a copy, not the pointer.

// flitTypeNames maps noc.FlitType to its serialized name.
var flitTypeNames = [...]string{"head", "body", "tail", "headtail"}

func flitTypeName(t noc.FlitType) string { return flitTypeNames[t] }

// The JSON between a line's numbers: `,"k":"inject","r":`, `,"d":"east"`, `,"t":"head","cl":"data","src":`.
var (
	kindKeys      [noc.NumProbeKinds]string
	dirKeys       [topology.NumDirs]string
	typeClassKeys [len(flitTypeNames)][noc.NumClasses]string
)

func init() {
	for k := range kindKeys {
		kindKeys[k] = `,"k":"` + noc.ProbeKind(k).String() + `","r":`
	}
	for d := range dirKeys {
		dirKeys[d] = `,"d":"` + topology.Dir(d).String() + `"`
	}
	for t, name := range flitTypeNames {
		for c := range typeClassKeys[t] {
			typeClassKeys[t][c] = `,"t":"` + name + `","cl":"` + noc.Class(c).String() + `","src":`
		}
	}
}

// appendEvent appends e's JSONL line to buf. The bytes are what
// encoding/json wrote for the string-typed record this format began as
// (FuzzEventJSON holds the two equal): keys in the order below, "d"
// absent on eject events, "vc", "created" and "al" absent when zero.
// A line is four fragments, which TraceWriter.Record caches two of.
func appendEvent(buf []byte, e *noc.ProbeEvent) []byte {
	buf = appendCycle(slices.Grow(buf, lineHeadroom), e.Cycle)
	return appendTail(appendRun(appendHop(buf, e), e), e)
}

// appendCycle writes the line's `{"c":N`.
func appendCycle(buf []byte, cycle int64) []byte { return putInt(append(buf, `{"c":`...), cycle) }

// appendHop writes where the event happened: kind, router, direction and VC.
func appendHop(buf []byte, e *noc.ProbeEvent) []byte {
	buf = putInt(append(buf, kindKeys[e.Kind]...), int64(e.Router))
	if e.Kind != noc.ProbeEject {
		buf = append(buf, dirKeys[e.Dir]...)
	}
	if e.VC != 0 {
		buf = putInt(append(buf, `,"vc":`...), int64(e.VC))
	}
	return buf
}

// appendRun writes the fields a flit keeps all its life: `,"p":..,"dst":..`.
func appendRun(buf []byte, e *noc.ProbeEvent) []byte {
	buf = putInt(append(buf, `,"p":`...), e.Pkt)
	buf = putInt(append(buf, `,"s":`...), int64(e.Seq))
	buf = putInt(append(buf, typeClassKeys[e.Type][e.Class]...), int64(e.Src))
	return putInt(append(buf, `,"dst":`...), int64(e.Dst))
}

// appendTail writes the inject and eject fields and ends the line.
func appendTail(buf []byte, e *noc.ProbeEvent) []byte {
	if e.Created != 0 {
		buf = putInt(append(buf, `,"created":`...), e.Created)
	}
	if e.Layers != 0 {
		buf = putInt(append(buf, `,"al":`...), int64(e.Layers))
	}
	return append(buf, "}\n"...)
}

const digitPairs = "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243444546474849" +
	"5051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putInt writes v in decimal into buf's spare capacity, which must hold
// it: the digits go straight to their places, two at a time.
func putInt(buf []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		buf, u = append(buf, '-'), -u
	}
	if u < 10 {
		return append(buf, byte('0'+u))
	}
	start := len(buf)
	n := start + bits.Len64(u)*1233>>12 // the digits of u, or one fewer
	if u >= pow10[n-start] {
		n++
	}
	for buf = buf[:n]; n-start > 1; u /= 100 {
		n -= 2
		buf[n], buf[n+1] = digitPairs[u%100*2], digitPairs[u%100*2+1]
	}
	if n > start {
		buf[n-1] = byte('0' + u)
	}
	return buf
}

// traceBufSize is how many encoded bytes the writer gathers before it hands them
// to the sink; lineHeadroom bounds a line (FuzzEventJSON holds it), so the buffer
// has that much more and appendEvent makes that much room before it writes.
const traceBufSize, lineHeadroom = 64 << 10, 256

// TraceWriter streams events as JSONL, encoding each straight into one
// reused byte buffer that goes to the sink when it fills (and on Close):
// memory is the buffer whatever the run length, and nothing is dropped.
// A line repeats its cycle's prefix and its flit's run, so the writer
// encodes each once: the prefix when the cycle changes, a run into a
// direct-mapped table on the flit's key, which a hit matches in full.
type TraceWriter struct {
	w      io.Writer
	buf    []byte
	filter func(noc.ProbeEvent) bool
	err    error

	cycle  int64  // the cycle prefix encodes
	prefix []byte // `{"c":cycle`
	runs   *[runSlots]runSlot
	rest   []byte // the last line past its kind key, nil when filtered

	pending int   // events in buf
	written int64 // events the sink accepted
}

// runSlots: 32 KB of 128-byte slots, each holding the runs of all but extreme values.
// On the 6x6 fabric at 0.15 it misses 7.7 % of events; a flit's first event is 7.4 %.
const runSlots = 256

type runSlot struct {
	key runKey
	n   uint8 // run length; 0 when empty
	run [103]byte
}

// runKey is every field appendRun encodes.
type runKey struct {
	pkt           int64
	seq, src, dst int32
	typ           noc.FlitType
	class         noc.Class
}

// NewTraceWriter builds a JSONL trace writer over w. filter, when
// non-nil, selects the events to record; everything else is discarded.
func NewTraceWriter(w io.Writer, filter func(noc.ProbeEvent) bool) *TraceWriter {
	return &TraceWriter{w: w, buf: make([]byte, 0, traceBufSize+lineHeadroom), filter: filter,
		prefix: appendCycle(make([]byte, 0, 32), 0), runs: new([runSlots]runSlot)}
}

// Record filters and encodes one event: appendEvent's line, from the
// caches where they hold it.
func (t *TraceWriter) Record(e *noc.ProbeEvent) {
	if t.err != nil || t.filter != nil && !t.filter(*e) {
		t.rest = nil
		return
	}
	if e.Cycle != t.cycle {
		t.cycle, t.prefix = e.Cycle, appendCycle(t.prefix[:0], e.Cycle)
	}
	start := len(t.buf) + len(t.prefix) + len(kindKeys[e.Kind])
	buf := appendHop(append(t.buf, t.prefix...), e) // flush leaves lineHeadroom spare
	k := runKey{e.Pkt, e.Seq, e.Src, e.Dst, e.Type, e.Class}
	if s := &t.runs[flitKey{e.Pkt, e.Seq}.pos()%runSlots]; s.n != 0 && s.key == k {
		buf = append(buf, s.run[:s.n]...)
	} else {
		n := len(buf)
		if buf = appendRun(buf, e); len(buf)-n <= len(s.run) {
			s.key, s.n = k, uint8(copy(s.run[:], buf[n:]))
		}
	}
	t.buf = appendTail(buf, e)
	t.rest = t.buf[start:]
	t.pending++
	if len(t.buf) >= traceBufSize {
		t.flush()
	}
}

// recordLink writes the link of the grant Record just kept: its line, kind
// swapped, the rest copied from where Record wrote it (a flush leaves it).
func (t *TraceWriter) recordLink() {
	if t.err == nil && t.rest != nil {
		t.buf = append(append(append(t.buf, t.prefix...), kindKeys[noc.ProbeLink]...), t.rest...)
		t.pending++
		if len(t.buf) >= traceBufSize {
			t.flush()
		}
	}
}

// crossesLink reports a switch grant onto a network port: a link traversal.
func crossesLink(k noc.ProbeKind, d topology.Dir) bool {
	return k == noc.ProbeSAGrant && d != topology.Local
}

func (t *TraceWriter) flush() {
	if t.err != nil || t.pending == 0 {
		return
	}
	if _, t.err = t.w.Write(t.buf); t.err == nil {
		t.written += int64(t.pending)
	}
	t.buf, t.pending = t.buf[:0], 0
}

// Written returns the number of events handed to the sink so far
// (events still in the buffer are not yet counted).
func (t *TraceWriter) Written() int64 { return t.written }

// Close flushes the buffer. It does not close the wrapped writer. A
// write failure — including one that happened mid-run and silently
// stopped recording — is reported here, annotated with how many events
// made it out, so callers can exit nonzero instead of shipping a
// truncated trace.
func (t *TraceWriter) Close() error {
	t.flush()
	if t.err != nil {
		return fmt.Errorf("obs: trace writer failed after %d events written: %w", t.written, t.err)
	}
	return nil
}

// NodeClassFilter builds a trace filter from a router allow-list and a
// message-class name. An empty node list admits every router; an empty
// class admits both classes, and a name that is no class admits none.
// Inject events are matched against the source router and eject events
// against the destination, so a node filter follows a flit only through
// the listed routers. The filter takes the event by value: a pointer
// handed to a func value would move every event to the heap.
func NodeClassFilter(nodes []int, class string) func(noc.ProbeEvent) bool {
	if len(nodes) == 0 && class == "" {
		return nil
	}
	want, _ := parseName(class, noc.NumClasses, noc.Class.String, "") // NumClasses, which no event has, when unknown
	var allow map[int32]bool
	if len(nodes) > 0 {
		allow = make(map[int32]bool, len(nodes))
		for _, n := range nodes {
			allow[int32(n)] = true
		}
	}
	return func(e noc.ProbeEvent) bool {
		return (allow == nil || allow[e.Router]) && (class == "" || e.Class == want)
	}
}

// parseName inverts name over the n values of a small enum. "" reads as
// the zero value, like an absent number; any other non-name is an error.
func parseName[T ~uint8 | ~int](s string, n T, name func(T) string, what string) (T, error) {
	for v := T(0); v < n && s != ""; v++ {
		if name(v) == s {
			return v, nil
		}
	}
	if s == "" {
		return 0, nil
	}
	return n, fmt.Errorf("unknown %s %q", what, s)
}

// wireEvent is one JSONL line, the reader's side of appendEvent: numbers
// decode into fields of the record's widths (so an out-of-range one is
// an error), names are parsed.
type wireEvent struct {
	Cycle   int64  `json:"c"`
	Pkt     int64  `json:"p"`
	Created int64  `json:"created"`
	Router  int32  `json:"r"`
	Src     int32  `json:"src"`
	Dst     int32  `json:"dst"`
	Seq     int32  `json:"s"`
	VC      int8   `json:"vc"`
	Layers  uint8  `json:"al"`
	Kind    string `json:"k"`
	Dir     string `json:"d"`
	Type    string `json:"t"`
	Class   string `json:"cl"`
}

// decodeEvent parses one line into e. The kind must be present.
func decodeEvent(line []byte, e *noc.ProbeEvent) (err error) {
	var w wireEvent
	if err = json.Unmarshal(line, &w); err != nil {
		return err
	}
	*e = noc.ProbeEvent{Cycle: w.Cycle, Pkt: w.Pkt, Created: w.Created, Router: w.Router, Src: w.Src, Dst: w.Dst,
		Seq: w.Seq, VC: w.VC, Layers: w.Layers}
	var ok bool
	if e.Kind, ok = noc.ParseProbeKind(w.Kind); !ok {
		return fmt.Errorf("unknown event kind %q", w.Kind)
	}
	if e.Dir, err = parseName(w.Dir, topology.NumDirs, topology.Dir.String, "direction"); err != nil {
		return err
	}
	if e.Class, err = parseName(w.Class, noc.NumClasses, noc.Class.String, "message class"); err != nil {
		return err
	}
	e.Type, err = parseName(w.Type, noc.FlitType(len(flitTypeNames)), flitTypeName, "flit type")
	return err
}

// ScanTrace decodes a JSONL trace one event at a time, verifying
// structure as it goes: every line must parse, carry a known kind, and
// cycles must be non-decreasing (emission order is simulation order).
// fn sees the events in file order; its error stops the scan.
func ScanTrace(r io.Reader, fn func(*noc.ProbeEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var e noc.ProbeEvent
	lastCycle := int64(-1)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := decodeEvent(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if e.Cycle < lastCycle {
			return fmt.Errorf("obs: trace line %d: cycle %d after cycle %d (trace out of order)",
				line, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		if err := fn(&e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading trace: %w", err)
	}
	return nil
}

// ErrFlitProtocol is wrapped by the error Replay returns for a trace
// that parses but breaks the per-flit protocol, as a node- or
// class-filtered recording does by design.
var ErrFlitProtocol = errors.New("per-flit protocol violated")

// Replay folds a recorded trace, in one pass, through the in-flight
// table and latency accumulator the live Collector uses, so an
// unfiltered trace reproduces the collector's event counts and per-flit
// latency statistics byte for byte (see LatencyStats.JSON). It also
// verifies the per-flit protocol — inject first, eject last — in memory
// proportional to the flits in flight, which is why a flit seen after
// its eject reads like one never injected. A violation does not stop
// it: the Summary then covers the matched inject/eject pairs, all a
// filtered trace can give, and the error wraps ErrFlitProtocol.
func Replay(r io.Reader) (Summary, error) { return replay(r, newSpanBuilder(false, false)) }

func replay(r io.Reader, flits *SpanBuilder) (Summary, error) {
	var counts [noc.NumProbeKinds]int64
	var violation error
	n := 0
	err := ScanTrace(r, func(e *noc.ProbeEvent) error {
		if _, inFlight := flits.find(flitKey{e.Pkt, e.Seq}); violation == nil && inFlight == (e.Kind == noc.ProbeInject) {
			what := "injected twice"
			if !inFlight {
				what = e.Kind.String() + " before inject or after eject (trace filtered or truncated?)"
			}
			violation = fmt.Errorf("obs: event %d: flit %d.%d %s: %w", n, e.Pkt, e.Seq, what, ErrFlitProtocol)
		}
		counts[e.Kind]++
		n++
		return flits.Feed(e)
	})
	if err != nil {
		return Summary{}, err
	}
	return Summary{Events: eventCounts(&counts), Latency: flits.lat.stats()}, violation
}
