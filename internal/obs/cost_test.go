package obs

import (
	"context"
	"io"
	"runtime"
	"testing"

	"mira/internal/noc"
	"mira/internal/traffic"
)

// probeRecorder keeps the probe stream of a run.
type probeRecorder []noc.ProbeEvent

func (r *probeRecorder) ProbeEvent(ev noc.ProbeEvent) { *r = append(*r, ev) }

// recordedStream is the probe stream of a short, fully drained
// uniform-random run: every flit it injects it also ejects, so the
// stream can be fed to one collector any number of times.
func recordedStream(tb testing.TB) []noc.ProbeEvent {
	tb.Helper()
	nc := testConfig()
	net := noc.NewNetwork(nc)
	var rec probeRecorder
	net.SetProbe(&rec)
	sim := noc.NewSim(net, &traffic.Uniform{Topo: nc.Topo, InjectionRate: 0.1, PacketSize: 4})
	sim.Params = noc.SimParams{Warmup: 0, Measure: 600, DrainMax: 3000}
	if res := sim.Run(context.Background()); res.Ejected == 0 || res.Saturated {
		tb.Fatalf("recording run did not drain: %s", res.String())
	}
	return rec
}

// observedCollector is the configuration the ur6x6_observed benchmark
// workload measures: spans folded and retained, JSONL trace encoded
// (through a node filter when traceNodes lists any).
func observedCollector(traceNodes ...int) *Collector {
	c := New(noc.NewNetwork(testConfig()), Config{Spans: true, TraceNodes: traceNodes})
	c.SetTraceWriter(io.Discard)
	return c
}

// TestCollectorEventAllocs: with spans and a trace attached, a probe
// event in steady state allocates nothing, and neither does a hand-off
// (its sinks are bound once). What a pass over the stream does allocate
// is the span log growing by a chunk now and then.
func TestCollectorEventAllocs(t *testing.T) {
	stream := recordedStream(t)
	for _, c := range []*Collector{observedCollector(), observedCollector(0, 5, 10)} {
		testCollectorEventAllocs(t, c, stream)
	}
}

func testCollectorEventAllocs(t *testing.T, c *Collector, stream []noc.ProbeEvent) {
	pass := func() {
		for i := range stream {
			c.ProbeEvent(stream[i])
		}
		c.Spans() // fold the pass: its allocations are counted with it
	}
	pass() // the batches, the slab, the in-flight map and the trace buffer reach their size
	if err := c.Spans().Err(); err != nil || c.Spans().InFlight() != 0 {
		t.Fatalf("after one pass: err %v, %d flits in flight", err, c.Spans().InFlight())
	}
	logged := c.Spans().RetainedBytes() // what one pass appends to the span log

	i := 0
	perEvent := testing.AllocsPerRun(4*len(stream), func() {
		c.ProbeEvent(stream[i%len(stream)])
		i++
	})
	if perEvent != 0 {
		t.Errorf("%v allocations per steady-state probe event, want 0", perEvent)
	}

	chunks := logged/logChunk + 1
	if perPass := testing.AllocsPerRun(3, pass); perPass > float64(chunks) {
		t.Errorf("%v allocations per pass of %d events, want at most %d span log chunks (%d hand-offs)",
			perPass, len(stream), chunks, len(stream)/batchEvents+1)
	}
}

// TestRetainedSpanBytesPerHop bounds what a completed span costs while
// it is kept: exactly, the span log's bytes per completed hop, and as a
// sanity check the heap's growth, not the kilobyte per flit of a
// FlitSpan with its own hop slice. The two event batches are a fixed
// cost: one pass makes them before the first heap reading.
func TestRetainedSpanBytesPerHop(t *testing.T) {
	stream := recordedStream(t)
	c := observedCollector()
	pass := func() {
		for i := range stream {
			c.ProbeEvent(stream[i])
		}
	}
	heap := func() int64 {
		c.Spans() // fold, so no sink goroutine is allocating
		// Twice: the second collection frees what the first left in
		// sync.Pool victim caches, such as an earlier test's JSON buffers.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	pass()
	before, warm := heap(), c.counts[noc.ProbeSAGrant]
	const passes = 20
	for p := 0; p < passes; p++ {
		pass()
	}
	grown := heap() - before
	runtime.KeepAlive(stream) // or the second reading frees it, and the heap shrinks
	hops := c.counts[noc.ProbeSAGrant] - warm
	perHop := float64(grown) / float64(hops)
	logPerHop := float64(c.Spans().RetainedBytes()) / float64(c.counts[noc.ProbeSAGrant])
	t.Logf("%.2f log bytes, %.1f heap bytes per completed hop (%d hops)", logPerHop, perHop, hops)
	// 3.79 measured: compact body and tail spans. The margin lets a kernel
	// change move a few flits; full spans alone cost 9.07.
	if logPerHop > 4.5 {
		t.Errorf("the span log keeps %.2f bytes per completed hop, want <= 4.5", logPerHop)
	}
	if perHop > 48 {
		t.Errorf("retained spans cost %.1f heap bytes per completed hop, want <= 48", perHop)
	}
	if n := len(c.Spans().Spans()); int64(n) != c.counts[noc.ProbeEject] {
		t.Errorf("%d spans materialized for %d ejected flits", n, c.counts[noc.ProbeEject])
	}
}

// BenchmarkCollectorEvent is the profiling handle for the observed
// path: ns and bytes per probe event through Collector.ProbeEvent with
// spans and the trace writer attached. ns/op is the whole pipeline (the
// last batch folded); caller-ns/event is what the simulation goroutine
// spent in ProbeEvent when it was not waiting for a free batch.
func BenchmarkCollectorEvent(b *testing.B) {
	stream := recordedStream(b)
	c := observedCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ProbeEvent(stream[i%len(stream)])
	}
	calling := b.Elapsed()
	_, waited, _, _ := c.HandOffs()
	c.Spans()
	b.StopTimer()
	b.ReportMetric(float64(calling-waited)/float64(b.N), "caller-ns/event")
}
