package obs

import (
	"context"
	"io"
	"runtime"
	"testing"

	"mira/internal/noc"
	"mira/internal/traffic"
)

// probeRecorder keeps the raw probe stream of a run.
type probeRecorder struct{ events []noc.ProbeEvent }

func (r *probeRecorder) ProbeEvent(ev noc.ProbeEvent) { r.events = append(r.events, ev) }

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
	return rec.events
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
// event in steady state allocates nothing. What a pass over the stream
// does allocate is the span store growing by a chunk now and then.
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
	}
	pass() // the slab, the in-flight map and the trace buffer reach their size
	if err := c.Spans().Err(); err != nil || c.Spans().InFlight() != 0 {
		t.Fatalf("after one pass: err %v, %d flits in flight", err, c.Spans().InFlight())
	}

	i := 0
	perEvent := testing.AllocsPerRun(4*len(stream), func() {
		c.ProbeEvent(stream[i%len(stream)])
		i++
	})
	if perEvent != 0 {
		t.Errorf("%v allocations per steady-state probe event, want 0", perEvent)
	}

	var hops, flits int // what one pass adds to the span store
	for i := range stream {
		switch stream[i].Kind {
		case noc.ProbeSAGrant:
			hops++
		case noc.ProbeEject:
			flits++
		}
	}
	chunks := float64(hops/arenaChunk + flits/arenaChunk + 2)
	if perPass := testing.AllocsPerRun(3, pass); perPass > chunks {
		t.Errorf("%v allocations per pass of %d events, want at most the %v arena chunks it can add",
			perPass, len(stream), chunks)
	}
}

// TestRetainedSpanBytesPerHop bounds what a completed span costs while
// it is kept: a 32-byte hop record plus its share of the 56-byte header,
// not the kilobyte per flit of a FlitSpan with its own hop slice.
func TestRetainedSpanBytesPerHop(t *testing.T) {
	stream := recordedStream(t)
	c := observedCollector()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	const passes = 20
	for p := 0; p < passes; p++ {
		for i := range stream {
			c.ProbeEvent(stream[i])
		}
	}
	grown := heap() - before
	hops := c.EventCount(noc.ProbeSAGrant)
	perHop := float64(grown) / float64(hops)
	t.Logf("%.1f heap bytes per completed hop (%d hops)", perHop, hops)
	if perHop > 48 {
		t.Errorf("retained spans cost %.1f heap bytes per completed hop, want <= 48", perHop)
	}
	if n := len(c.Spans().Spans()); int64(n) != c.EventCount(noc.ProbeEject) {
		t.Errorf("%d spans materialized for %d ejected flits", n, c.EventCount(noc.ProbeEject))
	}
}

// BenchmarkCollectorEvent is the profiling handle for the observed
// path: ns and bytes per probe event through Collector.ProbeEvent with
// spans and the trace writer attached.
func BenchmarkCollectorEvent(b *testing.B) {
	stream := recordedStream(b)
	c := observedCollector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ProbeEvent(stream[i%len(stream)])
	}
}
