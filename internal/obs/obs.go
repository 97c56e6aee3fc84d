// Package obs is the simulator's observability layer, the per-cycle
// visibility behind the paper's time-averaged headline numbers
// (Figs. 11-13): where backlog builds while an architecture approaches
// saturation, when the short-flit layer shutdown of §3.2.1 actually
// bites, and which routers and VCs stall on credits first.
//
// It has three cooperating parts:
//
//   - a Collector implementing noc.Probe, fed by the nil-checked probe
//     hooks compiled into the router pipeline (inject, RC, VA, SA and
//     eject events at zero cost when detached; it derives link events);
//   - a metric Registry plus cycle-windowed Sampler that snapshots
//     per-router/per-VC gauges (buffer occupancy, credit stalls, active
//     layers, express usage) into time series exportable as text, CSV
//     or JSON through stats.Table;
//   - a JSONL flit-event TraceWriter that encodes into one reused byte
//     buffer, and a streaming Replay reader that reproduces the live
//     collector's per-flit latency statistics byte for byte from the
//     recorded file.
//
// Scenarios opt in through their Observe block (internal/scenario);
// mirasim -trace writes traces, and miratrace flits replays them.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mira/internal/noc"
	"mira/internal/stats"
)

// Config parameterizes a Collector. The zero value samples on
// DefaultWindow boundaries with no trace attached.
type Config struct {
	// Window is the gauge sample window in cycles (0 = DefaultWindow).
	Window int64
	// PerVCNodes lists routers whose individual VC occupancies are
	// sampled (empty: per-router totals only).
	PerVCNodes []int
	// TraceNodes restricts trace output to events at these routers
	// (empty: all). TraceClass restricts to one message class
	// ("control" or "data"; empty: both). Filters apply to the trace
	// file only — summaries and time series always cover everything.
	TraceNodes []int
	TraceClass string
	// Spans enables live per-flit span building: every probe event is
	// folded into per-hop stage spans and the latency attribution
	// aggregate (see SpanBuilder). Costs memory proportional to the
	// completed hop count (about 3.4 bytes a hop, SpanBuilder.RetainedBytes).
	Spans bool
	// Engine enables engine self-telemetry (engine.go): per-shard step
	// timings as engine.* series columns, throughput, ETA and Go runtime
	// stats. Strictly out-of-band — simulated results are bit-identical
	// with it on or off. EngineLabel tags progress lines from this run.
	Engine      bool
	EngineLabel string
}

// LatencyStats are per-flit and per-packet latency statistics derived
// purely from inject/eject probe events, so the identical numbers are
// recomputable from a recorded trace (Replay). Flit latency is
// inject-to-eject network time; packet latency is creation-to-tail-eject
// and therefore includes source queueing, matching noc.Result.
type LatencyStats struct {
	Flits      int64            `json:"flits"`
	Packets    int64            `json:"packets"`
	FlitMean   float64          `json:"flit_mean"`
	FlitP50    int              `json:"flit_p50"`
	FlitP95    int              `json:"flit_p95"`
	FlitP99    int              `json:"flit_p99"`
	FlitMax    int64            `json:"flit_max"`
	PacketMean float64          `json:"packet_mean"`
	PacketP50  int              `json:"packet_p50"`
	PacketP95  int              `json:"packet_p95"`
	PacketP99  int              `json:"packet_p99"`
	PacketMax  int64            `json:"packet_max"`
	PerClass   map[string]int64 `json:"per_class,omitempty"` // ejected packets by class
}

// JSON renders the stats in a canonical form; byte equality of two
// renderings is the replay-determinism check.
func (l LatencyStats) JSON() []byte {
	data, err := json.Marshal(l)
	if err != nil {
		panic(err) // plain struct always marshals
	}
	return data
}

// latencyAcc accumulates LatencyStats from matched inject/eject pairs.
// The in-flight table (SpanBuilder.Feed) does the matching, for live
// and replayed streams alike, so the two produce identical stats for
// identical streams.
type latencyAcc struct {
	flitHist, pktHist *stats.Histogram
	flitMax, pktMax   int64
	flitSum, pktSum   float64
	flits, packets    int64
	perClass          [noc.NumClasses]int64
}

// histBins sizes the latency histograms; latencies beyond it land in
// the overflow bin (matching noc.Result's 4096-bin packet histogram).
const histBins = 4096

// add accounts one flit ejected by e, lat cycles after its inject.
func (a *latencyAcc) add(lat int64, e *noc.ProbeEvent) {
	a.flitHist.Add(int(lat))
	a.flitSum += float64(lat)
	a.flits++
	a.flitMax = max(a.flitMax, lat)
	if e.Type.IsTail() {
		plat := e.Cycle - e.Created
		a.pktHist.Add(int(plat))
		a.pktSum += float64(plat)
		a.packets++
		a.pktMax = max(a.pktMax, plat)
		a.perClass[e.Class]++
	}
}

func (a *latencyAcc) stats() LatencyStats {
	l := LatencyStats{Flits: a.flits, Packets: a.packets, FlitMax: a.flitMax}
	if a.flits > 0 {
		l.FlitMean = a.flitSum / float64(a.flits)
		l.FlitP50 = a.flitHist.Percentile(0.50)
		l.FlitP95 = a.flitHist.Percentile(0.95)
		l.FlitP99 = a.flitHist.Percentile(0.99)
	}
	if a.packets > 0 {
		l.PacketMean = a.pktSum / float64(a.packets)
		l.PacketP50 = a.pktHist.Percentile(0.50)
		l.PacketP95 = a.pktHist.Percentile(0.95)
		l.PacketP99 = a.pktHist.Percentile(0.99)
		l.PacketMax = a.pktMax
		l.PerClass = make(map[string]int64, len(a.perClass))
		for c, n := range a.perClass {
			if n > 0 {
				l.PerClass[noc.Class(c).String()] = n
			}
		}
	}
	return l
}

// batchEvents is the hand-off unit (0.45 MB). A goroutine wake-up costs
// 50-100 us on the ledger host and batches under 8 192 events show it;
// larger ones show in the peak RSS of a sweep of short observed runs.
const batchEvents = 8192

// Collector is the live observability pipeline of one simulation run:
// it implements noc.Probe (event counting, latency accumulation, trace
// writing) and exposes an OnCycle hook for the gauge sampler. Attach
// wires both into a Sim.
type Collector struct {
	reg     *Registry
	sampler *Sampler
	tw      *TraceWriter
	flits   *SpanBuilder // in-flight table and latency always; span folding with Config.Spans
	engine  *EngineCollector
	cfg     Config

	counts    [noc.NumProbeKinds]int64
	lastCycle int64
	warmup    int64 // the cycle noc.Sim resets the router counters at
	finished  bool

	// The hand-off: the simulation goroutine appends to fill while the sink
	// goroutines read spare, free again once draining is waited out. The
	// sinks are bound once: a go statement with arguments allocates.
	fill, spare      []noc.ProbeEvent
	feedFn, recordFn func()
	draining         sync.WaitGroup
	sinkPanic        [2]any           // what each sink goroutine recovered, until await re-raises it
	busy             [2]time.Duration // each sink's time spent draining batches
	handOffs         int64
	waited           time.Duration
}

// New builds a collector over net with the standard network gauge set,
// followed by the engine.* columns when Config.Engine is set.
func New(net *noc.Network, cfg Config) *Collector {
	reg := NewRegistry()
	RegisterNetwork(reg, net, cfg.PerVCNodes)
	c := &Collector{reg: reg, cfg: cfg, flits: newSpanBuilder(cfg.Spans, cfg.Spans)}
	if cfg.Engine {
		c.engine = newEngineCollector(net, reg, cfg.EngineLabel)
	}
	c.sampler = NewSampler(reg, cfg.Window)
	c.feedFn, c.recordFn = c.feed, c.record
	return c
}

// Registry returns the collector's metric registry, fixed by New.
func (c *Collector) Registry() *Registry { return c.reg }

// SetTraceWriter attaches a JSONL event sink (applying the collector's
// node/class filter). Call before the run; the caller must Close the
// collector (or the writer) afterwards to flush the buffer.
func (c *Collector) SetTraceWriter(w io.Writer) *TraceWriter {
	c.tw = NewTraceWriter(w, NodeClassFilter(c.cfg.TraceNodes, c.cfg.TraceClass))
	return c.tw
}

// Attach installs the collector on the simulation: probe events from
// the network and the sampler on the per-cycle hook. It takes the
// warm-up length (for the sampler's counter carry) and the engine
// collector's warmup+measure target from the sim's parameters.
func (c *Collector) Attach(sim *noc.Sim) {
	sim.Net.SetProbe(c)
	sim.OnCycle = c.OnCycle
	c.warmup = sim.Params.Warmup
	if c.engine != nil {
		c.engine.target = sim.Params.Warmup + sim.Params.Measure
	}
}

// Engine returns the engine telemetry collector, or nil when
// Config.Engine is off.
func (c *Collector) Engine() *EngineCollector { return c.engine }

// ProbeEvent implements noc.Probe. Only counting happens here, on the
// simulation goroutine: the kind is counted (a grant onto a network port
// also as a link) and the record appended to the fill batch, which goes
// to the sinks when full. The latency statistics need only a flit's two
// ends; the stage events between are kept for a trace or spans.
func (c *Collector) ProbeEvent(ev noc.ProbeEvent) {
	c.counts[ev.Kind]++
	if crossesLink(ev.Kind, ev.Dir) {
		c.counts[noc.ProbeLink]++
	}
	ends := ev.Kind == noc.ProbeInject || ev.Kind == noc.ProbeEject
	if !ends && !c.cfg.Spans && c.tw == nil {
		return
	}
	if c.fill == nil {
		c.fill, c.spare = make([]noc.ProbeEvent, 0, batchEvents), make([]noc.ProbeEvent, 0, batchEvents)
	}
	c.fill = append(c.fill, ev)
	if len(c.fill) >= batchEvents {
		c.handOff()
	}
}

// handOff gives the fill batch to the two sinks, each draining it in
// probe order on a goroutine that ends with the batch. Waiting out the
// batch before it first keeps every sink's batches in order, and the
// simulation goroutine blocked only while both batches are full.
func (c *Collector) handOff() {
	start := time.Now()
	c.await()
	c.waited += time.Since(start)
	if len(c.fill) == 0 {
		return
	}
	c.fill, c.spare = c.spare[:0], c.fill
	c.handOffs++
	c.draining.Add(1)
	go c.feedFn()
	if c.tw != nil {
		c.draining.Add(1)
		go c.recordFn()
	}
}

// feed is the sink of the in-flight table: latency, spans, attribution. Both sinks
// read the collector once: its fields share cache lines the simulation writes.
func (c *Collector) feed() {
	defer c.sinkDone(0, time.Now())
	batch, flits, spans := c.spare, c.flits, c.cfg.Spans
	for i := range batch {
		if e := &batch[i]; spans || e.Kind == noc.ProbeInject || e.Kind == noc.ProbeEject {
			flits.Feed(e) //nolint:errcheck // sticky: Spans().Err() reports it
		}
	}
}

// record is the trace writer's sink goroutine; a grant's link line follows it.
func (c *Collector) record() {
	defer c.sinkDone(1, time.Now())
	batch, tw := c.spare, c.tw
	for i := range batch {
		if tw.Record(&batch[i]); crossesLink(batch[i].Kind, batch[i].Dir) {
			tw.recordLink()
		}
	}
}

// sinkDone ends a sink goroutine begun at start, which nobody joins: a panic
// in it (a caller's io.Writer, say) is kept for await instead of ending the process.
func (c *Collector) sinkDone(sink int, start time.Time) {
	c.busy[sink] += time.Since(start)
	c.sinkPanic[sink] = recover()
	c.draining.Done()
}

// await blocks until no batch is being drained, then re-raises a sink's
// panic on the calling (simulation) goroutine with its original value.
func (c *Collector) await() {
	c.draining.Wait()
	for i, p := range c.sinkPanic {
		if p != nil {
			c.sinkPanic[i] = nil
			panic(p)
		}
	}
}

// sync folds everything accepted so far, the partial batch included:
// an accessor then reads what it would had the sinks run inline.
func (c *Collector) sync() { c.handOff(); c.await() }

// HandOffs returns the batches handed to the sinks, the simulation's wait for a free
// one (near the wall time: the sinks are the bound) and the fold's and encoder's busy time.
func (c *Collector) HandOffs() (n int64, waited, fold, encode time.Duration) {
	c.await()
	return c.handOffs, c.waited, c.busy[0], c.busy[1]
}

// OnCycle drives the gauge sampler (window boundaries only), tracks
// the last simulated cycle for the trailing partial window, carries the
// network counters across the warm-up reset that follows the warm-up's
// last cycle, and offers the engine collector an update every
// noc.CancelCheckStride cycles.
func (c *Collector) OnCycle(cycle int64) {
	c.lastCycle = cycle
	c.sampler.OnCycle(cycle)
	if cycle == c.warmup {
		c.sampler.carry()
	}
	if c.engine != nil && cycle%noc.CancelCheckStride == 0 {
		c.engine.update(time.Now(), false)
	}
}

// Close ends the observed run once: the trailing partial sample window
// (if the run stopped off a window boundary) is emitted, flagged
// partial in the series, and the engine collector takes its last
// update. Then it folds the last batch, lets go of both and flushes the
// trace writer, if any.
func (c *Collector) Close() error {
	if !c.finished {
		c.finished = true
		c.sampler.Final(c.lastCycle)
		if c.engine != nil {
			c.engine.close()
		}
	}
	c.sync()
	c.fill, c.spare = nil, nil
	if c.tw == nil {
		return nil
	}
	return c.tw.Close()
}

// Latency returns the per-flit/per-packet latency statistics observed so far.
func (c *Collector) Latency() LatencyStats {
	c.sync()
	return c.flits.lat.stats()
}

// Sampler returns the gauge sampler (time series access).
func (c *Collector) Sampler() *Sampler { return c.sampler }

// Spans returns the live span builder, folded up to the last event, or
// nil when Config.Spans is off. Read it before the next ProbeEvent.
func (c *Collector) Spans() *SpanBuilder {
	if !c.cfg.Spans {
		return nil
	}
	c.sync()
	return c.flits
}

// Summary is the JSON-serializable digest of one observed run: event
// counts, latency statistics and the sampled window count. exp-level
// sweeps aggregate these per point.
type Summary struct {
	Events  map[string]int64 `json:"events"`
	Latency LatencyStats     `json:"latency"`
	Windows int              `json:"windows"`
	Window  int64            `json:"window"`
	Traced  int64            `json:"traced_events,omitempty"`
}

// Summary digests the collector's current state.
func (c *Collector) Summary() Summary {
	s := Summary{Events: eventCounts(&c.counts), Latency: c.Latency(),
		Windows: c.sampler.Samples(), Window: c.sampler.Window()}
	if c.tw != nil {
		s.Traced = c.tw.Written()
	}
	return s
}

func eventCounts(counts *[noc.NumProbeKinds]int64) map[string]int64 {
	m := make(map[string]int64, len(counts))
	for k, n := range counts {
		m[noc.ProbeKind(k).String()] = n
	}
	return m
}
