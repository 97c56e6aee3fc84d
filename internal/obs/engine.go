package obs

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/noc"
	"mira/internal/stats"
)

// Engine self-telemetry: where the *simulator's own* execution spends
// wall-clock time, as opposed to what the simulated network does. An
// EngineCollector reads a noc.EngineMeter (per-shard cycle-phase wall
// time, boundary-mailbox crossings) in two ways. Its engine.* counters
// are columns of the collector's Sampler, so the windowed series of a
// run carries the engine's cost beside the network's activity. Its live
// surfaces (the progress hook with an ETA against the run's
// warmup+measure target, the cycles/sec rate and the /healthz liveness
// stamp) are refreshed from Collector.OnCycle at most every
// DefaultEngineInterval of wall time, and once more at Close.
//
// The out-of-band contract: nothing here ever feeds back into
// simulation state — wall-clock readings steer no simulated decision,
// so results are bit-identical with engine telemetry attached or
// detached (pinned by TestEngineTelemetryPurity). The stats.Table
// summary and the mira_engine_* Prometheus families read the meter
// when they render.

// DefaultEngineInterval is the least wall time between two updates of
// the live surfaces.
const DefaultEngineInterval = 500 * time.Millisecond

// imbalanceWarnMinCycles is the run length before the one-shot
// shard-imbalance warning may fire — short runs and warmup transients
// should not trigger advice.
const imbalanceWarnMinCycles = 10000

// EngineProgress is one progress digest handed to the progress hook on
// every update of the live surfaces.
type EngineProgress struct {
	Label     string
	Cycle     int64
	Target    int64 // warmup+measure cycles; 0 = unknown
	Rate      float64
	ETA       time.Duration // 0 = unknown, past target, or draining
	Imbalance float64
	Shards    int
}

// String renders the single-line form used by mirasim -progress.
func (p EngineProgress) String() string {
	s := fmt.Sprintf("cycle %d", p.Cycle)
	if p.Target > 0 {
		s += fmt.Sprintf("/%d", p.Target)
	}
	s += "  " + humanRate(p.Rate) + " cyc/s"
	if p.ETA > 0 {
		s += "  eta " + p.ETA.Round(time.Second).String()
	}
	if p.Shards > 1 {
		s += fmt.Sprintf("  imb %.2fx (%d shards)", p.Imbalance, p.Shards)
	}
	return s
}

// humanRate formats cycles/sec with an SI suffix.
func humanRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// engineProgressHook is the process-wide progress sink, installed once
// at command startup (mirasim -progress; mirabench, for points with
// observe.engine). A package global rather than per-collector plumbing
// because collectors are built deep inside scenario elaboration, where
// no command-level writer is in scope; the hook receives the label so
// concurrent batch runs stay distinguishable.
var engineProgressHook atomic.Pointer[func(EngineProgress)]

// SetEngineProgressHook installs fn as the global progress sink (nil
// clears it). fn may be called concurrently from the simulation
// goroutines of simultaneously running collectors.
func SetEngineProgressHook(fn func(EngineProgress)) {
	if fn == nil {
		engineProgressHook.Store(nil)
		return
	}
	engineProgressHook.Store(&fn)
}

// EngineCollector reads one simulation's engine meter. Built by New
// when Config.Engine is set; Collector.OnCycle drives its live surfaces
// and Collector.Close takes the last update.
type EngineCollector struct {
	meter  *noc.EngineMeter
	label  string
	target int64 // warmup+measure cycles, set by Collector.Attach
	start  time.Time

	// lastAdvance is the unix-nano time of the last update that observed
	// cycle progress — the liveness signal behind /healthz: a hung shard
	// barrier stops the updates while the process stays up.
	lastAdvance atomic.Int64

	mu         sync.Mutex
	lastCycles int64
	lastWall   time.Time
	rate       float64 // cycles per wall second between the last two updates
}

// newEngineCollector attaches an engine meter to net and registers its
// engine.* counters in reg: the collector's wall time, the time inside
// Network.Step, and each shard's busy, drain and barrier time, all in
// nanoseconds. Called from New before the sampler is built.
func newEngineCollector(net *noc.Network, reg *Registry, label string) *EngineCollector {
	now := time.Now()
	ec := &EngineCollector{meter: net.EnableEngineMeter(), label: label, start: now, lastWall: now}
	ec.lastAdvance.Store(now.UnixNano())
	col := func(name string, read func(*noc.EngineSnapshot) int64) {
		reg.Counter(Metric{Name: "engine." + name}, func() float64 {
			snap := ec.meter.Snapshot()
			return float64(read(&snap))
		})
	}
	reg.Counter(Metric{Name: "engine.wall_ns"}, func() float64 { return float64(time.Since(ec.start)) })
	col("step_ns", func(s *noc.EngineSnapshot) int64 { return s.StepNs })
	for k := range net.Shards() {
		col(fmt.Sprintf("shard%d.busy_ns", k), func(s *noc.EngineSnapshot) int64 { return s.Shards[k].BusyNs })
		col(fmt.Sprintf("shard%d.drain_ns", k), func(s *noc.EngineSnapshot) int64 { return s.Shards[k].DrainNs })
		col(fmt.Sprintf("shard%d.barrier_ns", k), func(s *noc.EngineSnapshot) int64 { return s.Shards[k].BarrierNs })
	}
	return ec
}

// update refreshes the live surfaces at wall time now: the rate over the
// cycles since the previous update, the liveness stamp and the progress
// hook. Unless final, it does nothing until DefaultEngineInterval has
// passed since the previous update. The time is an argument so tests
// can drive the throttle with synthetic times.
func (ec *EngineCollector) update(now time.Time, final bool) {
	ec.mu.Lock()
	dt := now.Sub(ec.lastWall)
	if !final && dt < DefaultEngineInterval {
		ec.mu.Unlock()
		return
	}
	snap := ec.meter.Snapshot()
	dc := snap.Cycles - ec.lastCycles
	if dc > 0 {
		ec.lastAdvance.Store(now.UnixNano())
	}
	if dt > 0 && (dc > 0 || !final) {
		ec.rate = float64(dc) / dt.Seconds()
	}
	ec.lastCycles, ec.lastWall = snap.Cycles, now
	progress := EngineProgress{Label: ec.label, Cycle: snap.Cycles, Target: ec.target, Rate: ec.rate,
		ETA: time.Duration(ec.eta(snap.Cycles, ec.rate) * float64(time.Second)), Imbalance: snap.ImbalanceRatio(), Shards: len(snap.Shards)}
	ec.mu.Unlock()
	if fn := engineProgressHook.Load(); fn != nil {
		(*fn)(progress)
	}
}

// eta is the seconds left to the target at rate cycles/s, 0 when unknown or past it.
func (ec *EngineCollector) eta(cycles int64, rate float64) float64 {
	if rem := ec.target - cycles; ec.target > 0 && rem > 0 && rate > 0 {
		return float64(rem) / rate
	}
	return 0
}

// close takes the final update and, on a long sharded run whose hottest
// shard was busy more than twice the mean, logs a one-shot hint.
func (ec *EngineCollector) close() {
	ec.update(time.Now(), true)
	snap := ec.meter.Snapshot()
	if imb := snap.ImbalanceRatio(); len(snap.Shards) > 1 && snap.Cycles >= imbalanceWarnMinCycles && imb > 2 {
		slog.Warn("shard load imbalance: the hottest shard ran more than 2x the mean busy time",
			"label", ec.label, "shards", len(snap.Shards), "imbalance", fmt.Sprintf("%.2f", imb),
			"hint", "consider -set shards=-1 to auto-tune the shard count")
	}
}

// LastProgress returns the wall time of the last update that observed
// cycle progress (collector start before the first). The /healthz
// liveness check compares it against a stall threshold.
func (ec *EngineCollector) LastProgress() time.Time {
	return time.Unix(0, ec.lastAdvance.Load())
}

// PromSamples renders the meter and runtime state as mira_engine_*
// exposition samples, attaching extra labels to each. Safe to call from
// a serving goroutine while the simulation runs.
func (ec *EngineCollector) PromSamples(extra [][2]string) []PromSample {
	snap := ec.meter.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ec.mu.Lock()
	rate := ec.rate
	ec.mu.Unlock()

	add := func(out []PromSample, name string, v float64, labels ...[2]string) []PromSample {
		s := PromSample{Name: name, Value: v, Labels: append(append([][2]string{}, extra...), labels...)}
		return append(out, s)
	}
	var out []PromSample
	out = add(out, "mira_engine_cycles_total", float64(snap.Cycles))
	out = add(out, "mira_engine_cycles_per_second", rate)
	out = add(out, "mira_engine_eta_seconds", ec.eta(snap.Cycles, rate))
	for _, s := range snap.Shards {
		lab := [2]string{"shard", fmt.Sprintf("%d", s.Shard)}
		out = add(out, "mira_engine_shard_busy_seconds", float64(s.BusyNs)/1e9, lab)
		out = add(out, "mira_engine_shard_drain_seconds", float64(s.DrainNs)/1e9, lab)
		out = add(out, "mira_engine_shard_barrier_seconds", float64(s.BarrierNs)/1e9, lab)
	}
	out = add(out, "mira_engine_shard_imbalance_ratio", snap.ImbalanceRatio())
	for _, mb := range snap.Mailbox {
		labs := [][2]string{{"src", fmt.Sprintf("%d", mb.Src)}, {"dst", fmt.Sprintf("%d", mb.Dst)}}
		out = add(out, "mira_engine_mailbox_flits_total", float64(mb.Flits), labs...)
		out = add(out, "mira_engine_mailbox_credits_total", float64(mb.Credits), labs...)
	}
	out = add(out, "mira_engine_pool_workers", float64(len(snap.Shards)))
	out = add(out, "mira_engine_pool_utilization", snap.Utilization())
	out = add(out, "mira_engine_pool_parks_total", float64(snap.Parks))
	out = add(out, "mira_engine_heap_bytes", float64(ms.HeapAlloc))
	out = add(out, "mira_engine_goroutines", float64(runtime.NumGoroutine()))
	out = add(out, "mira_engine_gc_total", float64(ms.NumGC))
	out = add(out, "mira_engine_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)
	return out
}

// Table renders the end-of-run engine summary (mirasim -enginestats,
// scenario observe.engine). Values are host wall-clock measurements and
// therefore vary run to run — by design this table is never part of the
// byte-identical result contract.
func (ec *EngineCollector) Table() stats.Table {
	snap := ec.meter.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ec.mu.Lock()
	wall := ec.lastWall.Sub(ec.start).Seconds()
	ec.mu.Unlock()

	t := stats.Table{
		Title:  "engine telemetry",
		Header: []string{"shard", "routers", "busy_s", "drain_s", "barrier_s", "busy_pct", "cycles"},
	}
	for _, s := range snap.Shards {
		pct := 0.0
		if snap.StepNs > 0 {
			pct = 100 * float64(s.BusyNs) / float64(snap.StepNs)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%d", s.Routers),
			fmt.Sprintf("%.3f", float64(s.BusyNs)/1e9),
			fmt.Sprintf("%.3f", float64(s.DrainNs)/1e9),
			fmt.Sprintf("%.3f", float64(s.BarrierNs)/1e9),
			fmt.Sprintf("%.1f", pct),
			fmt.Sprintf("%d", s.Cycles),
		})
	}
	kcycles := max(float64(snap.Cycles)/1e3, 1e-3)
	t.Notes = append(t.Notes,
		fmt.Sprintf("cycles=%d wall=%.2fs step=%.2fs rate=%s cyc/s ring_words=%.1f/kcycle",
			snap.Cycles, wall, float64(snap.StepNs)/1e9, humanRate(float64(snap.Cycles)/max(wall, 1e-9)), float64(snap.RingWords)/kcycles),
		fmt.Sprintf("pool: %d workers, utilization %.0f%%, imbalance %.2fx (max/mean shard busy), %d parks",
			len(snap.Shards), 100*snap.Utilization(), snap.ImbalanceRatio(), snap.Parks))
	if len(snap.Mailbox) > 0 {
		var flits, creds int64
		hot := snap.Mailbox[0]
		for _, mb := range snap.Mailbox {
			flits += mb.Flits
			creds += mb.Credits
			if mb.Flits > hot.Flits {
				hot = mb
			}
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("mailbox: %d flits, %d credits across %d shard pairs; hottest %d->%d (%d flits)",
				flits, creds, len(snap.Mailbox), hot.Src, hot.Dst, hot.Flits))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("runtime: heap %.1f MB, %d goroutines, %d GCs, %.1f ms GC pause",
			float64(ms.HeapAlloc)/(1<<20), runtime.NumGoroutine(), ms.NumGC, float64(ms.PauseTotalNs)/1e6),
		"host wall-clock only; simulated results are unaffected (DESIGN.md, Engine telemetry)")
	return t
}
