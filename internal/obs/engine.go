package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/noc"
	"mira/internal/stats"
)

// Engine self-telemetry: where the *simulator's own* execution spends
// wall-clock time, as opposed to what the simulated network does. An
// EngineCollector pairs a noc.EngineMeter (per-shard cycle-phase wall
// time, boundary-mailbox crossings) with a wall-clock ticker goroutine
// that samples the meter, the Go runtime (heap, GC, goroutines) and an
// EMA-smoothed cycles/sec throughput with an ETA against the run's
// warmup+measure target.
//
// The out-of-band contract: nothing here ever feeds back into
// simulation state — wall-clock readings steer no simulated decision,
// so results are bit-identical with engine telemetry attached or
// detached (pinned by TestEngineTelemetryPurity). All surfaces (the
// live -progress line, the stats.Table summary, the mira_engine_*
// Prometheus families, the Perfetto engine track) are derived views of
// the same sampled series.

// DefaultEngineInterval is the wall-clock sampling period of the engine
// ticker when the scenario does not override it.
const DefaultEngineInterval = 500 * time.Millisecond

// emaAlpha smooths the cycles/sec estimate: ~70% of the weight sits in
// the last four windows, enough to ride out GC pauses without going
// stale on real throughput shifts.
const emaAlpha = 0.3

// maxEngineWindows bounds the retained sample series. When full, the
// series is compacted by merging adjacent window pairs (halving the
// resolution but keeping full run coverage), so memory stays bounded on
// arbitrarily long runs.
const maxEngineWindows = 4096

// imbalanceWarnMinCycles is the observation floor before the one-shot
// shard-imbalance warning may fire — short runs and warmup transients
// should not trigger advice.
const imbalanceWarnMinCycles = 10000

// EngineWindow is one ticker sample: the deltas accumulated since the
// previous tick plus the smoothed rate at that point. ShardBusyNs et
// al. are indexed by shard.
type EngineWindow struct {
	Cycle          int64   `json:"cycle"`   // simulated cycle at sample time
	WallMs         float64 `json:"wall_ms"` // wall offset from collector start
	Cycles         int64   `json:"cycles"`  // cycles stepped in this window
	Rate           float64 `json:"rate"`    // EMA cycles/sec after this window
	Imbalance      float64 `json:"imbalance,omitempty"`
	ShardBusyNs    []int64 `json:"shard_busy_ns"`
	ShardDrainNs   []int64 `json:"shard_drain_ns,omitempty"`
	ShardBarrierNs []int64 `json:"shard_barrier_ns,omitempty"`
}

// runtimeSample is one Go-runtime reading taken on the ticker.
type runtimeSample struct {
	HeapBytes  uint64 `json:"heap_bytes"`
	Goroutines int    `json:"goroutines"`
	NumGC      uint32 `json:"num_gc"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

// EngineSeries is the JSON-serializable record of one run's engine
// telemetry: the windowed series, the final meter snapshot and the last
// runtime reading. mirasim -enginejson writes it; miratrace spans
// -engine renders it as Perfetto counter tracks next to the flit spans
// of the same run.
type EngineSeries struct {
	Label      string             `json:"label,omitempty"`
	Shards     int                `json:"shards"`
	IntervalMs float64            `json:"interval_ms"`
	WallMs     float64            `json:"wall_ms"`
	Windows    []EngineWindow     `json:"windows"`
	Snapshot   noc.EngineSnapshot `json:"snapshot"`
	Runtime    runtimeSample      `json:"runtime"`
}

// ReadEngineSeries decodes a series written by WriteJSON.
func ReadEngineSeries(r io.Reader) (EngineSeries, error) {
	var es EngineSeries
	err := json.NewDecoder(r).Decode(&es)
	return es, err
}

// EngineProgress is one progress digest handed to the progress hook on
// every ticker sample.
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
// clears it). fn may be called concurrently from the ticker goroutines
// of simultaneously running collectors.
func SetEngineProgressHook(fn func(EngineProgress)) {
	if fn == nil {
		engineProgressHook.Store(nil)
		return
	}
	engineProgressHook.Store(&fn)
}

// EngineCollector samples one simulation's engine meter on a wall-clock
// ticker. Built by Collector.Attach when Config.Engine is set; Close
// (via Collector.Close) stops the ticker and takes a final sample.
type EngineCollector struct {
	meter    *noc.EngineMeter
	label    string
	target   int64 // warmup+measure cycles
	interval time.Duration
	start    time.Time

	// lastAdvance is the unix-nano time of the last tick that observed
	// cycle progress — the liveness signal behind /healthz: a hung shard
	// barrier stops advancing cycles while the process stays up.
	lastAdvance atomic.Int64

	mu        sync.Mutex
	last      noc.EngineSnapshot
	lastWall  time.Time
	ema       float64
	windows   []EngineWindow
	rt        runtimeSample
	imbCycles int64 // cycles observed under >2x imbalance
	obsCycles int64 // cycles observed across all windows
	warned    bool
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// newEngineCollector attaches an engine meter to the sim's network and
// starts the sampling ticker. Called from Collector.Attach.
func newEngineCollector(sim *noc.Sim, cfg Config) *EngineCollector {
	interval := cfg.EngineInterval
	if interval <= 0 {
		interval = DefaultEngineInterval
	}
	now := time.Now()
	ec := &EngineCollector{meter: sim.Net.EnableEngineMeter(), label: cfg.EngineLabel,
		target: sim.Params.Warmup + sim.Params.Measure, interval: interval, start: now, lastWall: now, done: make(chan struct{})}
	ec.lastAdvance.Store(now.UnixNano())
	ec.wg.Add(1)
	go ec.loop()
	return ec
}

func (ec *EngineCollector) loop() {
	defer ec.wg.Done()
	t := time.NewTicker(ec.interval)
	defer t.Stop()
	for {
		select {
		case <-ec.done:
			return
		case now := <-t.C:
			ec.sample(now)
		}
	}
}

// sample takes one ticker reading: meter deltas, runtime stats, EMA
// update, imbalance accounting, and fires the progress hook.
func (ec *EngineCollector) sample(now time.Time) {
	snap := ec.meter.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	ec.mu.Lock()
	dt := now.Sub(ec.lastWall).Seconds()
	dc := snap.Cycles - ec.last.Cycles
	if dc > 0 {
		ec.lastAdvance.Store(now.UnixNano())
	}
	if dt > 0 {
		inst := float64(dc) / dt
		if ec.ema == 0 {
			ec.ema = inst
		} else {
			ec.ema = emaAlpha*inst + (1-emaAlpha)*ec.ema
		}
	}
	w := EngineWindow{Cycle: snap.Cycles, WallMs: now.Sub(ec.start).Seconds() * 1e3, Cycles: dc, Rate: ec.ema,
		ShardBusyNs: make([]int64, len(snap.Shards))}
	S := len(snap.Shards)
	if S > 1 {
		w.ShardDrainNs = make([]int64, S)
		w.ShardBarrierNs = make([]int64, S)
	}
	var busySum, busyMax int64
	for i := range snap.Shards {
		var prev noc.EngineShardStat
		if i < len(ec.last.Shards) {
			prev = ec.last.Shards[i]
		}
		b := snap.Shards[i].BusyNs - prev.BusyNs
		w.ShardBusyNs[i] = b
		busySum, busyMax = busySum+b, max(busyMax, b)
		if S > 1 {
			w.ShardDrainNs[i] = snap.Shards[i].DrainNs - prev.DrainNs
			w.ShardBarrierNs[i] = snap.Shards[i].BarrierNs - prev.BarrierNs
		}
	}
	if S > 1 && busySum > 0 {
		w.Imbalance = float64(busyMax) * float64(S) / float64(busySum)
		ec.obsCycles += dc
		if w.Imbalance > 2 {
			ec.imbCycles += dc
		}
	}
	ec.windows = append(ec.windows, w)
	if len(ec.windows) >= maxEngineWindows {
		ec.windows = compactWindows(ec.windows)
	}
	ec.last = snap
	ec.lastWall = now
	ec.rt = runtimeSample{HeapBytes: ms.HeapAlloc, Goroutines: runtime.NumGoroutine(), NumGC: ms.NumGC, GCPauseNs: ms.PauseTotalNs}
	warnNow := !ec.warned && S > 1 && ec.obsCycles >= imbalanceWarnMinCycles && ec.imbCycles*4 > ec.obsCycles
	ec.warned = ec.warned || warnNow
	progress := ec.progressLocked(snap)
	imbFrac := 0.0
	if ec.obsCycles > 0 {
		imbFrac = float64(ec.imbCycles) / float64(ec.obsCycles)
	}
	ec.mu.Unlock()

	if warnNow {
		slog.Warn("shard load imbalance: the hottest shard ran more than 2x the mean busy time",
			"label", ec.label, "shards", S,
			"imbalanced_cycle_frac", fmt.Sprintf("%.2f", imbFrac),
			"hint", "consider -set shards=-1 to auto-tune the shard count")
	}
	if fn := engineProgressHook.Load(); fn != nil {
		(*fn)(progress)
	}
}

// compactWindows merges adjacent window pairs, halving the series while
// keeping full-run coverage (deltas sum; point-in-time fields take the
// later window's value).
func compactWindows(in []EngineWindow) []EngineWindow {
	out := in[:0]
	for i := 0; i+1 < len(in); i += 2 {
		a, b := in[i], in[i+1]
		m := b
		m.Cycles = a.Cycles + b.Cycles
		for s := range m.ShardBusyNs {
			m.ShardBusyNs[s] += a.ShardBusyNs[s]
		}
		for s := range m.ShardDrainNs {
			m.ShardDrainNs[s] += a.ShardDrainNs[s]
		}
		for s := range m.ShardBarrierNs {
			m.ShardBarrierNs[s] += a.ShardBarrierNs[s]
		}
		m.Imbalance = max(m.Imbalance, a.Imbalance)
		out = append(out, m)
	}
	if len(in)%2 == 1 {
		out = append(out, in[len(in)-1])
	}
	return out
}

// progressLocked builds the hook payload; ec.mu must be held.
func (ec *EngineCollector) progressLocked(snap noc.EngineSnapshot) EngineProgress {
	return EngineProgress{Label: ec.label, Cycle: snap.Cycles, Target: ec.target, Rate: ec.ema,
		ETA: time.Duration(ec.eta(snap.Cycles, ec.ema) * float64(time.Second)), Imbalance: snap.ImbalanceRatio(), Shards: len(snap.Shards)}
}

// eta is the seconds left to the target at rate cycles/s, 0 when unknown or past it.
func (ec *EngineCollector) eta(cycles int64, rate float64) float64 {
	if rem := ec.target - cycles; ec.target > 0 && rem > 0 && rate > 0 {
		return float64(rem) / rate
	}
	return 0
}

// Close stops the ticker and takes a final sample so short runs (under
// one interval) still record a window. Idempotent.
func (ec *EngineCollector) Close() {
	ec.mu.Lock()
	if ec.closed {
		ec.mu.Unlock()
		return
	}
	ec.closed = true
	ec.mu.Unlock()
	close(ec.done)
	ec.wg.Wait()
	ec.sample(time.Now())
}

// LastProgress returns the wall time of the last tick that observed
// cycle progress (collector start before the first). The /healthz
// liveness check compares it against a stall threshold.
func (ec *EngineCollector) LastProgress() time.Time {
	return time.Unix(0, ec.lastAdvance.Load())
}

// Snapshot returns the meter's current totals.
func (ec *EngineCollector) Snapshot() noc.EngineSnapshot { return ec.meter.Snapshot() }

// Rate returns the current EMA-smoothed cycles/sec.
func (ec *EngineCollector) Rate() float64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.ema
}

// Series exports the sampled telemetry for JSON serialization.
func (ec *EngineCollector) Series() EngineSeries {
	snap := ec.meter.Snapshot()
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return EngineSeries{Label: ec.label, Shards: len(snap.Shards), IntervalMs: float64(ec.interval) / float64(time.Millisecond),
		WallMs: ec.lastWall.Sub(ec.start).Seconds() * 1e3, Windows: slices.Clone(ec.windows), Snapshot: snap, Runtime: ec.rt}
}

// WriteJSON writes the engine series as indented JSON.
func (ec *EngineCollector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ec.Series())
}

// PromSamples renders the meter and runtime state as mira_engine_*
// exposition samples, attaching extra labels to each. Safe to call from
// a serving goroutine while the simulation runs.
func (ec *EngineCollector) PromSamples(extra [][2]string) []PromSample {
	snap := ec.meter.Snapshot()
	ec.mu.Lock()
	ema := ec.ema
	rt := ec.rt
	ec.mu.Unlock()

	add := func(out []PromSample, name string, v float64, labels ...[2]string) []PromSample {
		s := PromSample{Name: name, Value: v, Labels: append(append([][2]string{}, extra...), labels...)}
		return append(out, s)
	}
	var out []PromSample
	out = add(out, "mira_engine_cycles_total", float64(snap.Cycles))
	out = add(out, "mira_engine_cycles_per_second", ema)
	out = add(out, "mira_engine_eta_seconds", ec.eta(snap.Cycles, ema))
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
	out = add(out, "mira_engine_heap_bytes", float64(rt.HeapBytes))
	out = add(out, "mira_engine_goroutines", float64(rt.Goroutines))
	out = add(out, "mira_engine_gc_total", float64(rt.NumGC))
	out = add(out, "mira_engine_gc_pause_seconds_total", float64(rt.GCPauseNs)/1e9)
	return out
}

// Table renders the end-of-run engine summary (mirasim -enginestats,
// scenario observe.engine). Values are host wall-clock measurements and
// therefore vary run to run — by design this table is never part of the
// byte-identical result contract.
func (ec *EngineCollector) Table() stats.Table {
	snap := ec.meter.Snapshot()
	ec.mu.Lock()
	ema := ec.ema
	rt := ec.rt
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
		fmt.Sprintf("cycles=%d wall=%.2fs step=%.2fs rate=%s cyc/s (EMA) ring_words=%.1f/kcycle gen_busy=%.2fs gen_wait=%.2fs",
			snap.Cycles, wall, float64(snap.StepNs)/1e9, humanRate(ema), float64(snap.RingWords)/kcycles,
			float64(snap.GenBusyNs)/1e9, float64(snap.GenWaitNs)/1e9),
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
			float64(rt.HeapBytes)/(1<<20), rt.Goroutines, rt.NumGC, float64(rt.GCPauseNs)/1e6),
		"host wall-clock only; simulated results are unaffected (DESIGN.md, Engine telemetry)")
	return t
}
