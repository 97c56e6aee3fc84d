package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mira/internal/noc"
	"mira/internal/scenario"
	"mira/internal/stats"
)

// childEnv marks a process as one repetition: the harness re-executes
// itself with it set, writes a childSpec to the child's stdin and reads
// a childReport from its stdout.
const childEnv = "MIRA_BENCH_CHILD"

// childSpec is everything a repetition receives. Scenario is the
// generated input (committed workload + seed); the simulator sees
// nothing else.
type childSpec struct {
	Workload string          `json:"workload"`
	Rep      int             `json:"rep"`
	Scenario json.RawMessage `json:"scenario"`
	// Traced selects the harness-driven loop with spans around every
	// call into a layer; otherwise the repetition is Sim.Run, untouched.
	Traced bool `json:"traced"`
	// Meter attaches noc's engine meter to the traced loop (the
	// mesh16_* workloads, where shard time is the question).
	Meter bool `json:"meter"`
	// SpanDump is where the traced loop writes its spans ("" = nowhere).
	SpanDump string `json:"span_dump"`
}

// childReport is what a repetition measured.
type childReport struct {
	DecodeS    float64         `json:"decode_s"`
	ElaborateS float64         `json:"elaborate_s"` // Validate + Elaborate
	SetupS     float64         `json:"setup_s"`     // Decode through SetTraceWriter; median of childSetups
	WallS      float64         `json:"wall_s"`      // the run, plus Obs.Close where attached
	Mallocs    uint64          `json:"mallocs"`     // heap objects allocated during the run
	KCycles    float64         `json:"kcycles"`     // (warmup + measure) / 1000
	FlitHops   int64           `json:"flit_hops"`   // crossbar traversals after warm-up
	Result     json.RawMessage `json:"result"`      // noc.Result
	// Layers holds the traced loop's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// childSetups is how many times a repetition sets up before it runs.
const childSetups = 5

// countingWriter is the trace sink of the observed workload: it makes
// the JSONL writer do all its work and keeps only the size.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

func childMain() {
	var spec childSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: spec:", err)
		os.Exit(2)
	}
	rep, err := runChild(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: report:", err)
		os.Exit(1)
	}
}

func runChild(spec childSpec) (*childReport, error) {
	var cost timerCost
	if spec.Traced {
		cost = calibrate()
	}

	// Set-up runs childSetups times and the medians are reported: one
	// sub-millisecond elaboration is at the mercy of a single page fault
	// or preemption. The last elaboration is the one that runs.
	var sc scenario.Scenario
	var e *scenario.Elaboration
	var sink *countingWriter
	var decode, elaborate, setup []float64
	var err error
	for i := 0; i < childSetups; i++ {
		t0 := time.Now()
		if sc, err = scenario.Decode(spec.Scenario); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if e, err = sc.Elaborate(); err != nil {
			return nil, err
		}
		if e.Obs != nil {
			sink = &countingWriter{}
			e.Obs.SetTraceWriter(sink)
		}
		t2 := time.Now()
		decode = append(decode, t1.Sub(t0).Seconds())
		elaborate = append(elaborate, t2.Sub(t1).Seconds())
		setup = append(setup, t2.Sub(t0).Seconds())
	}

	rep := &childReport{
		DecodeS:    median(decode),
		ElaborateS: median(elaborate),
		SetupS:     median(setup),
		KCycles:    float64(sc.Warmup+sc.Measure) / 1000,
	}

	var res noc.Result
	var before, after runtime.MemStats
	if spec.Traced {
		tr := newTracer()
		var meter *noc.EngineMeter
		if spec.Meter {
			meter = e.Net.EnableEngineMeter()
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		var ts tracedStats
		res, ts, err = runTraced(e, tr)
		rep.WallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		rep.Layers = layerMetrics(e, tr, cost, &res, ts, meter, sink)
		rep.Layers["scenario.decode_s"] = rep.DecodeS
		rep.Layers["scenario.elaborate_s"] = rep.ElaborateS
		if spec.SpanDump != "" {
			err := tr.dump(spec.SpanDump, map[string]any{
				"workload": spec.Workload, "rep": spec.Rep, "seed": sc.Seed,
				"timer_pair_ns": cost.Pair.Nanoseconds(), "timer_inside_ns": cost.Inside.Nanoseconds(),
			})
			if err != nil {
				return nil, fmt.Errorf("span dump: %w", err)
			}
		}
	} else {
		runtime.ReadMemStats(&before)
		start := time.Now()
		res = e.Sim.Run(context.Background())
		if e.Obs != nil {
			if err := e.Obs.Close(); err != nil {
				return nil, fmt.Errorf("obs close: %w", err)
			}
		}
		rep.WallS = time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
	}
	rep.Mallocs = after.Mallocs - before.Mallocs
	tc := e.Net.TotalCounters()
	rep.FlitHops = tc.XbarFlits
	if rep.Result, err = json.Marshal(&res); err != nil {
		return nil, err
	}
	return rep, nil
}

// probeSpan forwards probe events to the collector inside a span.
type probeSpan struct {
	tr    *tracer
	inner noc.Probe
}

func (p *probeSpan) ProbeEvent(ev noc.ProbeEvent) {
	p.tr.begin(spanProbe)
	p.inner.ProbeEvent(ev)
	p.tr.end()
}

// tracedStats are the counts the traced loop takes at its own
// boundaries.
type tracedStats struct {
	GenCalls, GenPackets int64
	Cycles               int64 // cycles stepped
	LastMeasuredEject    int64 // cycle of the last measured ejection
}

// stallWindow is Sim.Run's drain watchdog: this many drain cycles
// without the backlog shrinking end the run as stalled.
const stallWindow = 5000

// runTraced is Sim.Run driven from here, statement for statement except
// for context polling, so that each call into a layer — generator,
// Enqueue, Step, and the callbacks Step makes: probe, ejection, the
// collective engine's delivery hook — sits inside a span. The digest
// check holds it to Sim.Run's result.
func runTraced(e *scenario.Elaboration, tr *tracer) (noc.Result, tracedStats, error) {
	net, gen, p := e.Net, e.Gen, e.Sim.Params
	defer net.ReleaseWorkers()
	cfg := net.Config()
	nodes := float64(cfg.Topo.NumNodes())
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := noc.Result{Cycles: p.Measure}
	hist := stats.NewHistogram(4096)
	var ts tracedStats
	var latSum, hopSum, queueSum float64
	var flitsEjected int64
	var classLat, classHops [noc.NumClasses]float64

	if e.Obs != nil {
		net.SetProbe(&probeSpan{tr: tr, inner: e.Obs})
	}
	onDeliver := e.Sim.OnEject
	net.SetEjectHandler(func(pkt *noc.Packet) {
		tr.begin(spanEject)
		defer tr.end()
		if onDeliver != nil {
			tr.begin(spanDeliver)
			onDeliver(pkt)
			tr.end()
		}
		if !pkt.Measured {
			return
		}
		res.Ejected++
		ts.LastMeasuredEject = pkt.EjectedAt
		lat := pkt.EjectedAt - pkt.CreatedAt
		latSum += float64(lat)
		hopSum += float64(pkt.Hops)
		queueSum += float64(pkt.InjectedAt - pkt.CreatedAt)
		hist.Add(int(lat))
		flitsEjected += int64(pkt.Size)
		res.PerClass[pkt.Class].Ejected++
		classLat[pkt.Class] += float64(lat)
		classHops[pkt.Class] += float64(pkt.Hops)
	})

	measureStart, measureEnd := p.Warmup, p.Warmup+p.Measure
	end := measureEnd + p.DrainMax
	var backlogStart, lastProgress int64
	minBacklog := int64(-1)
	var specs []noc.Spec

	tr.begin(spanRun)
	for cycle := int64(0); cycle < end; cycle++ {
		if cycle == measureStart {
			net.ResetCounters()
			backlogStart = net.BacklogFlits()
		}
		if cycle == measureEnd {
			res.Counters = net.TotalCounters()
			res.PerRouter = net.RouterCounters()
			growth := net.BacklogFlits() - backlogStart
			res.Saturated = float64(growth) > 0.005*float64(p.Measure)*nodes
		}
		if cycle < measureEnd {
			tr.begin(spanGenerate)
			specs = gen.Generate(cycle, rng, specs[:0])
			tr.end()
			ts.GenCalls++
			ts.GenPackets += int64(len(specs))
			for _, spec := range specs {
				tr.begin(spanEnqueue)
				pkt, err := net.Enqueue(spec)
				tr.end()
				if err != nil {
					return res, ts, fmt.Errorf("enqueue at cycle %d: %w", cycle, err)
				}
				if cycle >= measureStart {
					pkt.Measured = true
					res.Generated++
				}
			}
		} else if res.Ejected == res.Generated && net.Idle() {
			break
		}
		if cycle >= measureEnd {
			if b := net.BacklogFlits(); minBacklog < 0 || b < minBacklog {
				minBacklog = b
				lastProgress = cycle
			} else if cycle-lastProgress > stallWindow {
				res.Stalled = true
				break
			}
		}
		tr.begin(spanStep)
		net.Step()
		tr.end()
		if e.Obs != nil {
			tr.begin(spanOnCycle)
			e.Obs.OnCycle(net.Cycle())
			tr.end()
		}
	}
	var closeErr error
	if e.Obs != nil {
		tr.begin(spanObsClose)
		closeErr = e.Obs.Close()
		tr.end()
	}
	tr.end()
	if closeErr != nil {
		return res, ts, fmt.Errorf("obs close: %w", closeErr)
	}
	ts.Cycles = net.Cycle()

	if res.Ejected > 0 {
		res.AvgLatency = latSum / float64(res.Ejected)
		res.AvgHops = hopSum / float64(res.Ejected)
		res.AvgQueueDelay = queueSum / float64(res.Ejected)
		res.P99Latency = hist.Percentile(0.99)
	}
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		if n := res.PerClass[c].Ejected; n > 0 {
			res.PerClass[c].AvgLatency = classLat[c] / float64(n)
			res.PerClass[c].AvgHops = classHops[c] / float64(n)
		}
	}
	if res.Cycles > 0 {
		res.ThroughputFPC = float64(flitsEjected) / float64(res.Cycles) / nodes
	}
	if res.Ejected < res.Generated {
		res.Saturated = true
	}
	return res, ts, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics turns the traced loop's spans and the layers' own
// counters into the per-layer metrics a scenario repetition can know;
// the harness adds the ones that need other repetitions.
func layerMetrics(e *scenario.Elaboration, tr *tracer, cost timerCost, res *noc.Result,
	ts tracedStats, meter *noc.EngineMeter, sink *countingWriter) map[string]float64 {
	self := func(id spanID) float64 { return tr.self(id, cost).Seconds() }
	tc := e.Net.TotalCounters()
	m := map[string]float64{
		"gen.generate_s": self(spanGenerate),
		"gen.calls":      float64(ts.GenCalls),
		"gen.packets":    float64(ts.GenPackets),

		"noc.step_s":         self(spanStep),
		"noc.enqueue_s":      self(spanEnqueue),
		"noc.flit_hops":      float64(tc.XbarFlits),
		"noc.sa_grant_ratio": ratio(tc.SAGrants, tc.SAReqs),
		"noc.va_grant_ratio": ratio(tc.VAGrants, tc.VAReqs),
		"noc.credit_stalls":  float64(tc.CreditStalls),
		"noc.ser_stalls":     float64(tc.SerStalls),
		"noc.d2d_flits":      float64(tc.D2DFlits),

		"sim.eject_s":            self(spanEject),
		"sim.cycles":             float64(ts.Cycles),
		"sim.drain_tail_cycles":  float64(ts.Cycles - ts.LastMeasuredEject),
		"sim.packets_ejected":    float64(res.Ejected),
		"sim.avg_latency_cycles": res.AvgLatency,
		"sim.p99_latency_cycles": float64(res.P99Latency),
		"sim.throughput_fpc":     res.ThroughputFPC,

		"collective.deliver_s": self(spanDeliver),

		"obs.probe_s":      self(spanProbe),
		"obs.probe_events": float64(tr.totals[spanProbe].Calls),
		"obs.oncycle_s":    self(spanOnCycle),
		"obs.close_s":      self(spanObsClose),

		"bench.timer_ns": float64(cost.Pair.Nanoseconds()),
	}
	if ts.Cycles > 0 {
		m["noc.step_ns_per_cycle"] = self(spanStep) * 1e9 / float64(ts.Cycles)
	}
	if res.Stalled {
		m["sim.stalled"] = 1
	}
	if meter != nil {
		snap := meter.Snapshot()
		for _, sh := range snap.Shards {
			m["shard.busy_s"] += float64(sh.BusyNs) / 1e9
			m["shard.drain_s"] += float64(sh.DrainNs) / 1e9
			m["shard.barrier_s"] += float64(sh.BarrierNs) / 1e9
		}
		for _, mb := range snap.Mailbox {
			m["shard.mailbox_flits"] += float64(mb.Flits)
			m["shard.mailbox_credits"] += float64(mb.Credits)
		}
		m["shard.utilization"] = snap.Utilization()
		m["shard.imbalance_ratio"] = snap.ImbalanceRatio()
	}
	if c := e.Collective; c != nil {
		r := c.Report()
		m["collective.iterations_done"] = float64(r.Completed)
		m["collective.iteration_cycles"] = r.Iteration.Mean()
	}
	if e.Obs != nil {
		m["obs.trace_bytes"] = float64(sink.n)
		if sb := e.Obs.Spans(); sb != nil {
			m["obs.spans"] = float64(len(sb.Spans()))
		}
	}
	return m
}
