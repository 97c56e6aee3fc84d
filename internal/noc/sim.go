package noc

import (
	"context"
	"fmt"
	"math/rand"

	"mira/internal/stats"
)

// Generator produces packets for injection. Implementations live in
// internal/traffic and internal/cmp.
type Generator interface {
	// Generate appends the packets to enqueue at the given cycle to
	// specs and returns the extended slice. The simulator reuses the
	// backing slice, so steady-state generation is allocation-free;
	// implementations must not retain the slice across calls. The rng is
	// owned by the simulation and seeded from Config.Seed. Sim.Run calls
	// Generate once per cycle, from cycle 0 and in order, on Run's own
	// goroutine, so a generator may keep state between cycles and draw
	// from rng only when it has something to generate.
	Generate(cycle int64, rng *rand.Rand, specs []Spec) []Spec
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(cycle int64, rng *rand.Rand, specs []Spec) []Spec

// Generate implements Generator.
func (f GeneratorFunc) Generate(cycle int64, rng *rand.Rand, specs []Spec) []Spec {
	return f(cycle, rng, specs)
}

// SimParams controls a simulation run.
type SimParams struct {
	// Warmup cycles are simulated but not measured. Measure cycles
	// follow; packets created during them are tagged and contribute to
	// latency. DrainMax bounds the drain phase that lets measured
	// packets complete.
	Warmup   int64
	Measure  int64
	DrainMax int64
}

// DefaultSimParams returns the settings used throughout the experiments.
func DefaultSimParams() SimParams {
	return SimParams{Warmup: 10000, Measure: 20000, DrainMax: 30000}
}

// Result summarizes one simulation run. It is JSON-serializable for the
// batch/serving layer (internal/scenario); the latency histogram is
// host-side state and is not serialized.
type Result struct {
	Cycles        int64   `json:"cycles"`    // measurement window length (simulated so far if Canceled)
	Generated     int64   `json:"generated"` // measured packets created
	Ejected       int64   `json:"ejected"`   // measured packets delivered
	AvgLatency    float64 `json:"avg_latency"`
	P99Latency    int     `json:"p99_latency"`
	AvgHops       float64 `json:"avg_hops"`
	AvgQueueDelay float64 `json:"avg_queue_delay"` // creation -> injection
	// ThroughputFPC is accepted flits per node per cycle during the
	// measurement window.
	ThroughputFPC float64 `json:"throughput_fpc"`
	// Saturated is set when the network backlog (queued + in-flight
	// flits) grew materially across the measurement window, i.e. the
	// offered load exceeds the network's accepted throughput.
	Saturated bool `json:"saturated"`
	// Canceled is set when the run's context was canceled (or timed
	// out) before the simulation completed. The result then carries the
	// partial counters accumulated up to the cancellation point: Cycles
	// is the number of measurement cycles actually simulated, and the
	// averages cover the packets ejected so far. Canceled is about the
	// host run, Stalled about the simulated protocol, Saturated about
	// the offered load.
	Canceled bool `json:"canceled,omitempty"`
	// Stalled is set when the drain phase made no ejection progress for
	// a long window while traffic remained — the signature of a
	// protocol/routing deadlock rather than mere congestion. The engine
	// itself is deadlock-free for the shipped configurations; this
	// flags misuse (e.g. request-response traffic sharing one VC).
	Stalled bool `json:"stalled,omitempty"`
	// PerClass carries per-message-class latency and counts (control
	// request packets vs data responses behave very differently in the
	// bimodal NUCA traffic).
	PerClass [NumClasses]ClassResult `json:"per_class"`
	// Counters holds the switching activity of the measurement window.
	Counters Counters `json:"counters"`
	// PerRouter holds per-router measurement-window counters for the
	// thermal model.
	PerRouter []Counters `json:"per_router,omitempty"`

	latHist *stats.Histogram
}

// WithoutHistogram returns the result minus its latency histogram —
// 32 KB of bins whose one consumer, P99Latency, is already extracted —
// for callers that retain many results.
func (r Result) WithoutHistogram() Result {
	r.latHist = nil
	return r
}

func (r *Result) String() string {
	s := fmt.Sprintf("lat=%.2f p99=%d hops=%.2f thr=%.4f sat=%v (%d/%d pkts)",
		r.AvgLatency, r.P99Latency, r.AvgHops, r.ThroughputFPC, r.Saturated, r.Ejected, r.Generated)
	if r.Canceled {
		s += " [canceled]"
	}
	return s
}

// ClassResult is the per-message-class slice of a Result.
type ClassResult struct {
	Ejected    int64   `json:"ejected"`
	AvgLatency float64 `json:"avg_latency"`
	AvgHops    float64 `json:"avg_hops"`
}

// Sim couples a network with a traffic generator and measurement logic.
//
// A Sim is single-shot: Run consumes the generator and the network's
// RNG state, so calling it twice would silently continue a spent random
// stream and replay a drained network. Run panics on reuse; build a new
// Sim (and Network) per run. This guarantee is what lets the parallel
// experiment runner treat every sweep point as an isolated unit.
type Sim struct {
	Net    *Network
	Gen    Generator
	Params SimParams

	// OnCycle, when non-nil, is invoked after every simulated cycle
	// with the cycle just completed (equal to Net.Cycle()). The
	// observability sampler (internal/obs) hooks here to snapshot
	// gauges on its window boundaries; an unset hook costs one branch
	// per cycle.
	OnCycle func(cycle int64)

	// OnEject, when non-nil, is invoked for every ejected packet —
	// measured or not — before Run's own accounting. Closed-loop
	// generators (internal/collective) hook here to observe deliveries
	// and unlock causally-dependent sends; under sharded stepping the
	// network replays ejections in canonical router order, so the hook
	// sees a deterministic sequence at any shard count. The callback
	// must not retain the packet past the call.
	OnEject func(pkt *Packet)

	rng *rand.Rand
	ran bool

	// specs is the reusable per-cycle generation buffer handed to
	// Gen.Generate, so steady-state injection allocates nothing.
	specs []Spec
}

// NewSim builds a simulation with the default parameters.
func NewSim(net *Network, gen Generator) *Sim {
	return &Sim{Net: net, Gen: gen, Params: DefaultSimParams()}
}

// CancelCheckStride is the cycle interval at which Run polls its
// context. A canceled run stops within one stride (a few microseconds
// of host time), so cancellation is promptly honoured even deep inside
// a multi-million-cycle simulation.
const CancelCheckStride = 1024

// Run executes warm-up, measurement and drain, returning the collected
// metrics. Run may be called at most once per Sim; see the type comment.
//
// The context is checked every CancelCheckStride cycles; on
// cancellation Run returns early with Result.Canceled set and whatever
// partial metrics the measurement window accumulated so far.
func (s *Sim) Run(ctx context.Context) Result {
	if s.ran {
		panic("noc: Sim.Run called twice; a Sim is single-shot, build a new one per run")
	}
	s.ran = true
	// Stop the persistent shard workers (if sharded stepping started
	// them) so batch drivers running many Sims back to back do not
	// accumulate parked goroutines per network.
	defer s.Net.ReleaseWorkers()
	if ctx == nil {
		ctx = context.Background()
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.Net.cfg.Seed))
	}
	p := s.Params
	res := Result{Cycles: p.Measure, latHist: stats.NewHistogram(4096)}
	var latSum, hopSum, queueSum float64
	var flitsEjected int64

	measureStart := p.Warmup
	measureEnd := p.Warmup + p.Measure
	if len(s.Net.shards) == 1 { // a pool counts its own threads
		liveThreads.Add(1)
		defer liveThreads.Add(-1)
	}

	var classLat, classHops [NumClasses]float64
	s.Net.SetEjectHandler(func(pkt *Packet) {
		if s.OnEject != nil {
			s.OnEject(pkt)
		}
		if !pkt.Measured {
			return
		}
		res.Ejected++
		lat := pkt.EjectedAt - pkt.CreatedAt
		latSum += float64(lat)
		hopSum += float64(pkt.Hops)
		queueSum += float64(pkt.InjectedAt - pkt.CreatedAt)
		res.latHist.Add(int(lat))
		flitsEjected += int64(pkt.Size)
		res.PerClass[pkt.Class].Ejected++
		classLat[pkt.Class] += float64(lat)
		classHops[pkt.Class] += float64(pkt.Hops)
	})

	// The backlog (queued + in-flight flits) is maintained incrementally
	// by the network, so sampling it every drain cycle is O(1) instead
	// of rescanning every NI queue.
	var backlogStart int64

	// Deadlock watchdog: during drain, a backlog that never shrinks
	// across this many cycles means nothing can move.
	const stallWindow = 5000
	minBacklog := int64(-1)
	var lastProgress int64

	end := measureEnd + p.DrainMax
	cycle := int64(0)
	for ; cycle < end; cycle++ {
		if cycle%CancelCheckStride == 0 && ctx.Err() != nil {
			res.Canceled = true
			break
		}
		if cycle == measureStart {
			s.Net.ResetCounters()
			backlogStart = s.Net.BacklogFlits()
		}
		if cycle == measureEnd {
			// Snapshot activity for the power model before draining.
			res.Counters = s.Net.TotalCounters()
			res.PerRouter = s.Net.RouterCounters()
			// Saturation: the backlog grew by more than 0.5 % of the
			// node-cycle product over the window.
			growth := s.Net.BacklogFlits() - backlogStart
			res.Saturated = float64(growth) > 0.005*float64(p.Measure)*float64(s.Net.cfg.Topo.NumNodes())
		}
		if cycle < measureEnd {
			s.specs = s.Gen.Generate(cycle, s.rng, s.specs[:0])
			for _, spec := range s.specs {
				pkt, err := s.Net.Enqueue(spec)
				if err != nil {
					panic(err) // generator bug
				}
				if cycle >= measureStart {
					pkt.Measured = true
					res.Generated++
				}
			}
		} else if res.Ejected == res.Generated && s.Net.Idle() {
			break
		}
		if cycle >= measureEnd {
			if b := s.Net.BacklogFlits(); minBacklog < 0 || b < minBacklog {
				minBacklog = b
				lastProgress = cycle
			} else if cycle-lastProgress > stallWindow {
				res.Stalled = true
				break
			}
		}
		s.Net.Step()
		if s.OnCycle != nil {
			s.OnCycle(s.Net.Cycle())
		}
	}

	if res.Canceled && cycle < measureEnd {
		// Canceled mid-measurement: the snapshot that normally happens
		// at measureEnd hasn't run, so take it now. Cycles shrinks to
		// the measured window actually simulated, keeping the
		// throughput and power rates meaningful for partial results.
		// A cancellation still inside warm-up has no measured window
		// (the counters would include unmeasured warm-up activity).
		if cycle > measureStart {
			res.Counters = s.Net.TotalCounters()
			res.PerRouter = s.Net.RouterCounters()
			res.Cycles = cycle - measureStart
		} else {
			res.Cycles = 0
		}
	}

	if res.Ejected > 0 {
		res.AvgLatency = latSum / float64(res.Ejected)
		res.AvgHops = hopSum / float64(res.Ejected)
		res.AvgQueueDelay = queueSum / float64(res.Ejected)
		res.P99Latency = res.latHist.Percentile(0.99)
	}
	for c := Class(0); c < NumClasses; c++ {
		if n := res.PerClass[c].Ejected; n > 0 {
			res.PerClass[c].AvgLatency = classLat[c] / float64(n)
			res.PerClass[c].AvgHops = classHops[c] / float64(n)
		}
	}
	if res.Cycles > 0 {
		res.ThroughputFPC = float64(flitsEjected) / float64(res.Cycles) / float64(s.Net.cfg.Topo.NumNodes())
	}
	if res.Ejected < res.Generated && !res.Canceled {
		// Measured packets failed to drain: definitely past saturation.
		// (A canceled run simply didn't get to drain them.)
		res.Saturated = true
	}
	return res
}
