// Package serve turns a scenario batch into a live, observable service:
// mirasim -serve runs the batch while a stdlib net/http server exposes
// the in-flight metric registries as hand-rolled Prometheus text
// exposition (/metrics), run progress and completed results as JSON
// (/runs), a liveness probe (/healthz), and the standard pprof
// endpoints (/debug/pprof/). This is the ROADMAP step from "offline
// batch tool" toward a long-running simulation service: a dashboard can
// watch an experiment sweep converge window by window instead of
// waiting for the final tables.
//
// The batch runs through exp.RunBatch, whose per-run hooks publish each
// run's collector and result. Serving is observation-only by
// construction: the handlers read the samplers' already-snapshotted
// series (mutex-guarded) and the batch results written at run
// completion. No handler touches live network state, so a served batch
// produces bit-identical results to a bare exp.RunBatch (pinned by
// TestServedResultsBitIdentical).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"mira/internal/exp"
	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/scenario"
)

// state of one run in the batch.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
)

// DefaultStallAfter is the engine-liveness threshold of /healthz: a
// running run whose last observed cycle advance is older than this is
// reported stalled (a hung shard barrier keeps the process — and every
// handler — alive while cycles stop; only the engine ticker notices).
const DefaultStallAfter = 30 * time.Second

// runState tracks one scenario through the batch.
type runState struct {
	state string
	col   *obs.Collector // non-nil once running
	names []string       // registry column names, fixed at elaboration
	res   *exp.BatchResult
	// progress reports the wall time of the run's last observed cycle
	// advance (obs.EngineCollector.LastProgress); nil when the run has
	// no engine collector. A closure so tests can inject a stalled run.
	progress func() time.Time
}

// Server owns a scenario batch and serves its live state. Create with
// New, start the batch with Run, and expose Handler over net/http.
type Server struct {
	scs []scenario.Scenario

	mu   sync.Mutex
	runs []runState
}

// New builds a server over the batch. Every scenario is given an
// Observe block if it lacks one, so each run has a metric registry to
// expose, and engine telemetry is forced on so /metrics carries the
// mira_engine_* families and /healthz can detect a stalled run. Both
// are out-of-band: served results stay bit-identical to a bare batch
// (pinned by TestServedResultsBitIdentical).
func New(scs []scenario.Scenario) *Server {
	owned := make([]scenario.Scenario, len(scs))
	copy(owned, scs)
	for i := range owned {
		if owned[i].Observe == nil {
			owned[i].Observe = &scenario.Observe{}
		}
		owned[i].Observe.Engine = true
	}
	s := &Server{scs: owned, runs: make([]runState, len(owned))}
	for i := range s.runs {
		s.runs[i].state = StatePending
	}
	return s
}

// Run executes the batch through exp.RunBatch, publishing per-run
// progress as it goes; the server sets o's OnStart and OnDone hooks.
// Blocks until the batch completes; serve the Handler from another
// goroutine.
func (s *Server) Run(ctx context.Context, o exp.BatchOptions) []exp.BatchResult {
	o.OnStart = func(i int, e *scenario.Elaboration) {
		s.mu.Lock()
		s.runs[i].state = StateRunning
		s.runs[i].col = e.Obs
		if e.Obs != nil {
			s.runs[i].names = e.Obs.Registry().Names()
			if ec := e.Obs.Engine(); ec != nil {
				s.runs[i].progress = ec.LastProgress
			}
		}
		s.mu.Unlock()
	}
	o.OnDone = func(r exp.BatchResult) {
		s.mu.Lock()
		s.runs[r.Index].state = StateDone
		s.runs[r.Index].res = &r
		s.mu.Unlock()
	}
	return exp.RunBatch(ctx, s.scs, o)
}

// Handler returns the service mux: /healthz, /runs, /metrics and
// /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleHealthz is the liveness probe. The first line is "ok" or
// "stalled" (machine-checkable); detail lines follow. A run counts as
// stalled when it is running, carries an engine collector, and its last
// observed cycle advance is older than DefaultStallAfter — then the probe
// answers 503 so an orchestrator can restart a simulation whose shard
// barrier hung even though the process (and this handler) stays alive.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	s.mu.Lock()
	counts := map[string]int{}
	var stalled []string
	for i := range s.runs {
		r := &s.runs[i]
		counts[r.state]++
		if r.state == StateRunning && r.progress != nil {
			if age := now.Sub(r.progress()); age > DefaultStallAfter {
				stalled = append(stalled,
					fmt.Sprintf("run %d: no cycle progress for %s", i, age.Round(time.Second)))
			}
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(stalled) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "stalled")
		for _, line := range stalled {
			fmt.Fprintln(w, line)
		}
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "runs: pending=%d running=%d done=%d\n",
		counts[StatePending], counts[StateRunning], counts[StateDone])
}

// RunStatus is the JSON shape of one run on /runs.
type RunStatus struct {
	Index   int    `json:"index"`
	Arch    string `json:"arch"`
	Traffic string `json:"traffic"`
	Seed    int64  `json:"seed"`
	State   string `json:"state"`
	// Windows counts completed sample windows (live progress signal).
	Windows int `json:"windows"`
	// Cycle is the boundary cycle of the latest sample window.
	Cycle int64 `json:"cycle,omitempty"`
	// Result and Error are present once the run is done.
	Result *noc.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// status snapshots one run under the lock.
func (s *Server) status(i int) RunStatus {
	sc := s.scs[i]
	r := &s.runs[i]
	st := RunStatus{
		Index:   i,
		Arch:    sc.Arch,
		Traffic: sc.Traffic.Kind,
		Seed:    sc.Seed,
		State:   r.state,
	}
	if r.col != nil {
		st.Windows = r.col.Sampler().Samples()
		if cycle, _, ok := r.col.Sampler().Latest(); ok {
			st.Cycle = cycle
		}
	}
	if r.res != nil {
		if r.res.Err != "" {
			st.Error = r.res.Err
		} else {
			res := r.res.Result
			st.Result = &res
		}
	}
	return st
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]RunStatus, len(s.runs))
	for i := range s.runs {
		out[i] = s.status(i)
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[string]int{StatePending: 0, StateRunning: 0, StateDone: 0}
	var samples []obs.PromSample
	for i := range s.runs {
		r := &s.runs[i]
		counts[r.state]++
		if r.col == nil {
			continue
		}
		labels := [][2]string{
			{"run", strconv.Itoa(i)},
			{"arch", s.scs[i].Arch},
		}
		if ec := r.col.Engine(); ec != nil {
			samples = append(samples, ec.PromSamples(labels)...)
		}
		cycle, row, ok := r.col.Sampler().Latest()
		if !ok {
			continue
		}
		samples = append(samples, obs.PromSample{
			Name: "mira_run_cycle", Labels: labels, Value: float64(cycle),
		})
		samples = append(samples, obs.PromSamples(r.names, row, labels)...)
	}
	s.mu.Unlock()
	for _, st := range []string{StateDone, StatePending, StateRunning} {
		samples = append(samples, obs.PromSample{
			Name:   "mira_runs",
			Labels: [][2]string{{"state", st}},
			Value:  float64(counts[st]),
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, samples) //nolint:errcheck // client gone; nothing to do
}
