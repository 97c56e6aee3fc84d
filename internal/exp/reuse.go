package exp

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"mira/internal/scenario"
)

// Scope is a run-scoped result-reuse table: within one scope every
// distinct scenario is simulated once, and later requests for it — from
// another figure reading the same sweep — get the stored Outcome. A
// scenario is identified by its content (the JSON run is about to
// elaborate, per-point seed included), so Workers and Progress never
// matter while seed, windows, step mode, shards, traffic and every
// override do. The caller that wants reuse creates one scope
// (cmd/mirabench: one per invocation) and passes it in Options.Reuse.
// Safe for concurrent use.
//
// A mutex-guarded map is enough because two requests for one key are
// never in flight together: mirabench runs its experiments one after
// another, and the points of one sweep differ at least in their seeds.
// Should two ever race, both simulate and store equal outcomes.
type Scope struct {
	mu   sync.Mutex
	outs map[string]scenario.Outcome
}

// NewScope returns an empty reuse table.
func NewScope() *Scope { return &Scope{outs: map[string]scenario.Outcome{}} }

// run is the one place a scenario becomes a result, for sweeps and
// batches alike: it elaborates sc, hands the elaboration to start (when
// non-nil), simulates it, and drops the latency histogram. Under
// o.Reuse a scenario stored earlier is served instead, and a complete
// outcome is stored; observed scenarios always simulate. Each served or
// complete scenario is reported to o.Progress. The error is the
// elaboration's or the run's.
func run(ctx context.Context, o Options, sc scenario.Scenario, start func(*scenario.Elaboration)) (scenario.Outcome, error) {
	begin := time.Now()
	var out scenario.Outcome
	key, reused := "", false
	if o.Reuse != nil && sc.Observe == nil {
		raw, err := json.Marshal(sc)
		if err != nil {
			return out, err
		}
		key = string(raw)
		o.Reuse.mu.Lock()
		out, reused = o.Reuse.outs[key]
		o.Reuse.mu.Unlock()
	}
	if !reused {
		e, err := sc.Elaborate()
		if err != nil {
			return out, err
		}
		if start != nil {
			start(e)
		}
		// Run closes an observed point's collector, freeing its event
		// batches: a sweep keeps every point's outcome until its table
		// is drawn, and so drops the latency histogram too.
		out, err = e.Run(ctx)
		out.Result = out.Result.WithoutHistogram()
		if err != nil {
			return out, err
		}
		if key != "" && !out.Result.Canceled {
			o.Reuse.mu.Lock()
			o.Reuse.outs[key] = out
			o.Reuse.mu.Unlock()
		}
	}
	if o.Progress != nil {
		o.Progress(Progress{Scenario: sc, Elapsed: time.Since(begin), Reused: reused})
	}
	return out, nil
}
