package exp

import (
	"context"
	"encoding/json"
	"sync"

	"mira/internal/noc"
	"mira/internal/scenario"
)

// Scope is a run-scoped result-reuse table: within one scope every
// distinct scenario is simulated once, and later requests for it — from
// another figure reading the same sweep, or from a concurrent worker —
// get the stored Outcome. A scenario is identified by its content (the
// JSON run is about to elaborate, per-point seed included), so Workers
// and Progress never matter while seed, windows, step mode, shards,
// traffic and every override do. The caller that wants reuse creates
// one scope (cmd/mirabench: one per invocation) and passes it in
// Options.Reuse. Safe for concurrent use.
type Scope struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one scenario's slot. done closes when the goroutine that
// claimed the slot finishes; out is valid afterwards iff stored.
type entry struct {
	done   chan struct{}
	out    scenario.Outcome
	stored bool
}

// NewScope returns an empty reuse table.
func NewScope() *Scope { return &Scope{entries: make(map[string]*entry)} }

// claim returns the outcome stored under key, first waiting out a
// concurrent simulation of it. If there is none the caller becomes the
// key's owner (nil outcome): it simulates, then calls settle exactly
// once. A waiter whose context ends first gets a bare canceled result,
// as Sim.Run would give it.
func (s *Scope) claim(ctx context.Context, key string) (*scenario.Outcome, *entry) {
	for {
		s.mu.Lock()
		e := s.entries[key]
		if e == nil {
			e = &entry{done: make(chan struct{})}
			s.entries[key] = e
			s.mu.Unlock()
			return nil, e
		}
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.stored {
				return &e.out, nil
			}
			// The owner withdrew the slot; compete for it again.
		case <-ctx.Done():
			return &scenario.Outcome{Result: noc.Result{Canceled: true}}, nil
		}
	}
}

// settle ends the caller's ownership of key. A complete outcome is
// stored; anything else (elaboration error, canceled run, a panic
// unwinding through the owner) withdraws the slot, so the next request
// simulates afresh.
func (s *Scope) settle(key string, e *entry, out scenario.Outcome, complete bool) {
	s.mu.Lock()
	if complete {
		e.out, e.stored = out, true
	} else {
		delete(s.entries, key)
	}
	s.mu.Unlock()
	close(e.done)
}

// tally counts what one sweep point did, for Progress. A point runs on
// one goroutine, so plain ints suffice.
type tally struct{ ran, reused int }

// run is the one place a driver turns a scenario into a result: it
// elaborates and simulates sc, or returns the outcome o.Reuse already
// holds for it. Without a scope, and for observed scenarios, it always
// simulates. The error is the elaboration error.
func run(ctx context.Context, o Options, sc scenario.Scenario) (out scenario.Outcome, err error) {
	complete := false
	if o.Reuse != nil && sc.Observe == nil {
		raw, err := json.Marshal(sc)
		if err != nil {
			return scenario.Outcome{}, err
		}
		key := string(raw)
		hit, slot := o.Reuse.claim(ctx, key)
		if hit != nil {
			if o.tally != nil {
				o.tally.reused++
			}
			return *hit, nil
		}
		defer func() { o.Reuse.settle(key, slot, out, complete) }()
	}
	if o.tally != nil {
		o.tally.ran++
	}
	e, err := sc.Elaborate()
	if err != nil {
		return scenario.Outcome{}, err
	}
	// Run closes an observed point's collector, freeing its event
	// batches: a sweep keeps every point's outcome until its table is
	// drawn, and so drops the latency histogram too.
	if out, err = e.Run(ctx); err != nil {
		return scenario.Outcome{}, err
	}
	out.Result = out.Result.WithoutHistogram()
	complete = !out.Result.Canceled
	return out, nil
}
