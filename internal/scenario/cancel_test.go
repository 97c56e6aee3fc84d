package scenario

import (
	"context"
	"sync"
	"testing"

	"mira/internal/noc"
)

// countdownCtx is a deterministic cancellation source: Err reports the
// context canceled after a fixed number of polls. Sim.Run polls its
// context once per CancelCheckStride cycles, so the countdown pins the
// exact simulated cycle the cancellation lands on — no wall-clock races,
// which keeps these regressions meaningful under -race.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	polls int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.polls <= 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// longUR is a scenario whose windows are far too long to ever finish in
// a test; only cancellation ends it.
func longUR() Scenario {
	return Scenario{
		Arch:    "2DB",
		Traffic: Traffic{Kind: "ur", Rate: 0.2},
		Warmup:  0, Measure: 1 << 40, Drain: 0, Seed: 1,
	}
}

// TestRunCanceledBeforeStart: an already-canceled context stops the run
// at the very first stride check — zero cycles simulated, zero packets.
func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := longUR().Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(ctx)
	res := out.Result
	if err != nil || !res.Canceled {
		t.Errorf("Canceled not set (err %v)", err)
	}
	if res.Cycles != 0 || res.Generated != 0 {
		t.Errorf("pre-canceled run simulated work: cycles=%d generated=%d", res.Cycles, res.Generated)
	}
	if res.Saturated {
		t.Error("a canceled run must not be reported as saturated")
	}
}

// TestRunCanceledMidMeasure: cancellation landing inside the
// measurement window returns within one stride with the partial
// counters accumulated so far.
func TestRunCanceledMidMeasure(t *testing.T) {
	const strides = 4
	e, err := longUR().Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res := e.Sim.Run(&countdownCtx{Context: context.Background(), polls: strides})
	if !res.Canceled {
		t.Fatal("Canceled not set")
	}
	// The run polls at cycles 0, S, 2S, ... and stops at the first
	// failing poll, i.e. after exactly strides*S simulated cycles.
	if want := int64(strides * noc.CancelCheckStride); res.Cycles != want {
		t.Errorf("partial window = %d cycles, want %d (stop within one stride)", res.Cycles, want)
	}
	if res.Generated == 0 || res.Ejected == 0 {
		t.Errorf("partial counters empty: generated=%d ejected=%d", res.Generated, res.Ejected)
	}
	if res.AvgLatency <= 0 {
		t.Errorf("partial averages missing: lat=%.2f", res.AvgLatency)
	}
	if res.Counters.XbarFlits == 0 || res.Counters.BufWrites == 0 {
		t.Error("activity counters were not snapshotted on cancel")
	}
	if res.Saturated {
		t.Error("saturation must not be inferred from a canceled run")
	}
}

// TestRunCanceledDuringWarmup: cancellation before the measurement
// window starts yields no measured cycles (warm-up activity must not
// leak into the counters).
func TestRunCanceledDuringWarmup(t *testing.T) {
	sc := longUR()
	sc.Warmup = 1 << 40
	e, err := sc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	res := e.Sim.Run(&countdownCtx{Context: context.Background(), polls: 2})
	if !res.Canceled {
		t.Fatal("Canceled not set")
	}
	if res.Cycles != 0 || res.Generated != 0 {
		t.Errorf("warm-up cancellation leaked a measured window: cycles=%d generated=%d", res.Cycles, res.Generated)
	}
}
