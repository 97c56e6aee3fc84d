package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

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
	res, err := longUR().Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled {
		t.Error("Canceled not set")
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

// TestRunBatchCancel: canceling the batch context stops dispatch, ends
// in-flight runs within a stride, and every worker exits (RunBatch
// returning at all is the exit proof; the deadline bounds it).
func TestRunBatchCancel(t *testing.T) {
	scs := make([]Scenario, 8)
	for i := range scs {
		scs[i] = longUR()
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()

	done := make(chan []BatchResult, 1)
	go func() { done <- RunBatch(ctx, scs, BatchOptions{Workers: 2}) }()
	var out []BatchResult
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch did not return after cancellation: workers stuck")
	}
	ran, skipped := 0, 0
	for _, br := range out {
		switch {
		case br.Err != "":
			if !strings.Contains(br.Err, "canceled") {
				t.Errorf("entry %d: unexpected error %q", br.Index, br.Err)
			}
			skipped++
		case br.Result.Canceled:
			ran++
		default:
			t.Errorf("entry %d completed a %d-cycle run; cancellation did not reach it", br.Index, scs[0].Measure)
		}
	}
	if ran == 0 {
		t.Error("no in-flight run reported a partial canceled result")
	}
	if skipped == 0 {
		t.Error("no queued scenario was skipped; cancellation arrived too late to test dispatch")
	}
}

// TestRunBatchPrecanceled: nothing runs, every entry says why.
func TestRunBatchPrecanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := RunBatch(ctx, []Scenario{longUR(), longUR()}, BatchOptions{Workers: 2})
	for _, br := range out {
		if !strings.Contains(br.Err, "canceled before") {
			t.Errorf("entry %d: err = %q, want the never-started marker", br.Index, br.Err)
		}
	}
}

// TestRunBatchTimeout: the per-run timeout cancels an over-budget run
// without failing the batch entry.
func TestRunBatchTimeout(t *testing.T) {
	out := RunBatch(context.Background(), []Scenario{longUR()}, BatchOptions{
		Workers: 1, Timeout: 30 * time.Millisecond,
	})
	if out[0].Err != "" {
		t.Fatalf("timeout should yield a partial result, not an error: %q", out[0].Err)
	}
	if !out[0].Result.Canceled {
		t.Error("over-budget run not marked Canceled")
	}
}

// TestRunBatchMixedValidity: invalid entries fail individually while
// valid ones complete.
func TestRunBatchMixedValidity(t *testing.T) {
	good := ur()
	bad := ur()
	bad.Arch = "4DX"
	out := RunBatch(context.Background(), []Scenario{good, bad}, BatchOptions{Workers: 2})
	if out[0].Err != "" || out[0].Result.Ejected == 0 {
		t.Errorf("valid entry failed: err=%q ejected=%d", out[0].Err, out[0].Result.Ejected)
	}
	if out[1].Err == "" || !strings.Contains(out[1].Err, "unknown architecture") {
		t.Errorf("invalid entry err = %q", out[1].Err)
	}
}

// TestRunBatchJSON: the serialized path (DecodeBatch, RunBatch, results
// marshaled back) accepts both a single object and an array, and
// returns decodable results in input order.
func TestRunBatchJSON(t *testing.T) {
	runJSON := func(in string) (string, error) {
		scs, err := DecodeBatch(strings.NewReader(in))
		if err != nil {
			return "", err
		}
		out, err := json.Marshal(RunBatch(context.Background(), scs, BatchOptions{}))
		return string(out), err
	}
	sc := ur()
	data, err := sc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runJSON(string(data))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBatch(t, res)
	if len(out) != 1 || out[0].Err != "" || out[0].Result.Ejected == 0 {
		t.Errorf("single-object batch = %+v", out)
	}

	if res, err = runJSON("[" + string(data) + "," + string(data) + "]"); err != nil {
		t.Fatal(err)
	}
	out = decodeBatch(t, res)
	if len(out) != 2 || out[0].Index != 0 || out[1].Index != 1 {
		t.Errorf("array batch order wrong: %+v", out)
	}

	if _, err := runJSON("not json"); err == nil {
		t.Error("malformed batch input accepted")
	}
}

func decodeBatch(t *testing.T, s string) []BatchResult {
	t.Helper()
	var out []BatchResult
	if err := json.Unmarshal([]byte(s), &out); err != nil {
		t.Fatalf("batch output not decodable: %v\n%s", err, s)
	}
	return out
}
