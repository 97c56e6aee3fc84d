package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mira/internal/noc"
	"mira/internal/obs"
	"mira/internal/scenario"
)

// perEvent is a plain noc.Probe forwarding each record to the collector,
// as a probe wrapping one does: the network calls ProbeEvent per record
// instead of lending the collector's batch (noc.BatchProbe).
type perEvent struct{ c *obs.Collector }

func (p perEvent) ProbeEvent(ev noc.ProbeEvent) { p.c.ProbeEvent(ev) }

// batchRun is what a reader gets out of one observed trace_3dm run.
type batchRun struct {
	trace, attrib, summary []byte
	spans                  int
}

// runTrace3DM runs the trace_3dm scenario (3DM, UR 0.15) with spans and a
// trace at the given shard count. With perRecord the collector sits
// behind perEvent; with readEvery > 0, Latency is read every readEvery
// cycles mid-run.
func runTrace3DM(t *testing.T, shards int, perRecord bool, readEvery int64) batchRun {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "trace_3dm.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	sc.Observe.Spans, sc.Shards = true, shards
	e, err := sc.Elaborate()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Net.ReleaseWorkers()
	var trace bytes.Buffer
	e.Obs.SetTraceWriter(&trace)
	if perRecord {
		e.Net.SetProbe(perEvent{e.Obs})
	}
	if on := e.Sim.OnCycle; readEvery > 0 {
		e.Sim.OnCycle = func(cycle int64) {
			on(cycle)
			if cycle%readEvery == 0 {
				e.Obs.Latency()
			}
		}
	}
	e.Sim.Run(context.Background())
	if err := e.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := json.Marshal(e.Obs.Summary())
	if err != nil {
		t.Fatal(err)
	}
	sb := e.Obs.Spans()
	if err := sb.Err(); err != nil {
		t.Fatal(err)
	}
	return batchRun{trace.Bytes(), []byte(sb.Attribution().CombinedTable().CSV()), summary, len(sb.Spans())}
}

func (r batchRun) diff(t *testing.T, name string, want batchRun) {
	t.Helper()
	if !bytes.Equal(r.trace, want.trace) {
		t.Errorf("%s: trace bytes differ (%d vs %d)", name, len(r.trace), len(want.trace))
	}
	if !bytes.Equal(r.attrib, want.attrib) {
		t.Errorf("%s: attribution CSV differs", name)
	}
	if !bytes.Equal(r.summary, want.summary) {
		t.Errorf("%s: summary\n got %s\nwant %s", name, r.summary, want.summary)
	}
	if r.spans != want.spans {
		t.Errorf("%s: %d spans, want %d", name, r.spans, want.spans)
	}
}

// TestBatchPathMatchesPerEvent: the collector attached directly takes
// the batch path (on one shard the network writes into its batch in
// place); behind a per-record probe it takes the other. Both see the
// same stream, at one shard and at several, even and uneven.
func TestBatchPathMatchesPerEvent(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		want := runTrace3DM(t, shards, true, 0)
		if len(want.trace) == 0 || want.spans == 0 {
			t.Fatalf("shards=%d: empty reference run", shards)
		}
		runTrace3DM(t, shards, false, 0).diff(t, fmt.Sprintf("shards=%d", shards), want)
	}
}

// TestLentBatchSurvivesMidRunReads: a read in mid-run (Latency, Spans,
// Summary) folds the batch the network is appending to without taking
// it away, so no record reaches the sinks twice: reads every 500 cycles
// leave the run's every artifact as an unread run's.
func TestLentBatchSurvivesMidRunReads(t *testing.T) {
	for _, shards := range []int{1, 3} {
		want := runTrace3DM(t, shards, false, 0)
		runTrace3DM(t, shards, false, 500).diff(t, fmt.Sprintf("shards=%d, read every 500 cycles", shards), want)
	}
}
