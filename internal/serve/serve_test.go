package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/exp"
	"mira/internal/scenario"
)

func testBatch() []scenario.Scenario {
	mk := func(seed int64, arch string) scenario.Scenario {
		return scenario.Scenario{
			Arch: arch, Warmup: 0, Measure: 1500, Drain: 6000, Seed: seed,
			Traffic: scenario.Traffic{Kind: "ur", Rate: 0.08},
			Observe: &scenario.Observe{Window: 200},
		}
	}
	return []scenario.Scenario{mk(1, "2DB"), mk(2, "3DM"), mk(3, "3DB")}
}

// promLine matches a text-exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9.eE+na-]+$`)

// TestServeEndpoints runs a batch under the server while concurrently
// polling every endpoint (the -race coverage for the sampler/serving
// handoff), then checks the final payloads.
func TestServeEndpoints(t *testing.T) {
	srv := New(testBatch())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Poll while the batch runs.
	done := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/healthz", "/metrics", "/runs"} {
		pollers.Add(1)
		go func(p string) {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
					get(p)
				}
			}
		}(path)
	}
	results := srv.Run(context.Background(), exp.BatchOptions{Workers: 2})
	close(done)
	pollers.Wait()

	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("run %d failed: %s", r.Index, r.Err)
		}
		if r.Result.Ejected == 0 {
			t.Fatalf("run %d simulated nothing", r.Index)
		}
	}

	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("/healthz: %d %q", code, body)
	} else if !strings.Contains(body, "done=3") {
		t.Errorf("/healthz detail missing run counts: %q", body)
	}

	code, body := get("/runs")
	if code != 200 {
		t.Fatalf("/runs: status %d", code)
	}
	var runs []RunStatus
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("/runs does not parse: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("/runs has %d entries, want 3", len(runs))
	}
	for _, r := range runs {
		if r.State != StateDone {
			t.Errorf("run %d state %q after batch end", r.Index, r.State)
		}
		if r.Result == nil || r.Result.Ejected == 0 {
			t.Errorf("run %d missing result", r.Index)
		}
		if r.Windows == 0 {
			t.Errorf("run %d reports no sample windows", r.Index)
		}
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	sawType, sawSample := false, false
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			sawType = true
			continue
		}
		if strings.HasPrefix(line, "#") { // HELP lines
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
		sawSample = true
	}
	if !sawType || !sawSample {
		t.Fatalf("exposition missing TYPE (%v) or samples (%v):\n%s", sawType, sawSample, body)
	}
	for _, want := range []string{
		`mira_runs{state="done"} 3`,
		`mira_net_occ{run="0",arch="2DB"}`,
		`mira_run_cycle{run="2",arch="3DB"}`,
		`mira_engine_cycles_total{run="0",arch="2DB"}`,
		`mira_engine_shard_busy_seconds{run="1",arch="3DM",shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
}

// TestServedResultsBitIdentical pins probe purity for the serving
// layer: running the batch under the server with concurrent scrapes
// yields byte-identical serialized results to a bare exp.RunBatch.
func TestServedResultsBitIdentical(t *testing.T) {
	scs := testBatch()
	bare := exp.RunBatch(context.Background(), scs, exp.BatchOptions{Workers: 2})

	srv := New(scs)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			default:
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}
	}()
	served := srv.Run(context.Background(), exp.BatchOptions{Workers: 2})
	close(done)
	poller.Wait()

	bj, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(served)
	if err != nil {
		t.Fatal(err)
	}
	if string(bj) != string(sj) {
		t.Errorf("served batch results differ from bare run:\nbare:   %s\nserved: %s", bj, sj)
	}
}

// TestNewForcesObserve: scenarios without an Observe block get one
// with engine telemetry on, so every run exposes metrics and liveness.
func TestNewForcesObserve(t *testing.T) {
	sc := testBatch()[0]
	sc.Observe = nil
	srv := New([]scenario.Scenario{sc})
	o := srv.scs[0].Observe
	if o == nil {
		t.Fatal("New did not attach an Observe block")
	}
	if !o.Engine {
		t.Fatal("New did not enable engine telemetry")
	}
}

// TestHealthzStallDetection: a running run whose engine liveness
// timestamp stops advancing flips /healthz to 503 "stalled"; recent
// progress keeps it "ok". The progress closure is injected directly —
// the real one is EngineCollector.LastProgress, wired in Run's OnStart.
func TestHealthzStallDetection(t *testing.T) {
	srv := New(testBatch()[:1])
	srv.StallAfter = time.Second
	srv.mu.Lock()
	srv.runs[0].state = StateRunning
	srv.runs[0].progress = func() time.Time { return time.Now() }
	srv.mu.Unlock()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() (int, string) {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get(); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("live run: %d %q, want 200 ok", code, body)
	}

	srv.mu.Lock()
	srv.runs[0].progress = func() time.Time { return time.Now().Add(-time.Hour) }
	srv.mu.Unlock()
	code, body := get()
	if code != 503 || !strings.HasPrefix(body, "stalled\n") {
		t.Fatalf("stalled run: %d %q, want 503 stalled", code, body)
	}
	if !strings.Contains(body, "run 0: no cycle progress") {
		t.Fatalf("stall detail missing: %q", body)
	}

	// Done runs are never stalled, however old their timestamp.
	srv.mu.Lock()
	srv.runs[0].state = StateDone
	srv.mu.Unlock()
	if code, body := get(); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("done run: %d %q, want 200 ok", code, body)
	}
}
