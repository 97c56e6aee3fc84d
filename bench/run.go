package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind (the mirabench binary,
// -timing files, span dumps, the result JSON); .gitignore names it.
const buildDir = ".bench_build"

// minReps keeps the between-repetition checks (equal digests, equal
// stdout) meaningful however short --seconds is.
const minReps = 3

// paperSetups is how many times paper_suite's set-up (go build) is timed.
const paperSetups = 3

// options are the inputs of one benchmark invocation.
type options struct {
	Seed    int64
	Seconds float64 // untraced repetitions start until this much time is measured
	Traced  bool    // add the traced repetition and the per-layer metrics
	Smoke   bool
}

// workloadResult is one workload's entry in the result JSON.
type workloadResult struct {
	Name string `json:"name"`
	// Ops counts repetitions (one operation = one child process run to
	// completion); a failed one contributes no timing.
	Ops       int      `json:"ops"`
	FailedOps int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	// Digest identifies the simulated outcome: the canonical noc.Result
	// hash, or for paper_suite the hash of mirabench's stdout.
	Digest string `json:"digest"`
	// EndToEnd has the untraced repetitions' timings, the scoped
	// metrics included where the workload defines them.
	EndToEnd map[string]stat `json:"end_to_end"`
	// PerLayer is present when the traced pass ran.
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.FailedOps++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// rusage is what the kernel charged a finished child.
type rusage struct {
	CPUS      float64
	PeakRSSMB float64
}

func usageOf(ps *os.ProcessState) rusage {
	u := rusage{CPUS: (ps.UserTime() + ps.SystemTime()).Seconds()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// samples collects one value per successful repetition and metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summarize keeps the declared metrics that have samples.
func (s samples) summarize(decls []metric) map[string]stat {
	out := map[string]stat{}
	for _, m := range decls {
		if v := s[m.Name]; len(v) > 0 {
			out[m.Name] = summarize(m.Unit, v)
		}
	}
	return out
}

// spawnChild runs one scenario repetition in a fresh process, so that
// CPU time and peak memory are that repetition's alone.
func spawnChild(spec childSpec) (*childReport, rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, rusage{}, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, rusage{}, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, rusage{}, fmt.Errorf("%w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, rusage{}, fmt.Errorf("child report: %w", err)
	}
	return &rep, usageOf(cmd.ProcessState), nil
}

// checkResult applies the correctness rules to one repetition's
// noc.Result and returns its digest.
func checkResult(resultJSON []byte) (string, error) {
	var res struct {
		Generated int64 `json:"generated"`
		Ejected   int64 `json:"ejected"`
		Canceled  bool  `json:"canceled"`
	}
	if err := json.Unmarshal(resultJSON, &res); err != nil {
		return "", fmt.Errorf("result: %w", err)
	}
	if res.Canceled {
		return "", fmt.Errorf("run was canceled")
	}
	if res.Ejected != res.Generated {
		return "", fmt.Errorf("ejected %d of %d measured packets", res.Ejected, res.Generated)
	}
	return digest(resultJSON)
}

// runScenarioWorkload measures one scenario workload: the twin first
// (if any), then untraced repetitions until opt.Seconds are measured,
// then the traced one.
func runScenarioWorkload(w workload, opt options) workloadResult {
	r := workloadResult{Name: w.Name}
	scen, err := generateScenario(w, opt.Seed, opt.Smoke)
	if err != nil {
		r.Ops++
		r.fail("generate: %v", err)
		return r
	}

	// want is the digest every repetition must reproduce: the twin's
	// where there is one, else the first repetition's.
	var want string
	// rep runs one repetition and returns its report once every check
	// on it has passed; a failure is recorded and yields nil.
	rep := func(label string, spec childSpec) (*childReport, rusage) {
		r.Ops++
		cr, ru, err := spawnChild(spec)
		if err != nil {
			r.fail("%s: %v", label, err)
			return nil, ru
		}
		d, err := checkResult(cr.Result)
		if err != nil {
			r.fail("%s: %v", label, err)
			return nil, ru
		}
		if want == "" {
			want = d
		} else if d != want {
			r.fail("%s: digest %s, want %s", label, d, want)
			return nil, ru
		}
		return cr, ru
	}

	var twinWall float64
	if w.Twin != "" {
		tw, _ := findWorkload(w.Twin)
		twScen, err := generateScenario(tw, opt.Seed, opt.Smoke)
		if err != nil {
			r.Ops++
			r.fail("generate twin: %v", err)
			return r
		}
		cr, _ := rep("twin "+tw.Name, childSpec{Workload: tw.Name, Scenario: twScen})
		if cr == nil {
			return r
		}
		twinWall = cr.WallS
	}

	s := samples{}
	var measured float64
	for i := 0; i < minReps || measured < opt.Seconds; i++ {
		start := time.Now()
		cr, ru := rep(fmt.Sprintf("rep %d", i), childSpec{Workload: w.Name, Rep: i, Scenario: scen})
		measured += time.Since(start).Seconds()
		if cr == nil {
			break // the run is already incorrect; more repetitions add nothing
		}
		s.add("setup_s", cr.SetupS)
		s.add("wall_s", cr.WallS)
		s.add("cpu_s", ru.CPUS)
		s.add("peak_rss_mb", ru.PeakRSSMB)
		s.add("ns_per_flit_hop", cr.WallS*1e9/float64(cr.FlitHops))
		s.add("allocs_per_kcycle", float64(cr.Mallocs)/cr.KCycles)
	}
	r.EndToEnd = s.summarize(reported)
	r.Digest = want

	wall := r.EndToEnd["wall_s"].Median
	if opt.Traced && wall > 0 {
		spec := childSpec{Workload: w.Name, Rep: r.Ops, Scenario: scen, Traced: true, Meter: w.Meter,
			SpanDump: filepath.Join(buildDir, "spans_"+w.Name+".jsonl")}
		if cr, _ := rep("traced rep", spec); cr != nil {
			r.PerLayer = cr.Layers
			r.PerLayer["bench.trace_overhead_pct"] = 100 * (cr.WallS/wall - 1)
			if twinWall > 0 {
				r.PerLayer["shard.speedup_vs_seq"] = twinWall / wall
			}
		}
	}
	return r
}

// paperRep is one finished mirabench run.
type paperRep struct {
	Wall  float64
	Usage rusage
	Out   []byte             // stdout: the tables as CSV
	GapPP float64            // paper_gap_pp of Out
	Exps  map[string]float64 // seconds per exp.* group, from -timing
}

// runMirabench runs the quick suite once and reads back what it wrote.
func runMirabench(bin string, seed int64, timing string) (*paperRep, error) {
	cmd := exec.Command(bin, "-quick", "-csv", "-workers", "2",
		"-seed", strconv.FormatInt(seed, 10), "-timing", timing, "all")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(errOut.Bytes()))
	}
	p := &paperRep{Wall: time.Since(start).Seconds(), Usage: usageOf(cmd.ProcessState), Out: out.Bytes()}
	var err error
	if p.GapPP, err = paperGapPP(out.String()); err != nil {
		return nil, err
	}
	timingJSON, err := os.ReadFile(timing)
	if err != nil {
		return nil, err
	}
	if p.Exps, err = expSeconds(timingJSON); err != nil {
		return nil, err
	}
	return p, nil
}

// runPaperSuite measures mirabench -quick all: set-up is building the
// binary, an operation is one run of it.
func runPaperSuite(opt options) workloadResult {
	r := workloadResult{Name: paperSuite}
	bin := filepath.Join(buildDir, "mirabench")
	// The first build fills the build cache and is not timed: set-up is
	// what the build costs once caches are warm, as every later one is.
	s := samples{}
	for i := 0; i <= paperSetups; i++ {
		start := time.Now()
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/mirabench").CombinedOutput(); err != nil {
			r.Ops++
			r.fail("go build ./cmd/mirabench: %v: %s", err, bytes.TrimSpace(out))
			return r
		}
		if i > 0 {
			s.add("setup_s", time.Since(start).Seconds())
		}
	}

	groups := samples{}
	var firstOut []byte
	var measured float64
	for i := 0; i < minReps || measured < opt.Seconds; i++ {
		r.Ops++
		p, err := runMirabench(bin, opt.Seed, filepath.Join(buildDir, fmt.Sprintf("timing_%d.json", i)))
		if err == nil && firstOut != nil && !bytes.Equal(p.Out, firstOut) {
			err = fmt.Errorf("stdout differs from the first repetition's")
		}
		if err != nil {
			r.fail("rep %d: %v", i, err)
			break // the run is already incorrect; more repetitions add nothing
		}
		firstOut = p.Out
		measured += p.Wall
		s.add("wall_s", p.Wall)
		s.add("cpu_s", p.Usage.CPUS)
		s.add("peak_rss_mb", p.Usage.PeakRSSMB)
		s.add("paper_gap_pp", p.GapPP)
		for g, sec := range p.Exps {
			groups.add(g, sec)
		}
		groups.add("exp.worker_utilization", p.Usage.CPUS/(2*p.Wall))
	}
	r.EndToEnd = s.summarize(reported)
	if firstOut != nil {
		r.Digest = shortHash(firstOut)
	}
	if opt.Traced {
		// mirabench times its own experiments (-timing), so the layer
		// numbers come from the untraced runs and there is no overhead.
		r.PerLayer = map[string]float64{}
		for g, v := range groups {
			r.PerLayer[g] = median(v)
		}
	}
	return r
}

func runWorkload(w workload, opt options) workloadResult {
	if w.Name == paperSuite {
		return runPaperSuite(opt)
	}
	return runScenarioWorkload(w, opt)
}
