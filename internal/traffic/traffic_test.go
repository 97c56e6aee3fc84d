package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mira/internal/noc"
	"mira/internal/topology"
)

func TestPatternProfileValidate(t *testing.T) {
	good := PatternProfile{Zero: 0.4, One: 0.1, Freq: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []PatternProfile{
		{Zero: -0.1},
		{Zero: 0.6, One: 0.6},
		{Freq: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %+v should be invalid", p)
		}
	}
}

func TestSampleWordDistribution(t *testing.T) {
	p := PatternProfile{Zero: 0.5, One: 0.2, Freq: 0.1}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, NumPatterns)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[p.SampleWord(rng)]++
	}
	check := func(pat WordPattern, want float64) {
		got := float64(counts[pat]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v frequency = %.3f, want %.3f", pat, got, want)
		}
	}
	check(PatternZero, 0.5)
	check(PatternOne, 0.2)
	check(PatternFreq, 0.1)
	check(PatternOther, 0.2)
}

func TestShortFlitProfileSample(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := ShortFlitProfile{Frac: 0.5, Layers: 4}
	short, total := 0, 0
	for i := 0; i < 10000; i++ {
		ls := s.SampleLayers(rng, 4)
		for _, l := range ls {
			total++
			if l == 1 {
				short++
			} else if l != 4 {
				t.Fatalf("layer count %d, want 1 or 4", l)
			}
		}
	}
	got := float64(short) / float64(total)
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("short fraction = %v, want 0.5", got)
	}
	if (ShortFlitProfile{}).SampleLayers(rng, 4) != nil {
		t.Errorf("zero profile should return nil (all layers)")
	}
}

func TestUniformRate(t *testing.T) {
	topo := topology.NewMesh2D(6, 6, 3.1)
	u := &Uniform{Topo: topo, InjectionRate: 0.2, PacketSize: 4}
	rng := rand.New(rand.NewSource(5))
	var flits int64
	const cycles = 20000
	for c := int64(0); c < cycles; c++ {
		for _, s := range u.Generate(c, rng, nil) {
			if s.Src == s.Dst {
				t.Fatal("self-addressed packet")
			}
			flits += int64(s.Size)
		}
	}
	got := float64(flits) / cycles / 36
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("offered load = %v, want 0.2", got)
	}
}

func TestUniformDestinationSpread(t *testing.T) {
	topo := topology.NewMesh2D(6, 6, 3.1)
	u := &Uniform{Topo: topo, InjectionRate: 0.5, PacketSize: 1}
	rng := rand.New(rand.NewSource(6))
	counts := make(map[topology.NodeID]int)
	for c := int64(0); c < 30000; c++ {
		for _, s := range u.Generate(c, rng, nil) {
			counts[s.Dst]++
		}
	}
	if len(counts) != 36 {
		t.Errorf("only %d destinations used, want 36", len(counts))
	}
}

func TestNUCARequestsComeFromCPUs(t *testing.T) {
	topo := topology.NewMesh2D(6, 6, 3.1)
	if err := topology.ApplyNUCALayout2D(topo); err != nil {
		t.Fatal(err)
	}
	g := &NUCA{Topo: topo, InjectionRate: 0.2, RequestSize: 1, ResponseSize: 4}
	rng := rand.New(rand.NewSource(7))
	isCPU := make(map[topology.NodeID]bool)
	for _, id := range topo.CPUs() {
		isCPU[id] = true
	}
	var reqs, resps int
	for c := int64(0); c < 20000; c++ {
		for _, s := range g.Generate(c, rng, nil) {
			switch s.Class {
			case noc.Control:
				reqs++
				if !isCPU[s.Src] || isCPU[s.Dst] {
					t.Fatalf("request %v -> %v violates CPU->cache", s.Src, s.Dst)
				}
				if s.Size != 1 {
					t.Fatalf("request size %d", s.Size)
				}
			case noc.Data:
				resps++
				if isCPU[s.Src] || !isCPU[s.Dst] {
					t.Fatalf("response %v -> %v violates cache->CPU", s.Src, s.Dst)
				}
				if s.Size != 4 {
					t.Fatalf("response size %d", s.Size)
				}
			}
		}
	}
	if reqs == 0 {
		t.Fatal("no requests generated")
	}
	// Every request is matched by exactly one response except those
	// whose bank delay extends past the window: at 0.2 flits/node/cycle
	// the CPUs issue ~1.44 requests/cycle, so about 35 can still be
	// pending after 24 cycles of bank delay.
	if d := reqs - resps; d < 0 || d > 60 {
		t.Errorf("requests %d vs responses %d (outstanding %d)", reqs, resps, d)
	}
}

func TestNUCAOfferedLoad(t *testing.T) {
	topo := topology.NewMesh2D(6, 6, 3.1)
	if err := topology.ApplyNUCALayout2D(topo); err != nil {
		t.Fatal(err)
	}
	g := &NUCA{Topo: topo, InjectionRate: 0.15, RequestSize: 1, ResponseSize: 4}
	rng := rand.New(rand.NewSource(8))
	var flits int64
	const cycles = 30000
	for c := int64(0); c < cycles; c++ {
		for _, s := range g.Generate(c, rng, nil) {
			flits += int64(s.Size)
		}
	}
	got := float64(flits) / cycles / 36
	if math.Abs(got-0.15) > 0.01 {
		t.Errorf("offered load = %v, want 0.15", got)
	}
}

func makeTrace() *Trace {
	return &Trace{
		Name: "test",
		Events: []Event{
			{Cycle: 0, Src: 1, Dst: 2, Size: 1, Class: noc.Control},
			{Cycle: 3, Src: 2, Dst: 1, Size: 4, Class: noc.Data, Layers: []uint8{1, 4, 4, 1}},
			{Cycle: 3, Src: 5, Dst: 9, Size: 4, Class: noc.Data, Layers: []uint8{1, 1, 1, 1}},
			{Cycle: 7, Src: 9, Dst: 5, Size: 1, Class: noc.Control},
		},
	}
}

func TestTraceStats(t *testing.T) {
	tr := makeTrace()
	if tr.Span() != 8 {
		t.Errorf("Span = %d, want 8", tr.Span())
	}
	if tr.Flits() != 10 {
		t.Errorf("Flits = %d, want 10", tr.Flits())
	}
	// 6 of 10 flits are short (layers==1).
	if got := tr.ShortFlitPercent(); math.Abs(got-60) > 1e-9 {
		t.Errorf("ShortFlitPercent = %v, want 60", got)
	}
	shares := tr.ClassShares()
	if math.Abs(shares[noc.Control]-0.5) > 1e-9 || math.Abs(shares[noc.Data]-0.5) > 1e-9 {
		t.Errorf("class shares = %v", shares)
	}
	if r := tr.InjectionRate(36); math.Abs(r-10.0/8/36) > 1e-12 {
		t.Errorf("InjectionRate = %v", r)
	}
}

func TestTraceSort(t *testing.T) {
	tr := &Trace{Events: []Event{{Cycle: 5}, {Cycle: 1}, {Cycle: 3}}}
	tr.Sort()
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Cycle < tr.Events[i-1].Cycle {
			t.Fatalf("not sorted: %v", tr.Events)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := makeTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Errorf("name = %q, want %q", got.Name, tr.Name)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(tr.Events))
	}
	for i, e := range got.Events {
		w := tr.Events[i]
		if e.Cycle != w.Cycle || e.Src != w.Src || e.Dst != w.Dst || e.Size != w.Size || e.Class != w.Class {
			t.Errorf("event %d = %+v, want %+v", i, e, w)
		}
		if (e.Layers == nil) != (w.Layers == nil) {
			t.Errorf("event %d layers nil-ness mismatch", i)
		}
		for j := range e.Layers {
			if e.Layers[j] != w.Layers[j] {
				t.Errorf("event %d layer %d = %d, want %d", i, j, e.Layers[j], w.Layers[j])
			}
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",         // too few fields
		"x 1 2 1 0 -\n",   // bad int
		"0 1 2 2 0 1\n",   // layer count mismatch
		"0 1 2 1 0 abc\n", // bad layer value
		"0 1 2 1 0 1,2\n", // too many layers
	}
	for _, s := range cases {
		if _, err := ReadTrace(bytes.NewBufferString(s)); err == nil {
			t.Errorf("ReadTrace(%q) should fail", s)
		}
	}
}

func TestReplayerLoop(t *testing.T) {
	tr := makeTrace()
	r := &Replayer{Trace: tr}
	var got int
	for c := int64(0); c < 16; c++ { // two full spans
		got += len(r.Generate(c, nil, nil))
	}
	if got != 8 {
		t.Errorf("replayed %d events over two spans, want 8", got)
	}
}

func TestReplayerBatchesSameCycle(t *testing.T) {
	tr := makeTrace()
	r := &Replayer{Trace: tr}
	if n := len(r.Generate(3, nil, nil)); n != 3 { // cycle-0 event was never asked for... it arrives now too
		// Events at cycles 0 and 3 are all due by cycle 3.
		t.Errorf("events due by cycle 3 = %d, want 3", n)
	}
}

func TestReplayerEmptyTrace(t *testing.T) {
	r := &Replayer{Trace: &Trace{}}
	if specs := r.Generate(0, nil, nil); specs != nil {
		t.Errorf("empty trace should generate nothing")
	}
}

// TestGenerateSteadyStateAllocs: once its buffers have grown, an
// open-loop generator allocates nothing per cycle; Generate runs on
// every simulated cycle.
func TestGenerateSteadyStateAllocs(t *testing.T) {
	nuca := topology.NewMesh2D(6, 6, 3.1)
	if err := topology.ApplyNUCALayout2D(nuca); err != nil {
		t.Fatal(err)
	}
	mesh := topology.NewMesh2D(6, 6, 3.1)
	for _, tc := range []struct {
		name string
		gen  noc.Generator
	}{
		{"uniform", &Uniform{Topo: mesh, InjectionRate: 0.3, PacketSize: 4}},
		{"nuca", &NUCA{Topo: nuca, InjectionRate: 0.3, RequestSize: 1, ResponseSize: 4}},
		{"permutation", &Permutation{Topo: mesh, InjectionRate: 0.3, PacketSize: 4, Dst: Transpose, Name: "transpose"}},
		{"hotspot", &Hotspot{Topo: mesh, InjectionRate: 0.3, PacketSize: 4, Hot: []topology.NodeID{7, 28}, Frac: 0.3}},
		{"replayer", &Replayer{Trace: makeTrace()}},
	} {
		rng := rand.New(rand.NewSource(1))
		var specs []noc.Spec
		cycle := int64(0)
		step := func() {
			specs = tc.gen.Generate(cycle, rng, specs[:0])
			cycle++
		}
		for cycle < 5000 {
			step()
		}
		if n := testing.AllocsPerRun(2000, step); n != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", tc.name, n)
		}
	}
}
