package cmp

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mira/internal/core"
	"mira/internal/noc"
	"mira/internal/routing"
	"mira/internal/topology"
	"mira/internal/traffic"
)

// generateTrace runs a default-parameter System for cycles and returns
// its trace and statistics.
func generateTrace(w Workload, topo *topology.Topology, cycles, seed int64) (*traffic.Trace, Stats, error) {
	sys, err := NewSystem(DefaultParams(w, topo, seed))
	if err != nil {
		return nil, Stats{}, err
	}
	tr, st := sys.Run(cycles)
	return tr, st, nil
}

func nucaTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo := topology.NewMesh2D(6, 6, 3.1)
	if err := topology.ApplyNUCALayout2D(topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestL1FillLookup(t *testing.T) {
	c := &L1{}
	if st := c.Lookup(100); st != Invalid {
		t.Fatalf("empty cache hit: %v", st)
	}
	c.Fill(100, Shared)
	if st := c.Lookup(100); st != Shared {
		t.Fatalf("Lookup = %v, want S", st)
	}
	c.SetState(100, Modified)
	if st := c.Lookup(100); st != Modified {
		t.Fatalf("Lookup = %v, want M", st)
	}
	c.SetState(100, Invalid)
	if st := c.Lookup(100); st != Invalid {
		t.Fatalf("invalidate failed: %v", st)
	}
}

func TestL1LRUEviction(t *testing.T) {
	c := &L1{}
	// Four lines map to the same set (stride L1Sets).
	base := uint32(7)
	for i := 0; i < L1Ways; i++ {
		c.Fill(base+uint32(i*L1Sets), Shared)
	}
	// Touch line 0 so line 1 becomes LRU.
	c.Lookup(base)
	v, vs := c.Fill(base+uint32(L1Ways*L1Sets), Modified)
	if vs == Invalid {
		t.Fatalf("full set should evict")
	}
	if v != base+uint32(1*L1Sets) {
		t.Errorf("evicted %d, want LRU line %d", v, base+uint32(L1Sets))
	}
	if c.Lookup(base) == Invalid {
		t.Errorf("recently used line evicted")
	}
}

func TestL1SetStateMissNoOp(t *testing.T) {
	c := &L1{}
	c.SetState(42, Modified) // must not panic or install
	if c.Lookup(42) != Invalid {
		t.Errorf("SetState installed a line")
	}
}

func TestDirectorySharers(t *testing.T) {
	d := NewDirectory()
	e := d.Entry(5)
	if e.owner != -1 || e.sharers != 0 {
		t.Fatalf("fresh entry not empty: %+v", e)
	}
	e.addSharer(0)
	e.addSharer(3)
	if got := e.Sharers(); !slices.Equal(got, []int{0, 3}) {
		t.Errorf("Sharers = %v, want [0 3]", got)
	}
	if e.clearSharer(0); !slices.Equal(e.Sharers(), []int{3}) {
		t.Errorf("clearSharer(0): Sharers = %v, want [3]", e.Sharers())
	}
	e.clearAll()
	if e.sharers != 0 || e.owner != -1 {
		t.Errorf("clearAll failed: %+v", e)
	}
	if d.Entry(5) != e {
		t.Errorf("Entry not stable")
	}
}

// TestControlPayloadIsShort: every control packet a System emits is one
// address flit, the line address in the top layer's word and zeros
// above, so it needs one layer (§3.2.1).
func TestControlPayloadIsShort(t *testing.T) {
	w, _ := ByName("tpcw")
	tr, _, err := generateTrace(w, nucaTopo(t), 5000, 6)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range tr.Events {
		if e.Class != noc.Control {
			continue
		}
		n++
		if !slices.Equal(e.Layers, []uint8{1}) {
			t.Fatalf("control packet %+v: layers %v, want [1]", e, e.Layers)
		}
	}
	if n == 0 {
		t.Fatal("no control packets emitted")
	}
}

// TestLineLayersMatchPacketLayers: the interned layers of a line are
// core.ActiveLayers of each flit's words.
func TestLineLayersMatchPacketLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var counts [traffic.NumPatterns]int64
	p := traffic.PatternProfile{Zero: 0.4, One: 0.2, Freq: 0.1}
	for i := 0; i < 2000; i++ {
		l := dataPayload(p, rng, &counts)
		want := make([]uint8, len(l))
		for f := range l {
			want[f] = core.ActiveLayers(l[f][:])
		}
		if got := l.layers(); !slices.Equal(got, want) {
			t.Fatalf("line %x: layers %v, want %v", l, got, want)
		}
	}
}

func TestDataPayloadShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var counts [traffic.NumPatterns]int64
	p := dataPayload(traffic.PatternProfile{Zero: 0.5}, rng, &counts)
	if len(p) != flitsPerLine {
		t.Fatalf("flits = %d, want %d", len(p), flitsPerLine)
	}
	for _, f := range p {
		if len(f) != wordsPerFlit {
			t.Fatalf("words = %d, want %d", len(f), wordsPerFlit)
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != flitsPerLine*wordsPerFlit {
		t.Errorf("counted %d words, want %d", total, flitsPerLine*wordsPerFlit)
	}
}

func TestSampleWordNeverAccidentallyRedundant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := traffic.PatternProfile{} // only PatternOther
	for i := 0; i < 1000; i++ {
		v, pat := sampleWord(p, rng)
		if pat != traffic.PatternOther {
			t.Fatalf("pattern = %v", pat)
		}
		if v == 0 || v == ^uint32(0) {
			t.Fatalf("irregular word sampled as redundant: %x", v)
		}
	}
}

func TestWorkloadsValid(t *testing.T) {
	if len(Workloads) < 6 {
		t.Fatalf("need at least the 6 presented workloads, have %d", len(Workloads))
	}
	seen := map[string]bool{}
	for _, w := range Workloads {
		if err := w.Patterns.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Intensity <= 0 || w.Intensity > 0.5 {
			t.Errorf("%s: intensity %v out of range", w.Name, w.Intensity)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
	}
	for _, name := range Presented {
		if _, ok := ByName(name); !ok {
			t.Errorf("presented workload %s missing", name)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Errorf("ByName should miss")
	}
}

func TestSystemGeneratesProtocolTraffic(t *testing.T) {
	w, _ := ByName("tpcw")
	tr, st, err := generateTrace(w, nucaTopo(t), 30000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.L1Misses == 0 {
		t.Fatalf("no memory activity: %+v", st)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	// All message kinds of the MESI protocol should appear.
	for _, k := range []MsgKind{KindGetS, KindGetX, KindData, KindWriteBack, KindInv, KindAck} {
		if st.KindCounts[k] == 0 {
			t.Errorf("no %v messages generated", k)
		}
	}
	// Responses match requests reasonably (every GetS/GetX produces one
	// data or ack response; invals produce acks).
	reqs := st.KindCounts[KindGetS] + st.KindCounts[KindGetX]
	if st.KindCounts[KindData] == 0 || st.KindCounts[KindData] > reqs+st.KindCounts[KindFwd] {
		t.Errorf("data responses %d inconsistent with %d requests", st.KindCounts[KindData], reqs)
	}
}

func TestTraceSortedAndValid(t *testing.T) {
	topo := nucaTopo(t)
	w, _ := ByName("ocean")
	tr, _, err := generateTrace(w, topo, 20000, 2)
	if err != nil {
		t.Fatal(err)
	}
	isCPU := map[topology.NodeID]bool{}
	for _, id := range topo.CPUs() {
		isCPU[id] = true
	}
	prev := int64(-1)
	for _, e := range tr.Events {
		if e.Cycle < prev {
			t.Fatalf("trace not sorted")
		}
		prev = e.Cycle
		if e.Src == e.Dst {
			t.Fatalf("self message %+v", e)
		}
		if e.Size != 1 && e.Size != 4 {
			t.Fatalf("bad packet size %d", e.Size)
		}
		if e.Class == noc.Control && e.Size != 1 {
			t.Fatalf("control packet with %d flits", e.Size)
		}
		if len(e.Layers) != e.Size {
			t.Fatalf("layers/size mismatch")
		}
	}
}

func TestShortFlitPercentages(t *testing.T) {
	// Figure 13 (a): up to ~58 % short flits, ~40 % average over the six
	// presented workloads; commercial workloads above scientific ones.
	got := map[string]float64{}
	var sum float64
	for _, name := range Presented {
		w, _ := ByName(name)
		_, st, err := generateTrace(w, nucaTopo(t), 30000, 3)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = st.ShortFlitPct()
		sum += st.ShortFlitPct()
	}
	avg := sum / float64(len(Presented))
	if avg < 30 || avg > 50 {
		t.Errorf("average short-flit%% = %.1f, want ~40 (%v)", avg, got)
	}
	max := 0.0
	for _, v := range got {
		if v > max {
			max = v
		}
	}
	if max < 48 || max > 68 {
		t.Errorf("max short-flit%% = %.1f, want ~58 (%v)", max, got)
	}
	if got["tpcw"] <= got["ocean"] {
		t.Errorf("commercial tpcw (%.1f) should exceed scientific ocean (%.1f)", got["tpcw"], got["ocean"])
	}
}

func TestMOESIReducesWritebacks(t *testing.T) {
	// The Owned state defers write-backs from read forwards to
	// evictions; on sharing-heavy traffic MOESI must emit fewer
	// write-backs (and no more total packets) than MESI.
	w, _ := ByName("barnes") // highest SharedFrac of the suite
	run := func(proto Protocol) Stats {
		p := DefaultParams(w, nucaTopo(t), 17)
		p.Protocol = proto
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		_, st := sys.Run(25000)
		return st
	}
	mesi, moesi := run(MESI), run(MOESI)
	if mesi.KindCounts[KindFwd] == 0 {
		t.Fatalf("no forwards generated; sharing model broken")
	}
	if moesi.KindCounts[KindWriteBack] >= mesi.KindCounts[KindWriteBack] {
		t.Errorf("MOESI write-backs %d should undercut MESI %d",
			moesi.KindCounts[KindWriteBack], mesi.KindCounts[KindWriteBack])
	}
	// Owned owners keep supplying readers: at least as many forwards.
	if moesi.KindCounts[KindFwd] < mesi.KindCounts[KindFwd]/2 {
		t.Errorf("MOESI forwards %d implausibly low vs MESI %d",
			moesi.KindCounts[KindFwd], mesi.KindCounts[KindFwd])
	}
}

func TestOwnedStateLifecycle(t *testing.T) {
	c := &L1{}
	c.Fill(9, Modified)
	c.SetState(9, Owned)
	if st := c.Lookup(9); st != Owned {
		t.Fatalf("state = %v, want O", st)
	}
	if !Owned.Dirty() || !Modified.Dirty() {
		t.Errorf("O and M are dirty states")
	}
	if Shared.Dirty() || Exclusive.Dirty() || Invalid.Dirty() {
		t.Errorf("S/E/I are clean states")
	}
	if Owned.String() != "O" {
		t.Errorf("Owned stringer wrong")
	}
	if MOESI.String() != "MOESI" || MESI.String() != "MESI" {
		t.Errorf("protocol stringer wrong")
	}
}

func TestL1HitRateSane(t *testing.T) {
	// With the temporal-reuse window, the L1 filters a substantial part
	// of the access stream (the generator models a post-register-file
	// reference stream, so the rate is lower than a raw program's).
	for _, name := range []string{"tpcw", "ocean"} {
		w, _ := ByName(name)
		_, st, err := generateTrace(w, nucaTopo(t), 20000, 13)
		if err != nil {
			t.Fatal(err)
		}
		hitRate := float64(st.L1Hits) / float64(st.Accesses)
		if hitRate < 0.30 || hitRate > 0.85 {
			t.Errorf("%s: L1 hit rate %.2f outside [0.30, 0.85]", name, hitRate)
		}
	}
}

func TestReuseWindow(t *testing.T) {
	var r reuseWindow
	rng := rand.New(rand.NewSource(1))
	if _, ok := r.sample(rng); ok {
		t.Fatal("empty window should not sample")
	}
	r.push(42)
	if v, ok := r.sample(rng); !ok || v != 42 {
		t.Fatalf("sample = %v,%v", v, ok)
	}
	for i := 0; i < 2*reuseWindowSize; i++ {
		r.push(uint32(1000 + i))
	}
	if r.n != reuseWindowSize {
		t.Errorf("window overgrew: %d", r.n)
	}
	// Old entries must have been overwritten.
	for i := 0; i < 200; i++ {
		if v, _ := r.sample(rng); v == 42 {
			t.Fatalf("stale entry survived wrap-around")
		}
	}
}

func TestControlPacketShareSignificant(t *testing.T) {
	// Figure 2: a significant part of the traffic is short
	// address/coherence packets.
	w, _ := ByName("sjbb")
	_, st, err := generateTrace(w, nucaTopo(t), 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	frac := st.ControlPacketFrac()
	if frac < 0.3 || frac > 0.8 {
		t.Errorf("control packet fraction = %.2f, want significant (0.3-0.8)", frac)
	}
}

func TestWordPatternSharesMatchProfile(t *testing.T) {
	w, _ := ByName("tpcw")
	_, st, err := generateTrace(w, nucaTopo(t), 30000, 5)
	if err != nil {
		t.Fatal(err)
	}
	shares := st.WordPatternShares()
	if z := shares[traffic.PatternZero]; z < w.Patterns.Zero-0.05 || z > w.Patterns.Zero+0.05 {
		t.Errorf("zero-word share = %.3f, want ~%.2f", z, w.Patterns.Zero)
	}
}

func TestDeterministicTraces(t *testing.T) {
	w, _ := ByName("apache")
	a, sa, err := generateTrace(w, nucaTopo(t), 10000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if b, sb, _ := generateTrace(w, nucaTopo(t), 10000, 9); !reflect.DeepEqual(a, b) || sa != sb {
		t.Errorf("non-deterministic generation")
	}
}

func TestOutstandingLimit(t *testing.T) {
	w, _ := ByName("ocean")
	w.Intensity = 0.9 // saturate the MSHRs
	p := DefaultParams(w, nucaTopo(t), 6)
	p.MaxOutstanding = 2
	p.MemLat = 2000
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	_, st := sys.Run(5000)
	// With only 2 MSHRs and long misses, misses are throttled well below
	// the unconstrained access rate.
	if st.Accesses == 0 || st.L1Misses > st.Accesses {
		t.Fatalf("%d accesses, %d misses", st.Accesses, st.L1Misses)
	}
}

func TestNewSystemValidation(t *testing.T) {
	plain := topology.NewMesh2D(6, 6, 3.1) // no CPU layout
	w, _ := ByName("tpcw")
	if _, err := NewSystem(DefaultParams(w, plain, 1)); err == nil {
		t.Errorf("topology without CPUs should be rejected")
	}
	bad := DefaultParams(w, nucaTopo(t), 1)
	bad.MaxOutstanding = 0
	if _, err := NewSystem(bad); err == nil {
		t.Errorf("zero MSHRs should be rejected")
	}
}

func TestTraceReplaysThroughNoC(t *testing.T) {
	// End-to-end: a generated trace must replay through the simulator
	// without protocol deadlock under the ByClass VC policy.
	topo := nucaTopo(t)
	w, _ := ByName("barnes")
	tr, _, err := generateTrace(w, topo, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := noc.Config{
		Topo: topo, Alg: routing.DOR{}, VCs: 2, BufDepth: 8,
		STLTCycles: 2, Layers: 4, Policy: noc.ByClass, Seed: 1,
	}
	net := noc.NewNetwork(cfg)
	sim := noc.NewSim(net, &traffic.Replayer{Trace: tr})
	sim.Params = noc.SimParams{Warmup: 1000, Measure: 7000, DrainMax: 20000}
	res := sim.Run(context.Background())
	if res.Generated == 0 {
		t.Fatal("nothing replayed")
	}
	if res.Ejected != res.Generated {
		t.Errorf("trace replay lost packets: %v", res.String())
	}
}
