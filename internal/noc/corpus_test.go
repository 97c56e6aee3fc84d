package noc

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mira/internal/routing"
	"mira/internal/topology"
)

// oracleShape is one generated comparison, every field a small index
// into the axis it names. It packs into the uint64 the fuzzer mutates
// (mixed radix, in axes order), so any uint64 decodes to a valid
// shape and the seed corpus can be written as field values. A new axis
// goes last, where its zero leaves every older packed input's decoding
// unchanged (TestOracleTestdataShapes).
type oracleShape struct {
	Topo, Lat, Ser, ChipExpress       int // fabric; Lat/Ser/ChipExpress apply to the chip grid
	Routing, Fault                    int
	Lookahead, Spec, STLT             int // Fig. 8 pipeline variants
	VCs, Depth, QoS, ByClass          int
	Rate, Pattern, Sizes, ShortLayers int // traffic
	Shards, Checked, Probed, Cycles   int
	LongLink                          int // chip grid: latency 16, 4:1 serialization in place of Lat/Ser
	MoreShards                        int // a shard count in place of Shards' (shapeMoreShards)
	ThreeLayers                       int // Layers = 3: a short flit's k/3 is inexact in float64
	Sim                               int // also a complete Sim.Run, held to its 1-shard activity twin (sameSim)
}

var (
	shapeVCs        = []int{1, 2, 3, 4, 16} // clamped to 64 flat VCs per router
	shapeDepths     = []int{1, 2, 4, 8}
	shapeLats       = []int{1, 2, 3, 6}
	shapeRates      = []float64{0.05, 0.15, 0.3, 0.6}
	shapeShards     = []int{1, 3}
	shapeMoreShards = []int{0, 2, 4, 5, 7, 8, AutoShards} // 0 leaves Shards' count
	shapeCycles     = []int64{100, 250, 400}
)

const (
	topoMesh     = iota // 4x4
	topoMesh3D          // 3x3x2
	topoExpress         // 5x4, express interval 2: up to 8 ports
	topoChipGrid        // 2x2 chips of 2x2 nodes, d2d lat:ser
	topoMeshWide        // 4x2: 4 ports, so 16 VCs is exactly 64 flat VCs
	numTopos
)

const (
	routeNative    = iota // DOR, express-first on the express fabrics
	routeWestFirst        // planar fabrics only
	numRoutes
)

const (
	sizesOne     = iota // single-flit packets
	sizesFour           // 4-flit packets
	sizesBimodal        // 1-flit control, 5-flit data
	sizesRandom         // 1..6
	numSizes
)

// shapeAxis is one field of a shape and the number of values it takes.
type shapeAxis struct {
	f *int
	n int
}

// axes lists every field with its radix, in packing order.
func (s *oracleShape) axes() []shapeAxis {
	return []shapeAxis{
		{&s.Topo, numTopos}, {&s.Lat, len(shapeLats)}, {&s.Ser, 3}, {&s.ChipExpress, 2},
		{&s.Routing, numRoutes}, {&s.Fault, 2},
		{&s.Lookahead, 2}, {&s.Spec, 2}, {&s.STLT, 2},
		{&s.VCs, len(shapeVCs)}, {&s.Depth, len(shapeDepths)}, {&s.QoS, 2}, {&s.ByClass, 2},
		{&s.Rate, len(shapeRates)}, {&s.Pattern, 3}, {&s.Sizes, numSizes}, {&s.ShortLayers, 2},
		{&s.Shards, len(shapeShards)}, {&s.Checked, 2}, {&s.Probed, 2}, {&s.Cycles, len(shapeCycles)},
		{&s.LongLink, 2}, {&s.MoreShards, len(shapeMoreShards)}, {&s.ThreeLayers, 2}, {&s.Sim, 2},
	}
}

func (s oracleShape) pack() uint64 {
	var v uint64
	ax := s.axes()
	for i := len(ax) - 1; i >= 0; i-- {
		v = v*uint64(ax[i].n) + uint64(*ax[i].f)
	}
	return v
}

func unpackShape(v uint64) oracleShape {
	var s oracleShape
	for _, a := range s.axes() {
		*a.f = int(v % uint64(a.n))
		v /= uint64(a.n)
	}
	return s
}

// build turns the shape into a production config and a generator.
func (s oracleShape) build(seed int64) (Config, Generator) {
	cfg := Config{
		STLTCycles: 1 + s.STLT, Layers: 4 - s.ThreeLayers, Seed: seed,
		LookaheadRC: s.Lookahead == 1, SpecSA: s.Spec == 1,
		BufDepth: shapeDepths[s.Depth], QoSPriority: s.QoS == 1,
		Shards: shapeShards[s.Shards],
	}
	if n := shapeMoreShards[s.MoreShards]; n != 0 {
		cfg.Shards = n
	}
	if s.Checked == 1 {
		cfg.Mode = StepChecked
	}
	cfg.Alg = routing.DOR{}
	switch s.Topo {
	case topoMesh:
		cfg.Topo = topology.NewMesh2D(4, 4, 3.1)
	case topoMesh3D:
		cfg.Topo = topology.NewMesh3D(3, 3, 2, 3.1, 0.02)
	case topoExpress:
		cfg.Topo = topology.NewExpressMesh2D(5, 4, 1.58, 2)
	case topoChipGrid:
		lat, ser := shapeLats[s.Lat], 1+s.Ser
		if s.LongLink == 1 {
			lat, ser = 16, 4
		}
		cfg.Topo = topology.NewChipGrid(topology.ChipGridSpec{
			ChipsX: 2, ChipsY: 2, NodesX: 2, NodesY: 2, PitchMM: 3.1,
			D2DLatency: lat, D2DSerCycles: ser, Express: s.ChipExpress == 1,
		})
	case topoMeshWide:
		cfg.Topo = topology.NewMesh2D(4, 2, 3.1)
	}
	if s.Routing == routeWestFirst && cfg.Topo.ZDim == 1 {
		var faults []routing.LinkFault
		if s.Fault == 1 { // a dead eastbound link in the top row
			faults = []routing.LinkFault{{Src: 1, Dir: topology.East}}
		}
		wf, err := routing.NewWestFirst(cfg.Topo, faults)
		if err != nil {
			wf, _ = routing.NewWestFirst(cfg.Topo, nil)
		}
		cfg.Alg = wf
	}
	cfg.VCs = min(shapeVCs[s.VCs], 64/cfg.Topo.MaxPorts())
	if s.ByClass == 1 && cfg.VCs >= int(NumClasses) {
		cfg.Policy = ByClass
	}

	n := cfg.Topo.NumNodes()
	hot := topology.NodeID(n / 3)
	rate := shapeRates[s.Rate]
	meanSize := [numSizes]float64{1, 4, 3, 3.5}[s.Sizes]
	gen := GeneratorFunc(func(_ int64, rng *rand.Rand, specs []Spec) []Spec {
		for src := 0; src < n; src++ {
			if rng.Float64() >= rate/meanSize {
				continue
			}
			sp := Spec{Src: topology.NodeID(src), Class: Class(rng.Intn(int(NumClasses)))}
			switch s.Sizes {
			case sizesOne:
				sp.Size = 1
			case sizesFour:
				sp.Size = 4
			case sizesBimodal:
				sp.Size = 1 + 4*int(sp.Class)
			case sizesRandom:
				sp.Size = 1 + rng.Intn(6)
			}
			sp.Dst = topology.NodeID(rng.Intn(n - 1)) // uniform over the other nodes
			if sp.Dst >= sp.Src {
				sp.Dst++
			}
			switch s.Pattern {
			case 1: // hotspot: half the traffic converges on one node
				if rng.Intn(2) == 0 && sp.Src != hot {
					sp.Dst = hot
				}
			case 2: // fixed partner: long-lived flows contending link by link
				if p := topology.NodeID(n - 1 - src); p != sp.Src {
					sp.Dst = p
				}
			}
			if s.ShortLayers == 1 {
				sp.LayersPerFlit = make([]uint8, sp.Size)
				for i := range sp.LayersPerFlit {
					sp.LayersPerFlit[i] = uint8(1 + rng.Intn(cfg.Layers))
				}
			}
			specs = append(specs, sp)
		}
		return specs
	})
	return cfg, gen
}

// corpusEntry is one comparison of the corpus: a shape and the seed it
// runs at. A named entry runs as the subtest its name spells (runCorpus);
// the unnamed ones are FuzzOracle's seed corpus.
type corpusEntry struct {
	name  string
	shape oracleShape
	seed  int64
	// edge requires the run to reach the request mask's edge: flat VC
	// 63 bidding for an output VC and a rotor left at 64 by a lone
	// grant to it.
	edge bool
}

// run is the body of FuzzOracle: one side-by-side comparison under load,
// the zero-load latency law on the same configuration and, for a Sim
// shape, the complete run against its 1-shard activity twin.
func (e corpusEntry) run(t testing.TB) {
	s := e.shape
	cfg, gen := s.build(e.seed)
	opts := oracleOpts{probed: s.Probed == 1}
	topBids, fullRotor := 0, 0
	if e.edge {
		opts.watch = func(net *Network) {
			for i := range net.routers {
				r := &net.routers[i]
				if len(r.vcState) == 64 && r.vcState[63] == vcWaitVC {
					topBids++
				}
				for k := range r.arbs {
					if r.arbs[k].next == 64 {
						fullRotor++
					}
				}
			}
		}
	}
	if got := againstOracle(t, cfg, gen, shapeCycles[s.Cycles], opts); len(got) == 0 && e.name != "" {
		t.Fatal("no traffic delivered; the entry is vacuous")
	}
	if e.edge && (topBids == 0 || fullRotor == 0) {
		t.Fatalf("the mask's edge was not reached: flat VC 63 waited for a VC on %d router-cycles, a rotor stood at 64 on %d", topBids, fullRotor)
	}
	checkZeroLoad(t, cfg, rand.New(rand.NewSource(e.seed)), 6, 4)
	if s.Sim == 1 {
		sameSim(t, cfg, gen, shapeCycles[s.Cycles], opts.probed)
	}
}

// sameSim runs cfg as a complete Sim (warmup, counter reset with flits
// on the wire, measurement, drain) and holds its Result — every derived
// metric, Saturated and Stalled, the window's counters per router — and
// the drained network's counters per router to the same run at 1 shard
// in activity mode, bit for bit, and its per-class results to its
// totals; probed, also its probe stream, event for event and in order
// (the SetProbe contract), taken by a BatchProbe against the reference's
// per-record probe.
func sameSim(t testing.TB, cfg Config, gen Generator, measure int64, probed bool) {
	t.Helper()
	run := func(cfg Config, batch bool) ([]byte, probeTap) {
		net := NewNetwork(cfg)
		var tap batchTap
		switch {
		case probed && batch:
			net.SetProbe(&tap)
		case probed:
			net.SetProbe(&tap.probeTap)
		}
		s := NewSim(net, gen)
		s.Params = SimParams{Warmup: measure / 2, Measure: measure, DrainMax: 8000}
		res := s.Run(context.Background())
		if res.Ejected != res.Generated || res.Stalled {
			t.Fatalf("shards %d mode %v: %v", cfg.Shards, cfg.Mode, res.String())
		}
		// The classes partition the packets, and their mean latencies
		// weighted by their counts make the blended mean.
		ctrl, data := res.PerClass[Control], res.PerClass[Data]
		sum := float64(ctrl.Ejected)*ctrl.AvgLatency + float64(data.Ejected)*data.AvgLatency
		if ctrl.Ejected+data.Ejected != res.Ejected || math.Abs(sum-float64(res.Ejected)*res.AvgLatency) > 1e-9*max(1, sum) {
			t.Fatalf("shards %d mode %v: per-class results %+v do not add up to %v", cfg.Shards, cfg.Mode, res.PerClass, res.String())
		}
		b, _ := json.Marshal([]any{res, net.RouterCounters()})
		return b, tap.probeTap
	}
	ref := cfg
	ref.Shards, ref.Mode = 1, StepActivity
	want, wantEvents := run(ref, false)
	got, gotEvents := run(cfg, true)
	if string(got) != string(want) {
		t.Fatalf("shards %d mode %v: Result differs from 1 shard in activity mode:\n%s\n%s", cfg.Shards, cfg.Mode, got, want)
	}
	for i := range max(len(wantEvents), len(gotEvents)) {
		if i >= len(wantEvents) || i >= len(gotEvents) || gotEvents[i] != wantEvents[i] {
			t.Fatalf("shards %d mode %v: probe event %d of %d differs from 1 shard's (of %d)",
				cfg.Shards, cfg.Mode, i, len(gotEvents), len(wantEvents))
		}
	}
}

// oracleCorpus is the tier-1 corpus. The named entries come first: the
// suites that used to hold production to a reference shape by shape,
// each now a list of shapes its test runs (runCorpus). Then the seed
// corpus: hand-picked corners and a fixed pseudo-random spread wide
// enough that, with the named entries, every value of every axis
// occurs (TestOracleCorpusCoversAxes holds it to that).
func oracleCorpus() []corpusEntry {
	var corpus []corpusEntry
	add := func(name string, seed int64, s oracleShape) {
		corpus = append(corpus, corpusEntry{name: name, shape: s, seed: seed})
	}
	type named struct {
		name string
		s    oracleShape
	}
	// The pipelines and fabrics the older suites swept: 2 VCs of depth 8,
	// 4-flit packets at 0.15 flits/node/cycle.
	pipelines := []named{
		{"mesh-stlt2", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1}},
		{"mesh-lookahead-spec", oracleShape{Topo: topoMesh, Lookahead: 1, Spec: 1, Rate: 1}},
		{"mesh-qos", oracleShape{Topo: topoMesh, STLT: 1, QoS: 1, Rate: 1}},
		{"mesh3d", oracleShape{Topo: topoMesh3D, STLT: 1, Rate: 1}},
		{"express-saturated", oracleShape{Topo: topoExpress, Rate: 3}},
	}
	// Sharded production against the oracle, on both sides of a small
	// host's core count so the pool barrier both spins and parks
	// (pool.go): 2, 4 or 8 shards; 3 with every pipeline event
	// compared (the arm keeps its old name); 5 in checked mode.
	cuts := []int{1, 2, 5} // 2, 4, 8 shards
	for i, p := range pipelines {
		for j, seed := range []int64{42, 7} {
			s := p.s
			s.VCs, s.Depth, s.Sizes = 1, 3, sizesFour
			s.MoreShards, s.Cycles = cuts[(2*i+j)%3], 2
			add(fmt.Sprintf("TestShardDeterminism/%s/seed%d/activity", p.name, seed), seed, s)
			s.MoreShards, s.Shards, s.Probed, s.Cycles = 0, 1, 1, 1
			add(fmt.Sprintf("TestShardDeterminism/%s/seed%d/fullscan", p.name, seed), seed, s)
			s.MoreShards, s.Probed, s.Checked = 3, 0, 1
			add(fmt.Sprintf("TestShardDeterminism/%s/seed%d/checked", p.name, seed), seed, s)
		}
	}
	// Unsharded, every pipeline option alone, and a light and a saturated load.
	for _, p := range []named{
		{"mesh-stlt2", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1}},
		{"mesh-stlt1-lookahead", oracleShape{Topo: topoMesh, Lookahead: 1, Rate: 1}},
		{"mesh-spec-sa", oracleShape{Topo: topoMesh, STLT: 1, Spec: 1, Rate: 1}},
		{"mesh-qos", oracleShape{Topo: topoMesh, STLT: 1, QoS: 1, Rate: 1}},
		{"mesh3d", oracleShape{Topo: topoMesh3D, STLT: 1, Rate: 1}},
		{"express-low", oracleShape{Topo: topoExpress, Rate: 0}},
		{"express-saturated", oracleShape{Topo: topoExpress, Rate: 3}},
	} {
		s := p.s
		s.VCs, s.Depth, s.Sizes, s.Cycles = 1, 3, sizesFour, 2
		add("TestActivityMatchesFullScan/"+p.name, 11, s)
	}
	// The lat:ser chip grid with express links, cut by shard counts that
	// split chips (3, 5, 7) or do not, AutoShards and checked mode, each
	// also as a complete Sim against its 1-shard twin. The SpecSA half
	// puts speculative forwards, the second send phase of the rings, on
	// the cross-shard path.
	for _, spec := range []int{0, 1} {
		group := []string{"baseline", "specsa"}[spec]
		for _, c := range []struct {
			name                string
			shards, more, check int
		}{
			{"shards2", 0, 1, 0}, {"shards3", 1, 0, 0}, {"shards4", 0, 2, 0}, {"shards5", 0, 3, 0},
			{"shards7", 0, 4, 0}, {"auto", 0, 6, 0}, {"checked1", 0, 0, 1}, {"checked3", 1, 0, 1},
		} {
			if spec == 1 && (c.name == "shards5" || c.name == "auto" || c.name == "checked1") {
				continue
			}
			add("TestChipletDeterminismSuite/"+group+"/"+c.name, 7, oracleShape{
				Topo: topoChipGrid, Lat: 3, Ser: 1, ChipExpress: 1, Spec: spec, VCs: 1, Depth: 3,
				Rate: 1, Sizes: sizesFour, Shards: c.shards, MoreShards: c.more, Checked: c.check,
				Probed: c.shards, Cycles: 1, Sim: 1,
			})
		}
	}
	// Bimodal packets on the SpecSA grid at 3 shards: a single-flit
	// packet's tail ejects in the speculative (second) send phase, so the
	// ejection callbacks' (send phase, shard) order reaches Sim's sums.
	add("TestChipletDeterminismSuite/specsa/bimodal-shards3", 7, oracleShape{
		Topo: topoChipGrid, Lat: 3, Ser: 1, ChipExpress: 1, Spec: 1, VCs: 1, Depth: 3,
		Rate: 1, Sizes: sizesBimodal, Shards: 1, Probed: 1, Cycles: 1, Sim: 1,
	})
	// Look-ahead routing with speculation across d2d (lat 6) cuts: routes
	// in the RC stage, ejections of both send phases, and three shards'
	// stage marks replayed as one shard's stream.
	add("TestChipletDeterminismSuite/lookahead/shards3", 7, oracleShape{
		Topo: topoChipGrid, Lat: 3, Ser: 1, Lookahead: 1, Spec: 1, VCs: 1, Depth: 3,
		Rate: 1, Sizes: sizesFour, Shards: 1, Probed: 1, Cycles: 1, Sim: 1,
	})
	// The 64-flat-VC edge: 4 ports x 16 VCs of depth 1, single flits at
	// 0.6 with a hotspot (seed 41 reaches the edge in every combination),
	// with and without QoS and the short pipeline, checked mode as a
	// complete Sim; the last one also at 3 shards.
	add("TestActivityMatchesFullScanSim/mesh-stlt2", 42, oracleShape{Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3,
		Sizes: sizesFour, Rate: 1, Checked: 1, Sim: 1, Cycles: 2})
	for _, qos := range []int{0, 1} {
		for _, spec := range []int{0, 1} {
			name := "wide-round-robin" + []string{"", "-qos"}[qos] + []string{"", "-spec"}[spec]
			s := oracleShape{Topo: topoMeshWide, VCs: 4, QoS: qos, Lookahead: spec, Spec: spec,
				Rate: 3, Pattern: 1, Sizes: sizesOne, Checked: spec, Sim: spec & qos, Cycles: 2}
			corpus = append(corpus, corpusEntry{name: "TestActivityMatchesFullScanSim/" + name, shape: s, seed: 41, edge: true})
			if qos+spec == 2 {
				s.Checked, s.Shards = 0, 1
				corpus = append(corpus, corpusEntry{name: "TestShardDeterminism/" + name, shape: s, seed: 41, edge: true})
			}
		}
	}
	// PR 6's stale-port VA re-entry: SpecSA + LookaheadRC, saturated
	// single-flit traffic, so a queued head waits behind every tail;
	// several seeds, since one arbiter history may not expose it.
	for _, seed := range []int64{3, 11, 42, 1234} {
		add(fmt.Sprintf("TestSpecLookaheadSingleFlitChainReentry/seed%d", seed), seed, oracleShape{
			Topo: topoMesh, Lookahead: 1, Spec: 1, VCs: 1, Depth: 2, Rate: 3, Sizes: sizesOne, Cycles: 2})
	}
	// ByClass allocation plus QoS under bimodal control/data traffic.
	add("TestStepModeMixedClasses/byclass-qos", 3, oracleShape{Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3,
		ByClass: 1, QoS: 1, Sizes: sizesBimodal, Rate: 2, Checked: 1, Sim: 1, Cycles: 2})
	add("TestInvariantsByClassBimodal/mesh", 6, oracleShape{Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3,
		ByClass: 1, Sizes: sizesBimodal, Rate: 2, Cycles: 2})
	// Every pipeline event, Fig. 8 (a) and then (d), the latter checked.
	add("TestProbeEventStreamDeterministicAcrossModes/fig8a", 1, oracleShape{Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3,
		Sizes: sizesFour, Rate: 1, Probed: 1, Cycles: 2})
	add("TestProbeEventStreamDeterministicAcrossModes/fig8d", 1, oracleShape{Topo: topoMesh, Lookahead: 1, Spec: 1,
		VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 1, Probed: 1, Checked: 1, Cycles: 2})
	// Three layers and short flits at 2 and 3 shards: the counters per
	// router, read mid-run after a reset taken with flits on the wire,
	// bit-identical to 1 shard.
	for _, c := range []struct {
		name         string
		shards, more int
	}{{"shards2", 0, 1}, {"shards3", 1, 0}} {
		add("TestShardCountersThreeLayers/"+c.name, 5, oracleShape{
			Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 1, ShortLayers: 1, ThreeLayers: 1,
			Shards: c.shards, MoreShards: c.more, Sim: 1, Cycles: 2})
	}
	// Sim.Run's drain exit at 2 and 4 shards: a flit crossing a shard
	// boundary counts up in one shard and down in another, so only the
	// summed backlog reaches zero (sameSim fails a Stalled run).
	for _, more := range []int{1, 2} {
		add(fmt.Sprintf("TestShardedDrainReachesIdle/shards%d", shapeMoreShards[more]), 1, oracleShape{Topo: topoMesh,
			STLT: 1, VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 1, MoreShards: more, Sim: 1, Cycles: 2})
	}
	// Loaded and overloaded fabrics, under invariants every 32 cycles.
	for _, c := range []named{
		{"mesh-stlt2", oracleShape{Topo: topoMesh, STLT: 1, Rate: 2}},
		{"mesh-stlt1", oracleShape{Topo: topoMesh, Rate: 2}},
		{"mesh3d", oracleShape{Topo: topoMesh3D, STLT: 1, Rate: 2}},
		{"express", oracleShape{Topo: topoExpress, Rate: 2}},
		{"express-overload", oracleShape{Topo: topoExpress, Rate: 3}},
	} {
		s := c.s
		s.VCs, s.Depth, s.Sizes, s.Cycles = 1, 3, sizesFour, 2
		add("TestInvariantsUnderLoad/"+c.name, 5, s)
	}
	// Every Fig. 8 pipeline on every fabric the paper compares, QoS
	// alternating.
	for i, topo := range []int{topoMesh, topoMesh3D, topoExpress} {
		for p := 0; p < 8; p++ {
			s := oracleShape{Topo: topo, Lookahead: p & 1, Spec: p >> 1 & 1, STLT: p >> 2, VCs: 1, Depth: 3,
				Sizes: sizesFour, Rate: 1, QoS: min(1, (8*i+p)%3)}
			add(fmt.Sprintf("TestConfigMatrixDelivery/%s/la%d-spec%d-stlt%d", []string{"mesh", "mesh3d", "express"}[i],
				s.Lookahead, s.Spec, 1+s.STLT), int64(8*i+p), s)
		}
	}
	// Single-test corners: one VC reallocated by back-to-back packets of
	// fixed flows; speculation on express links at saturation, per-cycle
	// invariants included, also as a complete checked Sim; hop counts
	// equal to the routing function's (checkZeroLoad); the backlog
	// counters (queued and in-network flits against the oracle's every
	// cycle) down to zero after a drain.
	add("TestVCReallocation/one-vc", 1, oracleShape{Topo: topoMesh, STLT: 1, VCs: 0, Depth: 3, Sizes: sizesFour,
		Rate: 2, Pattern: 2, Checked: 1, Cycles: 2})
	add("TestSpeculationInvariantsUnderContention/express", 1, oracleShape{Topo: topoExpress, Lookahead: 1, Spec: 1,
		VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 3, Checked: 1, Cycles: 2})
	add("TestCheckedStepMode/express", 1, oracleShape{Topo: topoExpress, Lookahead: 1, Spec: 1, VCs: 1, Depth: 3,
		Sizes: sizesFour, Rate: 2, Checked: 1, Sim: 1, Cycles: 1})
	add("TestHopsMatchRouting/express", 3, oracleShape{Topo: topoExpress, VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 1})
	add("TestBacklogCounters/mesh", 1, oracleShape{Topo: topoMesh, STLT: 1, VCs: 1, Depth: 3, Sizes: sizesFour, Rate: 1, Cycles: 2})
	// The unit suites folded into the corpus, each under its old test ID,
	// at 2 VCs of depth 8. Zero load: checkZeroLoad holds lone packets of
	// 1 to 4 flits to the closed form. The Figure 8 pipeline family's head
	// latency per hop (from buffer write to the next router's buffer
	// write) is:
	//
	//	(a) 4-stage + LT:          RC, VA, SA, ST | LT      -> 3 + STLT
	//	(b) speculative SA:        RC, VA+SA, ST | LT       -> 2 + STLT
	//	(c) look-ahead + spec:     VA+SA, ST | LT           -> 1 + STLT
	//	(d) 3DM (combined ST+LT):  same stages, STLT = 1
	//
	// and a d2d link adds its latency less one and its serialization less
	// one, the later flits leaving a serialization apart. Under load the
	// comparison holds delivery (every packet, once, in flow order),
	// counters raw and layer-weighted, per-link credits, occupancy and
	// probe events to the oracle's every cycle, and sameSim a complete
	// run (no stall, nothing lost) to its 1-shard activity twin.
	for _, c := range []struct {
		name string
		s    oracleShape
	}{
		{"TestZeroLoadLatencySeparateSTLT/mesh", oracleShape{Topo: topoMesh, STLT: 1, Sizes: sizesOne}},
		{"TestZeroLoadLatencyCombinedSTLT/mesh", oracleShape{Topo: topoMesh, Sizes: sizesOne}},
		{"TestZeroLoadLatencyMultiHop/partner", oracleShape{Topo: topoMesh, STLT: 1, Pattern: 2, Sizes: sizesFour}},
		{"TestZeroLoadSerialization/mesh", oracleShape{Topo: topoMesh, STLT: 1, Sizes: sizesFour}},
		{"TestZeroLoadExpressFewerHops/express", oracleShape{Topo: topoExpress, Sizes: sizesFour}},
		{"TestZeroLoad3DVertical/mesh3d", oracleShape{Topo: topoMesh3D, STLT: 1, Sizes: sizesFour}},
		{"TestQoSZeroLoadUnchanged/mesh", oracleShape{Topo: topoMesh, STLT: 1, QoS: 1, Sizes: sizesFour}},
		{"TestPipelineFig8aBaseline/mesh", oracleShape{Topo: topoMesh, STLT: 1, Sizes: sizesOne}},
		{"TestPipelineFig8bSpeculative/mesh", oracleShape{Topo: topoMesh, STLT: 1, Spec: 1, Sizes: sizesOne}},
		{"TestPipelineFig8cLookaheadSpec/mesh", oracleShape{Topo: topoMesh, STLT: 1, Lookahead: 1, Spec: 1, Sizes: sizesOne}},
		{"TestPipelineLookaheadOnly/mesh", oracleShape{Topo: topoMesh, STLT: 1, Lookahead: 1, Sizes: sizesOne}},
		{"TestPipelineFig8dCombined/mesh", oracleShape{Topo: topoMesh, Lookahead: 1, Spec: 1, Sizes: sizesOne}},
		{"TestChipGridUnitTimingMatchesMesh/lat1-ser1", oracleShape{Topo: topoChipGrid, Sizes: sizesFour}},
		{"TestChipletD2DLatency/lat6", oracleShape{Topo: topoChipGrid, Lat: 3, STLT: 1, Sizes: sizesFour}},
		{"TestChipletSerialization/ser3", oracleShape{Topo: topoChipGrid, Ser: 2, STLT: 1, Sizes: sizesFour}},
		{"TestChipletSerialization/lat16-ser4", oracleShape{Topo: topoChipGrid, LongLink: 1, STLT: 1, Sizes: sizesFour}},
		{"TestConservationUnderLoad/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Sim: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestCounterConsistency/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestWeightedCountersFullLayersEqualRaw/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 0, Cycles: 2, Sizes: sizesFour}},
		{"TestWeightedCountersShortFlits/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 0, ShortLayers: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestDeterminism/mesh", oracleShape{Topo: topoMesh, Rate: 1, Sim: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestByClassPolicyRequestResponse/mesh", oracleShape{Topo: topoMesh, STLT: 1, ByClass: 1, Sizes: sizesBimodal, Rate: 1, Cycles: 2}},
		{"TestInjectionBackpressure/partner", oracleShape{Topo: topoMesh, STLT: 1, Pattern: 2, Rate: 3, Cycles: 2, Sizes: sizesFour}},
		{"TestOccupancyBounded/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 3, Cycles: 2, Sizes: sizesFour}},
		{"TestInvariantsAfterDrain/express", oracleShape{Topo: topoExpress, Rate: 2, Cycles: 2, Sizes: sizesFour}},
		{"TestNoStallOnHealthyDrain/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 2, Sim: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestPacketIDsUnique/mesh", oracleShape{Topo: topoMesh, STLT: 1, Sizes: sizesOne, Rate: 1}},
		{"TestIdleNetworkStaysCheap/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Checked: 1, Sizes: sizesFour}},
		{"TestPerClassResults/bimodal", oracleShape{Topo: topoMesh, STLT: 1, ByClass: 1, Sizes: sizesBimodal, Rate: 2, Sim: 1, Cycles: 2}},
		{"TestProbePerFlitOrdering/baseline", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Probed: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestProbePerFlitOrdering/lookahead", oracleShape{Topo: topoMesh, STLT: 1, Lookahead: 1, Rate: 1, Probed: 1, Cycles: 2, Sizes: sizesFour}},
		{"TestProbePerFlitOrdering/lookahead_specsa", oracleShape{Topo: topoMesh, STLT: 1, Lookahead: 1, Spec: 1, Rate: 1, Probed: 1,
			Cycles: 2, Sizes: sizesFour}},
		{"TestProbeEventStreamMatchesCounters/mesh", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Probed: 1, Cycles: 2, Sizes: sizesFour}},
		// Sharded probe streams, every event in order, equal to 1 shard's
		// (sameSim), all six kinds from every emission phase with
		// look-ahead and speculation; and the boundary mailboxes at 4
		// shards (a VC has one upstream, so lane order moves no flit).
		{"TestShardProbeStreamIdentical/shards2", oracleShape{Topo: topoMesh, STLT: 1, Rate: 1, Probed: 1, MoreShards: 1, Sim: 1, Cycles: 1, Sizes: sizesFour}},
		{"TestShardProbeStreamIdentical/lookahead-shards8", oracleShape{Topo: topoMesh, STLT: 1, Lookahead: 1, Spec: 1, Rate: 1, Probed: 1,
			MoreShards: 5, Sim: 1, Cycles: 1, Sizes: sizesFour}},
		{"TestShardMailboxDrainOrder/shards4", oracleShape{Topo: topoMesh, STLT: 1, Rate: 2, MoreShards: 2, Cycles: 2, Sizes: sizesFour}},
	} {
		s := c.s
		s.VCs, s.Depth = 1, 3
		add(c.name, 1, s)
	}

	// The seed corpus. PR 6's defect: SpecSA + LookaheadRC, single-flit
	// packets, saturated.
	for i, s := range []oracleShape{
		{Topo: topoMesh, Lookahead: 1, Spec: 1, VCs: 1, Depth: 2, Rate: 3, Sizes: sizesOne, Cycles: 2},
		// The mask's edge: 4 ports x 16 VCs = 64 flat VCs.
		{Topo: topoMeshWide, VCs: 4, Depth: 1, Rate: 2, Sizes: sizesFour, STLT: 1},
		{Topo: topoMeshWide, VCs: 4, Depth: 1, Rate: 2, Sizes: sizesFour, QoS: 1, Lookahead: 1, Spec: 1, Shards: 1},
		// A lat:ser chip grid cut by three shards that ignore the chip tiling.
		{Topo: topoChipGrid, Lat: 3, Ser: 2, VCs: 1, Depth: 2, Rate: 1, Sizes: sizesBimodal, ByClass: 1, Shards: 1, STLT: 1},
		{Topo: topoChipGrid, Lat: 1, Ser: 1, ChipExpress: 1, VCs: 1, Depth: 1, Rate: 2, Pattern: 1, Sizes: sizesRandom, Spec: 1, Checked: 1},
		// Latency 16, 4:1 serialization: the counter reset lands with
		// flits deep on the d2d wires, where the write correction lives.
		{Topo: topoChipGrid, LongLink: 1, VCs: 1, Depth: 3, Rate: 2, Sizes: sizesFour, ShortLayers: 1, Cycles: 2},
		// Few VCs, shallow buffers, a hotspot: VA contended every cycle.
		{Topo: topoMesh, VCs: 0, Depth: 0, Rate: 2, Pattern: 1, Sizes: sizesFour},
		{Topo: topoMesh3D, VCs: 1, Depth: 1, Rate: 3, Pattern: 1, Sizes: sizesBimodal, ByClass: 1, QoS: 1, Shards: 1, ShortLayers: 1},
		// West-first around a dead link; express channels at saturation.
		{Topo: topoMesh, Routing: routeWestFirst, Fault: 1, VCs: 1, Depth: 2, Rate: 2, Pattern: 2, Sizes: sizesRandom, Lookahead: 1},
		{Topo: topoExpress, VCs: 1, Depth: 3, Rate: 3, Sizes: sizesFour, Shards: 1},
	} {
		add("", int64(i+1), s)
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 24; i++ {
		var s oracleShape
		ax := s.axes()
		for _, a := range ax[:len(ax)-4] { // LongLink and the later axes stay 0: the entries above cover them
			*a.f = rng.Intn(a.n)
		}
		add("", int64(11+i), s)
	}
	return corpus
}

// FuzzOracle compares production against the oracle over generated
// configurations: Fig. 8 pipeline variants x VCs x BufDepth x QoS x
// ByClass x fabric (mesh, 3D mesh, express, lat:ser chip grid) x
// routing x traffic x shards x checked mode. The seed corpus runs in
// tier-1; CI runs the fuzzer time-boxed.
func FuzzOracle(f *testing.F) {
	for _, e := range oracleCorpus() {
		if e.name == "" {
			f.Add(e.shape.pack(), e.seed)
		}
	}
	f.Fuzz(func(t *testing.T, shape uint64, seed int64) {
		corpusEntry{shape: unpackShape(shape), seed: seed}.run(t)
	})
}

// runCorpus runs every corpus entry named under t as a subtest.
func runCorpus(t *testing.T) {
	prefix := t.Name() + "/"
	ran := false
	for _, e := range oracleCorpus() {
		if sub, ok := strings.CutPrefix(e.name, prefix); ok {
			t.Run(sub, func(t *testing.T) { e.run(t) })
			ran = true
		}
	}
	if !ran {
		t.Fatal("no corpus entry is named under this test")
	}
}

// The suites that held production to a reference shape by shape. Each
// runs its slice of the corpus; every sharded shape is in one CI's race
// job selects (raceRun).

func TestShardDeterminism(t *testing.T)                         { runCorpus(t) }
func TestShardCountersThreeLayers(t *testing.T)                 { runCorpus(t) }
func TestShardedDrainReachesIdle(t *testing.T)                  { runCorpus(t) }
func TestActivityMatchesFullScan(t *testing.T)                  { runCorpus(t) }
func TestActivityMatchesFullScanSim(t *testing.T)               { runCorpus(t) }
func TestSpecLookaheadSingleFlitChainReentry(t *testing.T)      { runCorpus(t) }
func TestStepModeMixedClasses(t *testing.T)                     { runCorpus(t) }
func TestInvariantsByClassBimodal(t *testing.T)                 { runCorpus(t) }
func TestProbeEventStreamDeterministicAcrossModes(t *testing.T) { runCorpus(t) }
func TestInvariantsUnderLoad(t *testing.T)                      { runCorpus(t) }
func TestConfigMatrixDelivery(t *testing.T)                     { runCorpus(t) }
func TestVCReallocation(t *testing.T)                           { runCorpus(t) }
func TestSpeculationInvariantsUnderContention(t *testing.T)     { runCorpus(t) }
func TestCheckedStepMode(t *testing.T)                          { runCorpus(t) }
func TestHopsMatchRouting(t *testing.T)                         { runCorpus(t) }
func TestBacklogCounters(t *testing.T)                          { runCorpus(t) }
func TestZeroLoadLatencySeparateSTLT(t *testing.T)              { runCorpus(t) }
func TestZeroLoadLatencyCombinedSTLT(t *testing.T)              { runCorpus(t) }
func TestZeroLoadLatencyMultiHop(t *testing.T)                  { runCorpus(t) }
func TestZeroLoadSerialization(t *testing.T)                    { runCorpus(t) }
func TestZeroLoadExpressFewerHops(t *testing.T)                 { runCorpus(t) }
func TestZeroLoad3DVertical(t *testing.T)                       { runCorpus(t) }
func TestQoSZeroLoadUnchanged(t *testing.T)                     { runCorpus(t) }
func TestPipelineFig8aBaseline(t *testing.T)                    { runCorpus(t) }
func TestPipelineFig8bSpeculative(t *testing.T)                 { runCorpus(t) }
func TestPipelineFig8cLookaheadSpec(t *testing.T)               { runCorpus(t) }
func TestPipelineLookaheadOnly(t *testing.T)                    { runCorpus(t) }
func TestPipelineFig8dCombined(t *testing.T)                    { runCorpus(t) }
func TestChipGridUnitTimingMatchesMesh(t *testing.T)            { runCorpus(t) }
func TestChipletD2DLatency(t *testing.T)                        { runCorpus(t) }
func TestChipletSerialization(t *testing.T)                     { runCorpus(t) }
func TestConservationUnderLoad(t *testing.T)                    { runCorpus(t) }
func TestCounterConsistency(t *testing.T)                       { runCorpus(t) }
func TestWeightedCountersFullLayersEqualRaw(t *testing.T)       { runCorpus(t) }
func TestWeightedCountersShortFlits(t *testing.T)               { runCorpus(t) }
func TestDeterminism(t *testing.T)                              { runCorpus(t) }
func TestByClassPolicyRequestResponse(t *testing.T)             { runCorpus(t) }
func TestInjectionBackpressure(t *testing.T)                    { runCorpus(t) }
func TestOccupancyBounded(t *testing.T)                         { runCorpus(t) }
func TestInvariantsAfterDrain(t *testing.T)                     { runCorpus(t) }
func TestNoStallOnHealthyDrain(t *testing.T)                    { runCorpus(t) }
func TestPacketIDsUnique(t *testing.T)                          { runCorpus(t) }
func TestIdleNetworkStaysCheap(t *testing.T)                    { runCorpus(t) }
func TestPerClassResults(t *testing.T)                          { runCorpus(t) }
func TestProbePerFlitOrdering(t *testing.T)                     { runCorpus(t) }
func TestProbeEventStreamMatchesCounters(t *testing.T)          { runCorpus(t) }
func TestShardProbeStreamIdentical(t *testing.T)                { runCorpus(t) }
func TestShardMailboxDrainOrder(t *testing.T)                   { runCorpus(t) }

func TestChipletDeterminismSuite(t *testing.T) {
	for _, group := range []string{"baseline", "specsa", "lookahead"} {
		t.Run(group, runCorpus)
	}
}

// raceRun is the -run pattern of CI's race job at -cpu 1,2,4, which
// races sharded stepping with the pool barrier spinning and parking.
var raceRun = regexp.MustCompile(`Shard|Chiplet|FuzzOracle`)

// TestOracleCorpusCoversAxes keeps the corpus honest: every value of
// every axis, and the corners the folded suites covered, must occur in
// it; names are unique and each names a test that exists; and every
// sharded shape runs under a test CI's race job selects.
func TestOracleCorpusCoversAxes(t *testing.T) {
	corpus := oracleCorpus()
	var probe oracleShape
	seen := make([]map[int]bool, len(probe.axes()))
	names := map[string]bool{}
	corner := map[string]bool{}
	shardCounts, chipCuts := map[int]bool{}, map[int]bool{}
	pipelines := map[[4]int]bool{} // fabric x Fig. 8 pipeline
	for _, e := range corpus {
		s := e.shape
		if got := unpackShape(s.pack()); got != s {
			t.Fatalf("shape does not survive packing: %+v -> %+v", s, got)
		}
		if e.name != "" && names[e.name] {
			t.Fatalf("%s: two entries", e.name)
		}
		names[e.name] = true
		for i, a := range s.axes() {
			if seen[i] == nil {
				seen[i] = map[int]bool{}
			}
			seen[i][*a.f] = true
		}
		cfg, _ := s.build(1)
		sharded := cfg.Shards != 1
		test, _, _ := strings.Cut(e.name, "/")
		if e.name == "" {
			test = "FuzzOracle"
		}
		if sharded && !raceRun.MatchString(test) {
			t.Errorf("entry %q is sharded, but CI's race job does not select %s", e.name, test)
		}
		shardCounts[cfg.Shards] = true
		if s.Topo == topoChipGrid {
			chipCuts[cfg.Shards] = true
		}
		pipelines[[4]int{s.Topo, s.Lookahead, s.Spec, s.STLT}] = true
		for name, ok := range map[string]bool{
			"64 flat VCs":                     cfg.Topo.MaxPorts()*cfg.VCs == 64,
			"64 flat VCs, edge reached":       e.edge,
			"sharded lat:ser chip grid":       s.Topo == topoChipGrid && s.Lat > 0 && s.Ser > 0 && sharded,
			"lat-16 ser-4 grid":               s.Topo == topoChipGrid && s.LongLink == 1,
			"sharded probe stream":            s.Probed == 1 && sharded,
			"sharded look-ahead stream, d2d":  s.Probed == 1 && sharded && s.Sim == 1 && s.Lookahead == 1 && s.Topo == topoChipGrid && s.Lat > 0,
			"checked probe stream":            s.Probed == 1 && s.Checked == 1,
			"sharded three-layer Sim":         s.ThreeLayers == 1 && s.ShortLayers == 1 && sharded && s.Sim == 1,
			"Sim at more than 1 shard":        s.Sim == 1 && sharded,
			"Sim in checked mode, 1 shard":    s.Sim == 1 && s.Checked == 1 && !sharded,
			"PR 6's shape (saturated 1-flit)": s.Lookahead == 1 && s.Spec == 1 && s.Sizes == sizesOne && s.Rate == 3,
		} {
			corner[name] = corner[name] || ok
		}
	}
	src, err := os.ReadFile("corpus_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for name := range names {
		if test, _, _ := strings.Cut(name, "/"); name != "" && !strings.Contains(string(src), "func "+test+"(t *testing.T)") {
			t.Errorf("entry %q: no test %s runs it", name, test)
		}
	}
	for i, a := range probe.axes() {
		if len(seen[i]) != a.n {
			t.Errorf("axis %d: corpus covers %d of %d values", i, len(seen[i]), a.n)
		}
	}
	for name, ok := range corner {
		if !ok {
			t.Errorf("corpus lacks a named corner: %s", name)
		}
	}
	for _, n := range []int{2, 3, 4, 5, 7, 8} {
		if !shardCounts[n] {
			t.Errorf("no entry at %d shards", n)
		}
	}
	for _, n := range []int{3, 5, 7, AutoShards} {
		if !chipCuts[n] {
			t.Errorf("no chip grid entry at %d shards", n)
		}
	}
	for _, topo := range []int{topoMesh, topoMesh3D, topoExpress} {
		for p := 0; p < 8; p++ {
			if !pipelines[[4]int{topo, p & 1, p >> 1 & 1, p >> 2}] {
				t.Errorf("fabric %d lacks Fig. 8 pipeline lookahead=%d spec=%d stlt=%d", topo, p&1, p>>1&1, 1+p>>2)
			}
		}
	}
}

// TestOracleTestdataShapes pins the shape each saved FuzzOracle input
// decodes to, so a change to the axes cannot silently turn a kept
// regression into some other configuration. A new input is added here
// with the shape it failed on.
func TestOracleTestdataShapes(t *testing.T) {
	want := map[string]oracleShape{
		// checkZeroLoad must let a lone packet's credits cross a slow d2d
		// link (lat 6, 3:1 serialization) before the next one, at depth 2.
		"ffddafdb88d332da": {Topo: topoChipGrid, Lat: 3, Ser: 2, Fault: 1, Spec: 1, Depth: 1, QoS: 1,
			Rate: 2, Sizes: sizesRandom, Cycles: 1},
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzOracle", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no saved inputs (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v uint64
		if _, err := fmt.Sscanf(string(data), "go test fuzz v1\nuint64(%d)", &v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		if s, ok := want[name]; !ok {
			t.Errorf("%s: decodes to %+v, which no entry pins", name, unpackShape(v))
		} else if got := unpackShape(v); got != s {
			t.Errorf("%s: decodes to %+v, pinned %+v", name, got, s)
		}
	}
	if len(files) != len(want) {
		t.Errorf("%d saved inputs, %d pinned", len(files), len(want))
	}
}
