package noc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mira/internal/routing"
	"mira/internal/topology"
)

// oracleOpts are the optional parts of a comparison.
type oracleOpts struct {
	// probed also compares every pipeline event of every flit (inject,
	// route, VC alloc, switch grant, link, eject: kind, cycle, router,
	// direction, VC), through production's probe. Within a cycle the
	// events are compared as a set: their order there is the order the
	// engine happens to visit things in, not part of the model.
	probed bool
	// watch sees production after every cycle.
	watch func(*Network)
}

// againstOracle steps production (cfg, with its Shards and Mode) and the
// oracle side by side under gen for the given cycles plus the drain,
// and fails on the first cycle they differ: in the ejection stream
// (packet, cycle, router, creation and injection cycle, hops — order
// included), in the queued or in-network flit counts, and in every
// counter every 32 cycles and at the end. Halfway through, at the first
// cycle with flits on a wire, both models reset their counters once:
// production counts a buffer write at send time and carries the writes
// still on the wire over the reset, the oracle counts at landing, and
// the two must still agree. On the way it asserts on both models the
// laws neither CheckInvariants nor stream equality states: flit
// conservation and per-link credit conservation every cycle (the
// oracle's by a scan of its own structures, production's by its
// counters matching that scan and by CheckInvariants), and per-(source,
// destination, class) delivery order wherever a class is confined to
// one lane. It returns production's stream.
func againstOracle(t testing.TB, cfg Config, gen Generator, cycles int64, opts oracleOpts) []oEjection {
	t.Helper()
	net := NewNetwork(cfg)
	defer net.ReleaseWorkers()
	o := newOracle(cfg)
	var got []oEjection
	net.SetEjectHandler(func(p *Packet) {
		got = append(got, oEjection{id: p.ID, cycle: p.EjectedAt, router: p.Dst, created: p.CreatedAt, injected: p.InjectedAt, hops: p.Hops})
	})
	var prodEvents, orcEvents []oEvent
	if opts.probed {
		net.SetProbe(probeFunc(func(ev ProbeEvent) {
			prodEvents = append(prodEvents, oEvent{kind: ev.Kind, cycle: ev.Cycle, router: ev.Router, dir: ev.Dir,
				vc: int(ev.VC), pkt: ev.Flit.Pkt.ID, seq: int(ev.Flit.Seq)})
		}))
		o.log = func(ev oEvent) { orcEvents = append(orcEvents, ev) }
	}
	var sent []Spec // by packet ID - 1
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []Spec
	progress, progressAt := int64(0), int64(0) // flits the oracle has ejected, and when it last ejected one
	reset := false
	for c, same := int64(0), 0; ; c++ {
		if c < cycles {
			specs = gen.Generate(c, rng, specs[:0])
			for _, s := range specs {
				if _, err := net.Enqueue(s); err != nil {
					t.Fatal(err)
				}
				o.enqueue(s)
				sent = append(sent, s)
			}
		} else if net.Idle() && o.idle() {
			break
		} else if c-progressAt > 5000 {
			t.Fatalf("cycle %d: nothing ejected for 5000 cycles: production backlog %d flits, oracle %d", c, net.BacklogFlits(), o.generatedFlits-o.ejectedFlits)
		}
		net.Step()
		o.step()
		if o.ejectedFlits != progress {
			progress, progressAt = o.ejectedFlits, c
		}
		for ; same < len(got) && same < len(o.ejected); same++ {
			if got[same] != o.ejected[same] {
				t.Fatalf("cycle %d: ejection %d differs:\nproduction %+v\noracle     %+v", o.cycle, same, got[same], o.ejected[same])
			}
		}
		if len(got) != len(o.ejected) {
			t.Fatalf("cycle %d: production has ejected %d packets, the oracle %d", o.cycle, len(got), len(o.ejected))
		}
		queued, inNet, err := o.checkLaws()
		if err != nil {
			t.Fatalf("cycle %d: oracle: %v", o.cycle, err)
		}
		if net.QueuedFlits() != queued || net.InFlightFlits() != inNet {
			t.Fatalf("cycle %d: production holds %d queued + %d in-network flits, the oracle %d + %d",
				o.cycle, net.QueuedFlits(), net.InFlightFlits(), queued, inNet)
		}
		if !reset && c >= cycles/2 && len(o.flits) > 0 {
			net.ResetCounters()
			o.resetCounters()
			reset = true
		}
		if c%32 == 0 {
			if cfg.Mode != StepChecked {
				if err := net.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: production: %v", o.cycle, err)
				}
			}
			if err := sameCounters(net.TotalCounters(), o.totalCounters()); err != nil {
				t.Fatalf("cycle %d: %v", o.cycle, err)
			}
		}
		if opts.probed {
			byFlit := func(a, b oEvent) int {
				return cmp.Or(cmp.Compare(a.pkt, b.pkt), cmp.Compare(a.seq, b.seq), cmp.Compare(a.kind, b.kind))
			}
			slices.SortFunc(prodEvents, byFlit)
			slices.SortFunc(orcEvents, byFlit)
			if !slices.Equal(prodEvents, orcEvents) {
				t.Fatalf("cycle %d: pipeline events differ:\nproduction %+v\noracle     %+v", o.cycle, prodEvents, orcEvents)
			}
			prodEvents, orcEvents = prodEvents[:0], orcEvents[:0]
		}
		if opts.watch != nil {
			opts.watch(net)
		}
	}
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("drained production: %v", err)
	}
	if err := sameCounters(net.TotalCounters(), o.totalCounters()); err != nil {
		t.Fatal(err)
	}
	if int(o.nextID) != len(got) {
		t.Fatalf("%d packets sent, %d delivered", o.nextID, len(got))
	}
	if cfg.Policy == ByClass || cfg.VCs == 1 {
		// One lane per class and deterministic routing: packets of one
		// (source, destination, class) cannot overtake each other.
		type flow struct {
			src, dst topology.NodeID
			class    Class
		}
		last := map[flow]int64{}
		for _, e := range got {
			s := sent[e.id-1]
			k := flow{s.Src, s.Dst, s.Class}
			if e.id < last[k] {
				t.Fatalf("packet %d (%d->%d %v) delivered after packet %d of the same flow", e.id, s.Src, s.Dst, s.Class, last[k])
			}
			last[k] = e.id
		}
	}
	return got
}

// probeFunc adapts a function to the Probe interface.
type probeFunc func(ProbeEvent)

func (f probeFunc) ProbeEvent(ev ProbeEvent) { f(ev) }

// checkLaws scans the oracle's structures for flit conservation
// (generated = ejected + queued + buffered + on wires) and, per link and
// VC, credit conservation (upstream credits + downstream occupancy +
// flits and credits on the wires = BufDepth). It returns the queued and
// in-network flit counts of the scan.
func (o *oracle) checkLaws() (queued, inNet int64, err error) {
	for i := range o.nis {
		ni := &o.nis[i]
		for _, p := range ni.queue {
			queued += int64(p.size)
		}
		if ni.cur != nil {
			queued += int64(ni.cur.size - ni.seq)
		}
	}
	flitsTo := map[*oVC]int{}
	for _, w := range o.flits {
		flitsTo[w.to]++
	}
	creditsTo := map[*oOutVC]int{}
	for _, c := range o.credits {
		creditsTo[c.to]++
	}
	inNet = int64(len(o.flits) + len(o.ejects))
	for _, r := range o.routers {
		for pi := range r.ports {
			p := &r.ports[pi]
			for v := range p.in {
				inNet += int64(len(p.in[v].buf))
			}
			if p.dir == topology.Local {
				continue
			}
			_, in := o.peer(p)
			for v := range p.out {
				sum := p.out[v].credits + len(in.in[v].buf) + flitsTo[&in.in[v]] + creditsTo[&p.out[v]]
				if sum != o.cfg.BufDepth {
					return 0, 0, fmt.Errorf("link %d/%v vc %d: credits %d + buffered %d + flits on wire %d + credits on wire %d != depth %d",
						r.id, p.dir, v, p.out[v].credits, len(in.in[v].buf), flitsTo[&in.in[v]], creditsTo[&p.out[v]], o.cfg.BufDepth)
				}
			}
		}
	}
	if o.generatedFlits != o.ejectedFlits+queued+inNet {
		return 0, 0, fmt.Errorf("flits not conserved: generated %d != ejected %d + queued %d + in network %d",
			o.generatedFlits, o.ejectedFlits, queued, inNet)
	}
	return queued, inNet, nil
}

// sameCounters compares the integer counters exactly and the weighted
// (float) ones to rounding: the two models add the same terms, but
// nothing obliges them to add them in the same order.
func sameCounters(prod, orc Counters) error {
	// split returns c's weighted counters and c without them.
	split := func(c Counters) ([6]float64, Counters) {
		w := [6]float64{c.WBufWrites, c.WBufReads, c.WXbarFlits, c.WLinkFlits, c.LinkMMFlits, c.WLinkMMFlits}
		c.WBufWrites, c.WBufReads, c.WXbarFlits, c.WLinkFlits, c.LinkMMFlits, c.WLinkMMFlits = 0, 0, 0, 0, 0, 0
		return w, c
	}
	pw, pi := split(prod)
	ow, oi := split(orc)
	for i := range pw {
		if math.Abs(pw[i]-ow[i]) > 1e-9*math.Max(1, math.Abs(pw[i])) {
			return fmt.Errorf("weighted counters differ:\nproduction %+v\noracle     %+v", prod, orc)
		}
	}
	if pi != oi {
		return fmt.Errorf("counters differ:\nproduction %+v\noracle     %+v", prod, orc)
	}
	return nil
}

// zeroLoadLatency is what both models must hit exactly for a lone
// packet. A single flit takes one cycle to enter the source router;
// per router on the path (source and destination included) the
// pipeline depth from buffer write to switch grant, 3 cycles less one
// each for look-ahead routing and speculative allocation; per link
// STLTCycles-1 + latency + serialization-1; and STLTCycles to the NI —
// hops x pipeline depth + serialization + d2d latency, in closed form.
// A body flit follows as closely as the hardware lets it: it needs one
// cycle per router, not the head's depth, and leaves no sooner than a
// link's serialization after its predecessor — so a serializing link
// spreads the packet out and the head's slower pipeline lets the tail
// catch up again. It holds for packets that fit one buffer (size <=
// BufDepth), so no flit ever waits for a credit.
func zeroLoadLatency(cfg *Config, src, dst topology.NodeID, size int) (lat int64, hops int, err error) {
	path, err := routing.Path(cfg.Topo, cfg.Alg, src, dst)
	if err != nil {
		return 0, 0, err
	}
	depth := int64(3)
	if cfg.LookaheadRC {
		depth--
	}
	if cfg.SpecSA {
		depth--
	}
	at := make([]int64, size) // cycle each flit is written into the current router
	for i := range at {
		at[i] = int64(1 + i) // the NI injects one flit per cycle
	}
	cur := src
	for hop := 0; hop <= len(path); hop++ {
		wire, gap := int64(cfg.STLTCycles), int64(1) // the last router ejects to the NI
		if hop < len(path) {
			l, _ := cfg.Topo.OutLink(cur, path[hop])
			wire = int64(cfg.STLTCycles-1) + int64(l.Latency) + int64(l.SerCycles) - 1
			gap, cur = int64(l.SerCycles), l.Dst
		}
		sent := at[0] + depth
		at[0] = sent + wire
		for i := 1; i < size; i++ {
			sent = max(at[i]+1, sent+gap)
			at[i] = sent + wire
		}
	}
	return at[size-1], len(path), nil
}

// checkZeroLoad sends lone packets between pairs drawn from rng through
// both models, one at a time, and holds each to zeroLoadLatency.
func checkZeroLoad(t testing.TB, cfg Config, rng *rand.Rand, pairs, size int) {
	t.Helper()
	net := NewNetwork(cfg)
	defer net.ReleaseWorkers()
	o := newOracle(cfg)
	var done *Packet
	net.SetEjectHandler(func(p *Packet) { done = p })
	size = min(size, cfg.BufDepth)
	n := cfg.Topo.NumNodes()
	for i := 0; i < pairs; i++ {
		s := Spec{Src: topology.NodeID(rng.Intn(n)), Dst: topology.NodeID(rng.Intn(n)), Size: 1 + i%size, Class: Class(i % int(NumClasses))}
		if s.Src == s.Dst {
			continue
		}
		want, hops, err := zeroLoadLatency(&cfg, s.Src, s.Dst, s.Size)
		if err != nil {
			t.Fatal(err)
		}
		start := net.Cycle()
		if _, err := net.Enqueue(s); err != nil {
			t.Fatal(err)
		}
		o.enqueue(s)
		for done = nil; !net.Idle() || !o.idle(); {
			if net.Cycle()-start > want+1000 {
				t.Fatalf("%d->%d: lone packet not delivered", s.Src, s.Dst)
			}
			net.Step()
			o.step()
		}
		oe := o.ejected[len(o.ejected)-1]
		if got := done.EjectedAt - start; got != want || done.Hops != hops {
			t.Fatalf("%d->%d size %d: production latency %d over %d hops, closed form %d over %d", s.Src, s.Dst, s.Size, got, done.Hops, want, hops)
		}
		if got := oe.cycle - start; got != want || oe.hops != hops {
			t.Fatalf("%d->%d size %d: oracle latency %d over %d hops, closed form %d over %d", s.Src, s.Dst, s.Size, got, oe.hops, want, hops)
		}
		// Idle counts flits, not credits: let the packet's last credits
		// cross their (possibly slow, serializing) links, or the next
		// lone packet on a shallow buffer waits for them.
		for k := int64(0); k < net.ringLen; k++ {
			net.Step()
			o.step()
		}
	}
}

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
	VCs, Depth, Arb, QoS, ByClass     int
	Rate, Pattern, Sizes, ShortLayers int // traffic
	Shards, Checked, Probed, Cycles   int
	LongLink                          int // chip grid: latency 16, 4:1 serialization in place of Lat/Ser
}

var (
	shapeVCs    = []int{1, 2, 3, 4, 16} // clamped to 64 flat VCs per router
	shapeDepths = []int{1, 2, 4, 8}
	shapeLats   = []int{1, 2, 3, 6}
	shapeRates  = []float64{0.05, 0.15, 0.3, 0.6}
	shapeShards = []int{1, 3}
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
	routeNative    = iota // XY, Express or ChipDOR, whichever the fabric is built for
	routeWestFirst        // planar fabrics only
	routeXY               // differs from native only on the chip grid
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
		{&s.VCs, len(shapeVCs)}, {&s.Depth, len(shapeDepths)}, {&s.Arb, 2}, {&s.QoS, 2}, {&s.ByClass, 2},
		{&s.Rate, len(shapeRates)}, {&s.Pattern, 3}, {&s.Sizes, numSizes}, {&s.ShortLayers, 2},
		{&s.Shards, len(shapeShards)}, {&s.Checked, 2}, {&s.Probed, 2}, {&s.Cycles, 3},
		{&s.LongLink, 2},
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
		STLTCycles: 1 + s.STLT, Layers: 4, Seed: seed,
		LookaheadRC: s.Lookahead == 1, SpecSA: s.Spec == 1,
		BufDepth: shapeDepths[s.Depth], Arb: ArbPolicy(s.Arb), QoSPriority: s.QoS == 1,
		Shards: shapeShards[s.Shards],
	}
	if s.Checked == 1 {
		cfg.Mode = StepChecked
	}
	switch s.Topo {
	case topoMesh:
		cfg.Topo, cfg.Alg = topology.NewMesh2D(4, 4, 3.1), routing.XY{}
	case topoMesh3D:
		cfg.Topo, cfg.Alg = topology.NewMesh3D(3, 3, 2, 3.1, 0.02), routing.XY{}
	case topoExpress:
		cfg.Topo, cfg.Alg = topology.NewExpressMesh2D(5, 4, 1.58, 2), routing.Express{}
	case topoChipGrid:
		lat, ser := shapeLats[s.Lat], 1+s.Ser
		if s.LongLink == 1 {
			lat, ser = 16, 4
		}
		cfg.Topo = topology.NewChipGrid(topology.ChipGridSpec{
			ChipsX: 2, ChipsY: 2, NodesX: 2, NodesY: 2, PitchMM: 3.1,
			D2DLatency: lat, D2DSerCycles: ser, Express: s.ChipExpress == 1,
		})
		cfg.Alg = routing.ChipDOR{}
	case topoMeshWide:
		cfg.Topo, cfg.Alg = topology.NewMesh2D(4, 2, 3.1), routing.XY{}
	}
	switch {
	case s.Routing == routeXY && s.Topo == topoChipGrid:
		cfg.Alg = routing.XY{}
	case s.Routing == routeWestFirst && cfg.Topo.ZDim == 1:
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

// runShape is the body of FuzzOracle: one side-by-side comparison under
// load and the zero-load latency law on the same configuration.
func runShape(t testing.TB, s oracleShape, seed int64) {
	cfg, gen := s.build(seed)
	againstOracle(t, cfg, gen, int64(100+150*s.Cycles), oracleOpts{probed: s.Probed == 1})
	checkZeroLoad(t, cfg, rand.New(rand.NewSource(seed)), 6, 4)
}

// oracleCorpus is the tier-1 seed corpus: hand-picked corners first,
// then a fixed pseudo-random spread wide enough that every value of
// every axis occurs (TestOracleCorpusCoversAxes holds it to that).
func oracleCorpus() []oracleShape {
	corpus := []oracleShape{
		// PR 6's defect: SpecSA + LookaheadRC, single-flit packets, saturated.
		{Topo: topoMesh, Lookahead: 1, Spec: 1, VCs: 1, Depth: 2, Rate: 3, Sizes: sizesOne, Cycles: 2},
		// The mask's edge: 4 ports x 16 VCs = 64 flat VCs, both arbiters.
		{Topo: topoMeshWide, VCs: 4, Depth: 1, Rate: 2, Sizes: sizesFour, STLT: 1},
		{Topo: topoMeshWide, VCs: 4, Depth: 1, Rate: 2, Sizes: sizesFour, Arb: 1, QoS: 1, Lookahead: 1, Spec: 1, Shards: 1},
		// A lat:ser chip grid cut by three shards that ignore the chip tiling.
		{Topo: topoChipGrid, Lat: 3, Ser: 2, VCs: 1, Depth: 2, Rate: 1, Sizes: sizesBimodal, ByClass: 1, Shards: 1, STLT: 1},
		{Topo: topoChipGrid, Lat: 1, Ser: 1, ChipExpress: 1, VCs: 1, Depth: 1, Rate: 2, Pattern: 1, Sizes: sizesRandom, Spec: 1, Checked: 1},
		// Latency 16, 4:1 serialization: the counter reset lands with
		// flits deep on the d2d wires, where the write correction lives.
		{Topo: topoChipGrid, LongLink: 1, VCs: 1, Depth: 3, Rate: 2, Sizes: sizesFour, ShortLayers: 1, Cycles: 2},
		// Few VCs, shallow buffers, a hotspot: VA contended every cycle.
		{Topo: topoMesh, VCs: 0, Depth: 0, Rate: 2, Pattern: 1, Sizes: sizesFour, Arb: 1},
		{Topo: topoMesh3D, VCs: 1, Depth: 1, Rate: 3, Pattern: 1, Sizes: sizesBimodal, ByClass: 1, QoS: 1, Shards: 1, ShortLayers: 1},
		// West-first around a dead link; express channels at saturation.
		{Topo: topoMesh, Routing: routeWestFirst, Fault: 1, VCs: 1, Depth: 2, Rate: 2, Pattern: 2, Sizes: sizesRandom, Lookahead: 1},
		{Topo: topoExpress, VCs: 1, Depth: 3, Rate: 3, Sizes: sizesFour, Shards: 1},
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 24; i++ {
		var s oracleShape
		for _, a := range s.axes() {
			if a.f != &s.LongLink { // stays 0: the hand-picked lat-16 shape covers it
				*a.f = rng.Intn(a.n)
			}
		}
		corpus = append(corpus, s)
	}
	return corpus
}

// FuzzOracle compares production against the oracle over generated
// configurations: Fig. 8 pipeline variants x VCs x BufDepth x arbiter x
// QoS x ByClass x fabric (mesh, 3D mesh, express, lat:ser chip grid) x
// routing x traffic x shards x checked mode. The seed corpus runs in
// tier-1; CI runs the fuzzer time-boxed.
func FuzzOracle(f *testing.F) {
	for i, s := range oracleCorpus() {
		f.Add(s.pack(), int64(i+1))
	}
	f.Fuzz(func(t *testing.T, shape uint64, seed int64) {
		runShape(t, unpackShape(shape), seed)
	})
}

// TestOracleCorpusCoversAxes keeps the seed corpus honest: every value
// of every axis, and the corners the issue names, must occur in it.
func TestOracleCorpusCoversAxes(t *testing.T) {
	corpus := oracleCorpus()
	var probe oracleShape
	seen := make([]map[int]bool, len(probe.axes()))
	var wide, serGridSharded, longSerGrid bool
	for _, s := range corpus {
		if got := unpackShape(s.pack()); got != s {
			t.Fatalf("shape does not survive packing: %+v -> %+v", s, got)
		}
		for i, a := range s.axes() {
			if seen[i] == nil {
				seen[i] = map[int]bool{}
			}
			seen[i][*a.f] = true
		}
		cfg, _ := s.build(1)
		wide = wide || cfg.Topo.MaxPorts()*cfg.VCs == 64
		serGridSharded = serGridSharded || (s.Topo == topoChipGrid && s.Lat > 0 && s.Ser > 0 && cfg.Shards == 3)
		longSerGrid = longSerGrid || (s.Topo == topoChipGrid && s.LongLink == 1)
	}
	for i, a := range probe.axes() {
		if len(seen[i]) != a.n {
			t.Errorf("axis %d: corpus covers %d of %d values", i, len(seen[i]), a.n)
		}
	}
	if !wide || !serGridSharded || !longSerGrid {
		t.Errorf("corpus lacks a named corner: 64 flat VCs %v, sharded lat:ser chip grid %v, lat-16 ser-4 grid %v",
			wide, serGridSharded, longSerGrid)
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
		"ffddafdb88d332da": {Topo: topoChipGrid, Lat: 3, Ser: 2, Fault: 1, Spec: 1, Depth: 1, Arb: 1, QoS: 1,
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
