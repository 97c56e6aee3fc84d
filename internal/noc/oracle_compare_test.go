package noc

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mira/internal/routing"
	"mira/internal/topology"
)

// oracleOpts are the optional parts of a comparison.
type oracleOpts struct {
	// probed also compares every pipeline event of every flit (inject,
	// route, VC alloc, switch grant, eject), through production's probe,
	// as whole records: kind, cycle, router, direction and VC, the flit's
	// packet, source, destination, class, sequence and type, and the
	// creation cycle and active layers where set. Within a cycle the
	// events are compared flit by flit: the order of different flits'
	// events there is the order the engine happens to visit things in,
	// not part of the model, but one flit's events keep their pipeline
	// order (inject before a look-ahead route at the source).
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
// counters matching that scan and by CheckInvariants), per-(source,
// destination, class) delivery order wherever a class is confined to
// one lane, and Little's law, exact: the backlog summed over cycles
// (read after the cycle's enqueues, before its step) equals the sum over
// ejected flits of (eject cycle - creation cycle), since a flit is in
// the backlog at the reads of exactly those cycles. The oracle is held
// to its own sum; production's backlog, BacklogFlits, to its own eject
// events when probed and to the oracle's sum otherwise. It returns
// production's stream.
func againstOracle(t testing.TB, cfg Config, gen Generator, cycles int64, opts oracleOpts) []oEjection {
	t.Helper()
	net := NewNetwork(cfg)
	defer net.ReleaseWorkers()
	o := newOracle(cfg)
	var got []oEjection
	net.SetEjectHandler(func(p *Packet) {
		got = append(got, oEjection{id: p.ID, cycle: p.EjectedAt, router: p.Dst, created: p.CreatedAt, injected: p.InjectedAt, hops: p.Hops})
	})
	var prodEvents, orcEvents probeTap
	if opts.probed {
		net.SetProbe(&prodEvents)
		o.log = func(ev ProbeEvent) { orcEvents = append(orcEvents, ev) }
	}
	var sent []Spec // by packet ID - 1
	// Little's law's sums: the oracle's backlog, production's, and
	// production's flit sojourns (probed).
	var oBacklog, backlog, sojourn int64
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
		oBacklog += o.generatedFlits - o.ejectedFlits
		backlog += net.BacklogFlits()
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
			for _, ev := range prodEvents {
				if ev.Kind == ProbeEject {
					sojourn += ev.Cycle - ev.Created
				}
			}
			// Stage order (Probe): a cycle opens with ejections, ends with routes.
			for i := 1; i < len(prodEvents); i++ {
				if a, b := prodEvents[i-1].Kind, prodEvents[i].Kind; b == ProbeEject && a != ProbeEject || a == ProbeRoute && b != ProbeRoute {
					t.Fatalf("cycle %d: event %d of %d is a %v after a %v", o.cycle, i, len(prodEvents), b, a)
				}
			}
			byFlit := func(a, b ProbeEvent) int {
				return cmp.Or(cmp.Compare(a.Pkt, b.Pkt), cmp.Compare(a.Seq, b.Seq))
			}
			slices.SortStableFunc(prodEvents, byFlit)
			slices.SortStableFunc(orcEvents, byFlit)
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
	if oBacklog != o.sojourn {
		t.Fatalf("oracle: Little's law fails: backlog summed over cycles %d, flit sojourns %d", oBacklog, o.sojourn)
	}
	if !opts.probed {
		sojourn = o.sojourn
	}
	if backlog != sojourn {
		t.Fatalf("production: Little's law fails: BacklogFlits summed over cycles %d, flit sojourns %d (probed %v)", backlog, sojourn, opts.probed)
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

// probeTap records production's probe events.
type probeTap []ProbeEvent

func (p *probeTap) ProbeEvent(ev ProbeEvent) { *p = append(*p, ev) }

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
