package noc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mira/internal/topology"
)

// TestShardDeterminism is the tentpole contract of sharded stepping:
// for every shard count the ejection stream (order included), the final
// counters and the flow-control state must be bit-identical to the
// sequential single-shard run, across seeds, step modes and pipeline
// variants. Checked mode additionally cross-checks the full invariant
// suite after every sharded cycle.
func TestShardDeterminism(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"mesh-stlt2", cfg2D(2), 0.2},
		{"mesh-lookahead-spec", func() Config {
			c := cfg2D(1)
			c.LookaheadRC = true
			c.SpecSA = true
			return c
		}(), 0.2},
		{"mesh-qos-matrix", func() Config {
			c := cfg2D(2)
			c.QoSPriority = true
			c.Arb = ArbMatrix
			return c
		}(), 0.2},
		{"mesh3d", cfg3D(2), 0.2},
		{"express-saturated", cfgExpress(1), 0.9},
	}
	modes := []StepMode{StepActivity, StepFullScan, StepChecked}
	for _, c := range cases {
		for _, seed := range []int64{42, 7} {
			for _, mode := range modes {
				cycles := int64(1200)
				if mode == StepChecked {
					cycles = 300 // invariant suite per cycle is expensive
				}
				t.Run(fmt.Sprintf("%s/seed%d/%v", c.name, seed, mode), func(t *testing.T) {
					cfg := c.cfg
					cfg.Seed = seed
					cfg.Shards = 1
					ref, refCnt, refNet := runModal(t, cfg, mode, c.rate, 4, cycles)
					if len(ref) == 0 {
						t.Fatal("no traffic delivered; test is vacuous")
					}
					for _, shards := range []int{2, 4, 8} {
						cfg.Shards = shards
						got, gotCnt, gotNet := runModal(t, cfg, mode, c.rate, 4, cycles)
						if len(got) != len(ref) {
							t.Fatalf("shards=%d: ejection streams diverge: %d vs %d packets", shards, len(got), len(ref))
						}
						for i := range ref {
							if got[i] != ref[i] {
								t.Fatalf("shards=%d: ejection %d diverges: %+v, sequential %+v", shards, i, got[i], ref[i])
							}
						}
						if gotCnt != refCnt {
							t.Fatalf("shards=%d: counters diverge:\nsharded    %+v\nsequential %+v", shards, gotCnt, refCnt)
						}
						if err := gotNet.CheckInvariants(); err != nil {
							t.Fatalf("shards=%d: invariants: %v", shards, err)
						}
					}
					_ = refNet
				})
			}
		}
	}
}

// probeRec is a comparable snapshot of one probe event (the live event
// carries a *Packet, which differs between runs by identity).
type probeRec struct {
	kind   ProbeKind
	cycle  int64
	router topology.NodeID
	dir    topology.Dir
	vc     int8
	pktID  int64
	seq    int32
	typ    FlitType
}

type probeTap struct{ evs []probeRec }

func (p *probeTap) ProbeEvent(ev ProbeEvent) {
	p.evs = append(p.evs, probeRec{
		kind: ev.Kind, cycle: ev.Cycle, router: ev.Router, dir: ev.Dir, vc: ev.VC,
		pktID: ev.Flit.Pkt.ID, seq: ev.Flit.Seq, typ: ev.Flit.Type,
	})
}

// TestShardProbeStreamIdentical pins the probe-merge contract: with a
// probe attached, the sharded step must replay the exact event sequence
// sequential stepping emits — same events, same order, byte for byte —
// so traces and spans are reproducible at any shard count. The config
// enables look-ahead and speculation so all six event kinds fire from
// all emission phases (delivery, injection, SA, VA, RC).
func TestShardProbeStreamIdentical(t *testing.T) {
	run := func(shards int, lookahead bool) []probeRec {
		cfg := cfg2D(2)
		cfg.Seed = 42
		cfg.Shards = shards
		cfg.LookaheadRC = lookahead
		cfg.SpecSA = lookahead
		net := NewNetwork(cfg)
		tap := &probeTap{}
		net.SetProbe(tap)
		gen := bernoulli(cfg.Topo, 0.25, 4, Data)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for cycle := int64(0); cycle < 600; cycle++ {
			for _, spec := range gen.Generate(cycle, rng, nil) {
				if _, err := net.Enqueue(spec); err != nil {
					t.Fatal(err)
				}
			}
			net.Step()
		}
		for i := int64(0); i < 20000 && !net.Idle(); i++ {
			net.Step()
		}
		return tap.evs
	}
	for _, lookahead := range []bool{false, true} {
		ref := run(1, lookahead)
		if len(ref) == 0 {
			t.Fatal("no probe events; test is vacuous")
		}
		for _, shards := range []int{2, 4, 8} {
			got := run(shards, lookahead)
			if len(got) != len(ref) {
				t.Fatalf("lookahead=%v shards=%d: %d probe events, sequential %d", lookahead, shards, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("lookahead=%v shards=%d: event %d diverges:\nsharded    %+v\nsequential %+v",
						lookahead, shards, i, got[i], ref[i])
				}
			}
		}
	}
}

// plantMail appends a head-tail flit arrival for gi into the boundary
// mailbox lane src -> dst under send phase p, delivering at cycle at.
func plantMail(n *Network, src, dst int32, p int, gi int32, at int64, pktID int64) {
	f := Flit{Pkt: &Packet{ID: pktID, Dst: n.routers[n.soa.ownerOf[gi]].id}, Type: HeadTailFlit}
	lane := &n.mail[src][dst].ev[p][at&n.ringMask]
	*lane = append(*lane, xEvent{gi: gi, flit: f})
}

// TestShardMailboxDrainOrder pins the canonical boundary-exchange
// order directly: the delivery phase must drain, for each send phase in
// order, the inbound lanes in ascending source-shard order with the
// shard's own ring taking its place among them, each lane in append
// order. The test plants arrivals for single VCs from several sources
// in scrambled plant order and then reads the resulting buffer FIFO
// order, which records exactly the drain sequence — any deviation
// (descending sources, phase interleaving, own-ring first or last)
// reorders the buffered flits and fails.
func TestShardMailboxDrainOrder(t *testing.T) {
	cfg := cfg2D(2)
	cfg.Shards = 4
	n := NewNetwork(cfg)
	if n.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", n.Shards())
	}
	// Destination router in shard 1; its shard steps it, sources 0, 2
	// and 3 reach it only through mailboxes.
	dst := int32(1)
	r := &n.routers[n.shards[dst].lo+3]
	var gis []int32
	for pi := range r.inPorts {
		if r.inPorts[pi].dir != topology.Local {
			gis = append(gis, r.vcBase+int32(r.flatVC(pi, 0)))
		}
	}
	if len(gis) < 3 {
		t.Fatalf("router %d has %d link ports, need >= 3", r.id, len(gis))
	}
	at := n.Cycle() + 1

	// VC A: one phase, sources planted in scrambled order 3, 0, 2.
	// Canonical drain = ascending source shard.
	plantMail(n, 3, dst, 0, gis[0], at, 103)
	plantMail(n, 0, dst, 0, gis[0], at, 100)
	plantMail(n, 2, dst, 0, gis[0], at, 102)

	// VC B: phase 1 from source 0 planted before phase 0 from source 2.
	// Canonical drain = phase-major, so source 2 delivers first.
	plantMail(n, 0, dst, 1, gis[1], at, 110)
	plantMail(n, 2, dst, 0, gis[1], at, 112)

	// VC C: the shard's own ring (direct-written arrival, source shard
	// 1) flanked by mailbox arrivals from sources 0 and 3. Canonical
	// drain slots the own ring at its shard index: 0, own(1), 3. A
	// real channel never mixes the two mechanisms (one upstream per
	// channel), so plant the direct-written flit body by hand into the
	// buffer slot it occupies on arrival — one mailbox flit drains
	// canonically before it, so slot 1; a deviating drain order
	// exposes the wrong slot.
	depth := n.cfg.BufDepth
	n.soa.bufFlit[int(gis[2])*depth+1] = Flit{Pkt: &Packet{ID: 121, Dst: r.id}, Type: HeadTailFlit}
	n.soa.bufArrived[int(gis[2])*depth+1] = at
	n.soa.vcInFly[gis[2]]++
	plantMail(n, 3, dst, 0, gis[2], at, 123)
	own := &n.shards[dst].ev[0][at&n.ringMask]
	*own = append(*own, gis[2])
	plantMail(n, 0, dst, 0, gis[2], at, 120)

	n.Step()

	want := [][]int64{
		{100, 102, 103},
		{112, 110},
		{120, 121, 123},
	}
	for k, gi := range gis[:3] {
		fi := int(gi - r.vcBase)
		if got := r.vcOcc(fi); got != len(want[k]) {
			t.Fatalf("vc %d: %d buffered flits, want %d", k, got, len(want[k]))
		}
		for j := 0; j < len(want[k]); j++ {
			slot := (int(r.vcHead[fi]) + j) % r.bufDepth
			id := int64(-1)
			if f := r.bufFlit[fi*r.bufDepth+slot]; f.Pkt != nil {
				id = f.Pkt.ID
			}
			if id != want[k][j] {
				t.Fatalf("vc %d position %d: packet %d delivered, want %d (drain order deviates from canonical)",
					k, j, id, want[k][j])
			}
		}
	}
}

// TestShardConfig covers the Shards knob's edges: default and explicit
// 0/1 step sequentially, oversized counts clamp to the router count,
// AutoShards resolves tiny meshes to sequential, and counts below -1
// fail validation.
func TestShardConfig(t *testing.T) {
	cfg := cfg2D(2)
	// A 36-router mesh is under the auto heuristic's per-shard budget,
	// so AutoShards resolves to sequential stepping.
	for _, c := range []struct{ in, want int }{{0, 1}, {1, 1}, {4, 4}, {1000, 36}, {AutoShards, 1}} {
		cfg.Shards = c.in
		if got := NewNetwork(cfg).Shards(); got != c.want {
			t.Fatalf("Shards=%d: effective %d, want %d", c.in, got, c.want)
		}
	}
	cfg.Shards = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("Shards=-2 validated")
	}
	// Shard ranges are contiguous, ordered and cover every router.
	cfg.Shards = 5
	n := NewNetwork(cfg)
	next := int32(0)
	for i := range n.shards {
		sh := &n.shards[i]
		if sh.lo != next || sh.hi < sh.lo {
			t.Fatalf("shard %d covers [%d,%d), want lo %d", i, sh.lo, sh.hi, next)
		}
		next = sh.hi
	}
	if next != int32(len(n.routers)) {
		t.Fatalf("shards cover [0,%d), want [0,%d)", next, len(n.routers))
	}
}

// TestShardedDrainReachesIdle pins the drain exit of Sim.Run under
// sharding: a flit that crosses a shard boundary is counted up in its
// source shard and down in its destination, so Idle must judge the
// summed in-flight count. Testing each shard for zero (the old code)
// never saw an idle network and stepped into the stall watchdog with
// every packet delivered.
func TestShardedDrainReachesIdle(t *testing.T) {
	run := func(shards int) (Result, int64) {
		cfg := cfg2D(2)
		cfg.Shards = shards
		net := NewNetwork(cfg)
		s := NewSim(net, bernoulli(cfg.Topo, 0.15, 4, Data))
		s.Params = SimParams{Warmup: 100, Measure: 600, DrainMax: 8000}
		return s.Run(context.Background()), net.Cycle()
	}
	ref, refCycles := run(1)
	if ref.Ejected == 0 || ref.Ejected != ref.Generated || ref.Stalled {
		t.Fatalf("sequential reference did not drain cleanly: %v", ref.String())
	}
	for _, shards := range []int{2, 4} {
		res, cycles := run(shards)
		if res.Stalled {
			t.Errorf("shards=%d: Stalled with %d/%d packets delivered", shards, res.Ejected, res.Generated)
		}
		if res.Ejected != ref.Ejected {
			t.Errorf("shards=%d: ejected %d, sequential %d", shards, res.Ejected, ref.Ejected)
		}
		if cycles != refCycles {
			t.Errorf("shards=%d: stepped %d cycles, sequential stepped %d", shards, cycles, refCycles)
		}
	}
}
