package noc

import (
	"fmt"
	"strings"
	"testing"

	"mira/internal/topology"
)

// TestSoAViewAliasing pins the ownership contract of soa.go: the flat
// per-network arrays are the state and every per-router slice is a
// window over them, so a mutation through either
// representation is immediately visible through the other. If a refactor
// ever turns a window into a copy, the two representations can drift and
// this test fails before any simulation-level symptom appears. The
// link-side write (forward fills the downstream ring through the flat
// arrays, by global index) the oracle corpus observes: a copied ring,
// length or front-arrival window moves flits.
func TestSoAViewAliasing(t *testing.T) {
	net := NewNetwork(cfg2D(1))
	// A middle router, so every direction has ports; nonzero bases.
	r := &net.routers[7]
	if r.vcBase == 0 {
		t.Fatalf("router 7 has vcBase 0; want a nonzero base for the aliasing check")
	}
	pi := int(r.inIndex[topology.East])
	vi := 1
	f := r.flatVC(pi, vi)
	gi := int(r.vcBase) + f

	// Flat write -> router-view read, across a few representative lanes.
	net.soa.vcOutVC[gi] = 3
	if got := r.vcOutVC[f]; got != 3 {
		t.Errorf("vcOutVC window read %d after flat write, want 3", got)
	}

	// Router-view write -> flat read.
	r.vcState[f] = vcRouting
	if got := net.soa.vcState[gi]; got != vcRouting {
		t.Errorf("flat vcState read %v after window write, want %v", got, vcRouting)
	}
	r.vcState[f] = vcIdle

	// Ring storage: a push through the router view must land in the
	// network-owned backing array at the global slot.
	pkt := &Packet{ID: 99, Src: 0, Dst: 1, Size: 1}
	r.vcPush(f, Flit{Pkt: pkt, Type: HeadTailFlit}, 7)
	if got := net.soa.bufFlit[gi*net.cfg.BufDepth]; got.Pkt != pkt {
		t.Errorf("flat bufFlit slot holds %+v after window push, want packet 99", got)
	}
	if got := net.soa.bufArrived[gi*net.cfg.BufDepth]; got != 7 {
		t.Errorf("flat bufArrived slot %d after window push, want 7", got)
	}
	// And the reverse: mutate the flit in place through the flat array,
	// read it through the router accessor.
	net.soa.bufFlit[gi*net.cfg.BufDepth].Seq = 42
	if got := r.vcFrontFlit(f); got == nil || got.Seq != 42 {
		t.Errorf("vcFrontFlit = %+v after flat mutation, want Seq 42", got)
	}
	r.vcDrop(f)

	// Flow control: the router's credit and reservation windows alias
	// the flat (output port, VC) lanes.
	oi := int(r.outIndex[topology.West])
	ci := oi*r.vcsPerPort + vi
	gc := int(r.credBase) + ci
	r.credits[ci]--
	if got := net.soa.credits[gc]; got != r.credits[ci] {
		t.Errorf("credit views diverged: flat %d, router %d", got, r.credits[ci])
	}
	r.credits[ci]++
	net.soa.reserved[gc] = true
	if !r.reserved[ci] {
		t.Errorf("reserved views diverged: flat true, router false")
	}
	net.soa.reserved[gc] = false

	// The windows really are views, so the network must still pass a
	// full consistency check after the round-trips above.
	if err := net.CheckInvariants(); err != nil {
		t.Fatalf("invariants after aliasing round-trips: %v", err)
	}

}

// forwardInto sends flit from the router upstream of r's input port pi
// into VC vi of that port, the way the SA stage does after a grant: the
// flit is staged in the upstream router's local input VC 0 and handed to
// forward. Nothing steps the network, so repeated calls pile flits on
// the wire into the downstream ring.
func forwardInto(net *Network, r *Router, pi, vi int, flit Flit) {
	ip := &r.inPorts[pi]
	up := &net.routers[ip.upstream]
	src := up.flatVC(int(up.inIndex[topology.Local]), 0)
	up.vcOutVC[src] = int8(vi)
	up.vcPush(src, flit, net.cycle)
	up.forward(net.cycle, src, int(up.outIndex[ip.dir.Opposite()]))
}

// TestVCOverflowPanics pins the fixed-capacity ring contract: occupancy
// beyond BufDepth is physically unstorable, and both write paths — the
// NI-side vcPush and the link-side write in forward — panic naming the
// exact router, port and VC, so a credit bug reports where it happened
// rather than corrupting state. The link side is driven through forward
// itself, with the credit bug played by handing the upstream router a
// credit it is not owed.
func TestVCOverflowPanics(t *testing.T) {
	t.Run("push", func(t *testing.T) {
		net := NewNetwork(cfg2D(1))
		r := &net.routers[0]
		lpi := int(r.inIndex[topology.Local])
		f := r.flatVC(lpi, 0)
		pkt := &Packet{Src: 0, Dst: 1, Size: 1}
		for i := 0; i < net.cfg.BufDepth; i++ {
			r.vcPush(f, Flit{Pkt: pkt, Type: BodyFlit}, int64(i))
		}
		mustPanic(t, []string{
			"router 0", fmt.Sprintf("port %d", lpi), "(local)", "vc 0", "overflow",
		}, func() {
			r.vcPush(f, Flit{Pkt: pkt, Type: BodyFlit}, 99)
		})
	})

	t.Run("reserve", func(t *testing.T) {
		net := NewNetwork(cfg2D(1))
		r := &net.routers[7] // interior: every direction present
		pi := int(r.inIndex[topology.East])
		vi := 1
		pkt := &Packet{Src: 0, Dst: 1, Size: 1}
		flit := Flit{Pkt: pkt, Type: BodyFlit}
		for i := 0; i < net.cfg.BufDepth; i++ {
			forwardInto(net, r, pi, vi, flit)
		}
		fv := r.flatVC(pi, vi)
		if written, landed := int(r.vcLen[fv]), r.vcLanded(fv, net.cycle); written-landed != net.cfg.BufDepth {
			t.Fatalf("%d written - %d landed flits on the wire, want %d", written, landed, net.cfg.BufDepth)
		}
		// Out of credits, forward refuses before it reaches the ring...
		mustPanic(t, []string{"router 8", "negative credits", "west", fmt.Sprintf("vc %d", vi)}, func() {
			forwardInto(net, r, pi, vi, flit)
		})
		// ...and with a credit too many, the ring itself refuses.
		up := &net.routers[8]
		up.credits[int(up.outIndex[topology.West])*up.vcsPerPort+vi] = 1
		mustPanic(t, []string{
			"router 7", fmt.Sprintf("port %d", pi), "(east)", fmt.Sprintf("vc %d", vi), "overflow",
		}, func() {
			forwardInto(net, r, pi, vi, flit)
		})
	})

	// Flits on the wire count against the depth too: a VC with landed
	// flits and flits on the wire summing to the depth must reject
	// another write.
	t.Run("mixed", func(t *testing.T) {
		net := NewNetwork(cfg2D(1))
		r := &net.routers[7]
		pi := int(r.inIndex[topology.West])
		f := r.flatVC(pi, 0)
		pkt := &Packet{Src: 0, Dst: 1, Size: 1}
		flit := Flit{Pkt: pkt, Type: BodyFlit}
		for i := 0; i < net.cfg.BufDepth/2; i++ {
			r.vcPush(f, flit, int64(i))
		}
		for i := net.cfg.BufDepth / 2; i < net.cfg.BufDepth; i++ {
			forwardInto(net, r, pi, 0, flit)
		}
		// The pushed flits never cost the upstream router a credit, so it
		// still holds some: the credit check passes and the ring refuses.
		mustPanic(t, []string{"router 7", "vc 0", "overflow"}, func() {
			forwardInto(net, r, pi, 0, flit)
		})
	})
}

// mustPanic runs fn and fails unless it panics with a message naming
// every string in wantSub.
func mustPanic(t *testing.T, wantSub []string, fn func()) {
	t.Helper()
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatalf("no panic; want one naming %q", wantSub)
		}
		for _, sub := range wantSub {
			if !strings.Contains(msg, sub) {
				t.Errorf("panic %q does not name %q", msg, sub)
			}
		}
	}()
	fn()
}

// TestHeadLandsInBusyVCPanics: a head that lands at the front of a VC
// not idle is a credit or VC-state bug; its arrival word panics naming
// the VC instead of leaving the packet stalled.
func TestHeadLandsInBusyVCPanics(t *testing.T) {
	net := NewNetwork(cfg2D(1))
	r := &net.routers[7]
	pi := int(r.inIndex[topology.East])
	forwardInto(net, r, pi, 1, Flit{Pkt: &Packet{Src: 8, Dst: 6, Size: 1}, Type: HeadTailFlit})
	r.vcState[r.flatVC(pi, 1)] = vcActive // the bug: a state left over from an earlier packet
	mustPanic(t, []string{"router 7", "port east", "vc 1", "head arrives in state"}, func() {
		for i := 0; i < 10; i++ {
			net.Step()
		}
	})
}

// TestBodyFlitsScheduleNoEvent pins the landing rule's work count: a
// same-shard link flit lands by its arrival cycle alone, so only a head
// leaves an arrival word per hop. A lone 4-flit packet across the mesh
// and a lone 16-flit message over a latency-16 d2d link deliver exactly
// one word per ejected flit plus one per hop; under load the meter's
// count is ejected flits plus link-forwarded heads at every shard count.
// Every flit still counts its link traversal: the oracle corpus compares
// the link and d2d counters.
func TestBodyFlitsScheduleNoEvent(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		spec Spec
	}{
		{"mesh", cfg2D(2), Spec{Src: 0, Dst: 35, Size: 4, Class: Data}},
		{"d2d-lat16", cfgChiplet(16, 1, false), Spec{Src: 0, Dst: 7, Size: 16, Class: Data}},
	} {
		net := NewNetwork(c.cfg)
		m := net.EnableEngineMeter()
		var done *Packet
		net.SetEjectHandler(func(p *Packet) { done = p })
		if _, err := net.Enqueue(c.spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000 && !net.Idle(); i++ {
			net.Step()
		}
		if done == nil {
			t.Fatalf("%s: packet not delivered", c.name)
		}
		if got, want := m.Snapshot().RingWords, int64(c.spec.Size+done.Hops); got != want {
			t.Fatalf("%s: %d ring words, want %d ejected flits + %d heads", c.name, got, c.spec.Size, done.Hops)
		}
	}

	var ref int64
	for _, shards := range []int{1, 2, 3} {
		cfg := cfg2D(2)
		cfg.Seed, cfg.Shards = 42, shards
		stream, _, snap := runMetered(t, cfg, StepActivity, 0.3, 600, true)
		want := int64(0)
		for _, e := range stream {
			want += 4 + int64(e.hops)
		}
		if snap.RingWords != want {
			t.Fatalf("shards=%d: %d ring words, want %d ejected flits + link-forwarded heads", shards, snap.RingWords, want)
		}
		if shards > 1 && snap.RingWords != ref {
			t.Fatalf("shards=%d: %d ring words, sequential run %d", shards, snap.RingWords, ref)
		}
		ref = snap.RingWords
	}
}
