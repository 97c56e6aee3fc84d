package noc

import (
	"fmt"
	"math/bits"
)

// CheckInvariants validates cross-router consistency of the flow-control
// state. It is O(routers x ports x VCs) and intended for tests and
// debugging, not the hot loop. The checked properties are the ones
// credit-based wormhole switching relies on:
//
//  1. No input VC buffer exceeds its configured depth.
//  2. For every link, the upstream credit count plus the flits written
//     downstream (landed or on the wire) plus cross-shard lane flits
//     plus credits on the way back equals the buffer depth.
//  3. A VC in the Routing/WaitVC state has a landed head at its front;
//     a VC holding landed flits is never Idle.
//  4. Output VC reservations are consistent: an Active input VC's
//     (outDir, outVC) target is actually reserved.
//  5. The incrementally maintained backlog counters (queued flits,
//     queued packets, in-flight flits) agree with a full rescan of the
//     NI queues, router buffers and event rings — the debug cross-check
//     for the O(1) backlog the simulator's drain loop relies on.
//  6. The activity-tracking state the cycle loop skips idle work by
//     (per-router pending, RC-due, route and class masks, and the
//     per-shard active-router and active-NI sets) agrees with a fresh
//     full scan of the VC states and NI queues.
//  7. No packet on the free list is still referenced by a flit that is
//     queued, buffered, on a link or awaiting ejection, and none is on
//     it twice — the Enqueue lifetime contract.
//
// In-flight traffic is scanned across every shard's own rings (heads
// and both send phases' ejections) and every lane. Same-shard link
// flits were written into their destination slots at send time and are
// on the wire while their arrival cycle is ahead: each such head has
// exactly one ring word, at its arrival cycle, and a body flit none.
// Cross-shard arrivals carry their flit with them and are counted
// separately; both kinds occupy downstream credit.
func (n *Network) CheckInvariants() error {
	type wordKey struct {
		gi int32
		at int64
	}
	// Words and credits currently in flight. Link words key by global VC
	// and arrival cycle, lane flits by global VC; credits travel as
	// flat credit-array indices, so they key by the global slot the
	// delivery loop will increment.
	words := make(map[wordKey]int)
	mailFlight := make(map[int32]int) // cross-shard arrivals (flit-carrying)
	credRet := make(map[int32]int)
	ejecting := 0
	live := make(map[*Packet]bool) // packets some flit still references
	for si := range n.shards {
		sh := &n.shards[si]
		for si, slot := range sh.ev {
			for _, gi := range slot {
				words[wordKey{gi, n.cycle + (int64(si)-n.cycle)&n.ringMask}]++
			}
		}
		for p := range sh.ej {
			for _, slot := range sh.ej[p] {
				for i := range slot {
					ejecting++
					live[slot[i].flit.Pkt] = true
				}
			}
		}
	}
	for src := range n.mail {
		for dst := range n.mail[src] {
			m := &n.mail[src][dst]
			for _, slot := range m.ev {
				for i := range slot {
					gi := slot[i].gi
					if gi < 0 || int(gi) >= len(n.soa.ownerOf) {
						return fmt.Errorf("noc: in-flight lane flit for vc %d out of range", gi)
					}
					mailFlight[gi]++
					live[slot[i].flit.Pkt] = true
				}
			}
			for _, slot := range m.cred {
				for _, ci := range slot {
					if ci < 0 || int(ci) >= len(n.soa.credits) {
						return fmt.Errorf("noc: in-flight credit slot %d out of range", ci)
					}
					credRet[ci]++
				}
			}
		}
	}

	for ri := range n.routers {
		r := &n.routers[ri]
		for f := range r.vcState {
			pi, vi := int(r.portOf[f]), int(r.vcOf[f])
			dir := r.inPorts[pi].dir
			// Ring-bounds invariant: the fixed-capacity ring (soa.go)
			// makes occupancy > BufDepth unstorable, but the head/len
			// cursors are checked anyway so a corrupted cursor is
			// caught here rather than as a garbled flit downstream.
			if r.vcHead[f] < 0 || int(r.vcHead[f]) >= r.bufDepth {
				return fmt.Errorf("noc: router %d %v vc %d ring head %d out of [0,%d)",
					r.id, dir, vi, r.vcHead[f], r.bufDepth)
			}
			written := int(r.vcLen[f])
			if written < 0 || written > n.cfg.BufDepth {
				return fmt.Errorf("noc: router %d %v vc %d holds %d flits (depth %d)",
					r.id, dir, vi, written, n.cfg.BufDepth)
			}
			if written > 0 {
				if want := r.bufArrived[f*r.bufDepth+int(r.vcHead[f])]; r.vcFrontAt[f] != want {
					return fmt.Errorf("noc: router %d %v vc %d front-arrival cache %d, ring says %d",
						r.id, dir, vi, r.vcFrontAt[f], want)
				}
			}
			// Each head on the wire owns exactly one word, at its arrival
			// cycle; a body flit owns none. Leftover words (a body's, or
			// one out of range) fail below.
			landed := r.vcLanded(f, n.cycle)
			for k := 0; k < written; k++ {
				slot := f*r.bufDepth + (int(r.vcHead[f])+k)%r.bufDepth
				live[r.bufFlit[slot].Pkt] = true
				if k < landed || !r.bufFlit[slot].Type.IsHead() {
					continue
				}
				wk := wordKey{r.vcBase + int32(f), r.bufArrived[slot]}
				if words[wk] != 1 {
					return fmt.Errorf("noc: router %d %v vc %d head on the wire until %d has %d arrival words, want 1",
						r.id, dir, vi, wk.at, words[wk])
				}
				delete(words, wk)
			}
			switch r.vcState[f] {
			case vcRouting, vcWaitVC:
				if front := r.vcFrontFlit(f); landed == 0 || !front.Type.IsHead() {
					return fmt.Errorf("noc: router %d %v vc %d in %v without head flit",
						r.id, dir, vi, r.vcState[f])
				}
			case vcIdle:
				if landed != 0 {
					return fmt.Errorf("noc: router %d %v vc %d idle with %d landed flits",
						r.id, dir, vi, landed)
				}
			case vcActive:
				oi := r.outIndex[r.vcOutDir[f]]
				if oi < 0 {
					return fmt.Errorf("noc: router %d %v vc %d active toward missing port %v",
						r.id, dir, vi, r.vcOutDir[f])
				}
				if !r.reserved[int(oi)*r.vcsPerPort+int(r.vcOutVC[f])] {
					return fmt.Errorf("noc: router %d %v vc %d active but output %v vc %d unreserved",
						r.id, dir, vi, r.vcOutDir[f], r.vcOutVC[f])
				}
			}
		}
		// Credit conservation per outgoing channel.
		for oi := range r.outPorts {
			op := &r.outPorts[oi]
			if !op.hasLink {
				continue
			}
			for vi := 0; vi < n.cfg.VCs; vi++ {
				gi := op.downVCBase + int32(vi)
				ci := r.credBase + int32(oi*n.cfg.VCs+vi)
				written := int(n.soa.vcLen[gi])
				credits := int(n.soa.credits[ci])
				total := credits + written + mailFlight[gi] + credRet[ci]
				if total != n.cfg.BufDepth {
					return fmt.Errorf("noc: channel %d-%v->%d vc %d: credits %d + written %d + lane %d + credret %d != depth %d",
						r.id, op.dir, op.link.Dst, vi, credits, written, mailFlight[gi], credRet[ci], n.cfg.BufDepth)
				}
			}
		}
	}

	// Backlog counter conservation (property 5): recompute the scanned
	// truth the counters replaced and require exact agreement with the
	// merged per-shard values.
	var scanQueuedFlits, scanQueuedPkts int64
	for i := range n.nis {
		s := &n.nis[i]
		for _, j := range s.pending() {
			scanQueuedFlits += int64(j.pkt.Size)
			live[j.pkt] = true
		}
		scanQueuedPkts += int64(len(s.pending()))
		if s.injecting {
			scanQueuedFlits += int64(s.cur.pkt.Size - s.curSeq)
			scanQueuedPkts++
			live[s.cur.pkt] = true
		}
	}
	if scanQueuedFlits != n.QueuedFlits() || scanQueuedPkts != n.QueuedPackets() {
		return fmt.Errorf("noc: queued counters drifted: flits %d (scan %d), packets %d (scan %d)",
			n.QueuedFlits(), scanQueuedFlits, n.QueuedPackets(), scanQueuedPkts)
	}
	for wk, c := range words {
		return fmt.Errorf("noc: %d arrival words at global vc %d cycle %d with no head on the wire", c, wk.gi, wk.at)
	}
	var scanInFlight int64
	for _, l := range n.soa.vcLen {
		scanInFlight += int64(l)
	}
	for _, c := range mailFlight {
		scanInFlight += int64(c)
	}
	scanInFlight += int64(ejecting)
	if scanInFlight != n.InFlightFlits() {
		return fmt.Errorf("noc: in-flight counter drifted: %d, scan %d", n.InFlightFlits(), scanInFlight)
	}

	for _, pkt := range n.pktFree {
		if live[pkt] {
			return fmt.Errorf("noc: packet %d is on the free list while a live flit references it (or twice)", pkt.ID)
		}
		live[pkt] = true
	}

	return n.checkActivity()
}

// checkActivity validates property 6: every piece of incrementally
// maintained activity state matches a fresh full scan. The bitsets live
// on the shard owning each router, so membership is checked against
// r.sh and populations per shard.
func (n *Network) checkActivity() error {
	for ri := range n.routers {
		r := &n.routers[ri]
		// Rebuild every mask from the per-VC scalars it summarizes.
		var in [4]uint64
		var dataVCs uint64
		routeTo := make([]uint64, len(r.outPorts))
		for f, s := range r.vcState {
			bit := uint64(1) << uint(f)
			in[s] |= bit
			if oi := r.vcOutPort[f]; oi >= 0 {
				routeTo[oi] |= bit
			}
			if r.vcClass[f] == Data {
				dataVCs |= bit
			}
		}
		for _, c := range []struct {
			name      string
			got, want uint64
		}{
			{"inRC", r.inRC, in[vcRouting]},
			{"inVA", r.inVA, in[vcWaitVC]},
			{"inSA", r.inSA, in[vcActive]},
			{"dataVCs", r.dataVCs, dataVCs},
		} {
			if c.got != c.want {
				return fmt.Errorf("noc: router %d %s mask %#x, scan finds %#x", r.id, c.name, c.got, c.want)
			}
		}
		for oi, want := range routeTo {
			if r.routeTo[oi] != want {
				return fmt.Errorf("noc: router %d routeTo[%d] mask %#x, scan of vcOutPort finds %#x",
					r.id, oi, r.routeTo[oi], want)
			}
		}
		// The delay line: every routing VC is due in exactly one parity,
		// and the cycle just stepped left nothing of its own behind.
		if r.rcDue[0]&r.rcDue[1] != 0 || r.rcDue[0]|r.rcDue[1] != r.inRC {
			return fmt.Errorf("noc: router %d RC due masks %#x and %#x do not partition inRC %#x",
				r.id, r.rcDue[0], r.rcDue[1], r.inRC)
		}
		if due := r.rcDue[n.cycle&1]; due != 0 {
			return fmt.Errorf("noc: router %d RC due mask %#x of cycle %d left unrouted", r.id, due, n.cycle)
		}
		// Shard-level stage sets must mirror mask emptiness, and a
		// router's bits may only live on its own shard's sets.
		id := int(r.id)
		for si := range n.shards {
			osh := &n.shards[si]
			if osh == r.sh {
				continue
			}
			if osh.actRC[0].has(id) || osh.actRC[1].has(id) || osh.actVA.has(id) || osh.actSA.has(id) || osh.actNI.has(id) {
				return fmt.Errorf("noc: router %d has activity bits on foreign shard %d", r.id, si)
			}
		}
		for _, c := range []struct {
			name string
			set  *routerSet
			mask uint64
		}{
			{"RC parity-0", &r.sh.actRC[0], r.rcDue[0]},
			{"RC parity-1", &r.sh.actRC[1], r.rcDue[1]},
			{"VA", &r.sh.actVA, r.inVA},
			{"SA", &r.sh.actSA, r.inSA},
		} {
			if c.set.has(id) != (c.mask != 0) {
				return fmt.Errorf("noc: router %d %s activity bit %v but pending mask %#x",
					r.id, c.name, c.set.has(id), c.mask)
			}
		}
	}
	// Active-NI sets: exactly the NIs with queued or in-flight packets,
	// each on its own shard's set.
	nActive := make([]int, len(n.shards))
	for i := range n.nis {
		s := &n.nis[i]
		sh := n.routers[i].sh
		work := len(s.pending()) > 0 || s.injecting
		if work {
			nActive[sh.idx]++
		}
		if sh.actNI.has(i) != work {
			return fmt.Errorf("noc: NI %d activity bit %v with %d queued, injecting %v",
				i, sh.actNI.has(i), len(s.pending()), s.injecting)
		}
	}
	for si := range n.shards {
		sh := &n.shards[si]
		for _, c := range []struct {
			name string
			set  *routerSet
		}{{"RC parity-0", &sh.actRC[0]}, {"RC parity-1", &sh.actRC[1]}, {"VA", &sh.actVA}, {"SA", &sh.actSA}, {"NI", &sh.actNI}} {
			count := 0
			for _, w := range c.set.words {
				count += bits.OnesCount64(w)
			}
			if count != c.set.n {
				return fmt.Errorf("noc: shard %d %s set population %d, bits say %d", si, c.name, c.set.n, count)
			}
		}
		if sh.actNI.n != nActive[si] {
			return fmt.Errorf("noc: shard %d NI set population %d, scan finds %d", si, sh.actNI.n, nActive[si])
		}
	}
	return nil
}
