package noc

import (
	"fmt"
	"math/bits"

	"mira/internal/topology"
)

// CheckInvariants validates cross-router consistency of the flow-control
// state. It is O(routers x ports x VCs) and intended for tests and
// debugging, not the hot loop. The checked properties are the ones
// credit-based wormhole switching relies on:
//
//  1. No input VC buffer exceeds its configured depth.
//  2. For every link, the upstream credit count plus the downstream
//     buffer occupancy plus flits in flight on the link never exceeds
//     the buffer depth (credits can transiently undercount while a
//     credit is in flight, but can never overcount).
//  3. A VC in the Routing/WaitVC state has a head flit at its front;
//     a VC holding buffered flits is never Idle.
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
// In-flight traffic is scanned across every shard's own rings (both
// send-phase segments) and every boundary mailbox. Ring arrivals were
// direct-written into their destination slots at send time and are
// counted against vcInFly; mailbox arrivals carry their flit with them
// and are counted separately (a channel fed from another shard must
// have vcInFly == 0, which the per-VC check enforces since ring
// arrivals for it can't exist). Both kinds occupy downstream credit,
// so the conservation check sums them.
func (n *Network) CheckInvariants() error {
	type chanKey struct {
		router topology.NodeID
		dir    topology.Dir
		vc     int
	}
	// Flits and credits currently in flight. Flits key by downstream
	// channel; credits travel as flat credit-array indices, so they key
	// by the global slot the delivery loop will increment.
	inFlight := make(map[chanKey]int)   // ring arrivals (direct-written)
	mailFlight := make(map[chanKey]int) // mailbox arrivals (flit-carrying)
	credRet := make(map[int32]int)
	ejecting := 0
	live := make(map[*Packet]bool) // packets some flit still references
	keyOf := func(gi int32) (chanKey, error) {
		if gi < 0 || int(gi) >= len(n.soa.ownerOf) {
			return chanKey{}, fmt.Errorf("noc: in-flight arrival word %d out of range", gi)
		}
		r := &n.routers[n.soa.ownerOf[gi]]
		fi := int(gi - r.vcBase)
		return chanKey{r.id, r.inPorts[r.portOf[fi]].dir, int(r.vcOf[fi])}, nil
	}
	for si := range n.shards {
		sh := &n.shards[si]
		for p := 0; p < 2; p++ {
			for si, slot := range sh.ev[p] {
				for _, ev := range slot {
					if ev < 0 {
						ejecting++
						live[sh.ejRing[si][^ev].flit.Pkt] = true
						continue
					}
					k, err := keyOf(ev)
					if err != nil {
						return err
					}
					inFlight[k]++
				}
			}
		}
		for _, slot := range sh.cred {
			for _, ci := range slot {
				if ci < 0 || int(ci) >= len(n.soa.credits) {
					return fmt.Errorf("noc: in-flight credit slot %d out of range", ci)
				}
				credRet[ci]++
			}
		}
	}
	for src := range n.mail {
		for dst := range n.mail[src] {
			m := &n.mail[src][dst]
			for p := 0; p < 2; p++ {
				for _, slot := range m.ev[p] {
					for i := range slot {
						k, err := keyOf(slot[i].gi)
						if err != nil {
							return err
						}
						mailFlight[k]++
						live[slot[i].flit.Pkt] = true
					}
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
			if r.vcOcc(f) < 0 || r.vcOcc(f) > n.cfg.BufDepth {
				return fmt.Errorf("noc: router %d %v vc %d holds %d flits (depth %d)",
					r.id, dir, vi, r.vcOcc(f), n.cfg.BufDepth)
			}
			if r.vcOcc(f) > 0 {
				if want := r.bufArrived[f*r.bufDepth+int(r.vcHead[f])]; r.vcFrontAt[f] != want {
					return fmt.Errorf("noc: router %d %v vc %d front-arrival cache %d, ring says %d",
						r.id, dir, vi, r.vcFrontAt[f], want)
				}
			}
			// Each ring-borne in-flight flit occupies a ring slot forward
			// pre-wrote and has exactly one pending arrival event;
			// mailbox-borne flits carry their body and leave vcInFly
			// untouched.
			if got := inFlight[chanKey{r.id, dir, vi}]; int(r.vcInFly[f]) != got {
				return fmt.Errorf("noc: router %d %v vc %d records %d in-flight flits, rings hold %d arrival events",
					r.id, dir, vi, r.vcInFly[f], got)
			}
			if r.vcOcc(f)+int(r.vcInFly[f])+mailFlight[chanKey{r.id, dir, vi}] > n.cfg.BufDepth {
				return fmt.Errorf("noc: router %d %v vc %d occupancy %d + in-flight %d + mailbox %d exceeds depth %d",
					r.id, dir, vi, r.vcOcc(f), r.vcInFly[f], mailFlight[chanKey{r.id, dir, vi}], n.cfg.BufDepth)
			}
			for k := 0; k < r.vcOcc(f)+int(r.vcInFly[f]); k++ {
				live[r.bufFlit[f*r.bufDepth+(int(r.vcHead[f])+k)%r.bufDepth].Pkt] = true
			}
			switch r.vcState[f] {
			case vcRouting, vcWaitVC:
				if front := r.vcFrontFlit(f); front == nil || !front.Type.IsHead() {
					return fmt.Errorf("noc: router %d %v vc %d in %v without head flit",
						r.id, dir, vi, r.vcState[f])
				}
			case vcIdle:
				if r.vcOcc(f) != 0 {
					return fmt.Errorf("noc: router %d %v vc %d idle with %d buffered flits",
						r.id, dir, vi, r.vcOcc(f))
				}
			case vcActive:
				oi := r.outIndex[r.vcOutDir[f]]
				if oi < 0 {
					return fmt.Errorf("noc: router %d %v vc %d active toward missing port %v",
						r.id, dir, vi, r.vcOutDir[f])
				}
				if !r.outPorts[oi].reserved[r.vcOutVC[f]] {
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
			down := &n.routers[op.link.Dst]
			dpi := down.inIndex[op.dir.Opposite()]
			if dpi < 0 {
				return fmt.Errorf("noc: link from %d via %v lands on missing port", r.id, op.dir)
			}
			for vi := 0; vi < n.cfg.VCs; vi++ {
				key := chanKey{op.link.Dst, op.dir.Opposite(), vi}
				ci := r.credBase + int32(oi*n.cfg.VCs+vi)
				occupied := down.vcOcc(down.flatVC(int(dpi), vi))
				total := int(op.credits[vi]) + occupied + inFlight[key] + mailFlight[key] + credRet[ci]
				if total != n.cfg.BufDepth {
					return fmt.Errorf("noc: channel %d-%v->%d vc %d: credits %d + occupied %d + inflight %d + mailbox %d + credret %d != depth %d",
						r.id, op.dir, op.link.Dst, vi, op.credits[vi], occupied, inFlight[key], mailFlight[key], credRet[ci], n.cfg.BufDepth)
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
	var scanInFlight int64
	for ri := range n.routers {
		scanInFlight += int64(n.routers[ri].occupancy())
	}
	for _, c := range inFlight {
		scanInFlight += int64(c)
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
