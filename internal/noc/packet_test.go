package noc

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPacketLifetime pins Enqueue's contract: a *Packet belongs to the
// caller's packet until its tail's eject callback returns, and to the
// network's free list afterwards. Traffic is enqueued, drained and
// enqueued again, under StepChecked (so CheckInvariants' free-list
// property runs every cycle) on one shard and on three:
//
//   - the second wave reuses the first wave's records;
//   - Enqueue never hands out a record whose packet is still queued,
//     buffered, on a link or in an ejection ring — tracked here by the
//     test's own live set, independently of CheckInvariants;
//   - every packet is delivered exactly once, with the identity it was
//     enqueued with.
func TestPacketLifetime(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := cfg2D(2)
			cfg.Shards = shards
			cfg.Mode = StepChecked
			net := NewNetwork(cfg)
			defer net.ReleaseWorkers()

			type ident struct {
				id       int64
				src, dst int
			}
			live := map[*Packet]ident{} // enqueued, tail not yet delivered
			everSeen := map[*Packet]bool{}
			delivered := 0
			net.SetEjectHandler(func(p *Packet) {
				want, ok := live[p]
				if !ok {
					t.Fatalf("cycle %d: delivery of packet %d, which is not in flight", net.Cycle(), p.ID)
				}
				if got := (ident{p.ID, int(p.Src), int(p.Dst)}); got != want {
					t.Fatalf("cycle %d: delivered record reads %+v, was enqueued as %+v", net.Cycle(), got, want)
				}
				delete(live, p)
				delivered++
			})

			gen := bernoulli(cfg.Topo, 0.3, 4, Data)
			rng := rand.New(rand.NewSource(11))
			enqueued, reused := 0, 0
			wave := func(cycles int) {
				for c := 0; c < cycles; c++ {
					for _, spec := range gen.Generate(net.Cycle(), rng, nil) {
						p, err := net.Enqueue(spec)
						if err != nil {
							t.Fatal(err)
						}
						if prev, inFlight := live[p]; inFlight {
							t.Fatalf("cycle %d: Enqueue reused the record of in-flight packet %d", net.Cycle(), prev.id)
						}
						if everSeen[p] {
							reused++
						}
						everSeen[p] = true
						live[p] = ident{p.ID, int(p.Src), int(p.Dst)}
						enqueued++
					}
					net.Step()
				}
				for i := 0; i < 5000 && !net.Idle(); i++ {
					net.Step()
				}
				if !net.Idle() || len(live) != 0 {
					t.Fatalf("wave did not drain: %d packets live", len(live))
				}
			}
			wave(300)
			first, records := enqueued, len(everSeen)
			if reused == 0 {
				t.Error("no record was reused while the first wave's early packets had long drained")
			}
			reused = 0
			wave(300)
			if second := enqueued - first; reused < second-pktSlabLen {
				t.Errorf("second wave reused %d records for %d packets (first wave left %d)", reused, second, records)
			}
			if delivered != enqueued {
				t.Errorf("delivered %d of %d packets", delivered, enqueued)
			}
			if len(net.pktFree) != len(everSeen) {
				t.Errorf("drained network has %d free records, %d were handed out", len(net.pktFree), len(everSeen))
			}
		})
	}
}
