package noc

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardConfig covers the Shards knob's edges: default and explicit
// 0/1 step sequentially, oversized counts clamp to the router count, and
// AutoShards resolves tiny meshes to sequential (TestConfigValidate
// rejects counts below -1). The shard ranges (contiguous, ordered,
// covering every router) the oracle corpus holds at 2 to 8 shards: a
// router outside every range is never stepped.
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
}

// drive steps net for the given cycles under Bernoulli traffic of
// size-flit packets, seeded from the network's config.
func drive(t *testing.T, net *Network, rate float64, size int, cycles int64) {
	t.Helper()
	gen := bernoulli(net.cfg.Topo, rate, size, Data)
	rng := rand.New(rand.NewSource(net.cfg.Seed))
	for end := net.Cycle() + cycles; net.Cycle() < end; {
		for _, spec := range gen.Generate(net.Cycle(), rng, nil) {
			if _, err := net.Enqueue(spec); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
	}
}

// poolWorkers counts the shard-pool worker goroutines in the process.
func poolWorkers() int { return createdBy("mira/internal/noc.newShardPool") }

// createdBy counts the goroutines fn started, read from every
// goroutine's stack: goroutines of anything else the test binary runs
// cannot move the count.
func createdBy(fn string) int {
	for buf := make([]byte, 1<<16); ; buf = make([]byte, 2*len(buf)) {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by "+fn))
		}
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// TestShardPanicPropagation pins the failure path of the sharded step:
// a panic inside any shard's cycle — shard 0, which runs inline on the
// caller, or a pool worker's — is captured, every other shard still
// finishes the cycle, and only then is the panic re-raised on the
// goroutine that called Step, lowest shard index first. The workers
// survive it, so the pool is still releasable.
func TestShardPanicPropagation(t *testing.T) {
	for _, bad := range [][]int{{0}, {2}, {3, 1}} {
		t.Run(fmt.Sprintf("shards%v", bad), func(t *testing.T) {
			cfg := cfg2D(2)
			cfg.Shards = 4
			n := NewNetwork(cfg)
			t.Cleanup(n.ReleaseWorkers)
			drive(t, n, 0.2, 4, 50)
			// A credit returned to a full counter overflows it: plant
			// one in each bad shard's own credit lane for the next cycle.
			for _, k := range bad {
				sh := &n.shards[k]
				slot := (n.Cycle() + 1) & sh.ringMask
				lane := &n.mail[k][k].cred[slot]
				*lane = append(*lane, n.routers[sh.lo].vcBase)
				n.soa.credits[n.routers[sh.lo].vcBase] = int32(cfg.BufDepth)
			}
			lowest := n.routers[n.shards[slices.Min(bad)].lo].vcBase
			want := fmt.Sprintf("noc: credit overflow at flat credit slot %d", lowest)
			func() {
				defer func() {
					if r := recover(); r != want {
						t.Fatalf("Step recovered %v, want %q", r, want)
					}
				}()
				n.Step()
			}()
			if left := n.pool.pending.Load(); left != 0 {
				t.Fatalf("panic re-raised with %d workers still in the cycle", left)
			}
			done := make(chan struct{})
			go func() { n.ReleaseWorkers(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("ReleaseWorkers hung after a shard panic")
			}
		})
	}
}

// TestShardBarrierStaleRelease pins the wake protocol against a late
// releaser: a worker descheduled between the decrement that ended
// cycle C and its release of the caller delivers that release during
// the caller's wait of cycle C+1. The waiter must take the token, find
// its word unset and park again — not return into a cycle whose shards
// are still running.
func TestShardBarrierStaleRelease(t *testing.T) {
	p := &shardPool{}
	w := &waiter{wake: make(chan struct{}, 1)}
	var word atomic.Int64
	done := make(chan struct{})
	go func() { p.await(w, &word, 1); close(done) }()
	for i := 0; i < 3; i++ {
		if !waitFor(w.parked.Load) {
			t.Fatal("waiter never parked")
		}
		w.release() // stale: word is still 0
	}
	select {
	case <-done:
		t.Fatal("await returned on a stale release with its word unset")
	case <-time.After(20 * time.Millisecond):
	}
	word.Store(1)
	w.release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("await missed the real release")
	}
}

// TestShardBarrierBackoff pins the budget rule a waiter applies on its
// own: poolParkStreak waits in a row that end parked back it off, any
// wait in between that does not clears the count, and after
// poolSpinRetry waits it spins again on probation — one more parked
// wait backs it off again, one that is not restores full trust.
func TestShardBarrierBackoff(t *testing.T) {
	p := &shardPool{cores: 1 << 30}
	w := &waiter{wake: make(chan struct{}, 1)}
	var word atomic.Int64
	late := func() { // the word arrives only after the waiter has parked
		want := word.Load() + 1
		done := make(chan struct{})
		go func() { p.await(w, &word, want); close(done) }()
		if !waitFor(w.parked.Load) {
			t.Fatal("waiter never parked")
		}
		word.Store(want)
		w.release()
		<-done
	}
	prompt := func(n int) { // the word is there before the waiter looks
		for i := 0; i < n; i++ {
			p.await(w, &word, word.Add(1))
		}
	}
	for i := 0; i < poolParkStreak-1; i++ {
		late()
	}
	prompt(1)
	for i := 0; i < poolParkStreak; i++ {
		if w.streak != i {
			t.Fatalf("%d parked waits in a row counted as %d", i, w.streak)
		}
		late()
	}
	if w.streak != -poolSpinRetry {
		t.Fatalf("streak %d after %d parked waits in a row, want backed off for %d", w.streak, poolParkStreak, poolSpinRetry)
	}
	prompt(poolSpinRetry)
	if w.streak != poolParkStreak-1 {
		t.Fatalf("streak %d after the back-off ran out, want probation (%d)", w.streak, poolParkStreak-1)
	}
	late()
	if w.streak != -poolSpinRetry {
		t.Fatalf("streak %d after a parked wait on probation, want backed off again", w.streak)
	}
	prompt(poolSpinRetry + 1)
	if w.streak != 0 {
		t.Fatalf("streak %d after a prompt wait on probation, want 0", w.streak)
	}
}

// TestShardPoolLifecycle pins what the pool promises around the step
// loop: it starts lazily, an abandoned network's workers end up parked
// (not spinning), ReleaseWorkers is idempotent and returns the process
// to its pool-worker and live-shard baseline, and a released network
// steps on — with a fresh pool — to the same ejection stream as one
// never released. Two shards spin on a host with two cores, four park
// at once.
func TestShardPoolLifecycle(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := cfg2D(2)
			cfg.Seed = 42
			cfg.Shards = shards
			record := func(n *Network, stream *[]ejection) {
				n.SetEjectHandler(func(p *Packet) {
					*stream = append(*stream, ejection{id: p.ID, ejected: p.EjectedAt, injected: p.InjectedAt, hops: p.Hops})
				})
			}
			// Two 300-cycle legs each: drive reseeds its traffic per call.
			var want, got []ejection
			ref := NewNetwork(cfg)
			record(ref, &want)
			drive(t, ref, 0.2, 4, 300)
			drive(t, ref, 0.2, 4, 300)
			ref.ReleaseWorkers()
			if len(want) == 0 {
				t.Fatal("no traffic delivered; test is vacuous")
			}

			// Workers released just now (ref's, an earlier test's) may
			// still be exiting: wait for the count to settle.
			base, live := -1, liveThreads.Load()
			waitFor(func() bool { b := base; base = poolWorkers(); return b == base })
			n := NewNetwork(cfg)
			t.Cleanup(n.ReleaseWorkers)
			record(n, &got)
			n.ReleaseWorkers() // nothing started yet
			if n.pool != nil || poolWorkers() != base {
				t.Fatal("pool started before the first sharded step")
			}
			drive(t, n, 0.2, 4, 300)
			if g := poolWorkers(); g != base+shards-1 {
				t.Fatalf("%d pool workers while stepping, want baseline %d + %d", g, base, shards-1)
			}
			if l := liveThreads.Load(); l != live+int64(shards) {
				t.Fatalf("%d live shards while stepping, want baseline %d + %d", l, live, shards)
			}
			p := n.pool
			if !waitFor(func() bool {
				for i := range p.workers {
					if !p.workers[i].parked.Load() {
						return false
					}
				}
				return true
			}) {
				t.Fatal("idle network: workers still spinning after 5 s")
			}
			n.ReleaseWorkers()
			n.ReleaseWorkers()
			if !waitFor(func() bool { return poolWorkers() == base }) {
				t.Fatalf("%d pool workers after ReleaseWorkers, want baseline %d", poolWorkers(), base)
			}
			if l := liveThreads.Load(); l != live {
				t.Fatalf("%d live shards after ReleaseWorkers, want baseline %d", l, live)
			}
			drive(t, n, 0.2, 4, 300)
			if n.pool == nil || n.pool == p {
				t.Fatal("released network did not start a fresh pool")
			}
			if len(got) != len(want) {
				t.Fatalf("release + restart: %d ejections, uninterrupted run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("release + restart: ejection %d diverges: %+v, uninterrupted %+v", i, got[i], want[i])
				}
			}
		})
	}
}
