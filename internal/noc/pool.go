package noc

import "sync/atomic"

// shardPool is the persistent worker set behind sharded stepping: one
// goroutine per shard 1..n-1; shard 0 runs on the goroutine that calls
// Step. One generation barrier joins them each cycle: Step arms pending
// with the worker count, increments gen, runs shard 0 and waits for
// pending to reach zero; a worker waits for the next gen, runs its shard
// and decrements pending, and the last to do so releases the caller.
// These sequentially consistent atomics order every append of cycle C
// before every drain of cycle C+1 (DESIGN.md §7). The pool starts lazily.
type shardPool struct {
	gen     atomic.Int64 // cycle generation, incremented by the caller
	_       [56]byte
	pending atomic.Int64 // workers still inside the published generation
	_       [56]byte
	stop    bool  // the next generation is the last; set by ReleaseWorkers
	cores   int64 // shardCores when the pool started
	caller  waiter
	workers []waiter // workers[i] serves shard i+1
}

// A wait spins poolSpinBudget loads (~0.5 ns each) before it parks, so a
// caller that keeps stepping pays no OS-thread wake-up and an abandoned
// network's workers end up parked. The budget has to outlast the gap
// between two steps (~3 us on the 16x16 benchmark mesh) and one thread
// wake-up (50-100 us on the ledger host), or the side waiting for a
// freshly woken peer parks too (58 000 parks in 32 000 cycles at 1<<16,
// 600 at 1<<18). On a core a runnable shard needs, a spinner costs that
// shard the whole budget: a wait parks at once while the process runs
// more simulation threads than cores (liveThreads), and — for load that
// count cannot see — for poolSpinRetry waits once poolParkStreak in a row
// have parked.
const poolSpinBudget, poolParkStreak, poolSpinRetry = 1 << 18, 8, 1 << 10

// liveThreads counts the process's simulation threads: the shards of
// every running pool and each running unsharded Sim.Run.
var liveThreads atomic.Int64

// waiter is one goroutine's parking spot, padded to a cache line. parked
// announces the intent to block; whoever swaps it back — the releaser, or
// the waiter on finding its word set — decides whether a token is sent.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one token is ever owed
	streak int           // waits in a row that parked; < 0: waits left without a budget
	_      [40]byte
}

// release wakes w if it is parked or committed to parking.
func (w *waiter) release() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// await returns once word holds want, which its writer must follow with
// w.release(), and reports whether it parked. A woken waiter re-checks
// its word: a worker descheduled between its last decrement and its
// release of the caller delivers that token into the caller's next wait.
func (p *shardPool) await(w *waiter, word *atomic.Int64, want int64) (parked bool) {
	noSpin := w.streak < 0 || liveThreads.Load() > p.cores
	for i := 0; word.Load() != want; i++ {
		if noSpin || i >= poolSpinBudget {
			parked = true
			w.parked.Store(true)
			if word.Load() != want || !w.parked.CompareAndSwap(true, false) {
				<-w.wake
			}
		}
	}
	if w.streak >= 0 && !parked {
		w.streak = 0
	} else if w.streak++; w.streak == 0 {
		w.streak = poolParkStreak - 1 // spinning again: the next wait to park ends it
	} else if w.streak == poolParkStreak {
		w.streak = -poolSpinRetry
	}
	return parked
}

// publish starts the next generation on every worker.
func (p *shardPool) publish() {
	p.pending.Store(int64(len(p.workers)))
	p.gen.Add(1)
	for i := range p.workers {
		p.workers[i].release()
	}
}

// newShardPool starts one worker per shard 1..n-1 of n.
func newShardPool(n *Network) *shardPool {
	p := &shardPool{workers: make([]waiter, len(n.shards)-1), cores: int64(shardCores())}
	p.caller.wake = make(chan struct{}, 1)
	liveThreads.Add(int64(len(n.shards)))
	for i := range p.workers {
		w, sh := &p.workers[i], &n.shards[i+1]
		w.wake = make(chan struct{}, 1)
		go func() {
			for gen := int64(1); ; gen++ {
				parked := p.await(w, &p.gen, gen)
				if p.stop { // written before the gen it is read after
					return
				}
				if parked && n.meter != nil {
					n.meter.parks.Add(1)
				}
				n.runShardCycle(sh)
				if p.pending.Add(-1) == 0 {
					p.caller.release()
				}
			}
		}()
	}
	return p
}

// runShardCycle runs one shard's cycle under the barrier, capturing a
// panic for the serial epilogue to re-raise once every shard has finished
// (a worker must never die: the next barrier would wait for it forever).
func (n *Network) runShardCycle(sh *shardState) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicked = r
		}
	}()
	n.shardCycle(sh)
}

// ReleaseWorkers tells the shard workers, if any are running, to exit.
// It is idempotent and must not run concurrently with Step; the next
// sharded step starts a fresh pool. Sim.Run releases on exit; an
// abandoned network keeps its parked workers and its share of liveThreads.
func (n *Network) ReleaseWorkers() {
	p := n.pool
	if p == nil {
		return
	}
	n.pool = nil
	p.stop = true
	p.publish()
	liveThreads.Add(-int64(len(p.workers) + 1))
}
