package noc

import "time"

// OpenLoop marks a Generator whose packets never depend on the network:
// Generate reads nothing the simulation writes and only appends to its
// slice, so Sim.Run may call it ahead of the kernel (see Sim).
type OpenLoop interface{ OpenLoop() }

// A chunk closes after aheadCycles cycles or aheadSpecs specs. The kernel
// reads one of aheadChunks chunks while the goroutine fills another:
// 64 KB at 64 B a spec (Spec and cycle), plus a chunk's last cycle's.
const aheadCycles, aheadSpecs, aheadChunks = 4096, 512, 2

var aheadForce int // tests: > 0 overrides the thread budget, < 0 denies it

// genChunk holds the specs generated for the cycles before end.
type genChunk struct {
	specs    []Spec
	at       []int64 // at[i] is the cycle of specs[i]
	end      int64
	panicked any // Generate's panic at cycle end
}

// genAhead passes chunks to the kernel on full and back on free, each
// sized for every chunk so no send blocks; done closes when the goroutine
// has returned.
type genAhead struct {
	full, free chan *genChunk
	done       chan struct{}
	cur        *genChunk
	j          int // cur.specs[j:] are not enqueued yet
	meter      *EngineMeter
}

// startAhead returns nil, leaving generation inline, unless the generator
// is open-loop, the network unsharded and one more simulation thread fits
// in shardCores. It fills the first chunk itself, so the kernel does not
// start with a wait that could move it to another thread.
func (s *Sim) startAhead(end int64) *genAhead {
	if _, ok := s.Gen.(OpenLoop); !ok || aheadForce < 0 || len(s.Net.shards) > 1 || end <= 0 {
		return nil
	}
	if liveThreads.Add(1) > int64(shardCores()) && aheadForce == 0 {
		liveThreads.Add(-1)
		return nil
	}
	a := &genAhead{full: make(chan *genChunk, aheadChunks), free: make(chan *genChunk, aheadChunks), done: make(chan struct{}), meter: s.Net.meter}
	for i := 0; i < aheadChunks; i++ {
		a.free <- &genChunk{specs: make([]Spec, 0, aheadSpecs), at: make([]int64, 0, aheadSpecs)}
	}
	c := s.fill(a, 0, end)
	go func() { // owns s.Gen and s.rng until it returns
		defer close(a.done)
		defer liveThreads.Add(-1)
		for c < end {
			c = s.fill(a, c, end)
		}
	}()
	return a
}

// fill generates the cycles from c into a free chunk, passes it to the
// kernel and returns the next cycle, or end once free is closed or
// Generate panicked. It appends to locals: the kernel reads the other
// chunk, maybe on the same cache line.
func (s *Sim) fill(a *genAhead, c, end int64) (next int64) {
	ch, ok := <-a.free
	if !ok {
		return end
	}
	gen, rng, t0 := s.Gen, s.rng, time.Now()
	specs, at := ch.specs[:0], ch.at[:0]
	defer func() {
		if ch.panicked = recover(); ch.panicked != nil {
			next = end
		}
		ch.specs, ch.at, ch.end = specs, at, c
		if a.meter != nil {
			a.meter.genBusyNs.Add(time.Since(t0).Nanoseconds())
		}
		a.full <- ch
	}()
	for first := c; c < end && c-first < aheadCycles && len(specs) < aheadSpecs; c++ {
		specs = gen.Generate(c, rng, specs)
		for len(at) < len(specs) {
			at = append(at, c)
		}
	}
	return c
}

// next returns cycle c's specs, valid until the next call, and raises a
// panic of Generate at the cycle that raised it.
func (a *genAhead) next(c int64) []Spec {
	for a.cur == nil || c >= a.cur.end {
		if a.cur != nil {
			if a.cur.panicked != nil {
				panic(a.cur.panicked)
			}
			a.free <- a.cur
		}
		t0 := time.Now()
		if a.cur, a.j = <-a.full, 0; a.meter != nil {
			a.meter.genWaitNs.Add(time.Since(t0).Nanoseconds())
		}
	}
	lo := a.j
	for a.j < len(a.cur.at) && a.cur.at[a.j] == c {
		a.j++
	}
	return a.cur.specs[lo:a.j]
}

// close stops the goroutine, which may fill one more chunk, and waits for
// it to return.
func (a *genAhead) close() {
	close(a.free)
	<-a.done
}
