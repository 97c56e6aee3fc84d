package noc

import "sync/atomic"

// EngineMeter instruments the simulator engine itself — where host
// wall-clock time goes inside a cycle, how evenly the shards are
// loaded, and how much traffic crosses shard boundaries. It is strictly
// out-of-band: the meter only reads clocks and counts work that already
// happened, never feeds anything back into simulation state, so
// results are bit-identical with a meter attached or not (pinned by
// TestEngineMeterPurity and the obs-level determinism suite). Detached
// (the default), every instrumented site pays one nil-check branch and
// nothing else — the same contract the probe hook keeps.
//
// All totals are atomics because external goroutines (HTTP handlers
// serving /metrics) read them while the step loop writes. The
// per-cycle scratch timestamps live in shardState instead: they are
// written by the goroutine running a shard and read by Step's epilogue
// after the pool barrier, so they need no other synchronization. The
// same fold serves every shard count: a single shard reports the
// drain/busy split too, with no barrier time, parks or mailbox rows.
type EngineMeter struct {
	shards  []meterShard
	routers []int32 // routers per shard, fixed at attach
	// cross is the S x S boundary-crossing counter matrix
	// (cross[src*S+dst]), counting flits and credits drained from the
	// mailbox mail[src][dst]; nil when S == 1 (nothing ever crosses).
	// Each cell is written only by the destination shard's worker (at
	// its drain) but read by external samplers, hence atomics.
	cross  []crossCell
	cycles atomic.Int64
	stepNs atomic.Int64 // wall time inside Network.Step, all cycles
	parks  atomic.Int64 // barrier waits that outlasted the spin budget (pool.go)
}

// meterShard is one shard's wall-time totals, padded so concurrently
// updated shards never share a cache line.
type meterShard struct {
	busyNs    atomic.Int64 // inside shardCycle (drain + inject + stages)
	drainNs   atomic.Int64 // the delivery/drain prefix of busyNs
	barrierNs atomic.Int64 // from this shard's finish to the cycle barrier
	cycles    atomic.Int64
	ringWords atomic.Int64 // arrival words delivered (EngineSnapshot.RingWords)
	_         [24]byte
}

type crossCell struct {
	flits   atomic.Int64
	credits atomic.Int64
}

// EnableEngineMeter attaches an engine meter to the network and returns
// it; if one is already attached it is returned unchanged. Must not be
// called concurrently with Step — attach before the run starts.
func (n *Network) EnableEngineMeter() *EngineMeter {
	if n.meter != nil {
		return n.meter
	}
	S := len(n.shards)
	m := &EngineMeter{
		shards:  make([]meterShard, S),
		routers: make([]int32, S),
	}
	for i := range n.shards {
		m.routers[i] = n.shards[i].hi - n.shards[i].lo
	}
	if S > 1 {
		m.cross = make([]crossCell, S*S)
	}
	n.meter = m
	return m
}

// Meter returns the attached engine meter, or nil when detached.
func (n *Network) Meter() *EngineMeter { return n.meter }

// EngineShardStat is one shard's slice of an EngineSnapshot.
type EngineShardStat struct {
	Shard     int   `json:"shard"`
	Routers   int   `json:"routers"`
	BusyNs    int64 `json:"busy_ns"`
	DrainNs   int64 `json:"drain_ns"`
	BarrierNs int64 `json:"barrier_ns"`
	Cycles    int64 `json:"cycles"`
}

// EngineMailboxStat is the cumulative boundary-mailbox traffic drained
// by shard Dst from shard Src.
type EngineMailboxStat struct {
	Src     int   `json:"src"`
	Dst     int   `json:"dst"`
	Flits   int64 `json:"flits"`
	Credits int64 `json:"credits"`
}

// EngineSnapshot is a consistent-enough point-in-time copy of the
// meter's totals. Individual counters are read atomically; the set is
// not taken under a global lock (the step loop keeps running), which is
// fine for monitoring — totals are monotone.
type EngineSnapshot struct {
	Cycles int64 `json:"cycles"`
	StepNs int64 `json:"step_ns"`
	Parks  int64 `json:"parks"` // barrier waits that outlasted the spin budget and blocked
	// RingWords counts the arrival words delivered: one per ejected flit
	// and per link-forwarded head (a head crossing shards counts at its
	// mailbox delivery), so it is exact and the same at any shard count.
	RingWords int64             `json:"ring_words"`
	Shards    []EngineShardStat `json:"shards"`
	// Mailbox lists the non-zero (src,dst) crossing counters in
	// ascending (src,dst) order.
	Mailbox []EngineMailboxStat `json:"mailbox,omitempty"`
}

// Snapshot copies the meter's current totals.
func (m *EngineMeter) Snapshot() EngineSnapshot {
	s := EngineSnapshot{
		Cycles: m.cycles.Load(),
		StepNs: m.stepNs.Load(),
		Parks:  m.parks.Load(),
		Shards: make([]EngineShardStat, len(m.shards)),
	}
	for i := range m.shards {
		ms := &m.shards[i]
		s.RingWords += ms.ringWords.Load()
		s.Shards[i] = EngineShardStat{
			Shard:     i,
			Routers:   int(m.routers[i]),
			BusyNs:    ms.busyNs.Load(),
			DrainNs:   ms.drainNs.Load(),
			BarrierNs: ms.barrierNs.Load(),
			Cycles:    ms.cycles.Load(),
		}
	}
	S := len(m.shards)
	for src := 0; src < S; src++ {
		for dst := 0; dst < S; dst++ {
			if src == dst || m.cross == nil {
				continue
			}
			c := &m.cross[src*S+dst]
			f, cr := c.flits.Load(), c.credits.Load()
			if f == 0 && cr == 0 {
				continue
			}
			s.Mailbox = append(s.Mailbox, EngineMailboxStat{Src: src, Dst: dst, Flits: f, Credits: cr})
		}
	}
	return s
}

// ImbalanceRatio is the max/mean ratio of per-shard busy time: 1.0 for
// perfectly balanced shards, 2.0 when the hottest shard works twice the
// average. Returns 1 for a single shard or an empty snapshot.
func (s *EngineSnapshot) ImbalanceRatio() float64 {
	if len(s.Shards) <= 1 {
		return 1
	}
	var sum, max int64
	for i := range s.Shards {
		b := s.Shards[i].BusyNs
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.Shards))
	return float64(max) / mean
}

// Utilization is the fraction of the worker pool's capacity spent doing
// shard work: sum of per-shard busy time over shards x wall time inside
// Step. A single shard reports ~1 by construction; a sharded run below 1
// is losing time to barrier skew or the serial epilogue.
func (s *EngineSnapshot) Utilization() float64 {
	if s.StepNs == 0 {
		return 0
	}
	var sum int64
	for i := range s.Shards {
		sum += s.Shards[i].BusyNs
	}
	return float64(sum) / (float64(len(s.Shards)) * float64(s.StepNs))
}
