// Package collective implements collective-communication workloads —
// ring AllReduce, reduce-scatter, and binomial tree broadcast — as
// closed-loop traffic for the NoC simulator. Unlike the open-loop
// synthetic kinds (internal/traffic), which inject at a fixed offered
// rate regardless of what the network delivers, a collective is
// causally dependent: every participant issues its step-(k+1) message
// only after its step-k message has arrived. The Engine is therefore a
// dependency engine driven off packet-delivery callbacks (noc.Sim's
// OnEject hook), packaged as a plain noc.Generator so it composes with
// the scenario layer, sharded stepping, and every step mode.
//
// # Overlays and step complexity
//
// Participants are the first P nodes of a boustrophedon ("snake")
// traversal of the mesh — row 0 left-to-right, row 1 right-to-left, and
// so on, per Z layer — so consecutive ranks are mesh neighbours and the
// logical ring maps onto physical links with one hop per step on a
// monolithic mesh. For N participants:
//
//   - ring AllReduce: 2(N−1) steps. Each rank r sends to its ring
//     successor at every step; step s's send is unlocked by the rank's
//     s-th receive (the reduce-scatter phase forwards partial sums, the
//     allgather phase forwards finished chunks).
//   - reduce-scatter: the first N−1 steps of the same ring schedule.
//   - tree broadcast: ceil(log2 N) steps over a binomial tree rooted at
//     rank 0. At step k every rank r < 2^k with r+2^k < N sends to rank
//     r+2^k; a non-root rank's sends are unlocked by its single receive,
//     which arrives at step floor(log2 r).
//
// # Dependency contract
//
// The Engine keeps no packet-identity state: each rank's send program
// is guarded by the rank's running receive count, and the j-th arrival
// at a rank is attributed to the j-th entry of the rank's precomputed
// receive schedule. This is exact for the shipped overlays — every rank
// receives from a single ring predecessor (ring kinds) or receives
// exactly once (broadcast) — and it is what makes the engine
// deterministic under sharded stepping: ejections are replayed in
// canonical router order at any shard count (see noc.Sim.OnEject), link
// latency ≥ 1 means a delivery can never unlock a send in the same
// cycle it crosses a shard boundary, and the engine itself draws
// nothing from the RNG.
//
// Iterations are separated by a zero-cost barrier: iteration i+1's
// first sends are issued on the first Generate call after iteration i's
// last message is delivered. Per-step latency, per-participant
// completion (a rank's last receive minus the iteration start; the
// broadcast root, which receives nothing, is excluded), and end-to-end
// iteration latency are aggregated as min/mean/max and surfaced as a
// stats.Table.
package collective
