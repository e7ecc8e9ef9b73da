// Package skute is a self-managed, scattered key-value store with
// cost-efficient and differentiated data availability guarantees — a
// reproduction of Bonvin, Papaioannou and Aberer, "Cost-efficient and
// Differentiated Data Availability Guarantees in Data Clouds" (ICDE 2010).
//
// Skute rents a cloud of geographically distributed servers to several
// applications at once. Each application gets its own virtual rings — one
// per availability class it requires — and every data-partition replica is
// managed by an autonomous economic agent that replicates, migrates or
// deletes itself to keep the partition's availability above its SLA at the
// minimum rent cost (see DESIGN.md for the full model).
//
// The package offers two front doors:
//
//   - Cluster: an embeddable replicated key-value store (the paper's
//     "future work" prototype) with quorum reads/writes, read repair,
//     Merkle anti-entropy, economy-driven replica management and
//     bounded-recovery durability (write-ahead log + checkpoint
//     snapshots, see internal/store). Every request takes a
//     context.Context honored through the quorum fan-out, per-request
//     ReadOptions/WriteOptions trade consistency for latency (One,
//     Quorum, All), and MGet/MPut batch multi-key operations into at
//     most one envelope per replica node (see DESIGN.md, "The request
//     path"). One-level reads ride a tiered fast path — leased local
//     reads, a placement-stamped coordinator hot-key cache, and hedged
//     quorum fan-out that sends one backup request only after a
//     p99-tracked delay (DESIGN.md, "The read
//     path"). Over TCP, every RPC rides persistent, pooled, multiplexed
//     connections — length-prefixed frames with request IDs, typed
//     error codes surviving the wire, and a 7-8x win over the old
//     dial-per-call wire (DESIGN.md, "The wire"). Replica placement
//     travels as versioned, gossip-carried
//     deltas (DESIGN.md, "Control plane"). Under saturation the node
//     degrades gracefully rather than collapsing: a priority-classed
//     admission gate sheds excess load fast with a retryable
//     ErrOverloaded, retries are jittered and budget-bounded, and
//     per-peer circuit breakers route reads around slow or failing
//     replicas (internal/resilience; DESIGN.md, "Overload and graceful
//     degradation"). Start/Stop switch the
//     cluster into autonomous mode: per-server heartbeat,
//     gossip-reconcile, anti-entropy and economic-epoch loops on
//     jittered intervals, with RunEpoch still available for
//     deterministic stepping. See examples/quickstart; the standalone
//     node is cmd/skuted and its client CLI cmd/skutectl.
//   - RunExperiment: the discrete-epoch simulator behind every figure of
//     the paper's evaluation. See cmd/skute-sim and EXPERIMENTS.md.
//
// README.md is the guided tour; DESIGN.md maps the paper's model onto
// the packages and documents the concurrency and durability
// architecture.
package skute
