//! The collective-algorithm registry: every named schedule in one
//! catalog, keyed by operation.
//!
//! Dispatch used to be scattered across hardcoded thresholds in
//! `selection.rs` and per-function `match` arms in each collective
//! module. The registry turns that into data: each algorithm is a
//! [`CollectiveAlgorithm`] entry — a name (`"allgather.ring"`), the
//! operation it implements, an applicability predicate over the
//! [`CommCase`] at hand, and a closed-form cost estimate used by the
//! autotuning policy to rank candidates (`simnet::Estimator`).
//!
//! The registry holds *selection metadata only*. Execution stays with
//! each operation module's `dispatch` function (collective kernels are
//! generic over the element type, which rules out trait-object
//! dispatch), so adding an algorithm is: write the kernel, add a
//! `dispatch` arm, and register one [`AlgorithmSpec`] here.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use simnet::Estimator;

/// Which collective operation an algorithm implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectiveOp {
    /// `MPI_Allgather`.
    Allgather,
    /// `MPI_Allgatherv`.
    Allgatherv,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Alltoall`.
    Alltoall,
    /// `MPI_Alltoallv`.
    Alltoallv,
    /// `MPI_Reduce_scatter`.
    ReduceScatter,
    /// `MPI_Barrier`.
    Barrier,
    /// The hybrid collectives' on-node arrive/release synchronization
    /// (paper §6) — selected per `HybridComm`, like any other algorithm.
    Sync,
}

impl CollectiveOp {
    /// The stable string key (used in decision logs, tuning tables and
    /// algorithm name prefixes).
    pub fn key(self) -> &'static str {
        match self {
            CollectiveOp::Allgather => "allgather",
            CollectiveOp::Allgatherv => "allgatherv",
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Allreduce => "allreduce",
            CollectiveOp::Alltoall => "alltoall",
            CollectiveOp::Alltoallv => "alltoallv",
            CollectiveOp::ReduceScatter => "reduce_scatter",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Sync => "sync",
        }
    }

    /// Parse a string key back to the operation.
    pub fn from_key(key: &str) -> Option<Self> {
        Some(match key {
            "allgather" => CollectiveOp::Allgather,
            "allgatherv" => CollectiveOp::Allgatherv,
            "bcast" => CollectiveOp::Bcast,
            "allreduce" => CollectiveOp::Allreduce,
            "alltoall" => CollectiveOp::Alltoall,
            "alltoallv" => CollectiveOp::Alltoallv,
            "reduce_scatter" => CollectiveOp::ReduceScatter,
            "barrier" => CollectiveOp::Barrier,
            "sync" => CollectiveOp::Sync,
            _ => return None,
        })
    }

    /// All operations, in catalog order.
    pub fn all() -> [CollectiveOp; 9] {
        [
            CollectiveOp::Allgather,
            CollectiveOp::Allgatherv,
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
            CollectiveOp::Alltoall,
            CollectiveOp::Alltoallv,
            CollectiveOp::ReduceScatter,
            CollectiveOp::Barrier,
            CollectiveOp::Sync,
        ]
    }
}

/// The selection situation one collective call faces: the operation, the
/// communicator's shape, and the op-specific size measure.
///
/// `total_bytes` means, per operation:
/// * allgather / allgatherv — total result bytes (sum over all blocks);
/// * bcast / allreduce / reduce_scatter — the message/vector bytes;
/// * alltoall — bytes of one rank-to-rank block;
/// * barrier / sync — 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommCase {
    /// The operation being selected for.
    pub op: CollectiveOp,
    /// Number of ranks in the communicator.
    pub comm_size: usize,
    /// Number of distinct nodes the communicator's members live on
    /// (`Communicator::num_nodes`, cached per communicator).
    pub num_nodes: usize,
    /// Op-specific size measure in bytes (see type docs).
    pub total_bytes: usize,
    /// Whether a node-shared result window exists for this call — makes
    /// the hybrid (`hy_*`) schedules applicable.
    pub windowed: bool,
    /// Leader slots per node available to this call (1 = the classic
    /// single-leader hierarchy) — makes the multi-leader (`hy_kleader`)
    /// schedules applicable when ≥ 2.
    pub leaders: usize,
}

impl CommCase {
    /// A case for `op` over a communicator of `comm_size` ranks spanning
    /// `num_nodes` nodes, moving `total_bytes` (op-specific measure).
    pub fn new(op: CollectiveOp, comm_size: usize, num_nodes: usize, total_bytes: usize) -> Self {
        Self {
            op,
            comm_size,
            num_nodes,
            total_bytes,
            windowed: false,
            leaders: 1,
        }
    }

    /// Builder: mark that a node-shared window backs this call.
    pub fn windowed(mut self) -> Self {
        self.windowed = true;
        self
    }

    /// Builder: make `k` leader slots per node available.
    pub fn with_leaders(mut self, k: usize) -> Self {
        self.leaders = k.max(1);
        self
    }

    /// Whether the communicator spans more than one node.
    pub fn spans_nodes(&self) -> bool {
        self.num_nodes > 1
    }

    /// Bytes of one per-rank block (`total_bytes / comm_size`, for the
    /// block-symmetric operations).
    pub fn block_bytes(&self) -> usize {
        self.total_bytes / self.comm_size.max(1)
    }
}

/// One registered collective algorithm: selection metadata for a named
/// schedule.
pub trait CollectiveAlgorithm: Send + Sync {
    /// Globally unique name, `"<op>.<algorithm>"`.
    fn name(&self) -> &'static str;
    /// The operation this algorithm implements.
    fn op(&self) -> CollectiveOp;
    /// Whether the schedule can run the given case at all (e.g.
    /// recursive doubling needs a power-of-two communicator).
    fn applicable(&self, case: &CommCase) -> bool;
    /// Closed-form cost estimate (µs) for ranking candidates. Only the
    /// *ordering* matters; see `simnet::estimate`.
    fn estimate(&self, est: &Estimator, case: &CommCase) -> f64;
}

/// A plain-function algorithm entry — the one-line registration format.
pub struct AlgorithmSpec {
    /// Unique `"<op>.<algorithm>"` name.
    pub name: &'static str,
    /// Operation implemented.
    pub op: CollectiveOp,
    /// Applicability predicate.
    pub applicable: fn(&CommCase) -> bool,
    /// Closed-form cost estimate (µs).
    pub estimate: fn(&Estimator, &CommCase) -> f64,
}

impl CollectiveAlgorithm for AlgorithmSpec {
    fn name(&self) -> &'static str {
        self.name
    }
    fn op(&self) -> CollectiveOp {
        self.op
    }
    fn applicable(&self, case: &CommCase) -> bool {
        (self.applicable)(case)
    }
    fn estimate(&self, est: &Estimator, case: &CommCase) -> f64 {
        (self.estimate)(est, case)
    }
}

/// The algorithm catalog: operation → named entries.
#[derive(Default)]
pub struct AlgorithmRegistry {
    by_op: BTreeMap<CollectiveOp, Vec<Box<dyn CollectiveAlgorithm>>>,
}

impl AlgorithmRegistry {
    /// An empty registry (extend with [`AlgorithmRegistry::register`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an algorithm. Panics on duplicate names — names are the
    /// dispatch keys, so collisions are programming errors.
    pub fn register(&mut self, algo: impl CollectiveAlgorithm + 'static) {
        let name = algo.name();
        assert!(
            self.lookup(name).is_none(),
            "duplicate algorithm registration: {name}"
        );
        self.by_op
            .entry(algo.op())
            .or_default()
            .push(Box::new(algo));
    }

    /// All registered candidates for `op`, in registration order.
    pub fn candidates(&self, op: CollectiveOp) -> &[Box<dyn CollectiveAlgorithm>] {
        self.by_op.get(&op).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The candidates applicable to `case`.
    pub fn applicable(&self, case: &CommCase) -> Vec<&dyn CollectiveAlgorithm> {
        self.candidates(case.op)
            .iter()
            .map(|b| b.as_ref())
            .filter(|a| a.applicable(case))
            .collect()
    }

    /// Find an entry by its unique name.
    pub fn lookup(&self, name: &str) -> Option<&dyn CollectiveAlgorithm> {
        self.by_op
            .values()
            .flat_map(|v| v.iter())
            .map(|b| b.as_ref())
            .find(|a| a.name() == name)
    }

    /// Total number of registered algorithms.
    pub fn len(&self) -> usize {
        self.by_op.values().map(Vec::len).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Names of every registered algorithm, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .by_op
            .values()
            .flat_map(|v| v.iter())
            .map(|b| b.name())
            .collect();
        names.sort_unstable();
        names
    }

    /// The cheapest applicable candidate for `case` under `est`, with its
    /// estimate. Ties break toward the earlier registration, so results
    /// are deterministic.
    pub fn best(
        &self,
        est: &Estimator,
        case: &CommCase,
    ) -> Option<(&dyn CollectiveAlgorithm, f64)> {
        let mut best: Option<(&dyn CollectiveAlgorithm, f64)> = None;
        for cand in self.applicable(case) {
            let cost = cand.estimate(est, case);
            match &best {
                Some((_, c)) if cost >= *c => {}
                _ => best = Some((cand, cost)),
            }
        }
        best
    }
}

impl std::fmt::Debug for AlgorithmRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmRegistry")
            .field("algorithms", &self.names())
            .finish()
    }
}

/// The global registry with every built-in algorithm. Each collective
/// module contributes its own entries through its `register` function.
pub fn global() -> &'static AlgorithmRegistry {
    static REGISTRY: OnceLock<AlgorithmRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = AlgorithmRegistry::new();
        crate::allgather::register(&mut reg);
        crate::allgatherv::register(&mut reg);
        crate::bcast::register(&mut reg);
        crate::allreduce::register(&mut reg);
        crate::alltoall::register(&mut reg);
        crate::alltoallv::register(&mut reg);
        crate::reduce_scatter::register(&mut reg);
        crate::barrier::register(&mut reg);
        register_hybrid(&mut reg);
        reg
    })
}

/// Entries for the hybrid (`hmpi`) layer: the shared-window allgather
/// schedule and the on-node synchronization flavors. Only metadata lives
/// here — the implementations are in the `hmpi` crate, which reuses these
/// names for its decisions.
fn register_hybrid(reg: &mut AlgorithmRegistry) {
    reg.register(AlgorithmSpec {
        name: "allgather.hy_shared_window",
        op: CollectiveOp::Allgather,
        applicable: |c| c.windowed,
        // arrive + leader-only bridge ring over node aggregates + release.
        estimate: |e, c| {
            let nodes = c.num_nodes.max(1);
            let node_block = c.total_bytes / nodes;
            let sync = {
                let shm = Estimator::for_span(e.cost(), false);
                let ppn = c.comm_size.div_ceil(nodes);
                2.0 * shm.barrier(ppn)
            };
            if nodes == 1 {
                return sync / 2.0;
            }
            sync + e.uniform_rounds(nodes - 1, node_block)
        },
    });
    reg.register(AlgorithmSpec {
        name: "allgather.hy_kleader",
        op: CollectiveOp::Allgather,
        applicable: |c| c.windowed && c.leaders >= 2 && c.spans_nodes(),
        estimate: |e, c| kleader_estimate(e, c, c.leaders),
    });
    reg.register(AlgorithmSpec {
        name: "allgatherv.hy_kleader",
        op: CollectiveOp::Allgatherv,
        applicable: |c| c.windowed && c.leaders >= 2 && c.spans_nodes(),
        estimate: |e, c| kleader_estimate(e, c, c.leaders),
    });
    reg.register(AlgorithmSpec {
        name: "bcast.hy_kleader_segmented",
        op: CollectiveOp::Bcast,
        applicable: |c| c.windowed && c.leaders >= 2 && c.spans_nodes(),
        estimate: |e, c| kleader_estimate(e, c, c.leaders),
    });
    reg.register(AlgorithmSpec {
        name: "allreduce.hy_kleader",
        op: CollectiveOp::Allreduce,
        applicable: |c| c.windowed && c.leaders >= 2 && c.spans_nodes(),
        estimate: |e, c| kleader_estimate(e, c, c.leaders),
    });
    reg.register(AlgorithmSpec {
        name: "sync.barrier",
        op: CollectiveOp::Sync,
        applicable: |_| true,
        // arrive + release are each a full MPI_Barrier: entry fee plus a
        // flag-dissemination round ladder.
        estimate: |e, c| 2.0 * (e.cost().barrier_entry_us + e.barrier(c.comm_size)),
    });
    reg.register(AlgorithmSpec {
        name: "sync.shared_flags",
        op: CollectiveOp::Sync,
        applicable: |_| true,
        // Fan-in: children post one flag each, leader polls s−1 flags;
        // fan-out: one multicast flag, each child polls once.
        estimate: |e, c| {
            let s = c.comm_size;
            if s <= 1 {
                return 0.0;
            }
            let m = e.cost();
            let arrive = m.flag_post_us + m.flag_latency_us + (s - 1) as f64 * m.flag_poll_us;
            let release = m.flag_post_us + m.flag_latency_us + m.flag_poll_us;
            arrive + release
        },
    });
    reg.register(AlgorithmSpec {
        name: "sync.p2p",
        op: CollectiveOp::Sync,
        applicable: |_| true,
        // Zero-byte message pairs through the MPI stack, serialized at
        // the leader in both directions.
        estimate: |e, c| {
            let s = c.comm_size;
            if s <= 1 {
                return 0.0;
            }
            2.0 * (s - 1) as f64 * e.msg(0)
        },
    });
}

/// Extra on-node coordination of the k-leader envelope beyond the plain
/// arrive/release sync: the go (rank 0 → leader slots) and quiesce
/// (leader slots → rank 0) flag hops. Zero at k = 1, where the envelope
/// collapses to the classic single-leader arrive/release.
fn kleader_envelope(m: &simnet::CostModel, k: usize) -> f64 {
    if k <= 1 {
        0.0
    } else {
        2.0 * (m.flag_post_us + m.flag_latency_us + k as f64 * m.flag_poll_us)
    }
}

/// Closed-form cost (µs) of the k-leader hybrid schedules, for any
/// k ≥ 1: arrive, the go/quiesce envelope, k concurrent stripe-bridge
/// schedules each moving 1/k of the node aggregate, and release. At
/// k = 1 this collapses to the single-leader designs — for allgather the
/// `allgather.hy_shared_window` estimate whenever the bridge ring is the
/// better schedule, and never above it (the real single-leader bridge is
/// adaptive, Bruck at short totals) — so one function prices the whole
/// k axis and [`recommended_leaders`] can find the crossover.
///
/// `e` must be the inter-node estimator of the case (bridge links);
/// the on-node parts are priced over shared memory internally.
pub fn kleader_estimate(e: &Estimator, c: &CommCase, k: usize) -> f64 {
    let nodes = c.num_nodes.max(1);
    let k = k.max(1);
    let ppn = c.comm_size.div_ceil(nodes);
    let shm = Estimator::for_span(e.cost(), false);
    let env = kleader_envelope(e.cost(), k);
    match c.op {
        CollectiveOp::Allgather | CollectiveOp::Allgatherv => {
            let sync = 2.0 * shm.barrier(ppn);
            if nodes == 1 {
                return sync / 2.0;
            }
            let node_block = c.total_bytes / nodes;
            let bridge = if k == 1 {
                // The single-leader bridge exchange is adaptive (Bruck
                // for short totals, ring for long — `InPlaceSm::tuned`):
                // price it as the better of the two so the k = 1
                // baseline is not handicapped at small sizes.
                let bruck = e.copy(node_block)
                    + e.doubling_rounds(nodes, node_block, c.total_bytes)
                    + e.copy(c.total_bytes);
                let ring = e.uniform_rounds(nodes - 1, node_block);
                bruck.min(ring)
            } else {
                // Each stripe rings its 1/k of every node block.
                e.uniform_rounds(nodes - 1, node_block.div_ceil(k))
            };
            sync + env + bridge
        }
        CollectiveOp::Bcast => {
            // Root forward, k stripes each van-de-Geijn broadcasting its
            // 1/k segment over the bridge, release.
            let seg = c.total_bytes.div_ceil(k);
            let bridge = if nodes == 1 {
                0.0
            } else {
                e.halving_rounds(nodes, seg) + e.uniform_rounds(nodes - 1, seg / nodes)
            };
            shm.barrier(ppn) + env + bridge
        }
        CollectiveOp::Allreduce => {
            let elems = c.total_bytes / 8;
            let intra = if k == 1 {
                // Leader-only binomial reduce over the node group.
                shm.copy(c.total_bytes)
                    + ceil_log2(ppn) as f64
                        * (shm.msg(c.total_bytes) + shm.reduce_compute(elems, 1.0))
            } else {
                // Cooperative fill: every rank writes its contribution
                // row, then reduces a 1/ppn slice across all ppn rows.
                shm.copy(c.total_bytes)
                    + ppn as f64 * shm.copy(c.total_bytes / ppn.max(1))
                    + shm.reduce_compute(elems, 1.0)
            };
            let bridge = if nodes == 1 {
                0.0
            } else {
                // Per stripe: Rabenseifner over 1/k of the vector.
                let seg = c.total_bytes.div_ceil(k);
                e.copy(seg)
                    + e.halving_rounds(nodes, seg)
                    + e.reduce_compute(seg / 8, 1.0)
                    + e.doubling_rounds(nodes, seg / nodes, seg)
            };
            2.0 * shm.barrier(ppn) + env + intra + bridge
        }
        _ => f64::INFINITY,
    }
}

/// The estimated-best leader count for a windowed hybrid case on the
/// given cluster: evaluates [`kleader_estimate`] at k = 1, 2, 4, … up to
/// `min(max_k, ppn)` and returns the argmin (ties toward smaller k).
/// This is how Legacy/Table/Autotune callers discover the ppn- and
/// size-dependent k > 1 crossovers without sweeping the simulator.
pub fn recommended_leaders(cost: &simnet::CostModel, c: &CommCase, max_k: usize) -> usize {
    let e = Estimator::for_span(cost, c.spans_nodes());
    let ppn = c.comm_size.div_ceil(c.num_nodes.max(1));
    let mut best_k = 1;
    let mut best_t = kleader_estimate(&e, c, 1);
    let mut k = 2;
    while k <= max_k.min(ppn) {
        let t = kleader_estimate(&e, c, k);
        if t < best_t {
            best_k = k;
            best_t = t;
        }
        k *= 2;
    }
    best_k
}

/// Number of ⌈log₂ p⌉ rounds (0 for p ≤ 1) — shared by the per-module
/// estimate functions.
pub fn ceil_log2(p: usize) -> usize {
    if p <= 1 {
        0
    } else {
        p.next_power_of_two().trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{CostModel, LinkClass};

    #[test]
    fn global_registry_has_every_builtin() {
        let reg = global();
        for name in [
            "allgather.recursive_doubling",
            "allgather.bruck",
            "allgather.ring",
            "allgather.local",
            "allgather.hy_shared_window",
            "allgather.hy_kleader",
            "allgatherv.hy_kleader",
            "bcast.hy_kleader_segmented",
            "allreduce.hy_kleader",
            "allgatherv.bruck",
            "allgatherv.ring",
            "allgatherv.local",
            "bcast.binomial",
            "bcast.scatter_allgather",
            "allreduce.recursive_doubling",
            "allreduce.rabenseifner",
            "alltoall.bruck",
            "alltoall.pairwise",
            "alltoallv.pairwise",
            "alltoallv.linear",
            "reduce_scatter.recursive_halving",
            "reduce_scatter.pairwise",
            "reduce_scatter.local",
            "barrier.dissemination",
            "barrier.shm_dissemination",
            "sync.barrier",
            "sync.shared_flags",
            "sync.p2p",
        ] {
            assert!(reg.lookup(name).is_some(), "missing registration: {name}");
        }
    }

    #[test]
    fn op_keys_round_trip() {
        for op in CollectiveOp::all() {
            assert_eq!(CollectiveOp::from_key(op.key()), Some(op));
        }
        assert_eq!(CollectiveOp::from_key("nonsense"), None);
    }

    #[test]
    fn applicability_respects_power_of_two() {
        let reg = global();
        let rd = reg.lookup("allgather.recursive_doubling").unwrap();
        let pow2 = CommCase::new(CollectiveOp::Allgather, 8, 2, 1024);
        let odd = CommCase::new(CollectiveOp::Allgather, 6, 2, 1024);
        assert!(rd.applicable(&pow2));
        assert!(!rd.applicable(&odd));
    }

    #[test]
    fn windowed_gates_hybrid_schedule() {
        let reg = global();
        let hy = reg.lookup("allgather.hy_shared_window").unwrap();
        let case = CommCase::new(CollectiveOp::Allgather, 8, 2, 1024);
        assert!(!hy.applicable(&case));
        assert!(hy.applicable(&case.windowed()));
    }

    #[test]
    fn best_is_deterministic_and_applicable() {
        let m = CostModel::cray_aries();
        let est = Estimator::new(&m, LinkClass::Network);
        let case = CommCase::new(CollectiveOp::Allgather, 6, 6, 48 * 1024);
        let (a, cost) = global().best(&est, &case).unwrap();
        assert!(a.applicable(&case));
        assert!(cost.is_finite() && cost > 0.0);
        let (b, _) = global().best(&est, &case).unwrap();
        assert_eq!(a.name(), b.name());
    }

    #[test]
    fn shared_flags_estimate_undercuts_barrier() {
        // The autotuner's strict-win lever: for any on-node group size,
        // flag sync must rank cheaper than two full barriers (proven
        // against the simulator in hmpi's flags_are_cheaper_than_barrier).
        for model in [CostModel::cray_aries(), CostModel::nec_infiniband()] {
            let est = Estimator::new(&model, LinkClass::SharedMem);
            for s in [2usize, 3, 6, 12, 16, 24] {
                let case = CommCase::new(CollectiveOp::Sync, s, 1, 0);
                let flags = global()
                    .lookup("sync.shared_flags")
                    .unwrap()
                    .estimate(&est, &case);
                let barrier = global()
                    .lookup("sync.barrier")
                    .unwrap()
                    .estimate(&est, &case);
                assert!(flags < barrier, "s={s}: flags {flags} vs barrier {barrier}");
            }
        }
    }

    #[test]
    fn kleader_specs_gate_on_window_leaders_and_span() {
        let reg = global();
        for name in [
            "allgather.hy_kleader",
            "allgatherv.hy_kleader",
            "bcast.hy_kleader_segmented",
            "allreduce.hy_kleader",
        ] {
            let spec = reg.lookup(name).unwrap();
            let op = spec.op();
            let base = CommCase::new(op, 48, 4, 64 * 1024);
            assert!(!spec.applicable(&base), "{name}: no window");
            assert!(!spec.applicable(&base.windowed()), "{name}: k=1");
            assert!(
                !spec.applicable(
                    &CommCase::new(op, 12, 1, 64 * 1024)
                        .windowed()
                        .with_leaders(4)
                ),
                "{name}: single node"
            );
            assert!(
                spec.applicable(&base.windowed().with_leaders(2)),
                "{name}: should apply"
            );
        }
    }

    #[test]
    fn kleader_estimate_collapses_to_single_leader_at_k1() {
        // At k = 1 the allgather pricing is the adaptive single-leader
        // bridge: never above the registered ring-priced schedule, and
        // exactly it where the ring is the better choice (large blocks),
        // so the k axis has a consistent origin.
        let m = CostModel::cray_aries();
        let est = Estimator::new(&m, LinkClass::Network);
        for (nodes, ppn, bytes) in [(4usize, 12usize, 96 * 1024usize), (2, 6, 4096), (8, 24, 1)] {
            let case = CommCase::new(CollectiveOp::Allgather, nodes * ppn, nodes, bytes).windowed();
            let single = global()
                .lookup("allgather.hy_shared_window")
                .unwrap()
                .estimate(&est, &case);
            assert!(kleader_estimate(&est, &case, 1) <= single);
        }
        // Ring-optimal regime: large per-node blocks, exact collapse.
        let case = CommCase::new(CollectiveOp::Allgather, 48, 4, 4 * 1024 * 1024).windowed();
        let single = global()
            .lookup("allgather.hy_shared_window")
            .unwrap()
            .estimate(&est, &case);
        assert_eq!(kleader_estimate(&est, &case, 1), single);
    }

    #[test]
    fn recommended_leaders_finds_size_dependent_crossover() {
        let m = CostModel::cray_aries();
        // Tiny messages: the envelope flags outweigh any bandwidth split.
        let small = CommCase::new(CollectiveOp::Allgather, 96, 4, 96 * 8).windowed();
        assert_eq!(recommended_leaders(&m, &small, 8), 1);
        // Large messages on fat nodes: striping the bridge ring wins.
        let large = CommCase::new(CollectiveOp::Allgather, 96, 4, 16 * 1024 * 1024).windowed();
        assert!(recommended_leaders(&m, &large, 8) > 1);
        // The recommendation never exceeds ppn.
        let thin = CommCase::new(CollectiveOp::Allgather, 8, 4, 16 * 1024 * 1024).windowed();
        assert!(recommended_leaders(&m, &thin, 8) <= 2);
    }

    #[test]
    fn duplicate_registration_panics() {
        let mut reg = AlgorithmRegistry::new();
        let spec = || AlgorithmSpec {
            name: "allgather.test_dup",
            op: CollectiveOp::Allgather,
            applicable: |_| true,
            estimate: |_, _| 1.0,
        };
        reg.register(spec());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.register(spec());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(24), 5);
    }
}
