//! Communicators: `MPI_COMM_WORLD`, `MPI_Comm_split`,
//! `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`.

use std::collections::HashMap;
use std::sync::Arc;

use simnet::RankMap;

use crate::ctx::Ctx;
use crate::oob::KIND_SPLIT;

/// Immutable communicator state shared by all member ranks.
#[derive(Debug)]
pub(crate) struct CommInner {
    /// Context id: unique per communicator within a universe; part of the
    /// message matching key, so traffic on different communicators never
    /// interferes (MPI's communication contexts).
    pub(crate) id: u32,
    /// Global ranks of the members, in communicator rank order.
    pub(crate) members: Vec<usize>,
    /// global rank -> communicator-local rank.
    pub(crate) local_of: HashMap<usize, usize>,
    /// Number of distinct nodes hosting the members, counted once here so
    /// per-call algorithm selection never rescans `members`.
    pub(crate) num_nodes: usize,
}

impl CommInner {
    pub(crate) fn new(id: u32, members: Vec<usize>, map: &RankMap) -> Self {
        Self::with_scratch(id, members, map, &mut vec![false; map.num_nodes()])
    }

    /// [`CommInner::new`] with a caller-owned all-`false` seen-array of
    /// `map.num_nodes()` entries, returned all-`false` again — lets a
    /// split with many colors count every group's nodes in O(group size).
    fn with_scratch(id: u32, members: Vec<usize>, map: &RankMap, seen: &mut [bool]) -> Self {
        let mut num_nodes = 0;
        for &g in &members {
            let s = &mut seen[map.node_of(g)];
            num_nodes += usize::from(!*s);
            *s = true;
        }
        for &g in &members {
            seen[map.node_of(g)] = false;
        }
        let local_of = members.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        Self {
            id,
            members,
            local_of,
            num_nodes,
        }
    }
}

/// A per-rank communicator handle.
///
/// All ranks appearing in [`Communicator::size`] are members; each holds
/// its own handle with its own local rank. Handles are cheap to clone.
#[derive(Debug, Clone)]
pub struct Communicator {
    pub(crate) inner: Arc<CommInner>,
    pub(crate) local_rank: usize,
}

impl Communicator {
    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.inner.members.len()
    }

    /// Context id (diagnostics).
    pub fn id(&self) -> u32 {
        self.inner.id
    }

    /// Global rank of communicator-local rank `local`.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    pub fn global_of(&self, local: usize) -> usize {
        self.inner.members[local]
    }

    /// Communicator-local rank of a global rank, if it is a member.
    pub fn local_of(&self, global: usize) -> Option<usize> {
        self.inner.local_of.get(&global).copied()
    }

    /// All members' global ranks in communicator order.
    pub fn members(&self) -> &[usize] {
        &self.inner.members
    }

    /// Number of distinct nodes the members live on. Computed once when
    /// the communicator is built, so reading it is O(1).
    pub fn num_nodes(&self) -> usize {
        self.inner.num_nodes
    }

    /// `MPI_Comm_split`: partition members by `color`; order each group by
    /// `(key, parent rank)`. Ranks passing `None` (MPI_UNDEFINED) get no
    /// communicator back. Collective over all members; charges no virtual
    /// time (setup is excluded from measurements, as in the paper §5).
    pub fn split(&self, ctx: &mut Ctx, color: Option<i64>, key: i64) -> Option<Communicator> {
        let seq = ctx.next_oob_seq(self.inner.id);
        let my_global = ctx.rank();
        let shared = ctx.shared();
        let board_key = (self.inner.id, seq, KIND_SPLIT);
        // A split is a setup collective over *all* members (even those
        // passing MPI_UNDEFINED), so it is also a synchronization point
        // the race detector must order accesses across.
        if let Some(r) = &shared.race {
            r.fence_deposit(my_global, board_key, self.size());
        }
        let watch = ctx.ft_watch(self);
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobDeposit { key: board_key });
        }
        let groups = shared.board.rendezvous_watched(
            &shared.exec,
            my_global,
            board_key,
            self.local_rank,
            self.size(),
            (my_global, color, key),
            shared.recv_timeout,
            watch.as_ref(),
            |deposits| {
                // Group by color; order groups by color for deterministic
                // id assignment; order members by (key, parent rank).
                let mut by_color: HashMap<i64, Vec<(i64, usize, usize)>> = HashMap::new();
                for (parent_local, (global, color, key)) in deposits {
                    if let Some(c) = color {
                        by_color
                            .entry(c)
                            .or_default()
                            .push((key, parent_local, global));
                    }
                }
                let mut colors: Vec<i64> = by_color.keys().copied().collect();
                colors.sort_unstable();
                let mut out: HashMap<i64, Arc<CommInner>> = HashMap::new();
                let mut seen = vec![false; shared.map.num_nodes()];
                for c in colors {
                    let mut group = by_color.remove(&c).expect("color present");
                    group.sort_unstable();
                    let members: Vec<usize> = group.into_iter().map(|(_, _, g)| g).collect();
                    let id = shared
                        .next_comm_id
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let inner = CommInner::with_scratch(id, members, &shared.map, &mut seen);
                    out.insert(c, Arc::new(inner));
                }
                out
            },
        );
        if let Some(p) = &shared.probe {
            p.record(crate::mcheck::Op::OobJoin { key: board_key });
        }
        if let Some(r) = &shared.race {
            r.fence_join(my_global, board_key, format!("comm split #{seq}"));
        }
        let color = color?;
        let inner = groups
            .get(&color)
            .expect("own color must produce a group")
            .clone();
        let local_rank = inner.local_of[&my_global];
        Some(Communicator { inner, local_rank })
    }

    /// `MPI_Comm_split_type(MPI_COMM_TYPE_SHARED)`: split into per-node
    /// shared-memory communicators (Fig. 1a of the paper). Member order
    /// follows parent rank order, so the node leader (lowest rank) is
    /// local rank 0.
    pub fn split_shared(&self, ctx: &mut Ctx) -> Communicator {
        let node = ctx.map().node_of(ctx.rank()) as i64;
        self.split(ctx, Some(node), 0)
            .expect("split_shared never returns UNDEFINED")
    }

    /// `MPI_Comm_shrink` (ULFM): construct the communicator of survivors
    /// from an [`AgreeOutcome`] produced by [`Ctx::ft_agree`] on this
    /// communicator. Purely local — every survivor holds the same agreed
    /// dead set and the same freshly minted context id (`outcome.token`),
    /// so no further coordination is needed. The fresh id is what
    /// isolates post-recovery traffic from stale packets of the aborted
    /// attempt: they can never match.
    ///
    /// # Panics
    /// Panics if the calling rank is itself in the dead set.
    pub fn shrink(&self, ctx: &Ctx, outcome: &crate::ft::AgreeOutcome) -> Communicator {
        let me = ctx.rank();
        assert!(
            !outcome.dead.contains(&me),
            "a dead rank cannot shrink a communicator"
        );
        let survivors: Vec<usize> = self
            .inner
            .members
            .iter()
            .copied()
            .filter(|g| !outcome.dead.contains(g))
            .collect();
        let inner = Arc::new(CommInner::new(outcome.token, survivors, ctx.map()));
        let local_rank = inner.local_of[&me];
        Communicator { inner, local_rank }
    }

    /// Spawn-and-merge: construct the regrown communicator from a
    /// [`GrowOutcome`](crate::ft::GrowOutcome) produced by
    /// [`Ctx::ft_grow`] / [`Ctx::ft_grow_standby`]. Purely local, like
    /// [`Communicator::shrink`]: every participant (survivor or recruit)
    /// holds the same agreed member list and the same freshly minted
    /// context id, so no further coordination is needed. Survivors keep
    /// their relative order; recruits are appended in ascending global
    /// rank.
    ///
    /// # Panics
    /// Panics if the calling rank is not in the regrown membership (a
    /// non-recruited spare must keep waiting instead).
    pub fn from_grow(ctx: &Ctx, outcome: &crate::ft::GrowOutcome) -> Communicator {
        let me = ctx.rank();
        let inner = Arc::new(CommInner::new(
            outcome.token,
            outcome.members.clone(),
            ctx.map(),
        ));
        let local_rank = *inner
            .local_of
            .get(&me)
            .expect("from_grow caller must be a member of the regrown communicator");
        Communicator { inner, local_rank }
    }

    /// The bridge communicator of the paper (Fig. 2): the lowest rank of
    /// each shared-memory communicator joins; everyone else gets `None`.
    ///
    /// `shm` must be this rank's shared-memory communicator obtained from
    /// [`Communicator::split_shared`] on `self`.
    pub fn split_bridge(&self, ctx: &mut Ctx, shm: &Communicator) -> Option<Communicator> {
        let leader = 0usize;
        let color = if shm.rank() == leader { Some(0) } else { None };
        self.split(ctx, color, 0)
    }
}

// Unit tests live in `universe.rs` and the crate-level integration tests,
// since communicators only exist inside a running universe.
