//! MPI-3 shared-memory windows.
//!
//! [`SharedWindow::allocate`] is the stand-in for
//! `MPI_Win_allocate_shared`: a collective over a shared-memory
//! communicator in which every rank contributes a size and gets back a view
//! of one contiguous node-wide buffer. `MPI_Win_shared_query` is implicit:
//! any rank can address the whole window through its handle.
//!
//! In real mode the storage is a vector of `AtomicU64` cells accessed with
//! `Relaxed` ordering. The paper's programming model requires explicit
//! synchronization (barriers or flag pairs) between conflicting accesses —
//! those synchronizations go through locks/condvars in this runtime, which
//! establish the happens-before edges that make the relaxed values visible.
//! This gives a UB-free model of MPI-3's "direct load/store" semantics.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::buffer::Buf;
use crate::comm::Communicator;
use crate::ctx::Ctx;
use crate::elem::ShmElem;
use crate::msg::Payload;
use crate::oob::KIND_WIN_ALLOC;
use crate::race::{AccessKind, RaceState};
use crate::universe::DataMode;

#[derive(Debug)]
enum Storage {
    Real(Vec<AtomicU64>),
    Phantom,
}

#[derive(Debug)]
struct WindowInner {
    storage: Storage,
    /// Base element offset of each member's segment, plus a final entry
    /// equal to the total length.
    offsets: Vec<usize>,
    /// Deterministic identity: the allocating communicator's rank-0
    /// global rank in the high 32 bits, that rank's window-allocation
    /// sequence number in the low 32. Used by the race detector (and
    /// its reports) instead of communicator context ids, which are
    /// assigned in wall-clock completion order.
    id: u64,
    /// Universe-wide live-allocation counter; decremented when the
    /// node-wide storage drops (leak accounting for the chaos harness).
    live: Arc<std::sync::atomic::AtomicUsize>,
}

impl Drop for WindowInner {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The race-detector hook of one window handle: the universe's detector
/// state plus the owning global rank (handles are per-rank, so the rank
/// is captured at allocation).
#[derive(Debug, Clone)]
struct WinRace {
    state: Arc<RaceState>,
    rank: usize,
}

/// A node-wide shared buffer of `T` with per-rank segments.
///
/// Cloning the handle is cheap; all clones address the same storage.
/// [`SharedWindow::region`] produces a re-based view of a sub-range —
/// useful for collective operations on one slot of a window (e.g. a
/// SUMMA panel).
#[derive(Debug, Clone)]
pub struct SharedWindow<T> {
    inner: Arc<WindowInner>,
    my_local_rank: usize,
    /// View base (element offset into the allocation).
    base: usize,
    /// View length in elements.
    view_len: usize,
    /// Race-detector hook (`None` when detection is off).
    race: Option<WinRace>,
    /// Model-checker probe (`None` outside `msim::mcheck` runs): every
    /// access is reported as part of the current schedule segment's
    /// footprint, in both data modes (phantom exploration still needs
    /// the dependence relation).
    probe: Option<Arc<crate::mcheck::Probe>>,
    _elem: PhantomData<T>,
}

impl<T: ShmElem> SharedWindow<T> {
    /// Collectively allocate a window over `comm`, which must be a
    /// shared-memory communicator (all members on one node). Each member
    /// contributes `my_len` elements; segments are laid out contiguously
    /// in communicator rank order, as `MPI_Win_allocate_shared` does by
    /// default.
    ///
    /// Setup charges no virtual time (the paper excludes one-off setup
    /// from measurements) but is recorded in the trace for memory
    /// accounting tests.
    ///
    /// # Panics
    /// Panics if the communicator spans more than one node.
    pub fn allocate(ctx: &mut Ctx, comm: &Communicator, my_len: usize) -> Self {
        assert_eq!(
            comm.num_nodes(),
            1,
            "SharedWindow requires a shared-memory (single-node) communicator"
        );
        let seq = ctx.next_oob_seq(comm.id());
        // Every member proposes an identity from its own (rank, alloc
        // counter); the finisher keeps communicator rank 0's proposal —
        // deterministic across runs, unlike comm context ids.
        let id_candidate = ((ctx.rank() as u64) << 32) | ctx.next_win_seq();
        let mode = ctx.mode();
        let shared = ctx.shared();
        let live = Arc::clone(&shared.live_windows);
        let key = (comm.id(), seq, KIND_WIN_ALLOC);
        if let Some(r) = &shared.race {
            r.fence_deposit(ctx.rank(), key, comm.size());
        }
        let watch = ctx.ft_watch(comm);
        let inner = shared.board.rendezvous_watched(
            &shared.exec,
            ctx.rank(),
            key,
            comm.rank(),
            comm.size(),
            (my_len, id_candidate),
            shared.recv_timeout,
            watch.as_ref(),
            move |sizes| {
                let id = sizes.first().map_or(0, |(_, (_, id))| *id);
                let mut offsets = Vec::with_capacity(sizes.len() + 1);
                let mut acc = 0usize;
                for (_, (len, _)) in &sizes {
                    offsets.push(acc);
                    acc += len;
                }
                offsets.push(acc);
                let storage = match mode {
                    DataMode::Real => Storage::Real((0..acc).map(|_| AtomicU64::new(0)).collect()),
                    DataMode::Phantom => Storage::Phantom,
                };
                live.fetch_add(1, Ordering::SeqCst);
                WindowInner {
                    storage,
                    offsets,
                    id,
                    live,
                }
            },
        );
        let race = shared.race.clone().map(|state| WinRace {
            state,
            rank: ctx.rank(),
        });
        if let Some(r) = &race {
            r.state
                .fence_join(ctx.rank(), key, format!("win alloc #{seq}"));
        }
        ctx.trace_win_alloc(my_len * T::SIZE);
        let view_len = *inner.offsets.last().expect("offsets nonempty");
        Self {
            inner,
            my_local_rank: comm.rank(),
            base: 0,
            view_len,
            race,
            probe: shared.probe.clone(),
            _elem: PhantomData,
        }
    }

    /// A re-based view of elements `[off, off + len)` of this window.
    /// The view shares storage with the original; indices into the view
    /// start at zero.
    ///
    /// # Panics
    /// Panics if the range exceeds this window/view.
    pub fn region(&self, off: usize, len: usize) -> SharedWindow<T> {
        assert!(off + len <= self.view_len, "window region out of bounds");
        SharedWindow {
            inner: Arc::clone(&self.inner),
            my_local_rank: self.my_local_rank,
            base: self.base + off,
            view_len: len,
            race: self.race.clone(),
            probe: self.probe.clone(),
            _elem: PhantomData,
        }
    }

    /// Log `[off, off+len)` of this *view* with the race detector (the
    /// record uses absolute window coordinates, so overlapping accesses
    /// through different views still conflict).
    #[inline]
    fn note_access(&self, kind: AccessKind, off: usize, len: usize) {
        if let Some(r) = &self.race {
            r.state
                .record(r.rank, self.inner.id, self.base + off, len, kind);
        }
        if let Some(p) = &self.probe {
            let lo = (self.base + off) as u64;
            p.record(crate::mcheck::Op::Win {
                id: self.inner.id,
                lo,
                hi: lo + len as u64,
                write: kind == AccessKind::Write,
            });
        }
    }

    /// Total length of this window (or view) in elements.
    pub fn total_len(&self) -> usize {
        self.view_len
    }

    fn assert_root_view(&self) {
        assert_eq!(
            self.base, 0,
            "per-rank segment accessors are only valid on the root window, not a region view"
        );
    }

    /// Base element offset of local rank `local`'s segment.
    pub fn base_of(&self, local: usize) -> usize {
        self.assert_root_view();
        self.inner.offsets[local]
    }

    /// Length in elements of local rank `local`'s segment.
    pub fn len_of(&self, local: usize) -> usize {
        self.assert_root_view();
        self.inner.offsets[local + 1] - self.inner.offsets[local]
    }

    /// Base element offset of the calling rank's own segment.
    pub fn my_base(&self) -> usize {
        self.base_of(self.my_local_rank)
    }

    /// Length of the calling rank's own segment.
    pub fn my_len(&self) -> usize {
        self.len_of(self.my_local_rank)
    }

    /// Load the element at `idx` (default value in phantom mode).
    pub fn read(&self, idx: usize) -> T {
        assert!(idx < self.view_len, "window read out of bounds");
        self.note_access(AccessKind::Read, idx, 1);
        match &self.inner.storage {
            Storage::Real(cells) => T::from_bits64(cells[self.base + idx].load(Ordering::Relaxed)),
            Storage::Phantom => T::default(),
        }
    }

    /// Store `v` at `idx` (bounds-checked no-op in phantom mode).
    pub fn write(&self, idx: usize, v: T) {
        assert!(idx < self.view_len, "window write out of bounds");
        self.note_access(AccessKind::Write, idx, 1);
        match &self.inner.storage {
            Storage::Real(cells) => cells[self.base + idx].store(v.to_bits64(), Ordering::Relaxed),
            Storage::Phantom => {}
        }
    }

    /// Copy `out.len()` elements starting at `off` into `out`.
    pub fn read_into(&self, off: usize, out: &mut [T]) {
        assert!(
            off + out.len() <= self.view_len,
            "window read out of bounds"
        );
        self.note_access(AccessKind::Read, off, out.len());
        if let Storage::Real(cells) = &self.inner.storage {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = T::from_bits64(cells[self.base + off + i].load(Ordering::Relaxed));
            }
        } else {
            for slot in out.iter_mut() {
                *slot = T::default();
            }
        }
    }

    /// Write `src` into the window starting at `off`.
    pub fn write_from(&self, off: usize, src: &[T]) {
        assert!(
            off + src.len() <= self.view_len,
            "window write out of bounds"
        );
        self.note_access(AccessKind::Write, off, src.len());
        if let Storage::Real(cells) = &self.inner.storage {
            for (i, &v) in src.iter().enumerate() {
                cells[self.base + off + i].store(v.to_bits64(), Ordering::Relaxed);
            }
        }
    }

    /// Initialize `[off, off+len)` with `f(i)` (i counts from 0), no-op
    /// storage-wise in phantom mode.
    pub fn fill_with(&self, off: usize, len: usize, mut f: impl FnMut(usize) -> T) {
        assert!(off + len <= self.view_len, "window fill out of bounds");
        self.note_access(AccessKind::Write, off, len);
        if let Storage::Real(cells) = &self.inner.storage {
            for i in 0..len {
                cells[self.base + off + i].store(f(i).to_bits64(), Ordering::Relaxed);
            }
        }
    }

    /// Build a message payload from window region `[off, off+len)` — used
    /// by node leaders to send shared data across nodes.
    pub fn payload(&self, off: usize, len: usize) -> Payload {
        assert!(
            off + len <= self.total_len(),
            "window payload out of bounds"
        );
        match &self.inner.storage {
            Storage::Real(_) => {
                let mut tmp = vec![T::default(); len];
                self.read_into(off, &mut tmp);
                Buf::Real(tmp).payload_all()
            }
            Storage::Phantom => Payload::Phantom(len * T::SIZE),
        }
    }

    /// Write a received payload into window region starting at `off`.
    pub fn write_payload(&self, off: usize, payload: &Payload) {
        let elems = payload.len() / T::SIZE;
        assert!(
            off + elems <= self.total_len(),
            "window write out of bounds"
        );
        if let (Storage::Real(_), Payload::Real(b)) = (&self.inner.storage, payload) {
            let mut tmp = vec![T::default(); elems];
            crate::elem::bytes_to_slice(b, &mut tmp);
            self.write_from(off, &tmp);
        }
    }

    /// Snapshot the full window contents into a `Vec` (tests/verification;
    /// default values in phantom mode).
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.total_len()];
        self.read_into(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{SimConfig, Universe};
    use simnet::{ClusterSpec, CostModel};

    fn cfg() -> SimConfig {
        SimConfig::new(ClusterSpec::regular(2, 3), CostModel::uniform_test())
    }

    #[test]
    fn segments_are_laid_out_in_rank_order() {
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 2 + shm.rank());
            (win.total_len(), win.my_base(), win.my_len())
        })
        .unwrap();
        // Node 0 ranks contribute 2,3,4 elements.
        assert_eq!(r.per_rank[0], (9, 0, 2));
        assert_eq!(r.per_rank[1], (9, 2, 3));
        assert_eq!(r.per_rank[2], (9, 5, 4));
    }

    #[test]
    fn writes_are_visible_node_wide() {
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 1);
            win.write(win.my_base(), (ctx.rank() + 1) as f64 * 10.0);
            // Synchronize before reading others' segments: a zero-byte
            // token ring is enough for this test.
            let next = (shm.rank() + 1) % shm.size();
            let prev = (shm.rank() + shm.size() - 1) % shm.size();
            ctx.send(&shm, next, 0, Payload::empty());
            ctx.recv(&shm, prev, 0);
            ctx.send(&shm, next, 1, Payload::empty());
            ctx.recv(&shm, prev, 1);
            win.snapshot()
        })
        .unwrap();
        assert_eq!(r.per_rank[0], vec![10.0, 20.0, 30.0]);
        assert_eq!(r.per_rank[5], vec![40.0, 50.0, 60.0]);
    }

    #[test]
    fn leader_only_allocation_matches_paper_pseudocode() {
        // Fig. 4 of the paper: the leader asks for msg*nprocs, children 0.
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let msg = 4usize;
            let my_len = if shm.rank() == 0 { msg * shm.size() } else { 0 };
            let win = SharedWindow::<f64>::allocate(ctx, &shm, my_len);
            (win.total_len(), win.base_of(0))
        })
        .unwrap();
        assert!(r
            .per_rank
            .iter()
            .all(|&(total, base0)| total == 12 && base0 == 0));
    }

    #[test]
    fn cross_node_window_is_an_error() {
        // Deliberately allocate on the world communicator (spans nodes).
        let err = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let _ = SharedWindow::<f64>::allocate(ctx, &world, 1);
        })
        .unwrap_err();
        match err {
            crate::SimError::RankPanicked { message, .. } => {
                assert!(message.contains("single-node"), "message: {message}");
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    #[test]
    fn phantom_window_allocates_no_storage_but_checks_bounds() {
        let r = Universe::run(cfg().phantom(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 1000);
            win.write(0, 1.0);
            assert_eq!(win.read(2999), 0.0);
            win.total_len()
        })
        .unwrap();
        assert!(r.per_rank.iter().all(|&t| t == 3000));
    }

    #[test]
    fn payload_roundtrip_through_window() {
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 2);
            if shm.rank() == 0 {
                win.write_from(0, &[1.5, 2.5]);
                let p = win.payload(0, 2);
                win.write_payload(4, &p);
            }
            // Ring sync so everyone sees the writes.
            let next = (shm.rank() + 1) % shm.size();
            let prev = (shm.rank() + shm.size() - 1) % shm.size();
            ctx.send(&shm, next, 0, Payload::empty());
            ctx.recv(&shm, prev, 0);
            ctx.send(&shm, next, 1, Payload::empty());
            ctx.recv(&shm, prev, 1);
            win.snapshot()
        })
        .unwrap();
        assert_eq!(r.per_rank[1], vec![1.5, 2.5, 0.0, 0.0, 1.5, 2.5]);
    }

    #[test]
    fn region_views_rebase_indices() {
        let r = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 4);
            if shm.rank() == 0 {
                for i in 0..12 {
                    win.write(i, i as f64);
                }
            }
            // Ring sync so everyone sees the writes.
            let next = (shm.rank() + 1) % shm.size();
            let prev = (shm.rank() + shm.size() - 1) % shm.size();
            ctx.send(&shm, next, 0, Payload::empty());
            ctx.recv(&shm, prev, 0);
            ctx.send(&shm, next, 1, Payload::empty());
            ctx.recv(&shm, prev, 1);
            let view = win.region(4, 4);
            let sub = view.region(1, 2);
            (view.total_len(), view.read(0), sub.read(0), sub.snapshot())
        })
        .unwrap();
        assert_eq!(r.per_rank[1], (4, 4.0, 5.0, vec![5.0, 6.0]));
    }

    #[test]
    fn region_view_rejects_segment_accessors() {
        let err = Universe::run(cfg(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let win = SharedWindow::<f64>::allocate(ctx, &shm, 2);
            let _ = win.region(1, 2).my_base();
        })
        .unwrap_err();
        match err {
            crate::SimError::RankPanicked { message, .. } => {
                assert!(message.contains("root window"), "message: {message}");
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    #[test]
    fn window_alloc_is_traced() {
        let r = Universe::run(cfg().traced(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let my_len = if shm.rank() == 0 { 10 } else { 0 };
            let _ = SharedWindow::<f64>::allocate(ctx, &shm, my_len);
        })
        .unwrap();
        // Two nodes, each leader allocates 10 doubles.
        assert_eq!(r.tracer.total_window_bytes(), 2 * 10 * 8);
    }
}
