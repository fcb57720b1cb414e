//! The pooled rank executor.
//!
//! [`crate::Universe::run`] historically spawned one OS thread per
//! simulated rank, which caps a run at a few thousand ranks before the
//! host thrashes. This module multiplexes every rank program onto a
//! bounded worker pool (default `min(ranks, available_parallelism)`):
//! each rank runs as a *stackful coroutine* on a stack carved from one
//! lazily committed arena (shared with the event calendar), and
//! whenever it would block — a `recv`/`wait_flag` with no matching
//! packet, or a setup-collective rendezvous that is not yet complete —
//! it parks the coroutine and returns its worker to the pool instead of
//! blocking an OS thread. The matching `send`/`post_flag`/rendezvous
//! completion wakes the parked rank, which re-enters the ready queue.
//!
//! Determinism: virtual time in this simulator is computed purely from
//! modeled costs along each rank's own program order (see
//! [`simnet::Clock`]); it never observes wall-clock scheduling. Pooling
//! therefore changes *when* (in wall-clock time) a rank executes, but
//! never *what* it computes: results, clocks, and canonical traces are
//! byte-identical to thread-per-rank execution. This is enforced by the
//! differential tests in `tests/pooled.rs` and by the figure goldens in
//! `crates/bench/tests/regression.rs`.
//!
//! Scheduling order: the ready queue pops FIFO under
//! [`crate::SchedulePolicy::Fifo`]; under
//! [`crate::SchedulePolicy::Adversarial`] the next rank is drawn from
//! the ready set by a seeded hash, so schedule fuzzing perturbs the
//! pooled execution order exactly as it perturbs thread wake-ups in
//! thread-per-rank mode. Under [`crate::SchedulePolicy::Replay`] (and
//! during `msim::mcheck` exploration) every pick is delegated to the
//! model checker's probe — see [`PickPolicy::Controlled`] and
//! `docs/model-checking.md`.
//!
//! The context switch itself is ~20 instructions of architecture
//! specific assembly (x86_64 SysV and aarch64 AAPCS64): save the callee
//! saved registers on the current stack, swap stack pointers, restore.
//! Rank panics (including injected [`crate::fault::KillRule`] kills and
//! deadlock reports) are caught by a `catch_unwind` at the base of every
//! coroutine, so unwinding never crosses the assembly boundary.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use simnet::rng::mix;

use crate::ctx::Ctx;
use crate::universe::Shared;

/// How [`crate::Universe::run`] executes rank programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per rank (the historical model). Kept for
    /// differential testing of the pooled executor; caps out at a few
    /// thousand ranks.
    ThreadPerRank,
    /// Multiplex ranks onto a bounded worker pool of stackful
    /// coroutines. `workers: None` means
    /// `min(ranks, available_parallelism)`.
    Pooled {
        /// Worker thread count override.
        workers: Option<usize>,
    },
    /// Single-threaded event-calendar executor for phantom-payload
    /// runs (`crates/msim/src/calendar.rs`): ranks are resumed in
    /// virtual-time order off a binary-heap calendar keyed on
    /// `(virtual_time, rank, seq)`, with all coroutine stacks carved
    /// from one lazily-committed arena. Scales to hundreds of
    /// thousands of ranks; phantom-only (real payloads and the race
    /// detector are rejected with [`crate::SimError::UnsupportedExec`]).
    Events,
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Pooled { workers: None }
    }
}

impl ExecMode {
    /// The pooled mode with the default worker count.
    pub fn pooled() -> Self {
        ExecMode::Pooled { workers: None }
    }

    /// Resolve the worker count for `nranks` ranks.
    pub(crate) fn worker_count(&self, nranks: usize) -> usize {
        match self {
            ExecMode::ThreadPerRank => nranks,
            ExecMode::Pooled { workers } => {
                let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
                workers.unwrap_or(hw).clamp(1, nranks.max(1))
            }
            // The calendar drives every rank from the caller's thread.
            ExecMode::Events => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Context switching.
// ---------------------------------------------------------------------------

/// Whether the current target has a coroutine context switch. On other
/// targets the universe silently falls back to thread-per-rank.
pub(crate) const POOL_SUPPORTED: bool = cfg!(all(
    unix,
    any(target_arch = "x86_64", target_arch = "aarch64")
));

#[cfg(all(unix, target_arch = "x86_64"))]
std::arch::global_asm!(
    r#"
    .text
    .globl msim_switch_stacks
    .p2align 4
msim_switch_stacks:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    mov [rdi], rsp
    mov rsp, [rsi]
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret

    // First-entry shim: the initial saved frame puts the coroutine
    // argument in r12 and the (monomorphized) entry function in rbx.
    .globl msim_coro_thunk
    .p2align 4
msim_coro_thunk:
    mov rdi, r12
    call rbx
    ud2
"#
);

#[cfg(all(unix, target_arch = "aarch64"))]
std::arch::global_asm!(
    r#"
    .text
    .globl msim_switch_stacks
    .p2align 4
msim_switch_stacks:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8,  d9,  [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    ldr x9, [x1]
    mov sp, x9
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8,  d9,  [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret

    // First-entry shim: argument in x19, entry function in x20.
    .globl msim_coro_thunk
    .p2align 4
msim_coro_thunk:
    mov x0, x19
    blr x20
    brk #1
"#
);

#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe extern "C" {
    /// Save the callee-saved register context on the current stack,
    /// store the stack pointer into `*save`, then load `*load` as the
    /// new stack pointer and restore its context.
    ///
    /// # Safety
    /// `*load` must be a stack pointer previously produced by this
    /// function or by [`prepare_stack`], on memory that is still alive.
    fn msim_switch_stacks(save: *mut usize, load: *const usize);
    /// Label only; never called directly from Rust.
    fn msim_coro_thunk();
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn msim_switch_stacks(_save: *mut usize, _load: *const usize) {
    unreachable!("pooled execution is not supported on this target");
}

/// Canary written at the low end of every coroutine stack; checked on
/// every return to the worker to detect stack overflows (coroutine
/// stacks have no guard page).
const STACK_CANARY: u64 = 0x5ca1_ab1e_dead_beef;

/// Lay out a fresh coroutine stack so that the first
/// `msim_switch_stacks` into it lands in `msim_coro_thunk`, which calls
/// `entry(arg)`. Returns the initial saved stack pointer.
///
/// # Safety
/// `stack` must be at least [`MIN_STACK`] bytes and outlive every switch
/// into the returned context.
#[cfg(all(unix, any(target_arch = "x86_64", target_arch = "aarch64")))]
unsafe fn prepare_stack(stack: &mut [u8], entry: usize, arg: usize) -> usize {
    let base = stack.as_mut_ptr() as usize;
    // SAFETY: `stack` is at least `MIN_STACK` bytes (this function's
    // contract; `StackArena::new` clamps every slot to it), so the two
    // canary words at its low end are in-bounds writes to memory this
    // function exclusively borrows.
    unsafe {
        (base as *mut u64).write(STACK_CANARY);
        ((base + 8) as *mut u64).write(STACK_CANARY);
    }
    // 16-align the top; both ABIs want 16-byte stack alignment.
    let top = (base + stack.len()) & !15;
    // SAFETY: the frame is 7 words (x86_64) / 160 bytes (aarch64) below
    // `top`, which the `MIN_STACK` floor keeps well above `base`;
    // every write lands inside the borrowed stack slice. The layouts
    // mirror what `msim_switch_stacks` pops on its first switch in.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // Layout (ascending from the saved sp): r15 r14 r13 r12 rbx rbp
        // [return address]. The thunk expects arg in r12, entry in rbx.
        let mut sp = top as *mut usize;
        sp = sp.sub(1);
        sp.write(msim_coro_thunk as *const () as usize);
        sp = sp.sub(1);
        sp.write(0); // rbp
        sp = sp.sub(1);
        sp.write(entry); // rbx
        sp = sp.sub(1);
        sp.write(arg); // r12
        sp = sp.sub(3); // r13, r14, r15
        sp.write(0);
        sp.add(1).write(0);
        sp.add(2).write(0);
        sp as usize
    }
    // SAFETY: see the x86_64 arm above — same in-bounds argument.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        // 160-byte register save area; x19 = arg, x20 = entry,
        // x30 (lr) = thunk. sp after restore = `top`, 16-aligned.
        let area = (top - 160) as *mut usize;
        for i in 0..20 {
            area.add(i).write(0);
        }
        area.write(arg); // x19
        area.add(1).write(entry); // x20
        area.add(11).write(msim_coro_thunk as *const () as usize); // x30
        area as usize
    }
}

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn prepare_stack(_stack: &mut [u8], _entry: usize, _arg: usize) -> usize {
    unreachable!("pooled execution is not supported on this target");
}

// ---------------------------------------------------------------------------
// The stack arena.
// ---------------------------------------------------------------------------

/// Smallest accepted coroutine stack: the entry frame and the canary must
/// fit with room to spare. Smaller configurations are clamped up to it.
const MIN_STACK: usize = 16 * 1024;

/// Layout granule of the arena: 4 KiB, the smallest page of both
/// supported ISAs. Larger host pages only make more slots share a page.
const PAGE: usize = 4096;

/// Bytes of canary at the low end of every slot (two [`STACK_CANARY`]
/// words).
const CANARY_BYTES: usize = 16;

/// One reservation holding every rank's coroutine stack, shared by the
/// pooled and event-calendar executors. On Linux this is an anonymous
/// `MAP_NORESERVE` mapping: 262 144 ranks × 64 KiB is 16 GiB of
/// *address space*, but only the pages a rank program actually touches
/// are committed — one 4 KiB page per rank, measured in 32 768-rank
/// barrier-only and hybrid-allgather runs. Elsewhere it falls back to
/// one zeroed heap allocation, which mainstream allocators also commit
/// lazily at these sizes. Pages stay committed until the run ends: a slot's top page
/// also holds the next slot's canary, so it cannot be released early.
///
/// Layout: slot `i` starts at `PAGE - CANARY_BYTES + i * slot`, and the
/// slot size is a whole number of pages (one extra page is reserved for
/// the shift). Slot `i`'s top is therefore slot `i + 1`'s canary, which
/// sits in the last 16 bytes of the page that slot `i`'s first frames
/// commit anyway — a canary never costs a page of its own.
struct StackArena {
    base: *mut u8,
    len: usize,
    /// Bytes per slot: the configured stack size, clamped to
    /// [`MIN_STACK`] and rounded up to whole pages.
    slot: usize,
    mmapped: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw syscall bindings (the workspace links no external crates;
    //! `std` already links libc, so declaring the symbols suffices).
    use core::ffi::c_void;

    unsafe extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl StackArena {
    fn layout(len: usize) -> std::alloc::Layout {
        // Page alignment keeps the heap fallback's layout identical to
        // the mapping's.
        std::alloc::Layout::from_size_align(len, PAGE).expect("arena size overflows a Layout")
    }

    /// Reserve stacks of (at least) `stack_size` bytes for `nranks`
    /// ranks.
    fn new(nranks: usize, stack_size: usize) -> Self {
        let slot = stack_size
            .max(MIN_STACK)
            .checked_next_multiple_of(PAGE)
            .expect("stack size overflows usize");
        let len = nranks
            .checked_mul(slot)
            .and_then(|n| n.checked_add(PAGE))
            .expect("stack arena size overflows usize");
        #[cfg(target_os = "linux")]
        {
            // SAFETY: an anonymous private mapping with a null hint has
            // no preconditions; the result is checked against
            // MAP_FAILED before use.
            let p = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            if p != sys::MAP_FAILED {
                return Self {
                    base: p.cast(),
                    len,
                    slot,
                    mmapped: true,
                };
            }
        }
        // SAFETY: `len` is at least one page and the layout is valid
        // (checked by `Self::layout`).
        let base = unsafe { std::alloc::alloc_zeroed(Self::layout(len)) };
        if base.is_null() {
            std::alloc::handle_alloc_error(Self::layout(len));
        }
        Self {
            base,
            len,
            slot,
            mmapped: false,
        }
    }

    /// The stack slot of `rank`; its first [`CANARY_BYTES`] are the
    /// canary, and its end is 16-aligned.
    ///
    /// # Safety
    /// `rank` must be below the arena's rank count, and the caller must
    /// not hold another live borrow of the same slot; the executors only
    /// borrow a slot once, inside the rank's first activation, before
    /// any switch into it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn stack(&self, rank: usize) -> &mut [u8] {
        let start = PAGE - CANARY_BYTES + rank * self.slot;
        debug_assert!(start + self.slot <= self.len);
        // SAFETY: the slot is in-bounds of the reservation (one extra
        // page holds the shift) and, per the contract above, not
        // aliased by another borrow.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(start), self.slot) }
    }
}

impl Drop for StackArena {
    fn drop(&mut self) {
        if self.mmapped {
            #[cfg(target_os = "linux")]
            // SAFETY: `base`/`len` came from the successful mmap in
            // `new`, and no stack in the arena is live at drop time
            // (the executor joined every coroutine first).
            unsafe {
                sys::munmap(self.base.cast(), self.len);
            }
        } else {
            // SAFETY: allocated in `new` with the identical layout.
            unsafe {
                std::alloc::dealloc(self.base, Self::layout(self.len));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pool core: rank states, ready queue, parking protocol.
// ---------------------------------------------------------------------------

/// What a coroutine asked for when it last switched back to its worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Intent {
    /// Nothing yet (freshly created / mid-run).
    None,
    /// Park until woken or until `deadline` (wall clock); the rank
    /// rechecks its own wait condition on resume, so spurious wake-ups
    /// are harmless.
    Park { deadline: Instant },
    /// The rank program returned (or panicked; the outcome slot has it).
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RankState {
    /// In the ready queue.
    Ready,
    /// On a worker. `token` records a wake that arrived mid-run so a
    /// racing park is re-readied instead of sleeping through its signal.
    Running { token: bool },
    /// Parked until woken or `deadline`.
    Parked { deadline: Instant },
    /// Finished (outcome recorded).
    Done,
}

/// How the ready queue picks the next rank to run. This is *the*
/// decision point of the pooled executor: everything else about a run is
/// a deterministic function of the pick sequence.
#[derive(Debug, Clone)]
pub(crate) enum PickPolicy {
    /// First-in, first-out (natural order).
    Fifo,
    /// Seeded pseudo-random picking (adversarial schedule fuzzing).
    Seeded(u64),
    /// Every pick is delegated to the model checker's probe, which also
    /// records the ready-set snapshot for DPOR analysis.
    Controlled(Arc<crate::mcheck::Probe>),
}

#[derive(Debug)]
struct CoreState {
    ranks: Vec<RankState>,
    ready: VecDeque<usize>,
    /// Ranks not yet `Done`.
    live: usize,
    /// Ready-queue decision policy.
    pick: PickPolicy,
    /// Pick counter feeding the seeded stream.
    picks: u64,
    /// Workers currently sleeping on the scheduler condvar. Notifies are
    /// skipped when zero: futex condvars pay a syscall per notify even
    /// with no waiters, and with few workers the common case is none.
    idle_workers: usize,
}

impl CoreState {
    fn pop_ready(&mut self) -> Option<usize> {
        match self.pick.clone() {
            PickPolicy::Fifo => self.ready.pop_front(),
            PickPolicy::Seeded(seed) => {
                if self.ready.is_empty() {
                    return None;
                }
                let n = self.ready.len() as u64;
                let idx = (mix(seed, self.picks, n, 0x9D1C) % n) as usize;
                self.picks += 1;
                self.ready.remove(idx)
            }
            PickPolicy::Controlled(probe) => {
                if self.ready.is_empty() {
                    return None;
                }
                let snapshot: Vec<usize> = self.ready.iter().copied().collect();
                let rank = probe.pick(&snapshot);
                let at = self
                    .ready
                    .iter()
                    .position(|&r| r == rank)
                    .expect("controlled pick chose a rank outside the ready set");
                self.ready.remove(at)
            }
        }
    }
}

/// The shared scheduler state of one pooled universe. Lives in
/// [`crate::universe::Shared`] (via [`ExecCtl`]) so that mailbox pushes
/// and rendezvous completions can wake parked ranks.
#[derive(Debug)]
pub(crate) struct PoolCore {
    state: Mutex<CoreState>,
    cv: Condvar,
    /// Infrastructure failures observed by workers (rank, message).
    infra: Mutex<Vec<(usize, String)>>,
}

impl PoolCore {
    pub(crate) fn new(nranks: usize, pick: PickPolicy) -> Self {
        Self {
            state: Mutex::new(CoreState {
                ranks: vec![RankState::Ready; nranks],
                ready: (0..nranks).collect(),
                live: nranks,
                pick,
                picks: 0,
                idle_workers: 0,
            }),
            cv: Condvar::new(),
            infra: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CoreState> {
        // A worker that dies while holding the scheduler lock never
        // leaves the state torn (all mutations are single assignments),
        // so peers may keep scheduling and surface the failure.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make `rank` runnable if it is parked; remember the signal if it
    /// is currently running (so a racing park re-readies immediately).
    pub(crate) fn wake(&self, rank: usize) {
        let mut g = self.lock();
        match g.ranks[rank] {
            RankState::Parked { .. } => {
                g.ranks[rank] = RankState::Ready;
                g.ready.push_back(rank);
                if g.idle_workers > 0 {
                    self.cv.notify_one();
                }
            }
            RankState::Running { ref mut token } => *token = true,
            RankState::Ready | RankState::Done => {}
        }
    }

    /// Claim the next rank to run, or `None` when every rank is done.
    /// Blocks (on the scheduler condvar, not on a rank!) while all live
    /// ranks are parked or running on other workers.
    fn next_rank(&self) -> Option<usize> {
        let mut g = self.lock();
        loop {
            if g.live == 0 {
                if g.idle_workers > 0 {
                    self.cv.notify_all();
                }
                return None;
            }
            if let Some(r) = g.pop_ready() {
                g.ranks[r] = RankState::Running { token: false };
                return Some(r);
            }
            // Nothing ready: wake expired parks (their owners recheck
            // their wait condition and report the timeout themselves),
            // else sleep until the nearest deadline or a notification.
            let now = Instant::now();
            let mut nearest: Option<Instant> = None;
            let mut expired = false;
            for r in 0..g.ranks.len() {
                if let RankState::Parked { deadline } = g.ranks[r] {
                    if deadline <= now {
                        g.ranks[r] = RankState::Ready;
                        g.ready.push_back(r);
                        expired = true;
                    } else {
                        nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
                    }
                }
            }
            if expired {
                continue;
            }
            let wait = nearest
                .map(|d| d.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(100))
                .min(Duration::from_secs(1));
            g.idle_workers += 1;
            let (guard, _) = self
                .cv
                .wait_timeout(g, wait)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            g.idle_workers -= 1;
        }
    }

    /// Commit a coroutine's yield now that its context is fully saved.
    fn finalize(&self, rank: usize, intent: Intent) {
        let mut g = self.lock();
        match intent {
            Intent::Done => {
                g.ranks[rank] = RankState::Done;
                g.live -= 1;
                if g.idle_workers > 0 {
                    self.cv.notify_all();
                }
            }
            Intent::Park { deadline } => {
                let token = matches!(g.ranks[rank], RankState::Running { token: true });
                if token {
                    g.ranks[rank] = RankState::Ready;
                    g.ready.push_back(rank);
                } else {
                    g.ranks[rank] = RankState::Parked { deadline };
                }
                // Either way sleeping workers may need to re-derive
                // their deadline horizon.
                if g.idle_workers > 0 {
                    self.cv.notify_one();
                }
            }
            Intent::None => unreachable!("coroutine yielded without an intent"),
        }
    }

    fn record_infra_failure(&self, rank: usize, message: String) {
        self.infra
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((rank, message));
        // Unblock everyone; the run is over.
        let mut g = self.lock();
        g.live = 0;
        self.cv.notify_all();
    }
}

/// Handle through which the blocking wait-paths (mailbox, rendezvous)
/// reach the executor. `Threads` preserves the historical
/// condvar-per-structure blocking; `Pool` and `Events` park coroutines
/// instead.
#[derive(Clone)]
pub(crate) enum ExecCtl {
    /// Thread-per-rank: block the OS thread on the structure's condvar.
    Threads,
    /// Pooled: park the calling coroutine; wakes come through the core.
    Pool(Arc<PoolCore>),
    /// Event-calendar: like `Pool`, but single-threaded with the ready
    /// set ordered by a `(virtual_time, rank, seq)` binary heap.
    Events(Arc<crate::calendar::CalendarCore>),
}

impl std::fmt::Debug for ExecCtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecCtl::Threads => f.write_str("ExecCtl::Threads"),
            ExecCtl::Pool(_) => f.write_str("ExecCtl::Pool"),
            ExecCtl::Events(_) => f.write_str("ExecCtl::Events"),
        }
    }
}

impl ExecCtl {
    /// True when rank programs run as coroutines that park through the
    /// executor (pooled or event-calendar) instead of blocking an OS
    /// thread on a structure condvar.
    pub(crate) fn parks_ranks(&self) -> bool {
        matches!(self, ExecCtl::Pool(_) | ExecCtl::Events(_))
    }

    /// Wake `rank` if it is parked (no-op in threads mode — there the
    /// structure's own condvar does the waking).
    pub(crate) fn wake(&self, rank: usize) {
        match self {
            ExecCtl::Threads => {}
            ExecCtl::Pool(core) => core.wake(rank),
            ExecCtl::Events(core) => core.wake(rank),
        }
    }

    /// Publish `rank`'s current virtual clock to the executor. The
    /// event calendar keys its ready heap on this; the other modes
    /// ignore it. Called by the blocking entry points before any park,
    /// so a stale value only ever means "the rank has not blocked since"
    /// — ordering quality, never correctness, depends on it.
    pub(crate) fn publish_vtime(&self, rank: usize, t: f64) {
        if let ExecCtl::Events(core) = self {
            core.publish_vtime(rank, t);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-worker current-coroutine pointer, used by the park path.
// ---------------------------------------------------------------------------

/// The switch cell of one coroutine: both stack pointers plus the yield
/// intent, shared between the worker (outside) and the coroutine
/// (inside). Exclusive access alternates strictly with the context
/// switches, and cross-worker handoffs synchronize through the core
/// mutex.
#[derive(Debug)]
struct CoroTask {
    /// Saved coroutine stack pointer (0 = not started yet).
    sp: usize,
    /// Saved worker stack pointer, valid while the coroutine runs.
    worker_sp: usize,
    intent: Intent,
    /// Low end of the rank's arena slot: its canary.
    stack_base: *mut u8,
}

thread_local! {
    static CURRENT_TASK: Cell<*mut CoroTask> = const { Cell::new(std::ptr::null_mut()) };
}

/// Park the calling coroutine until its executor wakes it ([`PoolCore::wake`]
/// / [`crate::calendar::CalendarCore::wake`]) or `deadline` expires.
/// Must only be called from inside a coroutine-hosted rank program (the
/// blocking wait-paths guarantee this by checking [`ExecCtl::parks_ranks`]).
pub(crate) fn park_current(deadline: Instant) {
    let task = CURRENT_TASK.with(|c| c.get());
    assert!(
        !task.is_null(),
        "park_current called outside a pooled rank coroutine"
    );
    // SAFETY: `task` is the live switch cell installed by the worker
    // that resumed us; writing the intent and switching back is the
    // protocol it expects.
    unsafe {
        (*task).intent = Intent::Park { deadline };
        msim_switch_stacks(&mut (*task).sp, &(*task).worker_sp);
    }
}

// ---------------------------------------------------------------------------
// Coroutine cells (shared with the calendar) and the pooled run driver.
// ---------------------------------------------------------------------------

pub(crate) type RankOutcome<T> = std::thread::Result<(T, f64)>;

/// Everything a coroutine needs to run its rank program. Lives in the
/// per-rank cell (never on the coroutine stack), so dropping the cell
/// after the run releases all captured state.
struct LaunchPack<'f, T, F> {
    rank: usize,
    shared: Arc<Shared>,
    f: &'f F,
    out: *mut Option<RankOutcome<T>>,
    task: *mut CoroTask,
}

/// One rank's executor cell: switch cell + launch pack + outcome. The
/// stack lives in the [`StackArena`], not here. `UnsafeCell` because the
/// coroutine mutates these through raw pointers while its executor holds
/// a shared borrow of the table; accesses strictly alternate with the
/// context switches.
struct RankCell<'f, T, F> {
    task: UnsafeCell<CoroTask>,
    pack: UnsafeCell<LaunchPack<'f, T, F>>,
    out: UnsafeCell<Option<RankOutcome<T>>>,
}

/// The coroutines of one run — every rank's cell plus the arena their
/// stacks are carved from — shared by the pooled and event-calendar
/// executors. Executor threads access disjoint cells and slots
/// (ownership is mediated by the executor's rank states: exactly one
/// thread holds a rank in `Running`).
pub(crate) struct CellTable<'f, T, F> {
    cells: Vec<RankCell<'f, T, F>>,
    arena: StackArena,
}
// SAFETY: sharing the table only hands executor threads *potential*
// access to every cell and arena slot; actual access is serialized per
// rank by the executor's rank states (a cell and its slot are touched
// only by the single thread holding the rank in `Running`, and
// transitions go through the executor's mutex, which provides the
// necessary ordering). The arena itself is never written through `&self`
// except via those slots. `T: Send` because outcomes move to the
// collecting thread; `F: Sync` because all workers call `f`.
unsafe impl<T: Send, F: Sync> Sync for CellTable<'_, T, F> {}

impl<'f, T, F> CellTable<'f, T, F>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    /// Unstarted coroutines for every rank of `shared`, each with a
    /// stack of at least `stack_size` bytes (see [`StackArena`]).
    pub(crate) fn new(shared: &Arc<Shared>, stack_size: usize, f: &'f F) -> Self {
        let nranks = shared.map.nranks();
        let cells = (0..nranks)
            .map(|rank| RankCell {
                task: UnsafeCell::new(CoroTask {
                    sp: 0,
                    worker_sp: 0,
                    intent: Intent::None,
                    stack_base: std::ptr::null_mut(),
                }),
                pack: UnsafeCell::new(LaunchPack {
                    rank,
                    shared: Arc::clone(shared),
                    f,
                    out: std::ptr::null_mut(),
                    task: std::ptr::null_mut(),
                }),
                out: UnsafeCell::new(None),
            })
            .collect();
        Self {
            cells,
            arena: StackArena::new(nranks, stack_size),
        }
    }

    /// Resume `rank`'s coroutine until it parks or finishes, and return
    /// its yield intent. The first activation carves the rank's stack
    /// slot (pages commit on touch) and lays out the entry frame. Panics
    /// — an executor failure — if the rank overflowed its stack.
    ///
    /// # Safety
    /// The calling thread must hold `rank` exclusively: its executor
    /// state is `Running`, and no other thread touches its cell until
    /// the executor's `finalize` publishes the returned intent.
    pub(crate) unsafe fn resume(&self, rank: usize) -> Intent {
        let cell = &self.cells[rank];
        let task = cell.task.get();
        // SAFETY: per the contract above the cell and its arena slot are
        // ours alone; they are only touched between switches, never
        // while the coroutine runs. `rank` indexed `cells`, so it is in
        // the arena's bounds.
        unsafe {
            if (*task).sp == 0 {
                let stack = self.arena.stack(rank);
                let pack = cell.pack.get();
                (*pack).out = cell.out.get();
                (*pack).task = task;
                (*task).stack_base = stack.as_mut_ptr();
                (*task).sp = prepare_stack(
                    stack,
                    coro_entry::<T, F> as *const () as usize,
                    pack as usize,
                );
            }
            (*task).intent = Intent::None;
            let prev = CURRENT_TASK.with(|c| c.replace(task));
            msim_switch_stacks(&mut (*task).worker_sp, &(*task).sp);
            CURRENT_TASK.with(|c| c.set(prev));
            let canary_ok = ((*task).stack_base as *const u64).read() == STACK_CANARY
                && (((*task).stack_base as *const u64).add(1)).read() == STACK_CANARY;
            assert!(
                canary_ok,
                "rank {rank} overflowed its {}-byte coroutine stack \
                 (raise SimConfig::stack_size)",
                self.arena.slot
            );
            (*task).intent
        }
    }

    /// The per-rank outcomes (`None` for ranks that never finished).
    pub(crate) fn into_outcomes(self) -> Vec<Option<RankOutcome<T>>> {
        self.cells
            .into_iter()
            .map(|cell| cell.out.into_inner())
            .collect()
    }
}

/// The text of a panic that escaped an executor's own scheduling loop
/// (rank-program panics are caught inside their coroutines instead).
pub(crate) fn executor_panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string executor panic>".into()
    }
}

extern "C" fn coro_entry<T, F>(pack: *mut LaunchPack<'_, T, F>)
where
    F: Fn(&mut Ctx) -> T,
{
    // SAFETY: the pack outlives the coroutine (it lives in the cell
    // table, which the executor keeps alive until every rank is done).
    let pack = unsafe { &mut *pack };
    // Catch *everything* before it can unwind into the assembly
    // trampoline: rank panics (asserts, injected kills, deadlock
    // reports) become outcome payloads exactly as in thread mode.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx::new(pack.rank, pack.shared.clone());
        let out = (pack.f)(&mut ctx);
        (out, ctx.now())
    }));
    // SAFETY: the outcome slot is only read after the executor marks
    // this rank Done (mutex-ordered).
    unsafe {
        *pack.out = Some(result);
        (*pack.task).intent = Intent::Done;
        loop {
            // A Done coroutine is never resumed; the loop is a
            // belt-and-braces guard against a buggy scheduler.
            msim_switch_stacks(&mut (*pack.task).sp, &(*pack.task).worker_sp);
        }
    }
}

/// Run `f` once per rank on `workers` pooled worker threads. Returns
/// per-rank outcomes (`None` for ranks orphaned by an infrastructure
/// failure) plus the recorded infrastructure failures.
#[allow(clippy::type_complexity)]
pub(crate) fn run_pool<T, F>(
    shared: &Arc<Shared>,
    core: &Arc<PoolCore>,
    workers: usize,
    stack_size: usize,
    f: &F,
) -> (Vec<Option<RankOutcome<T>>>, Vec<(usize, String)>)
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cells = CellTable::new(shared, stack_size, f);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let cells = &cells;
            let core = Arc::clone(core);
            std::thread::Builder::new()
                .name(format!("msim-worker{w}"))
                .spawn_scoped(scope, move || worker_loop::<T, F>(&core, cells))
                .expect("failed to spawn pool worker");
        }
    });
    let infra = core
        .infra
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    (cells.into_outcomes(), infra)
}

fn worker_loop<T, F>(core: &PoolCore, cells: &CellTable<'_, T, F>)
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let mut current_rank = usize::MAX;
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        while let Some(rank) = core.next_rank() {
            current_rank = rank;
            // SAFETY: the core handed this worker exclusive ownership of
            // `rank` (state `Running`) until `finalize` below.
            let intent = unsafe { cells.resume(rank) };
            core.finalize(rank, intent);
        }
    }));
    if let Err(payload) = caught {
        core.record_infra_failure(current_rank, executor_panic_message(&*payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{SimConfig, Universe};
    use crate::SimError;
    use simnet::{ClusterSpec, CostModel};

    /// Both coroutine executors (phantom data, which the calendar
    /// requires).
    const CORO_EXECS: [ExecMode; 2] = [ExecMode::Pooled { workers: Some(1) }, ExecMode::Events];

    fn cfg(exec: ExecMode) -> SimConfig {
        SimConfig::new(ClusterSpec::regular(1, 2), CostModel::uniform_test())
            .phantom()
            .with_exec(exec)
    }

    /// The canary is a real guard, not decoration: a write that lands
    /// past the low end of a coroutine stack is caught as an
    /// `ExecutorFailure` naming the overflow and the rank, never silent
    /// corruption — on both executors, and for rank 1 too, whose canary
    /// shares a page with rank 0's topmost frames.
    #[test]
    fn clobbered_stack_canary_is_reported_as_overflow() {
        if !POOL_SUPPORTED {
            return;
        }
        for exec in CORO_EXECS {
            for victim in 0..2 {
                let err = Universe::run(cfg(exec), move |ctx| {
                    if ctx.rank() == victim {
                        let task = CURRENT_TASK.with(|c| c.get());
                        assert!(!task.is_null(), "rank must be running as a coroutine");
                        // Simulate the last store of a stack overflow:
                        // clobber the canary word at the low end of this
                        // coroutine's own stack.
                        // SAFETY: `task` is this coroutine's live switch
                        // cell and `stack_base` points at its arena slot,
                        // so the write stays inside memory we own — the
                        // *check* failing is the point, not UB.
                        unsafe {
                            ((*task).stack_base as *mut u64).write(0);
                        }
                    }
                })
                .unwrap_err();
                match err {
                    SimError::ExecutorFailure { rank, message, .. } => {
                        assert!(
                            message.contains(&format!("rank {victim} overflowed")),
                            "{exec:?}: {message}"
                        );
                        assert_eq!(rank, victim, "{exec:?}: {message}");
                    }
                    other => panic!(
                        "{exec:?}: expected the canary to trip an executor failure, got {other}"
                    ),
                }
            }
        }
    }

    /// `SimConfig::with_stack_size` below the 16 KiB floor is clamped,
    /// not honored: the entry frame and canary always fit.
    #[test]
    fn tiny_stack_configs_are_clamped_to_the_floor() {
        if !POOL_SUPPORTED {
            return;
        }
        for exec in CORO_EXECS {
            let r = Universe::run(cfg(exec).with_stack_size(1), |ctx| ctx.rank()).unwrap();
            assert_eq!(r.per_rank, vec![0, 1], "{exec:?}");
        }
    }

    /// The arena layout contract: whole-page slots shifted so each
    /// slot's canary is the previous slot's top — 16-aligned, never
    /// page-aligned (so it shares the page the previous rank's first
    /// frames commit) — and every slot inside the reservation.
    #[test]
    fn arena_canaries_sit_at_the_previous_slots_top() {
        for (nranks, stack_size) in [(5, 64 * 1024), (7, 100_000), (3, 1), (1, MIN_STACK), (0, 1)] {
            let arena = StackArena::new(nranks, stack_size);
            let base = arena.base as usize;
            assert_eq!(
                arena.slot % PAGE,
                0,
                "size {stack_size}: slot not whole pages"
            );
            assert!(arena.slot >= stack_size.max(MIN_STACK), "size {stack_size}");
            let mut prev_top = None;
            for rank in 0..nranks {
                // SAFETY: `rank` is in range, and each slot is borrowed
                // once, only long enough to read its address.
                let (canary, len) = unsafe {
                    let slot = arena.stack(rank);
                    (slot.as_ptr() as usize, slot.len())
                };
                let top = canary + len;
                assert_eq!(canary % 16, 0, "size {stack_size} rank {rank}");
                assert_ne!(canary % PAGE, 0, "size {stack_size} rank {rank}");
                assert_eq!(top % 16, 0, "size {stack_size} rank {rank}");
                assert!(
                    canary >= base && top <= base + arena.len,
                    "rank {rank} out of bounds"
                );
                if let Some(prev) = prev_top {
                    assert_eq!(canary, prev, "size {stack_size} rank {rank}");
                }
                prev_top = Some(top);
            }
        }
    }
}
