//! Per-rank incoming message queues with `(comm, src, tag)` matching.
//!
//! Under an adversarial [`crate::SchedulePolicy`], each mailbox may attach
//! a [`StageFuzz`]: arriving packets are withheld in a staging buffer and
//! flushed to the matchable queues in a seeded permutation. Per-key FIFO
//! order is always preserved (MPI's non-overtaking guarantee); only the
//! interleaving *across* keys — which is unordered anyway — is fuzzed.
//! Receivers force a flush before matching, so staging can delay a match
//! in wall-clock time but can never cause a spurious deadlock.

use crate::exec::{self, ExecCtl};
use crate::msg::Packet;
use simnet::rng::{mix, Rng64};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Matching key: (communicator context id, source rank in that
/// communicator, user tag).
pub(crate) type MatchKey = (u32, usize, u32);

/// Fixed multiply-rotate hasher for [`MatchKey`] maps. The keys are made
/// by this program (context ids, ranks, tags), so SipHash's resistance
/// to crafted collisions buys nothing, while its cost lands on every
/// push and match. Nothing iterates these maps in an order that
/// matters: the fuzz flush orders by its own `keys` list.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upwards only; rotating brings the
        // well-mixed high bits down to the bucket-index bits.
        self.0.rotate_left(26)
    }
}

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

type KeyMap<V> = HashMap<MatchKey, V, BuildHasherDefault<KeyHasher>>;

/// Seeded delivery-order fuzzing for one mailbox (see module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageFuzz {
    pub(crate) seed: u64,
    /// Flush whenever at least this many packets are staged (re-drawn per
    /// flush in `1..=max_stage`).
    pub(crate) max_stage: usize,
}

#[derive(Debug, Default)]
struct State {
    queues: KeyMap<VecDeque<Packet>>,
    /// Packets withheld by the fuzzer, in arrival order.
    staged: Vec<(MatchKey, Packet)>,
    /// Total pushes / flushes so far — the fuzzer's event counters.
    pushes: u64,
    flushes: u64,
}

impl State {
    /// Move every staged packet into the matchable queues, inserting
    /// key-groups in a seeded permutation while keeping arrival order
    /// within each key.
    fn flush(&mut self, fuzz: &StageFuzz) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        // Group by key, preserving in-key arrival order.
        let mut keys: Vec<MatchKey> = Vec::new();
        let mut groups: KeyMap<Vec<Packet>> = KeyMap::default();
        for (key, packet) in staged {
            groups.entry(key).or_insert_with(|| {
                keys.push(key);
                Vec::new()
            });
            groups.get_mut(&key).unwrap().push(packet);
        }
        let mut rng = Rng64::new(mix(fuzz.seed, self.flushes, 0, 0xF1A5));
        rng.shuffle(&mut keys);
        self.flushes += 1;
        for key in keys {
            let queue = self.queues.entry(key).or_default();
            for packet in groups.remove(&key).unwrap() {
                queue.push_back(packet);
            }
        }
    }
}

/// One rank's incoming mailbox.
///
/// Senders push eagerly (never block); receivers block until a matching
/// packet exists or the deadlock timeout fires. Matching is exact — there
/// is no `ANY_SOURCE`/`ANY_TAG` — which is what makes the whole simulation
/// deterministic.
#[derive(Debug)]
pub(crate) struct Mailbox {
    state: Mutex<State>,
    arrived: Condvar,
    fuzz: Option<StageFuzz>,
    /// Global rank this mailbox belongs to — the rank the executor wakes
    /// when a packet arrives.
    owner: usize,
    exec: ExecCtl,
}

impl Mailbox {
    /// The mailbox of global rank `owner`, blocking through `exec`,
    /// optionally fuzzing its delivery order per `fuzz`.
    pub(crate) fn new(owner: usize, exec: ExecCtl, fuzz: Option<StageFuzz>) -> Self {
        Self {
            state: Mutex::new(State::default()),
            arrived: Condvar::new(),
            fuzz,
            owner,
            exec,
        }
    }

    /// A thread-mode mailbox for unit tests (pop blocks on the condvar).
    #[cfg(test)]
    pub(crate) fn unpooled(fuzz: Option<StageFuzz>) -> Self {
        Self::new(0, ExecCtl::Threads, fuzz)
    }

    // A rank killed by fault injection may die while holding a mailbox
    // lock; the state is never left torn (all mutations complete before
    // any panic point), so peers may safely clear the poison and keep
    // draining — which is what lets Universe::run report the failure
    // instead of deadlocking on a poisoned mutex.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit a packet (called from the sender's thread/coroutine).
    pub(crate) fn push(&self, key: MatchKey, packet: Packet) {
        let mut s = self.lock();
        s.pushes += 1;
        match self.fuzz {
            None => {
                s.queues.entry(key).or_default().push_back(packet);
            }
            Some(fuzz) => {
                s.staged.push((key, packet));
                let threshold = 1 + (mix(fuzz.seed, s.pushes, 0, 0x7B05) as usize) % fuzz.max_stage;
                if s.staged.len() >= threshold {
                    s.flush(&fuzz);
                }
            }
        }
        if self.exec.parks_ranks() {
            drop(s);
            // The owner may be parked in `pop`; hand the wake to the
            // executor after releasing the mailbox lock. Nobody ever
            // waits on `arrived` in pooled mode, so skip the notify —
            // futex condvars pay a syscall per notify even with no
            // waiters, and pushes are the hottest path in the simulator.
            self.exec.wake(self.owner);
        } else {
            self.arrived.notify_all();
        }
    }

    /// Pop a packet matching `key` if one is immediately matchable
    /// (flushing staged packets first, as any blocking receiver would).
    fn try_pop(s: &mut State, fuzz: Option<StageFuzz>, key: MatchKey) -> Option<Packet> {
        if let Some(fuzz) = fuzz {
            // The receiver is about to block: everything that has
            // arrived must become matchable, else staging could turn
            // a valid schedule into a timeout.
            s.flush(&fuzz);
        }
        if let Some(queue) = s.queues.get_mut(&key) {
            if let Some(packet) = queue.pop_front() {
                if queue.is_empty() {
                    s.queues.remove(&key);
                }
                return Some(packet);
            }
        }
        None
    }

    /// Pop a packet matching `key` only if one is immediately matchable —
    /// never blocks, never parks. This is the claim primitive of the
    /// per-rank progress engine and of [`crate::Ctx::try_recv`]; staged
    /// fuzz packets are flushed first, exactly as a blocking receiver
    /// would, so polling can never turn a valid schedule into a timeout.
    pub(crate) fn try_pop_now(&self, key: MatchKey) -> Option<Packet> {
        let mut s = self.lock();
        Self::try_pop(&mut s, self.fuzz, key)
    }

    /// Block until a packet matching `key` is available, or `timeout`
    /// elapses (returns `None` — the caller reports a deadlock). In
    /// pooled mode "block" means parking the calling coroutine, freeing
    /// its worker thread to run other ranks.
    pub(crate) fn pop(&self, key: MatchKey, timeout: Duration) -> Option<Packet> {
        if self.exec.parks_ranks() {
            return self.pop_parked(key, timeout);
        }
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if let Some(packet) = Self::try_pop(&mut s, self.fuzz, key) {
                return Some(packet);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, wait) = self
                .arrived
                .wait_timeout(s, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
            if wait.timed_out() && Instant::now() >= deadline {
                return None;
            }
        }
    }

    fn pop_parked(&self, key: MatchKey, timeout: Duration) -> Option<Packet> {
        // Set on the first miss: a receive that is already satisfied
        // reads no clock.
        let mut deadline = None;
        loop {
            let mut s = self.lock();
            // Recheck the queue *before* the deadline: a wake that raced
            // the deadline must deliver, not time out.
            if let Some(packet) = Self::try_pop(&mut s, self.fuzz, key) {
                return Some(packet);
            }
            let now = Instant::now();
            let due = *deadline.get_or_insert(now + timeout);
            if now >= due {
                return None;
            }
            drop(s);
            // A push that lands here (between unlock and park) still
            // wakes us: the executor records the wake token against our
            // Running state and re-readies the park immediately.
            exec::park_current(due);
        }
    }

    /// Number of queued packets, staged or matchable (diagnostics).
    #[cfg(test)]
    pub(crate) fn queued(&self) -> usize {
        let s = self.lock();
        s.queues.values().map(|v| v.len()).sum::<usize>() + s.staged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;
    use std::sync::Arc;

    fn pkt(src: usize, tag: u32) -> Packet {
        Packet {
            src,
            tag,
            payload: Payload::empty(),
            arrival: 0.0,
            vc: None,
            beat: None,
        }
    }

    #[test]
    fn push_pop_matches_by_key() {
        let mb = Mailbox::unpooled(None);
        mb.push((0, 1, 7), pkt(1, 7));
        mb.push((0, 2, 7), pkt(2, 7));
        let got = mb.pop((0, 2, 7), Duration::from_secs(1)).unwrap();
        assert_eq!(got.src, 2);
        assert_eq!(mb.queued(), 1);
    }

    #[test]
    fn fifo_within_a_key() {
        let mb = Mailbox::unpooled(None);
        let mut a = pkt(0, 0);
        a.arrival = 1.0;
        let mut b = pkt(0, 0);
        b.arrival = 2.0;
        mb.push((0, 0, 0), a);
        mb.push((0, 0, 0), b);
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            1.0
        );
        assert_eq!(
            mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap().arrival,
            2.0
        );
    }

    #[test]
    fn timeout_returns_none() {
        let mb = Mailbox::unpooled(None);
        assert!(mb.pop((0, 0, 0), Duration::from_millis(10)).is_none());
    }

    #[test]
    fn cross_thread_delivery() {
        let mb = Arc::new(Mailbox::unpooled(None));
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.pop((1, 0, 3), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        mb.push((1, 0, 3), pkt(0, 3));
        assert!(h.join().unwrap().is_some());
    }

    #[test]
    fn fuzzed_mailbox_preserves_per_key_fifo() {
        for seed in 0..32 {
            let mb = Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 4 }));
            // Interleave two streams; each must stay FIFO within its key.
            for i in 0..10 {
                let mut a = pkt(0, 0);
                a.arrival = i as f64;
                mb.push((0, 0, 0), a);
                let mut b = pkt(1, 0);
                b.arrival = 100.0 + i as f64;
                mb.push((0, 1, 0), b);
            }
            for i in 0..10 {
                let a = mb.pop((0, 0, 0), Duration::from_secs(1)).unwrap();
                assert_eq!(a.arrival, i as f64, "seed {seed}: key (0,0,0) reordered");
                let b = mb.pop((0, 1, 0), Duration::from_secs(1)).unwrap();
                assert_eq!(
                    b.arrival,
                    100.0 + i as f64,
                    "seed {seed}: key (0,1,0) reordered"
                );
            }
            assert_eq!(mb.queued(), 0);
        }
    }

    #[test]
    fn fuzzed_mailbox_actually_stages() {
        // With max_stage = 8 and a single push, the packet usually stays
        // staged until a pop forces the flush; verify the staging path and
        // that pop still finds the packet.
        let mut staged_at_least_once = false;
        for seed in 0..16 {
            let mb = Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 8 }));
            mb.push((0, 0, 0), pkt(0, 0));
            let s = mb.lock();
            staged_at_least_once |= !s.staged.is_empty();
            drop(s);
            assert!(mb.pop((0, 0, 0), Duration::from_secs(1)).is_some());
        }
        assert!(
            staged_at_least_once,
            "staging never engaged across 16 seeds"
        );
    }

    #[test]
    fn fuzzed_cross_thread_delivery_under_load() {
        for seed in [3u64, 17, 99] {
            let mb = Arc::new(Mailbox::unpooled(Some(StageFuzz { seed, max_stage: 4 })));
            let mb2 = Arc::clone(&mb);
            let h = std::thread::spawn(move || {
                (0..50)
                    .map(|i| mb2.pop((0, 0, i), Duration::from_secs(5)).unwrap().src)
                    .collect::<Vec<_>>()
            });
            for i in 0..50u32 {
                mb.push((0, 0, i), pkt(i as usize, i));
            }
            let got = h.join().unwrap();
            assert_eq!(got, (0..50usize).collect::<Vec<_>>());
        }
    }
}
