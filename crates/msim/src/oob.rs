//! Out-of-band rendezvous for *setup* collectives.
//!
//! `MPI_Comm_split`, `MPI_Comm_split_type` and `MPI_Win_allocate_shared`
//! are one-off setup operations whose cost the paper explicitly excludes
//! from measurements ("the extra one-off activities are not evaluated").
//! They still need real coordination between rank threads, which this
//! module provides: every member deposits a value under a shared key; the
//! last member to arrive runs a finisher over all deposits; everyone
//! receives the shared result. No virtual time is charged.

use crate::exec::{self, ExecCtl};
use crate::ft::{FtWatch, WaitError};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// (communicator context id, per-handle op sequence, op kind)
pub(crate) type BoardKey = (u32, u32, u8);

pub(crate) const KIND_SPLIT: u8 = 0;
pub(crate) const KIND_WIN_ALLOC: u8 = 1;
pub(crate) const KIND_FENCE: u8 = 2;
pub(crate) const KIND_SETUP: u8 = 3;

struct Entry {
    expected: usize,
    /// One slot per member id (`0..expected`), filled on deposit, so the
    /// duplicate check and the FT "never deposited" test are O(1) and
    /// the finisher reads deposits in member order without sorting.
    deposits: Vec<Option<Box<dyn Any + Send>>>,
    /// Number of filled `deposits` slots.
    arrived: usize,
    result: Option<Arc<dyn Any + Send + Sync>>,
    taken: usize,
    /// Global ranks parked (pooled mode) waiting for the result; the
    /// last depositor drains this and wakes each through the executor.
    waiting: Vec<usize>,
}

/// The global rendezvous board shared by all ranks of a universe.
#[derive(Default)]
pub(crate) struct OobBoard {
    entries: Mutex<HashMap<BoardKey, Entry>>,
    done: Condvar,
}

impl OobBoard {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Deposit `value` for `member` under `key`; block until all `expected`
    /// members have deposited; return the shared result computed by
    /// `finish` (run once, by the last depositor, over deposits sorted by
    /// member id). In pooled mode "block" parks the calling coroutine
    /// (`me_global` is the waker's handle to it) instead of holding an OS
    /// thread on the condvar.
    ///
    /// # Panics
    /// Panics on timeout (a setup-collective deadlock: not all members of
    /// the communicator made the same call) or on type confusion.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rendezvous<V, R>(
        &self,
        exec: &ExecCtl,
        me_global: usize,
        key: BoardKey,
        member: usize,
        expected: usize,
        value: V,
        timeout: Duration,
        finish: impl FnOnce(Vec<(usize, V)>) -> R,
    ) -> Arc<R>
    where
        V: Send + 'static,
        R: Send + Sync + 'static,
    {
        self.rendezvous_watched(
            exec, me_global, key, member, expected, value, timeout, None, finish,
        )
    }

    /// Deposit `value` for `member` under `key`; block until all
    /// `expected` members have deposited; return the shared result
    /// computed by `finish` (run once, by the last depositor, over
    /// deposits sorted by member id). In pooled mode "block" parks the
    /// calling coroutine (`me_global` is the waker's handle to it)
    /// instead of holding an OS thread on the condvar.
    ///
    /// With a fault-tolerance `watch`: when some watched member is dead
    /// (or diverted into recovery) *without having deposited*, the
    /// rendezvous can never complete, so the waiter unwinds with a typed
    /// [`WaitError`] instead of timing out. A failed member that already
    /// deposited keeps the rendezvous alive — the remaining live members
    /// can still complete it.
    ///
    /// # Panics
    /// Panics on timeout (a setup-collective deadlock: not all members of
    /// the communicator made the same call) or on type confusion.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rendezvous_watched<V, R>(
        &self,
        exec: &ExecCtl,
        me_global: usize,
        key: BoardKey,
        member: usize,
        expected: usize,
        value: V,
        timeout: Duration,
        watch: Option<&FtWatch>,
        finish: impl FnOnce(Vec<(usize, V)>) -> R,
    ) -> Arc<R>
    where
        V: Send + 'static,
        R: Send + Sync + 'static,
    {
        // Setup collectives never run concurrently with injected kills in
        // a way that tears an entry (deposits complete before any panic
        // point), so recovering from poison is safe.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = entries.entry(key).or_insert_with(|| Entry {
            expected,
            deposits: std::iter::repeat_with(|| None).take(expected).collect(),
            arrived: 0,
            result: None,
            taken: 0,
            waiting: Vec::new(),
        });
        assert_eq!(
            entry.expected, expected,
            "rendezvous members disagree on the group size (SPMD bug)"
        );
        assert!(
            member < expected && entry.deposits[member].is_none(),
            "member {member} deposited twice under the same key (SPMD bug)"
        );
        entry.deposits[member] = Some(Box::new(value));
        entry.arrived += 1;

        if entry.arrived == expected {
            // Last one in computes the result; slots are in member order.
            let typed: Vec<(usize, V)> = std::mem::take(&mut entry.deposits)
                .into_iter()
                .enumerate()
                .map(|(m, b)| {
                    let b = b.expect("every slot is filled once all members arrived");
                    (
                        m,
                        *b.downcast::<V>()
                            .expect("rendezvous deposit type mismatch (SPMD bug)"),
                    )
                })
                .collect();
            let result: Arc<R> = Arc::new(finish(typed));
            entry.result = Some(result.clone());
            let waiting = std::mem::take(&mut entry.waiting);
            if !exec.parks_ranks() {
                // Pooled members park through the executor instead of
                // waiting on this condvar; skip the no-waiter syscall.
                self.done.notify_all();
            }
            Self::take(&mut entries, key);
            drop(entries);
            // Wake parked members after releasing the board lock: the
            // result is published, so every woken coroutine finds it.
            for rank in waiting {
                exec.wake(rank);
            }
            return result;
        }
        if exec.parks_ranks() {
            entry.waiting.push(me_global);
        }

        // Wait for the result.
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(entry) = entries.get(&key) {
                if let Some(result) = &entry.result {
                    let result = result
                        .clone()
                        .downcast::<R>()
                        .expect("rendezvous result type mismatch (SPMD bug)");
                    Self::take(&mut entries, key);
                    return result;
                }
                if let Some(w) = watch {
                    // Result not published (checked above, under the same
                    // lock hold): a watched member that is dead/diverted
                    // and never deposited can no longer arrive, so the
                    // rendezvous is unfinishable — unwind with the typed
                    // error. `deposits` is indexed by communicator-local
                    // rank, matching `w.members` order.
                    for (l, &g) in w.members.iter().enumerate() {
                        if l == member || entry.deposits[l].is_some() {
                            continue;
                        }
                        let dead = w.live.is_dead(g);
                        if dead || w.live.diverted_past(g, w.epoch) {
                            std::panic::panic_any(if dead {
                                WaitError::RankFailed {
                                    rank: me_global,
                                    failed: g,
                                    comm: key.0,
                                    tag: key.1,
                                }
                            } else {
                                WaitError::PeerDiverted {
                                    rank: me_global,
                                    peer: g,
                                    comm: key.0,
                                    tag: key.1,
                                }
                            });
                        }
                    }
                }
            } else {
                // Entry vanished: everyone else already took the result
                // after we deposited — cannot happen because we only remove
                // once all `expected` takers are counted.
                unreachable!("rendezvous entry removed before all members took the result");
            }
            assert!(
                Instant::now() < deadline,
                "setup-collective rendezvous timed out \
                 (did every member of the communicator make the same call?)"
            );
            // With a watch, wake in short slices so failures are noticed
            // promptly even though no completion will ever signal us.
            let slice_deadline = if watch.is_some() {
                deadline.min(Instant::now() + crate::ft::FT_POLL_SLICE)
            } else {
                deadline
            };
            if exec.parks_ranks() {
                drop(entries);
                // A completion landing between unlock and park still
                // wakes us (the executor tokenizes wakes against Running
                // ranks); the executor also re-readies expired parks so
                // the timeout assertion above fires eventually.
                exec::park_current(slice_deadline);
                entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            } else {
                let (guard, wait) = self
                    .done
                    .wait_timeout(
                        entries,
                        slice_deadline.saturating_duration_since(Instant::now()),
                    )
                    .unwrap_or_else(PoisonError::into_inner);
                entries = guard;
                assert!(
                    watch.is_some() || !wait.timed_out(),
                    "setup-collective rendezvous timed out \
                     (did every member of the communicator make the same call?)"
                );
            }
        }
    }

    fn take(entries: &mut HashMap<BoardKey, Entry>, key: BoardKey) {
        let entry = entries
            .get_mut(&key)
            .expect("entry must exist while taking");
        entry.taken += 1;
        if entry.taken == entry.expected {
            entries.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ft::Liveness;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn all_members_get_the_same_result() {
        let board = Arc::new(OobBoard::new());
        let n = 8;
        let handles: Vec<_> = (0..n)
            .map(|m| {
                let b = Arc::clone(&board);
                std::thread::spawn(move || {
                    b.rendezvous(
                        &ExecCtl::Threads,
                        m,
                        (0, 0, KIND_SPLIT),
                        m,
                        n,
                        m * 10,
                        Duration::from_secs(5),
                        |vals| vals.iter().map(|(_, v)| *v).sum::<usize>(),
                    )
                })
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(*r, (0..8).map(|m| m * 10).sum::<usize>());
        }
    }

    #[test]
    fn deposits_are_sorted_by_member() {
        let board = Arc::new(OobBoard::new());
        let n = 4;
        let handles: Vec<_> = (0..n)
            .rev() // arrive out of order
            .map(|m| {
                let b = Arc::clone(&board);
                std::thread::spawn(move || {
                    b.rendezvous(
                        &ExecCtl::Threads,
                        m,
                        (1, 0, KIND_SPLIT),
                        m,
                        n,
                        m,
                        Duration::from_secs(5),
                        |vals| vals.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
                    )
                })
            })
            .collect();
        for h in handles {
            assert_eq!(*h.join().unwrap(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn board_is_reusable_across_keys() {
        let board = Arc::new(OobBoard::new());
        for seq in 0..3u32 {
            let handles: Vec<_> = (0..2)
                .map(|m| {
                    let b = Arc::clone(&board);
                    std::thread::spawn(move || {
                        *b.rendezvous(
                            &ExecCtl::Threads,
                            m,
                            (0, seq, KIND_WIN_ALLOC),
                            m,
                            2,
                            m,
                            Duration::from_secs(5),
                            |v| v.len(),
                        )
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 2);
            }
        }
        assert!(
            board.entries.lock().unwrap().is_empty(),
            "entries must be cleaned up"
        );
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn missing_member_times_out() {
        let board = OobBoard::new();
        board.rendezvous(
            &ExecCtl::Threads,
            0,
            (9, 9, KIND_SPLIT),
            0,
            2,
            (),
            Duration::from_millis(20),
            |_| (),
        );
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn second_deposit_by_the_same_member_panics() {
        let board = OobBoard::new();
        let deposit = || {
            board.rendezvous(
                &ExecCtl::Threads,
                0,
                (3, 0, KIND_SPLIT),
                0,
                2,
                (),
                Duration::from_millis(20),
                |_| (),
            )
        };
        // Member 1 never arrives, so the first deposit times out but
        // stays on the board; the second one must be refused.
        assert!(catch_unwind(AssertUnwindSafe(deposit)).is_err());
        deposit();
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn out_of_range_member_panics() {
        let board = OobBoard::new();
        board.rendezvous(
            &ExecCtl::Threads,
            0,
            (4, 0, KIND_SPLIT),
            2,
            2,
            (),
            Duration::from_secs(5),
            |_| (),
        );
    }

    #[test]
    fn watched_dead_member_without_deposit_fails_the_wait() {
        let board = OobBoard::new();
        let watch = FtWatch {
            live: Arc::new(Liveness::new(2)),
            members: vec![0, 1],
            epoch: 0,
        };
        watch.live.mark_dead(1);
        let key = (5, 2, KIND_SETUP);
        let err = catch_unwind(AssertUnwindSafe(|| {
            board.rendezvous_watched(
                &ExecCtl::Threads,
                0,
                key,
                0,
                2,
                (),
                Duration::from_secs(5),
                Some(&watch),
                |_| (),
            )
        }))
        .expect_err("the rendezvous can never complete");
        assert_eq!(
            err.downcast_ref::<WaitError>(),
            Some(&WaitError::RankFailed {
                rank: 0,
                failed: 1,
                comm: 5,
                tag: 2,
            })
        );
    }

    #[test]
    fn watched_dead_member_that_deposited_lets_live_members_complete() {
        let board = Arc::new(OobBoard::new());
        let live = Arc::new(Liveness::new(3));
        let key = (6, 0, KIND_SETUP);
        let deposit = |m: usize, watch: Option<FtWatch>| {
            let b = Arc::clone(&board);
            std::thread::spawn(move || {
                *b.rendezvous_watched(
                    &ExecCtl::Threads,
                    m,
                    key,
                    m,
                    3,
                    m,
                    Duration::from_secs(5),
                    watch.as_ref(),
                    |vals| vals.iter().map(|(_, v)| *v).sum::<usize>(),
                )
            })
        };
        let victim = deposit(2, None);
        while board.entries.lock().unwrap().get(&key).map(|e| e.arrived) != Some(1) {
            std::thread::yield_now();
        }
        live.mark_dead(2);
        let survivors: Vec<_> = (0..2)
            .map(|m| {
                let watch = FtWatch {
                    live: Arc::clone(&live),
                    members: vec![0, 1, 2],
                    epoch: 0,
                };
                deposit(m, Some(watch))
            })
            .collect();
        for h in survivors.into_iter().chain([victim]) {
            assert_eq!(h.join().unwrap(), 3);
        }
    }
}
