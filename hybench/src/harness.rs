//! What every workload shares: timed `Universe::run`s reduced at their
//! phase boundaries, operation and failure accounting, and the span log.

use std::time::{Duration, Instant};

use msim::{Ctx, SimConfig, Universe};
use simnet::RankMap;

use crate::phase::{self, Marks, Phase, Spans};
use crate::traced::PhaseCounts;

/// One `Universe::run`, reduced over ranks.
pub struct Run<T> {
    pub phases: Vec<Phase>,
    /// Host seconds from the last rank leaving its last phase until
    /// `Universe::run` returned (locals dropped, executor torn down).
    pub teardown_s: f64,
    /// Per-rank program results.
    pub values: Vec<T>,
    /// Event counts by phase; empty unless the run was traced.
    pub counts: PhaseCounts,
}

impl<T> Run<T> {
    pub fn phase(&self, name: &str) -> &Phase {
        phase::find(&self.phases, name)
    }

    /// Host seconds of the named phases, summed.
    pub fn host_s(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.phase(n).host_s).sum()
    }
}

/// The state of one benchmark invocation.
pub struct Bench {
    pub seed: u64,
    pub budget: Duration,
    pub nproc: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Most executor threads any universe used.
    pub peak_threads: usize,
    /// Most windows any universe left open.
    pub open_windows: usize,
    /// Peak resident memory (MB) after the first repetition, before the
    /// benchmark's own oracles allocate anything.
    pub rss_mb: Option<f64>,
    pub spans: Spans,
}

impl Bench {
    pub fn new(seed: u64, budget: Duration) -> Self {
        Self {
            seed,
            budget,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempted: 0,
            failed: 0,
            peak_threads: 0,
            open_windows: 0,
            rss_mb: None,
            spans: Spans::new(),
        }
    }

    /// Count one operation; a failure is reported on stderr and counted,
    /// and the benchmark goes on.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hybench: FAILED: {}", what());
        }
        ok
    }

    /// Record the peak resident memory, once: call it after the first
    /// repetition. Later repetitions reuse freed memory, and how much of
    /// it the allocator keeps depends on which worker thread freed what.
    pub fn note_rss(&mut self) {
        self.rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// Run `program` on every rank of `cfg` as one operation. Every rank
    /// leaves the phase `exec.spawn` on entry; `program` marks the rest.
    /// The run must finish with no window left open and no more executor
    /// threads than host cores. The phases become spans under `parent`.
    pub fn universe<T, F>(
        &mut self,
        parent: usize,
        label: &str,
        cfg: SimConfig,
        program: F,
    ) -> Option<Run<T>>
    where
        T: Send,
        F: Fn(&mut Ctx, &mut Marks) -> T + Send + Sync,
    {
        let map: RankMap = cfg.placement.build(&cfg.spec);
        let entry = Instant::now();
        let result = Universe::run(cfg, |ctx| {
            let mut marks = Marks::default();
            marks.leave(ctx, "exec.spawn");
            let value = program(ctx, &mut marks);
            (marks, value)
        });
        let exit = Instant::now();
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.check(false, || format!("{label}: universe failed: {e}"));
                return None;
            }
        };
        let (open, threads) = (result.open_windows, result.peak_threads);
        self.open_windows = self.open_windows.max(open);
        self.peak_threads = self.peak_threads.max(threads);
        let nproc = self.nproc;
        let ok = self.check(open == 0 && threads <= nproc, || {
            format!(
                "{label}: {open} window(s) left open, {threads} executor threads on {nproc} cores"
            )
        });
        let (marks, values): (Vec<Marks>, Vec<T>) = result.per_rank.into_iter().unzip();
        let phases = phase::reduce(entry, &marks);
        let last = phases.last().expect("every run has a spawn phase").host_end;
        let id = self.spans.host(Some(parent), label, entry, exit);
        self.spans.phases(id, entry, &phases);
        let counts = if result.tracer.is_enabled() {
            PhaseCounts::of(&result.tracer, &map)
        } else {
            PhaseCounts::default()
        };
        ok.then(|| Run {
            phases,
            teardown_s: (exit - last).as_secs_f64(),
            values,
            counts,
        })
    }
}

/// Peak resident memory of this process (MB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeat `rep` for the time budget: at least `min_reps` times, then while
/// another repetition (at the mean pace so far) still fits the budget.
pub fn repeat<R>(budget: Duration, min_reps: usize, mut rep: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep(out.len()));
        let elapsed = start.elapsed();
        let pace = elapsed / out.len() as u32;
        if out.len() >= min_reps && elapsed + pace > budget {
            return out;
        }
    }
}

/// Median of the values (0 for none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest value over ranks.
pub fn max_over(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, f64::max)
}
