//! Executor scaling sweep: wall-clock cost of simulating the paper's
//! hybrid allgather as the rank count grows 48 → 4096 on the pooled
//! executor, then 8192 → 262144 on the event-calendar executor — far
//! past what any thread-backed execution can host. Emits
//! `BENCH_scale.json` (canonical JSON, same serializer as the tuning
//! tables) with wall-clock seconds, virtual latency, the executor, and
//! the peak OS thread count per point — the repo's wall-clock
//! performance trajectory, gated by `ci.sh perf`.
//!
//! ```text
//! scale [--ranks N] [--max-ranks N] [--exec pooled|threads|events]
//!       [--threads] [--out PATH] [--ci] [--budget-s SECS]
//!       [--rss-budget-mb MB]
//! scale --verify PATH
//! ```
//!
//! * `--ranks N` runs only the ladder point with exactly N ranks.
//! * `--exec` restricts the sweep to one executor's ladder: `pooled` and
//!   `threads` walk the 48 → 4096 ladder (threads refuses ranks > 2048),
//!   `events` walks the 8192 → 262144 ladder. Without it, the default
//!   sweep is the pooled ladder followed by the events ladder, into one
//!   artifact.
//! * `--ci` is the CI smoke: writes the JSON artifact and, with
//!   `--budget-s`, fails when measured wall-clock exceeds the stored
//!   budget by more than 25% (see the `ci.sh` header for the bump
//!   procedure).
//! * `--rss-budget-mb MB` fails when the process's peak resident memory
//!   (`VmHWM`) exceeds MB by more than the same 25% — the per-rank
//!   memory gate of the coroutine stacks. Linux only; elsewhere the
//!   check is skipped with a note.
//! * `--verify PATH` re-parses an emitted artifact and checks it
//!   round-trips the canonical serializer byte-for-byte.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use bench::Machine;
use collectives::barrier;
use collectives::json::Json;
use hmpi::{HyAllgather, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig, Universe};
use simnet::ClusterSpec;

/// The pooled/threads ladder: the paper's 24-ppn scales (Figs 7–12 live
/// at 24 processes per node) up to 128 nodes, then a 4096-rank top end.
const LADDER: &[(usize, usize)] = &[
    (2, 24),   // 48
    (4, 24),   // 96
    (8, 24),   // 192
    (16, 24),  // 384
    (32, 24),  // 768
    (64, 24),  // 1536
    (128, 24), // 3072
    (256, 16), // 4096
];

/// The event-calendar ladder: phantom-payload runs at 64 ppn (a modern
/// dual-socket node) reaching 262144 ranks on a single driver thread.
const EVENTS_LADDER: &[(usize, usize)] = &[
    (128, 64),  // 8192
    (256, 64),  // 16384
    (1024, 64), // 65536
    (4096, 64), // 262144
];

/// Doubles per rank in the measured allgather (phantom data, so this
/// sets modeled bytes, not host memory).
const ELEMS: usize = 64;

/// Allowed overshoot over a stored wall-clock or memory budget before
/// the CI gate fails.
const BUDGET_SLACK: f64 = 1.25;

/// Timed collective calls per point: averaged over 3 below this rank
/// count, a single call at and above it (the big points dominate the
/// sweep's wall-clock; one call keeps the full ladder inside CI budgets).
const SINGLE_ITER_RANKS: usize = 32768;

fn exec_label(exec: ExecMode) -> &'static str {
    match exec {
        ExecMode::ThreadPerRank => "threads",
        ExecMode::Pooled { .. } => "pooled",
        ExecMode::Events => "events",
    }
}

struct Point {
    nodes: usize,
    ppn: usize,
    ranks: usize,
    exec: ExecMode,
    iters: usize,
    latency_us: f64,
    wall_s: f64,
    peak_threads: usize,
}

/// Simulate the hybrid allgather once at `nodes`×`ppn` and measure the
/// host-side wall-clock of the whole `Universe::run`.
fn run_point(nodes: usize, ppn: usize, exec: ExecMode, machine: &Machine) -> Point {
    let spec = ClusterSpec::regular(nodes, ppn);
    let ranks = nodes * ppn;
    let iters = if ranks >= SINGLE_ITER_RANKS { 1 } else { 3 };
    // Coroutine stacks are the dominant memory cost at scale; the
    // allgather keeps its data in windows/heap, so small stacks suffice.
    // The calendar's arena commits stack pages lazily, so its quarter
    //-megabyte points shrink further to 64 KiB reserved per rank.
    let stack_size = match exec {
        ExecMode::Events => 64 * 1024,
        _ => 256 * 1024,
    };
    let cfg = SimConfig::new(spec, machine.cost.clone())
        .phantom()
        .with_stack_size(stack_size)
        .with_recv_timeout(std::time::Duration::from_secs(300))
        .with_exec(exec);
    let tuning = machine.tuning.clone();
    let t0 = Instant::now();
    let result = Universe::run(cfg, move |ctx| {
        let world = ctx.world();
        let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
        let ag = HyAllgather::<f64>::new(ctx, &hc, ELEMS);
        barrier::tuned(ctx, &world);
        let t = ctx.now();
        for _ in 0..iters {
            ag.execute(ctx);
        }
        (ctx.now() - t) / iters as f64
    })
    .expect("scale sweep universe must not fail");
    let wall_s = t0.elapsed().as_secs_f64();
    Point {
        nodes,
        ppn,
        ranks,
        exec,
        iters,
        latency_us: result.per_rank.into_iter().fold(0.0f64, f64::max),
        wall_s,
        peak_threads: result.peak_threads,
    }
}

fn to_json(points: &[Point], total_wall_s: f64) -> Json {
    let mut root = BTreeMap::new();
    root.insert("bench".into(), Json::Str("scale".into()));
    root.insert("cluster".into(), Json::Str("hazel_hen".into()));
    root.insert("elems_per_rank".into(), Json::Num(ELEMS as f64));
    root.insert(
        "points".into(),
        Json::Arr(
            points
                .iter()
                .map(|p| {
                    let mut m = BTreeMap::new();
                    m.insert("exec".into(), Json::Str(exec_label(p.exec).into()));
                    m.insert("iters".into(), Json::Num(p.iters as f64));
                    m.insert("latency_us".into(), Json::Num(p.latency_us));
                    m.insert("nodes".into(), Json::Num(p.nodes as f64));
                    m.insert("peak_threads".into(), Json::Num(p.peak_threads as f64));
                    m.insert("ppn".into(), Json::Num(p.ppn as f64));
                    m.insert("ranks".into(), Json::Num(p.ranks as f64));
                    // Round to µs so the artifact stays human-diffable.
                    m.insert("wall_s".into(), Json::Num((p.wall_s * 1e6).round() / 1e6));
                    Json::Obj(m)
                })
                .collect(),
        ),
    );
    root.insert(
        "total_wall_s".into(),
        Json::Num((total_wall_s * 1e6).round() / 1e6),
    );
    Json::Obj(root)
}

/// The CI artifact check: the emitted file must round-trip the canonical
/// serializer byte-for-byte (parse → pretty → same bytes), and every
/// point must carry an executor label.
fn verify(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scale: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("scale: {path} does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.pretty() != text {
        eprintln!("scale: {path} is not in canonical form (parse→serialize changed the bytes)");
        return ExitCode::FAILURE;
    }
    let points = parsed
        .get("points")
        .and_then(|p| p.as_arr())
        .map(|a| a.to_vec())
        .unwrap_or_default();
    if points.is_empty() {
        eprintln!("scale: {path} has no sweep points");
        return ExitCode::FAILURE;
    }
    for (i, p) in points.iter().enumerate() {
        let exec = p.get("exec").and_then(|e| e.as_str());
        if !matches!(exec, Some("pooled" | "threads" | "events")) {
            eprintln!("scale: {path} point {i} has no recognized \"exec\" label");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "scale: {path} round-trips byte-for-byte ({} points)",
        points.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut only_ranks: Option<usize> = None;
    let mut max_ranks = usize::MAX;
    let mut only_exec: Option<ExecMode> = None;
    let mut out = "BENCH_scale.json".to_string();
    let mut ci = false;
    let mut budget_s: Option<f64> = None;
    let mut rss_budget_mb: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => only_ranks = Some(n),
                None => return usage("--ranks needs a number"),
            },
            "--max-ranks" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_ranks = n,
                None => return usage("--max-ranks needs a number"),
            },
            "--exec" => match args.next().as_deref() {
                Some("pooled") => only_exec = Some(ExecMode::pooled()),
                Some("threads") => only_exec = Some(ExecMode::ThreadPerRank),
                Some("events") => only_exec = Some(ExecMode::Events),
                _ => return usage("--exec needs pooled|threads|events"),
            },
            "--threads" => only_exec = Some(ExecMode::ThreadPerRank),
            "--out" => match args.next() {
                Some(p) => out = p,
                None => return usage("--out needs a path"),
            },
            "--ci" => ci = true,
            "--budget-s" => match args.next().and_then(|v| v.parse().ok()) {
                Some(b) => budget_s = Some(b),
                None => return usage("--budget-s needs seconds"),
            },
            "--rss-budget-mb" => match args.next().and_then(|v| v.parse().ok()) {
                Some(b) => rss_budget_mb = Some(b),
                None => return usage("--rss-budget-mb needs megabytes"),
            },
            "--verify" => match args.next() {
                Some(p) => return verify(&p),
                None => return usage("--verify needs a path"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    // The work list: (nodes, ppn, exec). Default = pooled ladder followed
    // by the events ladder; an explicit --exec restricts to its ladder.
    let mut work: Vec<(usize, usize, ExecMode)> = Vec::new();
    match only_exec {
        Some(exec @ ExecMode::Events) => {
            work.extend(EVENTS_LADDER.iter().map(|&(n, p)| (n, p, exec)));
        }
        Some(exec) => {
            work.extend(LADDER.iter().map(|&(n, p)| (n, p, exec)));
        }
        None => {
            work.extend(LADDER.iter().map(|&(n, p)| (n, p, ExecMode::pooled())));
            work.extend(EVENTS_LADDER.iter().map(|&(n, p)| (n, p, ExecMode::Events)));
        }
    }
    work.retain(|&(n, p, _)| {
        let r = n * p;
        r <= max_ranks && only_ranks.is_none_or(|want| want == r)
    });
    if work.is_empty() {
        return usage(
            "no ladder point matches --ranks/--max-ranks (pooled ladder ranks: 48, 96, 192, \
             384, 768, 1536, 3072, 4096; events ladder ranks: 8192, 16384, 65536, 262144)",
        );
    }
    if work
        .iter()
        .any(|&(n, p, e)| e == ExecMode::ThreadPerRank && n * p > 2048)
    {
        eprintln!(
            "scale: refusing a thread-per-rank sweep above 2048 ranks \
             (one OS thread per rank would thrash the host); add --max-ranks 2048"
        );
        return ExitCode::FAILURE;
    }

    let machine = Machine::hazel_hen();
    let mut points = Vec::with_capacity(work.len());
    let t0 = Instant::now();
    for (nodes, ppn, exec) in work {
        let p = run_point(nodes, ppn, exec, &machine);
        println!(
            "scale: {} ranks ({}x{}, {}): {:.3} s wall, {:.1} us virtual, {} OS thread(s)",
            p.ranks,
            p.nodes,
            p.ppn,
            exec_label(p.exec),
            p.wall_s,
            p.latency_us,
            p.peak_threads
        );
        points.push(p);
    }
    let total_wall_s = t0.elapsed().as_secs_f64();

    let doc = to_json(&points, total_wall_s);
    let text = doc.pretty();
    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("scale: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "scale: {} point(s), {:.3} s total wall -> {out}",
        points.len(),
        total_wall_s
    );

    if ci {
        // Self-check the artifact we just wrote: it must be canonical.
        if verify(&out) != ExitCode::SUCCESS {
            return ExitCode::FAILURE;
        }
    }
    if let Some(budget) = budget_s {
        let limit = budget * BUDGET_SLACK;
        if total_wall_s > limit {
            eprintln!(
                "scale: PERF GATE FAILED: {total_wall_s:.3} s wall exceeds \
                 {limit:.3} s (stored budget {budget:.3} s + 25% slack). \
                 If this slowdown is expected, bump the budget in ci.sh \
                 (see its header for the procedure)."
            );
            return ExitCode::FAILURE;
        }
        println!("scale: perf gate OK ({total_wall_s:.3} s <= {limit:.3} s limit)");
    }
    if let Some(budget) = rss_budget_mb {
        let limit = budget * BUDGET_SLACK;
        match peak_rss_mb() {
            None => println!("scale: memory gate skipped (no VmHWM on this platform)"),
            Some(peak) if peak > limit => {
                eprintln!(
                    "scale: MEMORY GATE FAILED: {peak:.1} MB peak RSS exceeds \
                     {limit:.1} MB (stored budget {budget:.1} MB + 25% slack). \
                     If this growth is expected, bump the budget in ci.sh \
                     (see its header for the procedure)."
                );
                return ExitCode::FAILURE;
            }
            Some(peak) => {
                println!("scale: memory gate OK ({peak:.1} MB peak RSS <= {limit:.1} MB limit)")
            }
        }
    }
    ExitCode::SUCCESS
}

/// Peak resident memory of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn usage(err: &str) -> ExitCode {
    eprintln!("scale: {err}");
    eprintln!(
        "usage: scale [--ranks N] [--max-ranks N] [--exec pooled|threads|events] [--threads] \
         [--out PATH] [--ci] [--budget-s SECS] [--rss-budget-mb MB] | scale --verify PATH"
    );
    ExitCode::FAILURE
}
