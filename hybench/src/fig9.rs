//! `fig9_hy_vs_pure`: the top point of the paper's Fig. 9 — 64 nodes × 24
//! ranks — comparing the hybrid allgather and broadcast with the pure-MPI
//! SMP-aware ones, phantom data, default executor. Heavy in messages: the
//! pure path sends the intra-node gather/bcast messages and copies that
//! the hybrid removes.

use bench::{allgather_latency, AllgatherVariant, Machine};
use collectives::barrier;
use collectives::smp_aware::SmpAware;
use hmpi::{HyAllgather, HyBcast, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig};
use simnet::{ClusterSpec, Placement};

use crate::harness::{max_over, median, repeat, Bench, Run};
use crate::Report;

const NODES: usize = 64;
const PPN: usize = 24;
/// Doubles per rank in the allgathers.
const AG_ELEMS: usize = 16384;
/// Doubles in the broadcast message.
const BCAST_ELEMS: usize = 1 << 20;
/// Timed calls per collective per universe.
const CALLS: usize = 6;
const MIN_REPS: usize = 5;
/// Coroutine stack bytes per rank, as the scale sweep uses: phantom
/// payloads keep data off the stacks. With the 1 MiB default, glibc serves
/// the stacks of every universe after the first from its heap (its mmap
/// threshold rises when the first ones are freed) and zeroes every page,
/// so the process grows to between 0.4 and 1.7 GB from run to run.
const STACK: usize = 64 * 1024;
/// Relative tolerance of the cross-check against `bench::allgather_latency`.
const XCHECK_TOL: f64 = 1e-3;

/// The phases from `Universe::run` entry to the last window built.
const SETUP: &[&str] = &[
    "exec.spawn",
    "setup.hybridcomm",
    "setup.smpaware",
    "setup.window",
];
/// The timed collectives, in program order; each runs after a world
/// barrier phase named `pre.<collective>`.
const TIMED: [&str; 4] = ["hy_allgather", "pure_allgather", "hy_bcast", "pure_bcast"];
const PRE: [&str; 4] = [
    "pre.hy_allgather",
    "pre.pure_allgather",
    "pre.hy_bcast",
    "pre.pure_bcast",
];

fn spec() -> ClusterSpec {
    ClusterSpec::regular(NODES, PPN)
}

fn config(traced: bool) -> SimConfig {
    let cfg = SimConfig::new(spec(), Machine::hazel_hen().cost)
        .phantom()
        .with_exec(ExecMode::default())
        .with_stack_size(STACK);
    if traced {
        cfg.traced()
    } else {
        cfg
    }
}

/// Per-call virtual µs of each timed collective on one rank, plus the
/// rank's hybrid window bytes.
struct Out {
    per_call_us: [f64; 4],
    shm_bytes: usize,
}

fn rep(b: &mut Bench, parent: usize, label: &str, traced: bool) -> Option<Run<Out>> {
    let tuning = Machine::hazel_hen().tuning;
    b.universe(parent, label, config(traced), |ctx, marks| {
        let world = ctx.world();
        let p = world.size();
        let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
        marks.leave(ctx, "setup.hybridcomm");
        let sa = SmpAware::new(ctx, &world, tuning.clone());
        marks.leave(ctx, "setup.smpaware");
        let hy_ag = HyAllgather::<f64>::new(ctx, &hc, AG_ELEMS);
        let hy_bc = HyBcast::<f64>::new(ctx, &hc, BCAST_ELEMS);
        marks.leave(ctx, "setup.window");
        let send = ctx.buf_zeroed::<f64>(AG_ELEMS);
        let mut recv = ctx.buf_zeroed::<f64>(AG_ELEMS * p);
        let mut msg = ctx.buf_zeroed::<f64>(BCAST_ELEMS);

        let mut per_call_us = [0.0; 4];
        for (k, name) in TIMED.into_iter().enumerate() {
            barrier::tuned(ctx, &world);
            marks.leave(ctx, PRE[k]);
            let t0 = ctx.now();
            for _ in 0..CALLS {
                match name {
                    "hy_allgather" => hy_ag.execute(ctx),
                    "pure_allgather" => sa.allgather(ctx, &send, &mut recv),
                    "hy_bcast" => hy_bc.execute(ctx, 0),
                    _ => sa.bcast(ctx, &mut msg, 0),
                }
            }
            marks.leave(ctx, name);
            per_call_us[k] = (ctx.now() - t0) / CALLS as f64;
        }
        Out {
            per_call_us,
            shm_bytes: (hy_ag.window().total_len() + hy_bc.window().total_len())
                * std::mem::size_of::<f64>(),
        }
    })
}

/// Virtual figures of one run: per-call µs of each timed collective (max
/// over ranks) and the hybrid window bytes per node.
fn virtual_of(run: &Run<Out>) -> ([f64; 4], f64) {
    let mut us = [0.0; 4];
    for (k, u) in us.iter_mut().enumerate() {
        *u = max_over(run.values.iter().map(|o| o.per_call_us[k]));
    }
    (us, run.values[0].shm_bytes as f64)
}

/// Cross-check the allgather figures against the figure harness's own
/// measurement at the same point (a separate universe per variant).
fn cross_check(b: &mut Bench, parent: usize, hy_us: f64, pure_us: f64) {
    let machine = Machine::hazel_hen();
    for (variant, got) in [
        (AllgatherVariant::Hybrid, hy_us),
        (AllgatherVariant::PureSmpAware, pure_us),
    ] {
        let id = b.spans.open(Some(parent), "oracle.allgather_latency");
        let want = allgather_latency(
            spec(),
            &machine,
            AG_ELEMS,
            variant,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        b.spans.close(id);
        b.check((got - want).abs() <= XCHECK_TOL * want, || {
            format!("fig9_hy_vs_pure: {variant:?} allgather {got} us/call vs bench::allgather_latency {want}")
        });
    }
}

pub fn run(b: &mut Bench, trace: bool) -> Report {
    let root = b.spans.open(None, "fig9_hy_vs_pure");
    let budget = b.budget;
    let runs: Vec<Run<Out>> = repeat(budget, MIN_REPS, |_| {
        let r = rep(b, root, "rep", false);
        b.note_rss();
        r
    })
    .into_iter()
    .flatten()
    .collect();
    let (us, shm) = runs.first().map_or(([0.0; 4], 0.0), virtual_of);
    for r in &runs {
        let v = virtual_of(r);
        b.check(v == (us, shm), || {
            format!(
                "fig9_hy_vs_pure: virtual figures differ between runs: {v:?} vs {:?}",
                (us, shm)
            )
        });
    }
    cross_check(b, root, us[0], us[1]);

    let mut report = Report::new("pooled");
    report.e2e("setup_s", median(runs.iter().map(|r| r.host_s(SETUP))));
    let run_s = median(runs.iter().map(|r| r.host_s(&TIMED)));
    report.e2e("run_s", run_s);
    report.e2e("hy_us", us[0] + us[2]);
    report.e2e("pure_us", us[1] + us[3]);
    report.e2e("shm_bytes_per_node", shm);
    if !trace {
        b.spans.close(root);
        return report;
    }

    let med = |name: &str| median(runs.iter().map(|r| r.phase(name).host_s));
    report.layer("exec.spawn_s", med("exec.spawn"));
    report.layer("exec.teardown_s", median(runs.iter().map(|r| r.teardown_s)));
    report.layer("setup.hybridcomm_s", med("setup.hybridcomm"));
    report.layer("setup.smpaware_s", med("setup.smpaware"));
    report.layer("setup.window_s", med("setup.window"));
    for (k, name) in TIMED.into_iter().enumerate() {
        report.layer(&format!("{name}.call_ms"), med(name) / CALLS as f64 * 1e3);
        report.layer(&format!("{name}_us"), us[k]);
    }

    if let Some(t) = rep(b, root, "rep.traced", true) {
        let v = virtual_of(&t);
        b.check(v == (us, shm), || {
            format!(
                "fig9_hy_vs_pure: traced run changed the virtual figures: {v:?} vs {:?}",
                (us, shm)
            )
        });
        let mut timed = crate::traced::Counts::default();
        for name in TIMED {
            let c = t.counts.phase(name);
            report.collective_counts(name, &c, CALLS);
            timed.add(&c);
        }
        report.p2p(run_s, &timed);
        report.trace_totals(&t.counts.total(), t.host_s(&TIMED) / run_s);
    }
    b.spans.close(root);
    report
}
