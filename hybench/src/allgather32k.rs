//! `hy_allgather_32k`: the paper's hybrid allgather at 32768 ranks on the
//! event-calendar executor, phantom data. Set-up and rank count dominate:
//! no payload bytes, no kernels.

use std::time::Duration;

use bench::Machine;
use collectives::barrier;
use collectives::smp_aware::SmpAware;
use hmpi::{HyAllgather, HybridComm, SyncMethod};
use msim::{ExecMode, SimConfig};
use simnet::ClusterSpec;

use crate::harness::{max_over, median, repeat, Bench, Run};
use crate::Report;

const NODES: usize = 512;
const PPN: usize = 64;
/// Doubles per rank.
const ELEMS: usize = 64;
/// Timed allgather calls per universe.
const CALLS: usize = 3;
/// Universes per invocation, at least (set-up is measured once each).
const MIN_REPS: usize = 4;

/// The phases from `Universe::run` entry to the last window built.
const SETUP: &[&str] = &["exec.spawn", "setup.hybridcomm", "setup.window"];

/// The timed region: both world barriers, then the allgather calls.
const TIMED: &[&str] = &["barrier.tuned", "barrier.dissemination", "hy_allgather"];

/// The two world barriers, in the order a repetition runs them.
const ORDERS: [[&str; 2]; 2] = [
    ["barrier.tuned", "barrier.dissemination"],
    ["barrier.dissemination", "barrier.tuned"],
];

/// What each rank reports besides its marks.
struct Out {
    per_call_us: f64,
    shm_bytes: usize,
}

fn config(traced: bool) -> SimConfig {
    let cfg = SimConfig::new(ClusterSpec::regular(NODES, PPN), Machine::hazel_hen().cost)
        .phantom()
        .with_exec(ExecMode::Events)
        // Phantom payloads keep data off the coroutine stacks; the arena
        // commits stack pages lazily.
        .with_stack_size(64 * 1024)
        .with_recv_timeout(Duration::from_secs(300));
    if traced {
        cfg.traced()
    } else {
        cfg
    }
}

fn rep(b: &mut Bench, parent: usize, label: &str, i: usize, traced: bool) -> Option<Run<Out>> {
    let tuning = Machine::hazel_hen().tuning;
    let order = ORDERS[i % 2];
    b.universe(parent, label, config(traced), |ctx, marks| {
        let world = ctx.world();
        let hc = HybridComm::with_sync(ctx, &world, tuning.clone(), SyncMethod::Barrier);
        marks.leave(ctx, "setup.hybridcomm");
        let ag = HyAllgather::<f64>::new(ctx, &hc, ELEMS);
        marks.leave(ctx, "setup.window");
        for name in order {
            if name == "barrier.tuned" {
                barrier::tuned(ctx, &world);
            } else {
                barrier::dissemination(ctx, &world);
            }
            marks.leave(ctx, name);
        }
        let t0 = ctx.now();
        for _ in 0..CALLS {
            ag.execute(ctx);
        }
        marks.leave(ctx, "hy_allgather");
        Out {
            per_call_us: (ctx.now() - t0) / CALLS as f64,
            shm_bytes: ag.window().total_len() * std::mem::size_of::<f64>(),
        }
    })
}

/// The pure-MPI baseline at the same point: one SMP-aware allgather call
/// in a universe of its own, run once per invocation for its virtual
/// latency. Its host time is no part of `setup_s` or `run_s`.
fn pure(b: &mut Bench, parent: usize) -> Option<Run<f64>> {
    let tuning = Machine::hazel_hen().tuning;
    b.universe(parent, "pure_allgather", config(false), |ctx, marks| {
        let world = ctx.world();
        let sa = SmpAware::new(ctx, &world, tuning.clone());
        marks.leave(ctx, "setup.smpaware");
        let send = ctx.buf_zeroed::<f64>(ELEMS);
        let mut recv = ctx.buf_zeroed::<f64>(ELEMS * world.size());
        barrier::dissemination(ctx, &world);
        marks.leave(ctx, "pre.pure_allgather");
        let t0 = ctx.now();
        sa.allgather(ctx, &send, &mut recv);
        marks.leave(ctx, "pure_allgather");
        ctx.now() - t0
    })
}

/// Virtual end-to-end figures of one run: per-call latency (max over
/// ranks) and window bytes per node.
fn virtual_of(run: &Run<Out>) -> (f64, f64) {
    let us = max_over(run.values.iter().map(|o| o.per_call_us));
    (us, run.values[0].shm_bytes as f64)
}

pub fn run(b: &mut Bench, trace: bool) -> Report {
    let root = b.spans.open(None, "hy_allgather_32k");
    let budget = b.budget;
    let runs: Vec<Run<Out>> = repeat(budget, MIN_REPS, |i| {
        let r = rep(b, root, "rep", i, false);
        b.note_rss();
        r
    })
    .into_iter()
    .flatten()
    .collect();

    let setup_s = median(runs.iter().map(|r| r.host_s(SETUP)));
    let run_s = median(runs.iter().map(|r| r.host_s(TIMED)));
    let (hy_us, shm) = runs.first().map_or((0.0, 0.0), virtual_of);
    for r in &runs {
        let v = virtual_of(r);
        b.check(v == (hy_us, shm), || {
            format!(
                "hy_allgather_32k: virtual figures differ between runs: {v:?} vs {:?}",
                (hy_us, shm)
            )
        });
    }

    let mut report = Report::new("events");
    report.e2e("setup_s", setup_s);
    report.e2e("run_s", run_s);
    report.e2e("hy_us", hy_us);
    report.e2e("shm_bytes_per_node", shm);
    let pure = pure(b, root);
    let pure_us = pure
        .as_ref()
        .map_or(0.0, |r| max_over(r.values.iter().copied()));
    report.e2e("pure_us", pure_us);
    if !trace {
        b.spans.close(root);
        return report;
    }

    let med = |name: &str| median(runs.iter().map(|r| r.phase(name).host_s));
    report.layer("exec.spawn_s", med("exec.spawn"));
    report.layer("exec.teardown_s", median(runs.iter().map(|r| r.teardown_s)));
    report.layer("setup.hybridcomm_s", med("setup.hybridcomm"));
    report.layer("setup.window_s", med("setup.window"));
    report.layer("barrier.tuned_s", med("barrier.tuned"));
    report.layer("barrier.dissemination_s", med("barrier.dissemination"));
    report.layer(
        "hy_allgather.call_ms",
        med("hy_allgather") / CALLS as f64 * 1e3,
    );
    report.layer("hy_allgather_us", hy_us);
    if let Some(p) = &pure {
        report.layer("setup.smpaware_s", p.phase("setup.smpaware").host_s);
        report.layer(
            "pure_allgather.call_ms",
            p.phase("pure_allgather").host_s * 1e3,
        );
        report.layer("pure_allgather_us", pure_us);
    }

    if let Some(t) = rep(b, root, "rep.traced", 0, true) {
        let v = virtual_of(&t);
        b.check(v == (hy_us, shm), || {
            format!(
                "hy_allgather_32k: traced run changed the virtual figures: {v:?} vs {:?}",
                (hy_us, shm)
            )
        });
        report.collective_counts("hy_allgather", &t.counts.phase("hy_allgather"), CALLS);
        report.p2p(med("hy_allgather"), &t.counts.phase("hy_allgather"));
        report.trace_totals(&t.counts.total(), t.host_s(TIMED) / run_s);
    }
    b.spans.close(root);
    report
}
