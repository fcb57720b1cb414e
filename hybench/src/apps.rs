//! `apps_real`: the paper's two applications on real payloads, default
//! executor — Hy_/Ori_BPMF on the chembl_20-like dataset at Fig. 12's
//! 48-core allocation and Hy_/Ori_SUMMA at q = 8, b = 256 on Fig. 11's
//! 64-core allocation. Real bytes and real arithmetic dominate: the
//! `linalg` kernels and the copies through mailboxes and windows.

use std::sync::Arc;
use std::time::Instant;

use bench::{cluster_for, Machine};
use bpmf::gibbs::{rmse, serial_gibbs};
use bpmf::{hy_bpmf, ori_bpmf, BpmfConfig, Dataset, SyntheticSpec};
use linalg::gemm::gemm;
use linalg::Mat;
use msim::{ExecMode, SimConfig};
use summa::kernel::{a_elem, b_elem, expected_c_block};
use summa::{hy_summa, ori_summa, SummaSpec};

use crate::harness::{max_over, median, repeat, Bench, Run};
use crate::traced::PhaseCounts;
use crate::Report;

/// Seed of the synthetic dataset. Fixed, because BPMF's modeled compute
/// follows the sparsity pattern: the virtual figures must not move with
/// `--seed`, which drives the Gibbs chain instead.
const DATA_SEED: u64 = 20;
/// Gibbs iterations (the paper measures 20).
const ITERS: usize = 3;
const BPMF_CORES: usize = 48;
const SUMMA_Q: usize = 8;
const SUMMA_B: usize = 256;
const MIN_REPS: usize = 3;
/// Largest RMSE difference from the serial oracle (as `bpmf::app`'s own
/// test requires).
const RMSE_TOL: f64 = 1e-9;
/// Largest element difference of a SUMMA C block from its oracle.
const C_TOL: f64 = 1e-9;

/// The four application runs of a repetition, each its own universe.
const APPS: [&str; 4] = ["bpmf_hy", "bpmf_ori", "summa_hy", "summa_ori"];

/// One rank's outcome: virtual TotalTime, and the result to check.
enum Out {
    Bpmf { us: f64, rmse: Option<f64> },
    Summa { us: f64, c: Option<Mat> },
}

impl Out {
    fn us(&self) -> f64 {
        match self {
            Out::Bpmf { us, .. } | Out::Summa { us, .. } => *us,
        }
    }
}

/// The oracles, computed once per invocation; the serial runs double as
/// the plain single-threaded baselines.
struct Oracles {
    rmse: f64,
    c_blocks: Vec<Mat>,
    serial_bpmf_s: f64,
    serial_summa_s: f64,
}

fn bpmf_config(seed: u64) -> BpmfConfig {
    BpmfConfig {
        iters: ITERS,
        ..BpmfConfig::paper(seed, Machine::hazel_hen().tuning)
    }
}

fn summa_spec() -> SummaSpec {
    SummaSpec {
        q: SUMMA_Q,
        block: SUMMA_B,
        tuning: Machine::hazel_hen().tuning,
    }
}

fn oracles(b: &mut Bench, parent: usize, data: &Dataset) -> Oracles {
    let cfg = bpmf_config(b.seed);
    let k = cfg.k;
    let id = b.spans.open(Some(parent), "linalg.serial_bpmf");
    let t = Instant::now();
    let (u, v) = serial_gibbs(
        &data.train,
        &data.train_t,
        k,
        cfg.iters,
        cfg.seed,
        data.mean,
    );
    let serial_bpmf_s = t.elapsed().as_secs_f64();
    b.spans.close(id);
    let want_rmse = rmse(
        k,
        &|e| u[e * k..(e + 1) * k].to_vec(),
        &|e| v[e * k..(e + 1) * k].to_vec(),
        &data.test,
        data.mean,
    );

    // The same SUMMA product as one serial gemm over the whole matrices.
    let n = SUMMA_Q * SUMMA_B;
    let a = Mat::from_fn(n, n, a_elem);
    let bm = Mat::from_fn(n, n, b_elem);
    let mut c = Mat::zeros(n, n);
    let id = b.spans.open(Some(parent), "linalg.serial_summa");
    let t = Instant::now();
    gemm(1.0, &a, &bm, 0.0, std::hint::black_box(&mut c));
    let serial_summa_s = t.elapsed().as_secs_f64();
    b.spans.close(id);

    // One block per grid rank, computed on every host core.
    let id = b.spans.open(Some(parent), "oracle.expected_c_block");
    let ranks: Vec<usize> = (0..SUMMA_Q * SUMMA_Q).collect();
    let c_blocks = std::thread::scope(|s| {
        let workers: Vec<_> = ranks
            .chunks(ranks.len().div_ceil(b.nproc))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&r| expected_c_block(SUMMA_Q, SUMMA_B, r / SUMMA_Q, r % SUMMA_Q))
                        .collect::<Vec<Mat>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread panicked"))
            .collect()
    });
    b.spans.close(id);
    Oracles {
        rmse: want_rmse,
        c_blocks,
        serial_bpmf_s,
        serial_summa_s,
    }
}

/// One repetition: dataset synthesis, then each application in its own
/// universe.
struct Rep {
    synth_s: f64,
    /// The application runs that did not fail, by name.
    runs: Vec<(&'static str, Run<Out>)>,
}

fn rep(b: &mut Bench, parent: usize, label: &str, traced: bool) -> (Rep, Arc<Dataset>) {
    let id = b.spans.open(Some(parent), label);
    let t = Instant::now();
    let data = Arc::new(Dataset::synthesize(&SyntheticSpec::chembl20_like(
        DATA_SEED,
    )));
    let synth_s = t.elapsed().as_secs_f64();
    b.spans.host(Some(id), "setup.dataset", t, Instant::now());
    let cost = Machine::hazel_hen().cost;
    let mut runs = Vec::new();
    for app in APPS {
        let cores = if app.starts_with("bpmf") {
            BPMF_CORES
        } else {
            SUMMA_Q * SUMMA_Q
        };
        let mut cfg =
            SimConfig::new(cluster_for(cores), cost.clone()).with_exec(ExecMode::default());
        if traced {
            cfg = cfg.traced();
        }
        let (data, bcfg, spec) = (Arc::clone(&data), bpmf_config(b.seed), summa_spec());
        let run = b.universe(id, app, cfg, move |ctx, marks| {
            let out = match app {
                "bpmf_hy" | "bpmf_ori" => {
                    let f = if app == "bpmf_hy" { hy_bpmf } else { ori_bpmf };
                    let r = f(ctx, &data, &bcfg);
                    Out::Bpmf {
                        us: r.elapsed_us,
                        rmse: r.rmse,
                    }
                }
                _ => {
                    let f = if app == "summa_hy" {
                        hy_summa
                    } else {
                        ori_summa
                    };
                    let r = f(ctx, &spec);
                    Out::Summa {
                        us: r.elapsed_us,
                        c: r.c_block,
                    }
                }
            };
            marks.leave(ctx, app);
            out
        });
        runs.extend(run.map(|r| (app, r)));
    }
    b.spans.close(id);
    (Rep { synth_s, runs }, data)
}

/// Check every rank's result of one run against the oracles.
fn check(b: &mut Bench, app: &str, run: &Run<Out>, o: &Oracles) {
    for (rank, out) in run.values.iter().enumerate() {
        match out {
            Out::Bpmf { rmse, .. } => {
                let ok = rmse.is_some_and(|r| (r - o.rmse).abs() < RMSE_TOL);
                b.check(ok, || {
                    format!(
                        "{app} rank {rank}: rmse {rmse:?} vs serial_gibbs {}",
                        o.rmse
                    )
                });
            }
            Out::Summa { c: Some(c), .. } => {
                let diff = c.distance(&o.c_blocks[rank]);
                b.check(diff <= C_TOL, || {
                    format!("{app} rank {rank}: C block differs from expected_c_block by {diff}")
                });
            }
            Out::Summa { c: None, .. } => {
                // Ranks outside the q×q grid hold no block.
                b.check(rank >= SUMMA_Q * SUMMA_Q, || {
                    format!("{app} rank {rank}: grid rank returned no C block")
                });
            }
        }
    }
}

fn by_app<'a>(rep: &'a Rep, app: &str) -> Option<&'a Run<Out>> {
    rep.runs.iter().find(|(a, _)| *a == app).map(|(_, r)| r)
}

/// Virtual TotalTime of each application (max over ranks), in `APPS` order.
fn virtual_of(rep: &Rep) -> [f64; 4] {
    APPS.map(|app| by_app(rep, app).map_or(0.0, |r| max_over(r.values.iter().map(Out::us))))
}

/// Modelled bytes per node of the hybrid windows: Hy_BPMF keeps one copy
/// of both latent matrices per node; Hy_SUMMA keeps one q-slot panel
/// window per row and per column communicator with members on the node
/// (the largest node counts).
fn shm_bytes_per_node() -> [u64; 2] {
    let f64_bytes = std::mem::size_of::<f64>() as u64;
    let data = SyntheticSpec::chembl20_like(DATA_SEED);
    let k = bpmf_config(0).k as u64;
    let bpmf = (data.users + data.items) as u64 * k * f64_bytes;
    let map = simnet::Placement::SmpBlock.build(&cluster_for(SUMMA_Q * SUMMA_Q));
    let panel = (SUMMA_Q * SUMMA_B * SUMMA_B) as u64 * f64_bytes;
    let summa = (0..map.num_nodes())
        .map(|node| {
            let ranks = map.ranks_on(node);
            let mut rows: Vec<usize> = ranks.iter().map(|r| r / SUMMA_Q).collect();
            let mut cols: Vec<usize> = ranks.iter().map(|r| r % SUMMA_Q).collect();
            rows.sort_unstable();
            rows.dedup();
            cols.sort_unstable();
            cols.dedup();
            (rows.len() + cols.len()) as u64 * panel
        })
        .max()
        .unwrap_or(0);
    [bpmf, summa]
}

fn setup_s(rep: &Rep) -> f64 {
    rep.synth_s
        + rep
            .runs
            .iter()
            .map(|(_, r)| r.phase("exec.spawn").host_s)
            .sum::<f64>()
}

fn run_s(rep: &Rep) -> f64 {
    rep.runs.iter().map(|(app, r)| r.phase(app).host_s).sum()
}

pub fn run(b: &mut Bench, trace: bool) -> Report {
    let root = b.spans.open(None, "apps_real");
    let budget = b.budget;
    let mut oracle = None;
    let reps: Vec<Rep> = repeat(budget, MIN_REPS, |_| {
        let (r, data) = rep(b, root, "rep", false);
        b.note_rss();
        let o = oracle.get_or_insert_with(|| oracles(b, root, &data));
        for (app, run) in &r.runs {
            check(b, app, run, o);
        }
        r
    });
    let oracle = oracle.expect("at least one repetition ran");
    let us = reps.first().map_or([0.0; 4], virtual_of);
    for r in &reps {
        let v = virtual_of(r);
        b.check(v == us, || {
            format!("apps_real: virtual figures differ between runs: {v:?} vs {us:?}")
        });
    }

    let mut report = Report::new("pooled");
    report.e2e("setup_s", median(reps.iter().map(setup_s)));
    let timed_s = median(reps.iter().map(run_s));
    report.e2e("run_s", timed_s);
    report.e2e("hy_us", us[0] + us[2]);
    report.e2e("pure_us", us[1] + us[3]);
    let shm = shm_bytes_per_node();
    report.e2e("shm_bytes_per_node", (shm[0] + shm[1]) as f64);
    if !trace {
        b.spans.close(root);
        return report;
    }

    let runs = || reps.iter().flat_map(|r| r.runs.iter().map(|(_, run)| run));
    report.layer(
        "exec.spawn_s",
        median(runs().map(|r| r.phase("exec.spawn").host_s)),
    );
    report.layer("exec.teardown_s", median(runs().map(|r| r.teardown_s)));
    for (k, app) in APPS.into_iter().enumerate() {
        let host = median(
            reps.iter()
                .filter_map(|r| by_app(r, app))
                .map(|r| r.phase(app).host_s),
        );
        report.layer(&format!("app.{app}_s"), host);
        report.layer(&format!("{app}_us"), us[k]);
    }
    report.layer("linalg.serial_bpmf_s", oracle.serial_bpmf_s);
    report.layer("linalg.serial_summa_s", oracle.serial_summa_s);

    let (t, _) = rep(b, root, "rep.traced", true);
    for (app, run) in &t.runs {
        check(b, app, run, &oracle);
    }
    let v = virtual_of(&t);
    b.check(v == us, || {
        format!("apps_real: traced run changed the virtual figures: {v:?} vs {us:?}")
    });
    let traced_s = run_s(&t);
    let mut counts = PhaseCounts::default();
    let mut win = 0;
    for (app, run) in t.runs {
        let traced_win = run.counts.total().win_bytes_per_node();
        let model = match app {
            "bpmf_hy" => shm[0],
            "summa_hy" => shm[1],
            _ => 0,
        };
        b.check(traced_win == model, || {
            format!("{app}: traced window bytes per node {traced_win} vs modelled {model}")
        });
        win = win.max(traced_win);
        counts.merge(run.counts);
    }
    let total = counts.total();
    report.p2p(timed_s, &total);
    report.trace_totals(&total, traced_s / timed_s);
    report.layer("win_bytes_per_node", win as f64);
    b.spans.close(root);
    report
}
