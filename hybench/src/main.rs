//! hybench — the repository's benchmark: end-to-end and per-layer
//! figures of the hybrid MPI+MPI reproduction on both of its clocks,
//! virtual µs and host wall-clock. See `README.md` beside this crate.
//!
//! ```text
//! hybench --workload <hy_allgather_32k|fig9_hy_vs_pure|apps_real>
//!         [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The spans of
//! the run are written to `hybench/out/`.

mod allgather32k;
mod apps;
mod fig9;
mod harness;
mod phase;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use harness::Bench;
use traced::Counts;

/// End-to-end metrics: (name, unit). Every workload reports every one.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hy_us", "vus"),
    ("pure_us", "vus"),
    ("shm_bytes_per_node", "bytes"),
];

/// Per-layer metrics: (name, unit). A layer a workload does not exercise
/// reads 0 there.
const LAYER: &[(&str, &str)] = &[
    ("exec.spawn_s", "s"),
    ("exec.teardown_s", "s"),
    ("exec.peak_threads", "count"),
    ("exec.open_windows", "count"),
    ("setup.hybridcomm_s", "s"),
    ("setup.smpaware_s", "s"),
    ("setup.window_s", "s"),
    ("barrier.tuned_s", "s"),
    ("barrier.dissemination_s", "s"),
    ("trace.decisions", "count"),
    ("hy_allgather.call_ms", "ms"),
    ("hy_bcast.call_ms", "ms"),
    ("pure_allgather.call_ms", "ms"),
    ("pure_bcast.call_ms", "ms"),
    ("hy_allgather_us", "vus"),
    ("hy_bcast_us", "vus"),
    ("pure_allgather_us", "vus"),
    ("pure_bcast_us", "vus"),
    ("hy_allgather.msgs_intra", "count"),
    ("hy_allgather.msgs_inter", "count"),
    ("hy_allgather.bytes_intra", "bytes"),
    ("hy_allgather.bytes_inter", "bytes"),
    ("hy_allgather.copies", "count"),
    ("hy_allgather.copy_bytes", "bytes"),
    ("hy_allgather.barriers", "count"),
    ("hy_bcast.msgs_intra", "count"),
    ("hy_bcast.msgs_inter", "count"),
    ("hy_bcast.bytes_intra", "bytes"),
    ("hy_bcast.bytes_inter", "bytes"),
    ("hy_bcast.copies", "count"),
    ("hy_bcast.copy_bytes", "bytes"),
    ("hy_bcast.barriers", "count"),
    ("pure_allgather.msgs_intra", "count"),
    ("pure_allgather.msgs_inter", "count"),
    ("pure_allgather.bytes_intra", "bytes"),
    ("pure_allgather.bytes_inter", "bytes"),
    ("pure_allgather.copies", "count"),
    ("pure_allgather.copy_bytes", "bytes"),
    ("pure_allgather.barriers", "count"),
    ("pure_bcast.msgs_intra", "count"),
    ("pure_bcast.msgs_inter", "count"),
    ("pure_bcast.bytes_intra", "bytes"),
    ("pure_bcast.bytes_inter", "bytes"),
    ("pure_bcast.copies", "count"),
    ("pure_bcast.copy_bytes", "bytes"),
    ("pure_bcast.barriers", "count"),
    ("p2p.host_us_per_msg", "us"),
    ("copy_bytes", "bytes"),
    ("win_bytes_per_node", "bytes"),
    ("app.bpmf_hy_s", "s"),
    ("app.bpmf_ori_s", "s"),
    ("app.summa_hy_s", "s"),
    ("app.summa_ori_s", "s"),
    ("bpmf_hy_us", "vus"),
    ("bpmf_ori_us", "vus"),
    ("summa_hy_us", "vus"),
    ("summa_ori_us", "vus"),
    ("linalg.serial_bpmf_s", "s"),
    ("linalg.serial_summa_s", "s"),
    ("compute_gflop", "GFLOP"),
    ("trace.events", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a workload measured.
pub struct Report {
    executor: &'static str,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
}

impl Report {
    fn new(executor: &'static str) -> Self {
        Self {
            executor,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
        }
    }

    fn e2e(&mut self, name: &str, value: f64) {
        let (key, _) = E2E
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.e2e.insert(key, value);
    }

    fn layer(&mut self, name: &str, value: f64) {
        let (key, _) = LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layer.insert(key, value);
    }

    /// The traced counts of `calls` calls of one collective, per call.
    fn collective_counts(&mut self, name: &str, c: &Counts, calls: usize) {
        let per_call = |v: u64| v as f64 / calls as f64;
        self.layer(&format!("{name}.msgs_intra"), per_call(c.sends_intra));
        self.layer(&format!("{name}.msgs_inter"), per_call(c.sends_inter));
        self.layer(&format!("{name}.bytes_intra"), per_call(c.send_bytes_intra));
        self.layer(&format!("{name}.bytes_inter"), per_call(c.send_bytes_inter));
        self.layer(&format!("{name}.copies"), per_call(c.copies));
        self.layer(&format!("{name}.copy_bytes"), per_call(c.copy_bytes));
        self.layer(&format!("{name}.barriers"), per_call(c.barriers));
    }

    /// Host µs per point-to-point message: the untraced host seconds of
    /// some phases over the traced `Send` count of the same phases.
    fn p2p(&mut self, host_s: f64, c: &Counts) {
        if c.sends() > 0 {
            self.layer("p2p.host_us_per_msg", host_s * 1e6 / c.sends() as f64);
        }
    }

    /// Whole-run counts of the traced run, and its overhead ratio.
    fn trace_totals(&mut self, total: &Counts, overhead_ratio: f64) {
        self.layer("trace.events", total.events as f64);
        self.layer("trace.decisions", total.decisions as f64);
        self.layer("copy_bytes", total.copy_bytes as f64);
        self.layer("win_bytes_per_node", total.win_bytes_per_node() as f64);
        self.layer("compute_gflop", total.compute_flops / 1e9);
        self.layer("trace.overhead_ratio", overhead_ratio);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// The git revision of the working directory, when it is a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.len() == 40 && rev.bytes().all(|c| c.is_ascii_hexdigit()) {
        rev.into()
    } else {
        "unknown".into()
    }
}

fn json_metrics(values: &BTreeMap<&str, f64>, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hybench: {e}");
            eprintln!(
                "usage: hybench --workload <hy_allgather_32k|fig9_hy_vs_pure|apps_real> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut b = Bench::new(args.seed, Duration::from_secs(args.seconds));
    let mut report = match args.workload.as_str() {
        "hy_allgather_32k" => allgather32k::run(&mut b, args.trace),
        "fig9_hy_vs_pure" => fig9::run(&mut b, args.trace),
        "apps_real" => apps::run(&mut b, args.trace),
        other => {
            eprintln!("hybench: unknown workload {other:?}");
            return ExitCode::FAILURE;
        }
    };
    report.e2e("peak_rss_mb", b.rss_mb.unwrap_or(0.0));
    let (nproc, peak) = (b.nproc, b.peak_threads);
    if args.trace {
        report.layer("exec.peak_threads", peak as f64);
        report.layer("exec.open_windows", b.open_windows as f64);
    }
    for (name, _) in E2E {
        b.check(report.e2e.get(name).is_some_and(|v| *v > 0.0), || {
            format!("end-to-end metric {name} was not measured")
        });
    }

    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {nproc}, \
         \"profile\": \"{}\", \"git_revision\": \"{}\", \"executor\": \"{}\", \"peak_threads\": {peak}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision(),
        report.executor,
    );
    let dir = std::path::Path::new("hybench/out");
    let file = dir.join(format!(
        "spans-{}-seed{}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, format!("{provenance}\n{}", b.spans.to_json_lines())));
    if let Err(e) = written {
        eprintln!("hybench: cannot write {}: {e}", file.display());
    }

    let metrics = if args.trace {
        json_metrics(&report.layer, LAYER)
    } else {
        json_metrics(&report.e2e, E2E)
    };
    println!("provenance: {provenance}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        b.failed == 0,
        b.attempted,
        b.failed
    );
    ExitCode::SUCCESS
}
