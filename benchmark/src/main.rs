//! The mtvar benchmark: four workloads driven through the public API of
//! `mtvar-sim`, `mtvar-core` and `mtvar-serve`, with the end-to-end metrics
//! measured untraced and the per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload oltp16_long --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Progress and the host record go to stderr and to `bench-out/`; the last
//! line on stdout is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. See `benchmark/README.md` for what each
//! workload and metric measures.

mod hostspeed;
mod kernel;
mod probe;
mod served;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use util::BenchResult;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;
/// The held-out seed: used only to check a claim made on the default seed.
pub const HELD_OUT_SEED: u64 = 1042;

/// Folded digest of each workload's simulated output (`run_digest` of every
/// run, folded in a fixed order), recorded for the default and the held-out
/// seed. Host time is the only quantity a run may change; a change to any
/// of these is a change to the simulated results, and fails the gate.
const PINNED: [(&str, u64, u64); 8] = [
    ("oltp16_long", DEFAULT_SEED, 0x9dfa_78ef_4861_c984),
    ("oltp16_long", HELD_OUT_SEED, 0x5bc9_9c6c_c46b_fc16),
    ("oltp16_forks", DEFAULT_SEED, 0xafc4_2447_6869_bbdb),
    ("oltp16_forks", HELD_OUT_SEED, 0x6946_0f48_090b_825d),
    ("dir64_sweep", DEFAULT_SEED, 0xaee1_5f01_8170_dc72),
    ("dir64_sweep", HELD_OUT_SEED, 0xfb17_3eb5_cd30_5403),
    ("served_mix", DEFAULT_SEED, 0x1570_3f56_db22_3b9d),
    ("served_mix", HELD_OUT_SEED, 0x154a_3516_1063_f564),
];

/// Fails if `digest` differs from the one recorded for `(workload, seed)`;
/// seeds without a record pass (their gate is agreement between paths).
pub fn check_pinned(workload: &str, seed: u64, digest: u64) -> BenchResult<()> {
    eprintln!("{workload}: output digest {digest:#018x} for seed {seed}");
    match PINNED.iter().find(|(w, s, _)| *w == workload && *s == seed) {
        Some((_, _, pinned)) if *pinned != digest => Err(format!(
            "{workload} seed {seed}: output digest {digest:#018x} differs from the recorded \
             {pinned:#018x}"
        )),
        _ => Ok(()),
    }
}

/// Folds run digests in order (the construction the served protocol uses).
pub fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(0, |acc, d| acc.rotate_left(7) ^ d)
}

/// Directory (relative to the working directory) for spans, the host
/// record and the daemon's socket.
pub const OUT_DIR: &str = "bench-out";

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workloads.build_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.txns", "count"),
    ("sim.l2_misses", "count"),
    ("sim.cache_to_cache", "count"),
    ("sim.memory_fetches", "count"),
    ("sim.invalidations", "count"),
    ("sim.dispatches", "count"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.payload_bytes", "bytes"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.fork_us", "us"),
    ("ckpt.cow_ms", "ms"),
    ("arena.hit_ratio", "ratio"),
    ("arena.pooled_mb", "MiB"),
    ("runspace.sweep_ms", "ms"),
    ("runspace.prerun_ms", "ms"),
    ("runspace.run_ms", "ms"),
    ("runspace.pool_busy", "ratio"),
    ("runspace.tail_ms", "ms"),
    ("runspace.cached_runs", "count"),
    ("store.warm_ms", "ms"),
    ("store.hits", "count"),
    ("store.prefix_extends", "count"),
    ("store.misses", "count"),
    ("store.entries", "count"),
    ("serve.stats_rtt_ms", "ms"),
    ("serve.start_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_leaders", "count"),
    ("serve.coalesce_followers", "count"),
    ("serve.pair_overlap", "ratio"),
    ("serve.rejected", "count"),
    ("self.workloads_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.ckpt_ms", "ms"),
    ("self.runspace_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("untraced_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.reconcile_err", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The four workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["oltp16_long", "oltp16_forks", "dir64_sweep", "served_mix"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

/// Metric values by name, with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value`, with the unit the metric tables declare.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.insert(name, (value, unit));
    }

    /// Whether `name` has a value.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Adds every metric of `other` that `self` lacks.
    pub fn merge_missing(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            self.0.entry(name).or_insert(value);
        }
    }

    /// Whether any metric starting with `prefix` has a value.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.0.keys().any(|k| k.starts_with(prefix))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations in the timed region (repetitions, sweeps or jobs).
    pub attempted: u64,
    /// Of those, operations that failed (rejections, failed jobs,
    /// disconnects, simulator errors).
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Thread counts actually used, for the host record.
    pub threads: Vec<(&'static str, usize)>,
    /// Samples behind `job_p50_ms` and `job_p95_ms`.
    pub latency_samples: usize,
    /// Median host factor of the timed operations (0 where the timings are
    /// raw): a raw timing is the reported one times its factor.
    pub host_factor: f64,
}

fn parse_args() -> BenchResult<Opts> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => opts.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

/// The host and provenance record printed with every result.
fn host_record(opts: &Opts, report: &Report) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim())
        .unwrap_or("unknown");
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut threads = String::new();
    for (i, (name, n)) in report.threads.iter().enumerate() {
        let _ = write!(threads, "{}\"{name}\": {n}", if i == 0 { "" } else { ", " });
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \"threads\": {{{threads}}}, \
         \"job_latency_samples\": {}, \"host_factor\": {:.4}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        cpu_model.replace('"', "'"),
        env!("BENCH_RUSTC_VERSION"),
        env!("BENCH_GIT_COMMIT"),
        report.latency_samples,
        report.host_factor,
    )
}

/// The result line; printed only after the correctness gate passed.
fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, (value, unit))) in report.metrics.0.iter().enumerate() {
        // Non-finite values (a latency every sample of which failed) are
        // written as a huge finite number so the line stays valid JSON.
        let v = if value.is_finite() { *value } else { f64::MAX };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

fn run(opts: &Opts) -> BenchResult<Report> {
    std::fs::create_dir_all(OUT_DIR).map_err(util::ctx("create bench-out"))?;
    let tracer = trace::Tracer::new(opts.trace);
    let mut report = match opts.workload.as_str() {
        "oltp16_long" => kernel::run(opts, &tracer)?,
        "oltp16_forks" => sweep::run_forks(opts, &tracer)?,
        "dir64_sweep" => sweep::run_dir64(opts, &tracer)?,
        "served_mix" => served::run(opts, &tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if opts.trace {
        probe::fill_missing_layers(opts, &tracer, &mut report.metrics)?;
        let attribution = trace::attribute(&tracer.spans());
        if !attribution.unreconciled.is_empty() {
            return Err(format!(
                "phase reconciliation failed (tolerance {:.0}% or {} ms): {}",
                trace::RECONCILE_TOLERANCE * 100.0,
                trace::RECONCILE_FLOOR_MS,
                attribution.unreconciled.join("; ")
            ));
        }
        let m = &mut report.metrics;
        m.put("self.workloads_ms", attribution.layer("workloads"));
        m.put("self.sim_ms", attribution.layer("sim"));
        m.put("self.ckpt_ms", attribution.layer("ckpt"));
        m.put("self.runspace_ms", attribution.layer("runspace"));
        m.put("self.store_ms", attribution.layer("store"));
        m.put("self.serve_ms", attribution.layer("serve"));
        m.put("untraced_ms", attribution.untraced_ms);
        m.put("trace.wall_ms", attribution.wall_ms);
        m.put("trace.reconcile_err", attribution.worst_error);
        let spans =
            PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.json", opts.workload, opts.seed));
        tracer
            .write_json(&spans)
            .map_err(util::ctx("write spans"))?;
        eprintln!("spans written to {}", spans.display());
    }
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = wanted
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !report.metrics.has(n))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    report
        .metrics
        .0
        .retain(|name, _| wanted.iter().any(|(n, _)| n == name));
    Ok(report)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            let host = host_record(&opts, &report);
            let _ = std::fs::write(
                PathBuf::from(OUT_DIR)
                    .join(format!("host-{}-seed{}.json", opts.workload, opts.seed)),
                format!("{host}\n"),
            );
            println!("host: {host}");
            println!("{}", result_line(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            // A failed correctness gate or a broken run fails the benchmark;
            // nothing is printed that could be read as a result.
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
