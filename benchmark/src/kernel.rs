//! `oltp16_long`: one fresh paper machine per repetition, warmed up
//! untimed, then a long measured stretch of back-to-back
//! `Machine::run_transactions` intervals. All host time goes to the
//! simulation kernel; no executor, store, decode, fork or daemon runs in
//! the timed region. Each interval is one job: the caller waits on one
//! `run_transactions` call, so a run yields hundreds of latency samples.
//! A host-speed sample follows every fifth interval; every timing is
//! reported at the reference host speed (see `hostspeed`).

use std::time::Duration;

use mtvar_core::golden::run_digest;
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_sim::stats::RunResult;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

use crate::hostspeed::HostSpeed;
use crate::probe::{self, WorkCounts};
use crate::trace::Tracer;
use crate::util::{
    ctx, median, ms, peak_rss_mb, percentile, reset_peak_rss, timed, BenchResult, Budget,
};
use crate::{check_pinned, fold, Opts, Report};

/// CPUs of the paper machine.
const CPUS: usize = 16;
/// Untimed warmup transactions before each repetition's measured stretch.
const WARMUP_TXNS: u64 = 500;
/// Measured intervals per repetition, run back to back.
const INTERVALS: usize = 25;
/// Transactions in each measured interval.
const INTERVAL_TXNS: u64 = 200;
/// Transactions measured per repetition.
const MEASURE_TXNS: u64 = INTERVALS as u64 * INTERVAL_TXNS;
/// Intervals between host-speed samples, and timed slices per sample.
const SPEED_EVERY: usize = 5;
const SPEED_SLICES: u32 = 2;
/// §3.3 perturbation magnitude in ns.
const PERTURBATION_NS: u64 = 4;

fn config(seed: u64) -> MachineConfig {
    MachineConfig::hpca2003().with_perturbation(PERTURBATION_NS, seed)
}

/// One repetition: its set-up time, each measured interval's host time,
/// the events of the whole stretch, each interval's result, and the host
/// factors sampled between the intervals.
struct Rep {
    setup: Duration,
    intervals: Vec<Duration>,
    events: u64,
    results: Vec<RunResult>,
    factors: Vec<f64>,
}

impl Rep {
    fn measured(&self) -> Duration {
        self.intervals.iter().sum()
    }
}

/// The measured stretch on `machine`: [`INTERVALS`] calls of
/// [`INTERVAL_TXNS`] transactions, with each call's host time, and a
/// host-speed sample after every [`SPEED_EVERY`]th when `speed` is given.
fn measure(
    machine: &mut Machine<ProfiledWorkload>,
    mut speed: Option<&mut HostSpeed>,
) -> BenchResult<(Vec<RunResult>, Vec<Duration>, Vec<f64>)> {
    let mut results = Vec::with_capacity(INTERVALS);
    let mut intervals = Vec::with_capacity(INTERVALS);
    let mut factors = Vec::with_capacity(INTERVALS / SPEED_EVERY);
    for i in 1..=INTERVALS {
        let (result, took) =
            timed(|| machine.run_transactions(std::hint::black_box(INTERVAL_TXNS)));
        results.push(std::hint::black_box(
            result.map_err(ctx("measured interval"))?,
        ));
        intervals.push(took);
        if let Some(speed) = speed.as_deref_mut().filter(|_| i % SPEED_EVERY == 0) {
            factors.push(speed.factor(SPEED_SLICES));
        }
    }
    Ok((results, intervals, factors))
}

/// Folded digest of a stretch's interval results.
fn digest(results: &[RunResult]) -> u64 {
    fold(results.iter().map(run_digest))
}

/// A fresh machine of the paper configuration, warmed up.
fn warmed(
    seed: u64,
    tracer: &Tracer,
    root: Option<u64>,
    group: u64,
) -> BenchResult<Machine<ProfiledWorkload>> {
    let workload = tracer.span("workloads.build", root, group, |_| {
        Benchmark::Oltp.workload(CPUS, seed)
    });
    let mut machine = tracer
        .span("sim.new", root, group, |_| {
            Machine::new(config(seed), workload)
        })
        .map_err(ctx("build machine"))?;
    tracer
        .span("sim.warmup", root, group, |_| {
            machine.run_transactions(WARMUP_TXNS)
        })
        .map_err(ctx("warmup"))?;
    Ok(machine)
}

/// One repetition. With `speed` it samples the host speed between
/// intervals (outside every span).
fn rep(seed: u64, tracer: &Tracer, group: u64, speed: Option<&mut HostSpeed>) -> BenchResult<Rep> {
    tracer.span("bench.rep", None, group, |root| {
        let (machine, setup) = timed(|| warmed(seed, tracer, root, group));
        let mut machine = machine?;
        let events0 = machine.events_posted();
        let (results, intervals, factors) =
            tracer.span("sim.run", root, group, |_| measure(&mut machine, speed))?;
        Ok(Rep {
            setup,
            intervals,
            events: machine.events_posted() - events0,
            results,
            factors,
        })
    })
}

/// Runs the workload; see the module docs.
pub fn run(opts: &Opts, tracer: &Tracer) -> BenchResult<Report> {
    let untraced = Tracer::new(false);
    let mut speed = HostSpeed::new(1);
    let mut budget = Budget::new(opts.seconds, 5);
    let mut setups = Vec::new();
    let mut intervals_ms = Vec::new();
    let mut stretches_ms = Vec::new();
    let mut rates = Vec::new();
    let mut traced_wall = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut peaks = Vec::new();
    let mut factors = Vec::new();
    let mut first: Option<(u64, u64, Vec<RunResult>)> = None;
    let mut index = 0u64;
    while budget.more() {
        // The traced run alternates traced and untraced repetitions so the
        // difference between them is the tracing overhead.
        let traced = opts.trace && index % 2 == 1;
        let t = if traced { tracer } else { &untraced };
        reset_peak_rss();
        // Host-speed samples run between intervals and evict part of the
        // machine's working set, so the traced run, which compares traced
        // and untraced repetitions and reports no end-to-end metric, takes
        // none.
        let r = rep(opts.seed, t, index, (!opts.trace).then_some(&mut speed))?;
        budget.charge(r.measured());
        let digest = digest(&r.results);
        match &first {
            None => first = Some((digest, r.events, r.results.clone())),
            Some((d, e, _)) if *d != digest || *e != r.events => {
                return Err(format!(
                    "repetition {index} diverged: digest {digest:#x} events {} vs {d:#x} / {e}",
                    r.events
                ));
            }
            Some(_) => {}
        }
        let wall = ms(r.setup + r.measured());
        index += 1;
        if traced {
            traced_wall.push(wall);
            continue;
        }
        untraced_wall.push(wall);
        peaks.push(peak_rss_mb());
        // Timings at the reference host speed: each divided by the
        // repetition's host factor (the median of its samples; 1 on the
        // traced run, which takes none).
        let f = if r.factors.is_empty() {
            1.0
        } else {
            median(&r.factors)
        };
        factors.extend((!r.factors.is_empty()).then_some(f));
        setups.push(r.setup.as_secs_f64() / f);
        stretches_ms.push(ms(r.measured()) / f);
        intervals_ms.extend(r.intervals.iter().map(|d| ms(*d) / f));
        rates.push(r.events as f64 / r.measured().as_secs_f64() * f);
    }
    let (digest, events, results) = first.ok_or("no repetition ran")?;
    gate(opts.seed, digest, events)?;
    eprintln!(
        "oltp16_long: {} repetitions of {INTERVALS} x {INTERVAL_TXNS} txns, {events} events each, \
         digest {digest:#018x}, median host factor {:.3}",
        stretches_ms.len(),
        median(&factors)
    );

    let mut report = Report {
        attempted: ((stretches_ms.len() + traced_wall.len()) * INTERVALS) as u64,
        failed: 0,
        threads: vec![("simulation", 1)],
        latency_samples: intervals_ms.len(),
        host_factor: median(&factors),
        ..Report::default()
    };
    let m = &mut report.metrics;
    if !opts.trace {
        let rate = median(&rates);
        m.put("setup_s", median(&setups));
        m.put("events_per_s", rate);
        // Each interval is one measured run, and the caller waits on one
        // `run_transactions` call: runs and jobs coincide here.
        let per_s = INTERVALS as f64 * 1e3 / median(&stretches_ms);
        m.put("runs_per_s", per_s);
        m.put("jobs_per_s", per_s);
        m.put("job_p50_ms", median(&intervals_ms));
        m.put("job_p95_ms", percentile(&intervals_ms, 95.0));
        m.put("peak_rss_mb", median(&peaks));
        return Ok(report);
    }
    m.put(
        "workloads.build_ms",
        median(&tracer.durations_ms("workloads.build")),
    );
    let run_ms = median(&tracer.durations_ms("sim.run"));
    m.put("sim.run_s", run_ms / 1e3);
    let mut work = WorkCounts::default();
    for result in &results {
        work.add(result);
    }
    probe::put_sim_counts(m, events, run_ms, MEASURE_TXNS, &work);
    m.put(
        "trace.overhead_pct",
        (median(&traced_wall) / median(&untraced_wall) - 1.0) * 100.0,
    );
    let machine = warmed(opts.seed, &untraced, None, 0)?;
    probe::ckpt_probe(tracer, u64::MAX, &machine, 1, m)?;
    Ok(report)
}

/// The correctness gate: the interval must match the digest recorded for
/// this seed (when one is), and a machine restored from a snapshot of the
/// warmed state must reproduce it exactly.
fn gate(seed: u64, digest: u64, events: u64) -> BenchResult<()> {
    check_pinned("oltp16_long", seed, digest)?;
    let live = warmed(seed, &Tracer::new(false), None, 0)?;
    let mut restored: Machine<ProfiledWorkload> =
        Machine::restore(&live.snapshot()).map_err(ctx("restore"))?;
    let events0 = restored.events_posted();
    let (replay, _, _) = measure(&mut restored, None)?;
    let replay_events = restored.events_posted() - events0;
    let replayed = self::digest(&replay);
    if replayed != digest || replay_events != events {
        return Err(format!(
            "restored replay diverged: digest {replayed:#x} events {replay_events} vs \
             {digest:#x} / {events}"
        ));
    }
    Ok(())
}
