//! Per-layer measurements shared by the workloads' traced runs: the
//! simulated work counts, the checkpoint probes (encode, decode, fork and
//! first-write copy on a workload's own warmed machine), and the small
//! probes that fill the layers a workload does not call itself.

use mtvar_core::golden::run_digest;
use mtvar_sim::checkpoint::Snap;
use mtvar_sim::machine::Machine;
use mtvar_sim::mem::arena;
use mtvar_sim::stats::RunResult;
use mtvar_sim::workload::Workload;

use crate::trace::Tracer;
use crate::util::{ctx, median, ms, timed, BenchResult};
use crate::{served, sweep, Metrics, Opts};

/// Repetitions of each checkpoint probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Forks timed per probe repetition.
const PROBE_FORKS: usize = 8;
/// Transactions run on a fresh fork and on an owned restore to isolate the
/// first-write copy cost.
const COW_TXNS: u64 = 10;
/// Perturbation for the copy probe (any value; both arms use the same).
const COW_PERTURBATION: (u64, u64) = (4, 7);

/// Simulated work counts summed over measured runs. They depend only on
/// the inputs, so they must repeat exactly; they are the denominators for
/// host time per unit of simulated work.
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkCounts {
    l2_misses: u64,
    cache_to_cache: u64,
    memory_fetches: u64,
    invalidations: u64,
    dispatches: u64,
}

impl WorkCounts {
    /// Adds one run's counters.
    pub fn add(&mut self, r: &RunResult) {
        self.l2_misses += r.mem.l2_misses;
        self.cache_to_cache += r.mem.cache_to_cache;
        self.memory_fetches += r.mem.memory_fetches;
        self.invalidations += r.mem.invalidations;
        self.dispatches += r.sched.dispatches;
    }

    /// Adds another sum.
    pub fn add_counts(&mut self, o: &WorkCounts) {
        self.l2_misses += o.l2_misses;
        self.cache_to_cache += o.cache_to_cache;
        self.memory_fetches += o.memory_fetches;
        self.invalidations += o.invalidations;
        self.dispatches += o.dispatches;
    }
}

/// Puts the `sim.*` counts: `events` and `txns` simulated in `run_ms` of
/// host time, doing `w` work.
pub fn put_sim_counts(m: &mut Metrics, events: u64, run_ms: f64, txns: u64, w: &WorkCounts) {
    m.put("sim.events", events as f64);
    m.put(
        "sim.ns_per_event",
        if events > 0 {
            run_ms * 1e6 / events as f64
        } else {
            0.0
        },
    );
    m.put("sim.txns", txns as f64);
    m.put("sim.l2_misses", w.l2_misses as f64);
    m.put("sim.cache_to_cache", w.cache_to_cache as f64);
    m.put("sim.memory_fetches", w.memory_fetches as f64);
    m.put("sim.invalidations", w.invalidations as f64);
    m.put("sim.dispatches", w.dispatches as f64);
}

/// Times the checkpoint layer on `machine` (a workload's own warmed
/// machine): `Machine::snapshot`, `Machine::restore_with_threads` at
/// `threads`, `Machine::fork`, and the first-write copy — the first
/// `COW_TXNS` transactions on a fresh fork minus the same transactions on a
/// machine that owns its arrays. The two arms must agree bit for bit.
pub fn ckpt_probe<W>(
    tracer: &Tracer,
    group: u64,
    machine: &Machine<W>,
    threads: usize,
    m: &mut Metrics,
) -> BenchResult<()>
where
    W: Workload + Snap + Clone,
{
    let arena_before = arena::stats();
    let mut fork_us = Vec::new();
    let mut fresh_ms = Vec::new();
    let mut owned_ms = Vec::new();
    let mut payload = 0usize;
    tracer.span("bench.ckpt_probe", None, group, |root| -> BenchResult<()> {
        for _ in 0..PROBE_REPS {
            let ck = tracer.span("ckpt.encode", root, group, |_| machine.snapshot());
            payload = ck.len();
            let template = tracer
                .span("ckpt.decode", root, group, |_| {
                    Machine::<W>::restore_with_threads(&ck, threads)
                })
                .map_err(ctx("decode"))?;
            for _ in 0..PROBE_FORKS {
                let (fork, t) =
                    timed(|| tracer.span("ckpt.fork", root, group, |_| template.fork()));
                fork_us.push(t.as_secs_f64() * 1e6);
                drop(std::hint::black_box(fork));
            }
            let mut fresh = template.fork();
            fresh.set_perturbation(COW_PERTURBATION.0, COW_PERTURBATION.1);
            let (a, t_fresh) = timed(|| {
                tracer.span("sim.cow_fresh_fork", root, group, |_| {
                    fresh.run_transactions(COW_TXNS)
                })
            });
            drop(template);
            drop(fresh);
            let mut owned = tracer
                .span("ckpt.restore", root, group, |_| Machine::<W>::restore(&ck))
                .map_err(ctx("restore"))?;
            owned.set_perturbation(COW_PERTURBATION.0, COW_PERTURBATION.1);
            let (b, t_owned) = timed(|| {
                tracer.span("sim.cow_owned", root, group, |_| {
                    owned.run_transactions(COW_TXNS)
                })
            });
            let (a, b) = (a.map_err(ctx("fork run"))?, b.map_err(ctx("owned run"))?);
            if run_digest(&a) != run_digest(&b) {
                return Err("a fresh fork and an owned restore diverged".into());
            }
            fresh_ms.push(ms(t_fresh));
            owned_ms.push(ms(t_owned));
        }
        Ok(())
    })?;
    let arena_after = arena::stats();
    m.put(
        "ckpt.encode_ms",
        median(&tracer.durations_ms("ckpt.encode")),
    );
    m.put("ckpt.payload_bytes", payload as f64);
    m.put(
        "ckpt.decode_ms",
        median(&tracer.durations_ms("ckpt.decode")),
    );
    m.put("ckpt.fork_us", median(&fork_us));
    m.put("ckpt.cow_ms", median(&fresh_ms) - median(&owned_ms));
    if !m.has("arena.hit_ratio") {
        let takes = arena_after.takes - arena_before.takes;
        let hits = arena_after.hits - arena_before.hits;
        m.put(
            "arena.hit_ratio",
            if takes > 0 {
                hits as f64 / takes as f64
            } else {
                0.0
            },
        );
        m.put(
            "arena.pooled_mb",
            arena_after.pooled_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(())
}

/// Fills the layers the workload's traced run did not reach with the
/// smallest traced pass of a workload that does call them.
pub fn fill_missing_layers(opts: &Opts, tracer: &Tracer, m: &mut Metrics) -> BenchResult<()> {
    let mut probed = Metrics::default();
    if !m.has_prefix("runspace.") || !m.has_prefix("store.") {
        sweep::probe(tracer, &mut probed)?;
    }
    if !m.has_prefix("serve.") {
        served::probe(opts, tracer, &mut probed)?;
    }
    m.merge_missing(probed);
    Ok(())
}
