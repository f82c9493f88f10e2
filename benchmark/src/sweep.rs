//! The two batch sweeps through the `Executor`:
//!
//! * `oltp16_forks` — the §5.2 time-sampling sweep
//!   (`timesample::sweep_positions_with`) on 16-CPU OLTP with ROB-32 cores:
//!   many warmup positions × several perturbed runs × short intervals, a
//!   fresh `CheckpointStore` per timed pass and no result cache, so the
//!   launch path (prefix extension, snapshot, decode, fork, first-write
//!   copy) is a large share of the time.
//! * `dir64_sweep` — `Executor::run_space` with shared warmup on the 64-CPU
//!   directory machine: the only workload that runs `mem::directory`, and
//!   one whose 5 MB snapshot is twice the 16-CPU one.
//!
//! `dir64_sweep` runs at host parallelism. `oltp16_forks` runs on one
//! executor thread: at two, each call's scoped workers start with empty
//! thread-local decode arenas, and how many of their buffers must be
//! faulted in again varies between processes by a factor of ten, which
//! made the pass time bimodal between runs of the same code (the pool is
//! measured on `dir64_sweep` and `served_mix`). On `oltp16_forks` a
//! host-speed sample brackets every timed operation, and every end-to-end
//! timing is reported at the reference host speed (see `hostspeed`).
//! `dir64_sweep` reports raw timings: much of its pass time is page faults
//! on fresh arrays, which the reference work does not track, and scaling
//! by the host factor made its spread no smaller. The correctness gate re-runs a sweep on
//! `Executor::sequential()` and replays every run through the public
//! `Machine` API; all three must agree run for run. The replay also counts
//! the simulated events behind `events_per_s`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use mtvar_core::checkpoint::{CheckpointKey, CheckpointStore};
use mtvar_core::golden::run_digest;
use mtvar_core::runspace::{
    config_fingerprint, derive_run_seed, workload_fingerprint, Executor, RunPlan, RunProgress,
    RunSpace,
};
use mtvar_core::timesample::sweep_positions_with;
use mtvar_sim::checkpoint::{Checkpoint, Snap};
use mtvar_sim::config::MachineConfig;
use mtvar_sim::machine::Machine;
use mtvar_sim::mem::arena::{self, ArenaStats};
use mtvar_sim::proc::{OooConfig, ProcessorConfig};
use mtvar_sim::stats::RunResult;
use mtvar_sim::workload::Workload;
use mtvar_workloads::profile::ProfiledWorkload;
use mtvar_workloads::Benchmark;

use crate::hostspeed::Bracket;
use crate::probe::{self, WorkCounts};
use crate::trace::{SpanId, Tracer};
use crate::util::{
    ctx, median, ms, peak_rss_mb, percentile, reset_peak_rss, timed, BenchResult, Budget,
};
use crate::{check_pinned, fold, Metrics, Opts, Report};

/// §3.3 perturbation magnitude in ns, for both sweeps.
const PERTURBATION_NS: u64 = 4;

/// `oltp16_forks`: warmup positions (in transactions) are `1..=POSITIONS`
/// times `SPACING`; the timed sweeps run on `FORKS_THREADS` threads.
const FORKS_POSITIONS: u64 = 10;
const FORKS_SPACING: u64 = 100;
const FORKS_RUNS: usize = 8;
const FORKS_TXNS: u64 = 20;
const FORKS_THREADS: usize = 1;

/// `dir64_sweep`: shared warmup, then perturbed runs forked from it.
const DIR_CPUS: usize = 64;
const DIR_WARMUP: u64 = 3000;
const DIR_RUNS: usize = 8;
const DIR_TXNS: u64 = 200;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Host-speed slices per sample between `oltp16_forks` operations.
const SPEED_SLICES: u32 = 8;

/// Mirrors the domain separator `Executor::run_space` XORs into the
/// configuration fingerprint to seed shared-warmup runs. The replay below
/// derives its seeds from it; the gate then demands the replay's digests
/// equal the executor's, so a disagreement fails loudly instead of
/// miscounting events.
pub(crate) const SHARED_WARMUP_DOMAIN: u64 = 0x5EED_C4EC_4901_4B75;

fn forks_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_processor(ProcessorConfig::OutOfOrder(OooConfig::with_rob_size(32)))
        .with_perturbation(PERTURBATION_NS, 0)
}

fn forks_positions() -> Vec<u64> {
    (1..=FORKS_POSITIONS).map(|i| i * FORKS_SPACING).collect()
}

fn dir_config() -> MachineConfig {
    MachineConfig::hpca2003()
        .with_cpus(DIR_CPUS)
        .with_directory_coherence()
        .with_perturbation(PERTURBATION_NS, 0)
}

// ---------------------------------------------------------------------------
// Observation
// ---------------------------------------------------------------------------

/// Benchmark-owned `RunProgress` observer: per-run start/end instants,
/// digests keyed by `(measurement start cycle, run index)`, cache replays,
/// and the arena counters of every worker thread.
struct Observer {
    main: ThreadId,
    state: Mutex<ObserverState>,
}

#[derive(Default)]
struct ObserverState {
    started: HashMap<usize, Instant>,
    runs: Vec<(Instant, Instant)>,
    cached: u64,
    digests: BTreeMap<(u64, usize), u64>,
    worker_arenas: HashMap<ThreadId, ArenaStats>,
}

impl Observer {
    fn new() -> Arc<Self> {
        Arc::new(Observer {
            main: std::thread::current().id(),
            state: Mutex::new(ObserverState::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ObserverState> {
        self.state.lock().expect("observer poisoned")
    }

    fn digests(&self) -> BTreeMap<(u64, usize), u64> {
        self.lock().digests.clone()
    }

    /// Host time (ms) of each run since the last call, from `run_started`
    /// to `run_completed`: a run's fork, first-write copies and simulation.
    fn take_run_ms(&self) -> Vec<f64> {
        let mut s = self.lock();
        s.worker_arenas.clear();
        s.runs.drain(..).map(|(a, b)| ms(b - a)).collect()
    }
}

impl RunProgress for Observer {
    fn run_started(&self, run_index: usize) {
        let now = Instant::now();
        self.lock().started.insert(run_index, now);
    }

    fn run_completed(&self, run_index: usize, _wall: Duration) {
        let now = Instant::now();
        // Workers are scoped to one sweep, so the last reading of each
        // worker's thread-local arena is that worker's total.
        let worker = std::thread::current().id();
        let arena = (worker != self.main).then(arena::stats);
        let mut s = self.lock();
        if let Some(start) = s.started.remove(&run_index) {
            s.runs.push((start, now));
        }
        if let Some(a) = arena {
            s.worker_arenas.insert(worker, a);
        }
    }

    fn run_result(&self, run_index: usize, result: &RunResult) {
        let digest = run_digest(result);
        self.lock()
            .digests
            .insert((result.start_cycle, run_index), digest);
    }

    fn run_cached(&self, _run_index: usize) {
        self.lock().cached += 1;
    }
}

/// Per-call runspace timings gathered over the traced passes.
#[derive(Default)]
struct RunspaceStats {
    sweep_ms: Vec<f64>,
    prerun_ms: Vec<f64>,
    run_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    busy_ms: f64,
    wall_ms: f64,
    cached: u64,
    /// Arena takes and hits on the call-scoped worker threads.
    worker_takes: u64,
    worker_hits: u64,
    /// Largest total parked in one call's workers before they exited.
    worker_pooled_max: usize,
}

/// Calls `f` (one executor call) inside a `runspace.sweep` span and turns
/// the observer's run instants into child spans and runspace timings.
fn observed_call<T>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    group: u64,
    observer: &Observer,
    threads: usize,
    stats: &mut RunspaceStats,
    f: impl FnOnce() -> T,
) -> T {
    let call = Instant::now();
    let out = f();
    let ret = Instant::now();
    let (runs, cached, arenas) = {
        let mut s = observer.lock();
        (
            std::mem::take(&mut s.runs),
            std::mem::take(&mut s.cached),
            std::mem::take(&mut s.worker_arenas),
        )
    };
    stats.worker_takes += arenas.values().map(|a| a.takes).sum::<u64>();
    stats.worker_hits += arenas.values().map(|a| a.hits).sum::<u64>();
    stats.worker_pooled_max = stats
        .worker_pooled_max
        .max(arenas.values().map(|a| a.pooled_bytes).sum());
    let id = tracer.record("runspace.sweep", parent, group, call, ret);
    for &(start, end) in &runs {
        // The run span covers fork, first-write copies and simulation.
        tracer.record("sim.fork_run", id, group, start, end);
    }
    let wall = ms(ret - call);
    stats.sweep_ms.push(wall);
    stats.wall_ms += wall * threads as f64;
    stats.cached += cached;
    if let (Some(first), Some(last)) = (
        runs.iter().map(|r| r.0).min(),
        runs.iter().map(|r| r.1).max(),
    ) {
        stats.prerun_ms.push(ms(first - call));
        stats.tail_ms.push(ms(ret - last));
    }
    for &(start, end) in &runs {
        stats.run_ms.push(ms(end - start));
        stats.busy_ms += ms(end - start);
    }
    out
}

/// Store lookups classified before each `warm_checkpoint` call.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct StoreCounts {
    hits: u64,
    prefix_extends: u64,
    misses: u64,
}

fn classify(store: &CheckpointStore, key: &CheckpointKey, counts: &mut StoreCounts) {
    if store.get(key).is_some() {
        counts.hits += 1;
    } else if store.longest_prefix(key).is_some() {
        counts.prefix_extends += 1;
    } else {
        counts.misses += 1;
    }
}

fn store_key<W: Workload>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    group: u64,
    config: &MachineConfig,
    make: &impl Fn() -> W,
    base_seed: u64,
    warmup: u64,
) -> CheckpointKey {
    CheckpointKey {
        config: config_fingerprint(&config.clone().with_perturbation(0, 0)),
        workload: tracer.span("workloads.build", parent, group, |_| {
            workload_fingerprint(&mut make())
        }),
        base_seed,
        warmup,
    }
}

/// Everything the traced passes leave behind for the per-layer metrics.
struct TracedPasses {
    runspace: RunspaceStats,
    store: Option<StoreCounts>,
    store_entries: usize,
    arena_main: (ArenaStats, ArenaStats),
    observer: Arc<Observer>,
}

impl TracedPasses {
    fn new() -> Self {
        TracedPasses {
            runspace: RunspaceStats::default(),
            store: None,
            store_entries: 0,
            arena_main: (arena::stats(), arena::stats()),
            observer: Observer::new(),
        }
    }

    fn put(&self, m: &mut Metrics) {
        let r = &self.runspace;
        m.put("runspace.sweep_ms", median(&r.sweep_ms));
        m.put("runspace.prerun_ms", median(&r.prerun_ms));
        m.put("runspace.run_ms", median(&r.run_ms));
        m.put(
            "runspace.pool_busy",
            if r.wall_ms > 0.0 {
                r.busy_ms / r.wall_ms
            } else {
                0.0
            },
        );
        m.put("runspace.tail_ms", median(&r.tail_ms));
        m.put("runspace.cached_runs", r.cached as f64);
        let s = self.store.unwrap_or_default();
        m.put("store.hits", s.hits as f64);
        m.put("store.prefix_extends", s.prefix_extends as f64);
        m.put("store.misses", s.misses as f64);
        m.put("store.entries", self.store_entries as f64);
        // Arena: the calling thread's delta over the traced passes plus the
        // totals of the call-scoped workers (with one thread the runs execute
        // on the calling thread, and no worker is recorded). Pooled memory is
        // the calling thread's pools plus the fullest call's workers' pools.
        let (before, after) = self.arena_main;
        let takes = after.takes - before.takes + r.worker_takes;
        let hits = after.hits - before.hits + r.worker_hits;
        let pooled = after.pooled_bytes + r.worker_pooled_max;
        m.put(
            "arena.hit_ratio",
            if takes > 0 {
                hits as f64 / takes as f64
            } else {
                0.0
            },
        );
        m.put("arena.pooled_mb", pooled as f64 / (1024.0 * 1024.0));
    }
}

// ---------------------------------------------------------------------------
// Replay through the public Machine API
// ---------------------------------------------------------------------------

/// What a replay simulated.
#[derive(Default)]
pub(crate) struct Replay {
    /// Events of the measured runs.
    pub run_events: u64,
    /// Events of the warmup simulated to build the snapshots.
    pub warm_events: u64,
    /// Host ms inside `run_transactions` (warmup and runs).
    pub sim_ms: f64,
    /// Transactions simulated (warmup and runs).
    pub txns: u64,
    /// Digest per `(measurement start cycle, run index)`.
    pub digests: BTreeMap<(u64, usize), u64>,
    /// Simulated work of the measured runs.
    pub work: WorkCounts,
}

impl Replay {
    /// Adds another replay's counts (its digests are dropped).
    pub fn absorb(&mut self, other: Replay) {
        self.run_events += other.run_events;
        self.warm_events += other.warm_events;
        self.sim_ms += other.sim_ms;
        self.txns += other.txns;
        self.work.add_counts(&other.work);
    }
}

/// Warms a snapshot exactly as `Executor::warm_checkpoint` does: from a
/// fresh unperturbed machine, or by extending `from`.
pub(crate) fn replay_warm<W, F>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    config: &MachineConfig,
    make: &F,
    from: Option<(u64, &Checkpoint)>,
    warmup: u64,
    out: &mut Replay,
) -> BenchResult<Checkpoint>
where
    W: Workload + Snap + Clone,
    F: Fn() -> W,
{
    let (mut machine, done) = match from {
        Some((done, ck)) => (
            Machine::<W>::restore(ck).map_err(ctx("replay restore"))?,
            done,
        ),
        None => (
            Machine::new(config.clone().with_perturbation(0, 0), make())
                .map_err(ctx("replay machine"))?,
            0,
        ),
    };
    let events0 = machine.events_posted();
    let (res, t) = timed(|| {
        tracer.span("sim.warmup", parent, 0, |_| {
            machine.run_transactions(warmup - done)
        })
    });
    res.map_err(ctx("replay warmup"))?;
    out.warm_events += machine.events_posted() - events0;
    out.sim_ms += ms(t);
    out.txns += warmup - done;
    machine.normalize_measurement();
    Ok(machine.snapshot())
}

/// Runs every perturbed run of `plan` from `snapshot`, seeded from
/// `source_id` as the executor seeds them.
pub(crate) fn replay_runs<W>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    snapshot: &Checkpoint,
    (source_id, perturbation_ns): (u64, u64),
    plan: &RunPlan,
    out: &mut Replay,
) -> BenchResult<()>
where
    W: Workload + Snap + Clone,
{
    let template = Machine::<W>::restore(snapshot).map_err(ctx("replay restore"))?;
    let txns = plan.transactions;
    for i in 0..plan.runs {
        let mut machine = template.fork();
        machine.set_perturbation(
            perturbation_ns,
            derive_run_seed(source_id, plan.base_seed, i as u64),
        );
        let events0 = machine.events_posted();
        let (result, t) = timed(|| {
            tracer.span("sim.run", parent, i as u64, |_| {
                machine.run_transactions(txns)
            })
        });
        let result = result.map_err(ctx("replay run"))?;
        out.run_events += machine.events_posted() - events0;
        out.sim_ms += ms(t);
        out.txns += txns;
        out.work.add(&result);
        out.digests
            .insert((result.start_cycle, i), run_digest(&result));
    }
    Ok(())
}

/// Fails unless the two digest maps agree run for run.
fn same_runs(
    what: &str,
    a: &BTreeMap<(u64, usize), u64>,
    b: &BTreeMap<(u64, usize), u64>,
) -> BenchResult<()> {
    if a.is_empty() || a != b {
        let first = a
            .iter()
            .find(|(k, v)| b.get(k) != Some(v))
            .map(|(k, v)| format!("start cycle {} run {}: {v:#x} vs {:?}", k.0, k.1, b.get(k)));
        return Err(format!(
            "{what}: {} vs {} runs differ ({})",
            a.len(),
            b.len(),
            first.unwrap_or_else(|| "run sets differ".into())
        ));
    }
    Ok(())
}

fn bits(space_groups: &[Vec<f64>]) -> Vec<Vec<u64>> {
    space_groups
        .iter()
        .map(|g| g.iter().map(|x| x.to_bits()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// oltp16_forks
// ---------------------------------------------------------------------------

/// Runs `oltp16_forks`; see the module docs.
pub fn run_forks(opts: &Opts, tracer: &Tracer) -> BenchResult<Report> {
    let seed = opts.seed;
    let make = move || Benchmark::Oltp.workload(16, seed);
    let positions = forks_positions();
    let plan = RunPlan::new(FORKS_TXNS)
        .with_runs(FORKS_RUNS)
        .with_base_seed(seed);
    let runs_per_pass = (FORKS_RUNS * positions.len()) as f64;

    // Set-up: build the configuration, the workload generator and the
    // executor, then one small untimed sweep to fill the arena.
    let mut setups = Vec::new();
    let mut exec = Executor::with_threads(FORKS_THREADS);
    let mut speed = Bracket::new(exec.threads(), SPEED_SLICES);
    for _ in 0..SETUPS {
        let (e, t) = timed(|| -> BenchResult<Executor> {
            let config = forks_config();
            let _ = std::hint::black_box(make());
            let exec = Executor::with_threads(FORKS_THREADS).without_cache();
            let warm = exec
                .clone()
                .with_checkpoint_store(Arc::new(CheckpointStore::new()));
            sweep_positions_with(&warm, &config, make, &positions[..2], &plan.with_runs(2))
                .map_err(ctx("arena-filling sweep"))?;
            Ok(exec)
        });
        exec = e?;
        setups.push(t.as_secs_f64() / speed.next());
    }
    let threads = exec.threads();
    let config = forks_config();

    let untraced = Tracer::new(false);
    let mut traced = TracedPasses::new();
    let mut budget = Budget::new(opts.seconds, 5);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut peaks = Vec::new();
    // Untimed passes carry a bare observer too, for per-run latencies.
    let clock = Observer::new();
    let mut run_ms = Vec::new();
    let mut groups = None;
    let mut pass = 0u64;
    while budget.more() {
        let is_traced = opts.trace && pass % 2 == 1;
        let store = Arc::new(CheckpointStore::new());
        let e = exec.clone().with_checkpoint_store(Arc::clone(&store));
        reset_peak_rss();
        let (study, wall) = if is_traced {
            let e = e.with_progress(traced.observer.clone());
            timed(|| {
                forks_traced_pass(
                    tracer,
                    pass,
                    &e,
                    &store,
                    &config,
                    &make,
                    &positions,
                    &plan,
                    &mut traced,
                )
            })
        } else {
            let e = e.with_progress(clock.clone());
            timed(|| {
                sweep_positions_with(&e, &config, make, &positions, &plan)
                    .map(|s| s.groups().to_vec())
                    .map_err(ctx("sweep"))
            })
        };
        let study = study?;
        budget.charge(wall);
        let factor = speed.next();
        pass += 1;
        match &groups {
            None => groups = Some(bits(&study)),
            Some(g) if *g != bits(&study) => return Err(format!("pass {pass} diverged")),
            Some(_) => {}
        }
        if is_traced {
            traced_walls.push(ms(wall));
            traced.store_entries = store.len();
        } else {
            walls.push(ms(wall) / factor);
            run_ms.extend(clock.take_run_ms().into_iter().map(|t| t / factor));
            peaks.push(peak_rss_mb());
        }
    }
    traced.arena_main.1 = arena::stats();

    // Correctness gate, untimed: host parallelism vs sequential vs replay.
    let gate_tracer = if opts.trace { tracer } else { &untraced };
    let parallel = Observer::new();
    let par = Executor::new()
        .without_cache()
        .with_checkpoint_store(Arc::new(CheckpointStore::new()))
        .with_progress(parallel.clone());
    sweep_positions_with(&par, &config, make, &positions, &plan).map_err(ctx("gate sweep"))?;
    let sequential = Observer::new();
    let seq = Executor::sequential()
        .without_cache()
        .with_checkpoint_store(Arc::new(CheckpointStore::new()))
        .with_progress(sequential.clone());
    let seq_study = sweep_positions_with(&seq, &config, make, &positions, &plan)
        .map_err(ctx("sequential sweep"))?;
    let (replay, deepest) = gate_tracer.span("bench.replay", None, u64::MAX - 1, |root| {
        replay_forks(gate_tracer, root, &config, &make, &positions, &plan)
    })?;
    same_runs(
        "oltp16_forks parallel vs sequential",
        &parallel.digests(),
        &sequential.digests(),
    )?;
    same_runs(
        "oltp16_forks sequential vs replay",
        &sequential.digests(),
        &replay.digests,
    )?;
    if groups.as_ref() != Some(&bits(seq_study.groups())) {
        return Err("oltp16_forks: timed sweep differs from the sequential sweep".into());
    }
    check_pinned(
        "oltp16_forks",
        seed,
        fold(sequential.digests().into_values()),
    )?;
    let events_per_pass = replay.warm_events + replay.run_events;
    eprintln!(
        "oltp16_forks: {} passes of {} positions x {FORKS_RUNS} runs x {FORKS_TXNS} txns, \
         {events_per_pass} events per pass, {threads} threads",
        walls.len() + traced_walls.len(),
        positions.len()
    );

    let mut report = Report {
        attempted: (walls.len() + traced_walls.len()) as u64,
        failed: 0,
        threads: vec![
            ("executor", threads),
            ("gate_parallel", par.threads()),
            ("sequential_reference", seq.threads()),
        ],
        latency_samples: run_ms.len(),
        host_factor: median(&speed.factors),
        ..Report::default()
    };
    let m = &mut report.metrics;
    if !opts.trace {
        put_sweep_e2e(
            m,
            &setups,
            &walls,
            &run_ms,
            runs_per_pass,
            events_per_pass,
            &peaks,
        );
        return Ok(report);
    }
    traced.put(m);
    m.put("store.warm_ms", median(&tracer.durations_ms("store.warm")));
    m.put(
        "workloads.build_ms",
        median(&tracer.durations_ms("workloads.build")),
    );
    put_replay_sim(m, &replay);
    m.put(
        "trace.overhead_pct",
        (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
    );
    let machine: Machine<ProfiledWorkload> = Machine::restore(&deepest).map_err(ctx("restore"))?;
    probe::ckpt_probe(tracer, u64::MAX, &machine, threads, m)?;
    Ok(report)
}

/// The traced form of one `sweep_positions_with` pass: the same public
/// calls in the same order (`warm_checkpoint` chained through the previous
/// position, then `run_space_from_snapshot`), each inside a span, with the
/// store classified before each warm call.
#[allow(clippy::too_many_arguments)]
fn forks_traced_pass<W, F>(
    tracer: &Tracer,
    group: u64,
    exec: &Executor,
    store: &CheckpointStore,
    config: &MachineConfig,
    make: &F,
    positions: &[u64],
    plan: &RunPlan,
    traced: &mut TracedPasses,
) -> BenchResult<Vec<Vec<f64>>>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    tracer.span("bench.sweep", None, group, |root| {
        let mut counts = StoreCounts::default();
        let mut groups = Vec::new();
        let mut prev: Option<(u64, Arc<Checkpoint>)> = None;
        for &pos in positions {
            let key = store_key(tracer, root, group, config, make, plan.base_seed, pos);
            classify(store, &key, &mut counts);
            let snap = tracer
                .span("store.warm", root, group, |_| {
                    exec.warm_checkpoint(
                        config,
                        make,
                        plan.base_seed,
                        pos,
                        prev.as_ref().map(|(w, ck)| (*w, ck.as_ref())),
                    )
                })
                .map_err(ctx("warm checkpoint"))?;
            let space: RunSpace = observed_call(
                tracer,
                root,
                group,
                &traced.observer,
                exec.threads(),
                &mut traced.runspace,
                || exec.run_space_from_snapshot::<W>(&snap, config.perturbation_max_ns, plan),
            )
            .map_err(ctx("run space from snapshot"))?;
            groups.push(space.runtimes());
            prev = Some((pos, snap));
        }
        traced.store.get_or_insert(counts);
        Ok(groups)
    })
}

fn replay_forks<W, F>(
    tracer: &Tracer,
    parent: Option<SpanId>,
    config: &MachineConfig,
    make: &F,
    positions: &[u64],
    plan: &RunPlan,
) -> BenchResult<(Replay, Checkpoint)>
where
    W: Workload + Snap + Clone,
    F: Fn() -> W,
{
    let mut out = Replay::default();
    let mut prev: Option<(u64, Checkpoint)> = None;
    for &pos in positions {
        let snap = replay_warm(
            tracer,
            parent,
            config,
            make,
            prev.as_ref().map(|(w, ck)| (*w, ck)),
            pos,
            &mut out,
        )?;
        replay_runs::<W>(
            tracer,
            parent,
            &snap,
            (snap.fingerprint(), PERTURBATION_NS),
            plan,
            &mut out,
        )?;
        prev = Some((pos, snap));
    }
    let (_, deepest) = prev.ok_or("no positions")?;
    Ok((out, deepest))
}

// ---------------------------------------------------------------------------
// dir64_sweep
// ---------------------------------------------------------------------------

/// Runs `dir64_sweep`; see the module docs.
pub fn run_dir64(opts: &Opts, tracer: &Tracer) -> BenchResult<Report> {
    let seed = opts.seed;
    let make = move || Benchmark::Oltp.workload(DIR_CPUS, seed);
    let plan = RunPlan::new(DIR_TXNS)
        .with_runs(DIR_RUNS)
        .with_warmup(DIR_WARMUP)
        .with_base_seed(seed);

    // Set-up: configuration, generator, executor and store, the shared
    // warmup into the store, and one untimed sweep to fill the arena.
    let mut setups = Vec::new();
    let mut exec = Executor::new();
    let mut store = Arc::new(CheckpointStore::new());
    for _ in 0..SETUPS {
        let (e, t) = timed(|| -> BenchResult<(Executor, Arc<CheckpointStore>)> {
            let config = dir_config();
            let store = Arc::new(CheckpointStore::new());
            let exec = Executor::new()
                .without_cache()
                .with_checkpoint_store(Arc::clone(&store));
            exec.warm_checkpoint(&config, &make, seed, DIR_WARMUP, None)
                .map_err(ctx("shared warmup"))?;
            exec.run_space(&config, make, &plan)
                .map_err(ctx("arena-filling sweep"))?;
            Ok((exec, store))
        });
        (exec, store) = e?;
        setups.push(t.as_secs_f64());
    }
    let threads = exec.threads();
    let config = dir_config();

    let mut traced = TracedPasses::new();
    let mut budget = Budget::new(opts.seconds, 5);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut peaks = Vec::new();
    // Untimed passes carry a bare observer too, for per-run latencies.
    let clock = Observer::new();
    let mut run_ms = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    let mut pass = 0u64;
    while budget.more() {
        let is_traced = opts.trace && pass % 2 == 1;
        reset_peak_rss();
        let (space, wall) = if is_traced {
            let e = exec.clone().with_progress(traced.observer.clone());
            timed(|| {
                tracer.span("bench.sweep", None, pass, |root| {
                    let key = store_key(tracer, root, pass, &config, &make, seed, DIR_WARMUP);
                    let mut counts = StoreCounts::default();
                    classify(&store, &key, &mut counts);
                    traced.store.get_or_insert(counts);
                    tracer
                        .span("store.warm", root, pass, |_| {
                            e.warm_checkpoint(&config, &make, seed, DIR_WARMUP, None)
                        })
                        .map_err(ctx("warm checkpoint"))?;
                    observed_call(
                        tracer,
                        root,
                        pass,
                        &traced.observer,
                        threads,
                        &mut traced.runspace,
                        || e.run_space(&config, make, &plan),
                    )
                    .map_err(ctx("run space"))
                })
            })
        } else {
            let e = exec.clone().with_progress(clock.clone());
            timed(|| e.run_space(&config, make, &plan).map_err(ctx("run space")))
        };
        let space = space?;
        budget.charge(wall);
        pass += 1;
        let digests: Vec<u64> = space.results().iter().map(run_digest).collect();
        match &first {
            None => first = Some(digests),
            Some(d) if *d != digests => return Err(format!("pass {pass} diverged")),
            Some(_) => {}
        }
        if is_traced {
            traced_walls.push(ms(wall));
        } else {
            walls.push(ms(wall));
            run_ms.extend(clock.take_run_ms());
            peaks.push(peak_rss_mb());
        }
    }
    traced.arena_main.1 = arena::stats();
    traced.store_entries = store.len();

    // Correctness gate, untimed.
    let untraced = Tracer::new(false);
    let gate_tracer = if opts.trace { tracer } else { &untraced };
    let parallel = Observer::new();
    exec.clone()
        .with_progress(parallel.clone())
        .run_space(&config, make, &plan)
        .map_err(ctx("gate sweep"))?;
    let sequential = Observer::new();
    let seq = Executor::sequential()
        .without_cache()
        .with_progress(sequential.clone());
    seq.run_space(&config, make, &plan)
        .map_err(ctx("sequential sweep"))?;
    let mut replay = Replay::default();
    let snapshot = gate_tracer.span("bench.replay", None, u64::MAX - 1, |root| {
        let snap = replay_warm(
            gate_tracer,
            root,
            &config,
            &make,
            None,
            DIR_WARMUP,
            &mut replay,
        )?;
        replay_runs::<ProfiledWorkload>(
            gate_tracer,
            root,
            &snap,
            (
                config_fingerprint(&config) ^ SHARED_WARMUP_DOMAIN,
                PERTURBATION_NS,
            ),
            &plan,
            &mut replay,
        )?;
        Ok::<_, String>(snap)
    })?;
    same_runs(
        "dir64_sweep parallel vs sequential",
        &parallel.digests(),
        &sequential.digests(),
    )?;
    same_runs(
        "dir64_sweep sequential vs replay",
        &sequential.digests(),
        &replay.digests,
    )?;
    let timed_digests: Vec<u64> = sequential.digests().values().copied().collect();
    if first.as_ref() != Some(&timed_digests) {
        return Err("dir64_sweep: timed sweep differs from the sequential sweep".into());
    }
    check_pinned("dir64_sweep", seed, fold(timed_digests))?;
    // Timed passes hit the warmed store, so they simulate only the runs.
    let events_per_pass = replay.run_events;
    eprintln!(
        "dir64_sweep: {} passes of {DIR_RUNS} runs x {DIR_TXNS} txns after a {DIR_WARMUP}-txn \
         shared warmup ({} B snapshot), {events_per_pass} events per pass, {threads} threads",
        walls.len() + traced_walls.len(),
        snapshot.len()
    );

    let mut report = Report {
        attempted: (walls.len() + traced_walls.len()) as u64,
        failed: 0,
        threads: vec![
            ("executor", threads),
            ("sequential_reference", seq.threads()),
        ],
        latency_samples: run_ms.len(),
        ..Report::default()
    };
    let m = &mut report.metrics;
    if !opts.trace {
        put_sweep_e2e(
            m,
            &setups,
            &walls,
            &run_ms,
            DIR_RUNS as f64,
            events_per_pass,
            &peaks,
        );
        return Ok(report);
    }
    traced.put(m);
    m.put("store.warm_ms", median(&tracer.durations_ms("store.warm")));
    m.put(
        "workloads.build_ms",
        median(&tracer.durations_ms("workloads.build")),
    );
    put_replay_sim(m, &replay);
    m.put(
        "trace.overhead_pct",
        (median(&traced_walls) / median(&walls) - 1.0) * 100.0,
    );
    let machine: Machine<ProfiledWorkload> = Machine::restore(&snapshot).map_err(ctx("restore"))?;
    probe::ckpt_probe(tracer, u64::MAX, &machine, threads, m)?;
    Ok(report)
}

/// The end-to-end metrics of a batch sweep. A job here is one perturbed
/// run delivered to the caller, so `jobs_per_s` equals `runs_per_s` and the
/// latencies are per run (`run_ms`), not per pass.
fn put_sweep_e2e(
    m: &mut Metrics,
    setups: &[f64],
    walls: &[f64],
    run_ms: &[f64],
    runs: f64,
    events: u64,
    peaks: &[f64],
) {
    let wall = median(walls);
    m.put("setup_s", median(setups));
    m.put("events_per_s", events as f64 / (wall / 1e3));
    m.put("runs_per_s", runs / (wall / 1e3));
    m.put("jobs_per_s", runs / (wall / 1e3));
    m.put("job_p50_ms", median(run_ms));
    m.put("job_p95_ms", percentile(run_ms, 95.0));
    m.put("peak_rss_mb", median(peaks));
}

pub(crate) fn put_replay_sim(m: &mut Metrics, replay: &Replay) {
    m.put("sim.run_s", replay.sim_ms / 1e3);
    probe::put_sim_counts(
        m,
        replay.warm_events + replay.run_events,
        replay.sim_ms,
        replay.txns,
        &replay.work,
    );
}

/// The smallest `oltp16_forks` pass, traced: how the per-layer run fills
/// the runspace, store and arena metrics on workloads that do not call
/// those layers themselves.
pub fn probe(tracer: &Tracer, m: &mut Metrics) -> BenchResult<()> {
    let make = || Benchmark::Oltp.workload(16, crate::DEFAULT_SEED);
    let config = forks_config();
    let positions = [FORKS_SPACING, 2 * FORKS_SPACING];
    let plan = RunPlan::new(FORKS_TXNS)
        .with_runs(2)
        .with_base_seed(crate::DEFAULT_SEED);
    let mut traced = TracedPasses::new();
    let store = Arc::new(CheckpointStore::new());
    let exec = Executor::new()
        .without_cache()
        .with_checkpoint_store(Arc::clone(&store))
        .with_progress(traced.observer.clone());
    forks_traced_pass(
        tracer,
        u64::MAX - 2,
        &exec,
        &store,
        &config,
        &make,
        &positions,
        &plan,
        &mut traced,
    )?;
    traced.arena_main.1 = arena::stats();
    traced.store_entries = store.len();
    traced.put(m);
    m.put("store.warm_ms", median(&tracer.durations_ms("store.warm")));
    Ok(())
}
