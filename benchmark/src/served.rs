//! `served_mix`: an in-process `Server` on a Unix socket, driven as a
//! closed loop by two `Client` threads. Each client waits for its reply
//! before sending its next request, as CLI users do, and submits a fixed
//! sequence generated from the seed: small distinct sweeps (simulate, fill
//! the result cache and checkpoint store), exact repeats of its own earlier
//! sweeps (cache reads), pairs that both clients submit at the same
//! instant, differing only in perturbation magnitude (coalescer leader and
//! in-flight follower), a 16-CPU sweep and its repeats (fully cached, but
//! the template is still decoded), and interleaved `stats` calls.
//!
//! Every timed round starts a fresh server, so each round does the same
//! work. The gate checks every `JobDone` digest against a batch `Executor`
//! run of the same `SweepSpec`, and a replay through the public `Machine`
//! API counts the simulated events of the round's distinct work.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mtvar_core::checkpoint::{CheckpointKey, CheckpointStore};
use mtvar_core::golden::run_digest;
use mtvar_core::runspace::{config_fingerprint, workload_fingerprint, Executor};
use mtvar_serve::client::{Client, SweepOutcome};
use mtvar_serve::protocol::{
    fold_digest, ConfigSpec, PlanSpec, Priority, Response, ServerStats, SweepSpec, WorkloadSpec,
};
use mtvar_serve::server::{ServeConfig, Server, ServerHandle};
use mtvar_sim::checkpoint::{Checkpoint, Snap};
use mtvar_sim::machine::Machine;
use mtvar_sim::workload::{SharingWorkload, Workload};
use mtvar_workloads::profile::ProfiledWorkload;

use crate::sweep::{replay_runs, replay_warm, Replay, SHARED_WARMUP_DOMAIN};
use crate::trace::Tracer;
use crate::util::{
    ctx, median, ms, peak_rss_mb, percentile, reset_peak_rss, BenchResult, Budget, SplitMix,
};
use crate::{check_pinned, fold, probe, sweep, Metrics, Opts, Report, OUT_DIR};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Jobs each client submits per round.
const JOBS_PER_CLIENT: usize = 60;
/// A `stats` call after every this many jobs.
const STATS_EVERY: usize = 8;
/// Extra server set-ups before the rounds, so `setup_s` has enough samples.
const EXTRA_SETUPS: usize = 8;
/// Jobs in the smallest round, used to probe the daemon from other
/// workloads' traced runs.
const PROBE_JOBS: usize = 16;

/// What one job of the sequence is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Distinct,
    Repeat,
    Partner,
    Big,
}

fn small_spec(workload_seed: u64, base_seed: u64, perturbation: u64) -> SweepSpec {
    SweepSpec {
        config: ConfigSpec {
            cpus: 4,
            perturbation_max_ns: perturbation,
            l2_associativity: None,
            dram_latency_ns: None,
            directory: false,
        },
        workload: WorkloadSpec::Sharing {
            threads: 4,
            seed: workload_seed,
            ops_per_txn: 40,
            footprint_blocks: 2048,
            lock_every: 10,
        },
        plan: PlanSpec {
            runs: 3,
            transactions: 25,
            warmup: 20,
            base_seed,
            shared_warmup: true,
        },
        priority: Priority::Normal,
    }
}

fn big_spec(workload_seed: u64, base_seed: u64) -> SweepSpec {
    SweepSpec {
        config: ConfigSpec::hpca2003(),
        workload: WorkloadSpec::Benchmark {
            name: "oltp".into(),
            cpus: 16,
            seed: workload_seed,
        },
        plan: PlanSpec {
            runs: 8,
            transactions: 10,
            warmup: 100,
            base_seed,
            shared_warmup: true,
        },
        priority: Priority::Normal,
    }
}

/// The job mix: per ten jobs, four new sweeps, three exact repeats, two
/// perturbation pairs and one 16-CPU repeat. The weights are an assumption,
/// not a measured trace: every kind of request appears in each block of ten,
/// and new sweeps, the only jobs that simulate, are the largest share. The
/// mix is fixed so every seed asks for the same amount of work; the seed
/// picks the sweeps.
const MIX: [Kind; 10] = [
    Kind::Distinct,
    Kind::Repeat,
    Kind::Distinct,
    Kind::Partner,
    Kind::Repeat,
    Kind::Distinct,
    Kind::Repeat,
    Kind::Partner,
    Kind::Distinct,
    Kind::Big,
];

/// Perturbation magnitude (ns) each client uses for its half of a pair.
const PAIR_PERTURBATION: [u64; CLIENTS] = [4, 8];

/// One request of a client's sequence.
#[derive(Debug, Clone)]
struct Job {
    spec: SweepSpec,
    /// Half of a perturbation pair: every client submits its half at the
    /// same step, after the others have reached it.
    paired: bool,
}

/// Client `client`'s request sequence for `seed`: one opening job, then
/// the [`MIX`], cycled, so every client is at the same mix position at the
/// same step. New sweeps draw fresh base seeds, and repeats pick one of the
/// client's earlier new sweeps. At a pair step every client submits the
/// same new warmup family with its own perturbation magnitude, so the jobs
/// of a pair are in flight together and meet in the coalescer. Only the
/// first client opens with the 16-CPU sweep and sends the mix's 16-CPU
/// repeats (the other opens with a new small sweep and repeats a small one
/// instead), so two 16-CPU templates are never decoded at once and the
/// round's memory high-water does not depend on how the clients
/// interleave. Other base seeds are drawn per client, so clients share no
/// warmup family outside the pairs.
fn sequence(seed: u64, client: usize, jobs: usize) -> Vec<Job> {
    let mut rng = SplitMix::new(seed ^ (0xC11E_u64 << 32 | client as u64));
    let mut pairs = SplitMix::new(seed ^ 0xFA12_u64 << 40);
    let big = (client == 0).then(|| big_spec(seed, rng.next_u64()));
    let opening = big
        .clone()
        .unwrap_or_else(|| small_spec(seed, rng.next_u64(), 4));
    let mut distinct: Vec<SweepSpec> = vec![opening.clone()];
    let mut out = vec![Job {
        spec: opening,
        paired: false,
    }];
    for kind in MIX.iter().cycle() {
        if out.len() >= jobs {
            break;
        }
        let spec = match (kind, &big) {
            (Kind::Distinct, _) => {
                distinct.push(small_spec(seed, rng.next_u64(), 4));
                distinct[distinct.len() - 1].clone()
            }
            (Kind::Repeat, _) | (Kind::Big, None) => {
                // Skip the 16-CPU opening: its repeats are the Big steps.
                let small = usize::from(big.is_some());
                let i = small + rng.below((distinct.len() - small) as u64) as usize;
                distinct[i].clone()
            }
            (Kind::Partner, _) => small_spec(seed, pairs.next_u64(), PAIR_PERTURBATION[client]),
            (Kind::Big, Some(big)) => big.clone(),
        };
        out.push(Job {
            spec,
            paired: *kind == Kind::Partner,
        });
    }
    out
}

/// The warmup family a spec belongs to: every field the coalescer's key
/// depends on, with the perturbation magnitude left out.
fn family(spec: &SweepSpec) -> String {
    let mut config = spec.config.clone();
    config.perturbation_max_ns = 0;
    format!(
        "{config:?} {:?} {} {}",
        spec.workload, spec.plan.base_seed, spec.plan.warmup
    )
}

/// One job's outcome as the client saw it.
#[derive(Debug, Clone)]
struct JobSample {
    spec_key: String,
    /// Submit to `JobDone`, or infinite if the job failed.
    total_ms: f64,
    wait: Option<(Instant, Instant, Instant)>,
    digest: Option<u64>,
    runs: u64,
}

/// Everything one round produced.
struct Round {
    setup: Duration,
    wall: Duration,
    jobs: Vec<JobSample>,
    stats_rtt_ms: Vec<f64>,
    queue_depth_max: u64,
    failed: u64,
    stats: ServerStats,
    /// Perturbation pairs sent, and of those, pairs whose jobs executed
    /// at the same time (both `JobStarted` before either `JobDone`).
    pairs: u64,
    pairs_overlapped: u64,
    dispatchers: usize,
    executor_threads: usize,
}

fn socket_path() -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(OUT_DIR).join(format!("s{}-{n}.sock", std::process::id()))
}

fn serve_config(socket: PathBuf) -> ServeConfig {
    // Dispatchers × executor threads stay within the host's cores.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let dispatchers = nproc.clamp(1, CLIENTS);
    ServeConfig {
        dispatchers,
        executor_threads: (nproc / dispatchers).max(1),
        ..ServeConfig::new(socket)
    }
}

/// Starts a server and waits until its first `stats` call succeeds.
fn start(
    tracer: &Tracer,
    root: Option<u64>,
    group: u64,
) -> BenchResult<(ServerHandle, Client, ServeConfig)> {
    let config = serve_config(socket_path());
    tracer.span("serve.start", root, group, |_| {
        let handle = Server::start(config.clone()).map_err(ctx("start server"))?;
        let client = Client::new(handle.socket());
        client.stats().map_err(ctx("first stats"))?;
        Ok((handle, client, config))
    })
}

/// The untimed pass of a set-up: a 16-CPU sweep and a small sweep from
/// base seeds no round uses, so the daemon has decoded, forked and pooled
/// buffers of both sizes before the first timed job.
fn warm_up_specs(seed: u64) -> [SweepSpec; 2] {
    let mut rng = SplitMix::new(seed ^ 0x3A7B_u64 << 48);
    [
        big_spec(seed, rng.next_u64()),
        small_spec(seed, rng.next_u64(), 4),
    ]
}

fn warm_up(client: &Client, seed: u64) -> BenchResult<()> {
    for spec in warm_up_specs(seed) {
        match client.submit(spec, |_| {}).map_err(ctx("warm-up job"))? {
            SweepOutcome::Done(_) => {}
            SweepOutcome::Cancelled { .. } => return Err("warm-up job cancelled".into()),
        }
    }
    Ok(())
}

/// Everything a set-up leaves for a round.
struct Setup {
    sequences: Vec<Vec<Job>>,
    handle: ServerHandle,
    client: Client,
    config: ServeConfig,
    took: Duration,
}

/// One set-up: the request sequences, a fresh server up to its first
/// `stats` reply, and the untimed warm-up pass.
fn setup(
    seed: u64,
    jobs: usize,
    clients: usize,
    tracer: &Tracer,
    group: u64,
) -> BenchResult<Setup> {
    let t0 = Instant::now();
    tracer.span("bench.setup", None, group, |root| {
        let sequences = tracer.span("workloads.build", root, group, |_| {
            (0..clients).map(|c| sequence(seed, c, jobs)).collect()
        });
        let (handle, client, config) = start(tracer, root, group)?;
        tracer.span("serve.warm_up", root, group, |_| warm_up(&client, seed))?;
        Ok(Setup {
            sequences,
            handle,
            client,
            config,
            took: t0.elapsed(),
        })
    })
}

fn stop(handle: ServerHandle, client: &Client) -> BenchResult<()> {
    client.shutdown().map_err(ctx("shutdown"))?;
    handle.join();
    Ok(())
}

/// One round: set-up (sequences and a fresh server), then both clients'
/// closed loops, timed from the first submit to the last reply.
fn round(
    seed: u64,
    jobs: usize,
    clients: usize,
    tracer: &Tracer,
    group: u64,
) -> BenchResult<Round> {
    let Setup {
        sequences,
        handle,
        client,
        config,
        took: setup,
    } = setup(seed, jobs, clients, tracer, group)?;
    let socket = handle.socket().to_path_buf();
    let barrier = Barrier::new(clients);

    let t1 = Instant::now();
    let per_client: Vec<BenchResult<ClientRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sequences
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let socket = socket.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    client_loop(&Client::new(socket), seq, barrier, tracer, group, c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let wall = t1.elapsed();

    let stats = client.stats().map_err(ctx("final stats"))?;
    stop(handle, &client)?;
    // Single flight: the coalescer simulates each warmup family exactly
    // once, however the paired jobs interleave.
    let families: BTreeSet<String> = sequences
        .iter()
        .flatten()
        .map(|j| &j.spec)
        .chain(warm_up_specs(seed).iter())
        .map(family)
        .collect();
    if stats.coalesce_leaders != families.len() as u64 {
        return Err(format!(
            "coalescer simulated {} warmups for {} families",
            stats.coalesce_leaders,
            families.len()
        ));
    }
    let per_client: Vec<ClientRun> = per_client.into_iter().collect::<BenchResult<_>>()?;
    let (mut pairs, mut pairs_overlapped) = (0, 0);
    for (i, job) in sequences[0].iter().enumerate() {
        if !job.paired || clients < 2 {
            continue;
        }
        pairs += 1;
        let spans: Option<Vec<(Instant, Instant)>> = per_client
            .iter()
            .map(|r| r.jobs[i].wait.map(|(_, s, d)| (s, d)))
            .collect();
        if let Some(spans) = spans {
            let last_start = spans.iter().map(|s| s.0).max();
            let first_done = spans.iter().map(|s| s.1).min();
            pairs_overlapped += u64::from(last_start < first_done);
        }
    }
    let mut out = Round {
        setup,
        wall,
        jobs: Vec::new(),
        stats_rtt_ms: Vec::new(),
        queue_depth_max: stats.queue_depth,
        failed: 0,
        stats,
        pairs,
        pairs_overlapped,
        dispatchers: config.dispatchers,
        executor_threads: config.executor_threads,
    };
    for r in per_client {
        let ClientRun {
            jobs,
            rtts,
            depth,
            failed,
        } = r;
        out.jobs.extend(jobs);
        out.stats_rtt_ms.extend(rtts);
        out.queue_depth_max = out.queue_depth_max.max(depth);
        out.failed += failed;
    }
    Ok(out)
}

/// What one client's loop saw.
struct ClientRun {
    jobs: Vec<JobSample>,
    /// `stats` round trips in ms.
    rtts: Vec<f64>,
    /// Deepest queue any `stats` call reported.
    depth: u64,
    /// Failed submits and `stats` calls.
    failed: u64,
}

/// One client's closed loop over its sequence.
fn client_loop(
    client: &Client,
    seq: &[Job],
    barrier: &Barrier,
    tracer: &Tracer,
    group: u64,
    c: usize,
) -> BenchResult<ClientRun> {
    let mut samples = Vec::with_capacity(seq.len());
    let mut rtts = Vec::new();
    let mut depth = 0u64;
    let mut failed = 0u64;
    for (i, Job { spec, paired }) in seq.iter().enumerate() {
        let job_group = (group << 32) | ((c as u64) << 24) | i as u64;
        if *paired {
            barrier.wait();
        }
        let submit = Instant::now();
        let mut started = None;
        let outcome = client.submit(spec.clone(), |ev| {
            if matches!(ev, Response::JobStarted { .. }) {
                started = Some(Instant::now());
            }
        });
        let done = Instant::now();
        let mut sample = JobSample {
            spec_key: format!("{spec:?}"),
            total_ms: f64::INFINITY,
            wait: None,
            digest: None,
            runs: 0,
        };
        match outcome {
            Ok(SweepOutcome::Done(job)) => {
                sample.total_ms = ms(done - submit);
                sample.digest = Some(job.digest);
                sample.runs = job.runs;
                if let Some(s) = started {
                    sample.wait = Some((submit, s, done));
                    let id = tracer.record("bench.job", None, job_group, submit, done);
                    tracer.record("serve.wait", id, job_group, submit, s);
                    tracer.record("serve.exec", id, job_group, s, done);
                }
            }
            Ok(SweepOutcome::Cancelled { .. }) | Err(_) => failed += 1,
        }
        samples.push(sample);
        if (i + 1) % STATS_EVERY == 0 {
            let t = Instant::now();
            match tracer.span("bench.stats", None, job_group, |root| {
                tracer.span("serve.stats", root, job_group, |_| client.stats())
            }) {
                Ok(s) => {
                    rtts.push(ms(t.elapsed()));
                    depth = depth.max(s.queue_depth);
                }
                Err(_) => failed += 1,
            }
        }
    }
    Ok(ClientRun {
        jobs: samples,
        rtts,
        depth,
        failed,
    })
}

/// Runs `served_mix`; see the module docs.
pub fn run(opts: &Opts, tracer: &Tracer) -> BenchResult<Report> {
    let untraced = Tracer::new(false);
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let s = setup(opts.seed, JOBS_PER_CLIENT, CLIENTS, &untraced, 0)?;
        stop(s.handle, &s.client)?;
        setups.push(s.took.as_secs_f64());
    }

    let mut budget = Budget::new(opts.seconds, 5);
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut peaks = Vec::new();
    let mut index = 0u64;
    while budget.more() {
        let is_traced = opts.trace && index % 2 == 1;
        let t = if is_traced { tracer } else { &untraced };
        reset_peak_rss();
        let r = round(opts.seed, JOBS_PER_CLIENT, CLIENTS, t, index)?;
        budget.charge(r.wall);
        index += 1;
        if is_traced {
            traced_rounds.push(r);
        } else {
            setups.push(r.setup.as_secs_f64());
            peaks.push(peak_rss_mb());
            rounds.push(r);
        }
    }
    let all: Vec<&Round> = rounds.iter().chain(traced_rounds.iter()).collect();

    // Every reply for the same spec must carry the same digest.
    let mut digests: BTreeMap<&str, u64> = BTreeMap::new();
    for job in all.iter().flat_map(|r| r.jobs.iter()) {
        if let Some(d) = job.digest {
            if *digests.entry(&job.spec_key).or_insert(d) != d {
                return Err(format!("served digests disagree for {}", job.spec_key));
            }
        }
    }
    let specs: BTreeMap<String, SweepSpec> = (0..CLIENTS)
        .flat_map(|c| sequence(opts.seed, c, JOBS_PER_CLIENT))
        .map(|j| (format!("{:?}", j.spec), j.spec))
        .collect();

    // Gate, untimed: batch executor per distinct spec; replay for events.
    let gate_tracer = if opts.trace { tracer } else { &untraced };
    let batch = Executor::new().with_checkpoint_store(Arc::new(CheckpointStore::new()));
    let mut replay = Replay::default();
    let mut families: HashMap<CheckpointKey, Checkpoint> = HashMap::new();
    let mut batch_digests = Vec::with_capacity(specs.len());
    gate_tracer.span(
        "bench.replay",
        None,
        u64::MAX - 1,
        |root| -> BenchResult<()> {
            for (key, spec) in &specs {
                let expected =
                    batch_and_replay(spec, &batch, gate_tracer, root, &mut replay, &mut families)?;
                batch_digests.push(expected);
                match digests.get(key.as_str()) {
                    Some(served) if *served != expected => {
                        return Err(format!(
                            "served digest {served:#x} differs from batch {expected:#x} for {key}"
                        ))
                    }
                    _ => {}
                }
            }
            Ok(())
        },
    )?;
    let events = replay.warm_events + replay.run_events;
    check_pinned("served_mix", opts.seed, fold(batch_digests))?;

    let failed: u64 = all.iter().map(|r| r.failed).sum();
    // Attempted: every submit and every stats call (a failed stats call
    // leaves no round-trip sample, so it is added back through `failed`).
    let attempted: u64 = all
        .iter()
        .map(|r| (r.jobs.len() + r.stats_rtt_ms.len()) as u64)
        .sum::<u64>()
        + failed;
    let first = all.first().ok_or("no round ran")?;
    eprintln!(
        "served_mix: {} rounds x {} jobs from {CLIENTS} clients, {} distinct specs, \
         {events} events per round, {} dispatchers x {} executor threads",
        all.len(),
        first.jobs.len(),
        specs.len(),
        first.dispatchers,
        first.executor_threads
    );
    let mut report = Report {
        attempted,
        failed,
        threads: vec![
            ("dispatchers", first.dispatchers),
            ("executor_threads", first.executor_threads),
            ("clients", CLIENTS),
            ("batch_reference", batch.threads()),
        ],
        latency_samples: rounds.iter().map(|r| r.jobs.len()).sum(),
        ..Report::default()
    };
    let m = &mut report.metrics;
    if !opts.trace {
        let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
        let jobs_per_s: Vec<f64> = rounds
            .iter()
            .map(|r| r.jobs.len() as f64 / r.wall.as_secs_f64())
            .collect();
        let runs_per_s: Vec<f64> = rounds
            .iter()
            .map(|r| r.jobs.iter().map(|j| j.runs).sum::<u64>() as f64 / r.wall.as_secs_f64())
            .collect();
        let latencies: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.jobs.iter().map(|j| j.total_ms))
            .collect();
        m.put("setup_s", median(&setups));
        m.put("events_per_s", events as f64 / median(&walls));
        m.put("runs_per_s", median(&runs_per_s));
        m.put("jobs_per_s", median(&jobs_per_s));
        m.put("job_p50_ms", percentile(&latencies, 50.0));
        m.put("job_p95_ms", percentile(&latencies, 95.0));
        m.put("peak_rss_mb", median(&peaks));
        return Ok(report);
    }
    put_serve_layers(m, &traced_rounds);
    m.put(
        "workloads.build_ms",
        median(&tracer.durations_ms("workloads.build")),
    );
    sweep::put_replay_sim(m, &replay);
    let traced_wall: Vec<f64> = traced_rounds.iter().map(|r| ms(r.wall)).collect();
    let untraced_wall: Vec<f64> = rounds.iter().map(|r| ms(r.wall)).collect();
    m.put(
        "trace.overhead_pct",
        (median(&traced_wall) / median(&untraced_wall) - 1.0) * 100.0,
    );
    // The checkpoint layer on the largest warmed family, the 16-CPU sweep's
    // template, which every served 16-CPU repeat decodes.
    let snap = families
        .values()
        .max_by_key(|ck| ck.len())
        .ok_or("no warmup family")?;
    let machine: Machine<ProfiledWorkload> = Machine::restore(snap).map_err(ctx("restore"))?;
    probe::ckpt_probe(tracer, u64::MAX, &machine, first.executor_threads, m)?;
    Ok(report)
}

fn put_serve_layers(m: &mut Metrics, rounds: &[Round]) {
    let waits: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.jobs
                .iter()
                .filter_map(|j| j.wait.map(|(a, b, _)| ms(b - a)))
        })
        .collect();
    let execs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.jobs
                .iter()
                .filter_map(|j| j.wait.map(|(_, b, c)| ms(c - b)))
        })
        .collect();
    let rtts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.stats_rtt_ms.iter().copied())
        .collect();
    let last = &rounds.last().expect("a traced round").stats;
    let delivered = last.runs_cached + last.runs_completed;
    m.put("serve.stats_rtt_ms", median(&rtts));
    m.put("serve.start_wait_ms", median(&waits));
    m.put("serve.exec_ms", median(&execs));
    m.put(
        "serve.queue_depth_max",
        rounds.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
    );
    m.put(
        "serve.cache_hit_ratio",
        if delivered > 0 {
            last.runs_cached as f64 / delivered as f64
        } else {
            0.0
        },
    );
    m.put("serve.coalesce_leaders", last.coalesce_leaders as f64);
    m.put("serve.coalesce_followers", last.coalesce_followers as f64);
    let pairs: u64 = rounds.iter().map(|r| r.pairs).sum();
    let overlapped: u64 = rounds.iter().map(|r| r.pairs_overlapped).sum();
    m.put(
        "serve.pair_overlap",
        if pairs > 0 {
            overlapped as f64 / pairs as f64
        } else {
            0.0
        },
    );
    m.put("serve.rejected", last.rejected as f64);
}

/// Runs `spec` on the batch executor (returning its folded digest) and
/// replays its distinct work through the `Machine` API: a family's warmup
/// once, its runs once per spec.
fn batch_and_replay(
    spec: &SweepSpec,
    batch: &Executor,
    tracer: &Tracer,
    root: Option<u64>,
    replay: &mut Replay,
    families: &mut HashMap<CheckpointKey, Checkpoint>,
) -> BenchResult<u64> {
    match spec.workload.clone() {
        WorkloadSpec::Sharing {
            threads,
            seed,
            ops_per_txn,
            footprint_blocks,
            lock_every,
        } => batch_and_replay_with(spec, batch, tracer, root, replay, families, move || {
            SharingWorkload::new(
                threads as usize,
                seed,
                ops_per_txn as u32,
                footprint_blocks,
                lock_every as u32,
            )
        }),
        WorkloadSpec::Benchmark { name, cpus, seed } => {
            let bench = WorkloadSpec::resolve_benchmark(&name)
                .ok_or_else(|| format!("unknown benchmark {name}"))?;
            batch_and_replay_with(spec, batch, tracer, root, replay, families, move || {
                bench.workload(cpus as usize, seed)
            })
        }
    }
}

fn batch_and_replay_with<W, F>(
    spec: &SweepSpec,
    batch: &Executor,
    tracer: &Tracer,
    root: Option<u64>,
    replay: &mut Replay,
    families: &mut HashMap<CheckpointKey, Checkpoint>,
    make: F,
) -> BenchResult<u64>
where
    W: Workload + Snap + Clone + Send + Sync,
    F: Fn() -> W + Sync,
{
    let config = spec.config.build();
    let plan = spec.plan.build();
    let space = batch
        .run_space(&config, &make, &plan)
        .map_err(ctx("batch sweep"))?;
    let digest = space
        .results()
        .iter()
        .fold(0u64, |acc, r| fold_digest(acc, run_digest(r)));
    let family = CheckpointKey {
        config: config_fingerprint(&config.clone().with_perturbation(0, 0)),
        workload: workload_fingerprint(&mut make()),
        base_seed: plan.base_seed,
        warmup: plan.warmup_transactions,
    };
    let snap = match families.entry(family) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => e.insert(replay_warm(
            tracer,
            root,
            &config,
            &make,
            None,
            plan.warmup_transactions,
            replay,
        )?),
    };
    let mut runs = Replay::default();
    replay_runs::<W>(
        tracer,
        root,
        snap,
        (
            config_fingerprint(&config) ^ SHARED_WARMUP_DOMAIN,
            config.perturbation_max_ns,
        ),
        &plan,
        &mut runs,
    )?;
    let replayed = runs
        .digests
        .values()
        .fold(0u64, |acc, d| fold_digest(acc, *d));
    if replayed != digest {
        return Err(format!(
            "replay digest {replayed:#x} differs from batch {digest:#x}"
        ));
    }
    replay.absorb(runs);
    Ok(digest)
}

/// The smallest round, traced: fills the `serve.*` metrics on workloads
/// that do not call the daemon themselves.
pub fn probe(opts: &Opts, tracer: &Tracer, m: &mut Metrics) -> BenchResult<()> {
    let r = round(opts.seed, PROBE_JOBS, 1, tracer, u64::MAX - 3)?;
    put_serve_layers(m, std::slice::from_ref(&r));
    Ok(())
}
