//! Host-speed reference: a fixed, benchmark-owned piece of work timed
//! between the measured operations, so the CPU-bound workloads can report
//! their times at a reference host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. Neighbours on the
//! same physical cores and caches slow it by up to half for seconds to
//! minutes at a time, so two runs of the same code minutes apart read tens
//! of percent apart. The reference work is a miniature event-driven cache
//! model (16 set-associative tag arrays, one binary heap of pending events,
//! a skewed address stream), which the host slows nearly as much as it
//! slows the simulator. Timing slices of it next to the measured
//! operations gives each operation its *host factor*: the time of a slice
//! over [`REFERENCE_SLICE_MS`]. A time divided by its factor (a rate
//! multiplied by it) is the value at the reference speed.
//!
//! The model is part of the benchmark, not of the program, so a change to
//! the program cannot change the reference work. Its caches could: the
//! measured operation evicts the model's arrays, and how much of them
//! depends on the program's footprint. So each sample first runs
//! [`WARM_SLICES`] untimed slices, and only the slices after them, which
//! find the arrays cached whatever ran before, are timed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Host time of one warm slice at the reference speed: about the median
/// on the 2-vCPU Xeon KVM host the bounds were set on.
pub const REFERENCE_SLICE_MS: f64 = 1.4;

/// Untimed slices that bring the model's arrays back into cache before a
/// sample's timed slices.
pub const WARM_SLICES: u32 = 2;

/// Model steps in one slice.
const SLICE_STEPS: u32 = 20_000;
const NODES: usize = 16;
const SETS: usize = 8192;
const WAYS: usize = 4;

/// One thread's reference model.
struct Model {
    /// `NODES` tag arrays of `SETS` × `WAYS` block addresses, MRU first.
    tags: Vec<u64>,
    /// Pending events: (time, node).
    events: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
}

impl Model {
    fn new(stream: u64) -> Self {
        let mut model = Model {
            tags: vec![0; NODES * SETS * WAYS],
            events: (0..NODES as u32).map(|n| Reverse((0, n))).collect(),
            rng: 0x9E37_79B9_7F4A_7C15 ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1,
        };
        // Fill the arrays so every slice runs in the steady state.
        model.run(10 * SLICE_STEPS);
        model
    }

    fn next(&mut self) -> u64 {
        let x = &mut self.rng;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Serves `steps` accesses: pop the earliest event, look its address up
    /// in its node's array (LRU within the set), on a miss probe one other
    /// node, and schedule the node's next access after the latency.
    fn run(&mut self, steps: u32) {
        for _ in 0..steps {
            let Reverse((time, node)) = self.events.pop().expect("one event per node");
            let r = self.next();
            // A quarter of the accesses roam; the rest stay in a hot region.
            let addr = if r & 3 == 0 {
                r >> 8
            } else {
                (r >> 8) & 0xffff
            };
            let set = (node as usize * SETS + addr as usize % SETS) * WAYS;
            let lines = &mut self.tags[set..set + WAYS];
            let latency = match lines.iter().position(|&a| a == addr) {
                Some(way) => {
                    lines[..=way].rotate_right(1);
                    3
                }
                None => {
                    lines.rotate_right(1);
                    lines[0] = addr;
                    let other = ((r >> 40) % NODES as u64) as usize;
                    let other_set = (other * SETS + addr as usize % SETS) * WAYS;
                    if self.tags[other_set..other_set + WAYS].contains(&addr) {
                        30
                    } else {
                        120
                    }
                }
            };
            self.events.push(Reverse((time + latency, node)));
        }
    }
}

/// The reference models of the threads a workload measures on.
pub struct HostSpeed {
    models: Vec<Model>,
}

impl HostSpeed {
    /// Reference models for `threads` threads (one per thread the measured
    /// work runs on), warmed up.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            models: (0..threads.max(1) as u64).map(Model::new).collect(),
        }
    }

    /// Runs [`WARM_SLICES`] untimed and then `slices` timed slices on every
    /// model at once (the first on the calling thread, the others on scoped
    /// threads) and returns the host factor: the mean time per timed slice
    /// over [`REFERENCE_SLICE_MS`]. Above 1 the host is slower than the
    /// reference.
    pub fn factor(&mut self, slices: u32) -> f64 {
        let steps = slices.max(1) * SLICE_STEPS;
        let timed = |model: &mut Model| {
            model.run(WARM_SLICES * SLICE_STEPS);
            let t0 = Instant::now();
            model.run(std::hint::black_box(steps));
            t0.elapsed().as_secs_f64() * 1e3
        };
        let (first, rest) = self.models.split_first_mut().expect("at least one model");
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|m| s.spawn(move || timed(m))).collect();
            let mine = timed(first);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .sum::<f64>()
        });
        total / self.models.len() as f64 / f64::from(slices.max(1)) / REFERENCE_SLICE_MS
    }
}

/// Host factors of a sequence of timed operations: a sample of `slices`
/// slices before the first operation and after each one; an operation's
/// factor is the mean of the samples on either side of it.
pub struct Bracket {
    speed: HostSpeed,
    slices: u32,
    last: f64,
    /// Every factor handed out, for the host record.
    pub factors: Vec<f64>,
}

impl Bracket {
    /// Takes the first sample, on `threads` threads.
    pub fn new(threads: usize, slices: u32) -> Self {
        let mut speed = HostSpeed::new(threads);
        let last = speed.factor(slices);
        Bracket {
            speed,
            slices,
            last,
            factors: Vec::new(),
        }
    }

    /// Samples after an operation and returns that operation's factor.
    pub fn next(&mut self) -> f64 {
        let now = self.speed.factor(self.slices);
        let factor = (self.last + now) / 2.0;
        self.last = now;
        self.factors.push(factor);
        factor
    }
}
