//! Shared plumbing: run arguments, the environment header, the seeded
//! generator, operand builders, bit comparison, and the round loop every
//! workload measures with.

use std::hint::black_box;
use std::time::{Duration, Instant};

use simd2_matrix::{gen, Matrix};
use simd2_semiring::{KernelIsa, OpKind};

use crate::stats::{median, quiet};

/// One invocation's arguments (the benchmark contract's four flags).
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed rounds may take.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from outside timers plus traced rounds.
    pub trace: bool,
}

/// Host and build facts printed above every result.
#[derive(Clone, Debug)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Threads of the multi-thread entries: `min(nproc, 4)`.
    pub threads: usize,
    /// The kernel tier the engine selected on this host.
    pub isa: KernelIsa,
}

impl Env {
    /// Probes the host.
    pub fn detect() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            nproc,
            threads: nproc.min(4),
            isa: simd2_semiring::simd::selected_isa(),
        }
    }

    /// With one CPU the `T`-thread entries time thread hand-off only.
    pub fn overhead_only(&self) -> bool {
        self.nproc == 1
    }
}

/// SplitMix64: the benchmark's only source of randomness besides the
/// engine's own seeded generators.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent uses.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// In-domain operands `(A m×k, B k×n, C m×n)` for `op`: booleans for
/// or-and, reliabilities in (0, 1] for the min/max-mul algebras, small
/// weights otherwise.
pub fn operands(op: OpKind, m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
    let (s1, s2, s3) = (seed, seed ^ 0x5bd1_e995, seed ^ 0x1b87_3593);
    match op {
        OpKind::OrAnd => (
            gen::random_bool_matrix(m, k, 0.5, s1),
            gen::random_bool_matrix(k, n, 0.5, s2),
            gen::random_bool_matrix(m, n, 0.5, s3),
        ),
        OpKind::MinMul | OpKind::MaxMul => (
            gen::random_matrix(m, k, 0.05, 1.0, s1),
            gen::random_matrix(k, n, 0.05, 1.0, s2),
            gen::random_matrix(m, n, 0.05, 1.0, s3),
        ),
        _ => (
            gen::random_matrix(m, k, 0.0, 8.0, s1),
            gen::random_matrix(k, n, 0.0, 8.0, s2),
            gen::random_matrix(m, n, 0.0, 8.0, s3),
        ),
    }
}

/// Whether two matrices agree in shape and in every bit.
pub fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Seconds `f` takes, its result kept alive past the stop.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Repeats a set-up until its median is worth reporting: at least five
/// times, and on until 1.5 s or 31 repetitions for cheap ones. Each
/// state is dropped before the next is built, so peak memory is that of
/// one. Returns the median seconds, the repetition count and the last
/// state.
pub fn repeat_setup<S>(mut build: impl FnMut() -> S) -> (f64, usize, S) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let (s, state) = time(&mut build);
        times.push(s);
        let enough = times.len() >= 5
            && (started.elapsed() >= Duration::from_millis(1500) || times.len() >= 31);
        if enough {
            return (median(&times), times.len(), state);
        }
        drop(state);
    }
}

/// Per-entry samples collected over rounds: `samples[e][r]` is entry
/// `e`'s seconds in round `r`.
#[derive(Clone, Debug)]
pub struct Rounds {
    /// Rounds completed.
    pub rounds: usize,
    /// `samples[entry]` = that entry's time in each round.
    pub samples: Vec<Vec<f64>>,
}

impl Rounds {
    /// Entry `e`'s time on a quiet host: [`quiet`] over its rounds.
    pub fn quiet(&self, e: usize) -> f64 {
        quiet(&self.samples[e])
    }

    /// Per round, the summed time of entries `num` over that of entries
    /// `den` — traced over untraced, say. Both sides of each ratio come
    /// from the same round, so the host's phase cancels.
    pub fn ratio_per_round(
        &self,
        num: impl Iterator<Item = usize> + Clone,
        den: impl Iterator<Item = usize> + Clone,
    ) -> Vec<f64> {
        (0..self.rounds)
            .map(|r| {
                let sum = |entries: &mut dyn Iterator<Item = usize>| {
                    entries.map(|e| self.samples[e][r]).sum::<f64>()
                };
                sum(&mut num.clone()) / sum(&mut den.clone())
            })
            .collect()
    }
}

/// The closed measurement loop: runs `round` — which executes every
/// entry once and returns one time per entry — once untimed as the
/// warm-up, then until `budget` seconds have passed, checked at round
/// boundaries, and at least twice. Rounds interleave the entries, so a
/// slow phase of the shared host lands on all of them alike; an entry's
/// time is [`Rounds::quiet`] over its rounds. `round` is told whether it
/// is the warm-up.
pub fn run_rounds(entries: usize, budget: f64, mut round: impl FnMut(bool) -> Vec<f64>) -> Rounds {
    round(true);
    let started = Instant::now();
    let mut samples = vec![Vec::new(); entries];
    let mut rounds = 0;
    while rounds < 2 || started.elapsed().as_secs_f64() < budget {
        let times = round(false);
        assert_eq!(times.len(), entries, "a round times every entry once");
        for (slot, t) in samples.iter_mut().zip(times) {
            slot.push(t);
        }
        rounds += 1;
    }
    Rounds { rounds, samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn shuffle_permutes() {
        let mut xs: Vec<usize> = (0..50).collect();
        Rng::new(1, 0).shuffle(&mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rounds_discard_the_warm_up_and_run_at_least_twice() {
        let mut calls = 0.0;
        let r = run_rounds(2, 0.0, |warm_up| {
            calls += 1.0;
            assert_eq!(warm_up, calls == 1.0);
            vec![calls, 10.0]
        });
        assert_eq!(r.rounds, 2);
        assert_eq!(r.samples, vec![vec![2.0, 3.0], vec![10.0, 10.0]]);
        assert_eq!(r.quiet(0), 2.0);
        assert_eq!(r.ratio_per_round(1..2, 0..1), vec![5.0, 10.0 / 3.0]);
    }

    #[test]
    fn operands_are_seeded() {
        let (a, _, _) = operands(OpKind::MinPlus, 8, 8, 8, 5);
        let (a2, _, _) = operands(OpKind::MinPlus, 8, 8, 8, 5);
        let (a3, _, _) = operands(OpKind::MinPlus, 8, 8, 8, 6);
        assert!(bits_eq(&a, &a2));
        assert!(!bits_eq(&a, &a3));
    }
}
