//! The seeded job stream of `serve-mix`.
//!
//! Jobs come in *blocks* of twenty with a fixed composition — 14 S, 5 M
//! and 1 L class job, six of them repeats of a plan submitted moments
//! before — in a seeded order. Fixing the composition per block rather
//! than drawing each job independently keeps the mix (70/25/5 % by
//! class, 30 % repeats) exact for every seed and every run length, so
//! throughput does not wander with the luck of the draw; the seed
//! decides the order within a block, which plan each job carries and
//! which earlier plan a repeat repeats.
//!
//! Fresh jobs walk each class's pool in a seeded cyclic order. A plan
//! therefore comes round again only after the whole pool has gone by,
//! which is more insertions than the service's plan cache holds (see
//! [`JobStream::new`]): a fresh job is a cache miss, a repeat is a hit,
//! under FIFO or any recency-based eviction.

use std::collections::VecDeque;

use crate::common::Rng;

/// Job classes, by plan dimension: S = 64, M = 128, L = 256.
pub const CLASSES: usize = 3;

/// Fresh jobs per block, by class.
pub const FRESH: [usize; CLASSES] = [10, 3, 1];
/// Repeat jobs per block, by class.
pub const REPEATS: [usize; CLASSES] = [4, 2, 0];
/// Jobs per block.
pub const BLOCK: usize = 20;
/// Fresh submissions of a class a repeat may reach back over.
const RECENT: usize = 8;
/// Tenants by job position: three tenants weighted 2 / 1 / 1.
const TENANTS: [u32; 4] = [1, 1, 2, 3];

/// One job of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Class index (0 = S, 1 = M, 2 = L).
    pub class: usize,
    /// Index of the plan in its class's pool.
    pub plan: usize,
    /// Submitting tenant.
    pub tenant: u32,
    /// Whether the plan was submitted recently enough to be resident in
    /// the service's cache.
    pub repeat: bool,
}

/// The generator.
#[derive(Clone, Debug)]
pub struct JobStream {
    rng: Rng,
    /// Seeded cyclic order of each class's pool.
    order: [Vec<usize>; CLASSES],
    /// Next position in `order`, per class.
    cursor: [usize; CLASSES],
    /// The last [`RECENT`] fresh plans of each class.
    recent: [VecDeque<usize>; CLASSES],
    jobs: u64,
}

impl JobStream {
    /// A stream over pools of `pool_sizes` plans per class, for a
    /// service whose cache holds `cache_capacity` results.
    ///
    /// # Panics
    ///
    /// Panics if a pool is so small that its cyclic walk could return to
    /// a plan that is still cached (turning "fresh" jobs into hits), or
    /// the cache so small that a repeat could find its plan evicted:
    /// either would make the hit rate depend on the eviction policy.
    pub fn new(seed: u64, pool_sizes: [usize; CLASSES], cache_capacity: usize) -> Self {
        let misses_per_block: usize = FRESH.iter().sum();
        let mut rng = Rng::new(seed, 0x10b5);
        let order = std::array::from_fn(|c| {
            // Insertions (one per miss, any class) while class `c` makes
            // `fresh` fresh submissions.
            let inserts_during = |fresh: usize| fresh * misses_per_block / FRESH[c];
            // A plan is last touched at most RECENT fresh submissions
            // after its own (by a repeat), then not until the walk wraps.
            let reach = if REPEATS[c] > 0 { RECENT } else { 0 };
            assert!(
                inserts_during(pool_sizes[c] - reach.min(pool_sizes[c])) > cache_capacity,
                "class {c} pool of {} wraps within the cache's reach",
                pool_sizes[c]
            );
            assert!(
                inserts_during(reach) + misses_per_block < cache_capacity,
                "a cache of {cache_capacity} could evict a plan before its repeat"
            );
            let mut order: Vec<usize> = (0..pool_sizes[c]).collect();
            rng.shuffle(&mut order);
            order
        });
        Self {
            rng,
            order,
            cursor: [0; CLASSES],
            recent: Default::default(),
            jobs: 0,
        }
    }

    /// The next twenty jobs.
    pub fn next_block(&mut self) -> Vec<Job> {
        let mut slots: Vec<(usize, bool)> = Vec::with_capacity(BLOCK);
        for class in 0..CLASSES {
            slots.extend(std::iter::repeat_n((class, false), FRESH[class]));
            slots.extend(std::iter::repeat_n((class, true), REPEATS[class]));
        }
        self.rng.shuffle(&mut slots);
        slots
            .into_iter()
            .map(|(class, wants_repeat)| {
                // Nothing to repeat at the very start of the stream.
                let repeat = wants_repeat && !self.recent[class].is_empty();
                let plan = if repeat {
                    self.recent[class][self.rng.below(self.recent[class].len())]
                } else {
                    let order = &self.order[class];
                    let plan = order[self.cursor[class] % order.len()];
                    self.cursor[class] += 1;
                    if self.recent[class].len() == RECENT {
                        self.recent[class].pop_front();
                    }
                    self.recent[class].push_back(plan);
                    plan
                };
                let tenant = TENANTS[(self.jobs % TENANTS.len() as u64) as usize];
                self.jobs += 1;
                Job {
                    class,
                    plan,
                    tenant,
                    repeat,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOLS: [usize; CLASSES] = [200, 60, 12];

    fn blocks(seed: u64, n: usize) -> Vec<Vec<Job>> {
        let mut s = JobStream::new(seed, POOLS, 128);
        (0..n).map(|_| s.next_block()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(blocks(7, 30), blocks(7, 30));
        assert_ne!(blocks(7, 30), blocks(8, 30));
    }

    #[test]
    fn every_block_has_the_fixed_composition() {
        // Skip the first block, whose early repeats have nothing to repeat.
        for block in blocks(3, 40).iter().skip(1) {
            assert_eq!(block.len(), BLOCK);
            for class in 0..CLASSES {
                let of = |repeat: bool| {
                    block
                        .iter()
                        .filter(|j| j.class == class && j.repeat == repeat)
                        .count()
                };
                assert_eq!(of(false), FRESH[class], "class {class}");
                assert_eq!(of(true), REPEATS[class], "class {class}");
            }
            let repeats = block.iter().filter(|j| j.repeat).count();
            assert_eq!(repeats as f64 / BLOCK as f64, 0.30);
        }
    }

    #[test]
    fn tenants_are_weighted_two_one_one() {
        let jobs: Vec<Job> = blocks(1, 10).concat();
        let of = |t: u32| jobs.iter().filter(|j| j.tenant == t).count();
        assert_eq!((of(1), of(2), of(3)), (100, 50, 50));
    }

    #[test]
    fn repeats_are_recent_and_fresh_plans_stay_away_a_full_cycle() {
        let jobs: Vec<Job> = blocks(5, 200).concat();
        let mut last_fresh: std::collections::HashMap<(usize, usize), usize> = Default::default();
        let mut fresh_seen = [0usize; CLASSES];
        for job in &jobs {
            let key = (job.class, job.plan);
            if job.repeat {
                let at = last_fresh[&key];
                assert!(fresh_seen[job.class] - at <= RECENT, "{job:?}");
            } else {
                if let Some(at) = last_fresh.get(&key) {
                    assert_eq!(fresh_seen[job.class] - at, POOLS[job.class], "{job:?}");
                }
                last_fresh.insert(key, fresh_seen[job.class]);
                fresh_seen[job.class] += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "wraps within the cache")]
    fn a_pool_the_cache_could_swallow_is_refused() {
        JobStream::new(1, [200, 60, 4], 128);
    }
}
