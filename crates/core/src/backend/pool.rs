//! The engine's one worker pool: the threads beside the caller that run
//! the row panels of `run_panels`.
//!
//! A [`Pool`] owns `threads` persistent workers and one job queue.
//! [`Pool::run`] queues every task but the first, runs the first on the
//! calling thread, then runs any queued task no worker has taken yet,
//! and returns once every task has finished — so it makes progress with
//! any number of workers, and a task's outcome never depends on which
//! thread ran it. Every task runs under `catch_unwind`: a panic is
//! returned as that task's outcome, and neither the caller nor a worker
//! unwinds through the pool, so a worker that ran a panicking task serves
//! the next `run` as before.
//!
//! A worker that finishes a job, or is [woken](Pool::wake), spins for
//! the next one for [`SPIN`] and then parks. `TiledBackend::execute`
//! wakes its pool first thing, so the workers come out of the park
//! (tens of µs) while the caller validates the step and packs operands,
//! and pick the panels up within about a µs of their queueing; on this
//! class of host a thread spawned per MMO took 69–99 µs to start.
//!
//! The tasks borrow the caller's stack (operands, slabs of `D`, shards,
//! scratch), so handing them to threads that outlive the call erases
//! their lifetime: the one `unsafe` block of the crate, whose argument
//! rests on [`Pool::run`] not returning — nor unwinding — before every
//! job it queued has released its borrows and counted down.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker polls for a job before it parks, and the
/// caller polls for the last running job before it parks. Waking a
/// parked thread costs 24–35 µs here and a spinning one ≈ 1.5 µs; the
/// bound keeps the polling to a few tens of µs of CPU per MMO.
const SPIN: Duration = Duration::from_micros(50);

/// A queued job, its borrows erased (see [`Pool::run`]).
type ErasedJob = Box<dyn FnOnce() + Send + 'static>;

/// `threads` persistent workers and the queue they serve. Dropping the
/// pool stops and joins every worker.
pub(super) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued, on a wake and on shutdown.
    ready: Condvar,
    /// Jobs in the queue, polled by spinning workers without the lock.
    /// A hint only — jobs are handed over under the lock, which orders
    /// everything a job reads — so `Relaxed`.
    queued: AtomicUsize,
}

struct Queue {
    jobs: VecDeque<ErasedJob>,
    /// Bumped by every [`Pool::wake`]: a worker that sees it moved since
    /// it last looked spins once more before it parks.
    wakes: u64,
    /// Workers waiting on [`Shared::ready`].
    parked: usize,
    shutdown: bool,
}

impl Shared {
    /// The queue. No code panics while holding the lock, and every
    /// update leaves the queue whole, so a poisoned lock still guards a
    /// valid queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The oldest queued job, if any.
    fn take(&self) -> Option<ErasedJob> {
        let job = self.lock().jobs.pop_front();
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        job
    }

    /// A worker's life: run jobs; between them spin for [`SPIN`], then
    /// park until a job, shutdown, or a wake it has not yet answered
    /// with a spin.
    fn work(&self) {
        let mut answered = 0;
        loop {
            let spin_until = Instant::now() + SPIN;
            while self.queued.load(Ordering::Relaxed) == 0 && Instant::now() < spin_until {
                std::hint::spin_loop();
            }
            let mut queue = self.lock();
            let job = loop {
                if let Some(job) = queue.jobs.pop_front() {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    break Some(job);
                }
                if queue.shutdown {
                    return;
                }
                if queue.wakes != answered {
                    answered = queue.wakes;
                    break None;
                }
                queue.parked += 1;
                queue = self
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.parked -= 1;
            };
            drop(queue);
            if let Some(job) = job {
                job();
            }
        }
    }
}

impl Pool {
    /// Starts `threads` workers.
    pub(super) fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                wakes: 0,
                parked: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
            queued: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name("simd2-panel".into())
                    .spawn(move || shared.work())
                    .expect("the host refused to start a panel worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// The number of workers (the caller not counted).
    pub(super) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Brings parked workers back to spinning, ahead of a [`run`](Self::run).
    pub(super) fn wake(&self) {
        let mut queue = self.shared.lock();
        queue.wakes = queue.wakes.wrapping_add(1);
        if queue.parked > 0 {
            self.shared.ready.notify_all();
        }
    }

    /// Runs every task — the first on the calling thread, the rest on
    /// the workers, or on the caller when it gets to one first — and
    /// returns their outcomes in task order, a panic as its `Err`
    /// payload. Returns only once every task has finished.
    pub(super) fn run<T: Send>(
        &self,
        tasks: Vec<impl FnOnce() -> T + Send>,
    ) -> Vec<thread::Result<T>> {
        let latch = Arc::new(Latch {
            remaining: AtomicUsize::new(0),
            owner: thread::current(),
        });
        let mut slots: Vec<Option<thread::Result<T>>> = tasks.iter().map(|_| None).collect();
        {
            // Declared before the jobs, so dropped after them: on the way
            // out, returning or unwinding, wait for every job's count-down.
            let _wait = WaitOnDrop(&latch);
            let mut jobs = tasks.into_iter().zip(&mut slots).map(|(task, slot)| Job {
                task,
                slot,
                done: CountDown::new(&latch),
            });
            let first = jobs.next();
            let rest: Vec<ErasedJob> = jobs
                .map(|job| {
                    let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || job.run());
                    // SAFETY: only the lifetime bound changes (same fat
                    // pointer layout). The job borrows `slots` and
                    // whatever its task borrows, all of which outlive
                    // this block — and the block cannot be left before
                    // the job is gone: the job holds a `CountDown` on
                    // `latch`, `_wait` blocks until every `CountDown`
                    // is dropped, and a `Job` drops its `CountDown`
                    // last — after its task and the borrows in it have
                    // been consumed (`Job::run`) or dropped (fields drop
                    // in declaration order). A queued job is never
                    // forgotten: workers and the caller pop and run
                    // jobs, and the queue is only dropped with the pool,
                    // which `&self` keeps alive until this returns.
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, ErasedJob>(job) }
                })
                .collect();
            let queued = rest.len();
            if queued > 0 {
                let mut queue = self.shared.lock();
                queue.jobs.extend(rest);
                self.shared.queued.fetch_add(queued, Ordering::Relaxed);
                for _ in 0..queued.min(queue.parked) {
                    self.shared.ready.notify_one();
                }
            }
            if let Some(job) = first {
                job.run();
            }
            while let Some(job) = self.shared.take() {
                job();
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every job has run once the latch is open"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            // A worker never unwinds: its jobs catch their own panics.
            let _ = worker.join();
        }
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// One task of a [`Pool::run`]: the task, where its outcome goes, and
/// its count-down. Fields drop in declaration order, so a job dropped
/// unrun releases the task (and every borrow it holds) before it counts
/// down.
struct Job<'s, F, T> {
    task: F,
    slot: &'s mut Option<thread::Result<T>>,
    done: CountDown,
}

impl<F: FnOnce() -> T, T> Job<'_, F, T> {
    /// Runs the task, catching a panic, stores its outcome and counts
    /// down — the last thing the job does.
    fn run(self) {
        let Job { task, slot, done } = self;
        *slot = Some(panic::catch_unwind(AssertUnwindSafe(task)));
        drop(done);
    }
}

/// Counts the jobs of one [`Pool::run`] that are still alive, and wakes
/// the caller when the last is gone.
struct Latch {
    remaining: AtomicUsize,
    owner: Thread,
}

impl Latch {
    /// Spins for [`SPIN`], then parks, until no job is left.
    fn wait(&self) {
        let spin_until = Instant::now() + SPIN;
        // Acquire: pairs with each count-down's Release, so every job's
        // writes (its outcome, its slab of `D`) are visible here.
        while self.remaining.load(Ordering::Acquire) != 0 {
            if Instant::now() < spin_until {
                std::hint::spin_loop();
            } else {
                thread::park();
            }
        }
    }
}

/// One live job of a [`Latch`]: counted up when made, down when dropped.
struct CountDown(Arc<Latch>);

impl CountDown {
    fn new(latch: &Arc<Latch>) -> Self {
        latch.remaining.fetch_add(1, Ordering::Relaxed);
        Self(Arc::clone(latch))
    }
}

impl Drop for CountDown {
    fn drop(&mut self) {
        // Release: publishes the job's writes to `Latch::wait`. The `Arc`
        // keeps the latch alive for the unpark after the caller may
        // already have returned.
        if self.0.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.0.owner.unpark();
        }
    }
}

/// Waits on a [`Latch`] when dropped.
struct WaitOnDrop<'l>(&'l Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}
