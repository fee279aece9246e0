//! Shared worker pool for the execution phase.
//!
//! Real ShardingSphere executes grouped SQL on a reusable executor service;
//! spawning OS threads per query would dominate point-query latency. One
//! process-wide pool, sized to the machine, serves every kernel instance.
//!
//! Every fan-out in the kernel — a statement's execution groups, a 2PC
//! phase's branches — is one call to [`WorkerPool::run_all`]: a caller-runs
//! fork-join. The calling thread works through the tasks from the front
//! while up to `helpers` pool workers claim tasks from the back, so a task
//! nobody else has started by the time the caller reaches it simply runs on
//! the caller. With no helpers that is a plain loop: no hand-off, no
//! wake-up, no context switch. How many helpers a fan-out deserves is
//! [`WorkerPool::helpers_for`]'s decision, from what the tasks do, not from
//! how many there are.

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

type Job = Box<dyn FnOnce() + Send + 'static>;

pub struct WorkerPool {
    tx: Sender<Job>,
    pub size: usize,
    /// CPUs this process may run on (`available_parallelism`, which honours
    /// the affinity mask), read once when the pool is built.
    cpus: usize,
}

impl WorkerPool {
    pub(crate) fn new(size: usize, cpus: usize) -> WorkerPool {
        let (tx, rx) = unbounded::<Job>();
        for i in 0..size {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("shard-exec-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panicking job must not take its worker with it:
                        // the pool would be one thread smaller for the life
                        // of the process. Whoever waits on the job learns of
                        // the failure through the job's own channel closing
                        // (or, in `run_all`, through the caught payload).
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("spawn executor worker");
        }
        WorkerPool {
            tx,
            size,
            cpus: cpus.max(1),
        }
    }

    /// The process-wide pool (lazily created; twice the cores, since workers
    /// spend most time blocked on simulated I/O).
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8);
            // Workers spend nearly all their time blocked on simulated I/O,
            // so the pool is sized for concurrency, not cores.
            WorkerPool::new((cores * 4).clamp(96, 192), cores)
        })
    }

    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.tx.send(Box::new(job)).expect("executor pool alive");
    }

    /// How many pool workers a fan-out of `tasks` tasks should wake.
    ///
    /// When a target *waits* (see `StorageEngine::waits`) — on a wire, a
    /// server queue, a flush window — the waits overlap on any machine, so
    /// every task but the caller's own gets a helper. Otherwise the tasks
    /// are computation, and a helper only helps if there is another CPU to
    /// run it on: woken on the caller's CPU it time-slices against the
    /// caller and the statement pays the hand-offs for nothing.
    pub fn helpers_for(&self, tasks: usize, waits: bool) -> usize {
        let others = tasks.saturating_sub(1);
        if waits {
            others
        } else {
            others.min(self.cpus - 1)
        }
    }

    /// Run every task exactly once and return the results in task order.
    ///
    /// The caller runs tasks itself, front to back; up to `helpers` pool
    /// workers claim tasks from the back meanwhile. Returns once every task
    /// has finished. If a task panicked, the panic resumes on the caller —
    /// after every started task has finished, like `std::thread::scope`.
    pub fn run_all<T, F>(&self, tasks: Vec<F>, helpers: usize) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let helpers = helpers.min(tasks.len().saturating_sub(1));
        if helpers == 0 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let join = ForkJoin::new(tasks);
        self.wake(&join, helpers);
        while join.run_one(End::Front) {}
        let mut state = join.state.lock();
        while state.running > 0 {
            join.done.wait(&mut state);
        }
        let results = std::mem::take(&mut state.results);
        drop(state);
        collect(results)
    }

    /// [`WorkerPool::run_all`] for a caller that must be able to walk away:
    /// every task goes to a pool worker, the caller runs none and waits no
    /// longer than `deadline`. Tasks not started by then are dropped; tasks
    /// still running are left to finish on their workers, their results
    /// discarded, and the error says how many tasks that is in all.
    pub fn run_all_until<T, F>(&self, tasks: Vec<F>, deadline: Instant) -> Result<Vec<T>, usize>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let helpers = tasks.len();
        let join = ForkJoin::new(tasks);
        self.wake(&join, helpers);
        let mut state = join.state.lock();
        while state.front < state.back || state.running > 0 {
            if join.done.wait_until(&mut state, deadline).timed_out() {
                let outstanding = state.results.iter().filter(|r| r.is_none()).count();
                if outstanding == 0 {
                    break;
                }
                // Nobody claims past `back`: unstarted tasks drop here, on
                // the caller, and release whatever they hold.
                let unstarted: Vec<F> = state.tasks.iter_mut().filter_map(Option::take).collect();
                state.back = state.front;
                drop(state);
                drop(unstarted);
                return Err(outstanding);
            }
        }
        let results = std::mem::take(&mut state.results);
        drop(state);
        Ok(collect(results))
    }

    fn wake<T, F>(&self, join: &Arc<ForkJoin<T, F>>, helpers: usize)
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        for _ in 0..helpers {
            let join = Arc::clone(join);
            self.submit(move || while join.run_one(End::Back) {});
        }
    }
}

/// Take the results out in task order, resuming the first panic (in task
/// order) if any task panicked.
fn collect<T>(results: Vec<Option<std::thread::Result<T>>>) -> Vec<T> {
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        match result.expect("every task reported before the join returned") {
            Ok(value) => out.push(value),
            Err(panic) => resume_unwind(panic),
        }
    }
    out
}

/// Which end of the task list a thread claims from.
#[derive(Clone, Copy)]
enum End {
    Front,
    Back,
}

/// One fan-out in flight, shared between the caller and its helpers.
struct ForkJoin<T, F> {
    state: Mutex<State<T, F>>,
    /// Signalled when the last claimed task finishes with none unclaimed.
    done: Condvar,
}

struct State<T, F> {
    /// `None` once claimed. Unclaimed tasks are `front..back`.
    tasks: Vec<Option<F>>,
    results: Vec<Option<std::thread::Result<T>>>,
    front: usize,
    back: usize,
    /// Claimed and not yet finished.
    running: usize,
}

impl<T, F: FnOnce() -> T> ForkJoin<T, F> {
    fn new(tasks: Vec<F>) -> Arc<Self> {
        let n = tasks.len();
        Arc::new(ForkJoin {
            state: Mutex::new(State {
                tasks: tasks.into_iter().map(Some).collect(),
                results: (0..n).map(|_| None).collect(),
                front: 0,
                back: n,
                running: 0,
            }),
            done: Condvar::new(),
        })
    }

    /// Claim one task from `end` and run it; `false` when none is left.
    fn run_one(&self, end: End) -> bool {
        let (index, task) = {
            let mut state = self.state.lock();
            if state.front >= state.back {
                return false;
            }
            let index = match end {
                End::Front => {
                    state.front += 1;
                    state.front - 1
                }
                End::Back => {
                    state.back -= 1;
                    state.back
                }
            };
            state.running += 1;
            let task = state.tasks[index].take().expect("claimed once");
            (index, task)
        };
        let result = catch_unwind(AssertUnwindSafe(task));
        let mut state = self.state.lock();
        state.results[index] = Some(result);
        state.running -= 1;
        if state.running == 0 && state.front >= state.back {
            self.done.notify_all();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn jobs_run_concurrently() {
        let pool = WorkerPool::global();
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = unbounded();
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..16 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn helpers_follow_what_the_tasks_do() {
        let one_cpu = WorkerPool::new(1, 1);
        assert_eq!(one_cpu.helpers_for(8, false), 0);
        assert_eq!(one_cpu.helpers_for(8, true), 7);
        let four_cpus = WorkerPool::new(1, 4);
        assert_eq!(four_cpus.helpers_for(8, false), 3);
        assert_eq!(four_cpus.helpers_for(2, false), 1);
        assert_eq!(four_cpus.helpers_for(1, true), 0);
        assert_eq!(four_cpus.helpers_for(0, true), 0);
    }

    #[test]
    fn every_task_runs_once_in_order_under_racing_claims() {
        let pool = WorkerPool::new(3, 4);
        let caller = std::thread::current().id();
        let mut ran_on_caller = 0usize;
        for round in 0..1000usize {
            let runs = Arc::new(AtomicUsize::new(0));
            let tasks: Vec<_> = (0..8usize)
                .map(|i| {
                    let runs = Arc::clone(&runs);
                    move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        (round * 8 + i, std::thread::current().id())
                    }
                })
                .collect();
            let out: Vec<(usize, ThreadId)> = pool.run_all(tasks, 3);
            assert_eq!(runs.load(Ordering::SeqCst), 8);
            for (i, (value, thread)) in out.iter().enumerate() {
                assert_eq!(*value, round * 8 + i);
                ran_on_caller += usize::from(*thread == caller);
            }
        }
        // Not a property, a report: how the claims split on this machine.
        println!("caller ran {ran_on_caller} of 8000 tasks");
    }

    fn sleepers(n: usize, each: Duration) -> Vec<impl FnOnce() + Send + 'static> {
        (0..n).map(|_| move || std::thread::sleep(each)).collect()
    }

    #[test]
    fn helpers_overlap_waits_and_none_means_serial() {
        let pool = WorkerPool::new(3, 1);
        let each = Duration::from_millis(20);
        let start = Instant::now();
        pool.run_all(sleepers(4, each), 3);
        let overlapped = start.elapsed();
        assert!(overlapped < Duration::from_millis(70), "{overlapped:?}");
        let start = Instant::now();
        pool.run_all(sleepers(4, each), 0);
        let serial = start.elapsed();
        assert!(serial >= Duration::from_millis(80), "{serial:?}");
    }

    #[test]
    fn deadline_abandons_a_hung_task_and_the_caller_runs_none() {
        let pool = WorkerPool::new(2, 1);
        let caller = std::thread::current().id();
        let (release, hung) = unbounded::<()>();
        let (started_tx, started) = unbounded::<ThreadId>();
        let (finished_tx, finished) = unbounded::<()>();
        let tasks: Vec<Box<dyn FnOnce() -> ThreadId + Send>> = vec![
            Box::new({
                let started_tx = started_tx.clone();
                move || {
                    started_tx.send(std::thread::current().id()).unwrap();
                    std::thread::current().id()
                }
            }),
            Box::new(move || {
                started_tx.send(std::thread::current().id()).unwrap();
                let _ = hung.recv();
                finished_tx.send(()).unwrap();
                std::thread::current().id()
            }),
        ];
        let err = pool
            .run_all_until(tasks, Instant::now() + Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, 1, "one task outstanding");
        // Both tasks started, neither on the caller, and the hung one is
        // still running after the caller got its answer.
        for _ in 0..2 {
            assert_ne!(
                started.recv_timeout(Duration::from_secs(2)).unwrap(),
                caller
            );
        }
        assert!(finished.try_recv().is_err());
        release.send(()).unwrap();
        finished.recv_timeout(Duration::from_secs(2)).unwrap();

        // Within the deadline the results come back in task order.
        let tasks: Vec<_> = (0..4usize).map(|i| move || i).collect();
        let out = pool
            .run_all_until(tasks, Instant::now() + Duration::from_secs(5))
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_workers_survive() {
        let pool = WorkerPool::new(2, 1);
        // Twice, so that a pool which lost a worker per panic has none left.
        for _ in 0..2 {
            // The caller's task waits for the other one to start, so only a
            // helper can be the thread that panics.
            let (started_tx, started) = unbounded::<()>();
            let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(move || started.recv().unwrap()),
                Box::new(move || {
                    started_tx.send(()).unwrap();
                    panic!("task failed");
                }),
            ];
            let caught = catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks, 1)));
            let payload = caught.expect_err("the panic resumes on the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed"));
        }
        let each = Duration::from_millis(40);
        let start = Instant::now();
        pool.run_all(sleepers(2, each), 1);
        let elapsed = start.elapsed();
        assert!(elapsed < each * 2, "no worker left to help: {elapsed:?}");
    }
}
