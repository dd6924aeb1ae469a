//! The executor: a deterministic sequential mode and a work-stealing
//! thread-pool mode, both driving tasks through the installed
//! [`ExecutionHooks`].
//!
//! Idle threads pull ready task descriptors from scheduling queues and
//! execute them asynchronously, mirroring the Nanos execution model the
//! paper builds on. Worker threads are scoped to one run: `run` takes
//! `&mut DataArena`, so when it returns the caller's exclusive borrow is
//! restored and no kernel view can outlive the run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::arena::{ArenaPtrs, DataArena};
use crate::exec::{ExecRecord, ExecutionHooks, PlainExecution, TaskExecution};
use crate::graph::{TaskGraph, TaskId};
use crate::stats::RunReport;

/// Runs task graphs.
///
/// ```
/// use dataflow_rt::{DataArena, Executor, Region, TaskGraph, TaskSpec};
/// let mut arena = DataArena::new();
/// let v = arena.alloc("v", 4);
/// let mut g = TaskGraph::new();
/// g.submit(TaskSpec::new("fill").writes(Region::full(v, 4)).kernel(|ctx| {
///     ctx.w(0).as_mut_slice().fill(2.0);
/// }));
/// g.submit(TaskSpec::new("double").updates(Region::full(v, 4)).kernel(|ctx| {
///     for x in ctx.w(0).as_mut_slice() { *x *= 2.0; }
/// }));
/// let report = Executor::sequential().run(&g, &mut arena);
/// assert_eq!(arena.read(v), &[4.0; 4]);
/// assert_eq!(report.records.len(), 2);
/// ```
pub struct Executor {
    threads: usize,
    hooks: Arc<dyn ExecutionHooks>,
    check_conflicts: bool,
}

impl Executor {
    /// A single-threaded, deterministic executor: tasks run in
    /// submission order subject to dependencies (FIFO ready queue).
    /// Replication-decision experiments use this mode so that decision
    /// sequences are exactly reproducible.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// An executor with `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1);
        Executor {
            threads,
            hooks: Arc::new(PlainExecution),
            check_conflicts: cfg!(debug_assertions),
        }
    }

    /// Installs resilience hooks (e.g. the replication engine).
    #[must_use]
    pub fn with_hooks(mut self, hooks: Arc<dyn ExecutionHooks>) -> Self {
        self.hooks = hooks;
        self
    }

    /// Enables/disables the dynamic conflict checker, which panics if
    /// two live tasks ever hold conflicting overlapping accesses (an
    /// internal scheduling bug). Default: on in debug builds.
    #[must_use]
    pub fn with_conflict_checker(mut self, on: bool) -> Self {
        self.check_conflicts = on;
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `graph` against `arena`, returning per-task records and
    /// the makespan.
    pub fn run(&self, graph: &TaskGraph, arena: &mut DataArena) -> RunReport {
        validate(graph, arena);
        let ptrs = arena.ptrs();
        let start = Instant::now();
        let records = if self.threads == 1 {
            self.run_sequential(graph, &ptrs)
        } else {
            self.run_parallel(graph, &ptrs)
        };
        RunReport {
            makespan: start.elapsed(),
            threads: self.threads,
            records,
        }
    }

    fn run_sequential(&self, graph: &TaskGraph, ptrs: &ArenaPtrs) -> Vec<ExecRecord> {
        let mut indegree = graph.indegrees();
        let mut ready: VecDeque<TaskId> = (0..graph.len())
            .map(|i| TaskId::from_raw(i as u32))
            .filter(|t| indegree[t.index()] == 0)
            .collect();
        let mut records: Vec<Option<ExecRecord>> = (0..graph.len()).map(|_| None).collect();
        let mut done = 0usize;
        while let Some(id) = ready.pop_front() {
            let task = graph.task(id);
            let record = if task.is_barrier {
                ExecRecord::barrier(id)
            } else {
                let mut exec = TaskExecution::new(task, ptrs);
                self.hooks.execute(&mut exec)
            };
            records[id.index()] = Some(record);
            done += 1;
            for &s in graph.successors(id) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.push_back(s);
                }
            }
        }
        assert_eq!(done, graph.len(), "cycle or lost task in graph");
        records
            .into_iter()
            .map(|r| r.expect("all tasks ran"))
            .collect()
    }

    fn run_parallel(&self, graph: &TaskGraph, ptrs: &ArenaPtrs) -> Vec<ExecRecord> {
        let n = graph.len();
        let indegree: Vec<AtomicU32> = graph.indegrees().into_iter().map(AtomicU32::new).collect();
        let remaining = AtomicUsize::new(n);
        let injector: Injector<TaskId> = Injector::new();
        for (i, deg) in indegree.iter().enumerate() {
            if deg.load(Ordering::Relaxed) == 0 {
                injector.push(TaskId::from_raw(i as u32));
            }
        }
        let idle = IdlePark::default();
        let checker = self.check_conflicts.then(|| ConflictChecker::new(graph));

        let workers: Vec<Worker<TaskId>> = (0..self.threads).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<TaskId>> = workers.iter().map(Worker::stealer).collect();

        let record_slots: Vec<Mutex<Option<ExecRecord>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let poisoned = AtomicBool::new(false);

        // A task that panics never decrements `remaining`: the panicking
        // worker's drop guard sets `poisoned` so its siblings stop
        // instead of parking forever, and the first panic (in join
        // order) is re-raised here, as the sequential executor does.
        let panic = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    let env = WorkerEnv {
                        graph,
                        ptrs,
                        hooks: &*self.hooks,
                        local: worker,
                        injector: &injector,
                        stealers: &stealers,
                        indegree: &indegree,
                        remaining: &remaining,
                        idle: &idle,
                        poisoned: &poisoned,
                        record_slots: &record_slots,
                        checker: checker.as_ref(),
                    };
                    scope.spawn(move || worker_loop(env))
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().err()).next()
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }

        assert_eq!(remaining.load(Ordering::SeqCst), 0, "workers exited early");
        record_slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("all tasks ran"))
            .collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::sequential()
    }
}

/// Condvar-based idle parking with timeout to heal lost wakeups.
#[derive(Default)]
struct IdlePark {
    lock: Mutex<()>,
    cond: Condvar,
}

impl IdlePark {
    fn sleep(&self) {
        let mut guard = self.lock.lock();
        self.cond.wait_for(&mut guard, Duration::from_millis(1));
    }

    fn wake_all(&self) {
        self.cond.notify_all();
    }
}

struct WorkerEnv<'e> {
    graph: &'e TaskGraph,
    ptrs: &'e ArenaPtrs,
    hooks: &'e dyn ExecutionHooks,
    local: Worker<TaskId>,
    injector: &'e Injector<TaskId>,
    stealers: &'e [Stealer<TaskId>],
    indegree: &'e [AtomicU32],
    remaining: &'e AtomicUsize,
    idle: &'e IdlePark,
    /// Set when a worker unwinds; every worker then stops.
    poisoned: &'e AtomicBool,
    record_slots: &'e [Mutex<Option<ExecRecord>>],
    checker: Option<&'e ConflictChecker<'e>>,
}

/// Poisons the run if its worker unwinds, and wakes the parked
/// siblings so they see it.
struct PoisonOnUnwind<'e> {
    poisoned: &'e AtomicBool,
    idle: &'e IdlePark,
}

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.poisoned.store(true, Ordering::SeqCst);
            self.idle.wake_all();
        }
    }
}

fn worker_loop(env: WorkerEnv<'_>) {
    let _poison = PoisonOnUnwind {
        poisoned: env.poisoned,
        idle: env.idle,
    };
    loop {
        if env.poisoned.load(Ordering::SeqCst) {
            return;
        }
        if env.remaining.load(Ordering::Acquire) == 0 {
            env.idle.wake_all();
            return;
        }
        let Some(id) = find_task(&env) else {
            env.idle.sleep();
            continue;
        };
        execute_one(&env, id);
    }
}

fn find_task(env: &WorkerEnv<'_>) -> Option<TaskId> {
    if let Some(id) = env.local.pop() {
        return Some(id);
    }
    // Steal from the global injector, then from siblings.
    loop {
        match env.injector.steal_batch_and_pop(&env.local) {
            Steal::Success(id) => return Some(id),
            Steal::Empty => break,
            Steal::Retry => {}
        }
    }
    for stealer in env.stealers {
        loop {
            match stealer.steal() {
                Steal::Success(id) => return Some(id),
                Steal::Empty => break,
                Steal::Retry => {}
            }
        }
    }
    None
}

fn execute_one(env: &WorkerEnv<'_>, id: TaskId) {
    let task = env.graph.task(id);
    let _guard = env.checker.map(|c| c.enter(id));
    let record = if task.is_barrier {
        ExecRecord::barrier(id)
    } else {
        let mut exec = TaskExecution::new(task, env.ptrs);
        env.hooks.execute(&mut exec)
    };
    drop(_guard);
    *env.record_slots[id.index()].lock() = Some(record);

    let mut woke_any = false;
    for &s in env.graph.successors(id) {
        if env.indegree[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
            env.local.push(s);
            woke_any = true;
        }
    }
    if env.remaining.fetch_sub(1, Ordering::AcqRel) == 1 || woke_any {
        env.idle.wake_all();
    }
}

/// Dynamic verification that the scheduler never lets two conflicting
/// tasks run concurrently — the soundness invariant of the raw-pointer
/// kernel views.
struct ConflictChecker<'g> {
    graph: &'g TaskGraph,
    running: Mutex<Vec<TaskId>>,
}

impl<'g> ConflictChecker<'g> {
    fn new(graph: &'g TaskGraph) -> Self {
        ConflictChecker {
            graph,
            running: Mutex::new(Vec::new()),
        }
    }

    fn enter(&self, id: TaskId) -> ConflictGuard<'_, 'g> {
        let task = self.graph.task(id);
        let mut running = self.running.lock();
        for &other_id in running.iter() {
            let other = self.graph.task(other_id);
            for a in &task.accesses {
                for b in &other.accesses {
                    assert!(
                        !(a.mode.conflicts_with(b.mode) && a.region.overlaps(&b.region)),
                        "scheduler bug: tasks `{}` ({:?}) and `{}` ({:?}) run \
                         concurrently with conflicting overlapping accesses",
                        task.label,
                        id,
                        other.label,
                        other_id,
                    );
                }
            }
        }
        running.push(id);
        ConflictGuard { checker: self, id }
    }
}

struct ConflictGuard<'c, 'g> {
    checker: &'c ConflictChecker<'g>,
    id: TaskId,
}

impl Drop for ConflictGuard<'_, '_> {
    fn drop(&mut self) {
        let mut running = self.checker.running.lock();
        if let Some(pos) = running.iter().position(|&t| t == self.id) {
            running.swap_remove(pos);
        }
    }
}

/// Checks every region of every task against the arena's buffer bounds.
fn validate(graph: &TaskGraph, arena: &mut DataArena) {
    let nbuf = arena.buffer_count();
    for task in graph.tasks() {
        for (i, a) in task.accesses.iter().enumerate() {
            let r = &a.region;
            assert!(
                r.buf.index() < nbuf,
                "task `{}` access {i}: buffer {:?} does not exist",
                task.label,
                r.buf
            );
            let len = arena.len(r.buf);
            assert!(
                r.span_end() <= len,
                "task `{}` access {i}: region ends at {} but buffer `{}` has {} elements",
                task.label,
                r.span_end(),
                arena.name(r.buf),
                len
            );
        }
        if !task.is_barrier {
            assert!(task.kernel.is_some(), "task `{}` has no kernel", task.label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskSpec;
    use crate::region::Region;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_runs_chain_in_order() {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 1);
        let mut g = TaskGraph::new();
        for _ in 0..10 {
            g.submit(
                TaskSpec::new("inc")
                    .updates(Region::full(v, 1))
                    .kernel(|ctx| {
                        let mut w = ctx.w(0);
                        let x = w.at(0);
                        w.set(0, x + 1.0);
                    }),
            );
        }
        Executor::sequential().run(&g, &mut arena);
        assert_eq!(arena.read(v)[0], 10.0);
    }

    #[test]
    fn parallel_respects_dependencies() {
        // A chain through one cell interleaved with independent tasks;
        // any ordering violation corrupts the final value.
        let mut arena = DataArena::new();
        let chain = arena.alloc("chain", 1);
        let scratch = arena.alloc("scratch", 64);
        let mut g = TaskGraph::new();
        for i in 0..50 {
            g.submit(
                TaskSpec::new("chain")
                    .updates(Region::full(chain, 1))
                    .kernel(|ctx| {
                        let mut w = ctx.w(0);
                        let x = w.at(0);
                        w.set(0, x * 3.0 + 1.0);
                    }),
            );
            g.submit(
                TaskSpec::new("indep")
                    .writes(Region::contiguous(scratch, i % 64, 1))
                    .kernel(|ctx| ctx.w(0).set(0, 1.0)),
            );
        }
        Executor::new(4).run(&g, &mut arena);
        // x_{n+1} = 3x_n + 1, x_0 = 0 → x_n = (3^n - 1)/2.
        let expected = (3.0f64.powi(50) - 1.0) / 2.0;
        assert_eq!(arena.read(chain)[0], expected);
    }

    #[test]
    fn parallel_executes_every_task_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 128);
        let mut g = TaskGraph::new();
        for i in 0..128 {
            let c = Arc::clone(&counter);
            g.submit(
                TaskSpec::new("t")
                    .writes(Region::contiguous(v, i, 1))
                    .kernel(move |ctx| {
                        c.fetch_add(1, Ordering::Relaxed);
                        ctx.w(0).set(0, 1.0);
                    }),
            );
        }
        let report = Executor::new(3).run(&g, &mut arena);
        assert_eq!(counter.load(Ordering::Relaxed), 128);
        assert_eq!(report.records.len(), 128);
        assert!(arena.read(v).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn barriers_execute_and_order() {
        let mut arena = DataArena::new();
        let a = arena.alloc("a", 1);
        let b = arena.alloc("b", 1);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("w_a")
                .writes(Region::full(a, 1))
                .kernel(|ctx| ctx.w(0).set(0, 5.0)),
        );
        g.taskwait();
        // After the barrier, read a into b — no direct data dep needed.
        g.submit(
            TaskSpec::new("copy")
                .reads(Region::full(a, 1))
                .writes(Region::full(b, 1))
                .kernel(|ctx| {
                    let x = ctx.r(0).at(0);
                    ctx.w(1).set(0, x);
                }),
        );
        let report = Executor::new(2).run(&g, &mut arena);
        assert_eq!(arena.read(b)[0], 5.0);
        assert_eq!(report.records[1].attempts, 0); // the barrier record
    }

    #[test]
    fn report_durations_are_recorded() {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 8);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("spin")
                .writes(Region::full(v, 8))
                .kernel(|ctx| {
                    let mut acc = 0.0;
                    for i in 0..20_000 {
                        acc += (i as f64).sqrt();
                    }
                    ctx.w(0).set(0, acc);
                }),
        );
        let report = Executor::sequential().run(&g, &mut arena);
        assert!(report.records[0].base_nanos > 0);
        assert!(report.makespan.as_nanos() > 0);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn validation_rejects_unknown_buffer() {
        let mut arena = DataArena::new();
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("bad")
                .writes(Region::contiguous(
                    crate::arena::BufferId::from_raw(7),
                    0,
                    4,
                ))
                .kernel(|_| {}),
        );
        Executor::sequential().run(&g, &mut arena);
    }

    #[test]
    #[should_panic(expected = "region ends at")]
    fn validation_rejects_out_of_bounds_region() {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 4);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("oob")
                .writes(Region::contiguous(v, 0, 8))
                .kernel(|_| {}),
        );
        Executor::sequential().run(&g, &mut arena);
    }

    /// A graph whose one panicking task sits among many quick ones,
    /// so siblings are busy or parked when it fails.
    fn graph_with_panicking_task(arena: &mut DataArena) -> TaskGraph {
        let v = arena.alloc("v", 64);
        let mut g = TaskGraph::new();
        for i in 0..64 {
            g.submit(
                TaskSpec::new("t")
                    .writes(Region::contiguous(v, i, 1))
                    .kernel(move |ctx| {
                        if i == 17 {
                            panic!("kernel 17 failed");
                        }
                        ctx.w(0).set(0, 1.0);
                    }),
            );
        }
        // A dependent chain keeps the other workers waiting on the
        // failed task's successors.
        g.submit(
            TaskSpec::new("sum")
                .reads(Region::full(v, 64))
                .kernel(|_| {}),
        );
        g
    }

    #[test]
    fn parallel_kernel_panic_propagates_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            for threads in [2, 4] {
                for _ in 0..100 {
                    let mut arena = DataArena::new();
                    let g = graph_with_panicking_task(&mut arena);
                    let exec = Executor::new(threads).with_conflict_checker(false);
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec.run(&g, &mut arena);
                    }));
                    let message = caught
                        .expect_err("the kernel panic must reach the caller")
                        .downcast::<&str>()
                        .map(|m| m.to_string())
                        .unwrap_or_default();
                    assert_eq!(message, "kernel 17 failed", "the first panic is re-raised");
                }
            }
            tx.send(()).expect("the test thread waits for the runs");
        });
        // A panic in `runner` drops `tx` (disconnect) and surfaces from
        // `join`; only a hang runs into the timeout.
        let waited = rx.recv_timeout(Duration::from_secs(60));
        assert!(
            !matches!(waited, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "200 panicking runs did not finish within 60 s: the executor hung"
        );
        runner
            .join()
            .expect("every run panics out with the kernel's message");
    }

    #[test]
    fn diamond_dependency_order() {
        // w → {r1, r2} → sum; result must see both middle tasks.
        let mut arena = DataArena::new();
        let src = arena.alloc("src", 2);
        let mid = arena.alloc("mid", 2);
        let out = arena.alloc("out", 1);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("w")
                .writes(Region::full(src, 2))
                .kernel(|ctx| {
                    let mut w = ctx.w(0);
                    w.set(0, 3.0);
                    w.set(1, 4.0);
                }),
        );
        for i in 0..2 {
            g.submit(
                TaskSpec::new("mid")
                    .reads(Region::contiguous(src, i, 1))
                    .writes(Region::contiguous(mid, i, 1))
                    .kernel(|ctx| {
                        let x = ctx.r(0).at(0);
                        ctx.w(1).set(0, x * x);
                    }),
            );
        }
        g.submit(
            TaskSpec::new("sum")
                .reads(Region::full(mid, 2))
                .writes(Region::full(out, 1))
                .kernel(|ctx| {
                    let r = ctx.r(0);
                    ctx.w(1).set(0, r.at(0) + r.at(1));
                }),
        );
        Executor::new(2).run(&g, &mut arena);
        assert_eq!(arena.read(out)[0], 25.0);
    }
}
