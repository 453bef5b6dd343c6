//! The executor behind [`Exchange::drain`]: one router owns every
//! decision, and VFL courses are futures that resolve off-slot.
//!
//! ## Router / course-task split
//!
//! [`Exchange::drain`] runs a single **router** on the calling thread. The
//! router is the only thread that runs session slices, appends journal
//! frames, mutates the gain cache, or settles demands. When a slice hits
//! an uncached course it suspends (`SliceEnd::NeedCourse`, holding the
//! cache's training claim) and the router ships a [`CourseOrder`] to the
//! exchange's [`CourseResolver`], which returns a [`CourseFuture`]. N
//! **course tasks** (plain threads driving a hand-rolled waker/ready-queue
//! executor — no runtime dependency) poll those futures to completion and
//! send each result on that course's own one-slot channel. The course
//! tasks are a pool owned by the exchange's drain guard, so they outlive
//! a drain: the pool is spawned at the first uncached course any drain
//! meets, a later drain asking for the same task count reuses it (and
//! spawns no thread), and a drain asking for another count closes and
//! joins it and spawns a fresh one. A drain served wholly from the ΔG
//! cache touches no thread (and a nonzero task count never queries the
//! host's parallelism). Between drains the tasks sleep on the empty
//! ready queue; the pool is closed and joined when the exchange drops or
//! when the router unwinds. This matches the paper's setting, where each
//! ΔG is a VFL training run by the parties themselves: the exchange only
//! orders quotes around trainings that run elsewhere.
//!
//! ## Why journal order is deterministic
//!
//! The router applies completions **strictly in request order**, one at
//! a time, between slice runs: outstanding courses wait in a FIFO, and
//! the router receives only from the oldest one's channel, so a later
//! course's result waits in its channel until every earlier one has been
//! applied, however quickly it resolved. Applying a completion
//! is the course critical section, and `Exchange::apply_course` is its
//! only copy: cache insert, `CourseTrained` crash point, `CourseServed`
//! frame, `CourseRecorded` crash point, course-waiter wake, then the payer
//! resumes *in-slice* (no second dispatch crash point). Since every
//! journal append and cache mutation happens on the router in an order
//! that is a pure function of the FIFO session queue and the request
//! sequence, the journal, the outcomes, and every counter are
//! **byte-identical for any task count and any resolver latency**.
//!
//! ## The resolver seam
//!
//! [`LocalResolver`] (the default) trains on the course task itself.
//! [`Exchange::set_course_resolver`] swaps in any other resolver: a
//! networked one would ship the order out and resolve on the reply, and
//! [`SimulatedRemoteResolver`] models that with a fixed latency (bench
//! E14). A resolver's error fails only the paying session.
//!
//! ## Drain guard, state lock, and panics
//!
//! `drain` holds the exchange's drain mutex throughout, so exactly one
//! router runs slices at any time; a second `drain` waits, then finds
//! whatever work is left. The router takes the exchange's state lock once
//! per slice, once per applied course, and once per idle flush — never
//! while it waits for a completion or calls the resolver — so `submit`,
//! `poll`, `take`, and `metrics` from other threads interleave between
//! those steps. A course that panics is caught on its course task and
//! sent on its channel as the panic payload; when the router reaches it,
//! it resumes the unwind, which closes the ready queue and joins the
//! course tasks on its way out, so `drain` panics with the provider's
//! message instead of waiting forever for a result that will never be
//! sent. A course future dropped before it resolves (one that returned
//! `Pending` without keeping its waker, so nothing can poll it again)
//! drops its task and with it the channel's sending half; the router's
//! receive then fails, and it applies that as the course's error: the
//! paying session fails, the claim is aborted, and the waiters wake.
//!
//! ## Deadlock freedom
//!
//! The router blocks in exactly one place — waiting for the oldest
//! outstanding completion — holding only the drain mutex and no session.
//! Course futures never depend on each other or on router progress (a
//! resolver sees only its own order), so the oldest completion always
//! arrives, as a result, as a panic, or as the closed channel of a
//! dropped future; timer-based resolvers get their wakes from the
//! [`SimulatedRemoteResolver`] timer thread, which depends on nothing.
//! Course tasks block only on the ready queue, which is closed when the
//! pool is dropped. There is no cycle to deadlock on.

use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vfl_market::{GainProvider, MarketError, Result};
use vfl_sim::BundleMask;

use crate::exchange::{Core, DrainReport, Exchange, NoticeKind, SliceEnd};
use crate::journal::{CrashPoint, ExchangeEvent};
use crate::lock;
use crate::store::SessionId;
use crate::telemetry::Stage;
use vfl_telemetry::TraceKey;

/// The boxed future one course resolution runs as. Resolves to the ΔG of
/// the ordered bundle (or the training error, which fails the paying
/// session exactly like an inline provider error).
pub type CourseFuture = Pin<Box<dyn Future<Output = Result<f64>> + Send>>;

/// One suspended course request: everything a resolver needs to train
/// `bundle` under `eval_key` on behalf of `session` (which is checked
/// in, off every queue, and holds the gain cache's training claim until
/// the router settles it).
pub struct CourseOrder {
    /// The paying session, suspended until the result is applied.
    pub session: SessionId,
    /// Cache identity of the market the course belongs to.
    pub eval_key: u64,
    /// The bundle to train.
    pub bundle: BundleMask,
    /// The market's gain provider (the actual course).
    pub provider: Arc<dyn GainProvider + Send + Sync>,
}

impl std::fmt::Debug for CourseOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CourseOrder")
            .field("session", &self.session)
            .field("eval_key", &self.eval_key)
            .field("bundle", &self.bundle)
            .finish()
    }
}

/// Turns a [`CourseOrder`] into a [`CourseFuture`]. This is the remote
/// seam ([`Exchange::set_course_resolver`]): [`LocalResolver`] trains on
/// the course task itself, while a networked implementation would ship
/// the order out and resolve on the reply — [`SimulatedRemoteResolver`]
/// models exactly that with a configurable latency, for testing and
/// benching.
pub trait CourseResolver: Send + Sync {
    /// Builds the future that will produce the order's ΔG. Must not
    /// train synchronously inside this call (the router calls it):
    /// defer the work into the returned future.
    fn resolve(&self, order: &CourseOrder) -> CourseFuture;
}

/// Resolves courses by running the provider inside the future's first
/// poll — the training happens on a course task, concurrent with other
/// courses but off the router. The zero-latency baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalResolver;

impl CourseResolver for LocalResolver {
    fn resolve(&self, order: &CourseOrder) -> CourseFuture {
        let provider = order.provider.clone();
        let bundle = order.bundle;
        Box::pin(LazyGain { provider, bundle })
    }
}

struct LazyGain {
    provider: Arc<dyn GainProvider + Send + Sync>,
    bundle: BundleMask,
}

impl Future for LazyGain {
    type Output = Result<f64>;
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Result<f64>> {
        Poll::Ready(self.provider.gain(self.bundle))
    }
}

// ---------------------------------------------------------------------
// Simulated-latency "remote" resolution: a timer wheel thread fires
// registered wakers at their deadlines; the future trains on the poll
// that observes its deadline passed.
// ---------------------------------------------------------------------

struct TimerState {
    /// Registered wakers by deadline; wakers sharing a deadline fire
    /// together.
    wakers: BTreeMap<Instant, Vec<Waker>>,
    shutdown: bool,
}

struct TimerShared {
    state: Mutex<TimerState>,
    cv: Condvar,
}

impl TimerShared {
    fn register(&self, deadline: Instant, waker: Waker) {
        lock(&self.state)
            .wakers
            .entry(deadline)
            .or_default()
            .push(waker);
        self.cv.notify_all();
    }

    fn run(self: Arc<Self>) {
        let mut state = lock(&self.state);
        loop {
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            while let Some(due) = state.wakers.first_entry().filter(|e| *e.key() <= now) {
                // Waking under the lock is safe: the waker only pushes
                // onto the course-task ready queue (a different lock).
                due.remove().into_iter().for_each(Waker::wake);
            }
            state = match state.wakers.keys().next() {
                Some(&deadline) => {
                    let wait = deadline.saturating_duration_since(now);
                    self.cv
                        .wait_timeout(state, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self.cv.wait(state).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// A [`CourseResolver`] that models remote training: each course future
/// stays pending for a fixed simulated network+training `latency`
/// (enforced by a dedicated timer thread), then trains through the
/// order's own provider. Because every course spends its latency parked
/// in the timer wheel rather than on a thread, any number of courses
/// overlap, however few course tasks run (bench E14).
pub struct SimulatedRemoteResolver {
    latency: Duration,
    shared: Arc<TimerShared>,
    thread: Option<JoinHandle<()>>,
}

impl SimulatedRemoteResolver {
    /// A resolver whose every course resolves after `latency`.
    pub fn new(latency: Duration) -> Self {
        let shared = Arc::new(TimerShared {
            state: Mutex::new(TimerState {
                wakers: BTreeMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let runner = shared.clone();
        let thread = std::thread::spawn(move || runner.run());
        SimulatedRemoteResolver {
            latency,
            shared,
            thread: Some(thread),
        }
    }

    /// The configured simulated latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

impl Drop for SimulatedRemoteResolver {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for SimulatedRemoteResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedRemoteResolver")
            .field("latency", &self.latency)
            .finish_non_exhaustive()
    }
}

impl CourseResolver for SimulatedRemoteResolver {
    fn resolve(&self, order: &CourseOrder) -> CourseFuture {
        Box::pin(RemoteGain {
            provider: order.provider.clone(),
            bundle: order.bundle,
            latency: self.latency,
            deadline: None,
            wheel: self.shared.clone(),
        })
    }
}

struct RemoteGain {
    provider: Arc<dyn GainProvider + Send + Sync>,
    bundle: BundleMask,
    latency: Duration,
    deadline: Option<Instant>,
    wheel: Arc<TimerShared>,
}

impl Future for RemoteGain {
    type Output = Result<f64>;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Result<f64>> {
        let this = self.get_mut();
        let now = Instant::now();
        match this.deadline {
            None => {
                let deadline = now + this.latency;
                this.deadline = Some(deadline);
                this.wheel.register(deadline, cx.waker().clone());
                Poll::Pending
            }
            // A spurious poll before the deadline re-registers (wakers
            // are consumed when fired).
            Some(deadline) if now < deadline => {
                this.wheel.register(deadline, cx.waker().clone());
                Poll::Pending
            }
            Some(_) => Poll::Ready(this.provider.gain(this.bundle)),
        }
    }
}

// ---------------------------------------------------------------------
// The mini executor: course tasks poll futures off a shared ready
// queue; a task's waker re-enqueues the task itself.
// ---------------------------------------------------------------------

struct TaskQueue {
    ready: Mutex<Ready>,
    cv: Condvar,
}

/// The queue state. `closed` lives under the same mutex as the tasks: a
/// course task checks both before it waits, so a close can never slip in
/// between its check and its wait and leave it asleep at drain end.
struct Ready {
    tasks: VecDeque<Arc<CourseTask>>,
    closed: bool,
}

impl TaskQueue {
    fn new() -> Self {
        TaskQueue {
            ready: Mutex::new(Ready {
                tasks: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, task: Arc<CourseTask>) {
        lock(&self.ready).tasks.push_back(task);
        self.cv.notify_one();
    }

    /// Blocks for the next ready task; `None` once the queue is closed
    /// and empty (course tasks exit).
    fn pop(&self) -> Option<Arc<CourseTask>> {
        let mut ready = lock(&self.ready);
        loop {
            if let Some(task) = ready.tasks.pop_front() {
                return Some(task);
            }
            if ready.closed {
                return None;
            }
            ready = self.cv.wait(ready).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.ready).closed = true;
        self.cv.notify_all();
    }
}

/// A spawned course: the future slot is `None` after completion, so
/// late (spurious) wakes re-poll nothing. `done` is the sending half of
/// the course's own channel; it drops with the task, so a future dropped
/// unresolved closes the channel instead of leaving the router waiting.
struct CourseTask {
    future: Mutex<Option<CourseFuture>>,
    queue: Arc<TaskQueue>,
    done: SyncSender<Completion>,
}

impl CourseTask {
    /// A task for `future` plus the receiving half of its channel.
    fn spawn(future: CourseFuture, queue: Arc<TaskQueue>) -> (Arc<Self>, Receiver<Completion>) {
        let (done, completion) = sync_channel(1);
        let task = CourseTask {
            future: Mutex::new(Some(future)),
            queue,
            done,
        };
        (Arc::new(task), completion)
    }
}

impl std::task::Wake for CourseTask {
    fn wake(self: Arc<Self>) {
        let queue = self.queue.clone();
        queue.push(self);
    }
}

fn course_worker(queue: Arc<TaskQueue>) {
    while let Some(task) = queue.pop() {
        let waker = Waker::from(task.clone());
        let mut cx = Context::from_waker(&waker);
        // Holding the slot across the poll serializes concurrent polls of
        // one task (a wake racing the poll just re-enqueues; the re-poll
        // finds either Pending again or an empty slot).
        let mut slot = lock(&task.future);
        if let Some(future) = slot.as_mut() {
            // A panicking course is sent as its payload, so the router
            // resumes the panic instead of reporting a dropped future.
            let polled = catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)));
            let completion = match polled {
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(result)) => Ok(result),
                Err(payload) => Err(payload),
            };
            *slot = None;
            // The send fails only if the router unwound and dropped the
            // receiver: then nobody waits for this result.
            let _ = task.done.send(completion);
        }
    }
}

/// What a course task sends: the course's result, or the payload of the
/// panic that unwound out of its poll.
type Completion = std::thread::Result<Result<f64>>;

/// The exchange's course-task pool, owned by its drain guard so that it
/// outlives a drain. Dropping closes the ready queue and joins the tasks:
/// when the exchange drops, when a drain needs another task count, and
/// when the router unwinds.
pub(crate) struct CourseTasks {
    queue: Arc<TaskQueue>,
    handles: Vec<JoinHandle<()>>,
}

impl CourseTasks {
    /// The pool in `pool` when it has `n` tasks; otherwise a fresh one of
    /// `n` tasks, after the old one (if any) is closed and joined.
    fn reuse_or_spawn(pool: &mut Option<CourseTasks>, n: usize) -> &CourseTasks {
        if pool.as_ref().is_some_and(|p| p.handles.len() != n) {
            *pool = None;
        }
        pool.get_or_insert_with(|| CourseTasks::spawn(n))
    }

    fn spawn(n: usize) -> Self {
        let queue = Arc::new(TaskQueue::new());
        let handles = (0..n)
            .map(|_| {
                let queue = queue.clone();
                std::thread::spawn(move || course_worker(queue))
            })
            .collect();
        CourseTasks { queue, handles }
    }
}

impl Drop for CourseTasks {
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One outstanding course: the receiving half of its channel, the
/// suspended order, and the telemetry timestamp of its dispatch (for the
/// `course_train` stage, which spans dispatch → applied).
struct OutstandingCourse {
    completion: Receiver<Completion>,
    order: CourseOrder,
    started_ns: Option<u64>,
}

/// Closes and joins the pool when the router unwinds (a course's panic
/// resumed, or a slice's own), so no course task outlives a failed drain.
struct JoinOnUnwind<'a>(&'a mut Option<CourseTasks>);

impl Drop for JoinOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0 = None;
        }
    }
}

impl Exchange {
    /// The router loop described in the module doc, run under the drain
    /// mutex by [`Exchange::drain`] (same contract). `pool` is the drain
    /// guard's course-task pool.
    pub(crate) fn route(
        &self,
        pool: &mut Option<CourseTasks>,
        course_tasks: usize,
        resolver: &dyn CourseResolver,
    ) -> DrainReport {
        let n_tasks = match course_tasks {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let start = Instant::now();

        // Spawned (or resized) at the drain's first uncached course: a
        // drain served wholly from the cache touches no thread, and one
        // that trains reuses an earlier drain's pool of its size.
        let pool = JoinOnUnwind(pool);
        let mut overflow: VecDeque<SessionId> = VecDeque::new();
        let mut outstanding: VecDeque<OutstandingCourse> = VecDeque::new();
        let mut closed = 0usize;
        let mut failed = 0usize;
        let mut cancelled = 0usize;

        // Dispatches a suspended course to the resolver, or absorbs a
        // finished slice's notice into the drain counters.
        macro_rules! settle {
            ($end:expr) => {
                match $end {
                    SliceEnd::NeedCourse(order) => {
                        let started_ns = self.telemetry.as_deref().map(|t| t.now_ns());
                        let queue = &CourseTasks::reuse_or_spawn(&mut *pool.0, n_tasks).queue;
                        let (task, completion) =
                            CourseTask::spawn(resolver.resolve(&order), queue.clone());
                        outstanding.push_back(OutstandingCourse {
                            completion,
                            order,
                            started_ns,
                        });
                        queue.push(task);
                    }
                    SliceEnd::Notice(notice) => {
                        cancelled += notice.cancelled;
                        match notice.kind {
                            NoticeKind::Yielded(id) => overflow.push_back(id),
                            NoticeKind::Parked => {}
                            NoticeKind::Finished { closed: true } => closed += 1,
                            NoticeKind::Finished { closed: false } => failed += 1,
                        }
                    }
                }
            };
        }

        loop {
            // Phase 1: run every ready session, FIFO — one state-lock
            // critical section per slice, released before the slice's
            // course (if any) goes to the resolver.
            loop {
                let end = {
                    let mut core = lock(&self.state);
                    overflow.append(&mut core.pending);
                    if let Some(t) = self.telemetry.as_deref() {
                        t.queue_depth.set(overflow.len() as i64);
                    }
                    let Some(id) = overflow.pop_front() else {
                        break;
                    };
                    self.run_slice(&mut core, id, None)
                };
                settle!(end);
            }
            // Phase 2: apply the OLDEST outstanding completion — exactly
            // one, then give freshly woken work phase-1 priority again.
            // The wait happens outside the state lock.
            if let Some(course) = outstanding.pop_front() {
                let result = match course.completion.recv() {
                    Ok(Ok(result)) => result,
                    Ok(Err(panic)) => resume_unwind(panic),
                    Err(_) => Err(MarketError::Gain(format!(
                        "course future for {} under evaluation key {:#x} was dropped \
                         before it resolved",
                        course.order.bundle, course.order.eval_key
                    ))),
                };
                let end = self.apply_course(&mut lock(&self.state), course, result);
                settle!(end);
                continue;
            }
            // Phase 3: fully idle — flush the clearing window and
            // re-check, in the same critical section, for work it woke or
            // a concurrent submit raced in.
            let mut core = lock(&self.state);
            cancelled += self.drive_clearing(&mut core, true);
            if core.pending.is_empty() {
                // Drain end: the first of the stage tallies' publish
                // points (see crate::telemetry).
                if let Some(t) = self.telemetry.as_deref() {
                    t.publish(&mut core.stages);
                }
                break;
            }
        }

        DrainReport {
            closed,
            failed,
            cancelled,
            workers: n_tasks,
            elapsed: start.elapsed(),
        }
    }

    /// Applies one resolved course — the course critical section: cache
    /// insert and counted miss → `CourseTrained` → `CourseServed` frame →
    /// `CourseRecorded` → the claim's waiters requeued, then the paying
    /// session resumes in-slice with the result. A failed course releases
    /// the claim instead, counts no miss, wakes the waiters (they retry
    /// and one inherits the claim), and fails the payer.
    fn apply_course(
        &self,
        core: &mut Core,
        course: OutstandingCourse,
        result: Result<f64>,
    ) -> SliceEnd {
        let OutstandingCourse {
            order, started_ns, ..
        } = course;
        let CourseOrder {
            session,
            eval_key,
            bundle,
            ..
        } = order;
        match result {
            Ok(g) => {
                let waiters = core.cache.complete(eval_key, bundle, g);
                core.counters.cache_misses += 1;
                if let (Some(t), Some(start)) = (self.telemetry.as_deref(), started_ns) {
                    let now = t.now_ns();
                    core.stages.record(Stage::CourseTrain, now - start);
                    core.stages
                        .span(t, TraceKey::Session(session.0), "course_train", start, now);
                }
                // Course critical section: the training is paid but not yet
                // journaled — a crash here loses the receipt, and recovery
                // legitimately re-trains.
                core.crash_point(CrashPoint::CourseTrained {
                    session,
                    eval_key,
                    bundle,
                });
                self.record_with(core, |_| ExchangeEvent::CourseServed {
                    eval_key,
                    bundle,
                    gain: g,
                });
                core.crash_point(CrashPoint::CourseRecorded {
                    session,
                    eval_key,
                    bundle,
                });
                // Wake-on-insert, before the payer resumes.
                self.wake_course_waiters(core, waiters);
                self.run_slice(core, session, Some(Ok(g)))
            }
            Err(e) => {
                let waiters = core.cache.abort(eval_key, bundle);
                self.wake_course_waiters(core, waiters);
                self.run_slice(core, session, Some(Err(e)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn timer_wheel_fires_in_deadline_order_and_shuts_down() {
        struct CountWake(AtomicUsize);
        impl std::task::Wake for CountWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let resolver = SimulatedRemoteResolver::new(Duration::from_millis(1));
        let hits = Arc::new(CountWake(AtomicUsize::new(0)));
        let now = Instant::now();
        for i in 0..4 {
            resolver.shared.register(
                now + Duration::from_micros(200 * i),
                Waker::from(hits.clone()),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.0.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.0.load(Ordering::SeqCst), 4, "all timers fired");
        drop(resolver); // joins the timer thread — must not hang
    }

    /// Per-course channels resolve in any order, and the router's FIFO of
    /// receivers still hands results out in request order: each result
    /// waits in its own channel until every earlier one was received.
    #[test]
    fn completion_board_buffers_out_of_order_results() {
        let (senders, receivers): (Vec<SyncSender<Completion>>, VecDeque<_>) =
            (0..3).map(|_| sync_channel(1)).unzip();
        let handle = std::thread::spawn(move || {
            // Resolve in reverse: the receiver must still see 0 first.
            for (k, done) in senders.into_iter().enumerate().rev() {
                done.send(Ok(Ok(k as f64))).unwrap();
            }
        });
        for (k, completion) in receivers.into_iter().enumerate() {
            assert_eq!(completion.recv().unwrap().unwrap().unwrap(), k as f64);
        }
        handle.join().unwrap();
    }

    #[test]
    fn course_tasks_drive_a_pending_future_to_completion() {
        use vfl_market::TableGainProvider;
        let queue = Arc::new(TaskQueue::new());
        let worker = {
            let queue = queue.clone();
            std::thread::spawn(move || course_worker(queue))
        };
        let resolver = SimulatedRemoteResolver::new(Duration::from_millis(2));
        let provider = TableGainProvider::new([(BundleMask::singleton(0), 0.25)]);
        let order = CourseOrder {
            session: SessionId(0),
            eval_key: 1,
            bundle: BundleMask::singleton(0),
            provider: Arc::new(provider),
        };
        let started = Instant::now();
        let (task, completion) = CourseTask::spawn(resolver.resolve(&order), queue.clone());
        queue.push(task);
        assert_eq!(completion.recv().unwrap().unwrap().unwrap(), 0.25);
        assert!(
            started.elapsed() >= Duration::from_millis(2),
            "simulated latency was actually waited out"
        );
        queue.close();
        worker.join().unwrap();
    }

    /// Closing must wake a course task whatever point of `pop` it is at:
    /// a close landing between the closed-check and the wait must not
    /// leave the task asleep and the drain joining it forever. Many
    /// spawn/close cycles on an idle queue hit that window; a watchdog
    /// turns a regression into a failure instead of a hang.
    #[test]
    fn closing_an_idle_queue_always_releases_its_course_tasks() {
        let (tx, rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(CourseTasks::spawn(2));
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a course task slept through close");
        cycles.join().expect("spawn/close cycles");
    }
}
