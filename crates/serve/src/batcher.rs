//! Per-task serving lanes: a bounded request queue with admission control,
//! a dedicated worker thread owning the model, the dynamic micro-batcher
//! between them, and the self-healing machinery — per-request deadlines,
//! `catch_unwind`-guarded forwards, and a per-lane circuit breaker — that
//! keeps a lane answering (with typed errors, never hangs) under overload
//! and injected faults.

use crate::model::{validate_outputs, ServableModel};
use crate::ServeError;
use octs_obs::RunCtx;
use octs_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Prefix of the per-lane forward fault-injection site. The full site name
/// is task-qualified (see [`forward_fault_site`]) so a chaos plan can poison
/// one lane's forwards without touching the lanes it expects to stay healthy.
pub const FORWARD_FAULT_SITE: &str = "serve.forward";

/// The fault-injection site name of `task`'s lane forwards, e.g.
/// `serve.forward.metr`. The op ordinal counts the lane's guarded forward
/// attempts (shape-valid, unexpired batches), starting at 0.
pub fn forward_fault_site(task: &str) -> String {
    format!("{FORWARD_FAULT_SITE}.{task}")
}

/// What a submit does when the lane's queue already holds `queue_depth`
/// requests — the admission-control half of overload behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Block the submitting thread until space frees (backpressure). The
    /// pre-resilience default: no request is ever shed, but a client may
    /// wait unboundedly while the backlog drains.
    #[default]
    Block,
    /// Reject the *new* request immediately with
    /// [`ServeError::Overloaded`] — overload turns into fast typed
    /// rejections instead of queueing delay.
    RejectWhenFull,
    /// Admit the new request and shed the *oldest* queued one (its reply
    /// resolves to [`ServeError::Overloaded`]) — freshest-first service for
    /// workloads where a stale forecast is worthless anyway.
    DropOldest,
}

/// When and how hard the micro-batcher coalesces, how deep the lane queue
/// is and what happens when it fills, and how the lane's circuit breaker
/// heals a failing worker.
///
/// The worker takes the first queued request, greedily drains whatever else
/// is already queued (zero added latency — under load, requests pile up
/// while the previous batch computes), and then, if the batch is still
/// below `max_batch` and `max_delay` is nonzero, keeps the batch open up to
/// `max_delay` waiting for stragglers — the classic latency/throughput
/// dial. `max_batch == 1` disables coalescing entirely (the unbatched
/// baseline the serving bench compares against); `max_delay == 0` gives
/// pure queue-pressure batching.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Largest batch one forward may carry.
    pub max_batch: usize,
    /// Longest a batch stays open waiting for more requests.
    pub max_delay: Duration,
    /// Bound of the lane's request queue; `shed` decides what a submit does
    /// once this many requests are waiting.
    pub queue_depth: usize,
    /// Admission control once the queue is full.
    pub shed: ShedPolicy,
    /// Consecutive failed forwards (panic or non-finite output) before the
    /// lane's circuit breaker opens.
    pub breaker_threshold: usize,
    /// First open period of the breaker; doubles after every failed heal or
    /// failed half-open probe, up to `breaker_max_backoff`.
    pub breaker_backoff: Duration,
    /// Ceiling of the breaker's exponential backoff.
    pub breaker_max_backoff: Duration,
    /// Registry reload attempts per heal; transient IO failures are retried
    /// with doubling `reload_backoff` between tries.
    pub reload_retries: usize,
    /// First wait between heal reload attempts.
    pub reload_backoff: Duration,
    /// Precision policy models are loaded at: `None` serves from the tape
    /// engine (the benchmark baseline); `Some(tier)` serves compiled frozen
    /// plans, with [`octs_tensor::Precision::Int8`] subject to the load-time
    /// conformance probe (see [`crate::ServableModel::from_checkpoint_with`]).
    pub precision: Option<octs_tensor::Precision>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_depth: 256,
            shed: ShedPolicy::Block,
            breaker_threshold: 3,
            breaker_backoff: Duration::from_millis(50),
            breaker_max_backoff: Duration::from_secs(2),
            reload_retries: 3,
            reload_backoff: Duration::from_millis(10),
            precision: Some(octs_tensor::Precision::Fused),
        }
    }
}

impl BatchPolicy {
    /// One-request-per-forward policy: the unbatched baseline.
    pub fn unbatched() -> Self {
        Self { max_batch: 1, max_delay: Duration::ZERO, ..Self::default() }
    }

    /// The same policy with admission control `shed`.
    pub fn with_shed(self, shed: ShedPolicy) -> Self {
        Self { shed, ..self }
    }
}

/// A completed forecast.
#[derive(Debug, Clone, PartialEq)]
pub struct Forecast {
    /// Registry version of the model that produced it.
    pub version: u32,
    /// Predicted values, `[out_steps, N]`.
    pub values: Tensor,
}

/// Handle to a forecast still in flight; [`PendingForecast::wait`] blocks
/// for the result and [`PendingForecast::wait_timeout`] bounds the wait.
/// Dropping it abandons the request (the worker's reply is discarded
/// harmlessly).
pub struct PendingForecast {
    rx: Receiver<Result<Forecast, ServeError>>,
}

impl PendingForecast {
    /// Blocks until the forecast (or its typed failure) arrives.
    pub fn wait(self) -> Result<Forecast, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Blocks at most `timeout` for the forecast. Returns
    /// [`ServeError::DeadlineExceeded`] when the reply has not arrived in
    /// time — the client-side half of the deadline story (the request is
    /// abandoned; the worker's eventual reply is discarded harmlessly).
    pub fn wait_timeout(self, timeout: Duration) -> Result<Forecast, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Shutdown),
        }
    }

    /// A handle that is already resolved to `err` — what a shed or
    /// shut-down submit hands back so `submit_async` keeps its infallible
    /// shape while every rejection stays typed.
    fn resolved(err: ServeError) -> Self {
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(Err(err));
        Self { rx }
    }
}

struct Job {
    input: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Forecast, ServeError>>,
}

/// The lane's bounded queue: a `VecDeque` under a mutex with two condvars
/// (space for blocking producers, work for the consumer) instead of an
/// `mpsc` channel, because admission control needs to *inspect and evict*
/// queued jobs (drop-oldest, reject-when-full) and shutdown needs every
/// later submit to fail promptly with a typed error. Sheds are recorded in
/// the lane's run context, whichever thread submits.
struct LaneQueue {
    state: Mutex<QueueState>,
    nonempty: Condvar,
    nonfull: Condvar,
    depth: usize,
    run: RunCtx,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

enum Popped {
    Job(Box<Job>),
    TimedOut,
    Closed,
}

impl LaneQueue {
    fn new(depth: usize, run: RunCtx) -> Self {
        Self {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            nonfull: Condvar::new(),
            depth,
            run,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `job` under `shed`. `Err` is always typed: `Overloaded` when
    /// shed, `Shutdown` once the lane closed (also while a `Block` submit
    /// is waiting for space).
    fn push(&self, job: Job, shed: ShedPolicy, task: &str) -> Result<(), ServeError> {
        let mut st = self.lock();
        if st.closed {
            return Err(ServeError::Shutdown);
        }
        if st.jobs.len() >= self.depth {
            match shed {
                ShedPolicy::Block => {
                    while st.jobs.len() >= self.depth && !st.closed {
                        st = self.nonfull.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    if st.closed {
                        return Err(ServeError::Shutdown);
                    }
                }
                ShedPolicy::RejectWhenFull => {
                    self.run.enter(|| octs_obs::counter("serve.shed", 1));
                    return Err(ServeError::Overloaded {
                        task: task.to_string(),
                        queue_depth: self.depth,
                    });
                }
                ShedPolicy::DropOldest => {
                    if let Some(oldest) = st.jobs.pop_front() {
                        self.run.enter(|| octs_obs::counter("serve.shed", 1));
                        let _ = oldest.reply.send(Err(ServeError::Overloaded {
                            task: task.to_string(),
                            queue_depth: self.depth,
                        }));
                    }
                }
            }
        }
        st.jobs.push_back(job);
        drop(st);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the lane is closed *and*
    /// drained (queued work always completes through shutdown).
    fn pop_blocking(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                self.nonfull.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.nonempty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn try_pop(&self) -> Option<Job> {
        let job = self.lock().jobs.pop_front();
        if job.is_some() {
            self.nonfull.notify_one();
        }
        job
    }

    fn pop_timeout(&self, timeout: Duration) -> Popped {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                self.nonfull.notify_one();
                return Popped::Job(Box::new(job));
            }
            if st.closed {
                return Popped::Closed;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Popped::TimedOut;
            }
            let (guard, _timed_out) =
                self.nonempty.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Closes the lane: queued jobs still drain, later submits fail with
    /// [`ServeError::Shutdown`] promptly, blocked `Block`-policy submits
    /// wake with the same error.
    fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
        self.nonfull.notify_all();
    }
}

/// Re-loads a lane's model (typically from the registry's latest checkpoint)
/// during a self-heal; installed by [`TaskLane::spawn_with_reloader`].
pub type Reloader = Arc<dyn Fn() -> Result<ServableModel, ServeError> + Send + Sync>;

/// One task's serving lane: bounded queue in, dedicated worker out.
///
/// The worker thread owns the [`ServableModel`] exclusively — the
/// forecaster's forward needs `&mut self`, and a single owner beats a lock
/// convoy of client threads. Hot swaps arrive through a mailbox the worker
/// drains at batch boundaries, so an in-flight batch always completes on the
/// version it started with. Every forward runs under `catch_unwind` with a
/// finite-output check, so a poisoned batch fails *only itself* with
/// [`ServeError::ForwardFailed`]; `breaker_threshold` consecutive failures
/// open a circuit breaker that sheds work with [`ServeError::CircuitOpen`]
/// while the lane re-loads its model and probes its way back to healthy.
pub struct TaskLane {
    task: String,
    queue: Arc<LaneQueue>,
    swap: Arc<Mutex<Option<ServableModel>>>,
    version: Arc<AtomicU32>,
    shed: ShedPolicy,
    worker: Option<JoinHandle<()>>,
}

impl TaskLane {
    /// Spawns the worker thread serving `model` under `policy`. A lane
    /// without a reloader still breaks and probes, but heals with the model
    /// it already has; use [`TaskLane::spawn_with_reloader`] to re-load from
    /// a registry.
    pub fn spawn(model: ServableModel, policy: BatchPolicy) -> Self {
        Self::spawn_with_reloader(model, policy, None)
    }

    /// Spawns the worker thread serving `model` under `policy`, with
    /// `reloader` as the circuit breaker's heal path. The lane shares the
    /// calling thread's run context: a recorder or fault plan armed on that
    /// thread, also after this call, reaches everything the lane records,
    /// whichever thread submits the requests.
    pub fn spawn_with_reloader(
        model: ServableModel,
        policy: BatchPolicy,
        reloader: Option<Reloader>,
    ) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.queue_depth >= 1, "queue_depth must be at least 1");
        assert!(policy.breaker_threshold >= 1, "breaker_threshold must be at least 1");
        let task = model.task.clone();
        let run = RunCtx::current();
        let queue = Arc::new(LaneQueue::new(policy.queue_depth, run.clone()));
        let swap = Arc::new(Mutex::new(None));
        let version = Arc::new(AtomicU32::new(model.version));
        let ctx = WorkerCtx {
            policy,
            queue: Arc::clone(&queue),
            swap: Arc::clone(&swap),
            version: Arc::clone(&version),
            reloader,
            site: forward_fault_site(&task),
            task: task.clone(),
        };
        let worker = std::thread::Builder::new()
            .name(format!("serve-{task}"))
            .spawn(move || run.enter(|| worker_loop(model, ctx)))
            .expect("spawn serving worker");
        Self { task, queue, swap, version, shed: policy.shed, worker: Some(worker) }
    }

    /// Registry version currently being served (in-flight batches may still
    /// complete on the previous one for an instant after a swap).
    pub fn version(&self) -> u32 {
        self.version.load(Ordering::Acquire)
    }

    /// Queues `model` for hot swap; the worker installs it at the next batch
    /// boundary. A second swap before that overwrites the first (latest
    /// wins).
    pub fn swap(&self, model: ServableModel) {
        *self.swap.lock().unwrap_or_else(|e| e.into_inner()) = Some(model);
    }

    /// Closes the lane: requests already queued still complete, every later
    /// submit fails promptly with [`ServeError::Shutdown`], and the worker
    /// exits once drained.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Submits one forecast request (`input` is `[F, N, P]`) and blocks for
    /// the result.
    pub fn submit(&self, input: Tensor) -> Result<Forecast, ServeError> {
        self.submit_async(input).wait()
    }

    /// Submits one forecast request without waiting for the result.
    ///
    /// Admission follows the lane's [`ShedPolicy`] when the queue is full:
    /// `Block` blocks this call until space frees (backpressure — the only
    /// case it blocks), `RejectWhenFull` returns a handle already resolved
    /// to [`ServeError::Overloaded`], and `DropOldest` admits the request
    /// by shedding the oldest queued one. After [`TaskLane::close`] the
    /// handle resolves to [`ServeError::Shutdown`] without blocking.
    pub fn submit_async(&self, input: Tensor) -> PendingForecast {
        self.enqueue(input, None, self.shed).unwrap_or_else(PendingForecast::resolved)
    }

    /// Like [`TaskLane::submit_async`], with a deadline: if the request is
    /// still queued `ttl` from now, the worker drops it at dequeue —
    /// replying [`ServeError::DeadlineExceeded`] — instead of wasting a
    /// pooled-GEMM slot on a forecast nobody is waiting for.
    pub fn submit_async_deadline(&self, input: Tensor, ttl: Duration) -> PendingForecast {
        self.enqueue(input, Some(ttl), self.shed).unwrap_or_else(PendingForecast::resolved)
    }

    /// Admission-controlled submit that never blocks: a full queue under the
    /// `Block` policy rejects with [`ServeError::Overloaded`] instead of
    /// waiting (under `DropOldest` the oldest queued request is shed and the
    /// new one is admitted, as usual).
    pub fn try_submit(&self, input: Tensor) -> Result<PendingForecast, ServeError> {
        self.enqueue(input, None, Self::nonblocking(self.shed))
    }

    /// [`TaskLane::try_submit`] with a dequeue deadline of `ttl` from now.
    pub fn try_submit_deadline(
        &self,
        input: Tensor,
        ttl: Duration,
    ) -> Result<PendingForecast, ServeError> {
        self.enqueue(input, Some(ttl), Self::nonblocking(self.shed))
    }

    fn nonblocking(shed: ShedPolicy) -> ShedPolicy {
        match shed {
            ShedPolicy::Block => ShedPolicy::RejectWhenFull,
            other => other,
        }
    }

    fn enqueue(
        &self,
        input: Tensor,
        ttl: Option<Duration>,
        shed: ShedPolicy,
    ) -> Result<PendingForecast, ServeError> {
        let (reply, rx) = mpsc::channel();
        let now = Instant::now();
        let job = Job { input, enqueued: now, deadline: ttl.map(|d| now + d), reply };
        self.queue.push(job, shed, &self.task)?;
        Ok(PendingForecast { rx })
    }
}

impl Drop for TaskLane {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain remaining jobs and exit.
        self.queue.close();
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

struct WorkerCtx {
    policy: BatchPolicy,
    queue: Arc<LaneQueue>,
    swap: Arc<Mutex<Option<ServableModel>>>,
    version: Arc<AtomicU32>,
    reloader: Option<Reloader>,
    site: String,
    task: String,
}

fn worker_loop(mut model: ServableModel, ctx: WorkerCtx) {
    let policy = ctx.policy;
    // Ordinal of guarded forward attempts — the fault-injection key at the
    // lane's `serve.forward.<task>` site.
    let mut forward_op: u64 = 0;
    let mut consecutive_failures = 0usize;
    let mut backoff = policy.breaker_backoff;
    // Half-open: the breaker just healed; the next batch is a one-request
    // probe that decides between closing the breaker and re-opening it.
    let mut probing = false;

    loop {
        // Block for the batch-opening request.
        let Some(first) = ctx.queue.pop_blocking() else { break };

        // Batch boundary: install a pending hot swap before any new work.
        if let Some(next) = ctx.swap.lock().unwrap_or_else(|e| e.into_inner()).take() {
            ctx.version.store(next.version, Ordering::Release);
            octs_obs::event("serve.swap", next.version as f64, &next.task);
            model = next;
        }

        let cap = if probing { 1 } else { policy.max_batch };
        let mut batch = vec![first];
        // Greedy drain: take everything already queued, at no latency cost.
        while batch.len() < cap {
            match ctx.queue.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        // Dynamic window: hold the batch open for stragglers.
        if batch.len() < cap && !policy.max_delay.is_zero() {
            let deadline = Instant::now() + policy.max_delay;
            while batch.len() < cap {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match ctx.queue.pop_timeout(left) {
                    Popped::Job(job) => batch.push(*job),
                    Popped::TimedOut | Popped::Closed => break,
                }
            }
        }

        // Deadline enforcement at dequeue: a request whose caller already
        // gave up is answered typed, not computed.
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|j| j.deadline.is_none_or(|d| d > now));
        if !expired.is_empty() {
            octs_obs::counter("serve.deadline_expired", expired.len() as u64);
            for job in expired {
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            }
        }
        if live.is_empty() {
            continue;
        }

        octs_obs::observe("serve.batch_size", live.len() as f64);
        for job in &live {
            octs_obs::observe("serve.queue_wait_us", job.enqueued.elapsed().as_micros() as f64);
        }

        // Split off requests violating the model's input contract; they get
        // an error reply instead of poisoning the whole batch.
        let expected = model.input_shape();
        let (good, bad): (Vec<Job>, Vec<Job>) =
            live.into_iter().partition(|j| j.input.shape() == expected);
        for job in bad {
            let _ = job.reply.send(Err(ServeError::ShapeMismatch {
                expected: expected.to_vec(),
                got: job.input.shape().to_vec(),
            }));
        }
        if good.is_empty() {
            continue;
        }

        let op = forward_op;
        forward_op += 1;
        let inputs: Vec<&Tensor> = good.iter().map(|j| &j.input).collect();
        // The guarded forward: a panic (real or injected) or non-finite
        // output fails only this batch — typed, never fatal to the lane.
        let outcome: Result<Vec<Tensor>, String> = catch_unwind(AssertUnwindSafe(|| {
            octs_obs::fault::io_delay(&ctx.site, op); // scheduled slow forward
            octs_obs::fault::maybe_panic_site(&ctx.site, op);
            let mut outputs = model.predict_batch(&inputs);
            if octs_obs::fault::nan_at_site(&ctx.site, op) {
                for t in &mut outputs {
                    *t = Tensor::full(t.shape().to_vec(), f32::NAN);
                }
            }
            validate_outputs(&outputs).map(|()| outputs)
        }))
        .unwrap_or_else(|_| Err("forward panicked".to_string()));

        match outcome {
            Ok(outputs) => {
                consecutive_failures = 0;
                if probing {
                    // Half-open probe succeeded: the breaker closes. Recorded
                    // before the replies go out, so a client that saw the Ok
                    // also sees the closed-breaker counters.
                    probing = false;
                    backoff = policy.breaker_backoff;
                    octs_obs::counter("serve.breaker_close", 1);
                    octs_obs::event("serve.breaker", 0.0, &ctx.task);
                }
                octs_obs::counter("serve.requests", good.len() as u64);
                octs_obs::counter("serve.batches", 1);
                for (job, values) in good.into_iter().zip(outputs) {
                    octs_obs::observe("serve.e2e_us", job.enqueued.elapsed().as_micros() as f64);
                    let _ = job.reply.send(Ok(Forecast { version: model.version, values }));
                }
            }
            Err(detail) => {
                octs_obs::counter("serve.forward_failed", good.len() as u64);
                for job in good {
                    let _ = job.reply.send(Err(ServeError::ForwardFailed {
                        task: ctx.task.clone(),
                        detail: detail.clone(),
                    }));
                }
                consecutive_failures += 1;
                if probing || consecutive_failures >= policy.breaker_threshold {
                    consecutive_failures = 0;
                    if !open_until_healed(&mut model, &ctx, &mut backoff) {
                        break; // lane closed while the breaker was open
                    }
                    probing = true;
                }
            }
        }
    }
}

/// The breaker's open state: reject queued and incoming work with
/// [`ServeError::CircuitOpen`] for the backoff period, then try to re-load
/// the model (transient IO failures retried inside the reloader), doubling
/// the backoff after every failed heal. Returns `false` when the lane
/// closed while open (the worker should exit), `true` when the breaker
/// moves to half-open — the caller then serves a one-request probe batch
/// that decides between closing and re-opening.
fn open_until_healed(model: &mut ServableModel, ctx: &WorkerCtx, backoff: &mut Duration) -> bool {
    loop {
        octs_obs::counter("serve.breaker_open", 1);
        octs_obs::event("serve.breaker", 1.0, &ctx.task);
        let until = Instant::now() + *backoff;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match ctx.queue.pop_timeout(left) {
                Popped::Job(job) => {
                    let _ = job.reply.send(Err(ServeError::CircuitOpen { task: ctx.task.clone() }));
                }
                Popped::TimedOut => break,
                Popped::Closed => return false,
            }
        }
        // The next open period — after a failed heal below or a failed
        // half-open probe in the caller — waits longer.
        *backoff = backoff.saturating_mul(2).min(ctx.policy.breaker_max_backoff);
        match &ctx.reloader {
            // No registry behind this lane: probe with the model we have.
            None => return true,
            Some(reload) => match reload() {
                Ok(next) => {
                    ctx.version.store(next.version, Ordering::Release);
                    octs_obs::counter("serve.lane_restart", 1);
                    octs_obs::event("serve.lane_restart", next.version as f64, &ctx.task);
                    *model = next;
                    return true;
                }
                Err(e) => {
                    octs_obs::event("serve.heal_failed", 0.0, &e.to_string());
                }
            },
        }
    }
}
