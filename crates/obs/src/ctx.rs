//! The run context: one shared slot per run holding both things a run arms,
//! the recorder and the fault plan.
//!
//! A thread holds at most one slot handle, in a thread-local. It gets an
//! empty slot of its own the first time it activates a scope or calls
//! [`RunCtx::current`], and shares another thread's slot inside
//! [`RunCtx::enter`]. A thread that did neither, such as a raw
//! `std::thread::spawn`, has no context: every hook on it is a no-op.

use crate::fault::FaultPlan;
use crate::{lock, Inner};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// One half of a slot: the armed value (one-shot faults are consumed when
/// they fire, hence the mutex) and a flag for the lock-free unarmed check.
pub(crate) struct Half<T> {
    armed: AtomicBool,
    value: Mutex<Option<T>>,
}

impl<T> Default for Half<T> {
    fn default() -> Self {
        Self { armed: AtomicBool::new(false), value: Mutex::new(None) }
    }
}

impl<T> Half<T> {
    fn replace(&self, value: Option<T>) -> Option<T> {
        let mut slot = lock(&self.value);
        // Relaxed: the flag publishes nothing; the value is only read under
        // the mutex, so a stale flag merely skips or takes the lock once.
        self.armed.store(value.is_some(), Ordering::Relaxed);
        std::mem::replace(&mut slot, value)
    }
}

#[derive(Default)]
pub(crate) struct Slot {
    recorder: Half<Arc<Inner>>,
    plan: Half<FaultPlan>,
}

/// What a run can arm; each names its half of the slot.
pub(crate) trait Part: Sized {
    fn half(slot: &Slot) -> &Half<Self>;
}

impl Part for Arc<Inner> {
    fn half(slot: &Slot) -> &Half<Self> {
        &slot.recorder
    }
}

impl Part for FaultPlan {
    fn half(slot: &Slot) -> &Half<Self> {
        &slot.plan
    }
}

thread_local! {
    static CTX: RefCell<Option<Arc<Slot>>> = const { RefCell::new(None) };
}

fn armed_half<T: Part, R>(f: impl FnOnce(&Half<T>) -> Option<R>) -> Option<R> {
    let with_slot = |c: &RefCell<Option<Arc<Slot>>>| {
        let slot = c.borrow();
        let half = T::half(slot.as_deref()?);
        half.armed.load(Ordering::Relaxed).then(|| f(half)).flatten()
    };
    CTX.try_with(with_slot).ok().flatten()
}

/// True when the current thread's run has a `T` armed: one thread-local read
/// and one relaxed load, no lock, no allocation.
#[inline]
pub(crate) fn armed<T: Part>() -> bool {
    armed_half::<T, ()>(|_| Some(())).is_some()
}

/// Runs `f` on the current run's armed `T`; `None` when nothing is armed.
pub(crate) fn with<T: Part, R>(f: impl FnOnce(&mut T) -> R) -> Option<R> {
    armed_half(|half: &Half<T>| lock(&half.value).as_mut().map(f))
}

/// A handle on one run's context. Fan-outs capture it with
/// [`RunCtx::current`] on the spawning thread and run each worker's share
/// inside [`RunCtx::enter`], so the run's recorder and fault plan reach its
/// workers and no other run's do.
#[derive(Clone)]
pub struct RunCtx(Arc<Slot>);

impl RunCtx {
    /// The current thread's context, created empty if the thread has none.
    /// A scope activated on this thread later still reaches every thread
    /// inside [`RunCtx::enter`] of the returned handle.
    pub fn current() -> Self {
        CTX.with(|c| Self(Arc::clone(c.borrow_mut().get_or_insert_with(Default::default))))
    }

    /// Runs `f` with the current thread sharing this context, then restores
    /// the thread's own.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = CTX.with(|c| c.replace(Some(Arc::clone(&self.0))));
        let _restore = OnDrop(Some(move || drop(CTX.try_with(|c| c.replace(prev)))));
        f()
    }
}

/// Runs its closure when dropped, also while unwinding.
pub(crate) struct OnDrop<F: FnOnce()>(pub(crate) Option<F>);

impl<F: FnOnce()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f();
        }
    }
}

/// Arms one half of the current thread's slot until dropped, then restores
/// that half's previous value; the other half is untouched.
pub(crate) struct Held<T: Part> {
    slot: Arc<Slot>,
    prev: Option<T>,
}

impl<T: Part> Held<T> {
    pub(crate) fn arm(value: T) -> Self {
        let slot = RunCtx::current().0;
        let prev = T::half(&slot).replace(Some(value));
        Self { slot, prev }
    }
}

impl<T: Part> Drop for Held<T> {
    fn drop(&mut self) {
        T::half(&self.slot).replace(self.prev.take());
    }
}
