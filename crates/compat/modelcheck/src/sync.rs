//! Instrumented twins of the `std::sync` primitives the workspace uses.
//!
//! Inside an active exploration (the calling OS thread is a model thread)
//! every acquisition, release, wait, and notify funnels through the
//! scheduler, so the explorer controls exactly which thread makes progress.
//! Outside an exploration the shims fall back to plain blocking behavior,
//! which keeps code that is compiled under `cfg(kwsearch_model)` but runs on
//! ordinary threads (unit tests, helper threads) working unchanged.
//!
//! Poisoning is modeled faithfully: a guard dropped during an unwind marks
//! the mutex poisoned, `lock` returns `Err(PoisonError)` afterwards, and
//! `Condvar::wait` propagates the poison state on reacquisition — so
//! recovery helpers like `lock_unpoisoned` exercise the same paths they do
//! against `std`.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::time::{Duration, Instant};

pub use std::sync::LockResult;

use crate::exec::{self, BlockedOn};

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

struct MutexMeta {
    locked: bool,
    poisoned: bool,
}

/// Model twin of [`std::sync::Mutex`]: acquisition is a scheduling decision,
/// contention blocks the model thread in the scheduler.
pub struct Mutex<T> {
    meta: StdMutex<MutexMeta>,
    fallback: StdCondvar,
    data: UnsafeCell<T>,
}

// Same bounds as std: the mutex hands out &mut T, so T must be Send; no &T
// escapes without the lock, so T does not need to be Sync.
unsafe impl<T: Send> Send for Mutex<T> {}
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(data: T) -> Self {
        Mutex {
            meta: StdMutex::new(MutexMeta {
                locked: false,
                poisoned: false,
            }),
            fallback: StdCondvar::new(),
            data: UnsafeCell::new(data),
        }
    }

    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    fn meta(&self) -> std::sync::MutexGuard<'_, MutexMeta> {
        self.meta.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the mutex, reporting poisoning like `std`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if let Some(ctx) = exec::current() {
            ctx.yield_point("mutex.lock");
            loop {
                {
                    let mut meta = self.meta();
                    if !meta.locked {
                        meta.locked = true;
                        let poisoned = meta.poisoned;
                        drop(meta);
                        return self.guard(poisoned);
                    }
                }
                ctx.block_point(BlockedOn::Mutex(self.addr()), "mutex.blocked");
            }
        } else {
            let mut meta = self.meta();
            while meta.locked {
                meta = self
                    .fallback
                    .wait(meta)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            meta.locked = true;
            let poisoned = meta.poisoned;
            drop(meta);
            self.guard(poisoned)
        }
    }

    /// Whether a holder panicked while the mutex was locked.
    pub fn is_poisoned(&self) -> bool {
        self.meta().poisoned
    }

    fn guard(&self, poisoned: bool) -> LockResult<MutexGuard<'_, T>> {
        let guard = MutexGuard {
            lock: self,
            _not_send: PhantomData,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Releases the mutex without a guard (used by `Condvar::wait`, which
    /// consumes the guard by value).
    fn raw_unlock(&self, poison: bool) {
        let mut meta = self.meta();
        meta.locked = false;
        if poison {
            meta.poisoned = true;
        }
        drop(meta);
        if let Some(ctx) = exec::current() {
            ctx.unblock(BlockedOn::Mutex(self.addr()));
        } else {
            self.fallback.notify_one();
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let meta = self.meta();
        if meta.locked {
            f.debug_struct("Mutex").field("data", &"<locked>").finish()
        } else {
            // Unlocked: reading the data without the guard mirrors what
            // std's Debug impl does via try_lock.
            let data = unsafe { &*self.data.get() };
            f.debug_struct("Mutex").field("data", data).finish()
        }
    }
}

/// Model twin of [`std::sync::MutexGuard`]; releasing is *not* a scheduling
/// decision (the next acquisition is), which keeps the schedule space small
/// without losing interleavings over the instrumented operations.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// Guards are pinned to the acquiring thread, exactly like std's.
    _not_send: PhantomData<*const ()>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw_unlock(std::thread::panicking());
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Model twin of [`std::sync::WaitTimeoutResult`]: whether a
/// [`Condvar::wait_timeout`] returned because its timeout elapsed rather
/// than because of a notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended by timing out.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model twin of [`std::sync::Condvar`]. Model waiters are woken in FIFO
/// order by `notify_one` (deterministic); there are no spurious wakeups, so
/// a genuinely lost notification shows up as a hang, not as flakiness.
pub struct Condvar {
    /// FIFO of model threads currently waiting (exploration mode only).
    waiters: StdMutex<Vec<usize>>,
    /// Generation counter + condvar for the non-exploration fallback.
    fallback_gen: StdMutex<u64>,
    fallback: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            waiters: StdMutex::new(Vec::new()),
            fallback_gen: StdMutex::new(0),
            fallback: StdCondvar::new(),
        }
    }

    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }

    fn waiters(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.waiters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the guard's mutex, waits for a notification, reacquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        if let Some(ctx) = exec::current() {
            ctx.yield_point("condvar.wait");
            self.waiters().push(ctx.id);
            // Forgetting the guard skips Drop; the explicit raw_unlock below
            // is the release (no poisoning: we are not unwinding).
            std::mem::forget(guard);
            lock.raw_unlock(false);
            ctx.block_point(BlockedOn::Condvar(self.addr()), "condvar.blocked");
            lock.lock()
        } else {
            let mut gen_guard = self
                .fallback_gen
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let gen = *gen_guard;
            std::mem::forget(guard);
            lock.raw_unlock(false);
            while *gen_guard == gen {
                gen_guard = self
                    .fallback
                    .wait(gen_guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(gen_guard);
            lock.lock()
        }
    }

    /// Releases the guard's mutex and waits for a notification, giving up
    /// once `timeout` has elapsed.
    ///
    /// Inside an exploration the model has no clock, so the timeout never
    /// fires and the call is exactly [`Self::wait`] — a notification that
    /// never arrives still surfaces as a deterministic lost-wakeup hang,
    /// which is the failure signal the explorer exists to report. Outside
    /// an exploration this is a real timed wait.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if exec::current().is_some() {
            return match self.wait(guard) {
                Ok(guard) => Ok((guard, WaitTimeoutResult(false))),
                Err(poisoned) => Err(PoisonError::new((
                    poisoned.into_inner(),
                    WaitTimeoutResult(false),
                ))),
            };
        }
        let lock = guard.lock;
        let mut gen_guard = self
            .fallback_gen
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let gen = *gen_guard;
        std::mem::forget(guard);
        lock.raw_unlock(false);
        let deadline = Instant::now() + timeout;
        let mut timed_out = false;
        while *gen_guard == gen {
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            gen_guard = self
                .fallback
                .wait_timeout(gen_guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(gen_guard);
        match lock.lock() {
            Ok(guard) => Ok((guard, WaitTimeoutResult(timed_out))),
            Err(poisoned) => Err(PoisonError::new((
                poisoned.into_inner(),
                WaitTimeoutResult(timed_out),
            ))),
        }
    }

    /// Wakes one waiter (the longest-waiting model thread).
    pub fn notify_one(&self) {
        if let Some(ctx) = exec::current() {
            ctx.yield_point("condvar.notify_one");
            let mut waiters = self.waiters();
            if !waiters.is_empty() {
                let thread = waiters.remove(0);
                drop(waiters);
                ctx.unblock_thread(thread, BlockedOn::Condvar(self.addr()));
            }
        } else {
            let mut gen_guard = self
                .fallback_gen
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *gen_guard = gen_guard.wrapping_add(1);
            drop(gen_guard);
            // The fallback cannot target a single waiter; waking everyone is
            // allowed by the condvar contract (callers loop on a predicate).
            self.fallback.notify_all();
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(ctx) = exec::current() {
            ctx.yield_point("condvar.notify_all");
            let mut waiters = self.waiters();
            let woken: Vec<usize> = waiters.drain(..).collect();
            drop(waiters);
            for thread in woken {
                ctx.unblock_thread(thread, BlockedOn::Condvar(self.addr()));
            }
        } else {
            let mut gen_guard = self
                .fallback_gen
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *gen_guard = gen_guard.wrapping_add(1);
            drop(gen_guard);
            self.fallback.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Arc
// ---------------------------------------------------------------------------

/// Model twin of [`std::sync::Arc`]: cloning is a scheduling decision (it is
/// the visible hand-off point when ownership crosses threads); everything
/// else delegates to the real `Arc`.
pub struct Arc<T: ?Sized>(std::sync::Arc<T>);

impl<T> Arc<T> {
    /// Wraps a value in a new reference-counted allocation.
    pub fn new(data: T) -> Self {
        Arc(std::sync::Arc::new(data))
    }
}

impl<T> From<T> for Arc<T> {
    fn from(data: T) -> Self {
        Arc::new(data)
    }
}

impl<T: ?Sized> Arc<T> {
    /// Whether two `Arc`s point at the same allocation.
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&this.0, &other.0)
    }

    /// The number of strong references to this allocation.
    pub fn strong_count(this: &Self) -> usize {
        std::sync::Arc::strong_count(&this.0)
    }
}

impl<T: ?Sized> Clone for Arc<T> {
    fn clone(&self) -> Self {
        if let Some(ctx) = exec::current() {
            ctx.yield_point("arc.clone");
        }
        Arc(std::sync::Arc::clone(&self.0))
    }
}

impl<T: ?Sized> Deref for Arc<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Default> Default for Arc<T> {
    fn default() -> Self {
        Arc::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Arc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for Arc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Model twins of the `std::sync::atomic` types the workspace uses. The
/// explorer serializes model threads, so sequential consistency is the only
/// memory model explored; every access is still a scheduling decision.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::exec;

    fn touch(label: &'static str) {
        if let Some(ctx) = exec::current() {
            ctx.yield_point(label);
        }
    }

    macro_rules! model_atomic {
        ($(#[$doc:meta])* $name:ident, $std:ident, $value:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name(std::sync::atomic::$std);

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(value: $value) -> Self {
                    $name(std::sync::atomic::$std::new(value))
                }

                /// Atomically loads the value.
                pub fn load(&self, order: Ordering) -> $value {
                    touch("atomic.load");
                    self.0.load(order)
                }

                /// Atomically stores a value.
                pub fn store(&self, value: $value, order: Ordering) {
                    touch("atomic.store");
                    self.0.store(value, order);
                }

                /// Atomically replaces the value, returning the previous one.
                pub fn swap(&self, value: $value, order: Ordering) -> $value {
                    touch("atomic.swap");
                    self.0.swap(value, order)
                }

                /// Compare-and-exchange, returning `Ok(previous)` on success.
                pub fn compare_exchange(
                    &self,
                    current: $value,
                    new: $value,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$value, $value> {
                    touch("atomic.compare_exchange");
                    self.0.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    model_atomic!(
        /// Model twin of [`std::sync::atomic::AtomicBool`].
        AtomicBool,
        AtomicBool,
        bool
    );
    model_atomic!(
        /// Model twin of [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        AtomicUsize,
        usize
    );
    model_atomic!(
        /// Model twin of [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        AtomicU64,
        u64
    );

    macro_rules! model_atomic_arith {
        ($name:ident, $value:ty) => {
            impl $name {
                /// Atomically adds, returning the previous value.
                pub fn fetch_add(&self, value: $value, order: Ordering) -> $value {
                    touch("atomic.fetch_add");
                    self.0.fetch_add(value, order)
                }

                /// Atomically subtracts, returning the previous value.
                pub fn fetch_sub(&self, value: $value, order: Ordering) -> $value {
                    touch("atomic.fetch_sub");
                    self.0.fetch_sub(value, order)
                }
            }
        };
    }

    model_atomic_arith!(AtomicUsize, usize);
    model_atomic_arith!(AtomicU64, u64);
}
