//! The crate's synchronization facade: `std::sync` normally, the
//! model-checker shims under `cfg(kwsearch_model)`.
//!
//! Every lock and `Arc` in this crate is imported from here (the
//! `no-raw-sync` lint rule enforces it), so building with
//! `RUSTFLAGS="--cfg kwsearch_model"` swaps the cache, the service and
//! [`crate::LiveGraph`] onto [`kwsearch_modelcheck`]'s instrumented twins:
//! acquisition, release and `Arc`-clone become scheduling decisions a bounded DFS explorer can enumerate exhaustively (see
//! `tests/model_*.rs`). The two twins export the same API surface — a
//! compile-time shape test below pins that — and the model twins fall back
//! to plain blocking behavior on threads that are not part of an
//! exploration, so ordinary tests keep working under either cfg.
//!
//! # Lock-poisoning recovery
//!
//! `std`'s mutexes poison when a holder panics, and escalating that into a
//! panic on every *subsequent* access would let one panicking request take
//! the cache, the service counters or the live lineage down for every other
//! caller. Recovery is sound for every lock in this crate because each
//! critical section leaves the protected state consistent at all its panic
//! points:
//!
//! * the cache's one map is only mutated by single map inserts and removes,
//!   each atomic with respect to panics — a recovered guard can at worst
//!   observe advisory counters (hits, ticks, heap-byte estimates) that miss
//!   one update, never a torn entry, and cached search results stay
//!   bit-identical because entries are immutable and published as whole
//!   `Arc`s;
//! * the service's admission count and counters are single integer updates,
//!   and [`crate::LiveGraph`] only ever stores a whole `Arc`.
//!
//! A panic inside a search is still surfaced — it unwinds the caller's
//! thread — but every other caller keeps being served.

#[cfg(not(kwsearch_model))]
pub(crate) use std::sync::{Arc, Mutex, MutexGuard};

#[cfg(kwsearch_model)]
pub(crate) use kwsearch_modelcheck::sync::{Arc, Mutex, MutexGuard};

/// Locks `mutex`, recovering the guard when a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_mutex_is_recovered_not_propagated() {
        let mutex = Arc::new(Mutex::new(7u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_unpoisoned(&mutex), 7);
    }

    /// Compile-time shape test (the `auto_traits.rs` idiom): whichever twin
    /// the cfg selects must expose the exact API surface and auto traits the
    /// crate relies on. This module compiles under both cfg paths — the CI
    /// model-check job runs the unit suite with `--cfg kwsearch_model` too.
    #[test]
    fn facade_twins_export_the_same_shape() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mutex<Vec<u8>>>();
        assert_send_sync::<Arc<Vec<u8>>>();

        // `new` is const on both twins (a named `const` mutex would be an
        // interior-mutability footgun, so prove const-ness via a const fn
        // instead).
        const fn const_constructible() -> Mutex<u32> {
            Mutex::new(0)
        }
        let _m = const_constructible();

        // The full lock / poison surface, monomorphized against whichever
        // twin is active.
        fn exercise(mutex: &Mutex<u32>) -> u32 {
            let guard: MutexGuard<'_, u32> = match mutex.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let _ = mutex.is_poisoned();
            *guard
        }
        assert_eq!(exercise(&Mutex::new(3)), 3);
        assert_eq!(*lock_unpoisoned(&Mutex::<u32>::default()), 0);

        // Arc surface: new / from / clone / deref / ptr_eq.
        let arc: Arc<u32> = 5u32.into();
        let clone = Arc::clone(&arc);
        assert!(Arc::ptr_eq(&arc, &clone));
        assert_eq!(*clone, 5);
    }
}
