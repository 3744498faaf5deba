//! Lock-poisoning recovery for the crate's three `std::sync::Mutex`es: the
//! cache's `inner`, the service's `state` and [`crate::LiveGraph`]'s
//! `writer → current` pair.
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

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard when a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A holder that writes through its guard and then panics poisons the
    /// mutex; recovery hands the next caller the guard, and the write the
    /// panicking holder made persists.
    #[test]
    fn a_poisoned_mutex_is_recovered_not_propagated() {
        let mutex = Arc::new(Mutex::new(0u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let mut guard = clone.lock().unwrap();
            *guard = 7;
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_unpoisoned(&mutex), 7, "the poisoned write persists");
    }
}
