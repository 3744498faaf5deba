//! Fixture: the `lock-discipline` rule (linted as
//! `crates/rdf/src/lock_discipline.rs`).

use std::sync::Mutex;

struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    fn flagged_double_lock(&self) -> u32 {
        let first = self.a.lock().unwrap_or_else(|e| e.into_inner());
        let second = self.b.lock().unwrap_or_else(|e| e.into_inner());
        *first + *second
    }

    fn fine_dropped_guard(&self) -> u32 {
        let first = self.a.lock().unwrap_or_else(|e| e.into_inner());
        let value = *first;
        drop(first);
        let second = self.b.lock().unwrap_or_else(|e| e.into_inner());
        value + *second
    }
}
