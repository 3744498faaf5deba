//! The `debug-invariants` runtime sanitizer switch.
//!
//! The workspace's rustc and clippy lints enforce the *statically*
//! recognizable half of the engine's determinism contract (no hash-order
//! iteration, no unreasoned panic sites); this module gates the *dynamic*
//! half — cheap invariant checks at the seams no lint can see:
//!
//! * **pop monotonicity** — cursor-heap pops in
//!   [`ExplorationState::step`](crate::ExplorationState) come out in
//!   non-decreasing cost order (the property Theorem 1 builds on),
//! * **certificate inequality** — every query a
//!   [`SearchSession`](crate::SearchSession) emits costs no more than the
//!   completion bound of the [`exploration`](crate::exploration) module doc
//!   (the rank certificate itself),
//! * **bound admissibility** — no candidate is ever generated below a
//!   completion bound that a certification already used,
//! * **replay equality** — a cache-hit session replaying a stored emission
//!   log produces exactly what honest exploration over a freshly built
//!   augmented graph would (a shadow exploration cross-checks each replayed
//!   query), and a drained session that finds its key already resident
//!   computed a bit-identical log (first-writer-wins race),
//! * **LRU bounds** — the result cache never exceeds its capacity, and its
//!   incremental heap-byte estimate matches a recount.
//!
//! The checks run only in debug builds (`cfg(debug_assertions)`) — release
//! binaries compile them out entirely, which the benchmark
//! (`benchmark/src/main.rs`) asserts so its numbers can never silently
//! include sanitizer overhead. Within debug
//! builds the switch defaults to **on** and can be disabled with
//! `KWSEARCH_DEBUG_INVARIANTS=0` (also `off`, `false`, or empty); CI forces
//! it on for one full test-suite run, determinism suite included.

/// Whether sanitizer checks are active. In release builds this is a
/// compile-time `false` (the checks vanish); in debug builds it reads
/// `KWSEARCH_DEBUG_INVARIANTS` once and caches the verdict.
#[cfg(debug_assertions)]
pub fn enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("KWSEARCH_DEBUG_INVARIANTS") {
        Ok(value) => !matches!(value.trim(), "" | "0" | "off" | "false"),
        Err(_) => true,
    })
}

/// Whether sanitizer checks are active (release build: never — the constant
/// folds every check away).
#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn enabled() -> bool {
    false
}

#[cfg(test)]
mod tests {
    #[test]
    fn release_builds_compile_the_sanitizer_out() {
        // Under `cargo test` (debug) the switch is env-controlled; what must
        // always hold is that it never reports active in a release build.
        if !cfg!(debug_assertions) {
            assert!(!super::enabled());
        }
    }
}
