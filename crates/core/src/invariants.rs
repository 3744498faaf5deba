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
//! The checks run exactly in debug builds (`cfg(debug_assertions)`) —
//! every `cargo test` run checks them, and release binaries compile them
//! out entirely, which the benchmark (`benchmark/src/main.rs`) asserts so
//! its numbers can never silently include sanitizer overhead.

/// Whether sanitizer checks are active: in debug builds, always; in
/// release builds never (the constant folds every check away).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(debug_assertions)
}

#[cfg(test)]
mod tests {
    #[test]
    fn release_builds_compile_the_sanitizer_out() {
        assert_eq!(super::enabled(), cfg!(debug_assertions));
    }
}
