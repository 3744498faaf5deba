//! Offline stand-in for a loom/shuttle-style model checker: deterministic
//! bounded exploration of thread interleavings over instrumented sync shims
//! (std-only — the workspace has no registry access).
//!
//! # How it works
//!
//! A scenario is a closure run as **model thread 0**; it may spawn more
//! model threads with [`thread::spawn`] and synchronize them through the
//! shims in [`sync`]. Every acquisition, release-wait, notify, atomic
//! access, and `Arc` clone yields to a cooperative scheduler, which runs
//! exactly one model thread at a time. [`explore`] enumerates schedules
//! depth-first: after each passing execution it backtracks to the deepest
//! scheduling decision with an untried alternative (within the configured
//! preemption bound) and replays that prefix. Model code must be
//! deterministic apart from scheduling — no time, no randomness — which is
//! what makes a recorded schedule replayable.
//!
//! Detected failures:
//!
//! * **deadlock** — every unfinished thread is blocked;
//! * **lost wakeup** — a deadlock where some thread waits on a condvar no
//!   remaining thread will notify;
//! * **panic** — a model thread panicked (assertion failures included);
//! * **step limit** — a schedule exceeded `max_steps` (livelock guard).
//!
//! A [`Failure`] carries the full schedule (the sequence of thread indices
//! chosen at each decision) and the operation trace; feed the schedule to
//! [`replay`] to re-run exactly that interleaving under a debugger or with
//! extra logging.
//!
//! ```
//! use kwsearch_modelcheck::{explore, replay, sync, thread, Config};
//!
//! let report = explore(Config::default(), || {
//!     let flag = sync::Arc::new(sync::Mutex::new(0u32));
//!     let flag2 = flag.clone();
//!     let t = thread::spawn(move || {
//!         *flag2.lock().unwrap_or_else(|e| e.into_inner()) += 1;
//!     });
//!     *flag.lock().unwrap_or_else(|e| e.into_inner()) += 1;
//!     t.join().unwrap();
//!     assert_eq!(*flag.lock().unwrap_or_else(|e| e.into_inner()), 2);
//! });
//! assert!(report.failure.is_none());
//! assert!(report.complete);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod exec;
pub mod sync;
pub mod thread;

use std::fmt;
use std::sync::Arc as StdArc;

/// Exploration limits. The preemption bound is the classic context-bounding
/// knob: a forced switch (the running thread blocked or finished) is always
/// free, switching away from a still-runnable thread costs one preemption.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum number of preemptive context switches per schedule.
    pub max_preemptions: usize,
    /// Safety valve on the number of schedules explored; when hit, the
    /// report is marked incomplete instead of running forever.
    pub max_schedules: u64,
    /// Safety valve on scheduling steps within one schedule (livelock
    /// guard); exceeding it is reported as a failure.
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 2,
            max_schedules: 500_000,
            max_steps: 20_000,
        }
    }
}

impl Config {
    /// A config with the given preemption bound and default safety valves.
    pub fn with_preemptions(max_preemptions: usize) -> Self {
        Config {
            max_preemptions,
            ..Config::default()
        }
    }
}

/// How an exploration failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Every unfinished thread is blocked (none on a condvar).
    Deadlock,
    /// Every unfinished thread is blocked and at least one waits on a
    /// condvar — the notification it needs was lost or never sent.
    LostWakeup,
    /// A model thread panicked.
    Panic,
    /// One schedule exceeded the step limit (possible livelock).
    StepLimit,
    /// Replaying a schedule prefix diverged — model code was not
    /// deterministic.
    Divergence,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::LostWakeup => "lost wakeup",
            FailureKind::Panic => "panic",
            FailureKind::StepLimit => "step limit",
            FailureKind::Divergence => "divergence",
        };
        f.write_str(name)
    }
}

/// A failing interleaving, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (which threads were blocked where, or the
    /// panic message).
    pub message: String,
    /// The thread index chosen at each scheduling decision — pass this to
    /// [`replay`] to re-run exactly this interleaving.
    pub schedule: Vec<usize>,
    /// The operation trace (`"t<i> <operation>"` per scheduling step).
    pub trace: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model failure: {} — {}", self.kind, self.message)?;
        writeln!(f, "replayable schedule: {:?}", self.schedule)?;
        writeln!(f, "trace:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// The result of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// How many complete schedules were executed.
    pub schedules: u64,
    /// True when the bounded schedule space was exhausted (no failure and
    /// no remaining untried alternative within the preemption bound).
    pub complete: bool,
    /// The first failing interleaving, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Asserts the exploration exhausted its schedule space without a
    /// failure and returns the number of interleavings checked.
    #[track_caller]
    pub fn assert_pass(&self) -> u64 {
        if let Some(failure) = &self.failure {
            panic!("{failure}");
        }
        assert!(
            self.complete,
            "exploration hit the schedule cap after {} schedules without exhausting \
             the space — raise max_schedules or lower the preemption bound",
            self.schedules
        );
        self.schedules
    }

    /// Asserts the exploration found a failure and returns it.
    #[track_caller]
    pub fn expect_failure(&self) -> &Failure {
        self.failure
            .as_ref()
            .expect("exploration passed but a failure was expected")
    }
}

/// Exhaustively explores the interleavings of `body` up to the configured
/// preemption bound. `body` runs once per schedule and must be deterministic
/// apart from scheduling.
pub fn explore<F>(config: Config, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let body: StdArc<dyn Fn() + Send + Sync> = StdArc::new(body);
    let mut preset: Vec<usize> = Vec::new();
    let mut schedules: u64 = 0;
    loop {
        let outcome = exec::run_one(config, preset.clone(), StdArc::clone(&body));
        schedules += 1;
        if let Some(failure) = outcome.failure {
            return Report {
                schedules,
                complete: false,
                failure: Some(failure),
            };
        }
        if schedules >= config.max_schedules {
            return Report {
                schedules,
                complete: false,
                failure: None,
            };
        }
        match exec::next_preset(
            &outcome.schedule,
            &outcome.decisions,
            config.max_preemptions,
        ) {
            Some(next) => preset = next,
            None => {
                return Report {
                    schedules,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

/// Re-runs `body` under exactly the given schedule (as recorded in a
/// [`Failure`]) and returns the failure it reproduces, if any.
pub fn replay<F>(config: Config, schedule: &[usize], body: F) -> Option<Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let body: StdArc<dyn Fn() + Send + Sync> = StdArc::new(body);
    exec::run_one(config, schedule.to_vec(), body).failure
}
