//! Resource governance and fault isolation for every fan-out path.
//!
//! The rest of the crate is written for the happy path: merge passes may
//! `panic!` on internal invariant violations, and batch fan-outs join
//! worker threads with `expect`. That is fine for a one-shot CLI run but
//! not for the long-running corpus service the ROADMAP aims at, where one
//! poisoned pair must not abort a 17k-pair batch. This module supplies the
//! vocabulary that turns those crashes and overruns into data:
//!
//! * [`Budget`] — a declarative resource envelope: an optional work-step
//!   ceiling and an optional wall-clock deadline. [`Budget::start`] turns
//!   it into a running [`Meter`].
//! * [`Meter`] — the running counterpart, shared by reference across
//!   worker threads; charged at *push* granularity (or per batch item),
//!   and the deadline is checked when the push is charged.
//! * [`ExecError`] — the structured failure vocabulary: a contained panic,
//!   an exceeded deadline, or an exhausted step ceiling, each tagged with
//!   the [`Site`] where it surfaced.
//! * [`ItemOutcome`] / [`BatchReport`] — per-item results of a guarded
//!   fan-out ([`crate::BatchComposer::try_all_pairs`] and friends): every
//!   item is `Ok` or `Failed`, and surviving items are bit-identical to a
//!   fault-free run.
//! * [`fail_point`] — deterministic fault-injection hook, compiled to a
//!   no-op unless the crate's `fault-injection` feature is enabled. Tests
//!   arm a `injection::FailPlan` naming the [`Site`]s that must panic.
//!
//! Guarded entry points never let a contained fault corrupt the
//! accumulator: a failed push rolls the session back to its pre-push
//! state, and a failed batch item leaves every other item untouched.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A place where execution can fault or exhaust its budget. Sites are
/// keyed by deterministic indexes (pass number, item ordinal), never by
/// thread identity, so fault injection and error reports are stable
/// across scheduling orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// One merge pass (Fig. 4 pass index, 0–11) inside a push: the
    /// fault-injection point before that pass runs. A fault there is
    /// contained and reported at the enclosing [`Site::Push`].
    Pass(usize),
    /// One session push as a whole (ordinal of the push in the session).
    Push(usize),
    /// One item of a batch fan-out: the pair ordinal in `try_all_pairs`
    /// or the corpus index in `try_map_corpus`.
    Shard(usize),
    /// One candidate refinement of a corpus query (candidate ordinal).
    Query(usize),
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Pass(i) => write!(f, "pass {i}"),
            Site::Push(i) => write!(f, "push {i}"),
            Site::Shard(i) => write!(f, "shard {i}"),
            Site::Query(i) => write!(f, "query candidate {i}"),
        }
    }
}

/// How one unit of guarded work ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The work panicked; the panic was contained at the fan-out boundary
    /// and the payload preserved as text.
    Panicked {
        /// Where the panic surfaced.
        site: Site,
        /// The panic payload, stringified.
        detail: String,
    },
    /// The wall-clock deadline of the governing [`Budget`] passed.
    DeadlineExceeded {
        /// The check point that observed the overrun.
        site: Site,
        /// Elapsed time since the meter started, in milliseconds.
        elapsed_ms: u64,
    },
    /// The work-step ceiling of the governing [`Budget`] was reached.
    StepsExhausted {
        /// The charge point that hit the ceiling.
        site: Site,
        /// The configured ceiling.
        limit: u64,
    },
}

impl ExecError {
    /// The site the error is attributed to.
    pub fn site(&self) -> Site {
        match *self {
            ExecError::Panicked { site, .. }
            | ExecError::DeadlineExceeded { site, .. }
            | ExecError::StepsExhausted { site, .. } => site,
        }
    }

    /// True for resource exhaustion (deadline or steps), false for a
    /// contained panic.
    pub fn is_budget(&self) -> bool {
        !matches!(self, ExecError::Panicked { .. })
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Panicked { site, detail } => {
                write!(f, "panic contained at {site}: {detail}")
            }
            ExecError::DeadlineExceeded { site, elapsed_ms } => {
                write!(f, "deadline exceeded at {site} after {elapsed_ms} ms")
            }
            ExecError::StepsExhausted { site, limit } => {
                write!(f, "step budget of {limit} exhausted at {site}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A declarative resource envelope: how much work a guarded operation may
/// do before it must stop. The default is unlimited on both axes.
///
/// Budgets are plain data — cheap to copy, and *fingerprint-neutral*:
/// they never change what a successful operation computes, only whether
/// it is allowed to finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    max_steps: Option<u64>,
    deadline: Option<Duration>,
}

impl Budget {
    /// No ceiling on steps or wall-clock time.
    pub const fn unlimited() -> Budget {
        Budget { max_steps: None, deadline: None }
    }

    /// Cap total work steps. For session pushes a step is one incoming
    /// component; for batch fan-outs each item costs its component count.
    #[must_use]
    pub fn with_max_steps(mut self, steps: u64) -> Budget {
        self.max_steps = Some(steps);
        self
    }

    /// Set a wall-clock deadline relative to [`Budget::start`].
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// [`Budget::with_deadline`] in milliseconds, matching the CLI flag.
    #[must_use]
    pub fn with_deadline_ms(self, ms: u64) -> Budget {
        self.with_deadline(Duration::from_millis(ms))
    }

    /// The configured step ceiling, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// True when neither axis is bounded.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline.is_none()
    }

    /// Start the clock: produce a running [`Meter`] for this budget.
    pub fn start(&self) -> Meter {
        let started = Instant::now();
        Meter {
            started,
            deadline: self.deadline.map(|d| started + d),
            max_steps: self.max_steps,
            steps: AtomicU64::new(0),
        }
    }
}

/// A running [`Budget`]: tracks steps spent and the absolute deadline.
/// Shared by `&Meter` across worker threads (step counting is atomic).
/// A guarded session push charges it once, before the accumulator is
/// touched — that charge is also where the deadline is checked; nothing
/// re-checks it between the merge passes of a push.
#[derive(Debug)]
pub struct Meter {
    started: Instant,
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    steps: AtomicU64,
}

impl Meter {
    /// A meter that never trips — useful as a default.
    pub fn unlimited() -> Meter {
        Budget::unlimited().start()
    }

    /// Charge `n` work steps at `site`, then check the deadline. Fails
    /// with [`ExecError::StepsExhausted`] once cumulative charges exceed
    /// the ceiling.
    pub fn charge(&self, n: u64, site: Site) -> Result<(), ExecError> {
        if let Some(limit) = self.max_steps {
            let before = self.steps.fetch_add(n, Ordering::Relaxed);
            if before.saturating_add(n) > limit {
                return Err(ExecError::StepsExhausted { site, limit });
            }
        } else {
            self.steps.fetch_add(n, Ordering::Relaxed);
        }
        self.check_deadline(site)
    }

    /// Check only the wall-clock axis at `site`.
    pub fn check_deadline(&self, site: Site) -> Result<(), ExecError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded {
                    site,
                    elapsed_ms: self.started.elapsed().as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }
}

/// How one item of a guarded fan-out ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<T> {
    /// Completed normally — bit-identical to a fault-free run.
    Ok(T),
    /// Did not complete; no partial state escaped the item boundary.
    Failed(ExecError),
}

impl<T> ItemOutcome<T> {
    /// The computed value, if the item completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            ItemOutcome::Ok(v) => Some(v),
            ItemOutcome::Failed(_) => None,
        }
    }

    /// Consume the outcome, keeping the value if the item completed.
    pub fn into_value(self) -> Option<T> {
        match self {
            ItemOutcome::Ok(v) => Some(v),
            ItemOutcome::Failed(_) => None,
        }
    }

    /// The fault, if the item failed.
    pub fn error(&self) -> Option<&ExecError> {
        match self {
            ItemOutcome::Ok(_) => None,
            ItemOutcome::Failed(e) => Some(e),
        }
    }

    /// True for [`ItemOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ItemOutcome::Ok(_))
    }

    /// True for [`ItemOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, ItemOutcome::Failed(_))
    }
}

/// Per-item results of a guarded fan-out, in deterministic item order
/// (pair ordinal for `try_all_pairs`, corpus index for `try_map_corpus`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport<T> {
    /// One outcome per fan-out item, in item order.
    pub items: Vec<ItemOutcome<T>>,
}

impl<T> BatchReport<T> {
    /// Items that completed normally.
    pub fn ok_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_ok()).count()
    }

    /// Items that failed.
    pub fn failed_count(&self) -> usize {
        self.items.iter().filter(|i| i.is_failed()).count()
    }

    /// True when every item completed normally.
    pub fn fully_ok(&self) -> bool {
        self.items.iter().all(|i| i.is_ok())
    }

    /// The surviving values, in item order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.items.iter().filter_map(|i| i.value())
    }

    /// `(item index, fault)` for every failed item.
    pub fn errors(&self) -> impl Iterator<Item = (usize, &ExecError)> {
        self.items.iter().enumerate().filter_map(|(k, i)| i.error().map(|e| (k, e)))
    }
}

/// Stringify a caught panic payload for [`ExecError::Panicked`].
pub fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Deterministic fault-injection point. Without the `fault-injection`
/// cargo feature this compiles to a no-op and costs nothing; with the
/// feature enabled it panics when the armed `injection::FailPlan`
/// names `site`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fail_point(_site: Site) {}

/// Deterministic fault-injection point (feature-enabled build): panics
/// when the armed `injection::FailPlan` names `site`.
#[cfg(feature = "fault-injection")]
pub fn fail_point(site: Site) {
    injection::hit(site);
}

/// Test-only fault injection: a process-global plan of [`Site`]s that
/// must panic, armed for the duration of one closure. Only compiled with
/// the `fault-injection` cargo feature.
#[cfg(feature = "fault-injection")]
pub mod injection {
    use super::Site;
    use std::sync::Mutex;

    /// Marker prefix of every injected panic payload, so contained-error
    /// details are recognizable in assertions.
    pub const INJECTED: &str = "injected fault";

    static PLAN: Mutex<Option<FailPlan>> = Mutex::new(None);
    // Serializes `with_plan` callers so concurrently running tests cannot
    // observe each other's plans.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// The set of sites that must panic while the plan is armed.
    #[derive(Debug, Clone, Default)]
    pub struct FailPlan {
        sites: Vec<Site>,
    }

    impl FailPlan {
        /// An empty plan (no site fails).
        pub fn new() -> FailPlan {
            FailPlan::default()
        }

        /// Add a site that must panic.
        #[must_use]
        pub fn fail_at(mut self, site: Site) -> FailPlan {
            self.sites.push(site);
            self
        }
    }

    pub(super) fn hit(site: Site) {
        let armed = PLAN.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(plan) = armed.as_ref() {
            if plan.sites.contains(&site) {
                drop(armed);
                panic!("{INJECTED} at {site}");
            }
        }
    }

    /// Run `f` with `plan` armed, then disarm. Callers are serialized on
    /// a global lock; the plan is disarmed even if `f` panics.
    pub fn with_plan<T>(plan: FailPlan, f: impl FnOnce() -> T) -> T {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = Some(plan);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        *PLAN.lock().unwrap_or_else(|p| p.into_inner()) = None;
        match result {
            Ok(value) => value,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_trips() {
        let meter = Meter::unlimited();
        for i in 0..1000 {
            meter.charge(u64::MAX / 2000, Site::Push(i)).expect("unlimited");
        }
        meter.check_deadline(Site::Push(0)).expect("no deadline");
    }

    #[test]
    fn step_ceiling_trips_at_the_right_charge() {
        let meter = Budget::unlimited().with_max_steps(10).start();
        meter.charge(6, Site::Push(0)).expect("6 <= 10");
        meter.charge(4, Site::Push(1)).expect("10 <= 10");
        let err = meter.charge(1, Site::Push(2)).unwrap_err();
        assert_eq!(err, ExecError::StepsExhausted { site: Site::Push(2), limit: 10 });
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let meter = Budget::unlimited().with_deadline_ms(0).start();
        let err = meter.check_deadline(Site::Pass(3)).unwrap_err();
        assert!(matches!(err, ExecError::DeadlineExceeded { site: Site::Pass(3), .. }));
        assert!(err.is_budget());
    }

    #[test]
    fn report_partitions_outcomes() {
        let report = BatchReport {
            items: vec![
                ItemOutcome::Ok(1),
                ItemOutcome::Failed(ExecError::StepsExhausted { site: Site::Shard(1), limit: 5 }),
                ItemOutcome::Ok(3),
            ],
        };
        assert_eq!(report.ok_count(), 2);
        assert_eq!(report.failed_count(), 1);
        assert!(!report.fully_ok());
        assert_eq!(report.values().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(report.errors().map(|(k, _)| k).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn display_is_stable() {
        let e = ExecError::Panicked { site: Site::Pass(7), detail: "boom".into() };
        assert_eq!(e.to_string(), "panic contained at pass 7: boom");
        assert_eq!(e.site(), Site::Pass(7));
        let e = ExecError::StepsExhausted { site: Site::Query(2), limit: 9 };
        assert_eq!(e.to_string(), "step budget of 9 exhausted at query candidate 2");
    }
}
