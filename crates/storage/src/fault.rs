//! Scriptable fault injection: every data source carries a [`FaultInjector`]
//! that chaos tests arm with [`FaultPlan`]s targeting individual engine
//! operations (scan open, row pull, write, prepare, commit, commit-prepared,
//! ping).
//!
//! A plan pairs a *kind* (return an error, add latency, hang until the plans
//! are cleared) with a *trigger* (fire once, every Nth occurrence, or with a
//! seeded probability). Probabilistic triggers use a private splitmix64
//! stream, so a chaos run with a fixed seed is fully deterministic.
//!
//! Hangs are released by [`FaultInjector::clear`] (or a per-plan cap), which
//! is what lets the kernel's per-statement deadline abandon a hung shard
//! while the storage thread still unblocks and exits cleanly later.

use crate::error::{Result, StorageError};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Engine operation a fault plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Opening a SELECT, through `execute` or `open_cursor`.
    ScanOpen,
    /// One pull of a SELECT's scan: a row, or a columnar batch.
    RowPull,
    /// An INSERT / UPDATE / DELETE statement.
    Write,
    /// XA phase-1 vote.
    Prepare,
    /// Local / 1PC commit.
    Commit,
    /// XA phase-2 commit of a prepared transaction.
    CommitPrepared,
    /// Health-probe ping.
    Ping,
}

impl FaultOp {
    /// Parse the DistSQL spelling (`INJECT FAULT ... OPERATION <op>`).
    pub fn parse(s: &str) -> Option<FaultOp> {
        match s.to_ascii_lowercase().as_str() {
            "scan_open" => Some(FaultOp::ScanOpen),
            "row_pull" => Some(FaultOp::RowPull),
            "write" => Some(FaultOp::Write),
            "prepare" => Some(FaultOp::Prepare),
            "commit" => Some(FaultOp::Commit),
            "commit_prepared" => Some(FaultOp::CommitPrepared),
            "ping" => Some(FaultOp::Ping),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            FaultOp::ScanOpen => "scan_open",
            FaultOp::RowPull => "row_pull",
            FaultOp::Write => "write",
            FaultOp::Prepare => "prepare",
            FaultOp::Commit => "commit",
            FaultOp::CommitPrepared => "commit_prepared",
            FaultOp::Ping => "ping",
        }
    }
}

impl std::fmt::Display for FaultOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happens when a plan fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Fail the operation with an injected error.
    Error(String),
    /// Delay the operation, then let it proceed.
    Latency(Duration),
    /// Block until the injector's plans are cleared (or `max` elapses), then
    /// fail the operation. Models a hung server rather than a fast error.
    Hang { max: Duration },
}

/// When a plan fires.
#[derive(Debug, Clone, Copy)]
pub enum FaultTrigger {
    /// Fire on the first matching operation, then disarm.
    Once,
    /// Fire on every Nth matching operation (1 = every time).
    EveryNth(u64),
    /// Fire each time with probability `p`, drawn from a seeded
    /// deterministic stream.
    Probability { p: f64, seed: u64 },
}

/// One armed fault: operations it targets, what it does, when it fires.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    pub ops: Vec<FaultOp>,
    pub kind: FaultKind,
    pub trigger: FaultTrigger,
}

impl FaultPlan {
    pub fn new(op: FaultOp, kind: FaultKind, trigger: FaultTrigger) -> Self {
        FaultPlan {
            ops: vec![op],
            kind,
            trigger,
        }
    }

    /// A plan firing on any of several operations (shared trigger state).
    pub fn on_ops(ops: Vec<FaultOp>, kind: FaultKind, trigger: FaultTrigger) -> Self {
        FaultPlan { ops, kind, trigger }
    }
}

struct PlanState {
    plan: FaultPlan,
    /// Matching operations seen (drives EveryNth).
    hits: AtomicU64,
    /// Set when a Once plan has fired.
    fired: AtomicBool,
    /// splitmix64 state for Probability triggers.
    rng: Mutex<u64>,
}

impl PlanState {
    fn new(plan: FaultPlan) -> Self {
        let seed = match plan.trigger {
            FaultTrigger::Probability { seed, .. } => seed,
            _ => 0,
        };
        PlanState {
            plan,
            hits: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            rng: Mutex::new(seed),
        }
    }

    fn should_fire(&self) -> bool {
        match self.plan.trigger {
            FaultTrigger::Once => !self.fired.swap(true, Ordering::SeqCst),
            FaultTrigger::EveryNth(n) => {
                let hit = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
                n > 0 && hit.is_multiple_of(n)
            }
            FaultTrigger::Probability { p, .. } => {
                let mut state = self.rng.lock();
                let draw = splitmix64(&mut state);
                // Top 53 bits → uniform in [0, 1).
                ((draw >> 11) as f64) / ((1u64 << 53) as f64) < p
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-data-source fault injector: holds the armed plans and the condvar
/// that releases hung operations when plans are cleared.
pub struct FaultInjector {
    name: String,
    plans: Mutex<Vec<PlanState>>,
    /// Bumped by `clear`; hung operations wait for a bump.
    epoch: Mutex<u64>,
    released: Condvar,
}

impl FaultInjector {
    pub fn new(name: impl Into<String>) -> Self {
        FaultInjector {
            name: name.into(),
            plans: Mutex::new(Vec::new()),
            epoch: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// Arm one fault plan (plans stack; each keeps its own trigger state).
    pub fn inject(&self, plan: FaultPlan) {
        self.plans.lock().push(PlanState::new(plan));
    }

    /// Disarm every plan and release all hung operations.
    pub fn clear(&self) {
        self.plans.lock().clear();
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        self.released.notify_all();
    }

    pub fn active_plans(&self) -> usize {
        self.plans.lock().len()
    }

    /// Human-readable summary of the armed plans (diagnostics / RAL).
    pub fn describe(&self) -> Vec<String> {
        self.plans
            .lock()
            .iter()
            .map(|p| {
                let ops: Vec<&str> = p.plan.ops.iter().map(|o| o.as_str()).collect();
                let kind = match &p.plan.kind {
                    FaultKind::Error(m) => format!("error '{m}'"),
                    FaultKind::Latency(d) => format!("latency {}ms", d.as_millis()),
                    FaultKind::Hang { max } => format!("hang {}ms", max.as_millis()),
                };
                let trigger = match p.plan.trigger {
                    FaultTrigger::Once => "once".to_string(),
                    FaultTrigger::EveryNth(n) => format!("every {n}"),
                    FaultTrigger::Probability { p, seed } => {
                        format!("probability {p} seed {seed}")
                    }
                };
                format!("{} {} {}", ops.join("|"), kind, trigger)
            })
            .collect()
    }

    /// Evaluate the armed plans for one operation. Error plans fail the
    /// operation, latency plans delay it, hang plans block until `clear` (or
    /// the plan's cap) and then fail it.
    pub fn check(&self, op: FaultOp) -> Result<()> {
        // Decide under the lock, act outside it: a hang must not block other
        // operations (or `clear` itself) on the plans mutex.
        let action: Option<FaultKind> = {
            let plans = self.plans.lock();
            plans
                .iter()
                .find(|p| p.plan.ops.contains(&op) && p.should_fire())
                .map(|p| p.plan.kind.clone())
        };
        match action {
            None => Ok(()),
            Some(FaultKind::Error(msg)) => Err(StorageError::Injected(format!(
                "{op} fault on '{}': {msg}",
                self.name
            ))),
            Some(FaultKind::Latency(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Hang { max }) => {
                let deadline = Instant::now() + max;
                let mut epoch = self.epoch.lock();
                let start = *epoch;
                while *epoch == start {
                    if self.released.wait_until(&mut epoch, deadline).timed_out() {
                        break;
                    }
                }
                Err(StorageError::Injected(format!(
                    "{op} hang on '{}' released",
                    self.name
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn once_fires_exactly_once() {
        let inj = FaultInjector::new("ds");
        inj.inject(FaultPlan::new(
            FaultOp::Write,
            FaultKind::Error("boom".into()),
            FaultTrigger::Once,
        ));
        assert!(inj.check(FaultOp::ScanOpen).is_ok()); // other op untouched
        assert!(inj.check(FaultOp::Write).is_err());
        assert!(inj.check(FaultOp::Write).is_ok());
    }

    #[test]
    fn every_nth_fires_periodically() {
        let inj = FaultInjector::new("ds");
        inj.inject(FaultPlan::new(
            FaultOp::RowPull,
            FaultKind::Error("nth".into()),
            FaultTrigger::EveryNth(3),
        ));
        let outcomes: Vec<bool> = (0..6)
            .map(|_| inj.check(FaultOp::RowPull).is_err())
            .collect();
        assert_eq!(outcomes, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed| {
            let inj = FaultInjector::new("ds");
            inj.inject(FaultPlan::new(
                FaultOp::Ping,
                FaultKind::Error("p".into()),
                FaultTrigger::Probability { p: 0.5, seed },
            ));
            (0..32)
                .map(|_| inj.check(FaultOp::Ping).is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let fired = run(42).iter().filter(|b| **b).count();
        assert!((4..=28).contains(&fired), "p=0.5 fired {fired}/32");
    }

    #[test]
    fn latency_plan_delays_but_succeeds() {
        let inj = FaultInjector::new("ds");
        inj.inject(FaultPlan::new(
            FaultOp::ScanOpen,
            FaultKind::Latency(Duration::from_millis(15)),
            FaultTrigger::EveryNth(1),
        ));
        let start = Instant::now();
        assert!(inj.check(FaultOp::ScanOpen).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn hang_released_by_clear() {
        let inj = Arc::new(FaultInjector::new("ds"));
        inj.inject(FaultPlan::new(
            FaultOp::Commit,
            FaultKind::Hang {
                max: Duration::from_secs(10),
            },
            FaultTrigger::Once,
        ));
        let inj2 = Arc::clone(&inj);
        let h = std::thread::spawn(move || inj2.check(FaultOp::Commit));
        std::thread::sleep(Duration::from_millis(30));
        inj.clear();
        let err = h.join().unwrap().unwrap_err();
        assert!(matches!(err, StorageError::Injected(_)));
    }

    #[test]
    fn hang_capped_by_max() {
        let inj = FaultInjector::new("ds");
        inj.inject(FaultPlan::new(
            FaultOp::Commit,
            FaultKind::Hang {
                max: Duration::from_millis(20),
            },
            FaultTrigger::Once,
        ));
        let start = Instant::now();
        assert!(inj.check(FaultOp::Commit).is_err());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn clear_disarms_everything() {
        let inj = FaultInjector::new("ds");
        inj.inject(FaultPlan::new(
            FaultOp::Write,
            FaultKind::Error("x".into()),
            FaultTrigger::EveryNth(1),
        ));
        assert_eq!(inj.active_plans(), 1);
        assert!(!inj.describe().is_empty());
        inj.clear();
        assert_eq!(inj.active_plans(), 0);
        assert!(inj.check(FaultOp::Write).is_ok());
    }
}
