//! XA two-phase commit (paper §IV-B, Fig 5(c)).
//!
//! ShardingSphere acts as both AP and TM: on COMMIT it logs the attempt,
//! runs phase 1 (`prepare` on every resource manager), durably logs the
//! decision, then runs phase 2. If a resource fails *after* voting OK, the
//! recovery manager re-drives the logged decision when the resource comes
//! back — "ShardingSphere will recover the transaction after the server
//! restarts or re-commit periodically according to the recorded logs".

use crate::error::{KernelError, Result};
use crate::executor::pool::WorkerPool;
use crate::obs::{Histogram, SpanScope};
use parking_lot::Mutex;
use shard_storage::{StorageEngine, TxnId};
use std::collections::HashMap;
use std::sync::Arc;

/// Durable coordinator decision per global transaction. A transaction whose
/// phase 2 every branch has acknowledged has no entry: nothing of it can be
/// in doubt, so recovery never asks about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XaDecision {
    /// Phase 1 in progress.
    Preparing,
    /// All votes OK; commit must eventually happen everywhere.
    Commit,
    /// Some vote failed; rollback everywhere.
    Rollback,
}

/// The transaction manager's durable log. Like the storage WAL, durability
/// across "crashes" is modelled by sharing the log between coordinator
/// incarnations.
#[derive(Clone, Default)]
pub struct XaLog {
    state: Arc<Mutex<HashMap<String, XaDecision>>>,
}

impl XaLog {
    pub fn new() -> Self {
        XaLog::default()
    }

    pub fn record(&self, xid: &str, decision: XaDecision) {
        let mut state = self.state.lock();
        match state.get_mut(xid) {
            Some(slot) => *slot = decision,
            None => {
                state.insert(xid.to_string(), decision);
            }
        }
    }

    /// Phase 2 finished on every branch: drop the transaction's entry.
    pub fn forget(&self, xid: &str) {
        self.state.lock().remove(xid);
    }

    pub fn decision(&self, xid: &str) -> Option<XaDecision> {
        self.state.lock().get(xid).copied()
    }

    /// Transactions whose phase 2 never completed — everything the log
    /// still holds.
    pub fn unfinished(&self) -> Vec<(String, XaDecision)> {
        self.state
            .lock()
            .iter()
            .map(|(x, d)| (x.clone(), *d))
            .collect()
    }
}

type Branches = HashMap<String, (Arc<StorageEngine>, TxnId)>;

/// Run one task per branch on the shared [`WorkerPool`]'s fork-join; results
/// come back in task order, so the caller sees a deterministic view
/// regardless of completion order. The coordinator thread runs branches
/// itself; pool workers help wherever they can — always when a branch
/// `waits` on its engine, so a phase costs one branch round trip instead of
/// the sum of all of them (the coordinator-fan-out bottleneck of arXiv
/// 2602.19440).
fn fan_out<T, F>(tasks: Vec<F>, waits: bool) -> Vec<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let pool = WorkerPool::global();
    let helpers = pool.helpers_for(tasks.len(), waits);
    pool.run_all(tasks, helpers)
}

fn any_waits(branches: &Branches) -> bool {
    branches.values().any(|(engine, _)| engine.waits())
}

/// Run 2PC over the branches of one global transaction.
///
/// `branches` maps data source name → (engine, local txn id).
pub fn two_phase_commit(xid: &str, log: &XaLog, branches: &Branches) -> Result<()> {
    two_phase_commit_observed(xid, log, branches, None, None)
}

/// Wrap one branch operation in a span (when the COMMIT records) — with the
/// storage probe installed on a head-sampled one, so WAL flushes and lock
/// waits inside the branch parent to its `xa_prepare` / `xa_commit` span.
/// The span opens when the operation starts, on whichever thread runs it.
fn branch_job(
    spans: Option<&SpanScope>,
    name: &'static str,
    branch: &str,
    f: impl FnOnce() -> shard_storage::Result<()> + Send + 'static,
) -> impl FnOnce() -> shard_storage::Result<()> + Send + 'static {
    let traced = spans.map(|scope| (scope.clone(), branch.to_string()));
    move || {
        let Some((scope, branch)) = traced else {
            return f();
        };
        let (id, _probe) = scope.enter(name, branch);
        let r = f();
        scope
            .recorder
            .finish(id, None, r.as_ref().err().map(|e| e.to_string()));
        r
    }
}

/// Histogram handles for the two 2PC phases (the kernel metrics registry's
/// `xa_prepare_us` / `xa_commit_us` instruments).
pub struct XaPhaseObserver<'a> {
    pub prepare_us: &'a Histogram,
    pub commit_us: &'a Histogram,
}

/// Run 2PC, optionally timing each phase into the observer's histograms
/// and/or recording per-branch spans into a trace that rides along.
pub fn two_phase_commit_observed(
    xid: &str,
    log: &XaLog,
    branches: &Branches,
    obs: Option<&XaPhaseObserver<'_>>,
    spans: Option<&SpanScope>,
) -> Result<()> {
    log.record(xid, XaDecision::Preparing);
    let phase_start = std::time::Instant::now();
    let waits = any_waits(branches);
    // Branches in name order: "first error" selection is deterministic no
    // matter which branch answers first.
    let mut ordered: Vec<(&String, &(Arc<StorageEngine>, TxnId))> = branches.iter().collect();
    ordered.sort_by_key(|(name, _)| *name);

    // Phase 1: prepare (vote collection). Every branch is asked, so the NO
    // the error names does not depend on who answered first.
    let shared_xid: Arc<str> = Arc::from(xid);
    let votes: Vec<shard_storage::Result<()>> = fan_out(
        ordered
            .iter()
            .map(|(name, (engine, txn))| {
                let (engine, txn, xid) = (Arc::clone(engine), *txn, Arc::clone(&shared_xid));
                branch_job(spans, "xa_prepare", name, move || engine.prepare(txn, &xid))
            })
            .collect(),
        waits,
    );
    if let Some(obs) = obs {
        obs.prepare_us
            .record_us(phase_start.elapsed().as_micros() as u64);
    }

    if let Some((no_idx, vote_no)) = votes
        .iter()
        .enumerate()
        .find_map(|(i, v)| v.as_ref().err().map(|e| (i, e)))
    {
        // A NO vote aborts the global transaction. Refusing branches already
        // rolled back inside `prepare`; roll their prepared siblings back in
        // the same fan-out.
        log.record(xid, XaDecision::Rollback);
        let survivors = ordered
            .iter()
            .zip(&votes)
            .filter(|(_, vote)| vote.is_ok())
            .map(|((_, (engine, txn)), _)| {
                let (engine, txn) = (Arc::clone(engine), *txn);
                move || {
                    // The branch may already be gone; recovery handles it.
                    let _ = engine.rollback_prepared(txn);
                }
            })
            .collect();
        fan_out(survivors, waits);
        log.forget(xid);
        let name = ordered[no_idx].0;
        return Err(KernelError::Transaction(format!(
            "XA transaction {xid} aborted: branch '{name}' voted NO ({vote_no})"
        )));
    }

    // Decision point: durable before phase 2.
    log.record(xid, XaDecision::Commit);

    // Phase 2: commit every branch. Failures here do NOT abort the global
    // transaction — the decision is committed; recovery re-drives stragglers.
    let phase_start = std::time::Instant::now();
    let acks = fan_out(
        ordered
            .iter()
            .map(|(name, (engine, txn))| {
                let (engine, txn) = (Arc::clone(engine), *txn);
                branch_job(spans, "xa_commit", name, move || {
                    engine.commit_prepared(txn)
                })
            })
            .collect(),
        waits,
    );
    if let Some(obs) = obs {
        obs.commit_us
            .record_us(phase_start.elapsed().as_micros() as u64);
    }
    // Acknowledged everywhere: no branch can be in doubt, nothing left for
    // recovery to ask. A lagging branch keeps the decision on the log.
    if acks.iter().all(|ack| ack.is_ok()) {
        log.forget(xid);
    }
    Ok(())
}

/// Run `op` on every branch through the fan-out, ignoring failures.
fn for_each_branch(branches: &Branches, op: fn(&StorageEngine, TxnId)) {
    let tasks = branches
        .values()
        .map(|(engine, txn)| {
            let (engine, txn) = (Arc::clone(engine), *txn);
            move || op(&engine, txn)
        })
        .collect();
    fan_out(tasks, any_waits(branches));
}

/// Fire 1PC commit at every branch, ignoring failures (the Local transaction
/// type, paper Fig 5(d)): where branches wait, each one's durability flush
/// overlaps instead of queueing behind the previous branch's round trip.
pub fn commit_all(branches: &Branches) {
    for_each_branch(branches, |engine, txn| {
        let _ = engine.commit(txn);
    });
}

/// Roll back all branches (explicit ROLLBACK before prepare) through the
/// same fan-out — an abort of a wide transaction should not pay one round
/// trip per branch either.
pub fn rollback_all(branches: &Branches) {
    for_each_branch(branches, |engine, txn| {
        let _ = engine.rollback(txn);
    });
}

/// Recovery manager: resolves in-doubt branches against the coordinator log
/// (run at startup or periodically, per the paper).
pub struct XaRecoveryManager {
    log: XaLog,
}

impl XaRecoveryManager {
    pub fn new(log: XaLog) -> Self {
        XaRecoveryManager { log }
    }

    /// Resolve every in-doubt transaction on the given engines. Returns the
    /// number of branches resolved (committed + rolled back).
    pub fn recover(&self, engines: &[Arc<StorageEngine>]) -> usize {
        let mut resolved = 0;
        for engine in engines {
            for (txn, xid) in engine.in_doubt() {
                match self.log.decision(&xid) {
                    Some(XaDecision::Commit) => {
                        if engine.commit_prepared(txn).is_ok() {
                            resolved += 1;
                        }
                    }
                    // No commit decision was logged: presume abort.
                    Some(XaDecision::Rollback) | Some(XaDecision::Preparing) | None => {
                        if engine.rollback_prepared(txn).is_ok() {
                            resolved += 1;
                        }
                    }
                }
            }
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_sql::Value;

    fn engine_with_row(name: &str) -> Arc<StorageEngine> {
        let e = StorageEngine::new(name);
        e.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
            .unwrap();
        e.execute_sql("INSERT INTO t VALUES (1, 10)", &[], None)
            .unwrap();
        e
    }

    fn start_branch(e: &Arc<StorageEngine>, v: i64) -> TxnId {
        let txn = e.begin();
        e.execute_sql(
            &format!("UPDATE t SET v = {v} WHERE id = 1"),
            &[],
            Some(txn),
        )
        .unwrap();
        txn
    }

    fn value(e: &Arc<StorageEngine>) -> Value {
        e.execute_sql("SELECT v FROM t WHERE id = 1", &[], None)
            .unwrap()
            .query()
            .rows[0][0]
            .clone()
    }

    #[test]
    fn successful_two_phase_commit() {
        let a = engine_with_row("a");
        let b = engine_with_row("b");
        let mut branches = HashMap::new();
        branches.insert("a".to_string(), (a.clone(), start_branch(&a, 100)));
        branches.insert("b".to_string(), (b.clone(), start_branch(&b, 200)));
        let log = XaLog::new();
        two_phase_commit("x1", &log, &branches).unwrap();
        assert_eq!(value(&a), Value::Int(100));
        assert_eq!(value(&b), Value::Int(200));
        assert_eq!(log.decision("x1"), None);
        assert!(log.unfinished().is_empty());
    }

    #[test]
    fn no_vote_rolls_back_everything() {
        let a = engine_with_row("a");
        let b = engine_with_row("b");
        let mut branches = HashMap::new();
        branches.insert("a".to_string(), (a.clone(), start_branch(&a, 100)));
        branches.insert("b".to_string(), (b.clone(), start_branch(&b, 200)));
        // b refuses to prepare.
        b.inject_commit_failure();
        let log = XaLog::new();
        let err = two_phase_commit("x2", &log, &branches).unwrap_err();
        assert!(matches!(err, KernelError::Transaction(_)));
        assert!(err.to_string().contains("voted NO"), "{err}");
        assert_eq!(value(&a), Value::Int(10));
        assert_eq!(value(&b), Value::Int(10));
        // Nothing of an aborted transaction is in doubt or left on the log.
        assert!(a.in_doubt().is_empty() && b.in_doubt().is_empty());
        assert_eq!(log.decision("x2"), None);
        assert!(log.unfinished().is_empty());
    }

    #[test]
    fn phase2_failure_recovers_via_log() {
        let a = engine_with_row("a");
        let b = engine_with_row("b");
        let txn_a = start_branch(&a, 100);
        let txn_b = start_branch(&b, 200);
        let mut branches = HashMap::new();
        branches.insert("a".to_string(), (a.clone(), txn_a));
        branches.insert("b".to_string(), (b.clone(), txn_b));
        let log = XaLog::new();

        // Prepare both manually, then simulate phase-2 failure on b by
        // injecting after votes: prepare() consumes the injection, so inject
        // between phases via direct calls.
        a.prepare(txn_a, "x3").unwrap();
        b.prepare(txn_b, "x3").unwrap();
        log.record("x3", XaDecision::Commit);
        a.commit_prepared(txn_a).unwrap();
        // b crashes before commit: it stays in doubt.
        assert_eq!(b.in_doubt().len(), 1);

        // Recovery re-drives the logged commit decision.
        let recovery = XaRecoveryManager::new(log);
        let resolved = recovery.recover(&[a.clone(), b.clone()]);
        assert_eq!(resolved, 1);
        assert_eq!(value(&b), Value::Int(200));
        assert!(b.in_doubt().is_empty());
    }

    #[test]
    fn recovery_presumes_abort_without_decision() {
        let a = engine_with_row("a");
        let txn = start_branch(&a, 99);
        a.prepare(txn, "x4").unwrap();
        // Coordinator crashed before logging any decision.
        let recovery = XaRecoveryManager::new(XaLog::new());
        let resolved = recovery.recover(std::slice::from_ref(&a));
        assert_eq!(resolved, 1);
        assert_eq!(value(&a), Value::Int(10)); // rolled back
    }

    #[test]
    fn parallel_abort_names_first_branch_in_name_order() {
        // Two branches vote NO; regardless of which one answers first, the
        // surfaced error must name the lexicographically first NO-voter.
        let names = ["d", "b", "c", "a"];
        let engines: Vec<_> = names.iter().map(|n| engine_with_row(n)).collect();
        let mut branches = HashMap::new();
        for (n, e) in names.iter().zip(&engines) {
            branches.insert(n.to_string(), (e.clone(), start_branch(e, 77)));
        }
        // "d" and "b" refuse to prepare.
        engines[0].inject_commit_failure();
        engines[1].inject_commit_failure();
        let log = XaLog::new();
        let err = two_phase_commit("x6", &log, &branches).unwrap_err();
        assert!(err.to_string().contains("branch 'b'"), "{err}");
        for e in &engines {
            assert_eq!(value(e), Value::Int(10), "{} not rolled back", e.name());
            assert!(e.in_doubt().is_empty());
        }
    }

    #[test]
    fn parallel_fanout_overlaps_branch_round_trips() {
        use shard_storage::LatencyModel;
        use std::time::Duration;
        // 8 branches, 5ms per round trip: one branch after another would pay
        // 8 × (prepare + commit flush) = ~80ms; the fan-out pays roughly two
        // round trips. Generous bound to stay robust on slow CI.
        let mut branches = HashMap::new();
        let mut engines = Vec::new();
        for i in 0..8 {
            let e = StorageEngine::with_latency(
                format!("ds_{i}"),
                LatencyModel::new(Duration::from_millis(5), Duration::ZERO),
            );
            e.execute_sql("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)", &[], None)
                .unwrap();
            let txn = e.begin();
            e.execute_sql("INSERT INTO t VALUES (1, 1)", &[], Some(txn))
                .unwrap();
            branches.insert(format!("ds_{i}"), (e.clone(), txn));
            engines.push(e);
        }
        let log = XaLog::new();
        let start = std::time::Instant::now();
        two_phase_commit("x7", &log, &branches).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(60),
            "parallel 2PC took {elapsed:?}, expected well under the ~80ms serial cost"
        );
        assert_eq!(log.decision("x7"), None);
        assert!(log.unfinished().is_empty());
    }

    #[test]
    fn unfinished_listing() {
        let log = XaLog::new();
        log.record("a", XaDecision::Preparing);
        log.record("a", XaDecision::Commit);
        log.record("b", XaDecision::Commit);
        log.forget("b");
        let unfinished = log.unfinished();
        assert_eq!(unfinished, vec![("a".to_string(), XaDecision::Commit)]);
    }

    #[test]
    fn the_log_forgets_finished_transactions() {
        let a = engine_with_row("a");
        let b = engine_with_row("b");
        let log = XaLog::new();
        for i in 0..1000 {
            let mut branches = HashMap::new();
            branches.insert("a".to_string(), (a.clone(), start_branch(&a, i)));
            branches.insert("b".to_string(), (b.clone(), start_branch(&b, i)));
            if i % 100 == 99 {
                // An aborted transaction is finished too.
                b.inject_commit_failure();
                two_phase_commit(&format!("x{i}"), &log, &branches).unwrap_err();
            } else {
                two_phase_commit(&format!("x{i}"), &log, &branches).unwrap();
            }
        }
        assert_eq!(value(&a), Value::Int(998));
        assert_eq!(value(&b), Value::Int(998));
        assert!(log.unfinished().is_empty());
    }

    #[test]
    fn a_lagging_branch_keeps_the_decision_on_the_log() {
        use shard_storage::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
        let a = engine_with_row("a");
        let b = engine_with_row("b");
        let mut branches = HashMap::new();
        branches.insert("a".to_string(), (a.clone(), start_branch(&a, 100)));
        branches.insert("b".to_string(), (b.clone(), start_branch(&b, 200)));
        b.fault_injector().inject(FaultPlan::new(
            FaultOp::CommitPrepared,
            FaultKind::Error("down".into()),
            FaultTrigger::Once,
        ));
        let log = XaLog::new();
        two_phase_commit("x8", &log, &branches).unwrap();
        assert_eq!(log.decision("x8"), Some(XaDecision::Commit));
        assert_eq!(b.in_doubt().len(), 1);
        // Recovery re-drives the straggler from the entry that was kept.
        assert_eq!(XaRecoveryManager::new(log).recover(&[a, b.clone()]), 1);
        assert_eq!(value(&b), Value::Int(200));
    }
}
