//! Data sources as seen by the kernel: a storage engine plus a bounded
//! connection pool.
//!
//! The paper's SQL executor (§VI-D) balances connection consumption against
//! execution efficiency; the pool here provides the contended resource that
//! makes that trade-off real. Acquisition supports both the deadlock-safe
//! *atomic* mode (lock the data source, take every needed connection at once
//! — the paper's solution) and an *incremental* mode used by the ablation
//! benchmark to demonstrate the deadlock the paper describes.

use crate::error::{KernelError, Result};
use crate::governor::CircuitBreaker;
use crate::obs::{IncidentKind, TraceCollector};
use parking_lot::{Condvar, Mutex};
use shard_storage::StorageEngine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Replication role, used by the read-write splitting feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Primary,
    Replica,
}

/// A named data source registered with the kernel.
pub struct DataSource {
    pub name: String,
    engine: Arc<StorageEngine>,
    pool: Arc<ConnectionPool>,
    enabled: AtomicBool,
    /// Closed → open on consecutive infrastructure failures → half-open
    /// probe; consulted by the executor before every dispatch.
    breaker: CircuitBreaker,
    /// Where breaker state transitions freeze an incident, once the source
    /// belongs to a runtime.
    flight_recorder: OnceLock<Arc<TraceCollector>>,
    pub role: Role,
}

impl DataSource {
    pub fn new(
        name: impl Into<String>,
        engine: Arc<StorageEngine>,
        max_connections: usize,
    ) -> Self {
        let name = name.into();
        DataSource {
            pool: Arc::new(ConnectionPool::new(&name, max_connections)),
            name,
            engine,
            enabled: AtomicBool::new(true),
            breaker: CircuitBreaker::default(),
            flight_recorder: OnceLock::new(),
            role: Role::Primary,
        }
    }

    pub fn with_role(mut self, role: Role) -> Self {
        self.role = role;
        self
    }

    pub fn engine(&self) -> &Arc<StorageEngine> {
        &self.engine
    }

    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Circuit-break or re-enable this source (governor health detection).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// This source's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Wire the flight recorder in (once; later calls are ignored).
    pub fn set_flight_recorder(&self, collector: Arc<TraceCollector>) {
        let _ = self.flight_recorder.set(collector);
    }

    /// True when a request may be dispatched: the source is enabled and its
    /// breaker admits the request (possibly as a half-open probe).
    pub fn is_routable(&self) -> bool {
        self.is_enabled() && self.breaker.allow_request()
    }

    /// Health probe: one round trip that honours the engine's ping faults.
    pub fn ping(&self) -> bool {
        self.engine.ping().is_ok()
    }

    /// Make one call on the engine under this source's guard, and feed its
    /// outcome to the breaker: success closes it.
    pub fn guarded<T>(
        &self,
        call: impl FnOnce(&StorageEngine) -> shard_storage::Result<T>,
    ) -> Result<T> {
        self.attempt(call)
            .inspect(|_| self.breaker.record_success())
    }

    /// The guard without the success verdict, for a call that only starts
    /// the work (opening a cursor): a disabled source or an open breaker
    /// refuses it (sources marked down by health detection fail fast) and a
    /// failure counts, but whoever finishes the work reports the success —
    /// or the failure, through [`failed`](Self::failed).
    pub fn attempt<T>(
        &self,
        call: impl FnOnce(&StorageEngine) -> shard_storage::Result<T>,
    ) -> Result<T> {
        if !self.is_enabled() {
            return Err(KernelError::Unavailable(format!(
                "{} is disabled",
                self.name
            )));
        }
        if !self.breaker.allow_request() {
            return Err(KernelError::Unavailable(format!(
                "{} circuit breaker is open",
                self.name
            )));
        }
        call(&self.engine).map_err(|e| self.failed(e))
    }

    /// A call on this source failed. Only infrastructure failures count
    /// against the breaker — semantic errors (missing table, bad SQL) say
    /// nothing about the source's health. A breaker state transition freezes
    /// the flight recorder.
    pub fn failed(&self, e: shard_storage::StorageError) -> KernelError {
        let e = KernelError::Storage(e);
        if e.is_infrastructure() {
            let before = self.breaker.state();
            self.breaker.record_failure();
            let after = self.breaker.state();
            if let Some(c) = self.flight_recorder.get().filter(|_| before != after) {
                c.record_incident(
                    IncidentKind::BreakerTransition,
                    format!(
                        "{}: breaker {} -> {} ({e})",
                        self.name,
                        before.as_str(),
                        after.as_str()
                    ),
                    None,
                );
            }
        }
        e
    }
}

/// A permit representing one pooled connection. Dropping it returns the
/// permit to the pool.
pub struct Connection {
    pool: Arc<ConnectionPool>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Connection({})", self.pool.name)
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.pool.release_one();
    }
}

/// Bounded connection pool with atomic multi-acquire.
pub struct ConnectionPool {
    name: String,
    capacity: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl ConnectionPool {
    pub fn new(name: &str, capacity: usize) -> Self {
        ConnectionPool {
            name: name.to_string(),
            capacity: capacity.max(1),
            available: Mutex::new(capacity.max(1)),
            freed: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn available(&self) -> usize {
        *self.available.lock()
    }

    /// Acquire `n` connections atomically: wait until the pool can satisfy
    /// the whole request, then take all permits under one lock — the paper's
    /// deadlock-avoidance strategy.
    pub fn acquire_atomic(
        self: &Arc<Self>,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<Connection>> {
        let n = n.min(self.capacity);
        let deadline = Instant::now() + timeout;
        let mut available = self.available.lock();
        while *available < n {
            if self.freed.wait_until(&mut available, deadline).timed_out() {
                return Err(KernelError::Execute(format!(
                    "connection pool '{}' exhausted (needed {n}, available {available})",
                    self.name
                )));
            }
        }
        *available -= n;
        drop(available);
        Ok((0..n)
            .map(|_| Connection {
                pool: Arc::clone(self),
            })
            .collect())
    }

    /// Acquire `n` connections one by one (the deadlock-prone strategy the
    /// paper warns about; kept for the ablation benchmark). Each single
    /// acquisition has its own timeout slice.
    pub fn acquire_incremental(
        self: &Arc<Self>,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<Connection>> {
        let n = n.min(self.capacity);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let deadline = Instant::now() + timeout;
            let mut available = self.available.lock();
            while *available == 0 {
                if self.freed.wait_until(&mut available, deadline).timed_out() {
                    // Permits already held are released by drop — this is the
                    // back-off that resolves the deadlock (at a latency cost).
                    return Err(KernelError::Execute(format!(
                        "connection pool '{}' deadlock backoff",
                        self.name
                    )));
                }
            }
            *available -= 1;
            drop(available);
            out.push(Connection {
                pool: Arc::clone(self),
            });
        }
        Ok(out)
    }

    fn release_one(&self) {
        let mut available = self.available.lock();
        *available += 1;
        drop(available);
        self.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_acquire_and_release() {
        let pool = Arc::new(ConnectionPool::new("p", 4));
        let conns = pool.acquire_atomic(3, Duration::from_millis(50)).unwrap();
        assert_eq!(pool.available(), 1);
        drop(conns);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn atomic_acquire_times_out_when_oversubscribed() {
        let pool = Arc::new(ConnectionPool::new("p", 2));
        let _held = pool.acquire_atomic(2, Duration::from_millis(20)).unwrap();
        let err = pool
            .acquire_atomic(1, Duration::from_millis(20))
            .unwrap_err();
        assert!(matches!(err, KernelError::Execute(_)));
    }

    #[test]
    fn request_larger_than_capacity_is_clamped() {
        let pool = Arc::new(ConnectionPool::new("p", 2));
        let conns = pool.acquire_atomic(10, Duration::from_millis(20)).unwrap();
        assert_eq!(conns.len(), 2);
    }

    #[test]
    fn waiter_wakes_on_release() {
        let pool = Arc::new(ConnectionPool::new("p", 1));
        let held = pool.acquire_atomic(1, Duration::from_millis(10)).unwrap();
        let p2 = Arc::clone(&pool);
        let h = std::thread::spawn(move || p2.acquire_atomic(1, Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn incremental_acquire_backs_off() {
        // Two "queries" each needing 2 connections from a pool of 2: with
        // incremental acquisition one of them can end up starved and must
        // back off — exactly the deadlock scenario in §VI-D.
        let pool = Arc::new(ConnectionPool::new("p", 2));
        let a = pool
            .acquire_incremental(1, Duration::from_millis(10))
            .unwrap();
        let b = pool
            .acquire_incremental(1, Duration::from_millis(10))
            .unwrap();
        // Both hold 1 and want 1 more: next incremental acquire times out.
        let err = pool
            .acquire_incremental(1, Duration::from_millis(30))
            .unwrap_err();
        assert!(matches!(err, KernelError::Execute(_)));
        drop(a);
        drop(b);
        assert_eq!(pool.available(), 2);
    }

    /// The guard refuses a disabled source, counts only infrastructure
    /// failures against the breaker, and freezes the flight recorder when
    /// they trip it.
    #[test]
    fn guarded_calls_feed_the_breaker_and_the_flight_recorder() {
        use shard_storage::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
        let ds = DataSource::new("ds_0", shard_storage::StorageEngine::new("ds_0"), 4);
        let collector = Arc::new(TraceCollector::new());
        ds.set_flight_recorder(Arc::clone(&collector));
        let run = |sql: &'static str| ds.guarded(|e| e.execute_sql(sql, &[], None));
        assert!(ds.ping());
        run("CREATE TABLE t (id BIGINT PRIMARY KEY)").unwrap();
        for _ in 0..10 {
            assert!(matches!(
                run("SELECT * FROM missing"),
                Err(KernelError::Storage(_))
            ));
        }
        run("SELECT * FROM t").expect("semantic errors leave the breaker closed");

        ds.engine().fault_injector().inject(FaultPlan::new(
            FaultOp::ScanOpen,
            FaultKind::Error("disk gone".into()),
            FaultTrigger::EveryNth(1),
        ));
        let mut attempts = 0;
        while ds.breaker().allow_request() {
            assert!(run("SELECT * FROM t").is_err());
            attempts += 1;
            assert!(attempts < 100, "the breaker never opened");
        }
        let refused = run("SELECT * FROM t").unwrap_err();
        assert!(refused.to_string().contains("breaker is open"), "{refused}");
        let incidents = collector.incidents();
        assert_eq!(incidents.len(), 1, "one transition, one incident");
        assert_eq!(incidents[0].kind, IncidentKind::BreakerTransition);

        ds.engine().clear_faults();
        ds.breaker().reset();
        ds.set_enabled(false);
        let disabled = run("SELECT * FROM t").unwrap_err();
        assert!(
            matches!(disabled, KernelError::Unavailable(_)),
            "{disabled}"
        );
    }
}
