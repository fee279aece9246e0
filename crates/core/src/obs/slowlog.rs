//! Ring-buffer slow-query log, queryable with `SHOW SLOW_QUERIES`.
//!
//! Recording happens *after* a statement finishes and only when its wall
//! time crossed the threshold, so the hot path pays one relaxed atomic load
//! (the threshold check). The buffer is a bounded `VecDeque` under a mutex —
//! contention only matters when many statements are simultaneously slow,
//! at which point the mutex is not the bottleneck.

use super::trace::{Stage, StatementTrace};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default ring capacity (overridable with `SET slow_query_log_size`).
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 128;

/// One captured slow statement.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Monotonic capture sequence number (1-based); survives eviction so
    /// readers can tell how many slow queries happened overall.
    pub seq: u64,
    pub sql: String,
    pub total_us: u64,
    pub stages: Vec<(Stage, u64)>,
    pub units: usize,
    pub rows: u64,
    /// Kernel verdicts copied from the trace so `SHOW SLOW_QUERIES` can
    /// explain *why* a statement was slow (full scatter? row-at-a-time
    /// scan? table mid-reshard? MVCC off and blocking on locks?).
    pub route_strategy: Option<String>,
    pub scan_mode: Option<String>,
    pub reshard_state: Option<String>,
}

/// Bounded ring buffer of the most recent slow statements.
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    /// Wall-time threshold in µs; 0 disables capture entirely.
    threshold_us: AtomicU64,
    capacity: AtomicUsize,
    seq: AtomicU64,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog {
            entries: Mutex::new(VecDeque::new()),
            threshold_us: AtomicU64::new(0),
            capacity: AtomicUsize::new(DEFAULT_SLOW_LOG_CAPACITY),
            seq: AtomicU64::new(0),
        }
    }
}

impl SlowQueryLog {
    pub fn new() -> Self {
        SlowQueryLog::default()
    }

    pub fn threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    pub fn set_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resize the ring; shrinking evicts oldest entries immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        while entries.len() > capacity {
            entries.pop_front();
        }
    }

    /// Whether a statement of this duration should be captured. The fast
    /// path for fast statements: one relaxed load and two compares.
    #[inline]
    pub fn should_capture(&self, total_us: u64) -> bool {
        let t = self.threshold_us.load(Ordering::Relaxed);
        t > 0 && total_us >= t
    }

    /// Capture a finished trace (caller already checked [`should_capture`],
    /// but this re-checks so direct callers cannot bypass the threshold).
    ///
    /// [`should_capture`]: SlowQueryLog::should_capture
    pub fn record(&self, trace: &StatementTrace) {
        if !self.should_capture(trace.total_us) {
            return;
        }
        let capacity = self.capacity();
        if capacity == 0 {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = SlowQueryEntry {
            seq,
            sql: trace.sql.clone(),
            total_us: trace.total_us,
            stages: trace.stages.clone(),
            units: trace.units.len(),
            rows: trace.rows,
            route_strategy: trace.route_strategy.clone(),
            scan_mode: trace.scan_mode.clone(),
            reshard_state: trace.reshard_state.clone(),
        };
        let mut entries = self.entries.lock();
        while entries.len() >= capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Entries newest-first (what `SHOW SLOW_QUERIES` displays).
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        let entries = self.entries.lock();
        entries.iter().rev().cloned().collect()
    }

    /// Total slow statements ever captured (including evicted ones).
    pub fn captured_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(sql: &str, total_us: u64) -> StatementTrace {
        StatementTrace {
            sql: sql.into(),
            total_us,
            stages: vec![
                (Stage::Parse, 1),
                (Stage::Execute, total_us.saturating_sub(1)),
            ],
            units: Vec::new(),
            merger: None,
            route_strategy: Some("scatter".into()),
            scan_mode: None,
            reshard_state: None,
            rows: 0,
        }
    }

    #[test]
    fn entries_carry_verdict_tags() {
        let log = SlowQueryLog::new();
        log.set_threshold_us(1);
        log.record(&trace("SELECT 1", 10));
        let entry = &log.entries()[0];
        assert_eq!(entry.route_strategy.as_deref(), Some("scatter"));
        assert_eq!(entry.scan_mode, None);
    }

    #[test]
    fn threshold_zero_disables_capture() {
        let log = SlowQueryLog::new();
        log.record(&trace("SELECT 1", 1_000_000));
        assert!(log.entries().is_empty());
    }

    #[test]
    fn threshold_filters_and_ring_evicts() {
        let log = SlowQueryLog::new();
        log.set_threshold_us(100);
        log.set_capacity(2);
        log.record(&trace("fast", 50)); // below threshold
        log.record(&trace("slow_1", 150));
        log.record(&trace("slow_2", 200));
        log.record(&trace("slow_3", 300)); // evicts slow_1
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "slow_3"); // newest first
        assert_eq!(entries[1].sql, "slow_2");
        assert_eq!(log.captured_total(), 3);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let log = SlowQueryLog::new();
        log.set_threshold_us(1);
        for i in 0..5 {
            log.record(&trace(&format!("q{i}"), 10));
        }
        log.set_capacity(2);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].sql, "q4");
        assert_eq!(entries[1].sql, "q3");
    }
}
