//! Ring-buffer slow-query log, queryable with `SHOW SLOW_QUERIES`.
//!
//! Recording happens *after* a statement finishes and only when its wall
//! time crossed the threshold. While the threshold is armed every statement
//! records kernel spans, because which one will be slow is known only at
//! the end; an entry is the statement's sealed record itself. The buffer is
//! a bounded `VecDeque` under a mutex — contention only matters when many
//! statements are simultaneously slow, at which point the mutex is not the
//! bottleneck.

use super::span::TraceRecord;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default ring capacity (overridable with `SET slow_query_log_size`).
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 128;

/// One captured slow statement.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Monotonic capture sequence number (1-based); survives eviction so
    /// readers can tell how many slow queries happened overall.
    pub seq: u64,
    /// Stage times, units and the kernel's verdicts — *why* the statement
    /// was slow (full scatter? row-at-a-time scan? table mid-reshard?) —
    /// are read off the record, as is the id the trace ring keeps it under.
    pub record: Arc<TraceRecord>,
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

    /// Capture a sealed record if its statement crossed the threshold — for
    /// a fast statement, one relaxed load and two compares. Says whether it
    /// was captured.
    pub fn record(&self, record: &Arc<TraceRecord>) -> bool {
        let threshold = self.threshold_us.load(Ordering::Relaxed);
        let capacity = self.capacity();
        if threshold == 0 || record.total_us < threshold || capacity == 0 {
            return false;
        }
        let entry = SlowQueryEntry {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            record: Arc::clone(record),
        };
        let mut entries = self.entries.lock();
        while entries.len() >= capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
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
    use super::super::span::Verdicts;
    use super::*;

    fn trace(sql: &str, total_us: u64) -> Arc<TraceRecord> {
        Arc::new(TraceRecord {
            trace_id: 1,
            origin: "session".into(),
            sql: sql.into(),
            total_us,
            spans: Vec::new(),
            error: None,
            verdicts: Verdicts {
                route_strategy: Some("scatter"),
                ..Verdicts::default()
            },
        })
    }

    #[test]
    fn entries_carry_the_record() {
        let log = SlowQueryLog::new();
        log.set_threshold_us(1);
        assert!(log.record(&trace("SELECT 1", 10)));
        let entry = &log.entries()[0];
        assert_eq!(entry.record.verdicts.route_strategy, Some("scatter"));
        assert_eq!(entry.record.verdicts.scan_mode, None);
        assert_eq!(entry.record.trace_id, 1);
    }

    #[test]
    fn threshold_zero_disables_capture() {
        let log = SlowQueryLog::new();
        assert!(!log.record(&trace("SELECT 1", 1_000_000)));
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
        assert_eq!(entries[0].record.sql, "slow_3"); // newest first
        assert_eq!(entries[1].record.sql, "slow_2");
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
        assert_eq!(entries[0].record.sql, "q4");
        assert_eq!(entries[1].record.sql, "q3");
    }
}
