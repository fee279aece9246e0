//! Latency model: simulates the network and I/O costs of a remote data
//! source.
//!
//! The paper's cluster runs each data source on its own server, so every
//! request pays a network round trip and every returned row pays transfer
//! cost. Our data sources are in-process; this model injects those costs so
//! the *shape* of the paper's results (JDBC beats Proxy; more servers help
//! until the network saturates) is preserved. See DESIGN.md substitution #2.

use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Cost per request (network round-trip + request dispatch).
    pub per_request: Duration,
    /// Cost per row transferred back to the client.
    pub per_row: Duration,
    /// Extra cost per request once a touched table no longer fits the
    /// simulated buffer pool — the disk-thrash effect that makes requests on
    /// big tables slow (and sharded small tables fast, Table IV).
    pub page_miss: Duration,
    /// Rows of one table that fit in the buffer pool.
    pub cached_rows: u64,
}

impl LatencyModel {
    /// No injected latency (an embedded/local data source).
    pub const ZERO: LatencyModel = LatencyModel {
        per_request: Duration::ZERO,
        per_row: Duration::ZERO,
        page_miss: Duration::ZERO,
        cached_rows: u64::MAX,
    };

    /// True when no request is ever charged anything.
    pub fn is_zero(&self) -> bool {
        self.per_request.is_zero() && self.per_row.is_zero() && self.page_miss.is_zero()
    }

    /// A LAN-attached data source: ~100µs RTT, 200ns/row transfer.
    pub fn lan() -> Self {
        LatencyModel {
            per_request: Duration::from_micros(100),
            per_row: Duration::from_nanos(200),
            ..LatencyModel::ZERO
        }
    }

    pub fn new(per_request: Duration, per_row: Duration) -> Self {
        LatencyModel {
            per_request,
            per_row,
            ..LatencyModel::ZERO
        }
    }

    /// Add a buffer-pool model: requests touching tables larger than
    /// `cached_rows` pay `page_miss` scaled by how far the table overflows
    /// the pool (capped at 16×).
    pub fn with_buffer_pool(mut self, page_miss: Duration, cached_rows: u64) -> Self {
        self.page_miss = page_miss;
        self.cached_rows = cached_rows.max(1);
        self
    }

    /// The disk-miss cost for one request touching a table of `rows` rows.
    pub fn miss_cost(&self, rows: u64) -> Duration {
        if self.page_miss.is_zero() || rows <= self.cached_rows {
            return Duration::ZERO;
        }
        let ratio = (rows as f64 / self.cached_rows as f64).min(16.0);
        self.page_miss.mul_f64(ratio)
    }

    /// Block for the miss cost of a table of `rows` rows.
    pub fn charge_miss(&self, rows: u64) {
        let cost = self.miss_cost(rows);
        if !cost.is_zero() {
            spin_or_sleep(cost);
        }
    }

    /// Total injected delay for a request returning `rows` rows.
    pub fn request_cost(&self, rows: usize) -> Duration {
        self.per_request + self.per_row * (rows as u32)
    }

    /// Block the calling thread for the modelled cost.
    pub fn charge(&self, rows: usize) {
        let cost = self.request_cost(rows);
        if !cost.is_zero() {
            spin_or_sleep(cost);
        }
    }

    /// Per-row transfer cost only (no per-request component). A SELECT pays
    /// `charge(0)` once at open and this for the rows that leave the engine,
    /// as they leave.
    pub fn charge_rows(&self, rows: usize) {
        let cost = self.per_row * (rows as u32);
        if !cost.is_zero() {
            spin_or_sleep(cost);
        }
    }
}

/// Simulated waits must not burn CPU: a real network/disk wait leaves the
/// core idle for other sessions, and the benchmark host may have very few
/// cores. Everything beyond a token threshold sleeps; the OS sleep overhead
/// (~60-90µs) is uniform across systems and simply becomes part of the
/// modelled round-trip.
pub(crate) fn spin_or_sleep(cost: Duration) {
    if cost < Duration::from_micros(20) {
        let start = std::time::Instant::now();
        while start.elapsed() < cost {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(cost);
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_cost_kicks_in_past_cache() {
        let m = LatencyModel::ZERO.with_buffer_pool(Duration::from_micros(100), 1000);
        assert_eq!(m.miss_cost(500), Duration::ZERO);
        assert_eq!(m.miss_cost(1000), Duration::ZERO);
        assert_eq!(m.miss_cost(2000), Duration::from_micros(200));
        // capped at 16x
        assert_eq!(m.miss_cost(10_000_000), Duration::from_micros(1600));
    }

    #[test]
    fn zero_model_is_free() {
        assert_eq!(LatencyModel::ZERO.request_cost(1000), Duration::ZERO);
    }

    #[test]
    fn cost_scales_with_rows() {
        let m = LatencyModel::new(Duration::from_micros(100), Duration::from_micros(1));
        assert_eq!(m.request_cost(0), Duration::from_micros(100));
        assert_eq!(m.request_cost(50), Duration::from_micros(150));
    }

    #[test]
    fn charge_blocks_for_roughly_the_cost() {
        let m = LatencyModel::new(Duration::from_micros(200), Duration::ZERO);
        let start = std::time::Instant::now();
        m.charge(0);
        assert!(start.elapsed() >= Duration::from_micros(200));
    }
}
