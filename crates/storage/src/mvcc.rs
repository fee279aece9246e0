//! Multi-version concurrency control: version stamps, read views and the
//! live-snapshot registry that bounds garbage collection.
//!
//! Every row in a [`crate::table::Table`] is a *version chain* (oldest →
//! newest). A version carries a `begin` stamp (who created it) and an
//! optional `end` stamp (who superseded or deleted it). While the writing
//! transaction is active both stamps are [`Stamp::Pending`]; commit converts
//! them to [`Stamp::Committed`] with one timestamp per transaction, drawn
//! from the engine's commit clock, and only then publishes the clock — so a
//! reader's snapshot either sees the whole transaction or none of it.
//!
//! Readers allocate a [`ReadView`] per statement (or per cursor open) and
//! resolve visibility against it without ever touching the
//! [`crate::lock::LockManager`]:
//!
//! - a version's `begin` is visible when it committed at or before the
//!   snapshot timestamp, or when the reader is the writing transaction
//!   itself (read-your-writes);
//! - the version is in the view when its `begin` is visible and its `end`
//!   is not.
//!
//! [`ReadView::Latest`] bypasses snapshot resolution and sees the current
//! (newest, not-ended) version regardless of stamps. It serves the write
//! paths (a writer holding row locks must see the truth it locked) and
//! `SELECT ... FOR UPDATE` (locking reads want current rows, not history).
//!
//! GC: every snapshot registers its timestamp in a [`SnapshotRegistry`] and
//! holds an RAII [`SnapGuard`]; vacuum reclaims versions whose `end`
//! committed at or before the oldest live snapshot — no live view can ever
//! need them again.

use crate::lock::TxnId;
use parking_lot::Mutex;
use shard_sql::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Commit timestamps are drawn from a per-engine logical clock; 0 means
/// "before any commit".
pub type CommitTs = u64;

/// Who created (or ended) a row version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// Stamped at commit with the transaction's commit timestamp.
    Committed(CommitTs),
    /// Written by a still-active (or prepared, in-doubt) transaction.
    Pending(TxnId),
}

impl Stamp {
    /// Is this stamp's event inside the snapshot `(ts, txn)`?
    fn visible_to(self, ts: CommitTs, txn: Option<TxnId>) -> bool {
        match self {
            Stamp::Committed(c) => c <= ts,
            Stamp::Pending(t) => Some(t) == txn,
        }
    }
}

/// One version of one row.
#[derive(Debug, Clone)]
pub struct RowVersion {
    pub begin: Stamp,
    /// `None` while this is the row's current version; set by the UPDATE
    /// that superseded it or the DELETE that removed it.
    pub end: Option<Stamp>,
    pub data: Vec<Value>,
}

impl RowVersion {
    pub fn new_pending(txn: TxnId, data: Vec<Value>) -> Self {
        RowVersion {
            begin: Stamp::Pending(txn),
            end: None,
            data,
        }
    }

    /// Snapshot visibility rule: begin visible, end not.
    pub fn visible(&self, ts: CommitTs, txn: Option<TxnId>) -> bool {
        if !self.begin.visible_to(ts, txn) {
            return false;
        }
        match self.end {
            None => true,
            Some(end) => !end.visible_to(ts, txn),
        }
    }
}

/// The reader's side of MVCC: how a statement resolves row versions.
#[derive(Clone)]
pub enum ReadView {
    /// Current versions only, stamps ignored (write paths, FOR UPDATE).
    Latest,
    /// Fixed snapshot: everything committed at or before `ts`, plus the
    /// reader's own in-flight writes.
    Snapshot {
        ts: CommitTs,
        txn: Option<TxnId>,
        /// Keeps the snapshot registered (GC-fencing) for the view's
        /// lifetime; `None` for detached views built in tests.
        guard: Option<Arc<SnapGuard>>,
    },
}

impl ReadView {
    pub fn latest() -> Self {
        ReadView::Latest
    }

    pub fn snapshot(ts: CommitTs, txn: Option<TxnId>, guard: Option<Arc<SnapGuard>>) -> Self {
        ReadView::Snapshot { ts, txn, guard }
    }

    pub fn is_snapshot(&self) -> bool {
        matches!(self, ReadView::Snapshot { .. })
    }

    /// Resolve a version chain (oldest → newest) against this view.
    pub fn resolve<'a>(&self, chain: &'a [RowVersion]) -> Option<&'a Vec<Value>> {
        match self {
            ReadView::Latest => chain.last().filter(|v| v.end.is_none()).map(|v| &v.data),
            ReadView::Snapshot { ts, txn, .. } => chain
                .iter()
                .rev()
                .find(|v| v.visible(*ts, *txn))
                .map(|v| &v.data),
        }
    }
}

/// Registered live snapshots, keyed by timestamp with a refcount (many
/// concurrent statements may share one clock value).
#[derive(Default)]
pub struct SnapshotRegistry {
    live: Arc<Mutex<BTreeMap<CommitTs, usize>>>,
}

/// RAII registration of one live snapshot; dropping it deregisters.
pub struct SnapGuard {
    ts: CommitTs,
    live: Arc<Mutex<BTreeMap<CommitTs, usize>>>,
}

impl Drop for SnapGuard {
    fn drop(&mut self) {
        let mut live = self.live.lock();
        if let Some(n) = live.get_mut(&self.ts) {
            *n -= 1;
            if *n == 0 {
                live.remove(&self.ts);
            }
        }
    }
}

impl SnapshotRegistry {
    /// Read the commit clock and register the snapshot under one registry
    /// lock, so vacuum (which reads the oldest entry under the same lock)
    /// can never reclaim versions between a reader's clock load and its
    /// registration.
    pub fn acquire(&self, clock: &AtomicU64) -> (CommitTs, Arc<SnapGuard>) {
        let mut live = self.live.lock();
        let ts = clock.load(Ordering::Acquire);
        *live.entry(ts).or_insert(0) += 1;
        drop(live);
        (
            ts,
            Arc::new(SnapGuard {
                ts,
                live: Arc::clone(&self.live),
            }),
        )
    }

    /// The GC horizon: versions whose `end` committed at or before this are
    /// invisible to every live and every future snapshot.
    pub fn oldest_live(&self, clock: &AtomicU64) -> CommitTs {
        let live = self.live.lock();
        live.keys()
            .next()
            .copied()
            .unwrap_or_else(|| clock.load(Ordering::Acquire))
    }

    /// Number of currently registered snapshots (diagnostics / tests).
    pub fn live_count(&self) -> usize {
        self.live.lock().values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(begin: Stamp, end: Option<Stamp>) -> RowVersion {
        RowVersion {
            begin,
            end,
            data: vec![Value::Int(1)],
        }
    }

    #[test]
    fn committed_version_visible_at_or_after_its_ts() {
        let ver = v(Stamp::Committed(5), None);
        assert!(!ver.visible(4, None));
        assert!(ver.visible(5, None));
        assert!(ver.visible(9, None));
    }

    #[test]
    fn pending_version_visible_only_to_its_writer() {
        let ver = v(Stamp::Pending(7), None);
        assert!(!ver.visible(100, None));
        assert!(!ver.visible(100, Some(8)));
        assert!(ver.visible(0, Some(7)));
    }

    #[test]
    fn ended_version_hidden_once_end_is_in_view() {
        let ver = v(Stamp::Committed(2), Some(Stamp::Committed(6)));
        assert!(ver.visible(5, None)); // delete not yet in view
        assert!(!ver.visible(6, None)); // delete committed within view
    }

    #[test]
    fn own_delete_hides_row_from_its_writer() {
        let ver = v(Stamp::Committed(2), Some(Stamp::Pending(3)));
        assert!(ver.visible(5, None)); // others still see it
        assert!(!ver.visible(5, Some(3))); // the deleter does not
    }

    #[test]
    fn resolve_picks_newest_visible_version() {
        let chain = vec![
            v(Stamp::Committed(1), Some(Stamp::Committed(4))),
            v(Stamp::Committed(4), None),
        ];
        let old = ReadView::snapshot(2, None, None);
        let new = ReadView::snapshot(4, None, None);
        assert_eq!(old.resolve(&chain).unwrap()[0], Value::Int(1));
        assert!(new.resolve(&chain).is_some());
        assert!(ReadView::latest().resolve(&chain).is_some());
    }

    #[test]
    fn latest_ignores_stamps_but_respects_end() {
        let deleted = vec![v(Stamp::Committed(1), Some(Stamp::Pending(9)))];
        assert!(ReadView::latest().resolve(&deleted).is_none());
        let pending = vec![v(Stamp::Pending(9), None)];
        assert!(ReadView::latest().resolve(&pending).is_some());
    }

    #[test]
    fn registry_tracks_oldest_live_snapshot() {
        let reg = SnapshotRegistry::default();
        let clock = AtomicU64::new(10);
        assert_eq!(reg.oldest_live(&clock), 10);
        let (ts_a, guard_a) = reg.acquire(&clock);
        assert_eq!(ts_a, 10);
        clock.store(15, Ordering::Release);
        let (ts_b, guard_b) = reg.acquire(&clock);
        assert_eq!(ts_b, 15);
        assert_eq!(reg.oldest_live(&clock), 10);
        drop(guard_a);
        assert_eq!(reg.oldest_live(&clock), 15);
        drop(guard_b);
        assert_eq!(reg.oldest_live(&clock), 15);
        assert_eq!(reg.live_count(), 0);
    }
}
