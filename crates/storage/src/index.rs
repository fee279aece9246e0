//! B-tree indexes over table rows.
//!
//! An index maps a composite key (one `Value` per indexed column) to the set
//! of row ids holding that key. Unique indexes (the primary key, UNIQUE
//! indexes) reject duplicate keys at insert time.
//!
//! Layout: a one-column key and a one-id entry — every entry of a primary
//! key on one column — live inside the tree node, so a descent compares
//! values it already has in cache instead of following a heap pointer per
//! comparison, and a range scan reads its ids from the nodes it walks.
//! Every question is asked through a borrowed `[Value]`; only an insert
//! takes ownership of a key.

use crate::error::{Result, StorageError};
use shard_sql::Value;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

pub type RowId = u64;

/// An index key. Its order is the slice's — lexicographic by
/// [`Value::total_cmp`], exactly `Vec<Value>`'s — whichever way it is stored.
#[derive(Debug, Clone)]
enum Key {
    One(Value),
    Many(Vec<Value>),
}

impl From<Vec<Value>> for Key {
    fn from(mut key: Vec<Value>) -> Key {
        if key.len() == 1 {
            Key::One(key.pop().expect("one value"))
        } else {
            Key::Many(key)
        }
    }
}

impl Key {
    fn as_slice(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

/// The row ids under one key, in insertion order; never empty.
#[derive(Debug, Clone)]
enum Ids {
    One(RowId),
    Many(Vec<RowId>),
}

impl Ids {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: RowId) {
        match self {
            Ids::One(first) => *self = Ids::Many(vec![*first, id]),
            Ids::Many(ids) => ids.push(id),
        }
    }

    /// Drop `id`; true when that leaves nothing.
    fn remove(&mut self, id: RowId) -> bool {
        match self {
            Ids::One(only) => *only == id,
            Ids::Many(ids) => {
                ids.retain(|x| *x != id);
                ids.is_empty()
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Column positions (into the table schema) covered by this index.
    pub columns: Vec<usize>,
    pub unique: bool,
    entries: BTreeMap<Key, Ids>,
}

impl Index {
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Self {
        Index {
            name: name.into(),
            columns,
            unique,
            entries: BTreeMap::new(),
        }
    }

    /// Extract this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|&i| row[i].clone()).collect()
    }

    pub fn insert(&mut self, table: &str, key: Vec<Value>, row_id: RowId) -> Result<()> {
        if self.unique && self.contains(&key) {
            return Err(StorageError::DuplicateKey {
                table: table.to_string(),
                key: format!("{key:?}"),
            });
        }
        self.insert_entry(key, row_id);
        Ok(())
    }

    /// Insert an entry without the unique-duplicate check. Under MVCC a
    /// unique slot may legitimately hold the id of a deleted-but-not-yet-
    /// vacuumed row that old snapshots still reach, so the table layer
    /// validates uniqueness against *live* versions before calling this.
    pub(crate) fn insert_entry(&mut self, key: Vec<Value>, row_id: RowId) {
        match self.entries.entry(key.into()) {
            Entry::Occupied(ids) => ids.into_mut().push(row_id),
            Entry::Vacant(slot) => {
                slot.insert(Ids::One(row_id));
            }
        }
    }

    pub fn remove(&mut self, key: &[Value], row_id: RowId) {
        if self
            .entries
            .get_mut(key)
            .is_some_and(|ids| ids.remove(row_id))
        {
            self.entries.remove(key);
        }
    }

    /// Row ids for an exact key.
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.entries.get(key).map_or(&[], Ids::as_slice)
    }

    /// True if the exact key exists.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.entries.contains_key(key)
    }

    /// Row ids for a range over the *first* index column (single-column range
    /// scans; composite prefixes fall back to full scans in the executor).
    pub fn range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        // Seek to the first candidate key — the bound as a one-column prefix
        // sorts before every key that extends it; exact low-bound filtering
        // happens below (composite keys share a first-column prefix).
        let lo: Bound<&[Value]> = match low {
            Bound::Included(v) | Bound::Excluded(v) => Bound::Included(std::slice::from_ref(v)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (key, ids) in self.entries.range::<[Value], _>((lo, Bound::Unbounded)) {
            let first = &key.as_slice()[0];
            match high {
                Bound::Included(h) => {
                    if first.total_cmp(h) == Ordering::Greater {
                        break;
                    }
                }
                Bound::Excluded(h) => {
                    if first.total_cmp(h) != Ordering::Less {
                        break;
                    }
                }
                Bound::Unbounded => {}
            }
            // For Excluded low bound the hack above can over-include keys with
            // composite suffixes; filter exactly.
            if let Bound::Excluded(l) = low {
                if first.total_cmp(l) != Ordering::Greater {
                    continue;
                }
            }
            out.extend_from_slice(ids.as_slice());
        }
        out
    }

    /// All row ids in key order (used for index-ordered scans).
    pub fn scan(&self) -> impl Iterator<Item = RowId> + '_ {
        self.entries.values().flat_map(Ids::as_slice).copied()
    }

    /// All row ids in reverse key order (index-ordered DESC scans).
    pub fn scan_rev(&self) -> impl Iterator<Item = RowId> + '_ {
        self.entries.values().rev().flat_map(Ids::as_slice).copied()
    }

    pub fn len(&self) -> usize {
        self.entries.values().map(|ids| ids.as_slice().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    #[test]
    fn unique_rejects_duplicates() {
        let mut idx = Index::new("pk", vec![0], true);
        idx.insert("t", key(1), 100).unwrap();
        let err = idx.insert("t", key(1), 101).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(idx.lookup(&key(1)), vec![100]);
    }

    #[test]
    fn non_unique_accumulates() {
        let mut idx = Index::new("i", vec![1], false);
        idx.insert("t", key(5), 1).unwrap();
        idx.insert("t", key(5), 2).unwrap();
        assert_eq!(idx.lookup(&key(5)), vec![1, 2]);
    }

    #[test]
    fn remove_cleans_empty_slots() {
        let mut idx = Index::new("i", vec![0], false);
        idx.insert("t", key(5), 1).unwrap();
        idx.remove(&key(5), 1);
        assert!(idx.is_empty());
        assert!(!idx.contains(&key(5)));
    }

    #[test]
    fn range_inclusive() {
        let mut idx = Index::new("i", vec![0], true);
        for i in 0..10 {
            idx.insert("t", key(i), i as RowId).unwrap();
        }
        let got = idx.range(
            Bound::Included(&Value::Int(3)),
            Bound::Included(&Value::Int(6)),
        );
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn range_exclusive_bounds() {
        let mut idx = Index::new("i", vec![0], true);
        for i in 0..10 {
            idx.insert("t", key(i), i as RowId).unwrap();
        }
        let got = idx.range(
            Bound::Excluded(&Value::Int(3)),
            Bound::Excluded(&Value::Int(6)),
        );
        assert_eq!(got, vec![4, 5]);
    }

    #[test]
    fn range_unbounded() {
        let mut idx = Index::new("i", vec![0], true);
        for i in 0..5 {
            idx.insert("t", key(i), i as RowId).unwrap();
        }
        let got = idx.range(Bound::Unbounded, Bound::Excluded(&Value::Int(2)));
        assert_eq!(got, vec![0, 1]);
        let got = idx.range(Bound::Included(&Value::Int(3)), Bound::Unbounded);
        assert_eq!(got, vec![3, 4]);
    }

    #[test]
    fn scan_is_key_ordered() {
        let mut idx = Index::new("i", vec![0], true);
        for i in [5i64, 1, 3, 2, 4] {
            idx.insert("t", key(i), i as RowId).unwrap();
        }
        let got: Vec<_> = idx.scan().collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }
}
