//! Physical table: multi-version row store plus primary and secondary
//! B-tree indexes.
//!
//! Each row id maps to a version chain (oldest → newest, see
//! [`crate::mvcc`]). Write operations append pending versions stamped with
//! the writing transaction; readers resolve a chain against a [`ReadView`].
//! Index entries follow one invariant: **every chain has exactly one entry
//! per index, keyed by its newest version's key** — deletes keep the entry
//! (old snapshots still reach the row through it) until vacuum or rollback
//! removes the chain. Uniqueness is therefore checked against *live*
//! versions ([`Table::key_live`]), not against raw index occupancy.

use crate::error::{Result, StorageError};
use crate::index::{Index, RowId};
use crate::lock::TxnId;
use crate::mvcc::{CommitTs, ReadView, RowVersion, Stamp};
use crate::schema::TableSchema;
use shard_sql::Value;
use std::collections::{btree_map, BTreeMap, BTreeSet};

pub struct Table {
    pub schema: TableSchema,
    rows: BTreeMap<RowId, Vec<RowVersion>>,
    next_row_id: RowId,
    /// Primary-key index (always present; synthesized on the row id when the
    /// schema declares no primary key).
    primary: Option<Index>,
    secondary: Vec<Index>,
    next_auto_increment: i64,
    /// Rows whose newest version is current (`end == None`); kept
    /// incrementally so `len()` stays O(1).
    live_rows: usize,
    /// Total stored versions across all chains (the `mvcc_versions_live`
    /// gauge).
    versions: usize,
    /// Chains holding at least one committed-dead version (a superseded
    /// update image or a committed delete). Vacuum visits only these, so
    /// its write-lock hold time scales with garbage produced, not table
    /// size — a full-table sweep under load would stall readers for the
    /// whole scan.
    gc_candidates: BTreeSet<RowId>,
}

/// How many ids ahead of the row-tree cursor [`Table::fetch_rows`] still
/// walks to instead of seeking. One step of a `BTreeMap` range is 2.4 ns and
/// one seek into a 12 500-chain shard is 73 ns (both cache-resident; a scratch
/// probe, EXPERIMENTS.md "Ledger — PR 22"), so walking over about thirty
/// chains costs what the seek would. Ids are never reused and only ever
/// vacuumed away, so the id distance bounds the chains in between from above.
const STEP_GAP: RowId = 32;

/// The chain's current version: newest, and not ended.
fn current_of(chain: &[RowVersion]) -> Option<&RowVersion> {
    chain.last().filter(|v| v.end.is_none())
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        let primary = if schema.primary_key.is_empty() {
            None
        } else {
            Some(Index::new("PRIMARY", schema.primary_key.clone(), true))
        };
        Table {
            schema,
            rows: BTreeMap::new(),
            next_row_id: 1,
            primary,
            secondary: Vec::new(),
            next_auto_increment: 1,
            live_rows: 0,
            versions: 0,
            gc_candidates: BTreeSet::new(),
        }
    }

    /// Number of live (current-version) rows.
    pub fn len(&self) -> usize {
        self.live_rows
    }

    pub fn is_empty(&self) -> bool {
        self.live_rows == 0
    }

    /// Total stored versions, live and superseded.
    pub fn version_count(&self) -> usize {
        self.versions
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// True when some row id under this key has a current version — the
    /// uniqueness predicate under MVCC. Index entries always carry the
    /// chain's newest key, so an entry whose chain is current is an exact
    /// live-key witness.
    fn key_live(&self, idx: &Index, key: &[Value]) -> bool {
        idx.lookup(key)
            .iter()
            .any(|id| self.rows.get(id).and_then(|c| current_of(c)).is_some())
    }

    // -- index management ----------------------------------------------------

    pub fn create_index(&mut self, name: &str, columns: &[String], unique: bool) -> Result<()> {
        if self
            .secondary
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
        {
            return Err(StorageError::IndexAlreadyExists(name.to_string()));
        }
        let mut positions = Vec::with_capacity(columns.len());
        for c in columns {
            positions.push(
                self.schema
                    .column_index(c)
                    .ok_or_else(|| StorageError::ColumnNotFound(c.clone()))?,
            );
        }
        let mut idx = Index::new(name, positions, unique);
        // Backfill one entry per chain (newest version's key); uniqueness is
        // enforced among live rows only.
        let mut live_keys: BTreeSet<Vec<Value>> = BTreeSet::new();
        for (row_id, chain) in &self.rows {
            let Some(newest) = chain.last() else { continue };
            let key = idx.key_of(&newest.data);
            if unique && current_of(chain).is_some() && !live_keys.insert(key.clone()) {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: format!("{key:?}"),
                });
            }
            idx.insert_entry(key, *row_id);
        }
        self.secondary.push(idx);
        Ok(())
    }

    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let before = self.secondary.len();
        self.secondary
            .retain(|i| !i.name.eq_ignore_ascii_case(name));
        if self.secondary.len() == before {
            return Err(StorageError::IndexNotFound(name.to_string()));
        }
        Ok(())
    }

    /// The index (primary or secondary) whose first column is `column`, if
    /// any.
    pub fn index_on(&self, column: &str) -> Option<&Index> {
        self.index_at(self.schema.column_index(column)?)
    }

    /// The index (primary first) whose first column is the one at schema
    /// position `col` — the executor's access-path selection hook.
    pub fn index_at(&self, col: usize) -> Option<&Index> {
        self.primary
            .iter()
            .chain(&self.secondary)
            .find(|i| i.columns.first() == Some(&col))
    }

    pub fn primary_index(&self) -> Option<&Index> {
        self.primary.as_ref()
    }

    // -- row operations -------------------------------------------------------

    /// Insert a validated row as a pending version of `txn`; fills
    /// auto-increment columns when NULL. Returns the new row id and the
    /// stored row.
    pub fn insert(&mut self, row: Vec<Value>, txn: TxnId) -> Result<(RowId, Vec<Value>)> {
        let mut row = self.schema.admit_row(row)?;
        for (i, col) in self.schema.columns().iter().enumerate() {
            if col.auto_increment && row[i].is_null() {
                row[i] = Value::Int(self.next_auto_increment);
                self.next_auto_increment += 1;
            } else if col.auto_increment {
                if let Some(v) = row[i].as_int() {
                    self.next_auto_increment = self.next_auto_increment.max(v + 1);
                }
            }
        }
        let row_id = self.next_row_id;
        // Validate uniqueness (against live versions) before mutating any
        // index so a failed insert leaves the table untouched.
        if let Some(pk) = &self.primary {
            let key = pk.key_of(&row);
            if self.key_live(pk, &key) {
                return Err(StorageError::DuplicateKey {
                    table: self.name().to_string(),
                    key: format!("{key:?}"),
                });
            }
        }
        for idx in &self.secondary {
            if idx.unique {
                let key = idx.key_of(&row);
                if self.key_live(idx, &key) {
                    return Err(StorageError::DuplicateKey {
                        table: self.name().to_string(),
                        key: format!("{key:?}"),
                    });
                }
            }
        }
        if let Some(pk) = &mut self.primary {
            let key = pk.key_of(&row);
            pk.insert_entry(key, row_id);
        }
        for idx in &mut self.secondary {
            let key = idx.key_of(&row);
            idx.insert_entry(key, row_id);
        }
        self.rows
            .insert(row_id, vec![RowVersion::new_pending(txn, row.clone())]);
        self.next_row_id += 1;
        self.live_rows += 1;
        self.versions += 1;
        Ok((row_id, row))
    }

    /// Insert a batch of validated rows in one pass: all rows are admitted
    /// and checked for uniqueness (against live versions *and* against each
    /// other) before any index is mutated, so a failed batch leaves the
    /// table untouched. Returns `(row_id, stored_row)` per input row in
    /// order. This is the batched-INSERT write path: one schema pass, one
    /// index walk per row, no per-row re-entry through the engine.
    pub fn insert_many(
        &mut self,
        rows: Vec<Vec<Value>>,
        txn: TxnId,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        // Phase 1: admit, fill auto-increment, validate uniqueness.
        let mut admitted = Vec::with_capacity(rows.len());
        let mut batch_pk: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut batch_unique: Vec<BTreeSet<Vec<Value>>> =
            self.secondary.iter().map(|_| BTreeSet::new()).collect();
        for row in rows {
            let mut row = self.schema.admit_row(row)?;
            for (i, col) in self.schema.columns().iter().enumerate() {
                if col.auto_increment && row[i].is_null() {
                    row[i] = Value::Int(self.next_auto_increment);
                    self.next_auto_increment += 1;
                } else if col.auto_increment {
                    if let Some(v) = row[i].as_int() {
                        self.next_auto_increment = self.next_auto_increment.max(v + 1);
                    }
                }
            }
            if let Some(pk) = &self.primary {
                let key = pk.key_of(&row);
                if self.key_live(pk, &key) || !batch_pk.insert(key.clone()) {
                    return Err(StorageError::DuplicateKey {
                        table: self.name().to_string(),
                        key: format!("{key:?}"),
                    });
                }
            }
            for (idx, seen) in self.secondary.iter().zip(batch_unique.iter_mut()) {
                if idx.unique {
                    let key = idx.key_of(&row);
                    if self.key_live(idx, &key) || !seen.insert(key.clone()) {
                        return Err(StorageError::DuplicateKey {
                            table: self.name().to_string(),
                            key: format!("{key:?}"),
                        });
                    }
                }
            }
            admitted.push(row);
        }
        // Phase 2: apply — nothing below can fail on a validated batch.
        let mut out = Vec::with_capacity(admitted.len());
        for row in admitted {
            let row_id = self.next_row_id;
            if let Some(pk) = &mut self.primary {
                let key = pk.key_of(&row);
                pk.insert_entry(key, row_id);
            }
            for idx in &mut self.secondary {
                let key = idx.key_of(&row);
                idx.insert_entry(key, row_id);
            }
            self.rows
                .insert(row_id, vec![RowVersion::new_pending(txn, row.clone())]);
            self.next_row_id += 1;
            self.live_rows += 1;
            self.versions += 1;
            out.push((row_id, row));
        }
        Ok(out)
    }

    /// Recovery replay of a logged INSERT: recreate the chain under its
    /// original id as a pending version of `txn` (stamped afterwards if the
    /// transaction committed). Skips uniqueness validation — the log records
    /// operations that already passed it.
    pub fn replay_insert(&mut self, row_id: RowId, row: Vec<Value>, txn: TxnId) {
        if let Some(pk) = &mut self.primary {
            let key = pk.key_of(&row);
            pk.insert_entry(key, row_id);
        }
        for idx in &mut self.secondary {
            let key = idx.key_of(&row);
            idx.insert_entry(key, row_id);
        }
        self.rows
            .insert(row_id, vec![RowVersion::new_pending(txn, row)]);
        self.next_row_id = self.next_row_id.max(row_id + 1);
        self.live_rows += 1;
        self.versions += 1;
    }

    /// The row's current version (newest, not ended) — stamp-blind, i.e. a
    /// writer's view. Snapshot readers go through [`Table::get_visible`].
    pub fn get(&self, row_id: RowId) -> Option<&Vec<Value>> {
        self.rows
            .get(&row_id)
            .and_then(|c| current_of(c))
            .map(|v| &v.data)
    }

    /// Resolve a row against a read view.
    pub fn get_visible(&self, row_id: RowId, view: &ReadView) -> Option<&Vec<Value>> {
        self.rows.get(&row_id).and_then(|c| view.resolve(c))
    }

    /// Supersede the current version with a new pending one, maintaining all
    /// indexes. Returns the before image.
    pub fn update(&mut self, row_id: RowId, new_row: Vec<Value>, txn: TxnId) -> Result<Vec<Value>> {
        self.apply_update(row_id, new_row, txn, true)
    }

    /// Recovery replay of a logged UPDATE: same as [`Table::update`] minus
    /// uniqueness validation (aborted transactions are not replayed, so the
    /// replayed state can differ from the original dirty state the check ran
    /// against).
    pub fn replay_update(&mut self, row_id: RowId, new_row: Vec<Value>, txn: TxnId) -> Result<()> {
        self.apply_update(row_id, new_row, txn, false).map(|_| ())
    }

    fn apply_update(
        &mut self,
        row_id: RowId,
        new_row: Vec<Value>,
        txn: TxnId,
        validate: bool,
    ) -> Result<Vec<Value>> {
        let new_row = self.schema.admit_row(new_row)?;
        let old_row = self
            .get(row_id)
            .cloned()
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} vanished")))?;
        // Check PK uniqueness (against live versions) if the key changed.
        if validate {
            if let Some(pk) = &self.primary {
                let old_key = pk.key_of(&old_row);
                let new_key = pk.key_of(&new_row);
                if old_key != new_key && self.key_live(pk, &new_key) {
                    return Err(StorageError::DuplicateKey {
                        table: self.name().to_string(),
                        key: format!("{new_key:?}"),
                    });
                }
            }
        }
        // Re-key the chain's single entry per index. Old snapshots lose
        // index-assisted reach to the pre-update key (full scans stay
        // correct) — see DESIGN.md §12 for this documented anomaly.
        if let Some(pk) = &mut self.primary {
            let old_key = pk.key_of(&old_row);
            let new_key = pk.key_of(&new_row);
            if old_key != new_key {
                pk.remove(&old_key, row_id);
                pk.insert_entry(new_key, row_id);
            }
        }
        for idx in &mut self.secondary {
            let old_key = idx.key_of(&old_row);
            let new_key = idx.key_of(&new_row);
            if old_key != new_key {
                idx.remove(&old_key, row_id);
                idx.insert_entry(new_key, row_id);
            }
        }
        let chain = self.rows.get_mut(&row_id).expect("checked above");
        chain.last_mut().expect("current version").end = Some(Stamp::Pending(txn));
        chain.push(RowVersion::new_pending(txn, new_row));
        self.versions += 1;
        Ok(old_row)
    }

    /// End the row's current version with a pending delete stamp, returning
    /// its image. Index entries are kept (old snapshots still reach the row)
    /// until vacuum drops the chain.
    pub fn delete(&mut self, row_id: RowId, txn: TxnId) -> Result<Vec<Value>> {
        let chain = self
            .rows
            .get_mut(&row_id)
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} vanished")))?;
        let cur = chain
            .last_mut()
            .filter(|v| v.end.is_none())
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} vanished")))?;
        cur.end = Some(Stamp::Pending(txn));
        let before = cur.data.clone();
        self.live_rows -= 1;
        Ok(before)
    }

    // -- rollback (structural undo of pending versions) -----------------------

    /// Undo a pending INSERT: drop the version it created; when the chain
    /// empties (the normal case — inserts always open fresh chains), remove
    /// the chain and its index entries.
    pub fn abort_insert(&mut self, row_id: RowId) {
        let Some(chain) = self.rows.get_mut(&row_id) else {
            return;
        };
        let Some(popped) = chain.pop() else { return };
        self.versions -= 1;
        self.live_rows -= 1;
        if chain.is_empty() {
            self.rows.remove(&row_id);
            if let Some(pk) = &mut self.primary {
                let key = pk.key_of(&popped.data);
                pk.remove(&key, row_id);
            }
            for idx in &mut self.secondary {
                let key = idx.key_of(&popped.data);
                idx.remove(&key, row_id);
            }
        }
    }

    /// Undo a pending UPDATE: pop the new version, clear the predecessor's
    /// pending end stamp, and restore the index entries to the old key.
    pub fn abort_update(&mut self, row_id: RowId, txn: TxnId) -> Result<()> {
        let chain = self
            .rows
            .get_mut(&row_id)
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} vanished")))?;
        let popped = chain
            .pop()
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} has no versions")))?;
        let prev = chain
            .last_mut()
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} has no predecessor")))?;
        debug_assert_eq!(prev.end, Some(Stamp::Pending(txn)));
        let _ = txn;
        prev.end = None;
        let prev_data = prev.data.clone();
        self.versions -= 1;
        if let Some(pk) = &mut self.primary {
            let new_key = pk.key_of(&popped.data);
            let old_key = pk.key_of(&prev_data);
            if new_key != old_key {
                pk.remove(&new_key, row_id);
                pk.insert_entry(old_key, row_id);
            }
        }
        for idx in &mut self.secondary {
            let new_key = idx.key_of(&popped.data);
            let old_key = idx.key_of(&prev_data);
            if new_key != old_key {
                idx.remove(&new_key, row_id);
                idx.insert_entry(old_key, row_id);
            }
        }
        Ok(())
    }

    /// Undo a pending DELETE: clear the current version's pending end stamp.
    pub fn abort_delete(&mut self, row_id: RowId, txn: TxnId) -> Result<()> {
        let chain = self
            .rows
            .get_mut(&row_id)
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} vanished")))?;
        let cur = chain
            .last_mut()
            .ok_or_else(|| StorageError::Execution(format!("row {row_id} has no versions")))?;
        debug_assert_eq!(cur.end, Some(Stamp::Pending(txn)));
        let _ = txn;
        cur.end = None;
        self.live_rows += 1;
        Ok(())
    }

    // -- commit stamping and GC ------------------------------------------------

    /// Convert every stamp `txn` left on this chain to the commit timestamp.
    pub fn stamp_commit(&mut self, row_id: RowId, txn: TxnId, ts: CommitTs) {
        if let Some(chain) = self.rows.get_mut(&row_id) {
            let mut has_dead = false;
            for v in chain {
                if v.begin == Stamp::Pending(txn) {
                    v.begin = Stamp::Committed(ts);
                }
                if v.end == Some(Stamp::Pending(txn)) {
                    v.end = Some(Stamp::Committed(ts));
                }
                has_dead |= matches!(v.end, Some(Stamp::Committed(_)));
            }
            if has_dead {
                self.gc_candidates.insert(row_id);
            }
        }
    }

    /// Reclaim versions whose end committed at or before `oldest` (the
    /// oldest live snapshot): no current or future view can see them. Chains
    /// that empty out are removed along with their index entries. Returns
    /// the number of versions reclaimed.
    pub fn vacuum(&mut self, oldest: CommitTs) -> u64 {
        let mut reclaimed = 0u64;
        let mut dead: Vec<(RowId, Vec<Value>)> = Vec::new();
        let mut still_dirty = BTreeSet::new();
        for row_id in std::mem::take(&mut self.gc_candidates) {
            let Some(chain) = self.rows.get_mut(&row_id) else {
                continue;
            };
            let before = chain.len();
            let last_data = chain.last().map(|v| v.data.clone());
            chain.retain(|v| !matches!(v.end, Some(Stamp::Committed(e)) if e <= oldest));
            reclaimed += (before - chain.len()) as u64;
            if chain.is_empty() {
                dead.push((row_id, last_data.expect("non-empty before retain")));
            } else if chain
                .iter()
                .any(|v| matches!(v.end, Some(Stamp::Committed(_))))
            {
                // Pinned by a live snapshot: revisit on the next pass.
                still_dirty.insert(row_id);
            }
        }
        self.gc_candidates.append(&mut still_dirty);
        for (row_id, data) in dead {
            self.rows.remove(&row_id);
            if let Some(pk) = &mut self.primary {
                let key = pk.key_of(&data);
                pk.remove(&key, row_id);
            }
            for idx in &mut self.secondary {
                let key = idx.key_of(&data);
                idx.remove(&key, row_id);
            }
        }
        self.versions -= reclaimed as usize;
        reclaimed
    }

    pub fn truncate(&mut self) -> u64 {
        let n = self.live_rows as u64;
        self.rows.clear();
        self.live_rows = 0;
        self.versions = 0;
        self.gc_candidates.clear();
        if let Some(pk) = &mut self.primary {
            pk.clear();
        }
        for idx in &mut self.secondary {
            idx.clear();
        }
        n
    }

    /// Full scan of current versions in row-id (insertion) order —
    /// stamp-blind, the writer's view.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows
            .iter()
            .filter_map(|(id, chain)| current_of(chain).map(|v| (*id, &v.data)))
    }

    /// Full scan resolved against a read view.
    pub fn scan_visible<'a>(
        &'a self,
        view: &'a ReadView,
    ) -> impl Iterator<Item = (RowId, &'a Vec<Value>)> + 'a {
        self.rows
            .iter()
            .filter_map(move |(id, chain)| view.resolve(chain).map(|data| (*id, data)))
    }

    /// Every chain id, live or not — cursor id snapshots must include rows
    /// deleted after the snapshot timestamp, since those stay visible to the
    /// snapshot; visibility filters at fetch time.
    pub fn all_ids(&self) -> impl Iterator<Item = RowId> + '_ {
        self.rows.keys().copied()
    }

    /// Visit the view-resolved rows for a batch of ids in the given order,
    /// skipping ids invisible to the view, and return how many chains the
    /// row-tree cursor visited on the way. For each wanted id the cursor
    /// *steps* when it stands at most [`STEP_GAP`] ids below it and
    /// *re-seeks* otherwise: a dense snapshot (a full scan, a forward index
    /// scan over rows nobody moved) is one walk, a sparse or unordered one
    /// is a probe per id, and a dense run that ends in a relocated row — a
    /// `DELETE` + `INSERT` gives the row a fresh id at the end of the table
    /// — is the run plus one probe, not a walk over everything between.
    pub fn fetch_rows(&self, ids: &[RowId], view: &ReadView, mut f: impl FnMut(&[Value])) -> u64 {
        let mut visited = 0;
        let mut cursor = btree_map::Range::default().peekable();
        for &want in ids {
            let near = cursor
                .peek()
                .is_some_and(|(&at, _)| at <= want && want - at <= STEP_GAP);
            if !near {
                cursor = self.rows.range(want..).peekable();
            }
            // A chain past `want` is left where it stands: `want`'s own may
            // be gone (vacuumed since the snapshot), and the next wanted id
            // may be that very chain.
            while let Some((&at, chain)) = cursor.next_if(|(&at, _)| at <= want) {
                visited += 1;
                if at == want {
                    if let Some(row) = view.resolve(chain) {
                        f(row);
                    }
                    break;
                }
            }
        }
        visited
    }

    /// Point lookup via the primary index. May return ids of deleted-but-
    /// unvacuumed rows; callers resolve through a view.
    pub fn lookup_pk(&self, key: &[Value]) -> &[RowId] {
        self.primary.as_ref().map_or(&[], |pk| pk.lookup(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shard_sql::ast::{ColumnDef, DataType};
    use std::ops::Bound;

    /// Writer txn id used where the test doesn't care about stamping.
    const TXN: TxnId = 1;

    fn table() -> Table {
        let schema = TableSchema::new(
            "t_user",
            vec![
                ColumnDef::new("uid", DataType::BigInt).not_null(),
                ColumnDef::new("name", DataType::Varchar(32)),
                ColumnDef::new("age", DataType::Int),
            ],
            &["uid".to_string()],
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(uid: i64, name: &str, age: i64) -> Vec<Value> {
        vec![Value::Int(uid), Value::Str(name.into()), Value::Int(age)]
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = table();
        t.insert(row(1, "ann", 30), TXN).unwrap();
        t.insert(row(2, "bob", 25), TXN).unwrap();
        let ids = t.lookup_pk(&[Value::Int(2)]);
        assert_eq!(ids.len(), 1);
        assert_eq!(t.get(ids[0]).unwrap()[1], Value::Str("bob".into()));
    }

    #[test]
    fn duplicate_pk_rejected_without_side_effects() {
        let mut t = table();
        t.insert(row(1, "ann", 30), TXN).unwrap();
        assert!(t.insert(row(1, "dup", 0), TXN).is_err());
        assert_eq!(t.len(), 1);
        assert_eq!(t.primary_index().unwrap().len(), 1);
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), TXN).unwrap();
        t.update(rid, row(9, "ann", 31), TXN).unwrap();
        assert!(t.lookup_pk(&[Value::Int(1)]).is_empty());
        assert_eq!(t.lookup_pk(&[Value::Int(9)]), vec![rid]);
    }

    #[test]
    fn update_to_existing_pk_rejected() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), TXN).unwrap();
        t.insert(row(2, "bob", 25), TXN).unwrap();
        assert!(t.update(rid, row(2, "ann", 30), TXN).is_err());
        // original row unchanged
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn delete_hides_row_but_keeps_entry_until_vacuum() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), 1).unwrap();
        t.stamp_commit(rid, 1, 1);
        let before = t.delete(rid, 2).unwrap();
        assert_eq!(before[1], Value::Str("ann".into()));
        assert!(t.get(rid).is_none());
        assert!(t.is_empty());
        // The index entry stays so old snapshots still reach the row...
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), vec![rid]);
        let old = ReadView::snapshot(1, None, None);
        assert!(t.get_visible(rid, &old).is_some());
        // ...until the delete commits and vacuum passes the horizon.
        t.stamp_commit(rid, 2, 2);
        assert_eq!(t.vacuum(2), 1);
        assert!(t.lookup_pk(&[Value::Int(1)]).is_empty());
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn snapshot_sees_old_version_after_update() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), 1).unwrap();
        t.stamp_commit(rid, 1, 1);
        t.update(rid, row(1, "ann", 31), 2).unwrap();
        t.stamp_commit(rid, 2, 2);
        let old = ReadView::snapshot(1, None, None);
        let new = ReadView::snapshot(2, None, None);
        assert_eq!(t.get_visible(rid, &old).unwrap()[2], Value::Int(30));
        assert_eq!(t.get_visible(rid, &new).unwrap()[2], Value::Int(31));
        assert_eq!(t.version_count(), 2);
        // Vacuum at horizon 1 keeps the old version a snapshot may need.
        assert_eq!(t.vacuum(1), 0);
        assert_eq!(t.vacuum(2), 1);
        assert_eq!(t.version_count(), 1);
        assert_eq!(t.get_visible(rid, &new).unwrap()[2], Value::Int(31));
    }

    #[test]
    fn abort_insert_removes_chain_and_entries() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), TXN).unwrap();
        t.abort_insert(rid);
        assert!(t.is_empty());
        assert!(t.lookup_pk(&[Value::Int(1)]).is_empty());
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn abort_update_restores_previous_version_and_keys() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), 1).unwrap();
        t.stamp_commit(rid, 1, 1);
        t.update(rid, row(9, "ann", 31), 2).unwrap();
        t.abort_update(rid, 2).unwrap();
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(1));
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), vec![rid]);
        assert!(t.lookup_pk(&[Value::Int(9)]).is_empty());
        assert_eq!(t.version_count(), 1);
    }

    #[test]
    fn abort_delete_revives_row() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), 1).unwrap();
        t.stamp_commit(rid, 1, 1);
        t.delete(rid, 2).unwrap();
        assert!(t.is_empty());
        t.abort_delete(rid, 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn pending_versions_invisible_to_other_snapshots() {
        let mut t = table();
        let (rid, _) = t.insert(row(1, "ann", 30), 7).unwrap();
        let other = ReadView::snapshot(100, None, None);
        let own = ReadView::snapshot(0, Some(7), None);
        assert!(t.get_visible(rid, &other).is_none());
        assert!(t.get_visible(rid, &own).is_some());
        // Latest (writer / mvcc-off view) sees it regardless.
        assert!(t.get(rid).is_some());
    }

    #[test]
    fn secondary_index_backfills_and_tracks() {
        let mut t = table();
        t.insert(row(1, "ann", 30), TXN).unwrap();
        t.insert(row(2, "bob", 30), TXN).unwrap();
        t.create_index("idx_age", &["age".to_string()], false)
            .unwrap();
        let idx = t.index_on("age").unwrap();
        assert_eq!(idx.lookup(&[Value::Int(30)]).len(), 2);
        t.insert(row(3, "cat", 30), TXN).unwrap();
        assert_eq!(
            t.index_on("age").unwrap().lookup(&[Value::Int(30)]).len(),
            3
        );
    }

    #[test]
    fn auto_increment_fills_nulls() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::BigInt)
                    .not_null()
                    .auto_increment(),
                ColumnDef::new("v", DataType::Int),
            ],
            &["id".to_string()],
        )
        .unwrap();
        let mut t = Table::new(schema);
        let (_, r1) = t.insert(vec![Value::Null, Value::Int(10)], TXN).unwrap();
        let (_, r2) = t.insert(vec![Value::Null, Value::Int(20)], TXN).unwrap();
        assert_eq!(r1[0], Value::Int(1));
        assert_eq!(r2[0], Value::Int(2));
        // Explicit value bumps the counter past it.
        t.insert(vec![Value::Int(100), Value::Int(30)], TXN)
            .unwrap();
        let (_, r4) = t.insert(vec![Value::Null, Value::Int(40)], TXN).unwrap();
        assert_eq!(r4[0], Value::Int(101));
    }

    #[test]
    fn range_on_pk() {
        let mut t = table();
        for i in 0..10 {
            t.insert(row(i, "x", 20), TXN).unwrap();
        }
        let ids = t.index_on("uid").unwrap().range(
            Bound::Included(&Value::Int(3)),
            Bound::Included(&Value::Int(5)),
        );
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn truncate_clears_everything() {
        let mut t = table();
        t.insert(row(1, "a", 1), TXN).unwrap();
        t.insert(row(2, "b", 2), TXN).unwrap();
        assert_eq!(t.truncate(), 2);
        assert!(t.is_empty());
        assert!(t.lookup_pk(&[Value::Int(1)]).is_empty());
        assert_eq!(t.version_count(), 0);
    }

    #[test]
    fn replay_insert_restores_row_under_same_id() {
        let mut t = table();
        let (rid, stored) = t.insert(row(1, "ann", 30), 1).unwrap();
        t.stamp_commit(rid, 1, 1);
        t.delete(rid, 2).unwrap();
        t.stamp_commit(rid, 2, 2);
        t.vacuum(2);
        t.replay_insert(rid, stored, 3);
        t.stamp_commit(rid, 3, 3);
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), vec![rid]);
        assert_eq!(t.get(rid).unwrap()[1], Value::Str("ann".into()));
    }
}
