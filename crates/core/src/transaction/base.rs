//! BASE transactions (paper §IV-B, Fig 5(e)/Fig 6): Seata-style AT mode.
//!
//! Phase 1: every DML statement runs — and **locally commits** — in its own
//! branch transaction, after the kernel captures before-images and registers
//! compensating statements ("undo logs") with the Transaction Coordinator.
//! Phase 2: global COMMIT deletes the undo logs; global ROLLBACK executes
//! the compensations in reverse order, restoring eventual consistency.
//!
//! The extra image-capture query per write is why BASE underperforms XA on
//! the paper's short transactions (Fig 13) while scaling better for long
//! ones (locks are held only statement-long).

use crate::error::{KernelError, Result};
use parking_lot::Mutex;
use shard_sql::ast::*;
use shard_sql::{Statement, Value};
use shard_storage::StorageEngine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One compensating statement, executed on the branch's data source during
/// global rollback.
#[derive(Debug, Clone)]
pub struct Compensation {
    pub stmt: Statement,
    pub params: Vec<Value>,
}

/// Undo log of one branch (one data source's share of a global transaction).
#[derive(Debug, Clone)]
pub struct BranchUndo {
    pub datasource: String,
    pub compensations: Vec<Compensation>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalStatus {
    Active,
    Committed,
    RolledBack,
}

struct GlobalTxn {
    status: GlobalStatus,
    undo: Vec<BranchUndo>,
}

/// The Transaction Coordinator (Seata's TC role): tracks global transaction
/// status and holds branch undo logs.
#[derive(Default)]
pub struct TransactionCoordinator {
    globals: Mutex<HashMap<String, GlobalTxn>>,
    next_xid: AtomicU64,
}

impl TransactionCoordinator {
    pub fn new() -> Self {
        TransactionCoordinator::default()
    }

    /// Begin a global transaction, returning its XID.
    pub fn begin_global(&self) -> String {
        let xid = format!("base-{}", self.next_xid.fetch_add(1, Ordering::SeqCst));
        self.globals.lock().insert(
            xid.clone(),
            GlobalTxn {
                status: GlobalStatus::Active,
                undo: Vec::new(),
            },
        );
        xid
    }

    /// Register a branch's undo log (phase 1, after its local commit).
    pub fn register_undo(&self, xid: &str, undo: BranchUndo) -> Result<()> {
        let mut globals = self.globals.lock();
        let g = globals
            .get_mut(xid)
            .ok_or_else(|| KernelError::Transaction(format!("unknown global txn {xid}")))?;
        if g.status != GlobalStatus::Active {
            return Err(KernelError::Transaction(format!(
                "global txn {xid} is not active"
            )));
        }
        g.undo.push(undo);
        Ok(())
    }

    /// Global commit: branches are already durable; drop the undo logs.
    pub fn commit(&self, xid: &str) -> Result<()> {
        let mut globals = self.globals.lock();
        let g = globals
            .get_mut(xid)
            .ok_or_else(|| KernelError::Transaction(format!("unknown global txn {xid}")))?;
        g.status = GlobalStatus::Committed;
        g.undo.clear();
        Ok(())
    }

    /// Global rollback: hand back the undo logs, most recent first.
    pub fn rollback(&self, xid: &str) -> Result<Vec<BranchUndo>> {
        let mut globals = self.globals.lock();
        let g = globals
            .get_mut(xid)
            .ok_or_else(|| KernelError::Transaction(format!("unknown global txn {xid}")))?;
        g.status = GlobalStatus::RolledBack;
        let mut undo = std::mem::take(&mut g.undo);
        undo.reverse();
        Ok(undo)
    }

    pub fn status(&self, xid: &str) -> Option<GlobalStatus> {
        self.globals.lock().get(xid).map(|g| g.status)
    }
}

/// Capture the compensations for one actual (post-rewrite) DML statement,
/// by querying before-images on the target engine — the automatic part of
/// "AT" that spares developers hand-written compensation code.
pub fn capture_compensation(
    engine: &Arc<StorageEngine>,
    stmt: &Statement,
    params: &[Value],
) -> Result<Vec<Compensation>> {
    match stmt {
        Statement::Update(u) => {
            let before = select_before_images(engine, &u.table, u.where_clause.clone(), params)?;
            let (columns, pk_cols) = table_shape(engine, &u.table)?;
            let mut out = Vec::with_capacity(before.len());
            for row in before {
                // UPDATE t SET <all non-pk cols> = ? WHERE <pk> = ?
                let mut assignments = Vec::new();
                let mut comp_params = Vec::new();
                for (i, col) in columns.iter().enumerate() {
                    if pk_cols.contains(col) {
                        continue;
                    }
                    assignments.push(Assignment {
                        column: col.clone(),
                        value: Expr::Param(comp_params.len()),
                    });
                    comp_params.push(row[i].clone());
                }
                let where_clause = pk_predicate(&columns, &pk_cols, &row, &mut comp_params);
                out.push(Compensation {
                    stmt: Statement::Update(UpdateStatement {
                        table: u.table.clone(),
                        alias: None,
                        assignments,
                        where_clause: Some(where_clause),
                    }),
                    params: comp_params,
                });
            }
            Ok(out)
        }
        Statement::Delete(d) => {
            let before = select_before_images(engine, &d.table, d.where_clause.clone(), params)?;
            let mut out = Vec::with_capacity(before.len());
            for row in before {
                let comp_params: Vec<Value> = row.clone();
                let exprs: Vec<Expr> = (0..row.len()).map(Expr::Param).collect();
                out.push(Compensation {
                    stmt: Statement::Insert(InsertStatement {
                        table: d.table.clone(),
                        columns: Vec::new(),
                        rows: vec![exprs],
                    }),
                    params: comp_params,
                });
            }
            Ok(out)
        }
        Statement::Insert(ins) => {
            let (columns, pk_cols) = table_shape(engine, &ins.table)?;
            // Compensation: DELETE by primary key when the PK is inserted
            // explicitly; otherwise match on all inserted columns.
            let insert_cols: Vec<String> = if ins.columns.is_empty() {
                columns.clone()
            } else {
                ins.columns.clone()
            };
            let mut out = Vec::with_capacity(ins.rows.len());
            for row in &ins.rows {
                let values: Result<Vec<Value>> = row
                    .iter()
                    .map(|e| crate::rewrite::eval_const(e, params))
                    .collect();
                let values = values?;
                let pk_available = pk_cols
                    .iter()
                    .all(|pk| insert_cols.iter().any(|c| c.eq_ignore_ascii_case(pk)));
                let match_cols: Vec<(String, Value)> = if !pk_cols.is_empty() && pk_available {
                    pk_cols
                        .iter()
                        .map(|pk| {
                            let idx = insert_cols
                                .iter()
                                .position(|c| c.eq_ignore_ascii_case(pk))
                                .expect("checked available");
                            (pk.clone(), values[idx].clone())
                        })
                        .collect()
                } else {
                    insert_cols.iter().cloned().zip(values.clone()).collect()
                };
                let mut comp_params = Vec::new();
                let mut pred: Option<Expr> = None;
                for (col, v) in match_cols {
                    let cond = Expr::eq(Expr::col(col), Expr::Param(comp_params.len()));
                    comp_params.push(v);
                    pred = Some(match pred {
                        Some(p) => Expr::and(p, cond),
                        None => cond,
                    });
                }
                out.push(Compensation {
                    stmt: Statement::Delete(DeleteStatement {
                        table: ins.table.clone(),
                        alias: None,
                        where_clause: pred,
                    }),
                    params: comp_params,
                });
            }
            Ok(out)
        }
        // Reads and DDL need no compensation (DDL in BASE is out of scope,
        // as in Seata).
        _ => Ok(Vec::new()),
    }
}

fn select_before_images(
    engine: &Arc<StorageEngine>,
    table: &ObjectName,
    where_clause: Option<Expr>,
    params: &[Value],
) -> Result<Vec<Vec<Value>>> {
    let mut select = SelectStatement::empty();
    select.projection.push(SelectItem::Wildcard);
    select.from = Some(TableRef {
        name: table.clone(),
        alias: None,
    });
    select.where_clause = where_clause;
    let rs = engine
        .execute(&Statement::Select(select), params, None)
        .map_err(KernelError::Storage)?
        .query();
    Ok(rs.rows)
}

fn table_shape(
    engine: &Arc<StorageEngine>,
    table: &ObjectName,
) -> Result<(Vec<String>, Vec<String>)> {
    let t = engine.table(table.as_str()).map_err(KernelError::Storage)?;
    let guard = t.read();
    let columns = guard.schema.names().to_vec();
    let pk = guard
        .schema
        .primary_key
        .iter()
        .map(|&i| columns[i].clone())
        .collect();
    Ok((columns, pk))
}

fn pk_predicate(
    columns: &[String],
    pk_cols: &[String],
    row: &[Value],
    comp_params: &mut Vec<Value>,
) -> Expr {
    let mut pred: Option<Expr> = None;
    let cols: Vec<&String> = if pk_cols.is_empty() {
        columns.iter().collect()
    } else {
        pk_cols.iter().collect()
    };
    for col in cols {
        let idx = columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(col))
            .expect("pk col exists");
        let cond = Expr::eq(Expr::col(col.clone()), Expr::Param(comp_params.len()));
        comp_params.push(row[idx].clone());
        pred = Some(match pred {
            Some(p) => Expr::and(p, cond),
            None => cond,
        });
    }
    pred.expect("at least one column")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Arc<StorageEngine> {
        let e = StorageEngine::new("ds");
        e.execute_sql(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v INT, s VARCHAR(16))",
            &[],
            None,
        )
        .unwrap();
        e.execute_sql("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b')", &[], None)
            .unwrap();
        e
    }

    fn run(e: &Arc<StorageEngine>, c: &Compensation) {
        e.execute(&c.stmt, &c.params, None).unwrap();
    }

    fn rows(e: &Arc<StorageEngine>) -> Vec<Vec<Value>> {
        e.execute_sql("SELECT * FROM t ORDER BY id", &[], None)
            .unwrap()
            .query()
            .rows
    }

    #[test]
    fn update_compensation_restores_before_image() {
        let e = engine();
        let original = rows(&e);
        let stmt = shard_sql::parse_statement("UPDATE t SET v = 99 WHERE id = 1").unwrap();
        let comps = capture_compensation(&e, &stmt, &[]).unwrap();
        assert_eq!(comps.len(), 1);
        e.execute(&stmt, &[], None).unwrap();
        assert_ne!(rows(&e), original);
        for c in &comps {
            run(&e, c);
        }
        assert_eq!(rows(&e), original);
    }

    #[test]
    fn delete_compensation_reinserts() {
        let e = engine();
        let original = rows(&e);
        let stmt = shard_sql::parse_statement("DELETE FROM t WHERE v > 5").unwrap();
        let comps = capture_compensation(&e, &stmt, &[]).unwrap();
        assert_eq!(comps.len(), 2);
        e.execute(&stmt, &[], None).unwrap();
        assert!(rows(&e).is_empty());
        for c in &comps {
            run(&e, c);
        }
        assert_eq!(rows(&e), original);
    }

    #[test]
    fn insert_compensation_deletes_by_pk() {
        let e = engine();
        let original = rows(&e);
        let stmt =
            shard_sql::parse_statement("INSERT INTO t (id, v, s) VALUES (3, 30, 'c')").unwrap();
        let comps = capture_compensation(&e, &stmt, &[]).unwrap();
        e.execute(&stmt, &[], None).unwrap();
        assert_eq!(rows(&e).len(), 3);
        for c in &comps {
            run(&e, c);
        }
        assert_eq!(rows(&e), original);
    }

    #[test]
    fn params_flow_through_capture() {
        let e = engine();
        let original = rows(&e);
        let stmt = shard_sql::parse_statement("UPDATE t SET v = ? WHERE id = ?").unwrap();
        let params = vec![Value::Int(77), Value::Int(2)];
        let comps = capture_compensation(&e, &stmt, &params).unwrap();
        e.execute(&stmt, &params, None).unwrap();
        for c in &comps {
            run(&e, c);
        }
        assert_eq!(rows(&e), original);
    }

    #[test]
    fn coordinator_lifecycle() {
        let tc = TransactionCoordinator::new();
        let xid = tc.begin_global();
        assert_eq!(tc.status(&xid), Some(GlobalStatus::Active));
        tc.register_undo(
            &xid,
            BranchUndo {
                datasource: "ds_0".into(),
                compensations: vec![],
            },
        )
        .unwrap();
        tc.commit(&xid).unwrap();
        assert_eq!(tc.status(&xid), Some(GlobalStatus::Committed));
        // Undo after commit is illegal.
        assert!(tc
            .register_undo(
                &xid,
                BranchUndo {
                    datasource: "ds_0".into(),
                    compensations: vec![]
                }
            )
            .is_err());
    }

    #[test]
    fn rollback_returns_undo_in_reverse() {
        let tc = TransactionCoordinator::new();
        let xid = tc.begin_global();
        for name in ["first", "second"] {
            tc.register_undo(
                &xid,
                BranchUndo {
                    datasource: name.into(),
                    compensations: vec![],
                },
            )
            .unwrap();
        }
        let undo = tc.rollback(&xid).unwrap();
        assert_eq!(undo[0].datasource, "second");
        assert_eq!(undo[1].datasource, "first");
        assert_eq!(tc.status(&xid), Some(GlobalStatus::RolledBack));
    }
}
