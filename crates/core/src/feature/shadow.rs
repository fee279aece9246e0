//! Shadow DB (paper §IV-C): production-safe load testing. Statements
//! flagged as test traffic — by a shadow column value or an explicit hint —
//! are re-routed to shadow data sources instead of production ones.

use crate::route::{RouteResult, RouteUnit};
use shard_sql::ast::{BinaryOp, Expr};
use shard_sql::{Statement, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Shadow routing configuration.
#[derive(Default, Clone)]
pub struct ShadowRule {
    /// Column whose truthy value marks a statement as shadow traffic.
    pub shadow_column: String,
    /// Production data source → shadow data source.
    pub mappings: HashMap<String, String>,
}

impl ShadowRule {
    pub fn new(shadow_column: impl Into<String>) -> Self {
        ShadowRule {
            shadow_column: shadow_column.into(),
            mappings: HashMap::new(),
        }
    }

    pub fn map(mut self, production: &str, shadow: &str) -> Self {
        self.mappings
            .insert(production.to_string(), shadow.to_string());
        self
    }

    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Does this statement carry the shadow marker? Checked on INSERT values
    /// and WHERE equality conditions, per ShardingSphere's column-based
    /// shadow algorithm.
    pub fn is_shadow_statement(&self, stmt: &Statement, params: &[Value]) -> bool {
        if self.is_empty() {
            return false;
        }
        match stmt {
            Statement::Insert(ins) => {
                let Some(idx) = ins
                    .columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&self.shadow_column))
                else {
                    return false;
                };
                ins.rows.iter().any(|row| {
                    row.get(idx)
                        .map(|e| const_truthy(e, params))
                        .unwrap_or(false)
                })
            }
            Statement::Select(s) => self.where_marks_shadow(s.where_clause.as_ref(), params),
            Statement::Update(u) => self.where_marks_shadow(u.where_clause.as_ref(), params),
            Statement::Delete(d) => self.where_marks_shadow(d.where_clause.as_ref(), params),
            _ => false,
        }
    }

    fn where_marks_shadow(&self, w: Option<&Expr>, params: &[Value]) -> bool {
        let Some(w) = w else { return false };
        let mut found = false;
        w.walk(&mut |e| {
            if let Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } = e
            {
                let col_matches = |e: &Expr| {
                    matches!(e, Expr::Column(c) if c.column.eq_ignore_ascii_case(&self.shadow_column))
                };
                if (col_matches(left) && const_truthy(right, params))
                    || (col_matches(right) && const_truthy(left, params))
                {
                    found = true;
                }
            }
        });
        found
    }

    /// Re-target route units onto shadow data sources.
    pub fn apply(&self, route: &mut RouteResult) {
        for unit in &mut route.units {
            self.retarget(unit);
        }
    }

    /// Re-target one unit: a unit is shared, so this execution gets its own
    /// on the shadow source.
    pub fn retarget(&self, unit: &mut Arc<RouteUnit>) {
        if let Some(shadow) = self.mappings.get(&unit.datasource) {
            *unit = Arc::new(unit.on(shadow.as_str()));
        }
    }
}

fn const_truthy(e: &Expr, params: &[Value]) -> bool {
    match e {
        Expr::Literal(v) => v.is_true(),
        Expr::Param(i) => params.get(*i).map(Value::is_true).unwrap_or(false),
        Expr::Nested(inner) => const_truthy(inner, params),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteKind, RouteUnit};
    use shard_sql::parse_statement;

    fn rule() -> ShadowRule {
        ShadowRule::new("is_shadow").map("ds_0", "shadow_ds_0")
    }

    #[test]
    fn insert_with_marker_detected() {
        let r = rule();
        let stmt = parse_statement("INSERT INTO t (uid, is_shadow) VALUES (1, TRUE)").unwrap();
        assert!(r.is_shadow_statement(&stmt, &[]));
        let stmt = parse_statement("INSERT INTO t (uid, is_shadow) VALUES (1, FALSE)").unwrap();
        assert!(!r.is_shadow_statement(&stmt, &[]));
    }

    #[test]
    fn where_marker_detected_including_params() {
        let r = rule();
        let stmt = parse_statement("SELECT * FROM t WHERE uid = 5 AND is_shadow = TRUE").unwrap();
        assert!(r.is_shadow_statement(&stmt, &[]));
        let stmt = parse_statement("SELECT * FROM t WHERE is_shadow = ?").unwrap();
        assert!(r.is_shadow_statement(&stmt, &[Value::Bool(true)]));
        assert!(!r.is_shadow_statement(&stmt, &[Value::Bool(false)]));
    }

    #[test]
    fn apply_retargets_mapped_sources_only() {
        let r = rule();
        let mut route = RouteResult::new(
            RouteKind::Standard,
            vec![RouteUnit::new("ds_0"), RouteUnit::new("ds_1")],
        );
        r.apply(&mut route);
        assert_eq!(route.units[0].datasource, "shadow_ds_0");
        assert_eq!(route.units[1].datasource, "ds_1");
    }

    #[test]
    fn plain_statements_not_shadow() {
        let r = rule();
        let stmt = parse_statement("SELECT * FROM t WHERE uid = 5").unwrap();
        assert!(!r.is_shadow_statement(&stmt, &[]));
        let stmt = parse_statement("TRUNCATE TABLE t").unwrap();
        assert!(!r.is_shadow_statement(&stmt, &[]));
    }
}
