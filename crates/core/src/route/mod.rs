//! SQL router (paper §V-B): matches logical SQL to data nodes.
//!
//! Strategies: **broadcast route** for statements without sharding keys /
//! DDL / DAL, and **sharding route** (standard for single or binding tables,
//! cartesian for non-binding joins).

mod condition;
mod engine;
pub mod gsi;

pub use condition::{
    extract_condition_template, extract_conditions, ConditionTemplate, ShardingCondition,
    ValueSource,
};
pub(crate) use engine::ordinals_for_condition;
pub use engine::{RouteEngine, RouteHint};
pub use gsi::{GlobalIndex, GsiMaintOp, GsiRegistry};

use std::collections::HashMap;
use std::sync::Arc;

/// One routed execution target: a data source plus the logic→actual table
/// mapping the rewriter applies for that target. Routes, plans and execution
/// inputs hold units behind an `Arc`: a unit is built once per data node and
/// shared by every statement that touches the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteUnit {
    pub datasource: String,
    /// logic table (lower-cased) → actual table.
    pub table_mappings: HashMap<String, String>,
}

impl RouteUnit {
    pub fn new(datasource: impl Into<String>) -> Self {
        RouteUnit {
            datasource: datasource.into(),
            table_mappings: HashMap::new(),
        }
    }

    pub fn with_mapping(mut self, logic: &str, actual: &str) -> Self {
        self.table_mappings
            .insert(logic.to_lowercase(), actual.to_string());
        self
    }

    pub fn actual_table(&self, logic: &str) -> Option<&str> {
        // Names arrive lower-cased almost always; only a miss pays for
        // folding the case.
        let hit = match self.table_mappings.get(logic) {
            Some(hit) => Some(hit),
            None => self.table_mappings.get(&logic.to_lowercase()),
        };
        hit.map(String::as_str)
    }

    /// This unit's tables on another data source (shadow, read-write split).
    pub fn on(&self, datasource: impl Into<String>) -> RouteUnit {
        RouteUnit {
            datasource: datasource.into(),
            table_mappings: self.table_mappings.clone(),
        }
    }
}

/// Which strategy produced the route (diagnostics, merger decisions, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Single data node — the fast path (paper: "the route result will fall
    /// into a single data node").
    Single,
    /// Standard sharding route over one table or a binding group.
    Standard,
    /// Cartesian product route between non-binding tables.
    Cartesian,
    /// Broadcast to every relevant node (DDL, no sharding key, …).
    Broadcast,
}

/// How the kernel arrived at the final unit set for one statement — the
/// routing-intelligence verdict surfaced by `EXPLAIN ANALYZE` and asserted
/// by the fan-out tests. Orthogonal to [`RouteKind`]: a Standard route can
/// end up scatter (no usable condition) or index-route (GSI override).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStrategy {
    /// A global secondary index narrowed the route below full fan-out.
    IndexRoute,
    /// Scatter, but aggregates were decomposed into per-shard partials.
    AggPushdown,
    /// The statement landed on a single execution unit.
    Colocated,
    /// Full multi-unit fan-out with row streaming to the merger.
    Scatter,
}

impl RouteStrategy {
    pub fn as_str(&self) -> &'static str {
        match self {
            RouteStrategy::IndexRoute => "index-route",
            RouteStrategy::AggPushdown => "aggregate-pushdown",
            RouteStrategy::Colocated => "colocated",
            RouteStrategy::Scatter => "scatter",
        }
    }
}

/// The complete route result for one logical statement.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    pub kind: RouteKind,
    pub units: Vec<Arc<RouteUnit>>,
    /// For batched INSERTs: the unit each VALUES row routes to, in row
    /// order. The rewriter uses this to split the batch per unit.
    pub insert_row_units: Option<Vec<Arc<RouteUnit>>>,
}

impl RouteResult {
    pub fn new<U: Into<Arc<RouteUnit>>>(
        kind: RouteKind,
        units: impl IntoIterator<Item = U>,
    ) -> Self {
        RouteResult {
            kind,
            units: units.into_iter().map(Into::into).collect(),
            insert_row_units: None,
        }
    }

    pub fn is_single(&self) -> bool {
        self.units.len() == 1
    }

    /// Data sources touched, deduplicated in first-seen order.
    pub fn datasources(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for u in &self.units {
            if !out.iter().any(|d| d == &u.datasource) {
                out.push(u.datasource.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_unit_mapping_case_insensitive() {
        let u = RouteUnit::new("ds_0").with_mapping("T_User", "t_user_0");
        assert_eq!(u.actual_table("t_user"), Some("t_user_0"));
        assert_eq!(u.actual_table("T_USER"), Some("t_user_0"));
    }

    #[test]
    fn datasources_deduplicated() {
        let r = RouteResult::new(
            RouteKind::Standard,
            vec![
                RouteUnit::new("ds_0"),
                RouteUnit::new("ds_1"),
                RouteUnit::new("ds_0"),
            ],
        );
        assert_eq!(r.datasources(), vec!["ds_0", "ds_1"]);
        assert!(!r.is_single());
    }
}
