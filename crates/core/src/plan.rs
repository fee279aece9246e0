//! The planner: route and rewrite paid once per statement *shape* (paper
//! §VI, Fig 4), replayed per execution.
//!
//! [`plan`] is a pure function of the sharding rule and the parsed statement.
//! It decides what parameters cannot change — the route skeleton — and the
//! [`Plan`] it returns fills in the rest as executions ask for it, once
//! each and without a lock: per data node the shared [`RouteUnit`] and the
//! identifier-rewritten statement to send there, and per variant (one node
//! or several) the merger's guidance. Executing a statement is then
//! [`Plan::resolve`] — parameters to node ordinals — and [`Plan::bind`] —
//! `Arc` clones out of that memo.
//!
//! There is one way from statement to units. Shapes that must be routed or
//! rewritten per execution (hints, INSERT's per-row routing, a placeholder in
//! LIMIT, …) go through the same two steps over a plan that keeps nothing
//! ([`Plan::routed`]); a plan-cache miss and a disabled cache build the same
//! plan and drop it.

use crate::config::{ShardingRule, TableRule};
use crate::error::{KernelError, Result};
use crate::executor::ExecutionInput;
use crate::rewrite::{rewrite_for_unit, rewrite_insert_per_unit, rewrite_statement, DerivedInfo};
use crate::route::{
    extract_condition_template, ordinals_for_condition, ConditionTemplate, RouteEngine, RouteHint,
    RouteKind, RouteResult, RouteUnit,
};
use shard_sql::ast::{LimitValue, Statement};
use shard_sql::Value;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// What one execution sends and merges differently: a statement that lands
/// on one node goes out as written; one that fans out goes out derived
/// (merge columns, per-shard pagination), with aggregates pushed down or —
/// under `SET agg_pushdown = off` — shipped as raw rows.
const VARIANTS: usize = 3;

fn variant(stmt: &Statement, nodes: usize, agg_pushdown: bool) -> usize {
    match stmt {
        Statement::Select(_) if nodes > 1 => 1 + usize::from(!agg_pushdown),
        _ => 0,
    }
}

/// The routing decision of one statement shape.
enum Skeleton {
    /// Parameters cannot change the route (literal keys, unsharded and
    /// broadcast tables, full scans of a sharded table): every execution
    /// runs on all of these units.
    Static(RouteResult),
    /// One sharded table whose condition slots resolve per execution to
    /// ordinals into `rule.data_nodes` — the rule as it was when the plan
    /// was built, so a plan never mixes two layouts.
    Sharded {
        rule: Arc<TableRule>,
        template: ConditionTemplate,
    },
    /// The route depends on the execution in a way that is not replayed
    /// (INSERT rows, joins with parameters, complex strategies, DDL): the
    /// caller routes fully and binds through [`Plan::routed`].
    Uncacheable,
}

/// What the plan keeps per data node.
#[derive(Default)]
struct Node {
    unit: OnceLock<Arc<RouteUnit>>,
    stmts: [OnceLock<Arc<Statement>>; VARIANTS],
}

/// One statement shape, planned.
pub struct Plan {
    skeleton: Skeleton,
    /// Whether bound statements and merge guidance are kept for the next
    /// execution. Not when a placeholder sits in LIMIT/OFFSET — the window a
    /// fan-out sends and the one the merger re-applies depend on the
    /// parameters — and not for a plan built around one execution's route.
    keeps: bool,
    infos: [OnceLock<Arc<DerivedInfo>>; VARIANTS],
    nodes: Box<[Node]>,
}

/// One execution's units, ready for the executor, and what the merger needs
/// to combine their results.
pub struct Bound {
    pub inputs: Vec<ExecutionInput>,
    pub info: Arc<DerivedInfo>,
}

/// Plan `stmt` — the logical statement as parsed, before any feature patched
/// it — under `rule`.
pub fn plan(rule: &ShardingRule, stmt: &Statement) -> Plan {
    Plan::new(skeleton(rule, stmt), !window_from_params(stmt))
}

fn skeleton(rule: &ShardingRule, stmt: &Statement) -> Skeleton {
    // INSERT routes per VALUES row (and key generation mutates the statement
    // before routing); DDL/TCL are not hot-path.
    if !matches!(
        stmt,
        Statement::Select(_) | Statement::Update(_) | Statement::Delete(_)
    ) {
        return Skeleton::Uncacheable;
    }
    if !stmt.has_params() {
        // Parameters cannot alter the route; snapshot the whole result.
        return fixed_route(rule, stmt);
    }
    let (logic, alias, where_clause) = match stmt {
        Statement::Select(s) if s.joins.is_empty() => match &s.from {
            Some(from) => (
                from.name.as_str(),
                from.alias.as_deref(),
                s.where_clause.as_ref(),
            ),
            None => return Skeleton::Uncacheable,
        },
        Statement::Update(u) => (
            u.table.as_str(),
            u.alias.as_deref(),
            u.where_clause.as_ref(),
        ),
        Statement::Delete(d) => (
            d.table.as_str(),
            d.alias.as_deref(),
            d.where_clause.as_ref(),
        ),
        _ => return Skeleton::Uncacheable,
    };
    // Parameterized: only the single-sharded-table shape is replayable.
    let Some(table_rule) = rule.shared_table_rule(logic) else {
        // Broadcast or single table: the route does not depend on params.
        return fixed_route(rule, stmt);
    };
    if table_rule.complex.is_some() {
        return Skeleton::Uncacheable;
    }
    let mut bindings: Vec<&str> = vec![logic];
    bindings.extend(alias);
    match extract_condition_template(where_clause, &bindings, &table_rule.sharding_column) {
        Some(template) => Skeleton::Sharded {
            rule: Arc::clone(table_rule),
            template,
        },
        None => Skeleton::Uncacheable,
    }
}

fn fixed_route(rule: &ShardingRule, stmt: &Statement) -> Skeleton {
    match RouteEngine::new(rule, &RouteHint::default()).route(stmt, &[]) {
        Ok(route) => Skeleton::Static(route),
        Err(_) => Skeleton::Uncacheable,
    }
}

/// A placeholder in LIMIT or OFFSET?
fn window_from_params(stmt: &Statement) -> bool {
    let Statement::Select(select) = stmt else {
        return false;
    };
    let bounds = select.limit.iter().flat_map(|l| [&l.offset, &l.limit]);
    bounds
        .flatten()
        .any(|bound| matches!(bound, LimitValue::Param(_)))
}

impl Plan {
    /// A plan with one (still empty) memo slot per node of its skeleton; a
    /// fixed route's units are its nodes' from the start.
    fn new(skeleton: Skeleton, keeps: bool) -> Plan {
        let nodes = match &skeleton {
            Skeleton::Static(route) => {
                let node = |unit: &Arc<RouteUnit>| Node {
                    unit: OnceLock::from(Arc::clone(unit)),
                    ..Node::default()
                };
                route.units.iter().map(node).collect()
            }
            Skeleton::Sharded { rule, .. } => {
                rule.data_nodes.iter().map(|_| Node::default()).collect()
            }
            Skeleton::Uncacheable => Box::default(),
        };
        Plan {
            skeleton,
            keeps,
            infos: Default::default(),
            nodes,
        }
    }

    /// A plan around one execution's finished route, for the shapes that are
    /// routed per execution: it binds like any other and keeps nothing.
    pub fn routed(route: RouteResult) -> Plan {
        Plan::new(Skeleton::Static(route), false)
    }

    /// Bind a statement to the route one execution worked out for it.
    pub fn bind_routed(
        route: RouteResult,
        stmt: &Statement,
        params: &[Value],
        agg_pushdown: bool,
    ) -> Result<Bound> {
        let nodes: Vec<usize> = (0..route.units.len()).collect();
        Plan::routed(route).bind(stmt, params, &nodes, agg_pushdown)
    }

    /// A plan over every data node of one table, for a unit set chosen from
    /// outside the statement (a global-index lookup) when the statement's own
    /// plan is not already in that table's node space. Keeps nothing.
    pub fn over_table(rule: Arc<TableRule>) -> Plan {
        let template = ConditionTemplate::None;
        Plan::new(Skeleton::Sharded { rule, template }, false)
    }

    /// The table rule whose data nodes this plan's ordinals index, when it
    /// is a sharded-table plan.
    pub fn table_rule(&self) -> Option<&Arc<TableRule>> {
        match &self.skeleton {
            Skeleton::Sharded { rule, .. } => Some(rule),
            _ => None,
        }
    }

    /// The nodes this execution touches, as ordinals into the plan's nodes,
    /// each once, in the order the condition yields them; `None` when the
    /// shape is routed per execution.
    pub fn resolve(&self, params: &[Value]) -> Result<Option<Vec<usize>>> {
        match &self.skeleton {
            Skeleton::Static(route) => Ok(Some((0..route.units.len()).collect())),
            Skeleton::Sharded { rule, template } => {
                ordinals_for_condition(rule, &template.resolve(params)).map(Some)
            }
            Skeleton::Uncacheable => Ok(None),
        }
    }

    fn node(&self, ordinal: usize) -> Result<&Node> {
        self.nodes.get(ordinal).ok_or_else(|| {
            KernelError::Route(format!(
                "data node {ordinal} is outside the plan's {} node(s)",
                self.nodes.len()
            ))
        })
    }

    fn unit(&self, ordinal: usize) -> Result<&Arc<RouteUnit>> {
        let node = self.node(ordinal)?;
        Ok(node.unit.get_or_init(|| match &self.skeleton {
            Skeleton::Sharded { rule, .. } => {
                let at = &rule.data_nodes[ordinal];
                let unit = RouteUnit::new(at.datasource.clone());
                Arc::new(unit.with_mapping(&rule.logic_table, &at.table))
            }
            _ => unreachable!("routed plans are built with their units"),
        }))
    }

    /// The executor's inputs for `stmt` — the statement this plan was built
    /// for — on `nodes`, and the merger's guidance for that many units.
    pub fn bind(
        &self,
        stmt: &Statement,
        params: &[Value],
        nodes: &[usize],
        agg_pushdown: bool,
    ) -> Result<Bound> {
        let variant = variant(stmt, nodes.len(), agg_pushdown);
        if let Some(bound) = self.replay(variant, nodes) {
            return Ok(bound);
        }
        // Something is missing, or nothing is kept: derive for this unit
        // count, then the statement of each node that has none yet.
        let route = self.route_of(nodes)?;
        let output = rewrite_statement(stmt, &route, params, agg_pushdown)?;
        let stmts = match rewrite_insert_per_unit(&output, &route) {
            Some(per_unit) => per_unit,
            None => {
                let kept = |&node: &usize| self.nodes[node].stmts[variant].get();
                let mut stmts = Vec::with_capacity(nodes.len());
                for (unit, kept) in route.units.iter().zip(nodes.iter().map(kept)) {
                    stmts.push(match kept {
                        Some(stmt) => Arc::clone(stmt),
                        None => rewrite_for_unit(&output, unit, &route, params)?,
                    });
                }
                stmts
            }
        };
        let info = Arc::new(output.info);
        if self.keeps {
            let _ = self.infos[variant].set(Arc::clone(&info));
            for (&node, stmt) in nodes.iter().zip(&stmts) {
                let _ = self.nodes[node].stmts[variant].set(Arc::clone(stmt));
            }
        }
        let units = route.units.iter().cloned();
        let inputs = units
            .zip(stmts)
            .map(|(unit, stmt)| ExecutionInput { unit, stmt });
        Ok(Bound {
            inputs: inputs.collect(),
            info,
        })
    }

    /// The warm path: everything `nodes` need is in the memo.
    fn replay(&self, variant: usize, nodes: &[usize]) -> Option<Bound> {
        let info = self.infos[variant].get()?;
        let mut inputs = Vec::with_capacity(nodes.len());
        for &ordinal in nodes {
            let node = self.nodes.get(ordinal)?;
            inputs.push(ExecutionInput {
                unit: Arc::clone(node.unit.get()?),
                stmt: Arc::clone(node.stmts[variant].get()?),
            });
        }
        Some(Bound {
            inputs,
            info: Arc::clone(info),
        })
    }

    /// This execution's route: the plan's own when it binds all of a fixed
    /// route (which carries an INSERT's row assignment), the chosen nodes'
    /// units otherwise.
    fn route_of(&self, nodes: &[usize]) -> Result<Cow<'_, RouteResult>> {
        if let Skeleton::Static(route) = &self.skeleton {
            if nodes.iter().copied().eq(0..route.units.len()) {
                return Ok(Cow::Borrowed(route));
            }
        }
        let units = nodes.iter().map(|&node| self.unit(node).cloned());
        let units = units.collect::<Result<Vec<_>>>()?;
        let kind = match units.len() {
            1 => RouteKind::Single,
            _ => RouteKind::Standard,
        };
        Ok(Cow::Owned(RouteResult::new(kind, units)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{BoundaryRangeAlgorithm, ModAlgorithm, Props, ShardingAlgorithm};
    use crate::config::DataNode;
    use shard_sql::{format_statement, parse_statement, Dialect};

    /// `t_user` over four nodes on two sources, sharded on `uid`.
    fn rule_with(algorithm: Arc<dyn ShardingAlgorithm>, algorithm_type: &str) -> ShardingRule {
        let mut rule = ShardingRule::new(vec!["ds_0".into(), "ds_1".into()]);
        rule.add_table_rule(TableRule {
            logic_table: "t_user".into(),
            sharding_column: "uid".into(),
            algorithm,
            algorithm_type: algorithm_type.into(),
            data_nodes: (0..4)
                .map(|i| DataNode::new(format!("ds_{}", i % 2), format!("t_user_{i}")))
                .collect(),
            props: Props::new(),
            key_generate_column: None,
            complex: None,
        })
        .unwrap();
        rule
    }

    fn mod_rule() -> ShardingRule {
        rule_with(Arc::new(ModAlgorithm::new(None)), "mod")
    }

    fn ints(values: &[i64]) -> Vec<Value> {
        values.iter().copied().map(Value::Int).collect()
    }

    fn planned(rule: &ShardingRule, sql: &str) -> (Statement, Plan) {
        let stmt = parse_statement(sql).unwrap();
        let plan = plan(rule, &stmt);
        (stmt, plan)
    }

    fn nodes_of(rule: &ShardingRule, sql: &str, params: &[i64]) -> Vec<usize> {
        let (_, plan) = planned(rule, sql);
        plan.resolve(&ints(params)).unwrap().expect("replayable")
    }

    /// `(data source, SQL sent there)` of every input.
    fn sent(bound: &Bound) -> Vec<(String, String)> {
        let sql = |i: &ExecutionInput| format_statement(&i.stmt, Dialect::MySql);
        let sent = |i: &ExecutionInput| (i.unit.datasource.clone(), sql(i));
        bound.inputs.iter().map(sent).collect()
    }

    #[test]
    fn conditions_resolve_to_node_ordinals() {
        let rule = mod_rule();
        let select = |cond: &str| format!("SELECT name FROM t_user WHERE {cond}");
        assert_eq!(nodes_of(&rule, &select("uid = ?"), &[6]), [2]);
        // An IN list: each node once, in the order the values name them.
        assert_eq!(
            nodes_of(&rule, &select("uid IN (?, ?, ?)"), &[7, 1, 3]),
            [3, 1]
        );
        assert_eq!(nodes_of(&rule, &select("uid IN (?, 2)"), &[6]), [2]);
        // A range under a hash-like algorithm, and no condition on the key.
        assert_eq!(
            nodes_of(&rule, &select("uid BETWEEN ? AND ?"), &[1, 2]),
            [0, 1, 2, 3]
        );
        assert_eq!(nodes_of(&rule, &select("age > ?"), &[30]), [0, 1, 2, 3]);
        // An unbound placeholder degrades to the full route.
        assert_eq!(nodes_of(&rule, &select("uid = ?"), &[]), [0, 1, 2, 3]);

        // An order-preserving algorithm narrows the range; a range that
        // contradicts itself matches nothing and goes to the first node.
        let boundaries = BoundaryRangeAlgorithm::new(vec![10, 20, 30]).unwrap();
        let rule = rule_with(Arc::new(boundaries), "boundary_range");
        assert_eq!(
            nodes_of(&rule, &select("uid BETWEEN ? AND ?"), &[12, 25]),
            [1, 2]
        );
        assert_eq!(
            nodes_of(&rule, &select("uid BETWEEN ? AND ?"), &[25, 5]),
            [0]
        );
    }

    /// One plan serves the execution that lands on one node (the statement as
    /// written) and the one that fans out (derived for the merger), whichever
    /// comes first, and hands the same shared values out on a repeat.
    #[test]
    fn one_plan_binds_the_single_and_the_multi_node_variant_in_either_order() {
        let rule = mod_rule();
        let sql = "SELECT name FROM t_user WHERE uid IN (?, ?) ORDER BY age";
        let single = [(
            "ds_1".into(),
            "SELECT name FROM t_user_1 WHERE uid IN (?, ?) ORDER BY age".into(),
        )];
        let derived = |t: &str| {
            format!(
                "SELECT name, age AS ORDER_BY_DERIVED_0 FROM {t} WHERE uid IN (?, ?) ORDER BY age"
            )
        };
        let multi = [
            ("ds_1".into(), derived("t_user_1")),
            ("ds_0".into(), derived("t_user_2")),
        ];
        let (one, two) = (ints(&[1, 5]), ints(&[1, 2]));

        for multi_first in [false, true] {
            let (stmt, plan) = planned(&rule, sql);
            let bind = |params: &[Value]| {
                let nodes = plan.resolve(params).unwrap().unwrap();
                plan.bind(&stmt, params, &nodes, true).unwrap()
            };
            let mut order = [&one, &two];
            if multi_first {
                order.reverse();
            }
            let first: Vec<Bound> = order.iter().map(|p| bind(p)).collect();
            let again: Vec<Bound> = order.iter().map(|p| bind(p)).collect();
            for (params, (cold, warm)) in order.iter().zip(first.iter().zip(&again)) {
                let expected: &[(String, String)] = if params.as_slice() == one {
                    &single
                } else {
                    &multi
                };
                assert_eq!(sent(cold), expected);
                assert_eq!(sent(warm), expected);
                assert_eq!(cold.info.order_by.len(), expected.len() - 1);
                assert!(Arc::ptr_eq(&cold.info, &warm.info));
                for (c, w) in cold.inputs.iter().zip(&warm.inputs) {
                    assert!(Arc::ptr_eq(&c.stmt, &w.stmt) && Arc::ptr_eq(&c.unit, &w.unit));
                }
            }
            // Node 1's unit is one value, whichever variant asked for it.
            assert!(Arc::ptr_eq(
                &first[0].inputs[0].unit,
                &first[1].inputs[0].unit
            ));
        }
    }

    #[test]
    fn qualified_columns_route_and_follow_the_node() {
        let rule = mod_rule();
        let cases = [
            (
                "SELECT t_user.name FROM t_user WHERE t_user.uid = ?",
                "SELECT t_user_3.name FROM t_user_3 WHERE t_user_3.uid = ?",
            ),
            (
                "SELECT u.name FROM t_user u WHERE u.uid = ?",
                "SELECT u.name FROM t_user_3 u WHERE u.uid = ?",
            ),
        ];
        for (sql, physical) in cases {
            let (stmt, plan) = planned(&rule, sql);
            let params = ints(&[7]);
            let nodes = plan.resolve(&params).unwrap().unwrap();
            assert_eq!(nodes, [3], "{sql}");
            let bound = plan.bind(&stmt, &params, &nodes, true).unwrap();
            assert_eq!(sent(&bound), [("ds_1".into(), physical.into())]);
        }
        // A qualifier that names another table does not constrain the key.
        let sql = "SELECT name FROM t_user u WHERE o.uid = ?";
        assert_eq!(nodes_of(&rule, sql, &[7]), [0, 1, 2, 3]);
    }

    #[test]
    fn updates_and_deletes_bind_per_node() {
        let rule = mod_rule();
        let (stmt, plan) = planned(&rule, "UPDATE t_user SET name = ? WHERE uid = ?");
        let params = [Value::Str("ann".into()), Value::Int(6)];
        let nodes = plan.resolve(&params).unwrap().unwrap();
        let bound = plan.bind(&stmt, &params, &nodes, true).unwrap();
        let update = "UPDATE t_user_2 SET name = ? WHERE uid = ?";
        assert_eq!(sent(&bound), [("ds_0".into(), update.into())]);

        let (stmt, plan) = planned(&rule, "DELETE FROM t_user WHERE uid IN (?, ?)");
        let params = ints(&[3, 4]);
        let nodes = plan.resolve(&params).unwrap().unwrap();
        let bound = plan.bind(&stmt, &params, &nodes, true).unwrap();
        let delete = |t: &str| format!("DELETE FROM {t} WHERE uid IN (?, ?)");
        let expected = [
            ("ds_1".into(), delete("t_user_3")),
            ("ds_0".into(), delete("t_user_0")),
        ];
        assert_eq!(sent(&bound), expected);
        // Writes have nothing to merge, however many nodes they reach.
        assert!(bound.info.limit.is_none() && bound.info.order_by.is_empty());
        let again = plan.bind(&stmt, &params, &nodes, true).unwrap();
        assert!(Arc::ptr_eq(&bound.inputs[1].stmt, &again.inputs[1].stmt));
    }

    /// A placeholder in LIMIT/OFFSET: the window a fan-out sends its shards
    /// and the one the merger re-applies both come from the parameters, so
    /// the plan keeps neither — the second window is not the first one's.
    #[test]
    fn a_placeholder_window_is_bound_per_execution() {
        let rule = mod_rule();
        let sql = "SELECT uid FROM t_user WHERE uid IN (?, ?) ORDER BY uid LIMIT ?, ?";
        let (stmt, plan) = planned(&rule, sql);
        let per_shard = |t: &str, rows: u64| {
            format!("SELECT uid FROM {t} WHERE uid IN (?, ?) ORDER BY uid LIMIT {rows}")
        };
        for (offset, count) in [(0, 2), (2, 3), (0, 2)] {
            let params = ints(&[1, 2, offset, count]);
            let nodes = plan.resolve(&params).unwrap().unwrap();
            let bound = plan.bind(&stmt, &params, &nodes, true).unwrap();
            let rows = (offset + count) as u64;
            let expected = [
                ("ds_1".into(), per_shard("t_user_1", rows)),
                ("ds_0".into(), per_shard("t_user_2", rows)),
            ];
            assert_eq!(sent(&bound), expected);
            assert_eq!(bound.info.limit, Some((offset as u64, Some(count as u64))));

            // On one node the statement goes out as written and storage
            // applies the window; the merger is told the same window.
            let params = ints(&[1, 5, offset, count]);
            let nodes = plan.resolve(&params).unwrap().unwrap();
            let bound = plan.bind(&stmt, &params, &nodes, true).unwrap();
            let as_written = sql.replace("t_user", "t_user_1");
            assert_eq!(sent(&bound), [("ds_1".into(), as_written)]);
            assert_eq!(bound.info.limit, Some((offset as u64, Some(count as u64))));
        }
    }

    #[test]
    fn an_ordinal_outside_the_plan_is_an_error() {
        let rule = mod_rule();
        let (stmt, plan) = planned(&rule, "SELECT name FROM t_user WHERE uid = ?");
        let params = ints(&[1]);
        for nodes in [&[4][..], &[1, 9]] {
            let err = plan
                .bind(&stmt, &params, nodes, true)
                .err()
                .expect("no such node");
            assert!(matches!(err, KernelError::Route(_)), "{err}");
        }
        // So is an index the algorithm makes up.
        struct Wild;
        impl ShardingAlgorithm for Wild {
            fn type_name(&self) -> &str {
                "wild"
            }
            fn shard_exact(&self, count: usize, _: &Value) -> Result<usize> {
                Ok(count + 3)
            }
        }
        let rule = rule_with(Arc::new(Wild), "wild");
        let (_, plan) = planned(&rule, "SELECT name FROM t_user WHERE uid = ?");
        assert!(matches!(plan.resolve(&params), Err(KernelError::Route(_))));
    }
}
