//! The route engine: combines sharding rules, extracted conditions and hints
//! into a [`RouteResult`].

use super::condition::{extract_conditions, ShardingCondition};
use super::{RouteKind, RouteResult, RouteUnit};
use crate::config::{DataNode, ShardingRule, TableRule};
use crate::error::{KernelError, Result};
use shard_sql::ast::*;
use shard_sql::Value;
use shard_storage::eval::{eval, EvalContext, Scope};
use std::collections::Bound;
use std::collections::HashMap;
use std::sync::Arc;

/// Externally supplied routing hints (the paper's hint feature: route by
/// values that do not appear in the SQL).
#[derive(Debug, Clone, Default)]
pub struct RouteHint {
    /// Force every unit onto this data source (e.g. primary for consistency
    /// reads, or a shadow source).
    pub datasource: Option<String>,
    /// Sharding value per logic table, consumed by hint algorithms or used
    /// in place of WHERE-derived conditions.
    pub table_values: HashMap<String, Value>,
}

impl RouteHint {
    pub fn is_empty(&self) -> bool {
        self.datasource.is_none() && self.table_values.is_empty()
    }
}

pub struct RouteEngine<'a> {
    rule: &'a ShardingRule,
    hint: &'a RouteHint,
}

impl<'a> RouteEngine<'a> {
    pub fn new(rule: &'a ShardingRule, hint: &'a RouteHint) -> Self {
        RouteEngine { rule, hint }
    }

    pub fn route(&self, stmt: &Statement, params: &[Value]) -> Result<RouteResult> {
        let result = match stmt {
            Statement::Select(s) => self.route_select(s, params)?,
            Statement::Insert(s) => self.route_insert(s, params)?,
            Statement::Update(s) => self.route_dml(
                &s.table,
                s.alias.as_deref(),
                s.where_clause.as_ref(),
                params,
            )?,
            Statement::Delete(s) => self.route_dml(
                &s.table,
                s.alias.as_deref(),
                s.where_clause.as_ref(),
                params,
            )?,
            Statement::CreateTable(s) => self.route_ddl(&s.name)?,
            Statement::DropTable(s) => {
                // Route per table, merging mappings of units that share a
                // data source (one DROP per source) — but never merging two
                // actual tables of the same logic table into one unit.
                let mut units: Vec<RouteUnit> = Vec::new();
                for name in &s.names {
                    for u in self.route_ddl(name)?.units {
                        let merged = units.iter_mut().find(|e| {
                            e.datasource == u.datasource
                                && u.table_mappings
                                    .keys()
                                    .all(|k| !e.table_mappings.contains_key(k))
                        });
                        match merged {
                            Some(existing) => {
                                existing.table_mappings.extend(u.table_mappings.clone())
                            }
                            None => units.push(Arc::unwrap_or_clone(u)),
                        }
                    }
                }
                RouteResult::new(RouteKind::Broadcast, units)
            }
            Statement::TruncateTable(name) => self.route_ddl(name)?,
            Statement::CreateIndex(s) => self.route_ddl(&s.table)?,
            Statement::DropIndex { table, .. } => self.route_ddl(table)?,
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::SetVariable { .. }
            | Statement::ShowTables => self.broadcast_all_datasources(),
            Statement::DistSql(_) => {
                return Err(KernelError::Route(
                    "DistSQL does not route to data sources".into(),
                ))
            }
        };
        Ok(self.apply_datasource_hint(result))
    }

    fn apply_datasource_hint(&self, mut result: RouteResult) -> RouteResult {
        if let Some(forced) = &self.hint.datasource {
            result
                .units
                .retain(|u| u.datasource.eq_ignore_ascii_case(forced));
        }
        result
    }

    fn broadcast_all_datasources(&self) -> RouteResult {
        RouteResult::new(
            RouteKind::Broadcast,
            self.rule
                .datasource_names
                .iter()
                .map(|d| RouteUnit::new(d.clone())),
        )
    }

    // -- DDL ---------------------------------------------------------------

    fn route_ddl(&self, table: &ObjectName) -> Result<RouteResult> {
        let logic = table.as_str();
        if let Some(rule) = self.rule.table_rule(logic) {
            // DDL goes to every data node of the sharded table.
            let units = rule
                .all_nodes()
                .iter()
                .map(|n| RouteUnit::new(n.datasource.clone()).with_mapping(logic, &n.table));
            return Ok(RouteResult::new(RouteKind::Broadcast, units));
        }
        if self.rule.is_broadcast(logic) {
            // Broadcast tables exist identically in every data source.
            let units = self
                .rule
                .datasource_names
                .iter()
                .map(|d| RouteUnit::new(d.clone()).with_mapping(logic, logic));
            return Ok(RouteResult::new(RouteKind::Broadcast, units));
        }
        // Single (unsharded) table: lives in the default data source.
        let ds = self.default_datasource()?;
        Ok(RouteResult::new(
            RouteKind::Single,
            vec![RouteUnit::new(ds).with_mapping(logic, logic)],
        ))
    }

    fn default_datasource(&self) -> Result<String> {
        self.rule
            .default_datasource
            .clone()
            .ok_or_else(|| KernelError::Route("no data sources registered".into()))
    }

    // -- DML on a single table ----------------------------------------------

    fn route_dml(
        &self,
        table: &ObjectName,
        alias: Option<&str>,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> Result<RouteResult> {
        let logic = table.as_str();
        if let Some(rule) = self.rule.table_rule(logic) {
            let mut bindings: Vec<&str> = vec![logic];
            if let Some(a) = alias {
                bindings.push(a);
            }
            let nodes = self.nodes_for_statement(logic, rule, where_clause, &bindings, params)?;
            let kind = if nodes.len() == 1 {
                RouteKind::Single
            } else {
                RouteKind::Standard
            };
            return Ok(RouteResult::new(
                kind,
                nodes
                    .into_iter()
                    .map(|n| RouteUnit::new(n.datasource.clone()).with_mapping(logic, &n.table)),
            ));
        }
        if self.rule.is_broadcast(logic) {
            let units = self
                .rule
                .datasource_names
                .iter()
                .map(|d| RouteUnit::new(d.clone()).with_mapping(logic, logic));
            return Ok(RouteResult::new(RouteKind::Broadcast, units));
        }
        let ds = self.default_datasource()?;
        Ok(RouteResult::new(
            RouteKind::Single,
            vec![RouteUnit::new(ds).with_mapping(logic, logic)],
        ))
    }

    /// Multi-column exact values for a complex strategy (absent columns were
    /// not constrained; a hint value stands in for the first column).
    fn complex_values(
        &self,
        logic: &str,
        where_clause: Option<&Expr>,
        bindings: &[&str],
        columns: &[String],
        params: &[Value],
    ) -> HashMap<String, Value> {
        let mut out = HashMap::new();
        for col in columns {
            match extract_conditions(where_clause, bindings, col, params) {
                ShardingCondition::Exact(values) if values.len() == 1 => {
                    out.insert(col.clone(), values[0].clone());
                }
                _ => {}
            }
        }
        if out.is_empty() {
            if let Some(v) = self.hint.table_values.get(&logic.to_lowercase()) {
                if let Some(first) = columns.first() {
                    out.insert(first.clone(), v.clone());
                }
            }
        }
        out
    }

    /// Nodes for a rule, consulting the complex strategy when configured.
    fn nodes_for_statement<'r>(
        &self,
        logic: &str,
        rule: &'r TableRule,
        where_clause: Option<&Expr>,
        bindings: &[&str],
        params: &[Value],
    ) -> Result<Vec<&'r DataNode>> {
        if let Some(strategy) = &rule.complex {
            let values =
                self.complex_values(logic, where_clause, bindings, &strategy.columns, params);
            let mut nodes = rule.route_complex(&values)?;
            let mut seen = std::collections::HashSet::new();
            nodes.retain(|n| seen.insert((*n).clone()));
            if nodes.is_empty() {
                return Ok(rule.all_nodes().first().into_iter().collect());
            }
            return Ok(nodes);
        }
        let condition = self.condition_with_hint(logic, where_clause, bindings, rule, params);
        self.nodes_for(rule, &condition)
    }

    fn condition_with_hint(
        &self,
        logic: &str,
        where_clause: Option<&Expr>,
        bindings: &[&str],
        rule: &TableRule,
        params: &[Value],
    ) -> ShardingCondition {
        if let Some(v) = self.hint.table_values.get(&logic.to_lowercase()) {
            return ShardingCondition::Exact(vec![v.clone()]);
        }
        extract_conditions(where_clause, bindings, &rule.sharding_column, params)
    }

    fn nodes_for<'r>(
        &self,
        rule: &'r TableRule,
        condition: &ShardingCondition,
    ) -> Result<Vec<&'r DataNode>> {
        let ordinals = ordinals_for_condition(rule, condition)?;
        Ok(ordinals.into_iter().map(|i| &rule.data_nodes[i]).collect())
    }

    // -- INSERT ---------------------------------------------------------------

    fn route_insert(&self, stmt: &InsertStatement, params: &[Value]) -> Result<RouteResult> {
        let logic = stmt.table.as_str();
        if let Some(rule) = self.rule.table_rule(logic) {
            // Column position of the sharding key.
            let col_idx = if stmt.columns.is_empty() {
                None // resolved by the rewriter against the logical schema
            } else {
                Some(
                    stmt.columns
                        .iter()
                        .position(|c| c.eq_ignore_ascii_case(&rule.sharding_column))
                        .ok_or_else(|| {
                            KernelError::Route(format!(
                                "INSERT into sharded table '{logic}' must supply sharding column '{}'",
                                rule.sharding_column
                            ))
                        })?,
                )
            };
            let Some(col_idx) = col_idx else {
                return Err(KernelError::Route(format!(
                    "INSERT into sharded table '{logic}' must name its columns \
                     so the sharding column '{}' can be located",
                    rule.sharding_column
                )));
            };
            // Positions of complex sharding columns, when configured.
            let complex_cols: Option<Vec<(String, usize)>> = match &rule.complex {
                Some(strategy) => Some(
                    strategy
                        .columns
                        .iter()
                        .map(|c| {
                            stmt.columns
                                .iter()
                                .position(|x| x.eq_ignore_ascii_case(c))
                                .map(|i| (c.clone(), i))
                                .ok_or_else(|| {
                                    KernelError::Route(format!(
                                        "INSERT into '{logic}' must supply complex sharding column '{c}'"
                                    ))
                                })
                        })
                        .collect::<Result<_>>()?,
                ),
                None => None,
            };
            // One shared unit per node touched; every row points at its
            // node's unit.
            let mut nodes: Vec<&DataNode> = Vec::new();
            let mut units: Vec<Arc<RouteUnit>> = Vec::new();
            let mut row_units: Vec<Arc<RouteUnit>> = Vec::with_capacity(stmt.rows.len());
            for row in &stmt.rows {
                let node = if let Some(cols) = &complex_cols {
                    let mut values = HashMap::new();
                    for (name, idx) in cols {
                        values.insert(name.clone(), eval_insert_value(&row[*idx], params)?);
                    }
                    let nodes = rule.route_complex(&values)?;
                    if nodes.len() != 1 {
                        return Err(KernelError::Route(format!(
                            "complex algorithm for '{logic}' did not produce a unique \
                             target for an INSERT row"
                        )));
                    }
                    nodes[0]
                } else {
                    let value = eval_insert_value(&row[col_idx], params)?;
                    rule.route_exact(&value)?
                };
                let at = match nodes.iter().position(|n| std::ptr::eq(*n, node)) {
                    Some(at) => at,
                    None => {
                        nodes.push(node);
                        units.push(Arc::new(
                            RouteUnit::new(node.datasource.clone())
                                .with_mapping(logic, &node.table),
                        ));
                        units.len() - 1
                    }
                };
                row_units.push(Arc::clone(&units[at]));
            }
            let kind = if units.len() == 1 {
                RouteKind::Single
            } else {
                RouteKind::Standard
            };
            let mut result = RouteResult::new(kind, units);
            result.insert_row_units = Some(row_units);
            return Ok(result);
        }
        if self.rule.is_broadcast(logic) {
            // Broadcast tables: write to every data source.
            let units = self
                .rule
                .datasource_names
                .iter()
                .map(|d| RouteUnit::new(d.clone()).with_mapping(logic, logic));
            return Ok(RouteResult::new(RouteKind::Broadcast, units));
        }
        let ds = self.default_datasource()?;
        Ok(RouteResult::new(
            RouteKind::Single,
            vec![RouteUnit::new(ds).with_mapping(logic, logic)],
        ))
    }

    // -- SELECT ----------------------------------------------------------------

    fn route_select(&self, stmt: &SelectStatement, params: &[Value]) -> Result<RouteResult> {
        // Map binding name → logic table for every table reference.
        let mut refs: Vec<(&TableRef, &str)> = Vec::new(); // (ref, logic)
        if let Some(from) = &stmt.from {
            refs.push((from, from.name.as_str()));
        }
        for j in &stmt.joins {
            refs.push((&j.table, j.table.name.as_str()));
        }
        if refs.is_empty() {
            // SELECT without FROM: run on any one data source.
            let ds = self.default_datasource()?;
            return Ok(RouteResult::new(
                RouteKind::Single,
                vec![RouteUnit::new(ds)],
            ));
        }

        let sharded: Vec<&str> = {
            let mut out = Vec::new();
            for (_, logic) in &refs {
                if self.rule.is_sharded(logic)
                    && !out.iter().any(|t: &&str| t.eq_ignore_ascii_case(logic))
                {
                    out.push(*logic);
                }
            }
            out
        };

        if sharded.is_empty() {
            // Only broadcast/single tables. Broadcast DQL reads one source.
            let ds = self.default_datasource()?;
            let mut unit = RouteUnit::new(ds);
            for (_, logic) in &refs {
                unit = unit.with_mapping(logic, logic);
            }
            return Ok(RouteResult::new(RouteKind::Single, vec![unit]));
        }

        let sharded_names: Vec<String> = sharded.iter().map(|s| s.to_string()).collect();
        if sharded.len() == 1 || self.rule.all_binding(&sharded_names) {
            self.route_standard(stmt, &refs, &sharded, params)
        } else {
            self.route_cartesian(stmt, &refs, &sharded, params)
        }
    }

    /// Standard route (paper: single logic table or binding tables). The
    /// first sharded table drives the route; binding partners map to the
    /// node at the same index.
    fn route_standard(
        &self,
        stmt: &SelectStatement,
        refs: &[(&TableRef, &str)],
        sharded: &[&str],
        params: &[Value],
    ) -> Result<RouteResult> {
        let primary_logic = sharded[0];
        let primary_rule = self
            .rule
            .table_rule(primary_logic)
            .expect("caller checked is_sharded");
        let bindings = bindings_of(refs, primary_logic);
        let nodes = self.nodes_for_statement(
            primary_logic,
            primary_rule,
            stmt.where_clause.as_ref(),
            &bindings,
            params,
        )?;

        let mut units = Vec::with_capacity(nodes.len());
        for node in nodes {
            let idx = primary_rule
                .node_index(node)
                .expect("node comes from this rule");
            let mut unit =
                RouteUnit::new(node.datasource.clone()).with_mapping(primary_logic, &node.table);
            // Binding partners follow by index.
            for other in &sharded[1..] {
                let other_rule = self.rule.table_rule(other).expect("sharded");
                let partner = other_rule.all_nodes().get(idx).ok_or_else(|| {
                    KernelError::Route(format!(
                        "binding tables '{primary_logic}' and '{other}' have mismatched node counts"
                    ))
                })?;
                unit = unit.with_mapping(other, &partner.table);
            }
            // Broadcast and single tables referenced in the join.
            for (_, logic) in refs {
                if self.rule.is_broadcast(logic) {
                    unit = unit.with_mapping(logic, logic);
                } else if !self.rule.is_sharded(logic) {
                    // Single table: only co-located joins are executable.
                    let default = self.default_datasource()?;
                    if !unit.datasource.eq_ignore_ascii_case(&default) {
                        return Err(KernelError::Route(format!(
                            "cannot join sharded table '{primary_logic}' with single table \
                             '{logic}' outside data source '{default}'"
                        )));
                    }
                    unit = unit.with_mapping(logic, logic);
                }
            }
            units.push(unit);
        }
        let kind = if units.len() == 1 {
            RouteKind::Single
        } else {
            RouteKind::Standard
        };
        Ok(RouteResult::new(kind, units))
    }

    /// Cartesian route (paper §V-B): non-binding sharded tables joined
    /// together require the product of their per-source actual tables.
    fn route_cartesian(
        &self,
        stmt: &SelectStatement,
        refs: &[(&TableRef, &str)],
        sharded: &[&str],
        params: &[Value],
    ) -> Result<RouteResult> {
        // Per sharded table: its routed nodes grouped by data source.
        let mut per_table: Vec<(&str, HashMap<String, Vec<&DataNode>>)> = Vec::new();
        for logic in sharded {
            let rule = self.rule.table_rule(logic).expect("sharded");
            let bindings = bindings_of(refs, logic);
            let nodes = self.nodes_for_statement(
                logic,
                rule,
                stmt.where_clause.as_ref(),
                &bindings,
                params,
            )?;
            let mut by_ds: HashMap<String, Vec<&DataNode>> = HashMap::new();
            for n in nodes {
                by_ds.entry(n.datasource.clone()).or_default().push(n);
            }
            per_table.push((logic, by_ds));
        }

        // Data sources where every table has at least one node.
        let mut datasources: Vec<String> = self
            .rule
            .datasource_names
            .iter()
            .filter(|ds| per_table.iter().all(|(_, by_ds)| by_ds.contains_key(*ds)))
            .cloned()
            .collect();
        datasources.sort();

        let mut units = Vec::new();
        for ds in datasources {
            // Cartesian product of the local actual tables of each logic table.
            let mut combos: Vec<Vec<(&str, &DataNode)>> = vec![Vec::new()];
            for (logic, by_ds) in &per_table {
                let local = &by_ds[&ds];
                let mut next = Vec::with_capacity(combos.len() * local.len());
                for combo in &combos {
                    for node in local {
                        let mut c = combo.clone();
                        c.push((*logic, *node));
                        next.push(c);
                    }
                }
                combos = next;
            }
            for combo in combos {
                let mut unit = RouteUnit::new(ds.clone());
                for (logic, node) in combo {
                    unit = unit.with_mapping(logic, &node.table);
                }
                for (_, logic) in refs {
                    if self.rule.is_broadcast(logic) {
                        unit = unit.with_mapping(logic, logic);
                    }
                }
                units.push(unit);
            }
        }
        Ok(RouteResult::new(RouteKind::Cartesian, units))
    }
}

/// The data nodes a resolved sharding condition selects from a table rule,
/// as ordinals into its node list — the algorithm's own indices, in the
/// order the condition yields them, each once. Shared by the route engine
/// and by plan replay (which resolves a cached
/// [`super::condition::ConditionTemplate`] without re-walking the AST).
pub(crate) fn ordinals_for_condition(
    rule: &TableRule,
    condition: &ShardingCondition,
) -> Result<Vec<usize>> {
    let count = rule.data_nodes.len();
    let mut ordinals = match condition {
        ShardingCondition::Exact(values) => {
            let mut out = Vec::with_capacity(values.len());
            for v in values {
                out.push(rule.algorithm.shard_exact(count, v)?);
            }
            out
        }
        ShardingCondition::Range(lo, hi) => {
            rule.algorithm
                .shard_range(count, bound_ref(lo), bound_ref(hi))?
        }
        ShardingCondition::None => return Ok((0..count).collect()),
    };
    if let Some(bad) = ordinals.iter().find(|&&i| i >= count) {
        return Err(KernelError::Route(format!(
            "algorithm for '{}' produced out-of-range index {bad}",
            rule.logic_table
        )));
    }
    // Dedup while preserving the order the condition produced.
    let mut seen = 0;
    for at in 0..ordinals.len() {
        if !ordinals[..seen].contains(&ordinals[at]) {
            ordinals[seen] = ordinals[at];
            seen += 1;
        }
    }
    ordinals.truncate(seen);
    if ordinals.is_empty() && count > 0 {
        // Contradictory conditions (uid = 1 AND uid = 2) match nothing;
        // unicast to one node so the client still gets a correctly
        // shaped (empty) result, as ShardingSphere does.
        ordinals.push(0);
    }
    Ok(ordinals)
}

/// All names a logic table is referenced by in this statement (its own name
/// plus any aliases).
fn bindings_of<'a>(refs: &'a [(&TableRef, &'a str)], logic: &'a str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (table_ref, table_logic) in refs {
        if table_logic.eq_ignore_ascii_case(logic) {
            out.push(table_ref.binding_name());
        }
    }
    if !out.iter().any(|b| b.eq_ignore_ascii_case(logic)) {
        // Keep the bare table name usable unless shadowed by an alias on a
        // different table.
        out.push(logic);
    }
    out
}

fn eval_insert_value(expr: &Expr, params: &[Value]) -> Result<Value> {
    let scope = Scope::new();
    let ctx = EvalContext::new(&scope, &[], params);
    let v = eval(expr, &ctx).map_err(|e| {
        KernelError::Route(format!("cannot evaluate sharding value in INSERT: {e}"))
    })?;
    if v.is_null() {
        return Err(KernelError::Route(
            "sharding column value in INSERT must not be NULL".into(),
        ));
    }
    Ok(v)
}

fn bound_ref(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ModAlgorithm, Props};
    use shard_sql::parse_statement;
    use std::sync::Arc;

    /// Build the paper's running configuration: `t_user` and `t_order`
    /// sharded by `uid % 2` across ds_0/ds_1.
    fn paper_rule(binding: bool) -> ShardingRule {
        let mut sr = ShardingRule::new(vec!["ds_0".into(), "ds_1".into()]);
        for t in ["t_user", "t_order"] {
            sr.add_table_rule(crate::config::TableRule {
                logic_table: t.to_string(),
                sharding_column: "uid".to_string(),
                algorithm: Arc::new(ModAlgorithm::new(None)),
                algorithm_type: "mod".to_string(),
                data_nodes: vec![
                    DataNode::new("ds_0", format!("{t}_h0")),
                    DataNode::new("ds_1", format!("{t}_h1")),
                ],
                props: Props::new(),
                key_generate_column: None,
                complex: None,
            })
            .unwrap();
        }
        if binding {
            sr.add_binding_group(&["t_user".into(), "t_order".into()])
                .unwrap();
        }
        sr
    }

    fn route(sr: &ShardingRule, sql: &str) -> RouteResult {
        let hint = RouteHint::default();
        let engine = RouteEngine::new(sr, &hint);
        engine.route(&parse_statement(sql).unwrap(), &[]).unwrap()
    }

    #[test]
    fn exact_single_node() {
        let sr = paper_rule(false);
        let r = route(&sr, "SELECT * FROM t_user WHERE uid = 4");
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].datasource, "ds_0");
        assert_eq!(r.units[0].actual_table("t_user"), Some("t_user_h0"));
    }

    #[test]
    fn in_list_routes_to_both_paper_example() {
        // Paper: SELECT * FROM t_user WHERE uid IN (1, 2) → both shards.
        let sr = paper_rule(false);
        let r = route(&sr, "SELECT * FROM t_user WHERE uid IN (1, 2)");
        assert_eq!(r.kind, RouteKind::Standard);
        let tables: Vec<_> = r
            .units
            .iter()
            .map(|u| u.actual_table("t_user").unwrap().to_string())
            .collect();
        assert!(tables.contains(&"t_user_h0".to_string()));
        assert!(tables.contains(&"t_user_h1".to_string()));
    }

    #[test]
    fn no_condition_broadcasts_to_all_nodes() {
        let sr = paper_rule(false);
        let r = route(&sr, "SELECT * FROM t_user");
        assert_eq!(r.units.len(), 2);
    }

    #[test]
    fn binding_join_paper_example() {
        // Paper: binding join produces exactly 2 SQLs, h0⋈h0 and h1⋈h1.
        let sr = paper_rule(true);
        let r = route(
            &sr,
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE uid IN (1, 2)",
        );
        assert_eq!(r.kind, RouteKind::Standard);
        assert_eq!(r.units.len(), 2);
        for u in &r.units {
            let user = u.actual_table("t_user").unwrap();
            let order = u.actual_table("t_order").unwrap();
            // aligned suffixes
            assert_eq!(user.chars().last(), order.chars().last());
        }
    }

    #[test]
    fn cartesian_join_paper_example() {
        // Paper: non-binding join splits into the Cartesian product — 4
        // combinations. With each shard pinned to one data source, only the
        // co-located combinations are executable: h0⋈h0 in ds_0, h1⋈h1 in
        // ds_1 (a real deployment has every table shard in every source; see
        // cartesian_full_product below).
        let sr = paper_rule(false);
        let r = route(
            &sr,
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE uid IN (1, 2)",
        );
        assert_eq!(r.kind, RouteKind::Cartesian);
        assert_eq!(r.units.len(), 2);
    }

    #[test]
    fn cartesian_full_product() {
        // Two tables × two shards per data source → 4 combos per source.
        let mut sr = ShardingRule::new(vec!["ds_0".into()]);
        for t in ["a", "b"] {
            sr.add_table_rule(crate::config::TableRule {
                logic_table: t.to_string(),
                sharding_column: "k".to_string(),
                algorithm: Arc::new(ModAlgorithm::new(None)),
                algorithm_type: "mod".to_string(),
                data_nodes: vec![
                    DataNode::new("ds_0", format!("{t}_0")),
                    DataNode::new("ds_0", format!("{t}_1")),
                ],
                props: Props::new(),
                key_generate_column: None,
                complex: None,
            })
            .unwrap();
        }
        let r = route(&sr, "SELECT * FROM a JOIN b ON a.x = b.x");
        assert_eq!(r.kind, RouteKind::Cartesian);
        assert_eq!(r.units.len(), 4);
    }

    #[test]
    fn insert_routes_per_row() {
        let sr = paper_rule(false);
        let r = route(
            &sr,
            "INSERT INTO t_user (uid, name) VALUES (2, 'a'), (3, 'b')",
        );
        assert_eq!(r.units.len(), 2);
        let r = route(
            &sr,
            "INSERT INTO t_user (uid, name) VALUES (2, 'a'), (4, 'b')",
        );
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].datasource, "ds_0");
    }

    #[test]
    fn insert_without_sharding_column_rejected() {
        let sr = paper_rule(false);
        let hint = RouteHint::default();
        let engine = RouteEngine::new(&sr, &hint);
        let stmt = parse_statement("INSERT INTO t_user (name) VALUES ('a')").unwrap();
        assert!(engine.route(&stmt, &[]).is_err());
        let stmt = parse_statement("INSERT INTO t_user (uid, name) VALUES (NULL, 'a')").unwrap();
        assert!(engine.route(&stmt, &[]).is_err());
    }

    #[test]
    fn ddl_broadcasts_to_all_nodes() {
        let sr = paper_rule(false);
        let r = route(&sr, "TRUNCATE TABLE t_user");
        assert_eq!(r.kind, RouteKind::Broadcast);
        assert_eq!(r.units.len(), 2);
    }

    #[test]
    fn unsharded_table_routes_to_default() {
        let sr = paper_rule(false);
        let r = route(&sr, "SELECT * FROM t_plain WHERE id = 1");
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units[0].datasource, "ds_0");
        assert_eq!(r.units[0].actual_table("t_plain"), Some("t_plain"));
    }

    #[test]
    fn broadcast_table_dql_reads_one_source() {
        let mut sr = paper_rule(false);
        sr.add_broadcast_tables(&["t_dict".into()]);
        let r = route(&sr, "SELECT * FROM t_dict");
        assert_eq!(r.units.len(), 1);
        let r = route(&sr, "INSERT INTO t_dict (k, v) VALUES (1, 'x')");
        assert_eq!(r.units.len(), 2); // writes go everywhere
    }

    #[test]
    fn update_delete_route_like_select() {
        let sr = paper_rule(false);
        let r = route(&sr, "UPDATE t_user SET name = 'x' WHERE uid = 3");
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units[0].datasource, "ds_1");
        let r = route(&sr, "DELETE FROM t_user WHERE uid BETWEEN 1 AND 9");
        assert_eq!(r.units.len(), 2);
    }

    #[test]
    fn hint_forces_datasource() {
        let sr = paper_rule(false);
        let hint = RouteHint {
            datasource: Some("ds_1".into()),
            table_values: HashMap::new(),
        };
        let engine = RouteEngine::new(&sr, &hint);
        let stmt = parse_statement("SELECT * FROM t_user").unwrap();
        let r = engine.route(&stmt, &[]).unwrap();
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].datasource, "ds_1");
    }

    #[test]
    fn hint_value_routes_without_where() {
        let sr = paper_rule(false);
        let mut hint = RouteHint::default();
        hint.table_values.insert("t_user".into(), Value::Int(5));
        let engine = RouteEngine::new(&sr, &hint);
        let stmt = parse_statement("SELECT * FROM t_user").unwrap();
        let r = engine.route(&stmt, &[]).unwrap();
        assert_eq!(r.units.len(), 1);
        assert_eq!(r.units[0].actual_table("t_user"), Some("t_user_h1"));
    }

    #[test]
    fn contradictory_condition_unicasts_for_shape() {
        let sr = paper_rule(false);
        let r = route(&sr, "SELECT * FROM t_user WHERE uid = 1 AND uid = 2");
        // One node answers with a correctly shaped empty result.
        assert_eq!(r.units.len(), 1);
    }

    #[test]
    fn binding_alias_shadowing() {
        // alias `u` for t_user, bare name appears nowhere else; conditions
        // qualified by the alias still route exactly.
        let sr = paper_rule(true);
        let r = route(
            &sr,
            "SELECT * FROM t_user u JOIN t_order o ON u.uid = o.uid WHERE u.uid = 2",
        );
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units[0].actual_table("t_order"), Some("t_order_h0"));
    }
}

#[cfg(test)]
mod complex_tests {
    use super::*;
    use crate::algorithm::{ComplexInlineAlgorithm, Props};
    use crate::config::{ComplexStrategy, ShardingRule, TableRule};
    use shard_sql::parse_statement;
    use std::sync::Arc;

    /// t_log sharded by (uid + region) % 4 across two sources.
    fn complex_rule() -> ShardingRule {
        let mut sr = ShardingRule::new(vec!["ds_0".into(), "ds_1".into()]);
        sr.add_table_rule(TableRule {
            logic_table: "t_log".into(),
            sharding_column: "uid".into(),
            algorithm: Arc::new(crate::algorithm::ModAlgorithm::new(None)),
            algorithm_type: "complex_inline".into(),
            data_nodes: (0..4)
                .map(|i| DataNode::new(format!("ds_{}", i % 2), format!("t_log_{i}")))
                .collect(),
            props: Props::new(),
            key_generate_column: None,
            complex: Some(ComplexStrategy {
                columns: vec!["uid".into(), "region".into()],
                algorithm: Arc::new(
                    ComplexInlineAlgorithm::new(
                        vec!["uid".into(), "region".into()],
                        "(uid + region) % 4",
                    )
                    .unwrap(),
                ),
            }),
        })
        .unwrap();
        sr
    }

    fn route(sr: &ShardingRule, sql: &str) -> RouteResult {
        let hint = RouteHint::default();
        RouteEngine::new(sr, &hint)
            .route(&parse_statement(sql).unwrap(), &[])
            .unwrap()
    }

    #[test]
    fn both_keys_present_routes_to_one_node() {
        let sr = complex_rule();
        let r = route(&sr, "SELECT * FROM t_log WHERE uid = 3 AND region = 2");
        assert_eq!(r.kind, RouteKind::Single);
        // (3 + 2) % 4 = 1 → t_log_1 on ds_1.
        assert_eq!(r.units[0].actual_table("t_log"), Some("t_log_1"));
        assert_eq!(r.units[0].datasource, "ds_1");
    }

    #[test]
    fn missing_key_broadcasts() {
        let sr = complex_rule();
        let r = route(&sr, "SELECT * FROM t_log WHERE uid = 3");
        assert_eq!(r.units.len(), 4);
    }

    #[test]
    fn complex_insert_routes_per_row() {
        let sr = complex_rule();
        let r = route(
            &sr,
            "INSERT INTO t_log (uid, region, msg) VALUES (3, 2, 'a'), (1, 0, 'b')",
        );
        // (3+2)%4=1 and (1+0)%4=1 → same shard, single unit.
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units[0].actual_table("t_log"), Some("t_log_1"));
    }

    #[test]
    fn complex_insert_missing_column_rejected() {
        let sr = complex_rule();
        let hint = RouteHint::default();
        let engine = RouteEngine::new(&sr, &hint);
        let stmt = parse_statement("INSERT INTO t_log (uid, msg) VALUES (3, 'a')").unwrap();
        assert!(engine.route(&stmt, &[]).is_err());
    }

    #[test]
    fn complex_update_uses_both_keys() {
        let sr = complex_rule();
        let r = route(
            &sr,
            "UPDATE t_log SET msg = 'x' WHERE uid = 1 AND region = 1",
        );
        assert_eq!(r.kind, RouteKind::Single);
        assert_eq!(r.units[0].actual_table("t_log"), Some("t_log_2"));
    }
}
