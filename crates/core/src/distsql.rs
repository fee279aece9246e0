//! DistSQL execution (paper §V-A): RDL creates/alters resources and rules
//! (including the AutoTable strategy), RQL inspects them, RAL administers
//! the cluster — all through SQL, "breaking the boundary between
//! middlewares and databases".

use crate::algorithm::Props;
use crate::config::{AutoTablePlanner, TableRule};
use crate::error::{KernelError, Result};
use crate::executor::ExecutionInput;
use crate::obs::Stage;
use crate::plan::Plan;
use crate::route::{GlobalIndex, RouteEngine, RouteHint};
use crate::runtime::Session;
use shard_sql::ast::{DataType, DistSqlStatement, ShardingRuleSpec, Statement};
use shard_sql::{format_statement, parse_statement, Dialect, Value};
use shard_storage::{
    ExecuteResult, FaultKind, FaultOp, FaultPlan, FaultTrigger, ResultSet, StorageEngine,
};

pub fn execute(session: &mut Session, stmt: &DistSqlStatement) -> Result<ExecuteResult> {
    match stmt {
        // --- RDL ------------------------------------------------------------
        DistSqlStatement::CreateShardingTableRule { alter, rule } => {
            create_sharding_rule(session, rule, *alter)
        }
        DistSqlStatement::DropShardingTableRule { table } => {
            let runtime = session.runtime().clone();
            runtime.reconfigure(|rule| rule.drop_table_rule(table))?;
            runtime
                .registry()
                .delete(&format!("rules/sharding/{table}"));
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::CreateBindingTableRule { tables } => {
            let runtime = session.runtime().clone();
            runtime.reconfigure(|rule| rule.add_binding_group(tables))?;
            runtime
                .registry()
                .set(&format!("rules/binding/{}", tables.join(",")), "bound");
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::DropBindingTableRule { tables } => {
            let runtime = session.runtime().clone();
            runtime.reconfigure(|rule| rule.drop_binding_group(tables));
            runtime
                .registry()
                .delete(&format!("rules/binding/{}", tables.join(",")));
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::CreateBroadcastTableRule { tables } => {
            let runtime = session.runtime().clone();
            runtime.reconfigure(|rule| rule.add_broadcast_tables(tables));
            for t in tables {
                runtime
                    .registry()
                    .set(&format!("rules/broadcast/{t}"), "on");
            }
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::DropBroadcastTableRule { tables } => {
            let runtime = session.runtime().clone();
            runtime.reconfigure(|rule| rule.drop_broadcast_tables(tables));
            for t in tables {
                runtime.registry().delete(&format!("rules/broadcast/{t}"));
            }
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::CreateReadwriteSplittingRule {
            name,
            write_resource,
            read_resources,
        } => {
            let runtime = session.runtime().clone();
            // Validate that the referenced resources exist.
            for r in std::iter::once(write_resource).chain(read_resources.iter()) {
                runtime.datasource(r)?;
            }
            runtime.add_rw_split(crate::feature::ReadWriteSplitRule::new(
                name.clone(),
                write_resource.clone(),
                read_resources.clone(),
            ));
            runtime.registry().set(
                &format!("rules/readwrite_splitting/{name}"),
                format!("write={write_resource}, read={}", read_resources.join(",")),
            );
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::ShowReadwriteSplittingRules => {
            let runtime = session.runtime().clone();
            let groups = runtime.rw_split.read();
            let mut rows: Vec<Vec<Value>> = groups
                .values()
                .map(|g| {
                    vec![
                        Value::Str(g.logical_name.clone()),
                        Value::Str(g.primary.clone()),
                        Value::Str(g.replicas.join(", ")),
                    ]
                })
                .collect();
            rows.sort();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "name".into(),
                    "write_resource".into(),
                    "read_resources".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::AddResource { name, props } => {
            let runtime = session.runtime().clone();
            // Our resources are embedded engines; HOST/PORT props are
            // accepted for syntax compatibility and recorded as metadata.
            let engine = StorageEngine::new(name.clone());
            runtime.add_datasource(name, engine, 64);
            for (k, v) in props {
                runtime
                    .registry()
                    .set(&format!("resources/{name}/{k}"), v.clone());
            }
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::DropResource { name } => {
            session.runtime().drop_datasource(name)?;
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::CreateGlobalIndex { table, column } => {
            create_global_index(session, table, column)
        }
        DistSqlStatement::DropGlobalIndex { table, column } => {
            drop_global_index(session, table, column)
        }

        // --- RQL ------------------------------------------------------------
        DistSqlStatement::ShowShardingTableRules { table } => {
            let runtime = session.runtime().clone();
            let rule = runtime.rule.read();
            let mut rows = Vec::new();
            let mut rules: Vec<&TableRule> = rule.table_rules().collect();
            rules.sort_by(|a, b| a.logic_table.cmp(&b.logic_table));
            for r in rules {
                if let Some(t) = table {
                    if !r.logic_table.eq_ignore_ascii_case(t) {
                        continue;
                    }
                }
                rows.push(vec![
                    Value::Str(r.logic_table.clone()),
                    Value::Str(r.sharding_column.clone()),
                    Value::Str(r.algorithm_type.clone()),
                    Value::Int(r.data_nodes.len() as i64),
                    Value::Str(
                        r.data_nodes
                            .iter()
                            .map(|n| n.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                ]);
            }
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "table".into(),
                    "sharding_column".into(),
                    "algorithm_type".into(),
                    "shard_count".into(),
                    "data_nodes".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::ShowBindingTableRules => {
            let runtime = session.runtime().clone();
            let groups = runtime.rule.read().binding_groups();
            let rows = groups
                .into_iter()
                .map(|g| vec![Value::Str(g.join(", "))])
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["binding_tables".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowBroadcastTableRules => {
            let runtime = session.runtime().clone();
            let rows = runtime
                .rule
                .read()
                .broadcast_tables()
                .into_iter()
                .map(|t| vec![Value::Str(t)])
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["broadcast_table".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowResources => {
            let runtime = session.runtime().clone();
            let rows = runtime
                .datasource_names()
                .into_iter()
                .map(|n| {
                    let enabled = runtime
                        .datasource(&n)
                        .map(|d| d.is_enabled())
                        .unwrap_or(false);
                    vec![
                        Value::Str(n),
                        Value::Str(if enabled { "enabled" } else { "disabled" }.into()),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["resource".into(), "status".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowShardingAlgorithms => {
            let runtime = session.runtime().clone();
            let rows = runtime
                .algorithms
                .read()
                .type_names()
                .into_iter()
                .map(|n| vec![Value::Str(n)])
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["algorithm_type".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowGlobalIndexes => {
            let rows = session
                .runtime()
                .gsi()
                .list()
                .into_iter()
                .map(|i| {
                    vec![
                        Value::Str(i.logic_table.clone()),
                        Value::Str(i.column.clone()),
                        Value::Str(i.hidden_table.clone()),
                        Value::Str(i.datasources.join(", ")),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "table".into(),
                    "column".into(),
                    "hidden_table".into(),
                    "datasources".into(),
                ],
                rows,
            )))
        }

        // --- RAL ------------------------------------------------------------
        DistSqlStatement::SetVariable { name, value } => {
            crate::settings::set(session, name, value)?;
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::ShowVariable { name } => {
            let value = crate::settings::show(session, name)?;
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["variable".into(), "value".into()],
                vec![vec![Value::Str(name.clone()), Value::Str(value)]],
            )))
        }
        DistSqlStatement::ShowSqlPlanCacheStatus => {
            let status = session.runtime().plan_cache().status();
            let row = |level: &str, s: &crate::cache::CacheLevelStatus| {
                vec![
                    Value::Str(level.into()),
                    Value::Int(s.hits as i64),
                    Value::Int(s.misses as i64),
                    Value::Int(s.evictions as i64),
                    Value::Int(s.size as i64),
                    Value::Int(s.capacity as i64),
                ]
            };
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "level".into(),
                    "hits".into(),
                    "misses".into(),
                    "evictions".into(),
                    "size".into(),
                    "capacity".into(),
                ],
                vec![row("parse", &status.parse), row("plan", &status.plan)],
            )))
        }
        DistSqlStatement::ShowDataSourceHealth => {
            let runtime = session.runtime().clone();
            let mut names = runtime.datasource_names();
            names.sort();
            let rows = names
                .into_iter()
                .filter_map(|n| runtime.datasource(&n).ok())
                .map(|ds| {
                    let breaker = ds.breaker();
                    vec![
                        Value::Str(ds.name.clone()),
                        Value::Str(
                            if ds.is_enabled() {
                                "enabled"
                            } else {
                                "disabled"
                            }
                            .into(),
                        ),
                        Value::Str(breaker.state().as_str().into()),
                        Value::Int(breaker.consecutive_failures() as i64),
                        breaker
                            .last_probe_ms()
                            .map(|ms| Value::Int(ms as i64))
                            .unwrap_or(Value::Null),
                        Value::Int(ds.engine().fault_injector().active_plans() as i64),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "resource".into(),
                    "status".into(),
                    "breaker_state".into(),
                    "consecutive_failures".into(),
                    "last_probe_ms_ago".into(),
                    "active_faults".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::InjectFault { datasource, spec } => {
            let ds = session.runtime().datasource(datasource)?;
            let plan = fault_plan_from_spec(spec)?;
            ds.engine().fault_injector().inject(plan);
            Ok(ExecuteResult::Update { affected: 0 })
        }
        DistSqlStatement::ClearFaults { datasource } => {
            let runtime = session.runtime().clone();
            let targets = match datasource {
                Some(name) => vec![runtime.datasource(name)?],
                None => runtime
                    .datasource_names()
                    .into_iter()
                    .filter_map(|n| runtime.datasource(&n).ok())
                    .collect(),
            };
            let mut cleared = 0u64;
            for ds in targets {
                cleared += ds.engine().fault_injector().active_plans() as u64;
                ds.engine().clear_faults();
            }
            Ok(ExecuteResult::Update { affected: cleared })
        }
        DistSqlStatement::Preview { sql } => preview(session, sql),
        DistSqlStatement::ExplainAnalyze { sql } => explain_analyze(session, sql),
        DistSqlStatement::ShowMetrics { like } => {
            let samples = session
                .runtime()
                .metrics_registry()
                .samples(like.as_deref());
            let rows = samples
                .into_iter()
                .map(|s| vec![Value::Str(s.name), Value::Int(s.value as i64)])
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["metric".into(), "value".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowSlowQueries => {
            let verdict = |v: Option<&str>| v.map_or(Value::Null, |v| Value::Str(v.into()));
            let rows = session
                .runtime()
                .slow_query_log()
                .entries()
                .into_iter()
                .map(|e| {
                    let record = &e.record;
                    let stages = Stage::ALL
                        .iter()
                        .zip(record.stage_us())
                        .filter(|(_, us)| *us > 0)
                        .map(|(s, us)| format!("{}={}us", s.as_str(), us))
                        .collect::<Vec<_>>()
                        .join(" ");
                    vec![
                        Value::Int(e.seq as i64),
                        Value::Str(record.sql.clone()),
                        Value::Int(record.total_us as i64),
                        Value::Str(stages),
                        Value::Int(record.units().count() as i64),
                        Value::Int(record.verdicts.rows as i64),
                        verdict(record.verdicts.route_strategy),
                        verdict(record.verdicts.scan_mode),
                        verdict(record.verdicts.reshard_state),
                        Value::Int(record.trace_id as i64),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "seq".into(),
                    "sql".into(),
                    "total_us".into(),
                    "stages".into(),
                    "units".into(),
                    "rows".into(),
                    "route_strategy".into(),
                    "scan_mode".into(),
                    "reshard_state".into(),
                    "trace_id".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::ShowTrace { id: Some(id) } => {
            let trace = session
                .runtime()
                .trace_collector()
                .trace(*id)
                .ok_or_else(|| {
                    KernelError::Config(format!(
                        "trace {id} is not in the collector ring (evicted or never sampled)"
                    ))
                })?;
            let rows = trace
                .render()
                .into_iter()
                .map(|line| vec![Value::Str(line)])
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec!["span".into()],
                rows,
            )))
        }
        DistSqlStatement::ShowTrace { id: None } => {
            let rows = session
                .runtime()
                .trace_collector()
                .traces()
                .into_iter()
                .map(|t| {
                    vec![
                        Value::Int(t.trace_id as i64),
                        Value::Str(t.origin.clone()),
                        Value::Str(t.sql.clone()),
                        Value::Int(t.total_us as i64),
                        Value::Int(t.spans.len() as i64),
                        t.error.clone().map(Value::Str).unwrap_or(Value::Null),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "trace_id".into(),
                    "origin".into(),
                    "sql".into(),
                    "total_us".into(),
                    "spans".into(),
                    "error".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::ShowIncidents => {
            let rows = session
                .runtime()
                .trace_collector()
                .incidents()
                .into_iter()
                .map(|i| {
                    vec![
                        Value::Int(i.seq as i64),
                        Value::Str(i.kind.as_str().into()),
                        Value::Str(i.detail.clone()),
                        i.trace_id
                            .map(|t| Value::Int(t as i64))
                            .unwrap_or(Value::Null),
                        Value::Int(i.frozen.len() as i64),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "seq".into(),
                    "kind".into(),
                    "detail".into(),
                    "trace_id".into(),
                    "frozen_traces".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::ReshardTable { rule, throttle } => {
            let runtime = session.runtime().clone();
            let report = crate::feature::reshard_with(
                &runtime,
                rule,
                crate::feature::ReshardOptions {
                    throttle_rows_per_sec: *throttle,
                },
            )?;
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "table".into(),
                    "rows_migrated".into(),
                    "mirrored_writes".into(),
                    "old_nodes".into(),
                    "new_nodes".into(),
                    "fence_us".into(),
                    "warnings".into(),
                ],
                vec![vec![
                    Value::Str(report.table.clone()),
                    Value::Int(report.rows_migrated as i64),
                    Value::Int(report.mirrored_writes as i64),
                    Value::Int(report.old_nodes as i64),
                    Value::Int(report.new_nodes as i64),
                    Value::Int(report.fence_us as i64),
                    Value::Str(report.warnings.join("; ")),
                ]],
            )))
        }
        DistSqlStatement::ShowReshardStatus => {
            let rows = session
                .runtime()
                .reshard_manager()
                .statuses()
                .into_iter()
                .map(|s| {
                    vec![
                        Value::Str(s.table),
                        Value::Str(s.phase.as_str().to_string()),
                        Value::Int(s.rows_copied as i64),
                        Value::Int(s.mirrored_writes as i64),
                        Value::Int(s.lag_rows as i64),
                        Value::Int(s.fence_us as i64),
                        s.throttle_rows_per_sec
                            .map(|n| Value::Int(n as i64))
                            .unwrap_or(Value::Null),
                        Value::Str(s.transitions.join(" -> ")),
                        s.error.map(Value::Str).unwrap_or(Value::Null),
                    ]
                })
                .collect();
            Ok(ExecuteResult::Query(ResultSet::new(
                vec![
                    "table".into(),
                    "phase".into(),
                    "rows_copied".into(),
                    "mirrored_writes".into(),
                    "lag_rows".into(),
                    "fence_us".into(),
                    "throttle".into(),
                    "transitions".into(),
                    "error".into(),
                ],
                rows,
            )))
        }
        DistSqlStatement::CancelReshard { table } => {
            let flagged = session.runtime().reshard_manager().cancel(table.as_deref());
            Ok(ExecuteResult::Update {
                affected: flagged as u64,
            })
        }
    }
}

/// `CREATE GLOBAL INDEX ON <table> (<column>)`: create the hidden mapping
/// table on every rule data source, backfill it from the existing base rows,
/// and register the index so routing and maintenance pick it up.
fn create_global_index(session: &mut Session, table: &str, column: &str) -> Result<ExecuteResult> {
    let runtime = session.runtime().clone();
    let column = column.to_lowercase();
    let (sharding_column, datasources, data_nodes) = {
        let rule = runtime.rule.read();
        let tr = rule.table_rule(table).ok_or_else(|| {
            KernelError::Config(format!(
                "global indexes require a sharded table; '{table}' has no sharding rule"
            ))
        })?;
        if tr.sharding_column.eq_ignore_ascii_case(&column) {
            return Err(KernelError::Config(format!(
                "'{column}' is the sharding column of '{table}'; equality on it already routes exactly"
            )));
        }
        (
            tr.sharding_column.clone(),
            tr.datasources(),
            tr.data_nodes.clone(),
        )
    };
    let index = GlobalIndex::new(table, &column, datasources);
    if runtime
        .gsi()
        .get(&index.logic_table, &index.column)
        .is_some()
    {
        return Err(KernelError::Config(format!(
            "global index on {table}({column}) already exists"
        )));
    }

    // Hidden-table column types come from the logical schema when the
    // application registered one; Text otherwise (values coerce on compare).
    let col_type = |name: &str| -> DataType {
        runtime
            .schemas()
            .get(table)
            .and_then(|s| {
                s.columns
                    .iter()
                    .find(|c| c.name.eq_ignore_ascii_case(name))
                    .map(|c| c.data_type)
            })
            .unwrap_or(DataType::Text)
    };
    let create = Statement::CreateTable(
        index.create_table_stmt(col_type(&index.column), col_type(&sharding_column)),
    );
    for ds_name in &index.datasources {
        runtime
            .datasource(ds_name)?
            .engine()
            .execute(&create, &[], None)
            .map_err(KernelError::Storage)?;
    }

    // Backfill: reference-count every existing (index value, shard-key
    // value) pair into its entry data source.
    let mut backfilled = 0u64;
    let (upd, ins) = index.add_ref_sqls();
    for node in &data_nodes {
        let scan = format!(
            "SELECT {}, {} FROM {}",
            index.column, sharding_column, node.table
        );
        let rows = runtime
            .datasource(&node.datasource)?
            .engine()
            .execute_sql(&scan, &[], None)
            .map_err(KernelError::Storage)?
            .query()
            .rows;
        for mut row in rows {
            if row.len() < 2 {
                continue;
            }
            let shard_val = row.pop().unwrap();
            let idx_val = row.pop().unwrap();
            if idx_val == Value::Null {
                continue;
            }
            let entry = runtime.datasource(index.entry_datasource(&idx_val))?;
            let params = vec![idx_val, shard_val];
            let bumped = entry
                .engine()
                .execute_sql(&upd, &params, None)
                .map_err(KernelError::Storage)?;
            if bumped.affected() == 0 {
                entry
                    .engine()
                    .execute_sql(&ins, &params, None)
                    .map_err(KernelError::Storage)?;
            }
            backfilled += 1;
        }
    }

    runtime.registry().set(
        &format!("rules/global_index/{}.{}", index.logic_table, index.column),
        index.hidden_table.clone(),
    );
    runtime.reconfigure(|_| runtime.gsi().add(index));
    Ok(ExecuteResult::Update {
        affected: backfilled,
    })
}

/// `DROP GLOBAL INDEX ON <table> (<column>)`: unregister the index and drop
/// its hidden mapping table everywhere.
fn drop_global_index(session: &mut Session, table: &str, column: &str) -> Result<ExecuteResult> {
    let runtime = session.runtime().clone();
    let index = runtime
        .reconfigure(|_| runtime.gsi().remove(table, column))
        .ok_or_else(|| KernelError::Config(format!("no global index on {table}({column})")))?;
    let drop = Statement::DropTable(index.drop_table_stmt());
    for ds_name in &index.datasources {
        if let Ok(ds) = runtime.datasource(ds_name) {
            let _ = ds.engine().execute(&drop, &[], None);
        }
    }
    runtime.registry().delete(&format!(
        "rules/global_index/{}.{}",
        index.logic_table, index.column
    ));
    Ok(ExecuteResult::Update { affected: 0 })
}

/// `EXPLAIN ANALYZE <sql>`: execute the statement with tracing forced on and
/// return the stage/unit timing tree, one tree line per result row.
fn explain_analyze(session: &mut Session, sql: &str) -> Result<ExecuteResult> {
    let (_, trace) = session.execute_traced(sql, &[])?;
    let rows = trace
        .render()
        .into_iter()
        .map(|line| vec![Value::Str(line)])
        .collect();
    Ok(ExecuteResult::Query(ResultSet::new(
        vec!["step".into()],
        rows,
    )))
}

/// Interpret a parsed `INJECT FAULT` body against the storage fault model.
fn fault_plan_from_spec(spec: &shard_sql::ast::FaultSpec) -> Result<FaultPlan> {
    let op = FaultOp::parse(&spec.operation).ok_or_else(|| {
        KernelError::Config(format!(
            "unknown fault OPERATION '{}' (expected scan_open, row_pull, write, \
             prepare, commit, commit_prepared or ping)",
            spec.operation
        ))
    })?;
    let kind = match spec.action.as_str() {
        "error" => FaultKind::Error(
            spec.message
                .clone()
                .unwrap_or_else(|| "injected fault".into()),
        ),
        "latency" => FaultKind::Latency(std::time::Duration::from_millis(
            spec.millis
                .ok_or_else(|| KernelError::Config("ACTION=latency requires MILLIS".into()))?,
        )),
        "hang" => FaultKind::Hang {
            max: std::time::Duration::from_millis(spec.millis.unwrap_or(30_000)),
        },
        other => {
            return Err(KernelError::Config(format!(
                "unknown fault ACTION '{other}' (expected error, latency or hang)"
            )))
        }
    };
    let trigger = match spec.trigger.as_str() {
        "once" => FaultTrigger::Once,
        "every" => FaultTrigger::EveryNth(
            spec.every
                .filter(|n| *n > 0)
                .ok_or_else(|| KernelError::Config("TRIGGER=every requires EVERY >= 1".into()))?,
        ),
        "probability" => FaultTrigger::Probability {
            p: spec.probability.ok_or_else(|| {
                KernelError::Config("TRIGGER=probability requires PROBABILITY".into())
            })?,
            seed: spec.seed.unwrap_or(0),
        },
        other => {
            return Err(KernelError::Config(format!(
                "unknown fault TRIGGER '{other}' (expected once, every or probability)"
            )))
        }
    };
    Ok(FaultPlan::new(op, kind, trigger))
}

/// `CREATE|ALTER SHARDING TABLE RULE` — the AutoTable strategy: compute the
/// data distribution and (when the logical schema is known) create the
/// physical tables on the underlying data sources.
fn create_sharding_rule(
    session: &mut Session,
    spec: &ShardingRuleSpec,
    alter: bool,
) -> Result<ExecuteResult> {
    let runtime = session.runtime().clone();
    {
        let rule = runtime.rule.read();
        if !alter && rule.is_sharded(&spec.table) {
            return Err(KernelError::Config(format!(
                "sharding rule for '{}' already exists (use ALTER)",
                spec.table
            )));
        }
    }
    let data_nodes = AutoTablePlanner::plan_data_nodes(spec)?;
    let props: Props = spec.props.iter().cloned().collect();
    let is_complex = spec.sharding_column.contains(',')
        || spec.algorithm_type.eq_ignore_ascii_case("complex_inline");
    let algorithm = if is_complex {
        // Complex rules route through their ComplexStrategy; the standard
        // algorithm slot is an unused placeholder.
        std::sync::Arc::new(crate::algorithm::ModAlgorithm::new(None)) as _
    } else {
        runtime
            .algorithms
            .read()
            .create(&spec.algorithm_type, &props)?
    };
    let key_generate_column = props.get("key-generate-column").cloned();
    // Multi-column sharding keys (SHARDING_COLUMN=a,b) build a complex
    // strategy from the algorithm expression.
    let columns: Vec<String> = spec
        .sharding_column
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    let complex = if is_complex {
        let expression = props.get("algorithm-expression").ok_or_else(|| {
            KernelError::Config(
                "multi-column sharding requires PROPERTIES(\"algorithm-expression\"=..)".into(),
            )
        })?;
        Some(crate::config::ComplexStrategy {
            columns: columns.clone(),
            algorithm: std::sync::Arc::new(crate::algorithm::ComplexInlineAlgorithm::new(
                columns.clone(),
                expression,
            )?),
        })
    } else {
        None
    };
    let table_rule = TableRule {
        logic_table: spec.table.clone(),
        sharding_column: columns
            .first()
            .cloned()
            .unwrap_or_else(|| spec.sharding_column.clone()),
        algorithm,
        algorithm_type: spec.algorithm_type.clone(),
        data_nodes: data_nodes.clone(),
        props,
        key_generate_column,
        complex,
    };
    runtime.reconfigure(|rule| rule.add_table_rule(table_rule))?;
    runtime.registry().set(
        &format!("rules/sharding/{}", spec.table),
        format!(
            "column={}, type={}, nodes={}",
            spec.sharding_column,
            spec.algorithm_type,
            data_nodes.len()
        ),
    );

    // AutoTable: create the physical tables when the logical schema is known.
    if let Some(schema) = runtime.schemas().get(&spec.table) {
        for node in &data_nodes {
            let ddl = AutoTablePlanner::physical_ddl(&schema, node);
            let ds = runtime.datasource(&node.datasource)?;
            ds.engine()
                .execute(&ddl, &[], None)
                .map_err(KernelError::Storage)?;
        }
    }
    Ok(ExecuteResult::Update { affected: 0 })
}

/// `PREVIEW <sql>`: show the route + rewrite result without executing.
fn preview(session: &mut Session, sql: &str) -> Result<ExecuteResult> {
    let stmt = parse_statement(sql)?;
    let runtime = session.runtime().clone();
    let hint = RouteHint::default();
    let rule = runtime.rule.read();
    let route = RouteEngine::new(&rule, &hint).route(&stmt, &[])?;
    drop(rule);
    let bound = Plan::bind_routed(route, &stmt, &[], runtime.agg_pushdown())?;
    let mut rows = Vec::new();
    for ExecutionInput { unit, stmt } in bound.inputs {
        rows.push(vec![
            Value::Str(unit.datasource.clone()),
            Value::Str(format_statement(&stmt, Dialect::MySql)),
        ]);
    }
    Ok(ExecuteResult::Query(ResultSet::new(
        vec!["data_source".into(), "actual_sql".into()],
        rows,
    )))
}
