//! End-to-end distributed-tracing integration tests: cross-layer span
//! trees (proxy frame → kernel stages → per-branch executor/storage spans),
//! head sampling plus tail-based keep, the flight recorder's incident
//! store, the SLO burn-rate monitor, and background-job traces (reshard).

#[path = "common/users.rs"]
mod users;

use shard_core::{IncidentKind, Session, ShardingRuntime, TransactionType};
use shard_sql::Value;
use shard_storage::{FaultKind, FaultOp, FaultPlan, FaultTrigger};
use std::sync::Arc;
use users::{load_users, sharded_runtime};

fn inject(runtime: &Arc<ShardingRuntime>, ds: &str, plan: FaultPlan) {
    runtime
        .datasource(ds)
        .unwrap()
        .engine()
        .fault_injector()
        .inject(plan);
}

/// Acceptance: a sampled multi-shard statement renders as one tree — root
/// frame, kernel stage spans, an execute span with one unit span per shard
/// branch, and storage-level children (MVCC snapshots on the read path,
/// WAL flushes on the XA commit path) — retrievable by trace id.
#[test]
fn sampled_statement_renders_cross_layer_tree() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("SET trace_sample = 1", &[]).unwrap();
    load_users(&mut s, 8);
    s.execute_sql("SELECT COUNT(*) FROM t_user", &[]).unwrap();

    let collector = runtime.trace_collector();
    let traces = collector.traces();
    let scan = traces
        .iter()
        .find(|t| t.sql.contains("SELECT COUNT"))
        .expect("scatter SELECT was sampled");

    // Root: a session-minted statement frame.
    let root = scan.span("statement").expect("root span");
    assert_eq!(root.parent, None);
    assert_eq!(scan.origin, "session");
    // Kernel stages hang off the root.
    for stage in ["parse", "route"] {
        let sp = scan.span(stage).unwrap_or_else(|| panic!("{stage} span"));
        assert_eq!(sp.parent, Some(root.id));
    }
    // The execute span owns one unit span per shard branch (a scatter
    // COUNT over two data sources → at least two units).
    let exec = scan.span("execute").expect("execute span");
    assert_eq!(exec.parent, Some(root.id));
    let units: Vec<_> = scan
        .spans
        .iter()
        .filter(|sp| sp.name == "unit" && sp.parent == Some(exec.id))
        .collect();
    assert!(units.len() >= 2, "expected >=2 unit spans, got {units:?}");
    assert!(units.iter().any(|u| u.detail.contains("ds_0")));
    assert!(units.iter().any(|u| u.detail.contains("ds_1")));

    // Storage-level children under the unit spans — the cross-layer part
    // of the read path: each branch registers an MVCC snapshot.
    let snap = scan.span("mvcc_snapshot").expect("mvcc_snapshot span");
    let snap_parent = scan.spans[snap.parent.unwrap() as usize].clone();
    assert_eq!(snap_parent.name, "unit");

    // The streaming door (the proxy's) records the same tree, single-unit
    // direct cursor and scatter producers alike: each unit's span closes
    // with the rows the merger pulled from it and owns the storage spans of
    // its cursor open.
    for (sql, units, rows) in [
        ("SELECT name FROM t_user WHERE uid = 3", 1, 1),
        ("SELECT uid FROM t_user ORDER BY uid", 4, 8),
    ] {
        let streamed = s.query_stream(sql, &[]).unwrap();
        assert!(streamed.is_streaming(), "{sql}");
        assert_eq!(streamed.into_result_set().unwrap().len(), rows as usize);
        let trace = collector.traces().into_iter().find(|t| t.sql == sql);
        let trace = trace.unwrap_or_else(|| panic!("{sql} was sampled"));
        assert_eq!(trace.verdicts.rows, rows, "{sql}");
        assert_eq!(trace.units().count(), units, "{:?}", trace.spans);
        assert_eq!(trace.units().map(|u| u.rows.unwrap()).sum::<u64>(), rows);
        for unit in trace.units() {
            let opened = |sp: &&shard_core::obs::Span| {
                sp.name == "cursor_open" && sp.parent == Some(unit.id)
            };
            assert!(
                trace.spans.iter().any(|sp| opened(&sp)),
                "{:?}",
                trace.spans
            );
        }
    }

    // The write path: an explicit XA commit flushes each branch's WAL
    // durably, and the flush reports under that branch's commit span.
    s.set_transaction_type(TransactionType::Xa).unwrap();
    s.begin().unwrap();
    s.execute_sql(
        "INSERT INTO t_user (uid, name, age) VALUES (50, 'e', 5), (51, 'f', 6)",
        &[],
    )
    .unwrap();
    s.commit().unwrap();
    let commit = collector
        .traces()
        .into_iter()
        .find(|t| t.sql == "COMMIT")
        .expect("XA commit was sampled");
    let flush = commit.span("wal_flush").expect("wal_flush storage span");
    let flush_parent = commit.spans[flush.parent.unwrap() as usize].clone();
    assert_eq!(flush_parent.name, "xa_commit");

    // Retrievable by id, and the rendered tree nests storage spans.
    let by_id = collector.trace(commit.trace_id).expect("lookup by id");
    let lines = by_id.render();
    assert!(lines[0].contains(&format!("trace {}", commit.trace_id)));
    assert!(lines.iter().any(|l| l.contains("wal_flush")), "{lines:?}");
}

/// Satellite 4 (chaos): a statement hitting an injected `commit_prepared`
/// fault yields one trace containing the proxy frame span and the failed
/// branch span with its error classification, and the flight recorder
/// freezes an incident whose ring contains that failing span.
#[test]
fn injected_commit_fault_traces_branch_and_records_incident() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);
    s.execute_sql("SET trace_sample = 1", &[]).unwrap();
    s.set_trace_origin("proxy:conn-1");
    s.set_transaction_type(TransactionType::Xa).unwrap();

    s.begin().unwrap();
    // Touch both data sources so the XA commit has two branches.
    s.execute_sql(
        "INSERT INTO t_user (uid, name, age) VALUES (10, 'a', 1), (11, 'b', 2), (12, 'c', 3), (13, 'd', 4)",
        &[],
    )
    .unwrap();
    inject(
        &runtime,
        "ds_1",
        FaultPlan::new(
            FaultOp::CommitPrepared,
            FaultKind::Error("commit refused".into()),
            FaultTrigger::Once,
        ),
    );
    // Phase-2 branch failures do not abort the commit (recovery re-drives
    // the prepared branch), but the trace and the flight recorder see them.
    s.commit().unwrap();

    let collector = runtime.trace_collector();
    let commit_trace = collector
        .traces()
        .into_iter()
        .find(|t| t.sql == "COMMIT")
        .expect("XA commit was traced");
    assert_eq!(commit_trace.origin, "proxy:conn-1");
    let root = commit_trace.span("proxy_frame").expect("proxy frame root");
    assert_eq!(root.parent, None);
    // Both branches prepared; the ds_1 commit branch carries the fault.
    let prepares: Vec<_> = commit_trace
        .spans
        .iter()
        .filter(|sp| sp.name == "xa_prepare")
        .collect();
    assert_eq!(prepares.len(), 2, "{:?}", commit_trace.spans);
    let failed = commit_trace
        .spans
        .iter()
        .find(|sp| sp.name == "xa_commit" && sp.error.is_some())
        .expect("failed commit branch span");
    assert!(failed.detail.contains("ds_1"), "{failed:?}");
    assert!(
        failed.error.as_deref().unwrap().contains("injected fault"),
        "{failed:?}"
    );

    // The flight recorder froze an incident classified as an injected
    // fault, and its frozen ring contains the trace with the failing span.
    let incidents = collector.incidents();
    let incident = incidents
        .iter()
        .find(|i| i.kind == IncidentKind::InjectedFault)
        .expect("injected-fault incident");
    assert!(incident.detail.contains("injected fault"), "{incident:?}");
    let frozen = incident
        .frozen
        .iter()
        .find(|t| t.trace_id == commit_trace.trace_id)
        .expect("incident froze the failing trace");
    assert!(frozen
        .spans
        .iter()
        .any(|sp| sp.name == "xa_commit" && sp.error.is_some()));

    // The same anomaly through the RAL surface.
    let rs = s.execute_sql("SHOW INCIDENTS", &[]).unwrap().query();
    assert!(
        rs.rows
            .iter()
            .any(|r| r[1] == Value::Str("injected_fault".into())),
        "{:?}",
        rs.rows
    );
}

/// Tail-based keep: with head sampling effectively off (1-in-1000), a
/// statement that errors still leaves a minimal error trace plus an
/// incident — failures are always reconstructible.
#[test]
fn unsampled_errors_are_tail_kept() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    s.execute_sql("SET trace_sample = 1/1000", &[]).unwrap();
    load_users(&mut s, 2); // first statement consumes the always-sampled tick
    let kept_before = runtime.trace_collector().kept_total();

    inject(
        &runtime,
        "ds_0",
        FaultPlan::new(
            FaultOp::Write,
            FaultKind::Error("disk full".into()),
            FaultTrigger::Once,
        ),
    );
    let mut failures = 0;
    for uid in 100..110 {
        if s.execute_sql(
            "INSERT INTO t_user (uid, name, age) VALUES (?, 'x', 1)",
            &[Value::Int(uid)],
        )
        .is_err()
        {
            failures += 1;
        }
    }
    assert_eq!(failures, 1, "fault fires exactly once");

    let collector = runtime.trace_collector();
    assert!(collector.kept_total() > kept_before, "error was tail-kept");
    let error_trace = collector
        .traces()
        .into_iter()
        .find(|t| t.error.is_some())
        .expect("tail-kept error trace");
    assert!(
        error_trace.error.as_deref().unwrap().contains("injected"),
        "{error_trace:?}"
    );
    let incident = &collector.incidents()[0];
    assert_eq!(incident.kind, IncidentKind::InjectedFault);
    assert_eq!(incident.trace_id, Some(error_trace.trace_id));
}

/// SLO burn-rate monitor: an armed error objective plus a run of failing
/// statements fires exactly one breach episode — counted on
/// `slo_breaches_total` and frozen as a flight-recorder incident.
#[test]
fn slo_error_burn_fires_one_breach_incident() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 2);
    s.execute_sql("SET slo_error_pct = 1", &[]).unwrap();

    // Statements that fail in routing (unknown table) still count against
    // the error budget.
    for _ in 0..10 {
        let _ = s.execute_sql("SELECT * FROM missing_table", &[]);
    }
    assert!(runtime.slo_monitor().breaches_total() >= 1);
    assert_eq!(runtime.slo_monitor().breaches_total(), 1, "breach latched");
    let incidents = runtime.trace_collector().incidents();
    let breach = incidents
        .iter()
        .find(|i| i.kind == IncidentKind::SloBreach)
        .expect("slo breach incident");
    assert!(breach.detail.contains("burn"), "{:?}", breach.detail);

    // Burn gauges are visible on the registry.
    let rs = s
        .execute_sql("SHOW METRICS LIKE 'slo_%'", &[])
        .unwrap()
        .query();
    let find = |name: &str| {
        rs.rows
            .iter()
            .find(|r| r[0] == Value::Str(name.into()))
            .map(|r| r[1].clone())
            .unwrap_or_else(|| panic!("missing {name} in {:?}", rs.rows))
    };
    assert_eq!(find("slo_breaches_total"), Value::Int(1));
    match find("slo_fast_burn_x100") {
        Value::Int(n) => assert!(n >= 100, "fast burn {n}"),
        other => panic!("{other:?}"),
    }
}

/// Background-job tracing: a reshard becomes one trace (origin
/// `reshard:<table>`) whose phase spans cover the whole coordinator
/// protocol.
#[test]
fn reshard_job_is_traced_phase_by_phase() {
    use shard_sql::ast::ShardingRuleSpec;
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 24);
    shard_core::feature::reshard(
        &runtime,
        &ShardingRuleSpec {
            table: "t_user".into(),
            resources: vec!["ds_0".into(), "ds_1".into()],
            sharding_column: "uid".into(),
            algorithm_type: "hash_mod".into(),
            props: vec![("sharding-count".into(), "8".into())],
        },
    )
    .unwrap();

    let trace = runtime
        .trace_collector()
        .traces()
        .into_iter()
        .find(|t| t.origin == "reshard:t_user")
        .expect("reshard trace");
    assert!(trace.error.is_none(), "{:?}", trace.error);
    let root = trace.span("reshard").expect("root span");
    assert_eq!(root.parent, None);
    for phase in [
        "snapshot_barrier",
        "backfill",
        "catch_up",
        "fence",
        "cutover",
    ] {
        let sp = trace
            .span(phase)
            .unwrap_or_else(|| panic!("missing {phase} span in {:?}", trace.spans));
        assert_eq!(sp.parent, Some(root.id), "{phase}");
    }
}

/// RAL surface: `SET trace_sample` accepts `1/N`, `N` and `off`; `SHOW
/// TRACE` lists the ring and `SHOW TRACE <id>` renders one tree; the
/// slow-query log carries the kernel-verdict columns.
#[test]
fn ral_surface_round_trips() {
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 4);

    s.execute_sql("SET trace_sample = 1/4", &[]).unwrap();
    let rs = s
        .execute_sql("SHOW VARIABLE trace_sample", &[])
        .unwrap()
        .query();
    assert_eq!(rs.rows[0][1], Value::Str("1/4".into()));
    s.execute_sql("SET VARIABLE trace_sample = off", &[])
        .unwrap();
    assert!(!runtime.trace_collector().enabled());
    s.execute_sql("SET trace_sample = 1", &[]).unwrap();

    s.execute_sql("SELECT COUNT(*) FROM t_user", &[]).unwrap();
    let rs = s.execute_sql("SHOW TRACE", &[]).unwrap().query();
    assert!(!rs.rows.is_empty());
    let id = match rs
        .rows
        .iter()
        .find(|r| matches!(&r[2], Value::Str(sql) if sql.contains("SELECT COUNT")))
    {
        Some(row) => match row[0] {
            Value::Int(id) => id,
            ref other => panic!("{other:?}"),
        },
        None => panic!("no trace row for the COUNT statement: {:?}", rs.rows),
    };
    let rs = s
        .execute_sql(&format!("SHOW TRACE {id}"), &[])
        .unwrap()
        .query();
    let tree: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(tree[0].contains(&format!("trace {id}")), "{tree:?}");
    assert!(tree.iter().any(|l| l.contains("execute")), "{tree:?}");
    // Unknown id errors cleanly.
    assert!(s.execute_sql("SHOW TRACE 999999", &[]).is_err());

    // Slow-query entries expose the kernel verdicts as columns. Set the
    // capture threshold to 1µs directly so even a fast COUNT qualifies.
    runtime.slow_query_log().set_threshold_us(1);
    s.execute_sql("SELECT COUNT(*) FROM t_user", &[]).unwrap();
    let rs = s.execute_sql("SHOW SLOW_QUERIES", &[]).unwrap().query();
    let header_idx = |name: &str| {
        rs.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("missing column {name} in {:?}", rs.columns))
    };
    let route_idx = header_idx("route_strategy");
    let scan_idx = header_idx("scan_mode");
    let row = rs
        .rows
        .iter()
        .find(|r| matches!(&r[1], Value::Str(sql) if sql.contains("SELECT COUNT")))
        .expect("slow-query entry for the COUNT statement");
    assert!(matches!(row[route_idx], Value::Str(_)), "{row:?}");
    assert_eq!(row[scan_idx], Value::Str("batch".into()), "{row:?}");
}

/// Six surfaces, one record: for one scatter statement, `EXPLAIN ANALYZE`,
/// its `SHOW SLOW_QUERIES` row, `SHOW TRACE <id>` (the id taken from that
/// row), `/traces` and the `stage_*_us` histograms report the same stage
/// times, because all of them read the statement's one sealed record. The
/// record's stage spans come in pipeline order and every unit span names its
/// tables and its rows.
#[test]
fn six_surfaces_read_one_record() {
    const STAGES: [&str; 5] = ["parse", "route", "rewrite", "execute", "merge"];
    let runtime = sharded_runtime();
    let mut s = runtime.session();
    load_users(&mut s, 12);
    let lines = |s: &mut Session, sql: &str| -> Vec<String> {
        let rows = s.execute_sql(sql, &[]).unwrap().query().rows;
        rows.iter().map(|r| r[0].to_string()).collect()
    };
    // `<stage> … <n>us` on the first line that names the stage.
    let stage_us = |lines: &[String], stage: &str| -> u64 {
        let line = lines
            .iter()
            .find(|l| l.split_whitespace().any(|w| w == stage))
            .unwrap_or_else(|| panic!("no {stage} line in {lines:?}"));
        let us = line
            .split_whitespace()
            .find_map(|w| w.strip_suffix("us")?.parse().ok());
        us.unwrap_or_else(|| panic!("no time on {line}"))
    };
    let sums = || {
        STAGES.map(|stage| {
            let name = format!("stage_{stage}_us_sum");
            runtime.metrics_registry().samples(Some(&name))[0].value
        })
    };

    let before = sums();
    runtime.slow_query_log().set_threshold_us(1);
    let sql = "SELECT uid, name FROM t_user ORDER BY uid";
    let explain = lines(&mut s, &format!("EXPLAIN ANALYZE {sql}"));
    runtime.slow_query_log().set_threshold_us(0);
    let explained = STAGES.map(|stage| stage_us(&explain, stage));
    assert!(explained.iter().all(|us| *us >= 1), "{explain:?}");

    // The stage histograms were fed those numbers.
    let after = sums();
    assert_eq!(explained, [0, 1, 2, 3, 4].map(|i| after[i] - before[i]));

    // The slow log holds the same record, under the id the ring keeps it by.
    let slow = s.execute_sql("SHOW SLOW_QUERIES", &[]).unwrap().query();
    let column = |name: &str| slow.columns.iter().position(|c| c == name).unwrap();
    let row = &slow.rows[0];
    assert_eq!(row[column("sql")], Value::Str(sql.into()));
    assert_eq!(row[column("units")], Value::Int(4));
    assert_eq!(row[column("rows")], Value::Int(12));
    let logged = STAGES
        .iter()
        .zip(explained)
        .map(|(stage, us)| format!("{stage}={us}us"))
        .collect::<Vec<_>>();
    assert_eq!(row[column("stages")], Value::Str(logged.join(" ")));
    let Value::Int(id) = row[column("trace_id")] else {
        panic!("the ring kept no record for {row:?}");
    };

    // `SHOW TRACE <id>`: the stages in pipeline order with the same times,
    // and under `execute` one span per unit with its tables and rows.
    let tree = lines(&mut s, &format!("SHOW TRACE {id}"));
    let under_root: Vec<&String> = tree
        .iter()
        .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
        .collect();
    let order: Vec<&str> = under_root
        .iter()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(order, STAGES, "{tree:?}");
    assert_eq!(explained, STAGES.map(|stage| stage_us(&tree, stage)));
    let units: Vec<&String> = tree.iter().filter(|l| l.contains(" unit ")).collect();
    assert_eq!(units.len(), 4, "{tree:?}");
    for shard in 0..4 {
        let table = format!(".t_user_{shard}] rows=3");
        assert!(
            units.iter().any(|l| l.contains(&table)),
            "{table}: {tree:?}"
        );
    }

    // `/traces` serves the record too; it carried no error, so no incident.
    let json = runtime.trace_collector().traces_json();
    assert!(json.contains(&format!("{{\"trace_id\":{id},")), "{json}");
    assert!(runtime.trace_collector().incidents().is_empty());
}
