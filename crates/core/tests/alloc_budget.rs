//! An allocation budget for the warm path, as a deterministic perf gate.
//!
//! On the benchmark's deployment shape (2 data sources × 4 tables = 8 `mod`
//! shards, `crates/perf/src/deploy.rs`), inside a transaction, with parse and
//! plan caches warm, a statement's heap allocations are counted at the
//! kernel's front door and — for the same physical statements issued
//! straight at the engines — below it. The difference is the kernel's own
//! share: what a plan-cache hit costs above storage. Counts repeat exactly
//! from run to run (one thread, one CPU, fixed parameters), so the bounds
//! hold without a timing flake; they sit a few allocations above what the
//! change that set them measured and well below the commit before it
//! (EXPERIMENTS.md, "Ledger — PR 20" for the kernel's share, "Ledger —
//! PR 22" for storage's own).
//!
//! Linux only: the fan-out must stay on the counting thread, which the test
//! arranges by pinning itself to one CPU before the executor's pool exists.
#![cfg(target_os = "linux")]

use shard_core::config::ShardingRule;
use shard_core::rewrite::{rewrite_for_unit, rewrite_statement};
use shard_core::route::{RouteEngine, RouteHint};
use shard_core::{Session, ShardingRuntime};
use shard_sql::{Statement, Value};
use shard_storage::{StorageEngine, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Counts the calling thread's allocations (a `realloc` is one).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer that is never borrowed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = run();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// See `crates/core/tests/streaming.rs`: on one CPU the executor wakes no
/// helper for embedded sources, so every unit runs — and allocates — on the
/// calling thread.
fn on_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments; `mask` is a readable buffer
    // of exactly the byte length passed, and pid 0 names the calling thread.
    let rc = unsafe {
        let cpu = usize::try_from(sched_getcpu()).expect("sched_getcpu");
        mask[cpu / 64] = 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr())
    };
    assert_eq!(rc, 0, "{}", std::io::Error::last_os_error());
}

const ROWS: i64 = 4_000;
const LOAD_BATCH_ROWS: i64 = 250;
const RANGE_SPAN: i64 = 20;
const STATEMENTS: i64 = 64;
const POINT_SELECT: &str = "SELECT c FROM sbtest WHERE id = ?";
const RANGE: &str = "SELECT c FROM sbtest WHERE id BETWEEN ? AND ?";

fn deploy() -> (Arc<ShardingRuntime>, HashMap<String, Arc<StorageEngine>>) {
    let mut builder = ShardingRuntime::builder();
    let mut engines = HashMap::new();
    for name in ["ds_0", "ds_1"] {
        let engine = StorageEngine::new(name);
        builder = builder.datasource(name, Arc::clone(&engine));
        engines.insert(name.to_string(), engine);
    }
    let runtime = builder.build();
    let mut s = runtime.session();
    for sql in [
        "CREATE SHARDING TABLE RULE sbtest (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=id, TYPE=mod, \
         PROPERTIES(\"sharding-count\"=8))",
        "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT NOT NULL DEFAULT 0, \
         c VARCHAR(120) NOT NULL DEFAULT '', pad VARCHAR(60) NOT NULL DEFAULT '', PRIMARY KEY (id))",
    ] {
        s.execute_sql(sql, &[]).unwrap();
    }
    let row = "(?, ?, ?, ?)";
    let insert = format!(
        "INSERT INTO sbtest (id, k, c, pad) VALUES {}",
        vec![row; LOAD_BATCH_ROWS as usize].join(", ")
    );
    for first in (0..ROWS).step_by(LOAD_BATCH_ROWS as usize) {
        let mut params = Vec::new();
        for id in first..first + LOAD_BATCH_ROWS {
            let c = format!("{id:011}-").repeat(10);
            params.extend([Value::Int(id), Value::Int(id % 1000 + 1)]);
            params.extend([Value::Str(c), Value::Str(format!("{id:059}"))]);
        }
        s.execute_sql(&insert, &params).unwrap();
    }
    (runtime, engines)
}

/// The `i`th statement's parameters: keys spread over all shards.
fn params_of(sql: &str, i: i64) -> Vec<Value> {
    let low = (i * 7919) % (ROWS - RANGE_SPAN);
    if sql == POINT_SELECT {
        vec![Value::Int(low)]
    } else {
        vec![Value::Int(low), Value::Int(low + RANGE_SPAN - 1)]
    }
}

/// Mean allocations per statement of `sql` at the door, inside one
/// transaction per statement as the benchmark's reads run.
fn at_the_door(s: &mut Session, sql: &str) -> f64 {
    let mut total = 0;
    for i in 0..STATEMENTS {
        let params = params_of(sql, i);
        s.begin().unwrap();
        let (result, n) = allocations_of(|| s.execute_sql(sql, &params));
        assert!(!result.unwrap().query().rows.is_empty(), "{sql} {params:?}");
        s.commit().unwrap();
        total += n;
    }
    total as f64 / STATEMENTS as f64
}

/// The same statements as physical units straight at the engines, each
/// engine inside a transaction of its own: storage's share of the above.
fn at_the_engines(
    rule: &ShardingRule,
    engines: &HashMap<String, Arc<StorageEngine>>,
    stmt: &Statement,
    sql: &str,
) -> f64 {
    let hint = RouteHint::default();
    let mut total = 0;
    for i in 0..STATEMENTS {
        let params = params_of(sql, i);
        let route = RouteEngine::new(rule, &hint).route(stmt, &params).unwrap();
        let rewrite = rewrite_statement(stmt, &route, &params, true).unwrap();
        let mut branches: HashMap<&str, TxnId> = HashMap::new();
        for unit in &route.units {
            let physical = rewrite_for_unit(&rewrite, unit, &route, &params).unwrap();
            let engine = &engines[&unit.datasource];
            let txn = *branches
                .entry(unit.datasource.as_str())
                .or_insert_with(|| engine.begin());
            let (result, n) = allocations_of(|| engine.execute(&physical, &params, Some(txn)));
            result.unwrap();
            total += n;
        }
        for (name, txn) in branches {
            engines[name].commit(txn).unwrap();
        }
    }
    total as f64 / STATEMENTS as f64
}

#[test]
fn warm_statements_stay_inside_their_allocation_budget() {
    on_one_cpu();
    let (runtime, engines) = deploy();
    let mut rule = ShardingRule::new(runtime.datasource_names());
    rule.add_table_rule(runtime.table_rule_snapshot("sbtest").unwrap())
        .unwrap();
    let mut s = runtime.session();

    // (statement, door budget, storage budget, kernel-share budget). PR 20
    // set the kernel's share (19.6 and 39.4 measured, 47.6 and 233.4 before
    // it); PR 22 gated storage's own (29.0 and 300.0 measured, 48.0 and
    // 468.0 before it) and lowered the door by as much (48.6 and 339.4
    // measured, 67.6 and 507.4 before it).
    for (sql, door_budget, storage_budget, kernel_budget) in [
        (POINT_SELECT, 53.0, 32.0, 24.0),
        (RANGE, 352.0, 310.0, 50.0),
    ] {
        let warm_up = at_the_door(&mut s, sql);
        let door = at_the_door(&mut s, sql);
        assert!(
            door <= warm_up,
            "{sql}: warm {door} vs first pass {warm_up}"
        );
        assert_eq!(door, at_the_door(&mut s, sql), "{sql}: counts repeat");

        let stmt = runtime.plan_cache().parse(sql).unwrap();
        let storage = at_the_engines(&rule, &engines, &stmt, sql);
        let kernel = door - storage;
        println!("{sql}: door {door:.1}, engines {storage:.1}, kernel {kernel:.1}");
        assert!(
            door <= door_budget,
            "{sql}: {door:.1} allocations at the door, budget {door_budget}"
        );
        assert!(
            storage <= storage_budget,
            "{sql}: {storage:.1} allocations at the engines, budget {storage_budget}"
        );
        assert!(
            kernel <= kernel_budget,
            "{sql}: {kernel:.1} allocations above storage, budget {kernel_budget}"
        );
    }

    // A disabled cache plans, binds and drops per statement — through the
    // same planner and the same engines, so the bounds follow the warm
    // ones: PR 22 measured 99.6 and 524.4 (118.6 and 692.4 before it).
    s.execute_sql("SET sql_plan_cache_size = 0", &[]).unwrap();
    for (sql, budget) in [(POINT_SELECT, 104.0), (RANGE, 536.0)] {
        let door = at_the_door(&mut s, sql);
        println!("{sql}: door {door:.1} with the caches off");
        assert!(door <= budget, "{sql}: {door:.1} uncached, budget {budget}");
    }
}
