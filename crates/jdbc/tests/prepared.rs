//! A prepared statement is at least as cheap as its text: it holds the
//! parse-cache entry, so executing it skips the text lookup and nothing
//! else — counted in heap allocations, which repeat exactly.

use shard_jdbc::ShardingDataSource;
use shard_sql::Value;
use shard_storage::StorageEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer that is never borrowed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
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

#[test]
fn a_prepared_point_select_allocates_no_more_than_its_text() {
    let ds = ShardingDataSource::builder()
        .resource("ds_0", StorageEngine::new("ds_0"))
        .resource("ds_1", StorageEngine::new("ds_1"))
        .build();
    let mut conn = ds.connection();
    for sql in [
        "CREATE SHARDING TABLE RULE t (RESOURCES(ds_0, ds_1), SHARDING_COLUMN=id, TYPE=mod, \
         PROPERTIES(\"sharding-count\"=4))",
        "CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)",
        "INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
        // No statement records: which one the 1-in-16 head sample lands on
        // is the session's count, not a property of either door.
        "SET trace_sample = off",
    ] {
        conn.execute(sql, &[]).unwrap();
    }
    let sql = "SELECT v FROM t WHERE id = ?";
    let prepared = conn.prepare(sql).unwrap();
    let expected = |id: i64| vec![vec![Value::Int(10 * id)]];
    // Warm both doors on every node, then count.
    for id in 1..=4 {
        assert_eq!(
            conn.query(sql, &[Value::Int(id)]).unwrap().rows,
            expected(id)
        );
        let rows = prepared.query(&mut conn, &[Value::Int(id)]).unwrap().rows;
        assert_eq!(rows, expected(id));
    }
    for id in 1..=4 {
        let params = [Value::Int(id)];
        let (by_text, text) = allocations_of(|| conn.query(sql, &params));
        let (by_handle, handle) = allocations_of(|| prepared.query(&mut conn, &params));
        assert_eq!(by_text.unwrap().rows, by_handle.unwrap().rows);
        assert!(
            handle <= text,
            "prepared {handle} > text {text} allocations"
        );
    }
}
