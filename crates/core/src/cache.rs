//! Two-level SQL plan cache for the kernel hot path.
//!
//! Production ShardingSphere keeps a parse-tree cache so OLTP point queries
//! skip the parser entirely; this module reproduces that idea and goes one
//! step further for everything between the parser and the executor:
//!
//! * **Level 1 — parse cache:** SQL text → `Arc<ParsedStatement>`: the AST
//!   plus what the pipeline asks of every statement before it looks at the
//!   parameters (category, table names, the fingerprint that keys level 2),
//!   computed once per entry. A sharded (hash-partitioned) LRU so concurrent
//!   sessions do not serialize on one lock. Hits mean zero parsing.
//! * **Level 2 — plan cache:** AST fingerprint → [`Plan`]: the route skeleton
//!   and, filled in as executions touch them, the bound unit of every data
//!   node (`crate::plan`). A hit resolves the skeleton against the parameters
//!   and hands out shared units — no AST walk, clone or rename.
//!
//! Plans are validated against a **generation counter** that every rule or
//! resource mutation bumps (`CREATE SHARDING TABLE RULE`, `DROP RESOURCE`,
//! `replace_table_rule`, encrypt/shadow/rw-split changes, …) *while it holds
//! the rule's write guard* (`ShardingRuntime::reconfigure`). A statement
//! reads the generation under the read guard, so the rule it sees and the
//! generation it looks plans up under always belong together: a cached plan
//! whose generation is stale is discarded and rebuilt, and a plan built from
//! the old rule is stored under the old generation, where no later statement
//! finds it.

use crate::obs::{Counter, MetricsRegistry};
use crate::plan::Plan;
use parking_lot::Mutex;
use shard_sql::ast::{Statement, StatementCategory};
use shard_sql::parse_statement;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default total entry cap for each cache level.
pub const DEFAULT_CAPACITY: usize = 2048;

/// Number of independent LRU partitions; keys are hash-distributed so eight
/// concurrent sessions rarely contend on the same shard lock.
const SHARDS: usize = 8;

// ---------------------------------------------------------------------------
// Sharded LRU
// ---------------------------------------------------------------------------

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct LruShard<K, V> {
    map: HashMap<K, Entry<V>>,
    tick: u64,
}

impl<K: Hash + Eq, V> LruShard<K, V> {
    fn new() -> Self {
        LruShard {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

/// An N-way sharded LRU map. Recency is tracked with a per-shard logical
/// clock (exact LRU within a shard, approximate across shards — the standard
/// trade for lock-free-ish concurrency without a global list).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    capacity: AtomicUsize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    pub fn new(capacity: usize) -> Self {
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(LruShard::new())).collect(),
            capacity: AtomicUsize::new(capacity),
        }
    }

    /// `Borrow` guarantees a borrowed key hashes like the owned one, so a
    /// lookup by `&str` finds the partition its `String` was stored in.
    fn shard_index<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<LruShard<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Per-shard entry budget, at least 1 while the cache is enabled.
    fn shard_capacity(&self) -> usize {
        let cap = self.capacity.load(Ordering::Relaxed);
        if cap == 0 {
            0
        } else {
            cap.div_ceil(SHARDS).max(1)
        }
    }

    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard_of(key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.value.clone())
    }

    /// Insert a value, evicting least-recently-used entries as needed.
    /// Returns how many entries were evicted. A zero-capacity cache stores
    /// nothing.
    pub fn insert(&self, key: K, value: V) -> u64 {
        let per_shard = self.shard_capacity();
        if per_shard == 0 {
            return 0;
        }
        let mut shard = self.shard_of(&key).lock();
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        let mut evicted = 0;
        while shard.map.len() > per_shard {
            let oldest = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    shard.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Remove `key`'s entry if it still is one `stale` condemns — not one
    /// another thread has stored under the key since the caller looked.
    pub fn remove_if(&self, key: &K, stale: impl FnOnce(&V) -> bool) {
        let mut shard = self.shard_of(key).lock();
        if shard.map.get(key).is_some_and(|entry| stale(&entry.value)) {
            shard.map.remove(key);
        }
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Resize the cache. Shrinking (including to zero) drops entries
    /// immediately so memory is released right away.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        if capacity == 0 {
            self.clear();
            return;
        }
        let per_shard = self.shard_capacity();
        for shard in &self.shards {
            let mut shard = shard.lock();
            while shard.map.len() > per_shard {
                let oldest = shard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match oldest {
                    Some(k) => {
                        shard.map.remove(&k);
                    }
                    None => break,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Hit/miss/eviction counters for one cache level.
///
/// The counters are [`obs::Counter`] handles so a cache built with
/// [`SqlPlanCache::with_registry`] shares them with the central metrics
/// registry — `SHOW SQL_PLAN_CACHE STATUS` and `SHOW METRICS` read the very
/// same atomics rather than two parallel sets of plumbing.
///
/// [`obs::Counter`]: crate::obs::Counter
pub struct CacheStats {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl Default for CacheStats {
    /// Stand-alone counters, not attached to any registry (unit tests,
    /// caches built outside a runtime).
    fn default() -> Self {
        CacheStats {
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            evictions: Arc::new(Counter::new()),
        }
    }
}

impl CacheStats {
    /// Counters registered as `plan_cache_<level>_{hits,misses,evictions}_total`.
    pub fn registered(registry: &MetricsRegistry, level: &str) -> Self {
        let counter = |event: &str, help: &str| {
            registry.counter(&format!("plan_cache_{level}_{event}_total"), help)
        };
        CacheStats {
            hits: counter("hits", "plan cache hits"),
            misses: counter("misses", "plan cache misses"),
            evictions: counter("evictions", "plan cache LRU evictions"),
        }
    }

    fn hit(&self) {
        self.hits.inc();
    }
    fn miss(&self) {
        self.misses.inc();
    }
    fn evicted(&self, n: u64) {
        self.evictions.add(n);
    }
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// Snapshot of one cache level for `SHOW SQL_PLAN_CACHE STATUS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevelStatus {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub size: usize,
    pub capacity: usize,
}

/// Snapshot of both cache levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCacheStatus {
    pub parse: CacheLevelStatus,
    pub plan: CacheLevelStatus,
}

// ---------------------------------------------------------------------------
// Cached values
// ---------------------------------------------------------------------------

/// What the pipeline asks of a statement before it looks at the parameters.
pub(crate) struct StatementFacts {
    pub(crate) category: StatementCategory,
    /// Logic tables referenced, in first-seen order.
    pub(crate) tables: Vec<String>,
    /// The plan-cache key: formatting the AST into a hash is the dear one of
    /// the three, and only a plannable statement with the cache on needs it.
    fingerprint: OnceLock<u64>,
}

impl StatementFacts {
    pub(crate) fn of(stmt: &Statement) -> Self {
        StatementFacts {
            category: stmt.category(),
            tables: stmt.table_names(),
            fingerprint: OnceLock::new(),
        }
    }

    /// The fingerprint of `stmt`, the statement these facts are of.
    pub(crate) fn fingerprint(&self, stmt: &Statement) -> u64 {
        *self.fingerprint.get_or_init(|| stmt.fingerprint())
    }
}

/// A parse-cache entry: the statement together with the facts about it that
/// every execution would otherwise recompute. Dereferences to the
/// [`Statement`].
pub struct ParsedStatement {
    stmt: Statement,
    pub(crate) facts: StatementFacts,
}

impl ParsedStatement {
    pub fn new(stmt: Statement) -> Self {
        let facts = StatementFacts::of(&stmt);
        ParsedStatement { stmt, facts }
    }
}

impl std::ops::Deref for ParsedStatement {
    type Target = Statement;

    fn deref(&self) -> &Statement {
        &self.stmt
    }
}

/// A plan plus the rule generation it was built under.
#[derive(Clone)]
struct CachedPlan {
    generation: u64,
    plan: Arc<Plan>,
}

// ---------------------------------------------------------------------------
// The two-level cache
// ---------------------------------------------------------------------------

/// Process-shared two-level plan cache owned by a `ShardingRuntime`.
pub struct SqlPlanCache {
    parse: ShardedLru<String, Arc<ParsedStatement>>,
    plans: ShardedLru<u64, CachedPlan>,
    /// Bumped by every rule/resource/feature mutation; plans built under an
    /// older generation are discarded on lookup.
    generation: AtomicU64,
    parse_stats: CacheStats,
    plan_stats: CacheStats,
}

impl Default for SqlPlanCache {
    fn default() -> Self {
        SqlPlanCache::new(DEFAULT_CAPACITY)
    }
}

impl SqlPlanCache {
    pub fn new(capacity: usize) -> Self {
        SqlPlanCache {
            parse: ShardedLru::new(capacity),
            plans: ShardedLru::new(capacity),
            generation: AtomicU64::new(0),
            parse_stats: CacheStats::default(),
            plan_stats: CacheStats::default(),
        }
    }

    /// Build a cache whose hit/miss/eviction counters live in `registry`,
    /// so `SHOW METRICS` and `SHOW SQL_PLAN_CACHE STATUS` share one set of
    /// atomics.
    pub fn with_registry(capacity: usize, registry: &MetricsRegistry) -> Self {
        SqlPlanCache {
            parse: ShardedLru::new(capacity),
            plans: ShardedLru::new(capacity),
            generation: AtomicU64::new(0),
            parse_stats: CacheStats::registered(registry, "parse"),
            plan_stats: CacheStats::registered(registry, "plan"),
        }
    }

    /// Whether any caching is active (`SET sql_plan_cache_size = 0` disables).
    pub fn enabled(&self) -> bool {
        self.parse.capacity() > 0
    }

    /// Parse through the level-1 cache.
    pub fn parse(
        &self,
        sql: &str,
    ) -> std::result::Result<Arc<ParsedStatement>, shard_sql::SqlError> {
        let parse = || parse_statement(sql).map(|stmt| Arc::new(ParsedStatement::new(stmt)));
        if !self.enabled() {
            return parse();
        }
        if let Some(stmt) = self.parse.get(sql) {
            self.parse_stats.hit();
            return Ok(stmt);
        }
        self.parse_stats.miss();
        let stmt = parse()?;
        let evicted = self.parse.insert(sql.to_string(), Arc::clone(&stmt));
        self.parse_stats.evicted(evicted);
        Ok(stmt)
    }

    /// Current rule generation. Read while holding the rule read guard so a
    /// plan built from that snapshot is stored under the matching generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Invalidate all cached plans. Called by whoever holds the rule's write
    /// guard (`ShardingRuntime::reconfigure`), so that no statement can see
    /// the changed configuration under the generation that preceded it.
    pub(crate) fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Look up a plan by AST fingerprint; stale-generation entries are
    /// dropped and counted as misses.
    pub fn lookup_plan(&self, fingerprint: u64, generation: u64) -> Option<Arc<Plan>> {
        if !self.enabled() {
            return None;
        }
        match self.plans.get(&fingerprint) {
            Some(cached) if cached.generation == generation => {
                self.plan_stats.hit();
                Some(cached.plan)
            }
            Some(stale) => {
                // Unless a fresher plan has replaced it meanwhile.
                self.plans
                    .remove_if(&fingerprint, |c| Arc::ptr_eq(&c.plan, &stale.plan));
                self.plan_stats.miss();
                None
            }
            None => {
                self.plan_stats.miss();
                None
            }
        }
    }

    pub fn store_plan(&self, fingerprint: u64, generation: u64, plan: Arc<Plan>) {
        if !self.enabled() {
            return;
        }
        let evicted = self
            .plans
            .insert(fingerprint, CachedPlan { generation, plan });
        self.plan_stats.evicted(evicted);
    }

    /// The plan of the statement with this fingerprint under `generation`:
    /// the cached one, or `build`'s — kept when there is a key to keep it
    /// under (the caller has none for what must not be cached) and the cache
    /// is on, dropped after this execution otherwise.
    pub fn plan_for(
        &self,
        fingerprint: Option<u64>,
        generation: u64,
        build: impl FnOnce() -> Plan,
    ) -> Arc<Plan> {
        let Some(fingerprint) = fingerprint.filter(|_| self.enabled()) else {
            return Arc::new(build());
        };
        if let Some(plan) = self.lookup_plan(fingerprint, generation) {
            return plan;
        }
        let plan = Arc::new(build());
        self.store_plan(fingerprint, generation, Arc::clone(&plan));
        plan
    }

    /// Resize both levels; zero disables caching and drops all entries.
    pub fn set_capacity(&self, capacity: usize) {
        self.parse.set_capacity(capacity);
        self.plans.set_capacity(capacity);
    }

    pub fn capacity(&self) -> usize {
        self.parse.capacity()
    }

    pub fn status(&self) -> PlanCacheStatus {
        PlanCacheStatus {
            parse: CacheLevelStatus {
                hits: self.parse_stats.hits(),
                misses: self.parse_stats.misses(),
                evictions: self.parse_stats.evictions(),
                size: self.parse.len(),
                capacity: self.parse.capacity(),
            },
            plan: CacheLevelStatus {
                hits: self.plan_stats.hits(),
                misses: self.plan_stats.misses(),
                evictions: self.plan_stats.evictions(),
                size: self.plans.len(),
                capacity: self.plans.capacity(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{ModAlgorithm, Props};
    use crate::config::{DataNode, ShardingRule, TableRule};
    use crate::plan::plan;
    use crate::route::{RouteEngine, RouteHint};

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(SHARDS); // 1 per shard
                                                                 // Two keys in the same shard: inserting the second evicts the first.
        let a = 0u64;
        let b = (1..1024u64)
            .find(|k| lru.shard_index(k) == lru.shard_index(&a))
            .expect("some key shares shard 0's partition");
        assert_eq!(lru.insert(a, 1), 0);
        assert_eq!(lru.insert(b, 2), 1);
        assert!(lru.get(&a).is_none());
        assert_eq!(lru.get(&b), Some(2));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let lru: ShardedLru<String, u64> = ShardedLru::new(0);
        assert_eq!(lru.insert("k".into(), 1), 0);
        assert!(lru.get("k").is_none());
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn shrink_drops_entries() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(64);
        for i in 0..64 {
            lru.insert(i, i);
        }
        assert!(lru.len() > 8);
        lru.set_capacity(8);
        assert!(lru.len() <= 8);
        lru.set_capacity(0);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn parse_cache_counts_hits() {
        let cache = SqlPlanCache::default();
        let a = cache.parse("SELECT v FROM t WHERE id = ?").unwrap();
        let b = cache.parse("SELECT v FROM t WHERE id = ?").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.status();
        assert_eq!(s.parse.hits, 1);
        assert_eq!(s.parse.misses, 1);
        assert_eq!(s.parse.size, 1);
    }

    #[test]
    fn stale_generation_rejected() {
        let cache = SqlPlanCache::default();
        let generation = cache.generation();
        let stmt = parse_statement("INSERT INTO t_user (uid) VALUES (1)").unwrap();
        let plan = Arc::new(plan(&sharded_rule(), &stmt));
        cache.store_plan(42, generation, plan);
        assert!(cache.lookup_plan(42, generation).is_some());
        cache.bump_generation();
        assert!(cache.lookup_plan(42, cache.generation()).is_none());
    }

    /// A lookup that finds a stale plan removes *that* plan — not the fresh
    /// one another thread stored under the fingerprint in between.
    #[test]
    fn stale_lookup_spares_a_fresh_plan() {
        let lru: ShardedLru<u64, u64> = ShardedLru::new(64);
        lru.insert(7, 1);
        let found = lru.get(&7).unwrap();
        lru.insert(7, 2); // the other thread
        lru.remove_if(&7, |v| *v == found);
        assert_eq!(lru.get(&7), Some(2));
        lru.remove_if(&7, |v| *v == 2);
        assert_eq!(lru.get(&7), None);
    }

    #[test]
    fn parse_looks_up_by_borrowed_text() {
        let cache = SqlPlanCache::default();
        let owned = String::from("SELECT v FROM t WHERE id = ?");
        let a = cache.parse(&owned).unwrap();
        let b = cache.parse("SELECT v FROM t WHERE id = ?").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.facts.tables, ["t"]);
        assert_eq!(a.facts.category, StatementCategory::Dql);
        assert_eq!(a.facts.fingerprint(&a), a.fingerprint());
    }

    fn sharded_rule() -> ShardingRule {
        let mut sr = ShardingRule::new(vec!["ds_0".into(), "ds_1".into()]);
        sr.add_table_rule(TableRule {
            logic_table: "t_user".into(),
            sharding_column: "uid".into(),
            algorithm: std::sync::Arc::new(ModAlgorithm::new(None)),
            algorithm_type: "mod".into(),
            data_nodes: vec![
                DataNode::new("ds_0", "t_user_0"),
                DataNode::new("ds_1", "t_user_1"),
            ],
            props: Props::new(),
            key_generate_column: None,
            complex: None,
        })
        .unwrap();
        sr
    }

    #[test]
    fn plan_replay_matches_fresh_route() {
        let rule = sharded_rule();
        let stmt = parse_statement("SELECT * FROM t_user WHERE uid = ?").unwrap();
        let plan = plan(&rule, &stmt);
        assert!(plan.table_rule().is_some(), "a sharded template plan");
        for uid in 0..8i64 {
            let params = [shard_sql::Value::Int(uid)];
            let nodes = plan.resolve(&params).unwrap().unwrap();
            let replayed = plan.bind(&stmt, &params, &nodes, true).unwrap();
            let hint = RouteHint::default();
            let fresh = RouteEngine::new(&rule, &hint)
                .route(&stmt, &params)
                .unwrap();
            let units: Vec<_> = replayed.inputs.into_iter().map(|i| i.unit).collect();
            assert_eq!(units, fresh.units);
        }
    }

    #[test]
    fn literal_statement_gets_static_plan() {
        let rule = sharded_rule();
        let stmt = parse_statement("SELECT * FROM t_user WHERE uid = 5").unwrap();
        let plan = plan(&rule, &stmt);
        assert!(plan.table_rule().is_none(), "a fixed route, not a template");
        let nodes = plan.resolve(&[]).unwrap().expect("replayable");
        let bound = plan.bind(&stmt, &[], &nodes, true).unwrap();
        assert_eq!(bound.inputs.len(), 1);
        assert_eq!(
            bound.inputs[0].unit.actual_table("t_user"),
            Some("t_user_1")
        );
    }

    #[test]
    fn parameterized_join_is_uncacheable() {
        let rule = sharded_rule();
        let stmt =
            parse_statement("SELECT * FROM t_user u JOIN t_o o ON u.uid = o.uid WHERE u.uid = ?")
                .unwrap();
        let routed_per_execution = plan(&rule, &stmt).resolve(&[1.into()]).unwrap().is_none();
        assert!(routed_per_execution);
    }

    #[test]
    fn insert_is_never_cached() {
        let rule = sharded_rule();
        let stmt = parse_statement("INSERT INTO t_user (uid) VALUES (1)").unwrap();
        assert!(plan(&rule, &stmt).resolve(&[]).unwrap().is_none());
    }
}
