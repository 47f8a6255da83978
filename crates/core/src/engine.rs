//! The multi-session engine core: everything shareable between sessions.
//!
//! [`TdpEngine`] is the `Send + Sync` heart of the system — one engine
//! per process, any number of concurrent [`Session`] handles on top:
//!
//! ```text
//!   TdpEngine (Arc, Send + Sync)          Session (one per user, !Send)
//!   ├─ Catalog            RwLock          ├─ local UdfRegistry   (Rc-based
//!   │   (tables, zone maps,               │   trainable Vars live here)
//!   │    vector indexes)                  ├─ bound params / device
//!   ├─ PlanCache (shared) Mutex           ├─ threads / morsel rows
//!   ├─ plan epoch         atomic          ├─ zone-map / chain-kernel toggles
//!   ├─ SharedUdfRegistry  RwLock          ├─ PlanCache (overlay) RefCell
//!   ├─ access-path        atomics         └─ local registration epoch
//!   │   counters (pruning, ANN,
//!   │   kernel binds / fallbacks)
//!   └─ EngineStats        atomics
//! ```
//!
//! The split follows one rule: state whose *meaning* is identical for
//! every user lives on the engine behind a lock; state that can differ
//! per user (autodiff tapes, parameter bindings, scheduler knobs,
//! session-local function registrations) rides the cheap session handle.
//! [`crate::Tdp`] remains the embedded single-user facade — an engine
//! plus one session — so existing code compiles unchanged.
//!
//! ## Plan caching
//!
//! Compiled plans are cached keyed by *normalized* statement text
//! (literals auto-parameterised), so two different users preparing
//! `SELECT v FROM t WHERE v > 1` and `… > 2` share one compilation.
//! `PlanCache` is one type with two instances: the engine's, shared by
//! every session, and each session's overlay, which holds the plans that
//! resolved a session-local function. Both hold `CacheEntry`s under
//! one validity rule (`PlanCache::hit`): the engine plan epoch (bumped
//! by engine function registration and vector-index DDL), the session
//! registration epoch for overlay entries, no function name shadowed
//! locally for shared entries, and schemas that still hold (the catalog
//! version, else a walk over the live schemas).
//!
//! ## Lock poisoning
//!
//! Engine locks recover from poisoning (`unwrap_or_else(|e|
//! e.into_inner())`) rather than propagate it: every critical section
//! swaps complete values (an `Arc`'d plan, a registry entry), so a
//! panicked worker cannot leave torn state behind — and must not wedge
//! every other session sharing the engine. The catalog follows the same
//! policy.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use tdp_exec::{AccessPathCounters, AccessPathStats, ScalarUdf, SharedUdfRegistry, UdfRegistry};
use tdp_mem::MemoryPool;
use tdp_storage::{Catalog, Table};

use crate::compiled::CompiledPlan;
use crate::session::{PlanCacheStats, Session};

/// Upper bound on plans cached by the engine (and, separately, by each
/// session's local overlay). Eviction is per-entry LRU.
pub(crate) const PLAN_CACHE_CAP: usize = 256;

/// Engine-wide observability counters (see [`TdpEngine::stats`]).
///
/// `queries_served` counts executions through any session of this engine
/// (exact, profiled and differentiable runs alike). `queries_queued` /
/// `queries_rejected` are admission-control outcomes reported by a
/// serving frontend such as `tdp-server` — embedded single-session use
/// leaves them at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Sessions currently open.
    pub sessions_open: u64,
    /// Sessions ever opened.
    pub sessions_total: u64,
    /// Queries executed to completion or error (not admission-rejected).
    pub queries_served: u64,
    /// Queries that waited in an admission queue before executing.
    pub queries_queued: u64,
    /// Queries rejected by admission control (`server busy`).
    pub queries_rejected: u64,
    /// The engine's cross-session plan cache counters. Hits and misses
    /// accumulate over all sessions; `entries` counts engine-cache
    /// entries only (session-local overlays are not included).
    pub plan_cache: PlanCacheStats,
    /// Bytes currently reserved in the engine memory pool across every
    /// live query.
    pub mem_used_bytes: u64,
    /// Largest `mem_used_bytes` the pool ever reached.
    pub mem_high_water_bytes: u64,
    /// The budget the engine was built with
    /// ([`TdpEngine::with_memory_budget`]); `None` when unlimited.
    pub mem_budget_bytes: Option<u64>,
    /// Queries aborted because a memory charge breached the budget.
    pub mem_budget_aborts: u64,
}

impl EngineStats {
    /// Fraction of plan-cache lookups served from cache (0.0 when no
    /// lookups have happened yet).
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache.hits + self.plan_cache.misses;
        if total == 0 {
            0.0
        } else {
            self.plan_cache.hits as f64 / total as f64
        }
    }
}

/// What a prepare validates cached entries against, read once per
/// prepare (a miss stores its compilation under the same values).
pub(crate) struct Lookup<'a> {
    pub(crate) engine: &'a TdpEngine,
    pub(crate) plan_epoch: u64,
    pub(crate) local_epoch: u64,
    pub(crate) catalog_version: u64,
    pub(crate) local_udfs: &'a UdfRegistry,
}

impl Lookup<'_> {
    /// Whether the session registered any of `functions` locally, so it
    /// may resolve them differently from the engine.
    fn shadows(&self, functions: &[String]) -> bool {
        functions
            .iter()
            .any(|n| self.local_udfs.is_scalar(n) || self.local_udfs.is_table_fn(n))
    }
}

/// One cached compilation plus what decides whether a later prepare
/// (possibly from another session) may reuse it.
pub(crate) struct CacheEntry {
    plan: Arc<CompiledPlan>,
    plan_epoch: u64,
    /// The session registration epoch at compile time — `Some` exactly
    /// for overlay entries (plans that resolved a session-local
    /// function).
    local_epoch: Option<u64>,
    /// Catalog version the scans were validated against (fast-forwarded
    /// on every revalidating hit).
    catalog_version: u64,
    /// `(table, column names)` for every base-table scan.
    scans: Vec<(String, Vec<String>)>,
    /// Lowercased function names the compilation resolved.
    functions: Vec<String>,
    /// Monotonic recency stamp for LRU eviction.
    last_used: u64,
}

impl CacheEntry {
    /// An entry for `plan`, compiled under `now` against `scans`. It
    /// belongs in the session overlay when it resolved a session-local
    /// function ([`CacheEntry::is_local`]), else in the engine cache.
    pub(crate) fn new(
        plan: Arc<CompiledPlan>,
        now: &Lookup,
        scans: Vec<(String, Vec<String>)>,
    ) -> CacheEntry {
        let functions = plan.physical.function_names();
        CacheEntry {
            local_epoch: now.shadows(&functions).then_some(now.local_epoch),
            plan,
            plan_epoch: now.plan_epoch,
            catalog_version: now.catalog_version,
            scans,
            functions,
            last_used: now.engine.tick(),
        }
    }

    pub(crate) fn is_local(&self) -> bool {
        self.local_epoch.is_some()
    }
}

/// A bounded map from normalized statement text to [`CacheEntry`],
/// evicted per-entry LRU at [`PLAN_CACHE_CAP`]. The engine holds one
/// behind its `Mutex`; each session holds its overlay behind a
/// `RefCell`. Hit, miss and eviction counters live on the engine.
#[derive(Default)]
pub(crate) struct PlanCache {
    entries: HashMap<String, CacheEntry>,
}

impl PlanCache {
    /// The plan cached for `key` if it is valid under `now`: compiled
    /// under the current plan epoch; for an overlay entry, under the
    /// session's current registration epoch; for a shared entry, by a
    /// resolution the session agrees with (none of its function names
    /// registered locally); and against schemas that still hold. Refreshes
    /// the entry's recency and fast-forwards its catalog version.
    pub(crate) fn hit(&mut self, key: &str, now: &Lookup) -> Option<Arc<CompiledPlan>> {
        let entry = self.entries.get_mut(key)?;
        let resolves = entry.plan_epoch == now.plan_epoch
            && match entry.local_epoch {
                Some(epoch) => epoch == now.local_epoch,
                None => !now.shadows(&entry.functions),
            };
        // The engine tier walks the schemas under its lock: releasing it
        // would let the entry be evicted mid-check, and the walk is only
        // name comparisons.
        if !resolves
            || (entry.catalog_version != now.catalog_version
                && !now.engine.scans_unchanged(&entry.scans))
        {
            return None;
        }
        entry.catalog_version = now.catalog_version;
        entry.last_used = now.engine.tick();
        Some(Arc::clone(&entry.plan))
    }

    /// Insert `entry`, first evicting the least recently used entry when
    /// full; returns whether one was evicted. Two sessions racing to
    /// compile the same statement both insert; the second replaces the
    /// first with an identical plan.
    pub(crate) fn insert(&mut self, key: String, entry: CacheEntry) -> bool {
        let evict = self.entries.len() >= PLAN_CACHE_CAP && !self.entries.contains_key(&key);
        if evict {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, entry);
        evict
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The shared, thread-safe engine: catalog (tables, zone maps and
/// vector indexes), cross-session plan cache, engine-registered
/// (thread-safe) UDFs, access-path (and chain-kernel) and observability
/// counters. See the module docs for the engine/session
/// ownership picture.
pub struct TdpEngine {
    catalog: Catalog,
    /// Thread-safe scalar UDFs visible to every session
    /// ([`TdpEngine::register_udf_shared`]).
    shared_udfs: RwLock<SharedUdfRegistry>,
    /// Bumped on every engine-level function registration and vector
    /// index DDL; cached plans of both tiers compiled under an older epoch
    /// are invalid (either can change name resolution or access path, and
    /// therefore plan shape).
    plan_epoch: AtomicU64,
    /// Cross-session compiled-plan cache keyed by normalized text.
    plan_cache: Mutex<PlanCache>,
    cache_tick: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    /// Engine-wide access-path counters: morsels pruned/scanned by zone
    /// maps, ANN operator executions and chain-kernel binds/fallbacks,
    /// accumulated over every plain `run()` of every session (profiled
    /// runs absorb into it too).
    access: Arc<AccessPathCounters>,
    /// The engine memory pool every query's [`tdp_mem::MemoryReservation`]
    /// ledger charges against (unlimited unless built by
    /// [`TdpEngine::with_memory_budget`]).
    memory: Arc<MemoryPool>,
    /// The machine's available parallelism, read once: every new
    /// session's worker count (on Linux the read opens cgroup files, so
    /// it is not repeated per session).
    threads: usize,
    sessions_open: AtomicU64,
    sessions_total: AtomicU64,
    queries_served: AtomicU64,
    queries_queued: AtomicU64,
    queries_rejected: AtomicU64,
}

impl TdpEngine {
    /// Create a fresh engine. Returned as `Arc` because sessions hold a
    /// shared handle: `let engine = TdpEngine::new(); let s = engine.session();`
    ///
    /// The engine reads no environment: memory is unlimited, and each
    /// session starts from the documented defaults (see [`Session`]),
    /// which its setters change.
    pub fn new() -> Arc<TdpEngine> {
        TdpEngine::with_pool(MemoryPool::unlimited())
    }

    /// Engine whose queries together may hold at most `budget` bytes
    /// (see [`tdp_mem`]); otherwise as [`TdpEngine::new`].
    pub fn with_memory_budget(budget: u64) -> Arc<TdpEngine> {
        TdpEngine::with_pool(MemoryPool::with_budget(budget))
    }

    fn with_pool(pool: MemoryPool) -> Arc<TdpEngine> {
        Arc::new(TdpEngine {
            catalog: Catalog::new(),
            shared_udfs: RwLock::new(SharedUdfRegistry::new()),
            plan_epoch: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::default()),
            cache_tick: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            access: Arc::new(AccessPathCounters::default()),
            memory: Arc::new(pool),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sessions_open: AtomicU64::new(0),
            sessions_total: AtomicU64::new(0),
            queries_served: AtomicU64::new(0),
            queries_queued: AtomicU64::new(0),
            queries_rejected: AtomicU64::new(0),
        })
    }

    /// Open a new session on this engine. Sessions are cheap (a handful
    /// of cells plus an `Arc` bump), single-threaded at the API surface,
    /// and deregister themselves from [`EngineStats::sessions_open`] on
    /// drop.
    pub fn session(self: &Arc<Self>) -> Session {
        self.sessions_open.fetch_add(1, Ordering::Relaxed);
        self.sessions_total.fetch_add(1, Ordering::Relaxed);
        Session::new(Arc::clone(self))
    }

    /// The worker count a new session starts with.
    pub(crate) fn default_threads(&self) -> usize {
        self.threads
    }

    /// The shared table namespace.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register (or replace) a table, making it visible to every
    /// session. Cached plans revalidate per-scan against the new schema.
    pub fn register_table(&self, table: Table) {
        self.catalog.register(table);
    }

    /// Append rows to a registered table (see [`Catalog::append`]): the
    /// stored columns grow copy-on-write — in place while nothing else
    /// holds them, so an append costs the batch — zone maps extend
    /// incrementally, and vector indexes stay put, going stale until
    /// rebuilt. A snapshot taken before (a table from the catalog, a
    /// query result sharing its columns) keeps exactly the rows it saw,
    /// and costs the next append one copy of the table. Returns `false`,
    /// changing nothing, when the table is missing or a column's name or
    /// type disagrees.
    pub fn append_rows(&self, name: &str, rows: &Table) -> bool {
        self.catalog.append(name, rows)
    }

    /// Drop a table engine-wide; returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        self.catalog.drop_table(name)
    }

    /// Register a thread-safe scalar UDF visible to **every** session of
    /// this engine (the engine-level home of
    /// [`Session::register_udf_parallel`]), copy-on-write. Bumps the engine
    /// plan epoch, invalidating cached plans in every session.
    pub fn register_udf_shared(&self, udf: Arc<dyn ScalarUdf + Send + Sync>) {
        self.shared_udfs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .register_scalar(udf);
        self.invalidate_plans();
    }

    /// The engine-level function table, by pointer (an `Arc` clone).
    pub fn shared_udfs(&self) -> SharedUdfRegistry {
        self.shared_udfs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Current plan epoch (see [`TdpEngine::invalidate_plans`]).
    pub(crate) fn plan_epoch(&self) -> u64 {
        self.plan_epoch.load(Ordering::Relaxed)
    }

    /// Invalidate every cached plan of every session — the engine cache
    /// and all overlays — by bumping the plan epoch both tiers check.
    /// Stale entries stay until recompiled or evicted.
    pub(crate) fn invalidate_plans(&self) {
        self.plan_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Engine-wide observability counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions_open: self.sessions_open.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            queries_queued: self.queries_queued.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            plan_cache: self.plan_cache_stats(),
            mem_used_bytes: self.memory.used(),
            mem_high_water_bytes: self.memory.high_water(),
            mem_budget_bytes: self.memory.budget(),
            mem_budget_aborts: self.memory.budget_aborts(),
        }
    }

    /// The engine memory pool; queries open per-run
    /// [`tdp_mem::MemoryReservation`] ledgers against it, and a serving
    /// frontend reserves admission envelopes from it.
    pub fn memory_pool(&self) -> &Arc<MemoryPool> {
        &self.memory
    }

    /// Cross-session plan-cache counters. Hits/misses/evictions
    /// accumulate over every session (including hits on session-local
    /// overlay entries); `entries` counts engine-cache entries only.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.cache_evictions.load(Ordering::Relaxed),
            entries: self.plan_cache().len(),
        }
    }

    /// Drop every engine-cached compiled plan (counters keep
    /// accumulating; session overlays are cleared by
    /// [`Session::clear_plan_cache`]).
    pub fn clear_plan_cache(&self) {
        self.plan_cache().clear();
    }

    /// The engine tier of the plan cache.
    pub(crate) fn plan_cache(&self) -> MutexGuard<'_, PlanCache> {
        self.plan_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record an admission-queue wait (frontend observability hook).
    pub fn note_query_queued(&self) {
        self.queries_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an admission rejection (frontend observability hook).
    pub fn note_query_rejected(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_query_served(&self) {
        self.queries_served.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_session_closed(&self) {
        self.sessions_open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_plan_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_plan_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Evictions from either tier land here, so the engine-wide counters
    /// cover both.
    pub(crate) fn note_plan_cache_eviction(&self) {
        self.cache_evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn tick(&self) -> u64 {
        self.cache_tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether every `(table, schema)` a cached plan was compiled against
    /// still matches the live catalog.
    pub(crate) fn scans_unchanged(&self, scans: &[(String, Vec<String>)]) -> bool {
        scans.iter().all(|(table, expected)| {
            self.catalog.get(table).is_some_and(|t| {
                let live = t.columns();
                live.len() == expected.len()
                    && live
                        .iter()
                        .zip(expected)
                        .all(|(c, e)| c.name.eq_ignore_ascii_case(e))
            })
        })
    }

    /// Snapshot of the engine-wide access-path counters: how many
    /// morsels zone-map pruning skipped vs. actually scanned (for
    /// pruning-eligible scans), how many ANN top-k operator executions
    /// ran, and how many chain executions bound the chain kernel or fell
    /// back. Monotonic over the engine's lifetime.
    pub fn access_path_stats(&self) -> AccessPathStats {
        self.access.snapshot()
    }

    /// The shared counter cell itself — handed to [`ExecContext`]s so
    /// executions accumulate in place.
    pub(crate) fn access_counters(&self) -> &Arc<AccessPathCounters> {
        &self.access
    }
}

impl std::fmt::Debug for TdpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdpEngine")
            .field("tables", &self.catalog.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_storage::TableBuilder;

    /// The compile-time contract of the split: the engine (with
    /// everything it owns — catalog, plan cache, shared registry,
    /// counters, vector indexes) crosses threads freely.
    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TdpEngine>();
        assert_send_sync::<EngineStats>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn sessions_register_and_deregister() {
        let engine = TdpEngine::new();
        assert_eq!(engine.stats().sessions_open, 0);
        let a = engine.session();
        let b = engine.session();
        assert_eq!(engine.stats().sessions_open, 2);
        assert_eq!(engine.stats().sessions_total, 2);
        drop(a);
        assert_eq!(engine.stats().sessions_open, 1);
        drop(b);
        let stats = engine.stats();
        assert_eq!(stats.sessions_open, 0);
        assert_eq!(stats.sessions_total, 2, "total never decreases");
    }

    #[test]
    fn engine_catalog_is_shared_between_sessions() {
        let engine = TdpEngine::new();
        let a = engine.session();
        let b = engine.session();
        a.register_table(TableBuilder::new().col_f32("x", vec![1.0, 2.0]).build("t"));
        assert_eq!(
            b.query("SELECT COUNT(*) FROM t")
                .unwrap()
                .run()
                .unwrap()
                .rows(),
            1,
            "session B sees session A's table"
        );
        assert!(b.drop_table("t"));
        assert!(a.catalog().get("t").is_none());
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let engine = TdpEngine::new();
        engine.register_table(
            TableBuilder::new()
                .col_f32("v", (0..100).map(|i| i as f32).collect())
                .build("nums"),
        );
        // Warm the cache before spawning: concurrent first-compilations
        // legitimately race (both threads can miss before either
        // stores), which would make the hit count nondeterministic.
        engine
            .session()
            .prepare("SELECT COUNT(*) FROM nums WHERE v >= ?")
            .unwrap();
        let mut handles = Vec::new();
        for i in 0..8 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let session = engine.session();
                let threshold = (i * 10) as f64;
                let p = session
                    .prepare("SELECT COUNT(*) FROM nums WHERE v >= ?")
                    .unwrap();
                let out = p
                    .bind(tdp_exec::ParamValues::new().number(threshold))
                    .unwrap()
                    .run()
                    .unwrap();
                out.column("COUNT(*)").unwrap().data.decode_i64().to_vec()[0]
            }));
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 100 - (i as i64) * 10);
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions_open, 0);
        assert_eq!(stats.queries_served, 8);
        assert_eq!(
            stats.plan_cache.hits, 8,
            "the normalized statement is shared across sessions: {stats:?}"
        );
        assert_eq!(stats.plan_cache.misses, 1);
        assert!(stats.plan_cache_hit_rate() > 0.5);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        let engine = TdpEngine::new();
        assert_eq!(engine.stats().plan_cache_hit_rate(), 0.0);
    }
}
