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
//!   ├─ shared plan cache  Mutex           ├─ threads / morsels / partitions
//!   ├─ SharedUdfRegistry  RwLock          ├─ zone-map / chain-kernel toggles
//!   ├─ access-path        atomics         └─ session-local plan overlay
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
//! ## The cross-session plan cache
//!
//! Compiled plans are cached on the engine keyed by *normalized*
//! statement text (literals auto-parameterised), so two different users
//! preparing `SELECT v FROM t WHERE v > 1` and `… > 2` share one
//! compilation. An entry records its name-resolution dependencies
//! ([`tdp_exec::PhysicalPlan::function_names`]); a session that has
//! locally registered any of those names cannot use the shared entry
//! (its resolution may differ) and compiles into a session-local overlay
//! instead. Validity is checked exactly like the PR 2 session cache:
//! engine-wide UDF epoch plus per-scan schema validation against the
//! live catalog.
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
use std::sync::{Arc, Mutex, RwLock};

use tdp_exec::{
    AccessPathCounters, AccessPathStats, ParamConstraint, PhysicalPlan, ScalarUdf,
    SharedUdfRegistry,
};
use tdp_mem::MemoryPool;
use tdp_sql::plan::LogicalPlan;
use tdp_storage::{Catalog, Table};

use crate::session::{PlanCacheStats, Session};

/// Upper bound on plans cached by the engine (and, separately, by each
/// session's local overlay). Eviction is per-entry LRU.
pub(crate) const PLAN_CACHE_CAP: usize = 256;

/// Every `TDP_*` environment default, parsed once when an engine is
/// constructed. New sessions copy their scheduler knobs from here (each
/// stays adjustable through its [`Session`] setter); `mem_budget` sizes
/// the engine memory pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvDefaults {
    /// `TDP_THREADS`: worker count when a positive integer, else the
    /// machine's available parallelism.
    pub(crate) threads: usize,
    /// `TDP_MORSEL_ROWS`: rows per morsel, else
    /// [`tdp_exec::DEFAULT_MORSEL_ROWS`].
    pub(crate) morsel_rows: usize,
    /// `TDP_CHAIN_KERNELS`: on unless `0`, `false` or `off`. Either way
    /// the interpreter remains the oracle.
    pub(crate) chain_kernels: bool,
    /// `TDP_ZONE_MAPS`: on unless `0`, `false` or `off`. Pruning only
    /// ever skips morsels the filter would reject wholesale.
    pub(crate) zone_maps: bool,
    /// `TDP_IVF_REBUILD_AFTER=<n>`: retrain a stale IVF index at the next
    /// ANN query once it has fallen back to the exact scan `n` times.
    /// Unset, unparsable, or `0` all mean off — rebuilds are opt-in.
    pub(crate) ivf_rebuild_after: u64,
    /// `TDP_MEM_BUDGET`: engine memory budget in bytes (optionally
    /// suffixed `k`/`m`/`g`); unset or unparsable means unlimited.
    pub(crate) mem_budget: Option<u64>,
}

impl EnvDefaults {
    fn from_env() -> EnvDefaults {
        let var = |key: &str| std::env::var(key).ok();
        let positive = |key: &str| {
            var(key)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
        };
        let switch = |key: &str| {
            !var(key).is_some_and(|v| {
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "false" | "off"
                )
            })
        };
        EnvDefaults {
            threads: positive("TDP_THREADS").unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
            morsel_rows: positive("TDP_MORSEL_ROWS").unwrap_or(tdp_exec::DEFAULT_MORSEL_ROWS),
            chain_kernels: switch("TDP_CHAIN_KERNELS"),
            zone_maps: switch("TDP_ZONE_MAPS"),
            ivf_rebuild_after: var("TDP_IVF_REBUILD_AFTER")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            mem_budget: var("TDP_MEM_BUDGET").and_then(|v| tdp_mem::parse_bytes(&v)),
        }
    }
}

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
    /// Configured `TDP_MEM_BUDGET` in bytes; `None` when unlimited.
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

/// A compiled plan shared across sessions, plus everything needed to
/// decide whether a later prepare (possibly from a different session)
/// may reuse it.
pub(crate) struct SharedPlan {
    pub(crate) logical: Arc<LogicalPlan>,
    pub(crate) physical: Arc<PhysicalPlan>,
    pub(crate) fingerprint: u64,
    /// Catalog version the scans were validated against (fast-forwarded
    /// on every revalidating hit).
    pub(crate) catalog_version: u64,
    /// Engine UDF epoch the plan was compiled under.
    pub(crate) udf_epoch: u64,
    /// `(table, column names)` for every base-table scan.
    pub(crate) scans: Vec<(String, Vec<String>)>,
    /// Lowercased function names the plan's compilation resolved — the
    /// entry is unusable for a session that registered any of them
    /// locally.
    pub(crate) functions: Vec<String>,
    pub(crate) param_constraints: Vec<ParamConstraint>,
    /// Monotonic recency stamp for LRU eviction.
    pub(crate) last_used: u64,
}

/// What a successful engine-cache lookup hands back to the session.
pub(crate) struct PlanHit {
    pub(crate) logical: Arc<LogicalPlan>,
    pub(crate) physical: Arc<PhysicalPlan>,
    pub(crate) fingerprint: u64,
    pub(crate) param_constraints: Vec<ParamConstraint>,
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
    /// Bumped on every engine-level function registration; cached plans
    /// compiled under an older epoch are invalid (registration can change
    /// name resolution and therefore plan shape).
    udf_epoch: AtomicU64,
    /// Cross-session compiled-plan cache keyed by normalized text.
    plan_cache: Mutex<HashMap<String, SharedPlan>>,
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
    /// ledger charges against (`TDP_MEM_BUDGET`, default unlimited).
    memory: Arc<MemoryPool>,
    /// The `TDP_*` defaults new sessions start from.
    defaults: EnvDefaults,
    sessions_open: AtomicU64,
    sessions_total: AtomicU64,
    queries_served: AtomicU64,
    queries_queued: AtomicU64,
    queries_rejected: AtomicU64,
}

impl TdpEngine {
    /// Create a fresh engine. Returned as `Arc` because sessions hold a
    /// shared handle: `let engine = TdpEngine::new(); let s = engine.session();`
    pub fn new() -> Arc<TdpEngine> {
        TdpEngine::with_defaults(EnvDefaults::from_env())
    }

    /// Engine with an explicit per-process memory budget in bytes —
    /// the programmatic twin of `TDP_MEM_BUDGET` (tests can't set env
    /// vars safely in parallel).
    pub fn with_memory_budget(budget: u64) -> Arc<TdpEngine> {
        TdpEngine::with_defaults(EnvDefaults {
            mem_budget: Some(budget),
            ..EnvDefaults::from_env()
        })
    }

    fn with_defaults(defaults: EnvDefaults) -> Arc<TdpEngine> {
        let pool = match defaults.mem_budget {
            Some(budget) => MemoryPool::with_budget(budget),
            None => MemoryPool::unlimited(),
        };
        Arc::new(TdpEngine {
            catalog: Catalog::new(),
            shared_udfs: RwLock::new(SharedUdfRegistry::new()),
            udf_epoch: AtomicU64::new(0),
            plan_cache: Mutex::new(HashMap::new()),
            cache_tick: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            access: Arc::new(AccessPathCounters::default()),
            memory: Arc::new(pool),
            defaults,
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

    pub(crate) fn defaults(&self) -> &EnvDefaults {
        &self.defaults
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
    /// [`Session::register_udf_parallel`]). Bumps the engine UDF epoch,
    /// invalidating cached plans, exactly like a session registration
    /// used to.
    pub fn register_udf_shared(&self, udf: Arc<dyn ScalarUdf + Send + Sync>) {
        self.shared_udfs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .register_scalar(udf);
        self.udf_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the engine-level function registry.
    pub fn shared_udfs(&self) -> SharedUdfRegistry {
        self.shared_udfs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Current engine UDF-registration epoch.
    pub fn udf_epoch(&self) -> u64 {
        self.udf_epoch.load(Ordering::Relaxed)
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
            entries: self
                .plan_cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .len(),
        }
    }

    /// Drop every engine-cached compiled plan (counters keep
    /// accumulating; session overlays are cleared by
    /// [`Session::clear_plan_cache`]).
    pub fn clear_plan_cache(&self) {
        self.plan_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
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

    /// Session overlays report their LRU evictions here so the
    /// engine-wide counters cover both tiers.
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

    /// Look up a shared plan for `key`, valid for a session whose local
    /// registry is `local_udfs`. Counts a hit and refreshes recency on
    /// success; a miss is counted by the caller once overlay and engine
    /// lookups have both failed.
    pub(crate) fn cached_plan(
        &self,
        key: &str,
        engine_epoch: u64,
        catalog_version: u64,
        local_udfs: &tdp_exec::UdfRegistry,
    ) -> Option<PlanHit> {
        let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
        let entry = cache.get(key)?;
        // The entry must have been compiled under the current engine
        // registration epoch, against schemas that still hold, by a
        // resolution this session agrees with (none of the plan's
        // function names registered locally).
        let resolution_matches = entry.udf_epoch == engine_epoch
            && !entry
                .functions
                .iter()
                .any(|n| local_udfs.is_scalar(n) || local_udfs.is_table_fn(n));
        if !resolution_matches {
            return None;
        }
        if entry.catalog_version != catalog_version {
            // Dropping the lock for the schema walk would allow the entry
            // to be evicted mid-check; the walk is cheap (name
            // comparisons), so hold it.
            if !self.scans_unchanged(&entry.scans) {
                return None;
            }
        }
        let tick = self.cache_tick.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = cache.get_mut(key).expect("present above");
        entry.catalog_version = catalog_version;
        entry.last_used = tick;
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(PlanHit {
            logical: Arc::clone(&entry.logical),
            physical: Arc::clone(&entry.physical),
            fingerprint: entry.fingerprint,
            param_constraints: entry.param_constraints.clone(),
        })
    }

    /// Insert a freshly compiled shared plan, evicting the stalest entry
    /// at capacity. Two sessions racing to compile the same statement
    /// both insert; the second replaces the first with an identical plan.
    pub(crate) fn store_plan(&self, key: String, plan: SharedPlan) {
        let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
        if cache.len() >= PLAN_CACHE_CAP && !cache.contains_key(&key) {
            if let Some(oldest) = cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                cache.remove(&oldest);
                self.cache_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        cache.insert(key, plan);
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
        assert_send_sync::<SharedPlan>();
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
