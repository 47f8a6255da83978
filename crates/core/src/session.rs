//! Sessions and the single-user facade: per-user state + query compiler.
//!
//! [`Session`] is the per-user handle onto a shared [`TdpEngine`]: it
//! carries everything that can legitimately differ between two users of
//! one engine (default device, scheduler knobs, session-local function
//! registrations whose trainable parameters ride the `Rc`-based autodiff
//! tape) and delegates everything shared (catalog, cross-session plan
//! cache, engine-registered functions, access-path counters, vector
//! indexes) to the engine. [`Tdp`] — an engine plus one session, `Deref`ing to the
//! session — keeps the embedded single-user API of the earlier PRs
//! intact.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use tdp_exec::{ParamValue, ParamValues, ScalarUdf, TableFunction, UdfRegistry};
use tdp_sql::plan::PlannerContext;
use tdp_sql::{optimizer, parse};
use tdp_storage::{Catalog, Table, TableBuilder};
use tdp_tensor::{Device, F32Tensor};

use crate::compiled::{CompiledPlan, CompiledQuery, Prepared, QueryConfig};
use crate::engine::{CacheEntry, Lookup, PlanCache, TdpEngine};
use crate::error::TdpError;

/// Plan-cache counters (see [`Session::plan_cache_stats`]). Hits, misses
/// and evictions accumulate engine-wide — over every session, whichever
/// tier (shared or session overlay) served the lookup; `entries` is the
/// current size. Together they distinguish cold misses (misses with few
/// evictions) from LRU churn (misses tracking evictions), which hit/miss
/// alone cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by LRU capacity eviction (invalidations and
    /// explicit clears are not evictions).
    pub evictions: u64,
    pub entries: usize,
}

/// Result of [`Session::execute`]: rows for queries, an acknowledgement
/// line for DDL.
#[derive(Debug)]
pub enum StatementOutcome {
    /// A SELECT's result table.
    Rows(Table),
    /// DDL acknowledgement (e.g. `CREATE INDEX idx`).
    Ack(String),
}

/// One user's handle onto a shared [`TdpEngine`] — the per-user half of
/// the engine/session split (see [`crate::engine`] for the ownership
/// picture).
///
/// Sessions are single-threaded at the API surface (session-local
/// function parameters live on the autodiff tape, which is `Rc`-based,
/// exactly like a PyTorch process) and deliberately `!Send`; concurrency
/// comes from opening one session per thread on the same engine
/// ([`TdpEngine::session`]). Exact query execution is still
/// morsel-parallel *within* a session: scans are partitioned into
/// ~64k-row morsels and fused operator pipelines run across a worker
/// pool sized by [`Session::set_threads`]. Thread count never changes
/// results.
///
/// ## Defaults
///
/// A new session starts from fixed defaults, whatever the process
/// environment: threads = the machine's available parallelism (read
/// once per engine), morsel rows = [`tdp_exec::DEFAULT_MORSEL_ROWS`],
/// chain kernels on, zone maps on, stale-IVF rebuilds off (0). Memory is
/// the engine's: unlimited unless built by
/// [`TdpEngine::with_memory_budget`]. Each setter below changes its
/// value for this session only.
///
/// ## What lives where
///
/// Per session: bound parameter state on [`Prepared`] handles, the
/// default [`Device`], scheduler knobs (threads / morsel rows /
/// chain-kernel and zone-map switches), functions registered with
/// [`Session::register_udf`] / [`Session::register_tvf`]. Per engine:
/// the catalog, the cross-session plan cache, functions registered with
/// [`Session::register_udf_parallel`], access-path and chain-kernel
/// counters, vector indexes.
///
/// ## Plan caching across sessions
///
/// The plan cache has two tiers of one type (see [`crate::engine`]):
/// [`Session::prepare`] looks in the session's private overlay first
/// (plans involving session-local functions), then in the engine's
/// shared cache. Plans compiled purely from builtins and
/// engine-registered functions land in the shared cache, so *another*
/// session preparing the same normalized statement hits without
/// compiling; plans touching session-local functions stay private. A
/// shared entry records the function names it resolved, and a session
/// that has locally registered any of them bypasses the entry — local
/// registrations win without poisoning other sessions. Engine function
/// registration and vector-index DDL invalidate both tiers in every
/// session.
pub struct Session {
    engine: Arc<TdpEngine>,
    /// Session-local functions only (locally registered scalar UDFs and
    /// TVFs). Each compilation or run reads a view ([`Session::udfs_snapshot`]):
    /// the engine's function table by pointer plus copies of these
    /// entries. On a name collision the local registration wins.
    udfs: RefCell<UdfRegistry>,
    /// Bumped on every *session-local* registration; cached plans note it
    /// (registrations can change plan shape — e.g. the TVF-ness of a
    /// name).
    local_epoch: Cell<u64>,
    default_device: Cell<Device>,
    /// Session-local plan-cache overlay keyed like the engine cache
    /// (normalized statement text); holds only plans whose resolution
    /// involved session-local functions.
    plan_cache: RefCell<PlanCache>,
    /// Morsel-scheduler worker count for exact execution.
    threads: Cell<usize>,
    /// Rows per morsel (tunable mostly for tests/benchmarks).
    morsel_rows: Cell<usize>,
    /// Whether executions may run chains on the chain kernels
    /// (default on).
    chain_kernels_on: Cell<bool>,
    /// Whether executions consult zone maps for chunk pruning
    /// (default on).
    zone_maps_on: Cell<bool>,
    /// Stale-IVF auto-rebuild threshold (default 0 = off).
    ivf_rebuild_after: Cell<u64>,
}

impl Session {
    pub(crate) fn new(engine: Arc<TdpEngine>) -> Session {
        Session {
            threads: Cell::new(engine.default_threads()),
            engine,
            udfs: RefCell::new(UdfRegistry::new()),
            local_epoch: Cell::new(0),
            default_device: Cell::new(Device::Cpu),
            plan_cache: RefCell::new(PlanCache::default()),
            morsel_rows: Cell::new(tdp_exec::DEFAULT_MORSEL_ROWS),
            chain_kernels_on: Cell::new(true),
            zone_maps_on: Cell::new(true),
            ivf_rebuild_after: Cell::new(0),
        }
    }

    /// The shared engine this session runs on.
    pub fn engine(&self) -> &Arc<TdpEngine> {
        &self.engine
    }

    // ------------------------------------------------------------------
    // Morsel-scheduler configuration
    // ------------------------------------------------------------------

    /// Set the worker-thread count for exact query execution (clamped to
    /// ≥ 1). Results are identical at every thread count — parallelism
    /// only changes who processes each morsel.
    pub fn set_threads(&self, n: usize) {
        self.threads.set(n.max(1));
    }

    /// Current morsel-scheduler worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Set the rows-per-morsel partition size (clamped to ≥ 1). Changing
    /// it may shift the last bit of parallel float aggregates (morsel
    /// boundaries move); at a fixed size, results are thread-invariant.
    pub fn set_morsel_rows(&self, n: usize) {
        self.morsel_rows.set(n.max(1));
    }

    /// Current rows-per-morsel partition size.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows.get()
    }

    /// Enable or disable compiled chain kernels (default on). Disabling
    /// routes every fused filter→project chain through the interpreter;
    /// results are identical either way — the compiler is a pure
    /// performance substitution with the interpreter as its oracle.
    pub fn set_chain_kernels(&self, on: bool) {
        self.chain_kernels_on.set(on);
    }

    /// Whether compiled chain kernels are consulted for execution.
    pub fn chain_kernels_enabled(&self) -> bool {
        self.chain_kernels_on.get()
    }

    /// Cumulative chain-kernel counters, **engine-wide** (every session
    /// of this engine): chain executions bound to the kernel (`hits`)
    /// and ones that fell back to the interpreter with kernels on
    /// (`fallbacks`). Verdicts are vetted per execution, so `misses` is
    /// always 0.
    pub fn chain_kernel_stats(&self) -> tdp_exec::ChainKernelStats {
        let access = self.engine.access_path_stats();
        tdp_exec::ChainKernelStats {
            hits: access.kernel_binds,
            misses: 0,
            fallbacks: access.kernel_fallbacks,
        }
    }

    /// Enable or disable zone-map chunk pruning (default on). Pruning is a pure
    /// performance substitution: a skipped morsel is one the compiled
    /// filter provably rejects wholesale, so results are byte-identical
    /// either way — which the test suite exercises at both settings.
    pub fn set_zone_maps(&self, on: bool) {
        self.zone_maps_on.set(on);
    }

    /// Whether zone-map chunk pruning is consulted during execution.
    pub fn zone_maps_enabled(&self) -> bool {
        self.zone_maps_on.get()
    }

    /// Set the stale-IVF auto-rebuild threshold (default 0 = off).
    /// With a threshold of `n`, an IVF index that has degraded to the
    /// exact fallback `n` times since its last build is retrained in
    /// place — same name, nlist and nprobe — by the next ANN query that
    /// would have fallen back again, and the tally resets. Rebuilds
    /// never change results (the fallback is already exact); they
    /// restore the approximate fast path after table appends.
    pub fn set_ivf_rebuild_after(&self, n: u64) {
        self.ivf_rebuild_after.set(n);
    }

    /// Current stale-IVF auto-rebuild threshold (0 = off).
    pub fn ivf_rebuild_after(&self) -> u64 {
        self.ivf_rebuild_after.get()
    }

    /// Device used by queries that do not override it.
    pub fn set_default_device(&self, device: Device) {
        self.default_device.set(device);
    }

    pub fn default_device(&self) -> Device {
        self.default_device.get()
    }

    /// The engine catalog (mostly for inspection/tests). Shared: tables
    /// registered here are visible to every session of the engine.
    pub fn catalog(&self) -> &Catalog {
        self.engine.catalog()
    }

    // ------------------------------------------------------------------
    // Registration (paper Listing 1: `tdp.sql.register_df`)
    // ------------------------------------------------------------------

    /// Register a table, placing it on the session's default device.
    pub fn register_table(&self, table: Table) {
        let device = self.default_device();
        self.engine.register_table(table.to_device(device));
    }

    /// Register a table on an explicit device.
    pub fn register_table_on(&self, table: Table, device: Device) {
        self.engine.register_table(table.to_device(device));
    }

    /// Append rows to an already-registered table instead of replacing
    /// it ([`TdpEngine::append_rows`]): the stored columns grow in place
    /// while nothing else holds them, zone maps are extended
    /// incrementally over the new rows and existing vector indexes are
    /// kept (stale — ANN queries fall back to exact search until the
    /// index is rebuilt). Results and tables taken before the append are
    /// snapshots: they keep exactly the rows they saw, and while one is
    /// held the next append pays one copy of the table. Returns `false`,
    /// changing nothing, if the table is missing or a column's name or
    /// type disagrees (an `f32` batch for an `i64` column, a `[n, 8]`
    /// payload for a `[n, 4]` one).
    pub fn append_rows(&self, name: &str, rows: &Table) -> bool {
        let device = self.default_device();
        self.engine.append_rows(name, &rows.to_device(device))
    }

    /// Register a bare tensor as a one-column table named after itself —
    /// the `register_tensor` of paper Listing 5, used to feed TVFs.
    pub fn register_tensor(&self, name: &str, tensor: F32Tensor) {
        let table = TableBuilder::new().col_tensor("value", tensor).build(name);
        self.register_table(table);
    }

    /// Register CSV text as a table (numeric columns inferred).
    pub fn register_csv(&self, name: &str, text: &str) -> Result<(), TdpError> {
        let table = tdp_storage::csv::parse_csv(name, text).map_err(TdpError::Session)?;
        self.register_table(table);
        Ok(())
    }

    /// Register a table from a TDPF file (the Parquet-registration analog
    /// of paper Listing 1). The table keeps the name stored in the file;
    /// returns that name.
    pub fn register_file(&self, path: impl AsRef<std::path::Path>) -> Result<String, TdpError> {
        let table = tdp_storage::load_table(path).map_err(|e| TdpError::Session(e.to_string()))?;
        let name = table.name().to_owned();
        self.register_table(table);
        Ok(name)
    }

    /// Save a registered table to a TDPF file, preserving column encodings.
    pub fn save_table(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), TdpError> {
        let table = self
            .catalog()
            .get(name)
            .ok_or_else(|| TdpError::Session(format!("unknown table '{name}'")))?;
        tdp_storage::save_table(&table, path).map_err(|e| TdpError::Session(e.to_string()))
    }

    /// Save every registered table into `dir` as `<table>.tdpf` files —
    /// a whole-database snapshot. Returns the table names written.
    pub fn save_catalog(&self, dir: impl AsRef<std::path::Path>) -> Result<Vec<String>, TdpError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| TdpError::Session(format!("cannot create {}: {e}", dir.display())))?;
        let mut names = self.catalog().names();
        names.sort();
        for name in &names {
            self.save_table(name, dir.join(format!("{name}.tdpf")))?;
        }
        Ok(names)
    }

    /// Register every `.tdpf` file found in `dir`. Returns the table
    /// names registered (the inverse of [`Session::save_catalog`]).
    pub fn open_catalog(&self, dir: impl AsRef<std::path::Path>) -> Result<Vec<String>, TdpError> {
        let dir = dir.as_ref();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| TdpError::Session(format!("cannot read {}: {e}", dir.display())))?;
        let mut names = Vec::new();
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "tdpf"))
            .collect();
        paths.sort();
        for path in paths {
            names.push(self.register_file(&path)?);
        }
        Ok(names)
    }

    /// Drop a table engine-wide; returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        self.engine.drop_table(name)
    }

    // ------------------------------------------------------------------
    // Function registration (paper §3, the `tdp_udf` annotation)
    // ------------------------------------------------------------------

    /// Register a scalar UDF, visible to **this session only**. Functions
    /// registered here stay session-thread-bound — the right home for
    /// trainable UDFs whose parameters ride the `Rc`-based autodiff tape.
    /// On a name collision with an engine-registered function, the local
    /// registration wins for this session. Stateless functions should
    /// prefer [`Session::register_udf_parallel`].
    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.udfs.borrow_mut().register_scalar(udf);
        self.local_epoch.set(self.local_epoch.get() + 1);
    }

    /// Register a `Send + Sync` scalar UDF on the **engine**, visible to
    /// every session. Combined with a [`tdp_exec::FunctionSpec`]
    /// declaring `parallel_safe`, queries applying it execute through the
    /// morsel scheduler's worker pool instead of falling back to the
    /// sequential whole-batch path.
    pub fn register_udf_parallel(&self, udf: Arc<dyn ScalarUdf + Send + Sync>) {
        self.engine.register_udf_shared(udf);
    }

    /// Register a table-valued function, visible to **this session only**.
    pub fn register_tvf(&self, tvf: Arc<dyn TableFunction>) {
        self.udfs.borrow_mut().register_table_fn(tvf);
        self.local_epoch.set(self.local_epoch.get() + 1);
    }

    /// The session's complete function view: engine-registered functions
    /// merged with session-local ones (local wins on collision).
    pub(crate) fn udfs_snapshot(&self) -> UdfRegistry {
        UdfRegistry::merged(&self.engine.shared_udfs(), &self.udfs.borrow())
    }

    // ------------------------------------------------------------------
    // Query compilation (paper Listing 2 / Listing 6)
    // ------------------------------------------------------------------

    /// Compile SQL with the default configuration (exact operators,
    /// session default device). Desugars to a zero-parameter
    /// [`Session::prepare`] + bind: statements with `?`/`$n` placeholders
    /// must go through [`Session::prepare`] so values can be supplied.
    pub fn query(&self, sql: &str) -> Result<CompiledQuery<'_>, TdpError> {
        self.query_with(sql, QueryConfig::default().device(self.default_device()))
    }

    /// Compile SQL with an explicit configuration. With
    /// [`QueryConfig::trainable`], the physical plan uses the soft
    /// differentiable operators (paper §4).
    pub fn query_with(
        &self,
        sql: &str,
        config: QueryConfig,
    ) -> Result<CompiledQuery<'_>, TdpError> {
        self.prepare_with(sql, config)?.bind(ParamValues::new())
    }

    /// Execute a top-level statement. SELECT queries compile and run
    /// like [`Session::query`]; the vector-index DDL forms apply to the
    /// catalog eagerly and return an acknowledgement:
    ///
    /// ```sql
    /// CREATE INDEX idx ON vecs (emb) USING ivf(64, 8) METRIC l2
    /// DROP INDEX idx
    /// ```
    ///
    /// The default method is `flat` (exact) and the default metric `l2`
    /// — matching the `distance()` builtin the ANN top-k planner
    /// recognizes. Index builds are deterministic (fixed seed).
    pub fn execute(&self, sql: &str) -> Result<StatementOutcome, TdpError> {
        match tdp_sql::parse_statement(sql)? {
            tdp_sql::Statement::Query(_) => self.query(sql)?.run().map(StatementOutcome::Rows),
            tdp_sql::Statement::CreateIndex {
                name,
                table,
                column,
                method,
                metric,
            } => {
                let metric = match metric.as_deref() {
                    None | Some("l2") => tdp_index::Metric::L2,
                    Some("ip") | Some("inner_product") => tdp_index::Metric::InnerProduct,
                    Some("cosine") => tdp_index::Metric::Cosine,
                    Some(other) => {
                        return Err(TdpError::Session(format!(
                            "unknown metric '{other}'; expected l2, ip or cosine"
                        )))
                    }
                };
                let kind = match method {
                    tdp_sql::IndexMethod::Flat => crate::vector::IndexKind::Flat,
                    tdp_sql::IndexMethod::Ivf { nlist, nprobe } => {
                        crate::vector::IndexKind::IvfFlat(tdp_index::IvfParams::new(nlist), nprobe)
                    }
                };
                self.create_named_vector_index(&name, &table, &column, metric, kind, 0x5eed)?;
                Ok(StatementOutcome::Ack(format!("CREATE INDEX {name}")))
            }
            tdp_sql::Statement::DropIndex { name } => {
                if self.catalog().drop_vector_index(&name) {
                    self.engine.invalidate_plans();
                    Ok(StatementOutcome::Ack(format!("DROP INDEX {name}")))
                } else {
                    Err(TdpError::Session(format!("no index named '{name}'")))
                }
            }
        }
    }

    /// Prepare SQL with the default configuration — parse,
    /// auto-parameterise literals, optimise and lower, once. The returned
    /// [`Prepared`] is bound with values per execution
    /// (`prepared.bind(params)?.run()`), the training-loop shape the paper
    /// compiles queries for.
    pub fn prepare(&self, sql: &str) -> Result<Prepared<'_>, TdpError> {
        self.prepare_with(sql, QueryConfig::default().device(self.default_device()))
    }

    /// Prepare SQL with an explicit configuration.
    ///
    /// Compilation results are cached by *normalized* statement text:
    /// every literal is lifted into a parameter slot before hashing, so
    /// texts differing only in constants — the REPL / training-loop
    /// pattern — hit the same compiled [`tdp_exec::PhysicalPlan`]. The
    /// session overlay is consulted first, then the engine's cross-session
    /// cache (see the [`Session`] docs for the two-tier rules). Cache entries
    /// are invalidated when a referenced table's schema changes, when the
    /// relevant function registry changes or a vector index is created or
    /// dropped, and evicted per-entry LRU at capacity. Every path — miss,
    /// either tier's hit, and [`Prepared::bind`] — runs the same
    /// declared-argument type check.
    pub fn prepare_with(&self, sql: &str, config: QueryConfig) -> Result<Prepared<'_>, TdpError> {
        let ast = parse(sql)?;
        let merged = self.udfs_snapshot();
        // Immutable UDF calls over literal arguments fold into literals
        // *before* auto-parameterisation, so the folded constant shares
        // plan-cache entries like any other literal. (Folding consults
        // the merged registry, so sessions with different local functions
        // normalize to different keys — the text itself carries the
        // divergence.)
        let ast = tdp_exec::fold_immutable_udfs(ast, &merged);
        let explicit = tdp_sql::param::explicit_param_count(&ast);
        let (ast, literals) = tdp_sql::param::parameterize_literals(ast, explicit);
        let implicit: Vec<ParamValue> = literals.iter().map(ParamValue::from).collect();
        let key = ast.to_string();

        let local_udfs = self.udfs.borrow();
        let now = Lookup {
            engine: &self.engine,
            plan_epoch: self.engine.plan_epoch(),
            local_epoch: self.local_epoch.get(),
            catalog_version: self.engine.catalog().version(),
            local_udfs: &local_udfs,
        };
        // The overlay first: its entries override engine entries for this
        // session by construction.
        let cached = self.plan_cache.borrow_mut().hit(&key, &now);
        if let Some(plan) = cached.or_else(|| self.engine.plan_cache().hit(&key, &now)) {
            self.engine.note_plan_cache_hit();
            return Prepared::new(self, plan, config, explicit, implicit);
        }
        self.engine.note_plan_cache_miss();

        let logical = tdp_sql::plan::build_plan(
            &ast,
            &PlannerContext {
                is_tvf: &|n| merged.is_table_fn(n),
            },
        )?;
        let logical = optimizer::optimize(logical);
        let physical = tdp_exec::lower(&logical, self.engine.catalog(), &merged)?;
        let plan = Arc::new(CompiledPlan::new(logical, physical, &merged));
        // Checked before the store, so a wrongly typed literal caches
        // nothing.
        let prepared = Prepared::new(self, Arc::clone(&plan), config, explicit, implicit)?;

        // Cache only plans whose scans all resolved a schema: a plan
        // compiled against a missing table must not pin that state.
        let scans = plan.physical.scans().into_iter();
        if let Some(scans) = scans.map(|(t, s)| Some((t, s?))).collect() {
            let entry = CacheEntry::new(plan, &now, scans);
            let evicted = if entry.is_local() {
                self.plan_cache.borrow_mut().insert(key, entry)
            } else {
                self.engine.plan_cache().insert(key, entry)
            };
            if evicted {
                self.engine.note_plan_cache_eviction();
            }
        }
        Ok(prepared)
    }

    /// Number of cached compiled plans visible to this session: engine
    /// entries plus this session's overlay (diagnostics / tests).
    pub fn plan_cache_len(&self) -> usize {
        self.engine.plan_cache_stats().entries + self.plan_cache.borrow().len()
    }

    /// Cumulative engine-wide hit/miss/eviction counters plus the entry
    /// count visible to this session (engine cache + session overlay).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let mut stats = self.engine.plan_cache_stats();
        stats.entries += self.plan_cache.borrow().len();
        stats
    }

    /// Drop every cached compiled plan — the engine cache *and* this
    /// session's overlay (counters keep accumulating).
    pub fn clear_plan_cache(&self) {
        self.engine.clear_plan_cache();
        self.plan_cache.borrow_mut().clear();
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.engine.note_session_closed();
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("default_device", &self.default_device.get())
            .field("threads", &self.threads.get())
            .finish_non_exhaustive()
    }
}

/// An AI-centric database, embedded: one [`TdpEngine`] plus one
/// [`Session`], presented as a single handle. `Tdp` dereferences to its
/// session, so the whole session API (`query`, `prepare`,
/// `register_table`, …) is available directly — existing single-user
/// code keeps compiling unchanged on top of the engine/session split.
///
/// For multi-user embedding (one session per thread over shared tables
/// and caches), create the engine explicitly:
///
/// ```
/// use tdp_core::TdpEngine;
///
/// let engine = TdpEngine::new();
/// let session_a = engine.session(); // e.g. one per thread
/// let session_b = engine.session();
/// # drop((session_a, session_b));
/// ```
pub struct Tdp {
    session: Session,
}

impl Default for Tdp {
    fn default() -> Self {
        Tdp::new()
    }
}

impl Tdp {
    /// A fresh engine with one session on it.
    pub fn new() -> Tdp {
        Tdp {
            session: TdpEngine::new().session(),
        }
    }

    /// The underlying shared engine — open more sessions from other
    /// threads with [`TdpEngine::session`].
    pub fn engine(&self) -> &Arc<TdpEngine> {
        self.session.engine()
    }

    /// The facade's own session, explicitly.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Unwrap into the underlying session.
    pub fn into_session(self) -> Session {
        self.session
    }
}

impl std::ops::Deref for Tdp {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

impl std::fmt::Debug for Tdp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tdp")
            .field("session", &self.session)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PLAN_CACHE_CAP;
    use tdp_tensor::Tensor;

    #[test]
    fn register_and_query_round_trip() {
        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0])
                .build("t"),
        );
        let out = tdp
            .query("SELECT x FROM t WHERE x >= 2")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn register_tensor_creates_value_table() {
        let tdp = Tdp::new();
        tdp.register_tensor("grid", Tensor::<f32>::zeros(&[2, 1, 4, 4]));
        let t = tdp.catalog().get("grid").expect("registered");
        assert_eq!(t.rows(), 2);
        assert_eq!(t.column("value").unwrap().data.row_shape(), vec![1, 4, 4]);
    }

    #[test]
    fn re_registration_replaces_input_like_listing5() {
        let tdp = Tdp::new();
        tdp.register_tensor("g", Tensor::<f32>::zeros(&[1, 2]));
        let q = tdp.query("SELECT COUNT(*) FROM g").unwrap();
        assert_eq!(
            q.run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![1]
        );
        // New input under the same name; the *same* compiled query sees it.
        tdp.register_tensor("g", Tensor::<f32>::zeros(&[5, 2]));
        assert_eq!(
            q.run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![5]
        );
    }

    #[test]
    fn csv_registration() {
        let tdp = Tdp::new();
        tdp.register_csv("iris", "w,species\n1.5,a\n2.5,b\n")
            .unwrap();
        let out = tdp.query("SELECT AVG(w) FROM iris").unwrap().run().unwrap();
        assert_eq!(
            out.column("AVG(w)").unwrap().data.decode_f32().to_vec(),
            vec![2.0]
        );
        assert!(tdp.register_csv("bad", "").is_err());
    }

    #[test]
    fn drop_table() {
        let tdp = Tdp::new();
        tdp.register_tensor("tmp", Tensor::<f32>::zeros(&[1]));
        assert!(tdp.drop_table("tmp"));
        assert!(!tdp.drop_table("tmp"));
        assert!(tdp.query("SELECT * FROM tmp").unwrap().run().is_err());
    }

    #[test]
    fn file_round_trip_through_session() {
        let dir = std::env::temp_dir().join("tdp_session_files");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("numbers.tdpf");

        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0])
                .col_str("tag", &["a", "b", "a"])
                .build("numbers"),
        );
        tdp.save_table("numbers", &path).unwrap();
        assert!(matches!(
            tdp.save_table("missing", &path),
            Err(TdpError::Session(_))
        ));

        let fresh = Tdp::new();
        let name = fresh.register_file(&path).unwrap();
        assert_eq!(name, "numbers");
        let out = fresh
            .query("SELECT tag, COUNT(*) FROM numbers GROUP BY tag")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.rows(), 2);
        std::fs::remove_file(&path).ok();
        assert!(fresh.register_file(&path).is_err());
    }

    #[test]
    fn catalog_snapshot_round_trip() {
        let dir = std::env::temp_dir().join("tdp_catalog_snapshot");
        std::fs::remove_dir_all(&dir).ok();

        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("a", vec![1.0]).build("t1"));
        tdp.register_table(TableBuilder::new().col_f32("b", vec![2.0, 3.0]).build("t2"));
        let written = tdp.save_catalog(&dir).unwrap();
        assert_eq!(written, vec!["t1", "t2"]);

        let fresh = Tdp::new();
        let opened = fresh.open_catalog(&dir).unwrap();
        assert_eq!(opened, vec!["t1", "t2"]);
        assert_eq!(fresh.catalog().get("t2").unwrap().rows(), 2);
        std::fs::remove_dir_all(&dir).ok();
        assert!(fresh.open_catalog(&dir).is_err());
    }

    #[test]
    fn plan_cache_hits_and_is_fingerprint_identical() {
        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0])
                .build("t"),
        );
        let sql = "SELECT x FROM t WHERE x > 1 ORDER BY x DESC LIMIT 2";
        let q1 = tdp.query(sql).unwrap();
        assert_eq!(tdp.plan_cache_len(), 1);
        let q2 = tdp.query(sql).unwrap();
        assert_eq!(tdp.plan_cache_len(), 1, "second compile is a cache hit");
        assert_eq!(q1.fingerprint(), q2.fingerprint());
        // The cached physical plan is literally shared, not re-lowered.
        assert!(std::ptr::eq(q1.physical_plan(), q2.physical_plan()));
        // Plans are config-independent: a different config reuses the
        // same cache entry (the config rides on the BoundQuery).
        let q3 = tdp
            .query_with(sql, QueryConfig::default().temperature(0.5))
            .unwrap();
        assert_eq!(tdp.plan_cache_len(), 1);
        assert_eq!(q3.fingerprint(), q1.fingerprint());
        assert!(std::ptr::eq(q1.physical_plan(), q3.physical_plan()));
        assert_eq!(q3.config().temperature, 0.5);
    }

    #[test]
    fn plan_cache_is_literal_invariant() {
        // The tentpole acceptance: texts differing only in literal values
        // share one entry, and the hit counter proves the reuse.
        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("x", vec![1.0, 2.0, 3.0])
                .col_str("tag", &["a", "b", "a"])
                .build("t"),
        );
        let a = tdp
            .query("SELECT COUNT(*) FROM t WHERE x > 1.5 AND tag = 'a'")
            .unwrap();
        let stats0 = tdp.plan_cache_stats();
        assert_eq!((stats0.hits, stats0.misses, stats0.entries), (0, 1, 1));
        assert_eq!(stats0.evictions, 0);
        let b = tdp
            .query("SELECT COUNT(*) FROM t WHERE x > 0.5 AND tag = 'b'")
            .unwrap();
        let stats1 = tdp.plan_cache_stats();
        assert_eq!(
            (stats1.hits, stats1.misses, stats1.entries),
            (1, 1, 1),
            "second literal variant must hit the shared entry"
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(std::ptr::eq(a.physical_plan(), b.physical_plan()));
        // …and each variant still computes with its own constants.
        assert_eq!(
            a.run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![1],
            "x > 1.5 AND tag = 'a' keeps only x=3"
        );
        assert_eq!(
            b.run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![1],
            "x > 0.5 AND tag = 'b' keeps only x=2"
        );
        // Coinciding literal values must not split the entry: slots are
        // per occurrence, not per distinct value.
        let c = tdp
            .query("SELECT COUNT(*) FROM t WHERE x > 1.5 AND tag = 'a' AND x < 1.5")
            .unwrap();
        let d = tdp
            .query("SELECT COUNT(*) FROM t WHERE x > 0.5 AND tag = 'b' AND x < 2.5")
            .unwrap();
        assert_eq!(c.fingerprint(), d.fingerprint());
        assert!(std::ptr::eq(c.physical_plan(), d.physical_plan()));
        assert_eq!(
            d.run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![1]
        );
    }

    #[test]
    fn auto_parameterised_select_items_keep_their_names() {
        // Extraction must not leak `$n` into result column names: a
        // result set stays self-describing even though the values moved
        // into the binding.
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0, 2.0]).build("t"));
        let out = tdp.query("SELECT 5, x * 2 FROM t").unwrap().run().unwrap();
        assert_eq!(
            out.column("5").unwrap().data.decode_f32().to_vec(),
            vec![5.0, 5.0]
        );
        assert_eq!(
            out.column("(x * 2)").unwrap().data.decode_f32().to_vec(),
            vec![2.0, 4.0]
        );
        let out7 = tdp.query("SELECT 7, x * 2 FROM t").unwrap().run().unwrap();
        assert!(
            out7.column("7").is_some(),
            "each text names its own constant column"
        );
    }

    #[test]
    fn auto_parameterisation_keeps_constant_folding_alive() {
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0, 5.0]).build("t"));
        // Literal arithmetic folds before extraction: one slot, not two…
        let q = tdp.query("SELECT x FROM t WHERE x > 1 + 2").unwrap();
        let text = q.explain();
        assert!(text.contains("(x@0 > $1)"), "{text}");
        assert!(!text.contains("$2"), "folded to a single slot: {text}");
        // …and equivalent spellings share the cache entry.
        let q2 = tdp.query("SELECT x FROM t WHERE x > 3").unwrap();
        assert!(std::ptr::eq(q.physical_plan(), q2.physical_plan()));
        // Trivially-true predicates still vanish entirely.
        let t = tdp.query("SELECT x FROM t WHERE 1 < 2").unwrap();
        assert!(!t.explain().contains("Filter"), "{}", t.explain());
        assert_eq!(t.run().unwrap().rows(), 2);
    }

    #[test]
    fn plan_cache_invalidates_on_subquery_table_schema_change() {
        // Scans inside scalar subqueries pin cache validity too: changing
        // the subquery's table schema must recompile, not serve the stale
        // plan forever.
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0, 5.0]).build("t"));
        tdp.register_table(TableBuilder::new().col_f32("y", vec![3.0]).build("sub"));
        let sql = "SELECT x FROM t WHERE x > (SELECT MAX(y) FROM sub)";
        let before = tdp.query(sql).unwrap();
        assert_eq!(
            before
                .run()
                .unwrap()
                .column("x")
                .unwrap()
                .data
                .decode_f32()
                .to_vec(),
            vec![5.0]
        );
        // y moves from slot 0 to slot 1.
        tdp.register_table(
            TableBuilder::new()
                .col_f32("pad", vec![0.0])
                .col_f32("y", vec![0.5])
                .build("sub"),
        );
        let after = tdp.query(sql).unwrap();
        assert_ne!(after.fingerprint(), before.fingerprint());
        assert_eq!(
            after
                .run()
                .unwrap()
                .column("x")
                .unwrap()
                .data
                .decode_f32()
                .to_vec(),
            vec![1.0, 5.0]
        );
    }

    #[test]
    fn plan_fingerprints_distinguish_subqueries() {
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0]).build("t"));
        tdp.register_table(TableBuilder::new().col_f32("y", vec![2.0]).build("sub"));
        let a = tdp
            .query("SELECT x FROM t WHERE x > (SELECT MAX(y) FROM sub)")
            .unwrap()
            .fingerprint();
        let b = tdp
            .query("SELECT x FROM t WHERE x > (SELECT MIN(y) FROM sub)")
            .unwrap()
            .fingerprint();
        assert_ne!(a, b, "subquery content must reach the fingerprint");
    }

    #[test]
    fn plan_cache_is_bounded_with_lru_eviction() {
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0]).build("t"));
        // Literal variants all share ONE entry now…
        for i in 0..(PLAN_CACHE_CAP + 10) {
            tdp.query(&format!("SELECT x FROM t WHERE x > {i}"))
                .unwrap();
        }
        assert_eq!(tdp.plan_cache_len(), 1, "literal variants share an entry");
        // …so overflow needs structurally distinct statements.
        for i in 0..(PLAN_CACHE_CAP + 9) {
            tdp.query(&format!("SELECT x FROM t LIMIT {i}")).unwrap();
        }
        assert_eq!(tdp.plan_cache_len(), PLAN_CACHE_CAP, "bounded");
        // The filter entry was the least recently used -> evicted; the
        // most recent LIMIT entries survive.
        let before = tdp.plan_cache_stats();
        tdp.query(&format!("SELECT x FROM t LIMIT {}", PLAN_CACHE_CAP + 8))
            .unwrap();
        assert_eq!(
            tdp.plan_cache_stats().hits,
            before.hits + 1,
            "a recent entry must survive LRU eviction"
        );
        let before = tdp.plan_cache_stats();
        tdp.query("SELECT x FROM t WHERE x > 42").unwrap();
        assert_eq!(
            tdp.plan_cache_stats().misses,
            before.misses + 1,
            "the stalest entry must have been evicted"
        );
        // Still functional after evictions.
        assert_eq!(
            tdp.query("SELECT COUNT(*) FROM t")
                .unwrap()
                .run()
                .unwrap()
                .rows(),
            1
        );
    }

    #[test]
    fn plan_cache_survives_same_schema_re_registration() {
        // The Listing-5 training loop re-registers the input every
        // iteration with an identical schema: the cache must keep hitting.
        let tdp = Tdp::new();
        tdp.register_tensor("g", Tensor::<f32>::zeros(&[2, 2]));
        let sql = "SELECT COUNT(*) FROM g";
        let a = tdp.query(sql).unwrap().fingerprint();
        tdp.register_tensor("g", Tensor::<f32>::zeros(&[7, 2]));
        let b = tdp.query(sql).unwrap().fingerprint();
        assert_eq!(a, b);
        assert_eq!(tdp.plan_cache_len(), 1);
        assert_eq!(
            tdp.query(sql)
                .unwrap()
                .run()
                .unwrap()
                .column("COUNT(*)")
                .unwrap()
                .data
                .decode_i64()
                .to_vec(),
            vec![7]
        );
    }

    #[test]
    fn plan_cache_invalidates_on_schema_change() {
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![1.0, 2.0]).build("t"));
        let sql = "SELECT x FROM t";
        let before = tdp.query(sql).unwrap().fingerprint();
        // Same name, different schema: slots move, the entry must recompile.
        tdp.register_table(
            TableBuilder::new()
                .col_f32("pad", vec![0.0, 0.0])
                .col_f32("x", vec![3.0, 4.0])
                .build("t"),
        );
        let q = tdp.query(sql).unwrap();
        assert_ne!(q.fingerprint(), before, "x moved from slot 0 to slot 1");
        assert_eq!(
            q.run()
                .unwrap()
                .column("x")
                .unwrap()
                .data
                .decode_f32()
                .to_vec(),
            vec![3.0, 4.0]
        );
    }

    #[test]
    fn plan_cache_invalidates_on_function_registration() {
        use tdp_encoding::EncodedTensor;
        struct Boost;
        impl ScalarUdf for Boost {
            fn name(&self) -> &str {
                "boost"
            }
            fn invoke(
                &self,
                args: &[tdp_exec::ArgValue],
                _ctx: &tdp_exec::ExecContext,
            ) -> Result<EncodedTensor, tdp_exec::ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().mul_scalar(10.0),
                ))
            }
        }
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("abs", vec![-1.0]).build("t"));
        // 'ABS(abs)' resolves to the built-in before registration…
        let sql = "SELECT ABS(abs) AS v FROM t";
        let v1 = tdp.query(sql).unwrap().run().unwrap();
        assert_eq!(
            v1.column("v").unwrap().data.decode_f32().to_vec(),
            vec![1.0]
        );
        // …and to the session UDF of the same name after: the cached plan
        // must not survive the registration.
        tdp.register_udf(Arc::new(Boost));
        struct Abs;
        impl ScalarUdf for Abs {
            fn name(&self) -> &str {
                "abs"
            }
            fn invoke(
                &self,
                args: &[tdp_exec::ArgValue],
                _ctx: &tdp_exec::ExecContext,
            ) -> Result<EncodedTensor, tdp_exec::ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().mul_scalar(-2.0),
                ))
            }
        }
        tdp.register_udf(Arc::new(Abs));
        let v2 = tdp.query(sql).unwrap().run().unwrap();
        assert_eq!(
            v2.column("v").unwrap().data.decode_f32().to_vec(),
            vec![2.0],
            "UDF override must take effect after registration"
        );
    }

    #[test]
    fn clear_plan_cache_empties_it() {
        let tdp = Tdp::new();
        tdp.register_tensor("t", Tensor::<f32>::zeros(&[1]));
        tdp.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(tdp.plan_cache_len(), 1);
        tdp.clear_plan_cache();
        assert_eq!(tdp.plan_cache_len(), 0);
        assert_eq!(tdp.plan_cache_stats().entries, 0);
    }

    #[test]
    fn query_on_parameterised_sql_requires_prepare() {
        let tdp = Tdp::new();
        tdp.register_tensor("t", Tensor::<f32>::zeros(&[3]));
        let err = tdp.query("SELECT COUNT(*) FROM t WHERE value > ?");
        assert!(
            matches!(err, Err(TdpError::Session(ref m)) if m.contains("parameter")),
            "{err:?}"
        );
    }

    #[test]
    fn parse_errors_surface_at_compile_time() {
        let tdp = Tdp::new();
        assert!(matches!(tdp.query("SELEKT nope"), Err(TdpError::Sql(_))));
    }

    #[test]
    fn default_device_applies_to_registration() {
        let tdp = Tdp::new();
        tdp.set_default_device(Device::Accel(2));
        assert_eq!(tdp.default_device(), Device::Accel(2));
        tdp.register_tensor("t", Tensor::<f32>::ones(&[4, 2]));
        // Data values unaffected by placement.
        let out = tdp.query("SELECT COUNT(*) FROM t").unwrap().run().unwrap();
        assert_eq!(out.rows(), 1);
    }

    #[test]
    fn local_udf_plans_stay_in_the_session_overlay() {
        use tdp_encoding::EncodedTensor;
        struct Twice;
        impl ScalarUdf for Twice {
            fn name(&self) -> &str {
                "twice"
            }
            fn invoke(
                &self,
                args: &[tdp_exec::ArgValue],
                _ctx: &tdp_exec::ExecContext,
            ) -> Result<EncodedTensor, tdp_exec::ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().mul_scalar(2.0),
                ))
            }
        }
        let tdp = Tdp::new();
        tdp.register_table(TableBuilder::new().col_f32("x", vec![3.0]).build("t"));
        tdp.register_udf(Arc::new(Twice));
        tdp.query("SELECT twice(x) FROM t").unwrap().run().unwrap();
        assert_eq!(
            tdp.engine().plan_cache_stats().entries,
            0,
            "a plan resolving a session-local UDF must not enter the shared cache"
        );
        assert_eq!(tdp.plan_cache_len(), 1, "…but is cached in the overlay");
        let before = tdp.plan_cache_stats();
        tdp.query("SELECT twice(x) FROM t").unwrap();
        assert_eq!(tdp.plan_cache_stats().hits, before.hits + 1);
        // A plan with no local resolution still shares engine-wide.
        tdp.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(tdp.engine().plan_cache_stats().entries, 1);
    }
}
