//! Prepared statements and bound queries: the "query as a PyTorch model"
//! object, split into its compile-time and run-time halves.
//!
//! [`crate::Session::prepare`] parses, auto-parameterises, optimises and
//! lowers SQL **once** into a `CompiledPlan` — logical plan, physical
//! plan, fingerprint and the declared-argument list its type checks run
//! over — built at a plan-cache miss and then only read. Cache entries
//! of both tiers, [`Prepared`] statements and [`BoundQuery`]s all share
//! it through one `Arc`. [`Prepared::bind`] attaches parameter values
//! (a [`ParamValues`] built with the typed [`ParamValue`] constructors)
//! and yields a [`BoundQuery`], which executes through the exact,
//! profiled or differentiable executors. Training loops prepare once and
//! re-bind per iteration; `Session::query` keeps working by desugaring
//! to a zero-parameter prepare + bind.

use std::sync::Arc;

use tdp_autodiff::Var;
use tdp_exec::{
    ColumnData, DeclaredArg, DiffBatch, ExecContext, ParamValue, ParamValues, PhysicalPlan,
    UdfRegistry,
};
use tdp_sql::plan::LogicalPlan;
use tdp_storage::Table;
use tdp_tensor::Device;

use crate::error::TdpError;
use crate::session::Session;

/// Per-query compilation configuration (the paper's `extra_config`).
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    pub device: Device,
    /// Lower to differentiable soft operators (paper Listing 6:
    /// `{tdp.constants.TRAINABLE: True}`).
    pub trainable: bool,
    /// Temperature of relaxed predicates in trainable mode.
    pub temperature: f32,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            device: Device::Cpu,
            trainable: false,
            temperature: 0.1,
        }
    }
}

impl QueryConfig {
    pub fn device(mut self, device: Device) -> QueryConfig {
        self.device = device;
        self
    }

    pub fn trainable(mut self, trainable: bool) -> QueryConfig {
        self.trainable = trainable;
        self
    }

    pub fn temperature(mut self, temperature: f32) -> QueryConfig {
        assert!(temperature > 0.0, "temperature must be positive");
        self.temperature = temperature;
        self
    }
}

/// One compilation of a statement: built once at a plan-cache miss, then
/// shared read-only by cache entries, prepared statements and bound
/// queries.
pub(crate) struct CompiledPlan {
    pub(crate) logical: LogicalPlan,
    pub(crate) physical: PhysicalPlan,
    pub(crate) fingerprint: u64,
    /// Every argument of a declared-signature call, in plan order: what
    /// prepare (miss or hit) and bind type-check against their values.
    pub(crate) args: Vec<DeclaredArg>,
}

impl CompiledPlan {
    pub(crate) fn new(logical: LogicalPlan, physical: PhysicalPlan, udfs: &UdfRegistry) -> Self {
        CompiledPlan {
            fingerprint: physical.fingerprint(),
            args: tdp_exec::declared_args(&physical, udfs),
            logical,
            physical,
        }
    }
}

/// A prepared statement: SQL compiled into a slot-resolved
/// [`PhysicalPlan`] with `$n` parameter slots for its placeholders *and*
/// for every literal the session auto-parameterised. Binding is cheap —
/// one `Arc` clone and a values vector — so the prepare-once /
/// bind-per-iteration loop pays kernel dispatch only.
pub struct Prepared<'s> {
    session: &'s Session,
    plan: Arc<CompiledPlan>,
    config: QueryConfig,
    /// Slots the caller must supply: `?` / `$n` placeholders in the text.
    explicit_params: usize,
    /// Literals extracted at prepare time, bound automatically after the
    /// explicit slots.
    implicit: Vec<ParamValue>,
}

impl<'s> Prepared<'s> {
    /// Type-check `plan`'s declared arguments against this text's
    /// extracted literals (placeholders match anything until bound): the
    /// cache key is literal-invariant, so a cached plan can be served for
    /// a text whose literals have different types.
    pub(crate) fn new(
        session: &'s Session,
        plan: Arc<CompiledPlan>,
        config: QueryConfig,
        explicit_params: usize,
        implicit: Vec<ParamValue>,
    ) -> Result<Self, TdpError> {
        tdp_exec::check_args(&plan.args, explicit_params, &implicit)?;
        Ok(Prepared {
            session,
            plan,
            config,
            explicit_params,
            implicit,
        })
    }

    /// Number of values [`Prepared::bind`] expects (explicit placeholders
    /// only; auto-extracted literals are bound behind the scenes).
    pub fn param_count(&self) -> usize {
        self.explicit_params
    }

    /// Attach parameter values, producing an executable [`BoundQuery`].
    /// The binding must cover exactly the statement's explicit
    /// placeholders. Calls to functions with declared signatures are
    /// re-checked against the bound value types here, so a wrongly-typed
    /// binding fails at bind time instead of mid-execution.
    pub fn bind(&self, params: ParamValues) -> Result<BoundQuery<'s>, TdpError> {
        if params.len() != self.explicit_params {
            return Err(TdpError::Session(format!(
                "statement expects {} parameter(s), {} bound",
                self.explicit_params,
                params.len()
            )));
        }
        let bound = self.with_values(params);
        tdp_exec::check_args(&self.plan.args, 0, bound.params.values())?;
        Ok(bound)
    }

    /// `explicit` followed by the extracted literals, unchecked.
    fn with_values(&self, mut explicit: ParamValues) -> BoundQuery<'s> {
        for v in &self.implicit {
            explicit.push(v.clone());
        }
        BoundQuery {
            session: self.session,
            plan: Arc::clone(&self.plan),
            config: self.config,
            params: explicit,
        }
    }

    /// The optimised logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan.logical
    }

    /// The lowered physical plan (slots resolved, functions bound).
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.plan.physical
    }

    /// Stable fingerprint of the physical plan. Literal-invariant: SQL
    /// texts differing only in constants prepare to the same value.
    pub fn fingerprint(&self) -> u64 {
        self.plan.fingerprint
    }

    pub fn config(&self) -> QueryConfig {
        self.config
    }

    /// EXPLAIN-style rendering with `$n` parameter slots and a trailing
    /// `params:` line. The pipelines are resolved against the session's
    /// scheduler exactly as a run would be; pipelines that will take the
    /// sequential fallback are annotated with the reason (explicit
    /// placeholders are treated as scalar until bound — a tensor binding
    /// shows up in [`BoundQuery::explain`]).
    pub fn explain(&self) -> String {
        let total = self.explicit_params + self.implicit.len();
        let trailer = if total == 0 {
            "params: none".to_string()
        } else {
            format!(
                "params: {total} [{}] ({} explicit, {} auto-extracted)",
                param_slots(&self.plan.physical).join(", "),
                self.explicit_params,
                self.implicit.len()
            )
        };
        let mut unbound = ParamValues::new();
        for _ in 0..self.explicit_params {
            unbound.push(ParamValue::Null);
        }
        self.with_values(unbound).render(&trailer)
    }

    /// Trainable parameters of the functions this statement references —
    /// available before binding so optimizers can be constructed once.
    pub fn parameters(&self) -> Vec<Var> {
        collect_plan_parameters(self.session, &self.plan.physical)
    }

    /// Total trainable scalars across [`Prepared::parameters`].
    pub fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}

impl std::fmt::Debug for Prepared<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint()))
            .field("param_count", &self.explicit_params)
            .field("auto_params", &self.implicit.len())
            .finish_non_exhaustive()
    }
}

/// The physical plan's parameter slots rendered `$n`-style.
fn param_slots(physical: &PhysicalPlan) -> Vec<String> {
    physical
        .param_indices()
        .into_iter()
        .map(|i| format!("${}", i + 1))
        .collect()
}

/// A compiled query with its parameter values attached. Like a compiled
/// PyTorch model it can be executed repeatedly (inputs are re-resolved
/// from the catalog on every run, so the Listing-5 pattern of
/// re-registering the input tensor each iteration works), moved across
/// devices at compile time, inspected via [`BoundQuery::explain`], and —
/// when trainable — differentiated end-to-end through
/// [`BoundQuery::run_diff`].
///
/// [`CompiledQuery`] is the historical name for the zero-parameter case
/// produced by [`Session::query`]; both are the same type.
pub struct BoundQuery<'s> {
    session: &'s Session,
    plan: Arc<CompiledPlan>,
    config: QueryConfig,
    params: ParamValues,
}

/// What [`Session::query`] returns: a [`BoundQuery`] whose binding came
/// from a zero-placeholder prepare.
pub type CompiledQuery<'s> = BoundQuery<'s>;

impl<'s> BoundQuery<'s> {
    /// The optimised logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan.logical
    }

    /// The lowered physical plan (slots resolved, functions bound).
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.plan.physical
    }

    /// Stable fingerprint of the physical plan; literal-invariant, so two
    /// queries differing only in constants (or bindings) share it — the
    /// plan-cache identity.
    pub fn fingerprint(&self) -> u64 {
        self.plan.fingerprint
    }

    /// EXPLAIN-style rendering: the optimised logical tree, the physical
    /// tree with resolved slots and `$n` parameters, the pipeline
    /// breakdown with sequential-fallback reasons resolved against this
    /// binding, and the `params:` trailer.
    pub fn explain(&self) -> String {
        let trailer = if self.params.is_empty() {
            "params: none".to_string()
        } else {
            format!(
                "params: {} [{}] (bound)",
                self.params.len(),
                param_slots(&self.plan.physical).join(", ")
            )
        };
        self.render(&trailer)
    }

    /// Shared EXPLAIN rendering: logical tree, physical tree (with `$n`
    /// slots and declared TVF schemas), the pipeline breakdown the morsel
    /// scheduler will run under this query's context (fused chains,
    /// sinks, barriers, and a `[sequential: reason]` annotation on
    /// pipelines that fall back to the whole-batch path), then the
    /// `params:` trailer.
    fn render(&self, params_trailer: &str) -> String {
        let udfs = self.session.udfs_snapshot();
        let ctx = self.exec_context(&udfs);
        let plan = &self.plan;
        format!(
            "== logical ==\n{}== physical (fingerprint {:016x}) ==\n{}== pipelines ==\n{}{params_trailer}\n",
            plan.logical.explain(),
            plan.fingerprint,
            plan.physical.explain(),
            tdp_exec::pipeline::explain_ctx(&plan.physical, &ctx)
        )
    }

    pub fn config(&self) -> QueryConfig {
        self.config
    }

    /// The values this query will run with (explicit then implicit).
    pub fn params(&self) -> &ParamValues {
        &self.params
    }

    /// One context for every run mode and both EXPLAINs: a trainable run
    /// hands its exact subtrees to the exact walker, so it schedules them
    /// like any other run.
    fn exec_context<'a>(&self, udfs: &'a tdp_exec::UdfRegistry) -> ExecContext<'a>
    where
        's: 'a,
    {
        ExecContext {
            catalog: self.session.catalog(),
            udfs,
            device: self.config.device,
            temperature: self.config.temperature,
            params: self.params.clone(),
            threads: self.session.threads(),
            morsel_rows: self.session.morsel_rows(),
            chain_kernels: self.session.chain_kernels_enabled(),
            zone_maps: self.session.zone_maps_enabled(),
            // Plain runs accumulate straight into the engine-wide
            // counters; run_profiled swaps in a private cell so the
            // profile reports this run alone.
            access: Arc::clone(self.session.engine().access_counters()),
            ivf_rebuild_after: self.session.ivf_rebuild_after(),
            // A fresh per-run ledger against the engine pool: charges
            // release when the run's guards drop, and a breach aborts
            // this query alone.
            memory: Arc::new(self.session.engine().memory_pool().reserve()),
        }
    }

    /// Execute with exact operators, producing a result table. Works for
    /// trainable queries too — this is the paper's inference-time swap of
    /// soft operators for exact ones.
    pub fn run(&self) -> Result<Table, TdpError> {
        self.session.engine().note_query_served();
        let udfs = self.session.udfs_snapshot();
        let ctx = self.exec_context(&udfs);
        let batch = tdp_exec::execute(&self.plan.physical, &ctx)?;
        Ok(batch.to_table("result"))
    }

    /// Execute exactly while recording a per-operator profile — the
    /// paper's "profile the compiled query" story (§2) without leaving
    /// the engine. This is [`BoundQuery::run`]'s walk over the same fused
    /// pipelines with a stage-level recorder attached, so the table is
    /// byte-identical to `run()`'s and the profile describes the run
    /// that actually happened (see [`tdp_exec::profile`] for how a fused
    /// stage is attributed to its plan nodes).
    pub fn run_profiled(&self) -> Result<(Table, tdp_exec::QueryProfile), TdpError> {
        self.session.engine().note_query_served();
        let udfs = self.session.udfs_snapshot();
        let mut ctx = self.exec_context(&udfs);
        // A private counter cell isolates this run's access-path numbers
        // from concurrent sessions; absorbed into the engine-wide totals
        // afterwards so access_path_stats() still covers profiled runs.
        let access = Arc::new(tdp_exec::AccessPathCounters::default());
        ctx.access = Arc::clone(&access);
        let result = tdp_exec::execute_profiled(&self.plan.physical, &ctx);
        self.session
            .engine()
            .access_counters()
            .absorb(access.snapshot());
        let (batch, profile) = result?;
        Ok((batch.to_table("result"), profile))
    }

    /// Execute the differentiable lowering, producing a [`DiffBatch`] whose
    /// differentiable columns carry the autodiff tape. Requires the query
    /// to have been compiled with [`QueryConfig::trainable`]. Subtrees off
    /// the tape run on the exact walker with the session's threads, chain
    /// kernels and zone maps and this run's memory ledger; the soft
    /// operators run on the calling thread, where the tape lives.
    pub fn run_diff(&self) -> Result<DiffBatch, TdpError> {
        if !self.config.trainable {
            return Err(TdpError::Session(
                "query was not compiled with TRAINABLE; use run() or recompile".into(),
            ));
        }
        self.session.engine().note_query_served();
        let udfs = self.session.udfs_snapshot();
        let ctx = self.exec_context(&udfs);
        Ok(tdp_exec::execute_diff(&self.plan.physical, &ctx)?)
    }

    /// Run the differentiable plan and return a single named column as a
    /// `Var` — the tensor the training loop computes its loss on.
    pub fn run_diff_column(&self, column: &str) -> Result<Var, TdpError> {
        let batch = self.run_diff()?;
        match batch.column(column)? {
            ColumnData::Diff(d) => Ok(d.var.clone()),
            ColumnData::Exact(_) => Err(TdpError::Session(format!(
                "column '{column}' is exact; no gradient flows through it"
            ))),
        }
    }

    /// Shorthand for the common count-supervised pattern: the `COUNT(*)`
    /// column of the differentiable result.
    pub fn run_counts(&self) -> Result<Var, TdpError> {
        self.run_diff_column("COUNT(*)")
    }

    /// All trainable parameters of the functions this query references —
    /// the argument to an optimizer (paper Listing 5:
    /// `Adam(compiled_query.parameters(), lr=0.01)`).
    pub fn parameters(&self) -> Vec<Var> {
        collect_plan_parameters(self.session, &self.plan.physical)
    }

    /// Total trainable scalars across [`BoundQuery::parameters`].
    pub fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}

impl std::fmt::Debug for BoundQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundQuery")
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint()))
            .field("config", &self.config)
            .field("params", &self.params.len())
            .finish_non_exhaustive()
    }
}

/// Trainable parameters of every UDF/TVF a plan references, in
/// [`PhysicalPlan::function_names`] order, deduplicated by autodiff node
/// identity.
fn collect_plan_parameters(session: &Session, plan: &PhysicalPlan) -> Vec<Var> {
    let udfs = session.udfs_snapshot();
    let mut params: Vec<Var> = Vec::new();
    for name in plan.function_names() {
        if let Ok(tvf) = udfs.table_fn(&name) {
            params.extend(tvf.parameters());
        }
        if let Ok(udf) = udfs.scalar(&name) {
            params.extend(udf.parameters());
        }
    }
    let mut seen = std::collections::HashSet::new();
    params.retain(|p| seen.insert(p.id()));
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Tdp;
    use std::sync::Arc;
    use tdp_exec::{Batch, DiffColumn, ExecError, TableFunction};
    use tdp_storage::TableBuilder;
    use tdp_tensor::Tensor;

    struct TinyClassifier {
        logits: Var,
    }

    impl TableFunction for TinyClassifier {
        fn name(&self) -> &str {
            "tiny"
        }
        fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
            Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
        }
        fn invoke_table_diff(
            &self,
            _input: &DiffBatch,
            _ctx: &ExecContext,
        ) -> Result<DiffBatch, ExecError> {
            let mut out = DiffBatch::new();
            out.push(
                "Label",
                ColumnData::Diff(DiffColumn::pe(self.logits.softmax(1), Tensor::arange(2))),
            );
            Ok(out)
        }
        fn parameters(&self) -> Vec<Var> {
            vec![self.logits.clone()]
        }
    }

    fn session_with_tvf() -> (Tdp, Var) {
        let tdp = Tdp::new();
        tdp.register_table(
            TableBuilder::new()
                .col_f32("x", vec![0.0, 1.0, 2.0])
                .build("rows"),
        );
        let logits = Var::param(Tensor::<f32>::zeros(&[3, 2]));
        tdp.register_tvf(Arc::new(TinyClassifier {
            logits: logits.clone(),
        }));
        (tdp, logits)
    }

    #[test]
    fn parameters_discovers_tvf_weights() {
        let (tdp, logits) = session_with_tvf();
        let q = tdp
            .query_with(
                "SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label",
                QueryConfig::default().trainable(true),
            )
            .unwrap();
        let params = q.parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].id(), logits.id());
        assert_eq!(q.num_parameters(), 6);
        // The prepared statement exposes the same parameter surface.
        let prepared = tdp
            .prepare_with(
                "SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label",
                QueryConfig::default().trainable(true),
            )
            .unwrap();
        assert_eq!(prepared.num_parameters(), 6);
    }

    #[test]
    fn run_diff_requires_trainable_flag() {
        let (tdp, _) = session_with_tvf();
        let q = tdp
            .query("SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label")
            .unwrap();
        assert!(matches!(q.run_diff(), Err(TdpError::Session(_))));
        // Exact run still works for the same SQL.
        assert_eq!(
            q.run().unwrap().rows(),
            1,
            "all logits zero -> argmax class 0"
        );
    }

    #[test]
    fn run_counts_returns_the_count_var() {
        let (tdp, _) = session_with_tvf();
        let q = tdp
            .query_with(
                "SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label",
                QueryConfig::default().trainable(true),
            )
            .unwrap();
        let counts = q.run_counts().unwrap();
        assert_eq!(counts.shape(), vec![2]);
        let v = counts.value();
        assert!(
            (v.at(0) - 1.5).abs() < 1e-5,
            "uniform logits split rows evenly"
        );
    }

    #[test]
    fn explain_exposes_the_plan() {
        let (tdp, _) = session_with_tvf();
        let q = tdp
            .query("SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label")
            .unwrap();
        let text = q.explain();
        assert!(text.contains("TvfScan: tiny"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("params:"), "{text}");
    }

    #[test]
    fn prepared_bind_checks_arity() {
        let (tdp, _) = session_with_tvf();
        let p = tdp
            .prepare("SELECT COUNT(*) FROM rows WHERE x > ?")
            .unwrap();
        assert_eq!(p.param_count(), 1);
        assert!(matches!(
            p.bind(ParamValues::new()),
            Err(TdpError::Session(_))
        ));
        assert!(matches!(
            p.bind(ParamValues::new().number(1.0).number(2.0)),
            Err(TdpError::Session(_))
        ));
        let out = p
            .bind(ParamValues::new().number(0.5))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            out.column("COUNT(*)").unwrap().data.decode_i64().to_vec(),
            vec![2]
        );
    }

    #[test]
    fn run_profiled_returns_result_and_profile() {
        let (tdp, _) = session_with_tvf();
        let q = tdp
            .query("SELECT Label, COUNT(*) FROM tiny(rows) GROUP BY Label")
            .unwrap();
        let (table, profile) = q.run_profiled().unwrap();
        assert_eq!(table.rows(), q.run().unwrap().rows());
        assert!(profile.ops.len() >= 3, "{}", profile.pretty());
        assert!(profile.pretty().contains("TvfScan: tiny"));
        assert!(profile.total_seconds() >= 0.0);
    }

    #[test]
    fn config_builder() {
        let c = QueryConfig::default()
            .device(Device::Accel(3))
            .trainable(true)
            .temperature(0.5);
        assert_eq!(c.device, Device::Accel(3));
        assert!(c.trainable);
        assert_eq!(c.temperature, 0.5);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn bad_temperature_rejected() {
        let _ = QueryConfig::default().temperature(0.0);
    }
}
