//! Running one SQL statement through the embedded API with a span
//! around each public call, and repeating the compile front-end on the
//! side so its layers get a time of their own.

use tdp_core::exec::UdfRegistry;
use tdp_core::sql::plan::PlannerContext;
use tdp_core::storage::Table;
use tdp_core::{ParamValues, Prepared, Session, TdpEngine};

use crate::trace::{At, Kind, Tracer};

/// `Prepared::bind` then `BoundQuery::run`.
pub fn bind_run(
    stmt: &Prepared<'_>,
    params: ParamValues,
    tr: &mut Tracer,
    at: At,
) -> Result<Table, String> {
    let span = tr.open("core.bind", at);
    let bound = stmt.bind(params).map_err(|e| e.to_string());
    tr.close(span);
    let bound = bound?;
    let span = tr.open("exec.run", at);
    let table = bound.run().map_err(|e| e.to_string());
    tr.close(span);
    table
}

/// What a `Session::prepare` did, told from outside by the plan-cache
/// counters and the catalog version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareOutcome {
    Hit,
    /// A hit on an entry compiled before the last catalog write, so the
    /// cache had to re-check the plan's scans against the live schemas.
    Revalidate,
    Miss,
}

impl PrepareOutcome {
    fn span_name(self) -> &'static str {
        match self {
            PrepareOutcome::Hit => "core.prepare_hit",
            PrepareOutcome::Revalidate => "core.prepare_revalidate",
            PrepareOutcome::Miss => "core.prepare_miss",
        }
    }
}

/// Remembers, per statement text family, the catalog version at the
/// last prepare — what separates a plain hit from a revalidating one.
#[derive(Default)]
pub struct PrepareWatch {
    seen: std::collections::HashMap<String, u64>,
}

impl PrepareWatch {
    /// `Session::prepare(sql)` under a span named after its outcome.
    /// `family` names the statement shape (texts differing only in
    /// literals share a plan-cache entry, hence a family).
    pub fn prepare<'s>(
        &mut self,
        session: &'s Session,
        family: &str,
        sql: &str,
        tr: &mut Tracer,
        at: At,
    ) -> Result<Prepared<'s>, String> {
        if !tr.enabled() {
            return session.prepare(sql).map_err(|e| e.to_string());
        }
        let engine = session.engine();
        let misses = engine.plan_cache_stats().misses;
        let version = engine.catalog().version();
        let span = tr.open("core.prepare", at);
        let prepared = session.prepare(sql).map_err(|e| e.to_string());
        tr.close(span);
        let outcome = if engine.plan_cache_stats().misses > misses {
            PrepareOutcome::Miss
        } else if self.seen.get(family).is_some_and(|&v| v != version) {
            PrepareOutcome::Revalidate
        } else {
            PrepareOutcome::Hit
        };
        self.seen.insert(family.to_string(), version);
        tr.rename(span, outcome.span_name());
        prepared
    }
}

/// The registry `Session::prepare` compiles against for a session with
/// no functions of its own: the engine's shared ones.
pub fn engine_registry(engine: &TdpEngine) -> UdfRegistry {
    UdfRegistry::merged(&engine.shared_udfs(), &UdfRegistry::new())
}

/// Repeat, through the public functions `Session::prepare` is built
/// from, the front-end work it does on `sql`: parse and normalize on
/// every call, plan → optimize → lower too when it has to `compile`.
pub fn frontend_replicas(
    engine: &TdpEngine,
    sql: &str,
    compile: bool,
    tr: &mut Tracer,
    at: At,
) -> Result<(), String> {
    let at = at.with_kind(Kind::Replica);
    let registry = engine_registry(engine);

    let span = tr.open("sql.parse", at);
    let ast = tdp_core::sql::parse(sql).map_err(|e| e.to_string());
    tr.close(span);
    let ast = ast?;

    let span = tr.open("sql.normalize", at);
    let ast = tdp_core::exec::fold_immutable_udfs(ast, &registry);
    let explicit = tdp_core::sql::explicit_param_count(&ast);
    let (ast, literals) = tdp_core::sql::parameterize_literals(ast, explicit);
    let key = ast.to_string();
    tr.close(span);
    std::hint::black_box((&key, &literals));
    if !compile {
        return Ok(());
    }

    let span = tr.open("sql.plan", at);
    let plan = tdp_core::sql::build_plan(
        &ast,
        &PlannerContext {
            is_tvf: &|n| registry.is_table_fn(n),
        },
    )
    .map_err(|e| e.to_string());
    tr.close(span);
    let plan = plan?;

    let span = tr.open("sql.optimize", at);
    let plan = tdp_core::sql::optimizer::optimize(plan);
    tr.close(span);

    let span = tr.open("exec.lower", at);
    let physical =
        tdp_core::exec::lower(&plan, engine.catalog(), &registry).map_err(|e| e.to_string());
    tr.close(span);
    std::hint::black_box(physical?);
    Ok(())
}
