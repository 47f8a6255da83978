//! UDF / table-valued-function registry and execution context.
//!
//! The paper's key design point (§3): functions are not an escape hatch to
//! an external tool — they are tensor programs registered into the engine,
//! executed on the same runtime as the relational operators. A scalar UDF
//! maps argument columns to one output column; a table-valued function maps
//! a relation (or argument columns) to a relation. Both may expose
//! trainable parameters, which is what makes queries trainable.

use std::collections::HashMap;
use std::sync::Arc;

use tdp_autodiff::Var;
use tdp_encoding::EncodedTensor;
use tdp_storage::Catalog;
use tdp_tensor::Device;

use crate::batch::{Batch, DiffBatch, DiffColumn, NamedColumns};
use crate::error::ExecError;

// ----------------------------------------------------------------------
// Declared function signatures
// ----------------------------------------------------------------------

/// Declared type of one function argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgType {
    /// An evaluated column (any encoding, including tensor columns).
    Column,
    /// A scalar number literal / parameter.
    Number,
    /// A string literal / parameter.
    Str,
    /// A boolean literal / parameter.
    Bool,
    /// No constraint.
    Any,
}

impl ArgType {
    pub fn describe(self) -> &'static str {
        match self {
            ArgType::Column => "column",
            ArgType::Number => "number",
            ArgType::Str => "string",
            ArgType::Bool => "boolean",
            ArgType::Any => "any",
        }
    }
}

/// How a function's output relates to its inputs — what the optimizer may
/// assume when it sees a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volatility {
    /// Same arguments always produce the same result: calls over literal
    /// arguments are constant-folded at prepare time (before literal
    /// auto-parameterisation, so the folded value shares cache entries).
    Immutable,
    /// Stable within one execution but not across registrations (e.g. a
    /// model whose weights an optimizer updates between queries).
    Stable,
    /// Never foldable.
    Volatile,
}

/// A table-valued function's declared output relation.
#[derive(Debug, Clone)]
pub enum OutputSchema {
    /// Unknown until the function runs — today's legacy behaviour:
    /// downstream references resolve by name, per batch.
    Dynamic,
    /// Fixed output column names, known at compile time: downstream
    /// expressions slot-resolve through the TVF and EXPLAIN renders the
    /// schema. The engine checks the actual output against the
    /// declaration at run time, so a drifting implementation fails
    /// loudly instead of silently feeding wrong slots.
    Declared(Vec<String>),
    /// Derived from the input schema at compile time (e.g. a
    /// column-preserving transform). Receives the input's column names;
    /// returning `None` degrades to [`OutputSchema::Dynamic`].
    Derive(fn(&[String]) -> Option<Vec<String>>),
}

impl PartialEq for OutputSchema {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (OutputSchema::Dynamic, OutputSchema::Dynamic) => true,
            (OutputSchema::Declared(a), OutputSchema::Declared(b)) => a == b,
            (OutputSchema::Derive(a), OutputSchema::Derive(b)) => std::ptr::fn_addr_eq(*a, *b),
            _ => false,
        }
    }
}

/// The declared signature of a [`ScalarUdf`] or [`TableFunction`]: what
/// the compiler is allowed to know about a function without running it.
///
/// Every function exposes one through the defaulted `spec()` trait
/// method; the default ([`FunctionSpec::dynamic`]) declares nothing and
/// preserves the historical fully-dynamic behaviour (arity and types
/// checked at run time, output schema unknown, session-thread-bound).
/// Declaring more lets every layer do more at compile time:
///
/// * `args` — `prepare()` validates arity and argument types and reports
///   a [`crate::ExecError::Signature`] before anything executes;
/// * `volatility` — [`Volatility::Immutable`] calls over literal
///   arguments are folded into constants at prepare time;
/// * `parallel_safe` — chains containing the UDF run through the morsel
///   scheduler's worker pool instead of falling back to the sequential
///   whole-batch path (requires registration through
///   [`UdfRegistry::register_scalar_parallel`], which demands
///   `Send + Sync` proof from the type system);
/// * `output` — downstream expressions slot-resolve through the TVF's
///   declared relation instead of falling back to by-name lookup;
/// * `from_position` / `projection_position` — misuse (`FROM tvf(...)`
///   on a projection-only TVF and vice versa) is rejected at prepare
///   time with an error naming the function and its allowed position.
///
/// # Implementing a function
///
/// A stateless, parallel-safe scalar UDF with a declared signature:
///
/// ```
/// use std::sync::Arc;
/// use tdp_encoding::EncodedTensor;
/// use tdp_exec::udf::{
///     ArgType, ArgValue, ExecContext, FunctionSpec, ScalarUdf, UdfRegistry, Volatility,
/// };
/// use tdp_exec::ExecError;
///
/// /// `scale(column, factor)` — multiply a column by a scalar.
/// struct Scale;
///
/// impl ScalarUdf for Scale {
///     fn name(&self) -> &str {
///         "scale"
///     }
///     fn spec(&self) -> FunctionSpec {
///         FunctionSpec::scalar("scale", vec![ArgType::Column, ArgType::Number])
///             .volatility(Volatility::Immutable)
///             .parallel_safe(true)
///     }
///     fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
///         let col = args[0].as_column()?.decode_f32();
///         let k = args[1].as_number()? as f32;
///         Ok(EncodedTensor::F32(col.mul_scalar(k)))
///     }
/// }
///
/// let mut registry = UdfRegistry::new();
/// // `Scale` is `Send + Sync`, so it may cross worker threads:
/// registry.register_scalar_parallel(Arc::new(Scale));
/// assert!(registry.is_parallel_safe_scalar("scale"));
/// ```
///
/// A schema-declaring table-valued function. A *trainable* function —
/// one holding [`Var`] parameters, which ride the `Rc`-based autodiff
/// tape — is registered through the plain [`UdfRegistry::register_table_fn`]
/// / [`UdfRegistry::register_scalar`] path and stays session-thread-bound
/// (`parallel_safe` must stay `false`); a stateless TVF like this one
/// may declare everything:
///
/// ```
/// use tdp_exec::udf::{FunctionSpec, TableFunction, ExecContext};
/// use tdp_exec::{Batch, ExecError};
///
/// /// `widths(rel)` — emits a declared two-column relation.
/// struct Widths;
///
/// impl TableFunction for Widths {
///     fn name(&self) -> &str {
///         "widths"
///     }
///     fn spec(&self) -> FunctionSpec {
///         FunctionSpec::dynamic("widths")
///             .returns(vec!["Item".into(), "Width".into()])
///             .from_only() // `FROM widths(t)`, not `SELECT widths(...)`
///     }
///     fn invoke_table(&self, input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
///         # let _ = input;
///         // ... build a batch whose columns are exactly [Item, Width] ...
///         # unimplemented!()
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Function name (matches `name()`).
    pub name: String,
    /// Declared argument types; `None` leaves arity and types unchecked
    /// until run time (the legacy dynamic behaviour).
    pub args: Option<Vec<ArgType>>,
    pub volatility: Volatility,
    /// Semantic promise that `invoke` is stateless and thread-safe. Only
    /// effective together with [`UdfRegistry::register_scalar_parallel`],
    /// which supplies the `Send + Sync` proof; `Var`-holding (trainable)
    /// functions cannot make either claim and stay session-thread-bound.
    pub parallel_safe: bool,
    /// Output relation of a table-valued function (ignored for scalars).
    pub output: OutputSchema,
    /// Whether the TVF may appear in FROM position (`FROM tvf(rel)`).
    pub from_position: bool,
    /// Whether the TVF may appear in projection position
    /// (`SELECT tvf(args) FROM …`).
    pub projection_position: bool,
}

impl FunctionSpec {
    /// The fully-dynamic signature every legacy implementation gets by
    /// default: nothing declared, everything checked at run time.
    pub fn dynamic(name: &str) -> FunctionSpec {
        FunctionSpec {
            name: name.to_owned(),
            args: None,
            volatility: Volatility::Volatile,
            parallel_safe: false,
            output: OutputSchema::Dynamic,
            from_position: true,
            projection_position: true,
        }
    }

    /// A scalar signature with declared argument types.
    pub fn scalar(name: &str, args: Vec<ArgType>) -> FunctionSpec {
        FunctionSpec {
            args: Some(args),
            ..FunctionSpec::dynamic(name)
        }
    }

    /// Declare argument types (arity + types checked at prepare time).
    pub fn with_args(mut self, args: Vec<ArgType>) -> FunctionSpec {
        self.args = Some(args);
        self
    }

    pub fn volatility(mut self, v: Volatility) -> FunctionSpec {
        self.volatility = v;
        self
    }

    pub fn parallel_safe(mut self, safe: bool) -> FunctionSpec {
        self.parallel_safe = safe;
        self
    }

    /// Declare a fixed TVF output schema.
    pub fn returns(mut self, columns: Vec<String>) -> FunctionSpec {
        self.output = OutputSchema::Declared(columns);
        self
    }

    /// Declare a TVF output schema derived from the input schema.
    pub fn returns_derived(mut self, derive: fn(&[String]) -> Option<Vec<String>>) -> FunctionSpec {
        self.output = OutputSchema::Derive(derive);
        self
    }

    /// Restrict a TVF to FROM position.
    pub fn from_only(mut self) -> FunctionSpec {
        self.from_position = true;
        self.projection_position = false;
        self
    }

    /// Restrict a TVF to projection position.
    pub fn projection_only(mut self) -> FunctionSpec {
        self.from_position = false;
        self.projection_position = true;
        self
    }

    /// Resolve the declared output schema against a (possibly unknown)
    /// input schema. `None` means dynamic — resolve by name at run time.
    pub fn output_schema(&self, input: Option<&[String]>) -> Option<Vec<String>> {
        match &self.output {
            OutputSchema::Dynamic => None,
            OutputSchema::Declared(names) => Some(names.clone()),
            OutputSchema::Derive(f) => input.and_then(*f),
        }
    }
}

/// An argument handed to a UDF: an evaluated column or a SQL literal.
#[derive(Clone, Debug)]
pub enum ArgValue {
    Column(EncodedTensor),
    /// Differentiable column argument (trainable mode).
    DiffColumn(DiffColumn),
    Number(f64),
    Str(String),
    Bool(bool),
}

impl ArgValue {
    pub fn as_str(&self) -> Result<&str, ExecError> {
        match self {
            ArgValue::Str(s) => Ok(s),
            other => Err(ExecError::TypeMismatch(format!(
                "expected string argument, got {other:?}"
            ))),
        }
    }

    pub fn as_number(&self) -> Result<f64, ExecError> {
        match self {
            ArgValue::Number(n) => Ok(*n),
            other => Err(ExecError::TypeMismatch(format!(
                "expected numeric argument, got {other:?}"
            ))),
        }
    }

    pub fn as_column(&self) -> Result<&EncodedTensor, ExecError> {
        match self {
            ArgValue::Column(c) => Ok(c),
            other => Err(ExecError::TypeMismatch(format!(
                "expected column argument, got {other:?}"
            ))),
        }
    }
}

/// A scalar user-defined function: argument columns/literals in, one
/// encoded column out. UDFs may hold `Var` parameters (which are `Rc`-based),
/// so sessions — like a PyTorch process — are single-threaded; kernel-level
/// parallelism comes from the device, not from concurrent queries. Implement [`ScalarUdf::invoke_diff`] to make the
/// UDF usable inside trainable queries.
pub trait ScalarUdf {
    fn name(&self) -> &str;

    /// Declared signature. The default declares nothing — arity and
    /// types stay run-time checked, the call is volatile, and chains
    /// containing it fall back to the sequential path. Override to opt
    /// into compile-time validation, constant folding and parallel
    /// scheduling (see [`FunctionSpec`]).
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
    }

    /// Exact evaluation.
    fn invoke(&self, args: &[ArgValue], ctx: &ExecContext) -> Result<EncodedTensor, ExecError>;

    /// Differentiable evaluation; defaults to "not differentiable".
    fn invoke_diff(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<DiffColumn, ExecError> {
        Err(ExecError::NotDifferentiable(format!(
            "scalar UDF '{}' has no differentiable implementation",
            self.name()
        )))
    }

    /// Trainable parameters embedded in the UDF.
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

/// A table-valued function. In FROM position it receives the whole input
/// relation ([`TableFunction::invoke_table`]); in projection position it
/// receives evaluated argument columns ([`TableFunction::invoke_cols`]).
/// Both are exact: plain [`Batch`]es in and out. Only a trainable run's
/// FROM position calls [`TableFunction::invoke_table_diff`], whose
/// [`DiffBatch`]es may carry columns on the autodiff tape; a
/// projection-position call in a trainable run is exact, and refuses
/// input on the tape or with soft weights.
pub trait TableFunction {
    fn name(&self) -> &str;

    /// Declared signature (see [`FunctionSpec`]). The default declares
    /// nothing: both positions allowed, output schema dynamic. Override
    /// to declare the output relation (downstream references then
    /// slot-resolve at compile time) and the allowed positions (misuse
    /// is rejected at prepare time instead of mid-execution).
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
    }

    /// `FROM tvf(relation)` — exact evaluation.
    fn invoke_table(&self, _input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
        Err(ExecError::Unsupported(format!(
            "TVF '{}' cannot be used in FROM position",
            self.name()
        )))
    }

    /// `FROM tvf(relation)` — differentiable evaluation. Defaults to the
    /// exact path over the detached input (a TVF without parameters is
    /// trivially "differentiable": gradients simply stop at its constant
    /// outputs).
    fn invoke_table_diff(
        &self,
        input: &DiffBatch,
        ctx: &ExecContext,
    ) -> Result<DiffBatch, ExecError> {
        Ok(self.invoke_table(&input.detach(), ctx)?.into())
    }

    /// `SELECT tvf(args) FROM …` — exact evaluation over argument columns.
    fn invoke_cols(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<Batch, ExecError> {
        Err(ExecError::Unsupported(format!(
            "TVF '{}' cannot be used in projection position",
            self.name()
        )))
    }

    /// Trainable parameters embedded in the TVF.
    fn parameters(&self) -> Vec<Var> {
        Vec::new()
    }
}

/// One registered function: its implementation and the [`FunctionSpec`]
/// snapshotted when it was registered.
struct Entry<F: ?Sized> {
    imp: Arc<F>,
    spec: FunctionSpec,
}

impl<F: ?Sized> Clone for Entry<F> {
    fn clone(&self) -> Self {
        Entry {
            imp: Arc::clone(&self.imp),
            spec: self.spec.clone(),
        }
    }
}

/// Registry key: names resolve case-insensitively.
fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Scalar functions registered with `Send + Sync` proof, shared by
/// pointer: the engine holds one, and every session view and every
/// morsel worker reads the same table.
///
/// Unlike [`UdfRegistry`] — whose session-bound entries may wrap
/// `Rc`-based trainable state and therefore pin it to one thread — this
/// table only admits thread-safe functions, so it is `Send + Sync` and
/// can live behind an engine lock. Registration is copy-on-write:
/// registries already holding the table keep the entries they saw.
/// Sessions see it through [`UdfRegistry::merged`], which overlays their
/// session-local registrations on top (local wins on a name collision).
#[derive(Default, Clone)]
pub struct SharedUdfRegistry {
    scalars: Arc<HashMap<String, Entry<dyn ScalarUdf + Send + Sync>>>,
}

impl SharedUdfRegistry {
    pub fn new() -> SharedUdfRegistry {
        SharedUdfRegistry::default()
    }

    /// Register (or replace) a thread-safe scalar UDF.
    pub fn register_scalar(&mut self, udf: Arc<dyn ScalarUdf + Send + Sync>) {
        let entry = Entry {
            spec: udf.spec(),
            imp: udf,
        };
        Arc::make_mut(&mut self.scalars).insert(key(entry.imp.name()), entry);
    }
}

impl std::fmt::Debug for SharedUdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.scalars.keys().collect();
        names.sort_unstable();
        write!(f, "SharedUdfRegistry({names:?})")
    }
}

/// Function namespace of a session, of one run, or of a morsel worker.
///
/// Each function is one entry, built when it is registered and only read
/// afterwards. Declared signatures are snapshotted **once, at
/// registration**: the compiler, scheduler, validator and every worker
/// read the stored [`FunctionSpec`], so a `spec()` implementation that
/// returned different values over time could not desync folding,
/// validation and scheduling decisions (and per-expression analysis pays
/// a map lookup, not a user-code call). A scalar name lives in exactly
/// one of two maps — the thread-safe table, shared by pointer, or the
/// session-bound map — so re-registering a name replaces one entry and
/// leaves no twin behind.
#[derive(Default, Clone)]
pub struct UdfRegistry {
    /// Scalars registered with `Send + Sync` proof — the only ones a
    /// worker may call.
    shared: SharedUdfRegistry,
    /// Session-bound scalars.
    scalars: HashMap<String, Entry<dyn ScalarUdf>>,
    tables: HashMap<String, Entry<dyn TableFunction>>,
}

impl UdfRegistry {
    pub fn new() -> UdfRegistry {
        UdfRegistry::default()
    }

    /// A worker's registry: the thread-safe table by pointer and nothing
    /// session-bound — no per-function work, no user code.
    pub(crate) fn worker(shared: &SharedUdfRegistry) -> UdfRegistry {
        UdfRegistry {
            shared: shared.clone(),
            scalars: HashMap::new(),
            tables: HashMap::new(),
        }
    }

    /// The thread-safe table workers read (see [`UdfRegistry::worker`]).
    pub(crate) fn thread_safe(&self) -> &SharedUdfRegistry {
        &self.shared
    }

    /// Register a scalar UDF (replaces an existing one of the same name).
    /// Functions registered through this path never leave the session
    /// thread — the right home for trainable UDFs whose parameters ride
    /// the `Rc`-based autodiff tape.
    pub fn register_scalar(&mut self, udf: Arc<dyn ScalarUdf>) {
        let entry = Entry {
            spec: udf.spec(),
            imp: udf,
        };
        self.insert_local(key(entry.imp.name()), entry);
    }

    /// Register a `Send + Sync` scalar UDF, allowing the morsel scheduler
    /// to run chains containing it across the worker pool — provided its
    /// [`FunctionSpec::parallel_safe`] also opts in (the type bound
    /// proves thread safety, the spec promises statelessness).
    pub fn register_scalar_parallel(&mut self, udf: Arc<dyn ScalarUdf + Send + Sync>) {
        self.scalars.remove(&key(udf.name()));
        self.shared.register_scalar(udf);
    }

    /// Register a table-valued function.
    pub fn register_table_fn(&mut self, tvf: Arc<dyn TableFunction>) {
        let entry = Entry {
            spec: tvf.spec(),
            imp: tvf,
        };
        self.tables.insert(key(entry.imp.name()), entry);
    }

    /// Insert a session-bound scalar entry. A thread-safe entry of that
    /// name goes: the session-bound impl made no thread-safety promise.
    fn insert_local(&mut self, key: String, entry: Entry<dyn ScalarUdf>) {
        if self.shared.scalars.contains_key(&key) {
            Arc::make_mut(&mut self.shared.scalars).remove(&key);
        }
        self.scalars.insert(key, entry);
    }

    /// A scalar's implementation and spec, whichever map holds it.
    fn scalar_entry(&self, name: &str) -> Option<(&dyn ScalarUdf, &FunctionSpec)> {
        let key = key(name);
        if let Some(e) = self.scalars.get(&key) {
            return Some((&*e.imp, &e.spec));
        }
        let e = self.shared.scalars.get(&key)?;
        Some((&*e.imp, &e.spec))
    }

    pub fn scalar(&self, name: &str) -> Result<&dyn ScalarUdf, ExecError> {
        self.scalar_entry(name)
            .map(|(udf, _)| udf)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_owned()))
    }

    pub fn table_fn(&self, name: &str) -> Result<&Arc<dyn TableFunction>, ExecError> {
        self.tables
            .get(&key(name))
            .map(|e| &e.imp)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_owned()))
    }

    pub fn is_table_fn(&self, name: &str) -> bool {
        self.tables.contains_key(&key(name))
    }

    pub fn is_scalar(&self, name: &str) -> bool {
        self.scalar_entry(name).is_some()
    }

    /// Whether chains calling this scalar UDF may run on worker threads:
    /// registered with `Send + Sync` proof *and* its spec promises
    /// statelessness.
    pub fn is_parallel_safe_scalar(&self, name: &str) -> bool {
        let entry = self.shared.scalars.get(&key(name));
        entry.is_some_and(|e| e.spec.parallel_safe)
    }

    /// Declared signature of a registered scalar UDF (the
    /// registration-time snapshot).
    pub fn scalar_spec(&self, name: &str) -> Option<&FunctionSpec> {
        self.scalar_entry(name).map(|(_, spec)| spec)
    }

    /// Declared signature of a registered table-valued function (the
    /// registration-time snapshot).
    pub fn table_fn_spec(&self, name: &str) -> Option<&FunctionSpec> {
        self.tables.get(&key(name)).map(|e| &e.spec)
    }

    /// The one shadowing rule: the scalar UDF a call node runs, by name.
    /// Every `Udf` node runs one; a `Builtin` runs one when a scalar of
    /// its name was registered after lowering — it shadows the built-in,
    /// so a held plan resolves the name as a fresh compilation would.
    pub(crate) fn udf_call<'e>(&self, node: &'e crate::physical::CompiledExpr) -> Option<&'e str> {
        use crate::physical::CompiledExpr;
        match node {
            CompiledExpr::Udf { name, .. } => Some(name),
            CompiledExpr::Builtin { name, .. } if self.is_scalar(name) => Some(name),
            _ => None,
        }
    }

    /// Build a session's view of the function namespace: the engine's
    /// shared registry overlaid with the session-local registrations.
    /// Local registrations win on a name collision — a session that
    /// registers its own `f` shadows an engine-shared `f`, mirroring how
    /// session UDFs shadow built-ins. The view holds the engine's table
    /// by pointer and copies only the local entries; a session-bound
    /// local `f` drops the engine's `f` from the view's thread-safe table
    /// (the one case that copies it), so no worker sees the shadowed twin.
    pub fn merged(shared: &SharedUdfRegistry, local: &UdfRegistry) -> UdfRegistry {
        let mut view = UdfRegistry {
            shared: shared.clone(),
            scalars: HashMap::with_capacity(local.scalars.len()),
            tables: local.tables.clone(),
        };
        for (key, entry) in &local.scalars {
            view.insert_local(key.clone(), entry.clone());
        }
        for (key, entry) in local.shared.scalars.iter() {
            Arc::make_mut(&mut view.shared.scalars).insert(key.clone(), entry.clone());
        }
        view
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shared = self.shared.scalars.keys();
        let mut s: Vec<&String> = self.scalars.keys().chain(shared).collect();
        let mut t: Vec<&String> = self.tables.keys().collect();
        s.sort();
        t.sort();
        write!(f, "UdfRegistry(scalars={s:?}, tvfs={t:?})")
    }
}

/// Everything operators need at run time.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    pub device: Device,
    /// Temperature of relaxed predicates: `σ((score - θ) / temperature)`.
    pub temperature: f32,
    /// Bound statement parameters: `CompiledExpr::Param { idx }` resolves
    /// to slot `idx` here. Empty for parameter-free plans.
    pub params: crate::params::ParamValues,
    /// Worker threads available to the morsel scheduler (1 = run every
    /// morsel on the calling thread). Parallelism never changes results:
    /// morsel boundaries depend only on `morsel_rows`, so any thread
    /// count produces identical batches.
    pub threads: usize,
    /// Rows per morsel for the scheduler's input partitioning.
    pub morsel_rows: usize,
    /// Whether fused filter→project chains may run on the chain kernels
    /// ([`crate::kernel`]), each vetted when it executes. Off, every
    /// chain runs on the interpreter — results are identical either way.
    pub chain_kernels: bool,
    /// Whether the morsel scheduler consults zone maps to skip pruned
    /// morsels (`TDP_ZONE_MAPS`). Pruning never changes results — a
    /// pruned morsel is one the leading filter would empty anyway — so
    /// this is purely a perf/diagnostics switch.
    pub zone_maps: bool,
    /// Access-path observability counters (morsels pruned/scanned, ANN
    /// queries), charged by the scheduler and the `AnnTopK` operator.
    pub access: std::sync::Arc<crate::access::AccessPathCounters>,
    /// Auto-rebuild threshold for stale IVF indexes
    /// (`TDP_IVF_REBUILD_AFTER`): once a `table.column` index has
    /// degraded to the exact fallback this many times, the next ANN
    /// query retrains it in place (same name, nlist and nprobe) before
    /// searching. `0` (the default) disables rebuilds.
    pub ivf_rebuild_after: u64,
    /// This query's memory ledger ([`tdp_mem::MemoryReservation`]): the
    /// scheduler and the barrier operators charge their materializations
    /// here and abort with [`ExecError::MemoryBudget`] when a charge is
    /// refused. Defaults to a detached unlimited ledger; the engine
    /// swaps in one backed by its budgeted pool.
    pub memory: std::sync::Arc<tdp_mem::MemoryReservation>,
}

impl<'a> ExecContext<'a> {
    pub fn new(catalog: &'a Catalog, udfs: &'a UdfRegistry) -> ExecContext<'a> {
        ExecContext {
            catalog,
            udfs,
            device: Device::Cpu,
            temperature: 0.1,
            params: crate::params::ParamValues::new(),
            threads: 1,
            morsel_rows: crate::pipeline::DEFAULT_MORSEL_ROWS,
            chain_kernels: false,
            zone_maps: true,
            access: std::sync::Arc::new(crate::access::AccessPathCounters::default()),
            ivf_rebuild_after: 0,
            memory: std::sync::Arc::new(tdp_mem::MemoryReservation::detached()),
        }
    }

    /// Configure the morsel scheduler (threads are clamped to ≥ 1, the
    /// morsel size to ≥ 1 row).
    pub fn with_scheduler(mut self, threads: usize, morsel_rows: usize) -> ExecContext<'a> {
        self.threads = threads.max(1);
        self.morsel_rows = morsel_rows.max(1);
        self
    }

    pub fn with_device(mut self, device: Device) -> ExecContext<'a> {
        self.device = device;
        self
    }

    pub fn with_params(mut self, params: crate::params::ParamValues) -> ExecContext<'a> {
        self.params = params;
        self
    }

    /// Enable or disable chain kernels.
    pub fn with_chain_kernels(mut self, on: bool) -> ExecContext<'a> {
        self.chain_kernels = on;
        self
    }
}

/// Verify a TVF's actual output against its declared schema. Downstream
/// expressions were slot-resolved through the declaration, so a drifting
/// implementation must fail loudly here rather than silently feed wrong
/// slots.
pub(crate) fn check_tvf_output<C>(
    name: &str,
    declared: Option<&[String]>,
    out: &NamedColumns<C>,
) -> Result<(), ExecError> {
    let Some(expected) = declared else {
        return Ok(());
    };
    let actual = out.names();
    let matches = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.eq_ignore_ascii_case(e));
    if !matches {
        return Err(ExecError::Signature(format!(
            "table function '{name}' declared output columns {expected:?} but produced \
             {actual:?}; fix the declaration or the implementation"
        )));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Prepare-time constant folding of Immutable UDF calls
// ----------------------------------------------------------------------

/// Fold every [`Volatility::Immutable`] scalar-UDF call whose arguments
/// are all literals into the literal it evaluates to. Runs on the parsed
/// AST *before* literal auto-parameterisation, so the folded constant
/// participates in plan-cache normalization like any other literal.
///
/// Best-effort by design: a call whose invocation errors, or whose
/// result is not a single-row column, is left in place and evaluated at
/// run time as before.
pub fn fold_immutable_udfs(query: tdp_sql::ast::Query, udfs: &UdfRegistry) -> tdp_sql::ast::Query {
    let scratch = Catalog::new();
    let folder = ImmutableFolder {
        udfs,
        catalog: &scratch,
    };
    query.map_exprs(&mut |e| folder.fold_expr(e))
}

struct ImmutableFolder<'a> {
    udfs: &'a UdfRegistry,
    catalog: &'a Catalog,
}

impl ImmutableFolder<'_> {
    /// Fold bottom-up, so a call whose arguments fold to literals folds
    /// too; scalar subqueries are folded through their own roots.
    fn fold_expr(&self, e: tdp_sql::ast::Expr) -> tdp_sql::ast::Expr {
        use tdp_sql::ast::Expr;
        match e {
            Expr::ScalarSubquery(mut q) => {
                *q = (*q).map_exprs(&mut |e| self.fold_expr(e));
                Expr::ScalarSubquery(q)
            }
            e => match e.map_children(&mut |c| self.fold_expr(c)) {
                Expr::Func { name, args } => match self.try_fold_call(&name, &args) {
                    Some(lit) => Expr::Literal(lit),
                    None => Expr::Func { name, args },
                },
                other => other,
            },
        }
    }

    /// Fold one call, or `None` when it must stay dynamic.
    fn try_fold_call(
        &self,
        name: &str,
        args: &[tdp_sql::ast::Expr],
    ) -> Option<tdp_sql::ast::Literal> {
        use tdp_sql::ast::{Expr, Literal};
        // TVF names never fold; session scalar UDFs only, and only when
        // declared Immutable (built-ins fold separately in the optimizer).
        if self.udfs.is_table_fn(name) || !self.udfs.is_scalar(name) {
            return None;
        }
        let spec = self.udfs.scalar_spec(name)?;
        if spec.volatility != Volatility::Immutable {
            return None;
        }
        // Never invoke through a wrong arity — `lower` reports that as a
        // compile-time signature error instead.
        if spec.args.as_ref().is_some_and(|d| d.len() != args.len()) {
            return None;
        }
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(match a {
                Expr::Literal(Literal::Number(n)) => ArgValue::Number(*n),
                Expr::Literal(Literal::String(s)) => ArgValue::Str(s.clone()),
                Expr::Literal(Literal::Bool(b)) => ArgValue::Bool(*b),
                _ => return None,
            });
        }
        // Never invoke through declared-type violations either (an impl
        // may assume its declaration): leave the call in place so the
        // validation layer reports the proper signature error.
        if let Some(declared) = &spec.args {
            let ok = declared.iter().zip(&arg_values).all(|(want, got)| {
                matches!(
                    (want, got),
                    (ArgType::Any, _)
                        | (ArgType::Number, ArgValue::Number(_))
                        | (ArgType::Str, ArgValue::Str(_))
                        | (ArgType::Bool, ArgValue::Bool(_))
                )
            });
            if !ok {
                return None;
            }
        }
        let ctx = ExecContext::new(self.catalog, self.udfs);
        let out = self
            .udfs
            .scalar(name)
            .ok()?
            .invoke(&arg_values, &ctx)
            .ok()?;
        if out.rows() != 1 {
            return None;
        }
        Some(match out {
            EncodedTensor::Bool(b) => Literal::Bool(b.at(0)),
            EncodedTensor::Dict { codes, dict } => {
                Literal::String(dict.decode_one(codes.at(0)).to_owned())
            }
            // Integer layouts decode through i64 → f64 (exact to 2^53);
            // routing them through decode_f32 would round past 2^24.
            ints @ (EncodedTensor::I64(_)
            | EncodedTensor::Rle(_)
            | EncodedTensor::BitPacked(_)
            | EncodedTensor::Delta(_)) => Literal::Number(ints.decode_i64().at(0) as f64),
            other => Literal::Number(other.decode_f32().at(0) as f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_tensor::Tensor;

    struct Doubler;
    impl ScalarUdf for Doubler {
        fn name(&self) -> &str {
            "double_it"
        }
        fn invoke(
            &self,
            args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<EncodedTensor, ExecError> {
            let col = args[0].as_column()?.decode_f32();
            Ok(EncodedTensor::F32(col.mul_scalar(2.0)))
        }
    }

    struct NopTvf;
    impl TableFunction for NopTvf {
        fn name(&self) -> &str {
            "nop"
        }
        fn invoke_table(&self, input: &Batch, _ctx: &ExecContext) -> Result<Batch, ExecError> {
            Ok(input.clone())
        }
    }

    #[test]
    fn registry_lookup_case_insensitive() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar(Arc::new(Doubler));
        reg.register_table_fn(Arc::new(NopTvf));
        assert!(reg.scalar("DOUBLE_IT").is_ok());
        assert!(reg.is_table_fn("NOP"));
        assert!(!reg.is_table_fn("double_it"));
        assert!(matches!(
            reg.scalar("missing"),
            Err(ExecError::UnknownFunction(_))
        ));
    }

    #[test]
    fn scalar_udf_invocation() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar(Arc::new(Doubler));
        let catalog = Catalog::new();
        let ctx = ExecContext::new(&catalog, &reg);
        let col = ArgValue::Column(EncodedTensor::F32(Tensor::from_vec(
            vec![1.0f32, 2.5],
            &[2],
        )));
        let out = reg
            .scalar("double_it")
            .unwrap()
            .invoke(&[col], &ctx)
            .unwrap();
        assert_eq!(out.decode_f32().to_vec(), vec![2.0, 5.0]);
    }

    #[test]
    fn default_diff_path_errors() {
        let catalog = Catalog::new();
        let reg = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &reg);
        let err = Doubler.invoke_diff(&[], &ctx).unwrap_err();
        assert!(matches!(err, ExecError::NotDifferentiable(_)));
    }

    #[test]
    fn arg_value_coercions() {
        assert_eq!(ArgValue::Str("x".into()).as_str().unwrap(), "x");
        assert_eq!(ArgValue::Number(2.5).as_number().unwrap(), 2.5);
        assert!(ArgValue::Number(1.0).as_str().is_err());
        assert!(ArgValue::Str("s".into()).as_column().is_err());
    }

    #[test]
    fn default_spec_is_fully_dynamic() {
        let spec = Doubler.spec();
        assert_eq!(spec.name, "double_it");
        assert!(spec.args.is_none());
        assert_eq!(spec.volatility, Volatility::Volatile);
        assert!(!spec.parallel_safe);
        assert!(spec.from_position && spec.projection_position);
        assert_eq!(spec.output_schema(None), None);
        let tvf_spec = NopTvf.spec();
        assert_eq!(tvf_spec.output_schema(Some(&["a".into()])), None);
    }

    #[test]
    fn spec_builder_round_trips() {
        let spec = FunctionSpec::scalar("f", vec![ArgType::Column, ArgType::Number])
            .volatility(Volatility::Immutable)
            .parallel_safe(true);
        assert_eq!(
            spec.args.as_deref(),
            Some(&[ArgType::Column, ArgType::Number][..])
        );
        assert_eq!(spec.volatility, Volatility::Immutable);
        assert!(spec.parallel_safe);
        let tvf = FunctionSpec::dynamic("g")
            .returns(vec!["A".into()])
            .from_only();
        assert_eq!(tvf.output_schema(None), Some(vec!["A".to_string()]));
        assert!(tvf.from_position && !tvf.projection_position);
        let derived = FunctionSpec::dynamic("h").returns_derived(|cols| Some(cols.to_vec()));
        assert_eq!(
            derived.output_schema(Some(&["x".into()])),
            Some(vec!["x".to_string()])
        );
        assert_eq!(derived.output_schema(None), None, "derive needs an input");
    }

    struct SharedDoubler;
    impl ScalarUdf for SharedDoubler {
        fn name(&self) -> &str {
            "double_it"
        }
        fn spec(&self) -> FunctionSpec {
            FunctionSpec::scalar("double_it", vec![ArgType::Column]).parallel_safe(true)
        }
        fn invoke(
            &self,
            args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<EncodedTensor, ExecError> {
            Ok(EncodedTensor::F32(
                args[0].as_column()?.decode_f32().mul_scalar(2.0),
            ))
        }
    }

    #[test]
    fn parallel_safety_needs_shared_registration_and_spec() {
        let mut reg = UdfRegistry::new();
        // Plain registration: never parallel, regardless of the spec.
        reg.register_scalar(Arc::new(SharedDoubler));
        assert!(!reg.is_parallel_safe_scalar("double_it"));
        // Shared registration with a parallel_safe spec: parallel.
        reg.register_scalar_parallel(Arc::new(SharedDoubler));
        assert!(reg.is_parallel_safe_scalar("DOUBLE_IT"));
        // Re-registering through the session-bound path revokes it.
        reg.register_scalar(Arc::new(Doubler));
        assert!(!reg.is_parallel_safe_scalar("double_it"));
        // Shared registration of a spec that does NOT claim parallel
        // safety stays sequential (Doubler's default spec).
        struct SendButUnsafe;
        impl ScalarUdf for SendButUnsafe {
            fn name(&self) -> &str {
                "cautious"
            }
            fn invoke(
                &self,
                _args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(EncodedTensor::F32(Tensor::from_vec(vec![0.0], &[1])))
            }
        }
        reg.register_scalar_parallel(Arc::new(SendButUnsafe));
        assert!(!reg.is_parallel_safe_scalar("cautious"));
    }

    #[test]
    fn worker_registry_holds_only_shared_functions() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar(Arc::new(Doubler));
        reg.register_scalar_parallel(Arc::new(SharedDoubler));
        struct Other;
        impl ScalarUdf for Other {
            fn name(&self) -> &str {
                "other"
            }
            fn invoke(
                &self,
                _args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                Ok(EncodedTensor::F32(Tensor::from_vec(vec![0.0], &[1])))
            }
        }
        reg.register_scalar(Arc::new(Other));
        let worker = UdfRegistry::worker(&reg.shared);
        assert!(worker.is_scalar("double_it"));
        assert!(!worker.is_scalar("other"), "session-bound stays behind");
    }

    #[test]
    fn immutable_udf_folding_rewrites_literal_calls_only() {
        use tdp_sql::ast::{Expr, Literal};
        struct Inc;
        impl ScalarUdf for Inc {
            fn name(&self) -> &str {
                "inc"
            }
            fn spec(&self) -> FunctionSpec {
                FunctionSpec::scalar("inc", vec![ArgType::Number]).volatility(Volatility::Immutable)
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, ExecError> {
                let x = args[0].as_number()? as f32;
                Ok(EncodedTensor::F32(Tensor::from_vec(vec![x + 1.0], &[1])))
            }
        }
        let mut reg = UdfRegistry::new();
        reg.register_scalar(Arc::new(Inc));
        let q = tdp_sql::parse("SELECT inc(41), inc(x) FROM t WHERE y > inc(inc(0))").unwrap();
        let folded = fold_immutable_udfs(q, &reg);
        // Literal call folds (including nested literal calls)…
        assert!(
            matches!(&folded.select[0].expr, Expr::Literal(Literal::Number(n)) if *n == 42.0),
            "{:?}",
            folded.select[0].expr
        );
        assert_eq!(folded.to_string().matches("inc(").count(), 1);
        // …while the column-argument call survives untouched.
        assert!(matches!(&folded.select[1].expr, Expr::Func { name, .. } if name == "inc"));
    }
}
