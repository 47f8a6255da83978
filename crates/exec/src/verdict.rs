//! Scheduling verdicts, typed: why a fused chain is pinned to the session
//! thread, why the interpreter runs it, why a barrier is handed a
//! gathered batch, and how a barrier or aggregate is staged. Each is
//! decided once, by one function that EXPLAIN, where it prints the
//! verdict, calls too; every decline is a [`Reason`] — a plain value
//! until EXPLAIN or a profiled run renders it.

use std::fmt;

/// Why a stage declines a faster form — the fallback taxonomy, one
/// variant per name. Function names borrow from the plan.
///
/// A *parallelism decline* ([`Reason::pins`]) runs the stage whole-batch
/// on the session thread through the [`crate::exact`] kernels, inside the
/// one plan walker; a *kernel decline* keeps a chain on the interpreter;
/// a *hand-off decline* makes a chain gather its survivors for the
/// barrier or aggregate above it. Every fallback is as deterministic as
/// what it declines — it is the oracle. EXPLAIN prints the
/// [`Reason::is_static`] ones; the rest only a run sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reason<'p> {
    /// `udf-not-parallel-safe(f)`: a session UDF without a `parallel_safe`
    /// spec (or a built-in one shadows) may hold `Rc` autodiff parameters.
    UdfNotParallelSafe(&'p str),
    /// `scalar-subquery`: workers carry no catalog to run the nested plan
    /// against; nor do the kernel and the in-place aggregate fold.
    ScalarSubquery,
    /// `tensor-param($n)`: a tensor binding is row-aligned with the whole
    /// input, not a morsel, and has no scalar kernel form.
    TensorParam(usize),
    /// `count-distinct`: distinct counts do not add across morsels.
    CountDistinct,
    /// `threads=1`: one worker, so a barrier has nothing to stage.
    Threads1,
    /// `chain-kernels-disabled`: the session switch is off.
    ChainKernelsDisabled,
    /// `no-chain`: there is no fused chain to run.
    NoChain,
    /// `udf(f)`: a scalar UDF call, or a built-in a UDF now shadows.
    Udf(&'p str),
    /// `builtin-arity(f)`: a built-in called with the wrong arity.
    BuiltinArity(&'p str),
    /// `vector-builtin(f)`: reads whole `[n, d]` columns; kernels are
    /// scalar per row.
    VectorBuiltin(&'p str),
    /// `empty-in-list`: `IN ()`.
    EmptyInList,
    /// `null-param($n)`: a slot bound to NULL has no scalar kernel form.
    NullParam(usize),
    /// `unbound-param($n)`: a slot with no binding.
    UnboundParam(usize),
    /// `computed-projection`: a projection rewrites columns, so survivor
    /// ids over the input cannot represent the chain's output.
    ComputedProjection,
    /// `single-morsel`: the input fits one morsel; nothing to split.
    SingleMorsel,
    /// `kernel-compile`: this run's `$n` bindings left no kernel to run
    /// (the chain's own note names the slot).
    KernelCompile,
    /// `kernel-bailout`: the kernel bailed at run time. A barrier's
    /// selection exit is declined whole; an aggregate re-runs only the
    /// windows that bailed.
    KernelBailout,
    /// `udf-argument`: an aggregate key or argument the in-place fold
    /// does not evaluate.
    UdfArgument,
    /// `unresolved-column`: an aggregate key or argument the chain's
    /// output does not hold; the gathered fold raises the error.
    UnresolvedColumn,
}

impl Reason<'_> {
    /// Whether EXPLAIN can print it: it follows from the plan and the
    /// session, without an input or a binding.
    pub(crate) fn is_static(self) -> bool {
        use Reason as R;
        !matches!(
            self,
            R::SingleMorsel
                | R::KernelCompile
                | R::KernelBailout
                | R::NullParam(_)
                | R::UnboundParam(_)
        )
    }

    /// Whether it pins work to the session thread — what
    /// `OpTrace::fallback` reports. `threads=1` and `single-morsel` leave
    /// a barrier nothing to stage, but pin nothing.
    pub(crate) fn pins(self) -> bool {
        use Reason as R;
        matches!(
            self,
            R::UdfNotParallelSafe(_) | R::ScalarSubquery | R::TensorParam(_) | R::CountDistinct
        )
    }
}

impl fmt::Display for Reason<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Reason as R;
        match self {
            R::UdfNotParallelSafe(name) => write!(f, "udf-not-parallel-safe({name})"),
            R::ScalarSubquery => f.write_str("scalar-subquery"),
            R::TensorParam(idx) => write!(f, "tensor-param(${})", idx + 1),
            R::CountDistinct => f.write_str("count-distinct"),
            R::Threads1 => f.write_str("threads=1"),
            R::ChainKernelsDisabled => f.write_str("chain-kernels-disabled"),
            R::NoChain => f.write_str("no-chain"),
            R::Udf(name) => write!(f, "udf({name})"),
            R::BuiltinArity(name) => write!(f, "builtin-arity({name})"),
            R::VectorBuiltin(name) => write!(f, "vector-builtin({name})"),
            R::EmptyInList => f.write_str("empty-in-list"),
            R::NullParam(idx) => write!(f, "null-param(${})", idx + 1),
            R::UnboundParam(idx) => write!(f, "unbound-param(${})", idx + 1),
            R::ComputedProjection => f.write_str("computed-projection"),
            R::SingleMorsel => f.write_str("single-morsel"),
            R::KernelCompile => f.write_str("kernel-compile"),
            R::KernelBailout => f.write_str("kernel-bailout"),
            R::UdfArgument => f.write_str("udf-argument"),
            R::UnresolvedColumn => f.write_str("unresolved-column"),
        }
    }
}

/// How a join, sort, top-k or DISTINCT runs: staged across the worker
/// pool, or whole-batch on the session thread, with why. EXPLAIN prints
/// it; a profiled run adds the morsels each stage claimed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Staging<'p> {
    /// `partitioned ×n`: join and DISTINCT, exchanged into `n` partitions.
    Partitioned(usize),
    /// `direct-index`: a join or DISTINCT staged as `partitioned ×n` whose
    /// key columns span few enough values over the rows it indexes
    /// (`keytable::Direct`) to skip the exchange — one table indexed by
    /// key value. Chosen from the data at run time, so only a profile
    /// shows it; EXPLAIN keeps the plan's `partitioned ×n`.
    DirectIndex,
    /// `merge-sort`: per-morsel sorted runs, k-way merged.
    MergeSort,
    /// `parallel top-k`: per-morsel top-k runs, merged.
    TopK,
    /// `sequential: <reason>`.
    Sequential(Reason<'p>),
}

impl fmt::Display for Staging<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Staging::Partitioned(n) => write!(f, "partitioned ×{n}"),
            Staging::DirectIndex => f.write_str("direct-index"),
            Staging::MergeSort => f.write_str("merge-sort"),
            Staging::TopK => f.write_str("parallel top-k"),
            Staging::Sequential(why) => write!(f, "sequential: {why}"),
        }
    }
}
