//! # tdp-exec
//!
//! The physical executor: relational operators lowered onto tensor kernels
//! (the TQP lowering the paper builds on), scheduled morsel-at-a-time
//! across a worker pool.
//!
//! ## Architecture: logical → physical → pipelines → kernels
//!
//! Execution is compiled **once** and run many times — the "query
//! compiled like a PyTorch model" contract:
//!
//! ```text
//!   SQL ── parse ──► ast::Query
//!       ── plan  ──► LogicalPlan          (tdp-sql: relational algebra)
//!       ── optimize► LogicalPlan          (rule fixpoint: folding, pushdown, fusion)
//!       ── lower ──► PhysicalPlan         (physical::lower — THE compile step)
//!       ── passes ─► PhysicalPlan         (passes::run: compute-once, access paths)
//!       ── decompose► PipeNode            (pipeline::decompose — fused chains + barriers)
//!                      │
//!          ┌───────────┴──────────────────────┐
//!          ▼                                  ▼
//!   pipeline::execute      ◄─────────  diff::execute_diff
//!   THE exact walker        exact      (soft kernels on the
//!   (morsel scheduler,      subtrees    session thread)
//!    hard kernels)          and gated
//!     │                     barriers
//!     ├─ run()            recorder off
//!     ├─ run_profiled()   recorder on  (profile::Recorder, per stage)
//!     └─ scalar subquery  re-enters with the caller's context
//! ```
//!
//! There is exactly **one** exact plan walker. A plain run, a profiled
//! run and a scalar subquery are the same `exec_node`/`exec_barrier`
//! walk over the same fused pipelines — profiling only attaches an
//! optional recorder that is told when a stage starts and ends (never
//! per morsel), so `PROFILE` describes the run that actually happened
//! and all three return identical bytes. [`exact`] is a kernel library
//! with no walker of its own. [`diff`] walks only what it relaxes —
//! TVFs, chains and aggregates on the tape, soft filters, NeuralSort
//! top-k — on the `Rc`-based autodiff tape. Every subtree off the tape
//! runs on the exact walker with the session's threads, chain kernels,
//! zone maps and ledger, and every other barrier runs there too, behind
//! one `NotDifferentiable` gate that admits only exact rows.
//!
//! [`physical::lower`] walks the logical tree a single time, propagating
//! output **schemas** through every operator and resolving each column
//! reference to a **slot index** ([`physical::CompiledExpr`]). It also
//! resolves functions (session UDF vs. built-in kernel), lowers scalar
//! subqueries into nested physical plans, and type-checks what can be
//! checked statically.
//!
//! ## Morsel-driven execution
//!
//! [`pipeline::decompose`] breaks the physical plan at **barriers**
//! (aggregate, sort, join build, window, DISTINCT, LIMIT) and fuses the
//! barrier-free filter→project chains between them into per-morsel
//! programs. The scheduler ([`morsel`]) partitions each pipeline's input
//! into ~64k-row morsels ([`pipeline::DEFAULT_MORSEL_ROWS`]) and runs
//! the fused chain across a worker pool ([`ExecContext::threads`]),
//! claiming morsels work-stealing-style from a shared counter:
//!
//! * filter/project pipelines reassemble with an **order-preserving,
//!   encoding-preserving concat** ([`Batch::concat`]);
//! * aggregation folds every morsel into per-group **partial states**
//!   (i64 counts, f32 sums, f64 power sums, min/max) merged by a combine
//!   step that walks morsels in index order — a single-morsel input is
//!   the same code with one partial;
//! * LIMIT pipelines **early-exit**: once the contiguous output prefix
//!   covers the requested rows, unclaimed morsels are never processed.
//!
//! Determinism is the contract: morsel boundaries depend only on
//! [`ExecContext::morsel_rows`], so every thread count (including 1)
//! produces identical batches. Chains that cannot leave the session
//! thread — session UDFs (whose parameters ride the `Rc`-based autodiff
//! tape), expressions holding a scalar subquery, tensor-valued bindings
//! — run whole-batch inside the same walker, equally deterministically.
//! An input that fits one morsel is the one-window case of the same
//! chain path, and rows move by one rule at every size (plain,
//! dictionary and PE layouts keep their encoding; rows read out of a
//! run-length, bit-packed or delta column are plain `i64`), so a
//! result's per-column encodings do not depend on the morsel size, the
//! thread count or the kernel switch either.
//!
//! The kernels themselves live in [`exact`]: filters are boolean masks,
//! ORDER BY is argsort, and every key — of GROUP BY, DISTINCT, a join, a
//! sort or a window partition — becomes `i64` codes in one function
//! (`exact::key_codes`) and, when dense, direct-index slots by one rule
//! (`tdp_tensor::keytable::Direct`); other keys hash. Aggregation is one
//! compiled program per query ([`morsel`]'s `AggProgram`) whose
//! accumulators all advance in a single row-order pass over
//! `(slot, arguments…)` — with no keys, each accumulator is its own loop
//! with its running value in a local — reading the stored columns it
//! names in place.
//! Probability-encoded inputs are decoded by argmax first (paper §4,
//! inference-time operator swap). The trainable path ([`soft`], [`diff`])
//! consumes the *same* pipeline decomposition: GROUP BY +
//! COUNT over PE columns becomes an (iterated Khatri-Rao) product
//! followed by a column sum; predicates become sigmoid-weighted row
//! weights threaded through downstream aggregates.
//!
//! Batches ([`Batch`]) look columns up by name, but the hot path never
//! does: compiled expressions address columns by slot. Name lookup
//! remains only where schemas are dynamic — downstream of table-valued
//! functions that do *not* declare an output schema; a TVF whose
//! [`FunctionSpec`] declares one slot-resolves like a base table (and the
//! executor checks the actual output against the declaration).
//!
//! UDFs and table-valued functions ([`udf`]) execute *inside* the tensor
//! runtime: they receive encoded tensors and return encoded tensors (or,
//! in a trainable run, [`DiffBatch`]es and differentiable columns), so
//! there is no context-switch
//! cost between SQL operators and ML transforms. Each declares a
//! [`FunctionSpec`] — argument types (validated at prepare time),
//! volatility (Immutable calls over literals constant-fold), a
//! `parallel_safe` capability (chains containing such UDFs morselize
//! across the worker pool) and, for TVFs, the output schema and allowed
//! positions. Legacy `name()`-only implementations keep the historical
//! fully-dynamic behaviour via defaulted methods.
//!
//! Barriers are staged rather than streamed: joins normalise their keys
//! to integer code columns, hash each row once, build per-partition flat
//! tables after a key-hash **exchange** ([`DEFAULT_PARTITIONS`]
//! buckets, independent of the thread count) and probe even survivor
//! ranges in parallel, one per thread; ORDER BY / TopK sort per-morsel runs merged k-way under the
//! stable `(keys…, input position)` order; DISTINCT dedups exchanged
//! partitions shared-nothing through the same codes, hash and table. A
//! sequential barrier (one thread, one morsel, a pinned sort key) is the
//! same code with one run, one partition and one task, so every thread
//! count is byte-identical to it, and the golden result digests
//! (`tests/golden/results.txt`) pin its output across commits.
//!
//! Fused filter→project chains additionally run on **chain kernels**
//! ([`kernel`]): selection-vector loops monomorphised over the concrete
//! column encodings, walking the plan's own [`CompiledExpr`] nodes —
//! there is one expression form, lowered once, and the interpreter
//! ([`expr`]) and the kernel are two evaluators of it. Which chains the
//! kernel may run is a vetting verdict reached on every execution,
//! against the registry that execution runs with — never cached.
//!
//! **The interpreter is a permanent tier, not a test fixture.**
//! [`expr::eval_expr`] is (1) the fallback every chain the kernel cannot
//! reproduce exactly runs on, with a named reason visible in EXPLAIN
//! and profiles — UDF calls, scalar subqueries, vector built-ins,
//! arithmetic on payload (rank > 1) columns, chains pinned to the
//! session thread, and any run-time bail-out; (2) the evaluator of
//! everything that is not a fused chain — sort and window keys, TVF
//! arguments, and aggregate arguments and group keys wherever the
//! aggregate does not fold in place on the kernel; and (3) the
//! byte-identity oracle the kernel is tested against at every lattice
//! point. The three roles are one body of code on purpose: an oracle
//! that production does not run drifts. The kernel is an accelerator
//! for the vetted subset; a further tier (a tensor runtime, codegen) is
//! one more evaluator of the same [`CompiledExpr`], held to the same
//! oracle.
//!
//! ## Module map
//!
//! ```text
//!   physical   plan types, walks (CompiledExpr/PhysicalPlan::find_map: behind params,
//!              scans, names, signature checks), EXPLAIN; lower.rs: lower() — names
//!              → slots, calls bound — and the declared-argument check
//!   passes     every plan decision: compute_once, then access_paths (ann_shape)
//!   pipeline   decompose(): fused chains + barriers; THE exact walker; EXPLAIN
//!   morsel     everything staged on the worker pool
//!     ├ sched      worker contexts, the one spawn site, the one claim loop, exchange
//!     ├ chain      parallel-safety analysis, ChainRun (one verdict per chain per run),
//!     │            streaming run + LIMIT sink, chain→barrier hand-off
//!     ├ aggregate  AggProgram, the one per-morsel fold (in place over the stored
//!     │            columns it names, into the keys' Direct slots or hashed ids),
//!     │            the combine (group_rows over the partials' key rows, states
//!     │            scattered in morsel order)
//!     ├ join / sort / distinct   the barriers, staged or one run/partition/task
//!   kernel     chain kernels over CompiledExpr (and the aggregate fold's reads);
//!              vetting, once per execution
//!   expr       the scalar interpreter: the fallback tier, and the chain kernel's oracle
//!   exact      shared barrier pieces (codes, probe, join assembly) and the
//!              whole-batch kernels with no staged form (scan, ANN, window, UNION ALL)
//!   profile    Recorder + QueryProfile (the same walk, observed per stage)
//!   verdict    Reason + Staging: every scheduling decline one value, rendered once
//!   access     zone-map pruning, ANN paths, access-path counters
//!   memory     ledger charges;  udf / params / batch / error: the vocabulary
//!   soft, diff the differentiable executor
//! ```
//!
//! What should hang off this layer next: NUMA-/device-aware morsel
//! placement (a pipeline already knows its scan), cross-query kernel
//! reuse for *barrier* operators keyed by
//! [`physical::PhysicalPlan::fingerprint`] (a join whose build input
//! has no `Param` slots is binding-independent), and spilling exchanges
//! for out-of-core builds.

pub mod access;
pub mod batch;
pub mod diff;
pub mod error;
pub mod exact;
pub mod expr;
pub mod kernel;
pub(crate) mod memory;
pub mod morsel;
pub mod params;
pub(crate) mod passes;
pub mod physical;
pub mod pipeline;
pub mod profile;
pub mod soft;
pub mod udf;
pub(crate) mod verdict;

pub use access::{AccessPathCounters, AccessPathStats, AnnPath, ChunkPruner};
pub use batch::{Batch, ColumnData, DiffBatch, DiffColumn, NamedColumns};
pub use diff::execute_diff;
pub use error::ExecError;
pub use kernel::ChainKernelStats;
pub use params::{ParamValue, ParamValues};
pub use physical::{check_args, declared_args, lower, CompiledExpr, DeclaredArg, PhysicalPlan};
pub use pipeline::{
    decompose, execute, MorselOp, PipeNode, DEFAULT_MORSEL_ROWS, DEFAULT_PARTITIONS,
};
pub use profile::{execute_profiled, OpTrace, QueryProfile};
pub use udf::{
    fold_immutable_udfs, ArgType, ArgValue, ExecContext, FunctionSpec, OutputSchema, ScalarUdf,
    SharedUdfRegistry, TableFunction, UdfRegistry, Volatility,
};
