//! Vectorized chain kernels: selection-vector execution for the fused
//! filter→project chains that form the hot inner loop of every morsel on
//! every worker thread.
//!
//! ## Selection-vector model
//!
//! The interpreter ([`crate::expr::eval_expr`] + [`crate::exact::filter_batch`])
//! materializes a fully gathered batch after *each* filter op: every
//! predicate allocates a boolean mask, then every column is gathered.
//! A chain kernel instead evaluates predicates into a **selection
//! vector** (`SelVec`) — a boolean mask while the selection is dense,
//! demoted to a sorted index list once few enough rows survive
//! (`DENSE_DIVISOR`). Consecutive filters and top-level `AND` conjuncts
//! refine the same selection (sparse selections evaluate later
//! predicates on surviving rows only; dense ones evaluate full-width
//! and intersect branchlessly), and the single gather happens once at
//! chain exit or is pushed into the projection loop. Index compaction
//! is branch-free (`compact`).
//!
//! A kernel evaluates a **row window** over a column list (`Scope`): a
//! morsel is `(the stage input's own stored columns, start..end)`, an
//! input that fits one morsel the window `0..rows` of the same path;
//! nothing is sliced or decoded to make one. A leaf reads its window where the column lives (`leaf_pval`
//! — borrowed, widened or decoded for the window alone), so a column no
//! expression names costs nothing and a zone-map-pruned morsel is never
//! a window at all. Loops are monomorphised over the leaf encodings, and
//! the arithmetic replicates the interpreter's kernel dispatch *exactly*
//! (same f32 widening, same operand order, same CASE blend expression),
//! which keeps the interpreter the byte-identity oracle at every thread
//! count.
//!
//! ## One expression form
//!
//! There is no kernel-side copy of the plan. A `ChainInstance`
//! borrows the caller's own [`MorselOp`]s and the kernel loops walk
//! their [`CompiledExpr`] nodes directly; `$n` leaves read the bound
//! literal from [`ExecContext::params`] at evaluation. Support is
//! decided by a reason-only vetting pass (`vet`) plus a bind-time
//! check of the `$n` slots the chain references — neither builds
//! anything — and the evaluator itself refuses every node kind the
//! vetting pass would have refused (a run-time bail-out to the
//! interpreter), so a wrong verdict can cost speed but never a result.
//!
//! ## Exit modes
//!
//! A vetted chain leaves the kernel in one of two ways, chosen per
//! pipeline by [`crate::pipeline`]; both run per morsel, on the worker
//! that claimed it:
//!
//! * **Gather exit** (`ChainInstance::run_window`) — the deferred
//!   selection is collapsed into one gather per output column, read at
//!   the survivors' row ids straight out of the stored column. Used when
//!   the consumer needs dense rows (streaming sinks, LIMIT, unsupported
//!   barrier shapes).
//! * **Selection exit** (`ChainInstance::select_window`) — only the
//!   filters run; each morsel returns a window-local `SelVec` over the
//!   chain's output columns (`ChainInstance::selection_cols`: the stored
//!   columns, remapped, never copied), and the task that claimed the
//!   window hands it on without stitching anything table-wide: an
//!   aggregate task folds the window under it; for join, sort, top-k and
//!   DISTINCT it becomes the window's ascending global survivor ids,
//!   concatenated in morsel order, and the barrier probes or extracts
//!   keys at them and defers the single payload gather to its own
//!   assembly step. Only chains whose projections are pure column remaps
//!   qualify (`computed_projection`); EXPLAIN prints the hand-off as
//!   `[barrier: selection-fed]` / `[barrier: gathered: <reason>]`.
//!
//! The evaluator has a third consumer, the aggregate fold
//! ([`crate::morsel`]'s aggregate stage): `ChainInstance::key_window` and
//! `ChainInstance::arg_window` evaluate an aggregate's computed keys and
//! its arguments over the chain's output columns where they are stored —
//! full width under a dense mask, at the survivors under an index list,
//! every row of a bare scan (`ChainInstance::empty`, the kernel of the
//! empty chain) — in the forms the fold reads: a packed key column,
//! COUNT's flags, f32 values. A string read as numbers, a row constant
//! as a key, a payload leaf bail like any other refusal, and the
//! aggregate re-runs that window on the interpreter.
//!
//! Pass-through columns move by the one row-movement rule
//! ([`EncodedTensor::select_rows`] at the survivors,
//! [`EncodedTensor::slice_rows`] over an unfiltered window): plain,
//! dictionary and PE layouts keep theirs (a window of the stored buffer
//! when the rows are one run), integer-compressed layouts
//! come out as plain `i64` — in every window of every size, which is
//! also what the interpreter's `filter_batch` yields, so a result's
//! encodings do not depend on how its input was split.
//!
//! ## Fallback taxonomy
//!
//! Vetting is conservative: anything the kernel cannot reproduce
//! bit-for-bit runs on the interpreter with a named `verdict::Reason` —
//! the first refusal in pre-order names the chain. Vet-time refusals are
//! static, so EXPLAIN prints them; bind-time ones (a `$n` slot with no
//! scalar form) only a run sees, and a barrier above such a chain notes
//! `gathered: kernel-compile`. Run-time bails are silent and per morsel:
//! payload (rank > 1) columns in computed expressions or aggregates,
//! evaluation type errors (the interpreter re-runs the morsel and raises
//! the identical error), a refused scratch charge, any node kind above
//! reaching the evaluator un-vetted.
//!
//! ## Vetting
//!
//! A chain is vetted in `bind` on every execution, against the
//! function registry that execution evaluates with — nothing about the
//! verdict is remembered between runs. It is a pure function of the
//! plan's own nodes and that registry, and the walk costs less than
//! any key a cache could look it up by, so a UDF registered later
//! shadows a built-in on the same session's next run (and on no other
//! session's) with nothing to invalidate. Each execution counts once
//! in the engine's access-path counters — a kernel bind, or a fallback
//! (a vet- or bind-time refusal, or a run-time bail-out);
//! [`ChainKernelStats`] is their snapshot.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use tdp_encoding::{EncodedTensor, StringDict};
use tdp_sql::ast::{BinOp, UnOp};
use tdp_tensor::{I64Tensor, Tensor};

use crate::access::AccessPathCounters;
use crate::batch::Batch;
use crate::expr::like_match;
use crate::params::{ParamValue, ParamValues};
use crate::physical::{CompiledExpr, PhysProjectItem, ScalarFn};
use crate::pipeline::MorselOp;
use crate::udf::ExecContext;
use crate::verdict::Reason;

// ----------------------------------------------------------------------
// Vetting and binding
// ----------------------------------------------------------------------

/// A vetted chain bound to one execution, ready to run on morsels from
/// any worker thread. It evaluates the caller's own plan nodes.
pub(crate) struct ChainInstance<'a> {
    ops: &'a [MorselOp<'a>],
    /// The execution's counters, captured at bind: worker contexts carry
    /// a throwaway set, so a bail counted there would be lost.
    access: &'a AccessPathCounters,
    /// Run-time fallbacks are counted once per execution, not per morsel.
    fallback_noted: AtomicBool,
}

/// Chain-kernel counters: a snapshot of the engine's access-path
/// counters (see [`crate::AccessPathStats`]), shaped like the plan-cache
/// stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainKernelStats {
    /// Chain executions bound to the kernel.
    pub hits: u64,
    /// Always 0: verdicts are vetted per execution, never cached.
    pub misses: u64,
    /// Executions that ran interpreted while kernels were enabled
    /// (vetting refusals, bind-time refusals, run-time bail-outs).
    pub fallbacks: u64,
}

/// The first reason, in pre-order, the kernel evaluator cannot run this
/// chain — `None` = vetted. Nothing is built: [`eval`] walks the same
/// nodes, and refuses each of these kinds itself.
pub(crate) fn vet<'p>(ops: &[MorselOp<'p>], ctx: &ExecContext) -> Option<Reason<'p>> {
    ops.iter().find_map(|op| {
        op.find_map(&mut |node| match node {
            _ if let Some(name) = ctx.udfs.udf_call(node) => Some(Reason::Udf(name)),
            CompiledExpr::Builtin { name, func, args } if args.len() != func.arity() => {
                Some(Reason::BuiltinArity(name))
            }
            // Vector-similarity builtins consume a whole [n, d] embedding
            // column; selection-vector programs are strictly scalar-per-row.
            CompiledExpr::Builtin {
                name,
                func: ScalarFn::Vector(_),
                ..
            } => Some(Reason::VectorBuiltin(name)),
            CompiledExpr::InList { list, .. } if list.is_empty() => Some(Reason::EmptyInList),
            CompiledExpr::ScalarSubquery(_) => Some(Reason::ScalarSubquery),
            _ => None,
        })
    })
}

/// The first `$n` slot the chain references whose binding has no scalar
/// kernel form — checked per execution, the verdict being
/// literal-invariant.
fn unbound_param<'p>(ops: &[MorselOp<'p>], params: &ParamValues) -> Option<Reason<'p>> {
    ops.iter().find_map(|op| {
        op.find_map(&mut |node| match node {
            CompiledExpr::Param { idx } => match params.get(*idx) {
                Some(ParamValue::Number(_) | ParamValue::String(_) | ParamValue::Bool(_)) => None,
                Some(ParamValue::Tensor(_)) => Some(Reason::TensorParam(*idx)),
                Some(ParamValue::Null) => Some(Reason::NullParam(*idx)),
                None => Some(Reason::UnboundParam(*idx)),
            },
            _ => None,
        })
    })
}

/// `computed-projection` unless the chain supports the selection exit:
/// it must never change the row space, i.e. every projection is a pure
/// column remap (`SELECT b AS x, a …`). A computed or literal item
/// materializes new storage in selection space, which resets the
/// selection — those chains keep the gather exit.
pub(crate) fn computed_projection<'p>(ops: &[MorselOp<'p>]) -> Option<Reason<'p>> {
    let computed = |it: &PhysProjectItem| !matches!(it.expr, CompiledExpr::Column(_));
    let computes =
        |op: &MorselOp<'_>| matches!(op, MorselOp::Project(items) if items.iter().any(computed));
    ops.iter()
        .any(computes)
        .then_some(Reason::ComputedProjection)
}

/// Bind a vetted, non-empty chain to this execution — the one counted
/// entry point, called once per chain per run with the chain's `vetted`
/// verdict: a vet-time refusal, or a `$n` binding with no scalar form,
/// counts as a fallback and the interpreter runs the chain; anything
/// else counts as a kernel bind.
pub(crate) fn bind<'a>(
    ops: &'a [MorselOp<'a>],
    ctx: &'a ExecContext,
    vetted: Result<(), Reason<'a>>,
) -> Result<ChainInstance<'a>, Reason<'a>> {
    if let Some(refusal) = vetted.err().or_else(|| unbound_param(ops, &ctx.params)) {
        ctx.access.note_kernel_fallback();
        return Err(refusal);
    }
    ctx.access.note_kernel_bind();
    Ok(ChainInstance {
        ops,
        access: &ctx.access,
        fallback_noted: AtomicBool::new(false),
    })
}

// ----------------------------------------------------------------------
// Execution
// ----------------------------------------------------------------------

/// Internal bail-out: the kernel cannot reproduce the interpreter for
/// this batch — the caller re-runs the morsel interpreted.
struct Bail;

type KResult<T> = Result<T, Bail>;

/// A packed evaluation value: the monomorphised mirror of
/// [`crate::expr::Value`]. Vectors are in selection space (one element
/// per *surviving* row). Full-width f32 and dictionary-code leaves
/// *borrow* the column data (the interpreter's `decode_f32` on an
/// `F32` column is an Arc bump, so copying here would be pure
/// overhead); everything computed is owned.
#[derive(Clone, Debug)]
enum PVal<'c> {
    F32(Cow<'c, [f32]>),
    Bool(Vec<bool>),
    /// Dictionary codes plus their dictionary — kept packed so string
    /// comparisons run on codes, as the interpreter does.
    Codes(Cow<'c, [i64]>, Arc<StringDict>),
    Num(f64),
    Str(String),
    BoolS(bool),
}

/// A value as numbers: one f32 per selected row — a plain f32 leaf's
/// borrowed where it is stored — or a row constant, which arithmetic
/// reads as a scalar rather than a broadcast buffer.
enum F32s<'c> {
    Vals(Cow<'c, [f32]>),
    Const(f32),
}

fn f32s(v: PVal<'_>) -> KResult<F32s<'_>> {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    Ok(match v {
        PVal::F32(v) => F32s::Vals(v),
        // Same widenings as `Value::into_f32_column` / `decode_f32`.
        PVal::Bool(m) => F32s::Vals(Cow::Owned(m.into_iter().map(flag).collect())),
        PVal::Codes(c, _) => F32s::Vals(Cow::Owned(c.iter().map(|&c| c as f32).collect())),
        PVal::Num(x) => F32s::Const(x as f32),
        PVal::BoolS(b) => F32s::Const(flag(b)),
        PVal::Str(_) => return Err(Bail), // interpreter: type error
    })
}

fn f32_vec(v: PVal<'_>, n: usize) -> KResult<Vec<f32>> {
    Ok(match f32s(v)? {
        F32s::Vals(v) => v.into_owned(),
        F32s::Const(x) => vec![x; n],
    })
}

/// `f` over `n` rows of one numeric operand.
fn map_f32(v: &F32s<'_>, n: usize, f: impl Fn(f32) -> f32) -> Vec<f32> {
    match v {
        F32s::Vals(v) => v.iter().map(|&x| f(x)).collect(),
        F32s::Const(x) => vec![f(*x); n],
    }
}

/// `f` over `n` rows of two numeric operands, elementwise.
fn zip_f32<T: Clone>(l: &F32s<'_>, r: &F32s<'_>, n: usize, f: impl Fn(f32, f32) -> T) -> Vec<T> {
    match (l, r) {
        (F32s::Vals(a), F32s::Vals(b)) => a.iter().zip(b.iter()).map(|(&a, &b)| f(a, b)).collect(),
        (F32s::Vals(a), &F32s::Const(b)) => a.iter().map(|&a| f(a, b)).collect(),
        (&F32s::Const(a), F32s::Vals(b)) => b.iter().map(|&b| f(a, b)).collect(),
        (&F32s::Const(a), &F32s::Const(b)) => vec![f(a, b); n],
    }
}

fn mask_vec(v: PVal<'_>, n: usize) -> KResult<Vec<bool>> {
    match v {
        PVal::Bool(m) => Ok(m),
        PVal::BoolS(b) => Ok(vec![b; n]),
        _ => Err(Bail), // interpreter: "not a boolean mask"
    }
}

/// Gather a column leaf into selection space, monomorphised per
/// encoding. The leaf is the scope's row window of `col` and `sel`
/// indexes into that window (`None` = every row of it): plain f32 and
/// dictionary leaves *borrow* the window out of the column's storage,
/// `i64` leaves widen it, integer-compressed leaves decode it
/// ([`EncodedTensor::slice_rows`]) — never more than the morsel's share.
/// A pass-through column never comes here: `Scope::pass_through` hands
/// it on as a window of the stored buffer (a selection's survivors too,
/// when they are one run) or as a gather of its survivors.
fn leaf_pval<'c>(
    col: &'c EncodedTensor,
    sc: Scope<'_, '_>,
    sel: Option<&[u32]>,
) -> KResult<PVal<'c>> {
    fn gather<T: Copy, U>(data: &[T], sel: Option<&[u32]>, f: impl Fn(T) -> U) -> Vec<U> {
        match sel {
            Some(s) => s.iter().map(|&i| f(data[i as usize])).collect(),
            None => data.iter().map(|&v| f(v)).collect(),
        }
    }
    fn view<'d, T: Copy>(data: &'d [T], sel: Option<&[u32]>) -> Cow<'d, [T]> {
        match sel {
            Some(s) => Cow::Owned(s.iter().map(|&i| data[i as usize]).collect()),
            None => Cow::Borrowed(data),
        }
    }
    let (start, end) = (sc.start, sc.start + sc.rows);
    Ok(match col {
        EncodedTensor::F32(t) => {
            if t.ndim() != 1 {
                // Payload columns only pass through projections whole;
                // arithmetic on them is the interpreter's (same-shape
                // operands, or a typed shape error).
                return Err(Bail);
            }
            PVal::F32(view(&t.data()[start..end], sel))
        }
        EncodedTensor::I64(t) => {
            PVal::F32(Cow::Owned(gather(&t.data()[start..end], sel, |v| v as f32)))
        }
        EncodedTensor::Bool(t) => PVal::Bool(gather(&t.data()[start..end], sel, |b| b)),
        EncodedTensor::Dict { codes, dict } => {
            PVal::Codes(view(&codes.data()[start..end], sel), Arc::clone(dict))
        }
        EncodedTensor::Rle(_) | EncodedTensor::BitPacked(_) | EncodedTensor::Delta(_) => {
            // Task scratch, on the ledger while it lives. A refusal bails:
            // the interpreter's slice is refused too, with a typed error.
            let bytes = (sc.rows * 8) as u64;
            let _scratch = crate::memory::charge(&sc.ctx.memory, "morsel materialization", bytes)
                .map_err(|_| Bail)?;
            let d = col.slice_rows(start, end).decode_i64();
            PVal::F32(Cow::Owned(gather(d.data(), sel, |v| v as f32)))
        }
        EncodedTensor::Pe(_) => {
            let d = col.slice_rows(start, end).decode_f32();
            PVal::F32(Cow::Owned(gather(d.data(), sel, |v| v)))
        }
    })
}

/// Mirror of `compare_dict`, on packed codes.
fn compare_codes(
    op: BinOp,
    codes: &[i64],
    dict: &StringDict,
    s: &str,
    flipped: bool,
) -> KResult<Vec<bool>> {
    let op = if flipped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    } else {
        op
    };
    Ok(match op {
        BinOp::Eq => match dict.code_of(s) {
            Some(c) => codes.iter().map(|&x| x == c).collect(),
            None => vec![false; codes.len()],
        },
        BinOp::NotEq => match dict.code_of(s) {
            Some(c) => codes.iter().map(|&x| x != c).collect(),
            None => vec![true; codes.len()],
        },
        BinOp::Lt => {
            let b = dict.lower_bound(s);
            codes.iter().map(|&x| x < b).collect()
        }
        BinOp::GtEq => {
            let b = dict.lower_bound(s);
            codes.iter().map(|&x| x >= b).collect()
        }
        BinOp::LtEq => match dict.code_of(s) {
            Some(c) => codes.iter().map(|&x| x <= c).collect(),
            None => {
                let b = dict.lower_bound(s);
                codes.iter().map(|&x| x < b).collect()
            }
        },
        BinOp::Gt => match dict.code_of(s) {
            Some(c) => codes.iter().map(|&x| x > c).collect(),
            None => {
                let b = dict.lower_bound(s);
                codes.iter().map(|&x| x >= b).collect()
            }
        },
        _ => return Err(Bail), // interpreter: type error
    })
}

/// Mirror of `eval_binary`: same dispatch order, same f32 kernels.
fn kbinary<'c>(op: BinOp, l: PVal<'c>, r: PVal<'c>, n: usize) -> KResult<PVal<'c>> {
    use BinOp::*;

    if op.is_logical() {
        let lm = mask_vec(l, n)?;
        let rm = mask_vec(r, n)?;
        let out = match op {
            And => lm.iter().zip(&rm).map(|(&a, &b)| a && b).collect(),
            Or => lm.iter().zip(&rm).map(|(&a, &b)| a || b).collect(),
            _ => unreachable!(),
        };
        return Ok(PVal::Bool(out));
    }

    match (&l, &r) {
        (PVal::Codes(c, d), PVal::Str(s)) => {
            return compare_codes(op, c, d, s, false).map(PVal::Bool)
        }
        (PVal::Str(s), PVal::Codes(c, d)) => {
            return compare_codes(op, c, d, s, true).map(PVal::Bool)
        }
        _ => {}
    }

    if let (PVal::Num(a), PVal::Num(b)) = (&l, &r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => PVal::Num(a + b),
            Sub => PVal::Num(a - b),
            Mul => PVal::Num(a * b),
            Div => PVal::Num(a / b),
            Mod => PVal::Num(a % b),
            Eq => PVal::BoolS(a == b),
            NotEq => PVal::BoolS(a != b),
            Lt => PVal::BoolS(a < b),
            LtEq => PVal::BoolS(a <= b),
            Gt => PVal::BoolS(a > b),
            GtEq => PVal::BoolS(a >= b),
            And | Or => unreachable!(),
        });
    }
    if let (PVal::Str(a), PVal::Str(b)) = (&l, &r) {
        return Ok(PVal::BoolS(match op {
            Eq => a == b,
            NotEq => a != b,
            Lt => a < b,
            LtEq => a <= b,
            Gt => a > b,
            GtEq => a >= b,
            _ => return Err(Bail), // interpreter: type error
        }));
    }

    let (lc, rc) = (f32s(l)?, f32s(r)?);
    macro_rules! num {
        ($f:expr) => {
            PVal::F32(Cow::Owned(zip_f32(&lc, &rc, n, $f)))
        };
    }
    macro_rules! cmp {
        ($f:expr) => {
            PVal::Bool(zip_f32(&lc, &rc, n, $f))
        };
    }
    Ok(match op {
        Add => num!(|a: f32, b: f32| a + b),
        Sub => num!(|a: f32, b: f32| a - b),
        Mul => num!(|a: f32, b: f32| a * b),
        Div => num!(|a: f32, b: f32| a / b),
        Mod => num!(|a: f32, b: f32| a % b),
        Eq => cmp!(|a: f32, b: f32| a == b),
        NotEq => cmp!(|a: f32, b: f32| a != b),
        Lt => cmp!(|a: f32, b: f32| a < b),
        LtEq => cmp!(|a: f32, b: f32| a <= b),
        Gt => cmp!(|a: f32, b: f32| a > b),
        GtEq => cmp!(|a: f32, b: f32| a >= b),
        And | Or => unreachable!(),
    })
}

/// What an expression evaluates against: the row window
/// `start..start + rows` of one segment's columns, and the context whose
/// bindings (`$n`) and function registry the interpreter would consult
/// for the same morsel.
#[derive(Clone, Copy)]
struct Scope<'c, 'x> {
    cols: &'c Batch,
    start: usize,
    rows: usize,
    ctx: &'x ExecContext<'x>,
}

/// `(start, rows)` of a [`Scope`].
type Window = (usize, usize);

impl<'c, 'x> Scope<'c, 'x> {
    /// `Err` for a window past the `u32` selection space.
    fn over(cols: &'c Batch, (start, rows): Window, ctx: &'x ExecContext<'x>) -> KResult<Self> {
        let scope = Scope {
            cols,
            start,
            rows,
            ctx,
        };
        (rows <= u32::MAX as usize).then_some(scope).ok_or(Bail)
    }

    /// A pass-through column at this scope's rows, or at the `ids`
    /// (global row ids of `cols`) a selection kept of them.
    fn pass_through(&self, col: &EncodedTensor, ids: Option<&I64Tensor>) -> EncodedTensor {
        match ids {
            Some(ids) => col.select_rows(ids),
            None => col.slice_rows(self.start, self.start + self.rows),
        }
    }
}

/// Evaluate one expression in selection space (`sel == None` = every
/// row). Node kinds [`vet`] refuses bail here too, so an un-vetted
/// expression can never produce a value.
fn eval<'c>(e: &CompiledExpr, sc: Scope<'c, '_>, sel: Option<&[u32]>) -> KResult<PVal<'c>> {
    let n = sel.map_or(sc.rows, <[u32]>::len);
    Ok(match e {
        CompiledExpr::Column(r) => leaf_pval(r.resolve(sc.cols).or(Err(Bail))?, sc, sel)?,
        CompiledExpr::Num(v) => PVal::Num(*v),
        CompiledExpr::Str(s) => PVal::Str(s.clone()),
        CompiledExpr::Bool(b) => PVal::BoolS(*b),
        CompiledExpr::Param { idx } => match sc.ctx.params.get(*idx) {
            Some(ParamValue::Number(v)) => PVal::Num(*v),
            Some(ParamValue::String(s)) => PVal::Str(s.clone()),
            Some(ParamValue::Bool(b)) => PVal::BoolS(*b),
            Some(ParamValue::Tensor(_) | ParamValue::Null) | None => return Err(Bail),
        },
        CompiledExpr::Binary { op, left, right } => {
            let l = eval(left, sc, sel)?;
            let r = eval(right, sc, sel)?;
            kbinary(*op, l, r, n)?
        }
        CompiledExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => match eval(expr, sc, sel)? {
            PVal::Num(v) => PVal::Num(-v),
            // `decode_f32().neg()` over each encoding's f32 widening.
            PVal::F32(v) => PVal::F32(Cow::Owned(v.iter().map(|&x| -x).collect())),
            PVal::Bool(m) => PVal::F32(Cow::Owned(
                m.into_iter()
                    .map(|b| -(if b { 1.0f32 } else { 0.0 }))
                    .collect(),
            )),
            PVal::Codes(c, _) => PVal::F32(Cow::Owned(c.iter().map(|&x| -(x as f32)).collect())),
            PVal::Str(_) | PVal::BoolS(_) => return Err(Bail), // interpreter: type error
        },
        CompiledExpr::Unary {
            op: UnOp::Not,
            expr,
        } => match eval(expr, sc, sel)? {
            PVal::BoolS(b) => PVal::BoolS(!b),
            PVal::Bool(m) => PVal::Bool(m.into_iter().map(|b| !b).collect()),
            _ => return Err(Bail), // interpreter: type error
        },
        CompiledExpr::Builtin { func, args, .. } => {
            // The interpreter dispatches a shadowing session UDF here.
            if args.len() != func.arity() || sc.ctx.udfs.udf_call(e).is_some() {
                return Err(Bail);
            }
            let vals: Vec<PVal> = args
                .iter()
                .map(|a| eval(a, sc, sel))
                .collect::<KResult<_>>()?;
            let all_scalar = vals.iter().all(|v| matches!(v, PVal::Num(_)));
            match func {
                ScalarFn::Unary(f) => {
                    if all_scalar {
                        let PVal::Num(x) = vals[0] else {
                            unreachable!()
                        };
                        PVal::Num(f(x as f32) as f64)
                    } else {
                        let c = f32s(vals.into_iter().next().unwrap())?;
                        PVal::F32(Cow::Owned(map_f32(&c, n, f)))
                    }
                }
                ScalarFn::Binary(f) => {
                    if all_scalar {
                        let (PVal::Num(a), PVal::Num(b)) = (&vals[0], &vals[1]) else {
                            unreachable!()
                        };
                        PVal::Num(f(*a as f32, *b as f32) as f64)
                    } else {
                        let mut it = vals.into_iter();
                        let a = f32s(it.next().unwrap())?;
                        let b = f32s(it.next().unwrap())?;
                        PVal::F32(Cow::Owned(zip_f32(&a, &b, n, f)))
                    }
                }
                ScalarFn::Vector(_) => return Err(Bail),
            }
        }
        CompiledExpr::Case {
            operand,
            branches,
            else_expr,
        } => {
            let operand_val = operand.as_deref().map(|o| eval(o, sc, sel)).transpose()?;
            let mut out = match else_expr {
                Some(e) => f32_vec(eval(e, sc, sel)?, n)?,
                None => vec![0.0f32; n],
            };
            // Backwards so the first matching WHEN wins, with the
            // interpreter's literal mask blend (NaN-propagating).
            for (when, then) in branches.iter().rev() {
                let cond = match &operand_val {
                    Some(ov) => {
                        let rhs = eval(when, sc, sel)?;
                        mask_vec(kbinary(BinOp::Eq, ov.clone(), rhs, n)?, n)?
                    }
                    None => mask_vec(eval(when, sc, sel)?, n)?,
                };
                let then_col = f32_vec(eval(then, sc, sel)?, n)?;
                for i in 0..n {
                    let cf = if cond[i] { 1.0f32 } else { 0.0 };
                    out[i] = cf * then_col[i] + ((-cf) + 1.0) * out[i];
                }
            }
            PVal::F32(Cow::Owned(out))
        }
        CompiledExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, sc, sel)?;
            let mut acc: Option<Vec<bool>> = None;
            for item in list {
                let rhs = eval(item, sc, sel)?;
                let eq = mask_vec(kbinary(BinOp::Eq, v.clone(), rhs, n)?, n)?;
                acc = Some(match acc {
                    Some(m) => m.iter().zip(&eq).map(|(&a, &b)| a || b).collect(),
                    None => eq,
                });
            }
            let m = acc.ok_or(Bail)?; // an empty list is the interpreter's
            PVal::Bool(if *negated {
                m.into_iter().map(|b| !b).collect()
            } else {
                m
            })
        }
        CompiledExpr::Like {
            expr,
            pattern,
            negated,
        } => match eval(expr, sc, sel)? {
            PVal::Codes(codes, dict) => {
                // Pattern per dictionary entry, broadcast through codes.
                let verdicts: Vec<bool> = dict
                    .values()
                    .iter()
                    .map(|v| like_match(pattern, v))
                    .collect();
                PVal::Bool(
                    codes
                        .iter()
                        .map(|&c| verdicts[c as usize] != *negated)
                        .collect(),
                )
            }
            PVal::Str(s) => PVal::Bool(vec![like_match(pattern, &s) != *negated; n]),
            _ => return Err(Bail), // interpreter: type error
        },
        CompiledExpr::Udf { .. } | CompiledExpr::ScalarSubquery(_) => return Err(Bail),
    })
}

/// Survivor-density divisor: a selection keeping more than
/// `rows / DENSE_DIVISOR` rows is *dense* and stays a boolean mask —
/// the next conjunct is evaluated over all rows (contiguous loops,
/// branchless mask intersection) because per-element index gathers
/// only pay off once few rows survive. Every kernel op is elementwise,
/// so surviving rows compute identical values either way — this is a
/// cost choice, not a semantic one.
const DENSE_DIVISOR: usize = 2;

/// Branch-free index compaction: keep `i` where its flag is set. The
/// unconditional write + conditional cursor advance avoids the
/// per-element branch a `filter` would cost — on random masks (the
/// common case for real predicates) mispredicted branches dominate the
/// compaction loop otherwise.
fn compact<T: Copy + Default>(it: impl Iterator<Item = (T, bool)>, cap: usize) -> Vec<T> {
    let mut out = vec![T::default(); cap + 1];
    let mut j = 0usize;
    for (i, keep) in it {
        out[j] = i;
        j += keep as usize;
    }
    out.truncate(j);
    out
}

/// Hybrid selection vector. Dense selections are boolean masks
/// (intersected branchlessly, gathered directly); sparse ones are
/// sorted index vectors so later predicates and projections touch only
/// survivors. [`filter_sel`] demotes a mask to indices the first time
/// its survivor count drops below `rows / DENSE_DIVISOR`.
///
/// It is also what the selection exit hands on, per window: an aggregate
/// task folds under it, other barriers take its global row ids.
pub(crate) enum SelVec {
    /// Mask over all `rows` rows, plus its survivor count.
    Mask(Vec<bool>, usize),
    /// Sorted surviving row indices.
    Idx(Vec<u32>),
}

impl SelVec {
    pub(crate) fn len(&self) -> usize {
        match self {
            SelVec::Mask(_, n) => *n,
            SelVec::Idx(s) => s.len(),
        }
    }

    pub(crate) fn is_sparse(&self, rows: usize) -> bool {
        self.len() * DENSE_DIVISOR <= rows
    }

    /// Counts survivors but keeps the mask representation: conversion
    /// to indices is deferred to the first consumer that profits from
    /// it (a later sparse conjunct, or a computed projection) — a
    /// single-filter chain gathers straight through the mask.
    pub(crate) fn from_mask(m: Vec<bool>) -> SelVec {
        let n = m.iter().map(|&b| b as usize).sum();
        SelVec::Mask(m, n)
    }

    pub(crate) fn into_idx(self) -> Vec<u32> {
        match self {
            SelVec::Idx(s) => s,
            SelVec::Mask(m, n) => compact((0u32..).zip(m.iter().copied()), n),
        }
    }

    /// The surviving rows as ascending row ids, `start` being the id of
    /// the selection's row 0 — what the positional reads
    /// ([`EncodedTensor::select_rows`]) consume.
    pub(crate) fn ids(&self, start: usize) -> I64Tensor {
        let ids = match self {
            SelVec::Idx(s) => s.iter().map(|&i| (start + i as usize) as i64).collect(),
            SelVec::Mask(m, n) => compact((start as i64..).zip(m.iter().copied()), *n),
        };
        let n = ids.len();
        Tensor::from_vec(ids, &[n])
    }
}

/// Refine a selection through one predicate. Top-level ANDs evaluate
/// the right conjunct only on rows surviving the left; dense
/// selections evaluate full-width and intersect masks (see
/// [`DENSE_DIVISOR`]), sparse ones evaluate in selection space.
fn filter_sel(pred: &CompiledExpr, sc: Scope<'_, '_>, sel: Option<SelVec>) -> KResult<SelVec> {
    if let CompiledExpr::Binary {
        op: BinOp::And,
        left,
        right,
    } = pred
    {
        let s = filter_sel(left, sc, sel)?;
        return filter_sel(right, sc, Some(s));
    }
    let rows = sc.rows;
    // Sparse: gather leaves under the selection, evaluate survivors only.
    if let Some(sv) = &sel {
        if sv.is_sparse(rows) {
            let s = sel.unwrap().into_idx();
            let v = eval(pred, sc, Some(&s))?;
            return Ok(SelVec::Idx(match v {
                PVal::Bool(m) => compact(s.iter().copied().zip(m.iter().copied()), s.len()),
                PVal::BoolS(true) => s,
                PVal::BoolS(false) => Vec::new(),
                _ => return Err(Bail), // interpreter: "not a boolean mask"
            }));
        }
    }
    // Dense or unfiltered: full-width evaluation, branchless intersect.
    let v = eval(pred, sc, None)?;
    Ok(match (v, sel) {
        (PVal::Bool(m), None) => SelVec::from_mask(m),
        (PVal::Bool(m2), Some(SelVec::Mask(mut m, _))) => {
            m.iter_mut().zip(&m2).for_each(|(a, &b)| *a &= b);
            SelVec::from_mask(m)
        }
        (PVal::Bool(m2), Some(SelVec::Idx(s))) => {
            SelVec::Idx(compact(s.iter().map(|&i| (i, m2[i as usize])), s.len()))
        }
        (PVal::BoolS(true), None) => SelVec::Mask(vec![true; rows], rows),
        (PVal::BoolS(true), Some(sv)) => sv,
        (PVal::BoolS(false), _) => SelVec::Idx(Vec::new()),
        _ => return Err(Bail), // interpreter: "not a boolean mask"
    })
}

impl ChainInstance<'_> {
    /// Run the chain over rows `start..end` of a stage's input columns —
    /// one morsel of the **gather exit**, on whichever worker claimed it
    /// (an input that fits one morsel is the window `0..rows`, on the
    /// session thread). `$n` leaves and function shadowing are evaluated
    /// against `ctx`, the context the interpreter would run the window
    /// with. `None` = run-time bail-out: the caller re-runs the window on
    /// the interpreter, which reproduces the exact result — or the exact
    /// error.
    pub(crate) fn run_window(
        &self,
        cols: &Batch,
        start: usize,
        end: usize,
        ctx: &ExecContext,
    ) -> Option<Batch> {
        self.counted(self.try_run(cols, (start, end - start), ctx))
    }

    /// One fallback count per execution, however many morsels bail.
    fn counted<T>(&self, out: KResult<T>) -> Option<T> {
        if out.is_err() && !self.fallback_noted.swap(true, Ordering::Relaxed) {
            self.access.note_kernel_fallback();
        }
        out.ok()
    }

    fn try_run(&self, src: &Batch, mut win: Window, ctx: &ExecContext) -> KResult<Batch> {
        let mut cols = Cow::Borrowed(src);
        let mut sel: Option<SelVec> = None; // None = unfiltered
        for op in self.ops {
            let sc = Scope::over(&cols, win, ctx)?;
            match op {
                MorselOp::Filter(pred) => sel = Some(filter_sel(pred, sc, sel)?),
                MorselOp::Project(items) => {
                    // What a projection materializes is a whole batch of
                    // its own, in selection space.
                    let next = materialize(items, sc, sel.as_ref())?;
                    let rows = sel.take().map_or(sc.rows, |sv| sv.len());
                    (win, cols) = ((0, rows), Cow::Owned(next));
                }
            }
        }
        // The single gather the selection vector deferred.
        let sc = Scope::over(&cols, win, ctx)?;
        let ids = sel.map(|sv| sv.ids(sc.start));
        let pass = |(n, c): &(String, EncodedTensor)| (n.clone(), sc.pass_through(c, ids.as_ref()));
        Ok(cols.columns().iter().map(pass).collect())
    }

    /// Evaluate the chain's filters over rows `start..end` of a stage's
    /// input columns — one morsel of the **selection exit**: survivors
    /// come back as a `SelVec` local to the window (row 0 = `start`).
    /// `None` = bail-out; the caller declines the whole hand-off.
    pub(crate) fn select_window(
        &self,
        cols: &Batch,
        start: usize,
        end: usize,
        ctx: &ExecContext,
    ) -> Option<SelVec> {
        self.counted(self.try_select(cols, (start, end - start), ctx))
    }

    fn try_select(&self, src: &Batch, win: Window, ctx: &ExecContext) -> KResult<SelVec> {
        let (_, rows) = win;
        let mut cols = Cow::Borrowed(src);
        let mut sel: Option<SelVec> = None;
        for op in self.ops {
            match op {
                MorselOp::Filter(pred) => {
                    sel = Some(filter_sel(pred, Scope::over(&cols, win, ctx)?, sel)?)
                }
                // Selection-capable chains only remap columns here; the
                // row space — and with it the window and the selection —
                // carries through.
                MorselOp::Project(items) => cols = Cow::Owned(remap(items, &cols)?),
            }
        }
        Ok(sel.unwrap_or_else(|| SelVec::Mask(vec![true; rows], rows)))
    }

    /// The selection exit's output columns: the input's own stored
    /// columns, renamed and reordered by the chain's projections.
    /// Resolved once per stage. `None` = bail-out.
    pub(crate) fn selection_cols(&self, src: &Batch) -> Option<Batch> {
        let out = self.ops.iter().try_fold(src.clone(), |cols, op| match op {
            MorselOp::Filter(_) => Ok(cols),
            MorselOp::Project(items) => remap(items, &cols),
        });
        self.counted(out)
    }
}

/// A pure column-remap projection over stored columns (Arc bumps);
/// anything computed bails.
fn remap(items: &[PhysProjectItem], cols: &Batch) -> KResult<Batch> {
    items
        .iter()
        .map(|it| match &it.expr {
            CompiledExpr::Column(r) => {
                Ok((it.name.clone(), r.resolve(cols).or(Err(Bail))?.clone()))
            }
            _ => Err(Bail),
        })
        .collect()
}

/// Materialize one projection under the current selection, mirroring
/// `exact::project_batch` over the gathered batch: passthrough columns
/// gather encoding-preserving, scalars broadcast, computed expressions
/// pack into plain columns.
fn materialize(
    items: &[PhysProjectItem],
    sc: Scope<'_, '_>,
    sel: Option<&SelVec>,
) -> KResult<Batch> {
    let n = sel.map_or(sc.rows, SelVec::len);
    // Passthrough columns gather at the survivors' global row ids;
    // computed expressions evaluate in the window's index space. Build
    // each view only if an item needs it.
    let ids = items
        .iter()
        .any(|it| matches!(it.expr, CompiledExpr::Column(_)))
        .then(|| sel.map(|sv| sv.ids(sc.start)))
        .flatten();
    let idx: Option<Cow<'_, [u32]>> = if items.iter().any(|it| {
        !matches!(
            it.expr,
            CompiledExpr::Column(_)
                | CompiledExpr::Num(_)
                | CompiledExpr::Bool(_)
                | CompiledExpr::Str(_)
                | CompiledExpr::Param { .. }
        )
    }) {
        sel.map(|sv| match sv {
            SelVec::Idx(s) => Cow::Borrowed(s.as_slice()),
            SelVec::Mask(m, n) => Cow::Owned(compact((0u32..).zip(m.iter().copied()), *n)),
        })
    } else {
        None
    };
    let mut out = Batch::new();
    for it in items {
        let col = match &it.expr {
            CompiledExpr::Column(r) => {
                sc.pass_through(r.resolve(sc.cols).or(Err(Bail))?, ids.as_ref())
            }
            computed => pack(eval(computed, sc, idx.as_deref())?, n),
        };
        out.push(it.name.clone(), col);
    }
    Ok(out)
}

/// A value evaluated over `n` positions as a column of its own, as the
/// interpreter's projection packs it: row-constant leaves (literals,
/// `$n`) broadcast, everything else packs what it computed.
fn pack(v: PVal<'_>, n: usize) -> EncodedTensor {
    match v {
        PVal::F32(v) => EncodedTensor::F32(Tensor::from_vec(v.into_owned(), &[n])),
        PVal::Bool(v) => EncodedTensor::Bool(Tensor::from_vec(v, &[n])),
        PVal::Codes(c, dict) => EncodedTensor::Dict {
            codes: Tensor::from_vec(c.into_owned(), &[n]),
            dict,
        },
        PVal::Num(v) => EncodedTensor::F32(Tensor::full(&[n], v as f32)),
        PVal::BoolS(b) => EncodedTensor::Bool(Tensor::full(&[n], b)),
        PVal::Str(s) => EncodedTensor::from_strings(&vec![s; n]),
    }
}

// ----------------------------------------------------------------------
// The aggregate fold's reads
// ----------------------------------------------------------------------

/// One aggregate argument as the fold reads it, evaluated over a window
/// by [`ChainInstance::arg_window`].
pub(crate) struct AggArg<'c> {
    /// A boolean column's flags, when COUNT reads the argument (COUNT
    /// counts their trues, and the rows of anything else).
    pub(crate) flags: Option<Vec<bool>>,
    /// The f32 values, when a numeric aggregate reads the argument — a
    /// plain f32 column's window borrowed where it is stored.
    pub(crate) vals: Option<Cow<'c, [f32]>>,
}

impl<'a> ChainInstance<'a> {
    /// The kernel of the empty chain: what an aggregate over a bare scan
    /// evaluates its keys and arguments with. There is nothing to vet
    /// and no bind to count; its bail-outs count like any chain's.
    pub(crate) fn empty(ctx: &'a ExecContext) -> ChainInstance<'a> {
        ChainInstance {
            ops: &[],
            access: &ctx.access,
            fallback_noted: AtomicBool::new(false),
        }
    }

    /// Evaluate a GROUP BY key over rows `start..end` of `cols` — every
    /// row, or the window positions `sel` — with the evaluator
    /// [`Self::run_window`]'s projections use, packed as a projection
    /// packs it. `None` = bail-out, counted like the chain's: a row
    /// constant (the interpreter refuses it as a key) or anything the
    /// evaluator refuses.
    pub(crate) fn key_window(
        &self,
        e: &CompiledExpr,
        cols: &Batch,
        (start, end): (usize, usize),
        sel: Option<&[u32]>,
        ctx: &ExecContext,
    ) -> Option<EncodedTensor> {
        let key = Scope::over(cols, (start, end - start), ctx).and_then(|sc| {
            let n = sel.map_or(sc.rows, <[u32]>::len);
            match eval(e, sc, sel)? {
                PVal::Num(_) | PVal::Str(_) | PVal::BoolS(_) => Err(Bail),
                v => Ok(pack(v, n)),
            }
        });
        self.counted(key)
    }

    /// Evaluate an aggregate argument over rows `start..end` of `cols`
    /// — every row, or the window positions `sel` — in the forms its
    /// accumulators read: COUNT's flags when `count`, f32 values when
    /// `numeric` (`Value::into_agg_f32`'s reads). `None` = bail-out,
    /// counted like the chain's: a string column or literal read as
    /// numbers (the interpreter refuses it), a payload leaf, or anything
    /// the evaluator refuses.
    pub(crate) fn arg_window<'c>(
        &self,
        e: &CompiledExpr,
        cols: &'c Batch,
        (start, end): (usize, usize),
        sel: Option<&[u32]>,
        (count, numeric): (bool, bool),
        ctx: &ExecContext,
    ) -> Option<AggArg<'c>> {
        let arg = Scope::over(cols, (start, end - start), ctx).and_then(|sc| {
            let n = sel.map_or(sc.rows, <[u32]>::len);
            let (flags, v) = match eval(e, sc, sel)? {
                PVal::Bool(m) if count && !numeric => (Some(m), None),
                PVal::Bool(m) if count => (Some(m.clone()), Some(PVal::Bool(m))),
                v => (None, numeric.then_some(v)),
            };
            let vals = match v {
                None => None,
                Some(PVal::Codes(..) | PVal::Str(_)) => return Err(Bail),
                Some(PVal::F32(v)) => Some(v),
                Some(v) => Some(Cow::Owned(f32_vec(v, n)?)),
            };
            Ok(AggArg { flags, vals })
        });
        self.counted(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::ColumnRef;
    use crate::udf::UdfRegistry;
    use tdp_storage::Catalog;

    fn col(slot: usize, name: &str) -> CompiledExpr {
        CompiledExpr::Column(ColumnRef::Slot {
            slot,
            name: name.into(),
        })
    }

    fn gt(left: CompiledExpr, right: CompiledExpr) -> CompiledExpr {
        CompiledExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    #[test]
    fn vet_names_its_refusals() {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let refusal =
            |pred: &CompiledExpr| vet(&[MorselOp::Filter(pred)], &ctx).map(|r| r.to_string());

        let udf_pred = CompiledExpr::Udf {
            name: "f".into(),
            args: vec![col(0, "v")],
        };
        assert_eq!(refusal(&udf_pred).unwrap(), "udf(f)");

        let empty_in = CompiledExpr::InList {
            expr: Box::new(col(0, "v")),
            list: vec![],
            negated: false,
        };
        assert_eq!(refusal(&empty_in).unwrap(), "empty-in-list");

        let bad_arity = CompiledExpr::Builtin {
            name: "sqrt".into(),
            func: ScalarFn::Unary(f32::sqrt),
            args: vec![col(0, "v"), col(0, "v")],
        };
        assert_eq!(refusal(&bad_arity).unwrap(), "builtin-arity(sqrt)");

        // The first refusal in pre-order names the chain.
        let both = gt(bad_arity, empty_in);
        assert_eq!(refusal(&both).unwrap(), "builtin-arity(sqrt)");
        assert_eq!(refusal(&gt(col(0, "v"), CompiledExpr::Num(1.0))), None);
    }

    #[test]
    fn binding_refuses_non_scalar_bindings() {
        let pred = gt(col(0, "v"), CompiledExpr::Param { idx: 0 });
        let ops = [MorselOp::Filter(&pred)];
        let check = |params: ParamValues, want: &str| {
            assert_eq!(unbound_param(&ops, &params).unwrap().to_string(), want);
        };
        check(ParamValues::new(), "unbound-param($1)");
        check(ParamValues::new().null(), "null-param($1)");
        check(
            ParamValues::new().tensor(Tensor::<f32>::zeros(&[1])),
            "tensor-param($1)",
        );
        assert_eq!(unbound_param(&ops, &ParamValues::new().number(2.0)), None);

        // `bind` is where an execution meets the check: the refusal is
        // counted as a fallback, not a bind.
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs)
            .with_params(ParamValues::new().null())
            .with_chain_kernels(true);
        assert_eq!(
            bind(&ops, &ctx, Ok(())).err().unwrap().to_string(),
            "null-param($1)"
        );
        let s = ctx.access.snapshot();
        assert_eq!((s.kernel_binds, s.kernel_fallbacks), (0, 1));
    }

    /// One rule for every window: a run of filters collapses into one
    /// gather, over plain and bit-packed columns alike (a bit-packed
    /// pass-through is read as plain `i64`), whether the window is the
    /// whole input or a morsel of it — gather exit and selection exit.
    /// What the kernel cannot evaluate bails, counted once per instance.
    #[test]
    fn selection_vector_run_gathers_once_and_counts_runtime_bails() {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs).with_chain_kernels(true);
        let p1 = gt(col(0, "v"), CompiledExpr::Num(1.0));
        let p2 = gt(col(1, "k"), CompiledExpr::Num(0.0));
        let ops = [MorselOp::Filter(&p1), MorselOp::Filter(&p2)];
        let inst = bind(&ops, &ctx, Ok(())).expect("compiles");

        let v = EncodedTensor::from_f32_slice(&[9.0, 0.5, 1.5, 2.5, 0.0, 3.5, 4.5, 9.0]);
        let ks = Tensor::from_vec(vec![1i64, 1, 0, 1, 1, 0, 1, 1], &[8]);
        let batch = |cols: Vec<(&str, EncodedTensor)>| -> Batch {
            cols.into_iter().map(|(n, c)| (n.to_string(), c)).collect()
        };
        let plain = batch(vec![
            ("v", v.clone()),
            ("k", EncodedTensor::I64(ks.clone())),
        ]);
        let packed = batch(vec![
            ("v", v.clone()),
            (
                "k",
                EncodedTensor::BitPacked(tdp_encoding::BitPackedColumn::encode(&ks)),
            ),
        ]);
        for cols in [&plain, &packed] {
            // The whole input as one window: `v > 1` drops rows 1 and 4,
            // `k > 0` rows 2 and 5.
            let out = inst.run_window(cols, 0, 8, &ctx).expect("no bail");
            let out = out.columns();
            assert_eq!(out[0].1.decode_f32().to_vec(), vec![9.0, 2.5, 4.5, 9.0]);
            assert_eq!(out[1].1.kind(), tdp_encoding::EncodingKind::PlainI64);
            assert_eq!(out[1].1.decode_i64().to_vec(), vec![1; 4]);
            // Rows 1..7 yield that window's survivors only.
            let out = inst.run_window(cols, 1, 7, &ctx).expect("no bail");
            let out = out.columns();
            assert_eq!(out[0].1.decode_f32().to_vec(), vec![2.5, 4.5]);
            assert_eq!(out[1].1.kind(), tdp_encoding::EncodingKind::PlainI64);
            assert_eq!(out[1].1.decode_i64().to_vec(), vec![1, 1]);
            let sel = inst.select_window(cols, 1, 7, &ctx).expect("no bail");
            assert_eq!(
                sel.ids(1).to_vec(),
                vec![3, 6],
                "window-local, offset by its start"
            );
        }
        let s = ctx.access.snapshot();
        assert_eq!((s.kernel_binds, s.kernel_fallbacks), (1, 0));

        // A column the chain names is missing: the bail is counted once
        // per instance however often it recurs.
        let only_v = batch(vec![("v", v)]);
        assert!(inst.run_window(&only_v, 0, 8, &ctx).is_none());
        assert!(inst.run_window(&only_v, 0, 8, &ctx).is_none());
        assert_eq!(ctx.access.snapshot().kernel_fallbacks, 1);
    }

    /// The evaluator refuses every node kind [`vet`] refuses: a chain that
    /// reaches it un-vetted — here an instance built without [`bind`] —
    /// bails to the interpreter, counted once, and never yields a value.
    /// A UDF call, and a built-in the session has since shadowed.
    #[test]
    fn evaluator_refuses_what_vet_refuses() {
        struct Shadow;
        impl crate::udf::ScalarUdf for Shadow {
            fn name(&self) -> &str {
                "sqrt"
            }
            fn invoke(
                &self,
                args: &[crate::udf::ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, crate::error::ExecError> {
                Ok(args[0].as_column()?.clone())
            }
        }
        let catalog = Catalog::new();
        let mut shadowing = UdfRegistry::new();
        shadowing.register_scalar_parallel(Arc::new(Shadow));
        let ctx = ExecContext::new(&catalog, &shadowing).with_chain_kernels(true);
        let mut cols = Batch::new();
        cols.push("v", EncodedTensor::from_f32_slice(&[0.5, 1.5, 2.5, 3.5]));
        let udf_pred = gt(
            CompiledExpr::Udf {
                name: "f".into(),
                args: vec![col(0, "v")],
            },
            CompiledExpr::Num(1.0),
        );
        let sqrt_pred = gt(
            CompiledExpr::Builtin {
                name: "sqrt".into(),
                func: ScalarFn::Unary(f32::sqrt),
                args: vec![col(0, "v")],
            },
            CompiledExpr::Num(1.0),
        );
        for (pred, refusal) in [(&udf_pred, "udf(f)"), (&sqrt_pred, "udf(sqrt)")] {
            let ops = [MorselOp::Filter(pred)];
            assert_eq!(
                vet(&ops, &ctx).map(|r| r.to_string()).as_deref(),
                Some(refusal)
            );
            let before = ctx.access.snapshot().kernel_fallbacks;
            let inst = ChainInstance {
                ops: &ops,
                access: &ctx.access,
                fallback_noted: AtomicBool::new(false),
            };
            assert!(inst.run_window(&cols, 0, 4, &ctx).is_none());
            assert!(inst.select_window(&cols, 0, 4, &ctx).is_none());
            assert_eq!(ctx.access.snapshot().kernel_fallbacks, before + 1);
        }
    }

    /// Every named reason a chain can be kept off the kernel (or off the
    /// worker pool) for, as the three surfaces render it: EXPLAIN's
    /// `[sequential: …]` / `[compiled ×N ops]` / `[interpreted: …]`, the
    /// per-execution resolution the recorder copies into
    /// `OpTrace::strategy` / `OpTrace::fallback`, and — where the shape
    /// can run — `QueryProfile::fallback_reasons()`. Includes which
    /// reason wins when two apply.
    #[test]
    fn verdict_strings_are_api() {
        use crate::morsel::ChainRun;
        use crate::physical::{lower, PhysicalPlan};
        use crate::pipeline::{decompose, explain_ctx, PipeNode};
        use crate::profile::chain_trace;
        use crate::udf::{ArgType, ArgValue, FunctionSpec, ScalarUdf};
        use tdp_sql::plan::{build_plan, PlannerContext};
        use tdp_sql::{optimizer, parse};

        /// `name(x) := 2x`, parallel-safe or session-bound.
        struct Double(&'static str, bool);
        impl ScalarUdf for Double {
            fn name(&self) -> &str {
                self.0
            }
            fn spec(&self) -> FunctionSpec {
                FunctionSpec::scalar(self.0, vec![ArgType::Column]).parallel_safe(self.1)
            }
            fn invoke(
                &self,
                args: &[ArgValue],
                _ctx: &ExecContext,
            ) -> Result<EncodedTensor, crate::error::ExecError> {
                Ok(EncodedTensor::F32(
                    args[0].as_column()?.decode_f32().mul_scalar(2.0),
                ))
            }
        }

        const ROWS: usize = 40;
        let catalog = Catalog::new();
        catalog.register(
            tdp_storage::TableBuilder::new()
                .col_f32("v", (0..ROWS).map(|i| i as f32 * 0.25).collect())
                .col_i64("k", (0..ROWS).map(|i| (i % 3) as i64).collect())
                .build("t"),
        );
        let mut udfs = UdfRegistry::new();
        udfs.register_scalar_parallel(Arc::new(Double("ps", true)));
        udfs.register_scalar(Arc::new(Double("sb", false)));
        let mut shadowing = UdfRegistry::new();
        shadowing.register_scalar_parallel(Arc::new(Double("sqrt", true)));

        let sql_plan = |sql: &str, reg: &UdfRegistry| {
            let plan = optimizer::optimize(
                build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
            );
            lower(&plan, &catalog, reg).unwrap()
        };
        // `SELECT v FROM t WHERE <pred>` around a hand-built predicate.
        let pred_plan = |pred: CompiledExpr| {
            fn swap(plan: &mut PhysicalPlan, pred: &CompiledExpr) {
                match plan {
                    PhysicalPlan::Filter { predicate, .. } => *predicate = pred.clone(),
                    PhysicalPlan::Project { input, .. } => swap(input, pred),
                    other => panic!("unexpected plan shape: {other:?}"),
                }
            }
            let mut plan = sql_plan("SELECT v FROM t WHERE v > 1", &udfs);
            swap(&mut plan, &pred);
            plan
        };
        let call = |name: &str| CompiledExpr::Udf {
            name: name.into(),
            args: vec![col(0, "v")],
        };
        let sqrt = |args: Vec<CompiledExpr>| CompiledExpr::Builtin {
            name: "sqrt".into(),
            func: ScalarFn::Unary(f32::sqrt),
            args,
        };
        let one = || CompiledExpr::Num(1.0);
        let empty_in = CompiledExpr::InList {
            expr: Box::new(col(0, "v")),
            list: vec![],
            negated: false,
        };
        let distance = CompiledExpr::Builtin {
            name: "distance".into(),
            func: ScalarFn::Vector(tdp_index::Metric::L2),
            args: vec![col(0, "v"), col(0, "v")],
        };
        let param = gt(col(0, "v"), CompiledExpr::Param { idx: 0 });
        let tensor = ParamValues::new().tensor(Tensor::<f32>::zeros(&[ROWS]));

        struct Case<'r> {
            plan: PhysicalPlan,
            reg: &'r UdfRegistry,
            params: ParamValues,
            kernels: bool,
            /// Expected in EXPLAIN's pipeline section.
            explain: &'static str,
            /// `OpTrace::strategy` of the chain's stage.
            strategy: &'static str,
            /// `OpTrace::fallback` of the chain's stage.
            fallback: Option<&'static str>,
            /// Whether the shape executes (hand-built refusals mostly
            /// have no interpreter form either).
            runs: bool,
            /// Where a row pins it: why a barrier above this chain would
            /// gather (`ChainRun::selection_kernel`).
            barrier: Option<&'static str>,
        }
        let case = |plan, explain, strategy, fallback, runs| Case {
            plan,
            reg: &udfs,
            params: ParamValues::new(),
            kernels: true,
            explain,
            strategy,
            fallback,
            runs,
            barrier: None,
        };
        let cases = vec![
            case(
                pred_plan(gt(col(0, "v"), one())),
                "[compiled ×2 ops]",
                "compiled",
                None,
                true,
            ),
            // Vet-time refusals.
            case(
                pred_plan(gt(call("ps"), one())),
                "[interpreted: udf(ps)]",
                "interpreted: udf(ps)",
                None,
                true,
            ),
            Case {
                reg: &shadowing,
                ..case(
                    pred_plan(gt(sqrt(vec![col(0, "v")]), one())),
                    "[interpreted: udf(sqrt)]",
                    "interpreted: udf(sqrt)",
                    None,
                    true,
                )
            },
            case(
                pred_plan(empty_in.clone()),
                "[interpreted: empty-in-list]",
                "interpreted: empty-in-list",
                None,
                false,
            ),
            case(
                pred_plan(gt(sqrt(vec![col(0, "v"), one()]), one())),
                "[interpreted: builtin-arity(sqrt)]",
                "interpreted: builtin-arity(sqrt)",
                None,
                false,
            ),
            case(
                pred_plan(gt(distance, one())),
                "[interpreted: vector-builtin(distance)]",
                "interpreted: vector-builtin(distance)",
                None,
                false,
            ),
            // Two vet-time refusals: the first in pre-order wins.
            case(
                pred_plan(CompiledExpr::Binary {
                    op: BinOp::Or,
                    left: Box::new(empty_in),
                    right: Box::new(gt(call("ps"), one())),
                }),
                "[interpreted: empty-in-list]",
                "interpreted: empty-in-list",
                None,
                false,
            ),
            // Parallelism declines win over every kernel verdict —
            // `udf(sb)`, `scalar-subquery` and `tensor-param($1)` would
            // each refuse the kernel too.
            case(
                pred_plan(gt(call("sb"), one())),
                "[sequential: udf-not-parallel-safe(sb)]\n",
                "interpreted: udf-not-parallel-safe(sb)",
                Some("udf-not-parallel-safe(sb)"),
                true,
            ),
            case(
                sql_plan("SELECT v FROM t WHERE v > (SELECT AVG(v) FROM t)", &udfs),
                "[sequential: scalar-subquery]\n",
                "interpreted: scalar-subquery",
                Some("scalar-subquery"),
                true,
            ),
            Case {
                params: tensor,
                ..case(
                    pred_plan(param.clone()),
                    "[sequential: tensor-param($1)]\n",
                    "interpreted: tensor-param($1)",
                    Some("tensor-param($1)"),
                    false,
                )
            },
            case(
                sql_plan("SELECT COUNT(DISTINCT k) FROM t WHERE v > 1", &udfs),
                "[sequential: count-distinct]\n",
                "interpreted: count-distinct",
                Some("count-distinct"),
                true,
            ),
            // Bind-time refusals: EXPLAIN's verdict is binding-free, the
            // run's is not — its chain note names the slot, a barrier
            // above it says `kernel-compile` as it always has.
            Case {
                params: ParamValues::new().null(),
                barrier: Some("kernel-compile"),
                ..case(
                    pred_plan(param.clone()),
                    "[compiled ×2 ops]",
                    "interpreted: null-param($1)",
                    None,
                    false,
                )
            },
            Case {
                barrier: Some("kernel-compile"),
                ..case(
                    pred_plan(param),
                    "[compiled ×2 ops]",
                    "interpreted: unbound-param($1)",
                    None,
                    false,
                )
            },
            // The session switch names itself, below a pinning reason.
            Case {
                kernels: false,
                ..case(
                    pred_plan(gt(col(0, "v"), one())),
                    "[interpreted: chain-kernels-disabled]",
                    "interpreted: chain-kernels-disabled",
                    None,
                    true,
                )
            },
            Case {
                kernels: false,
                ..case(
                    pred_plan(gt(call("sb"), one())),
                    "[sequential: udf-not-parallel-safe(sb)]\n",
                    "interpreted: udf-not-parallel-safe(sb)",
                    Some("udf-not-parallel-safe(sb)"),
                    true,
                )
            },
        ];

        for c in &cases {
            let ctx = ExecContext::new(&catalog, c.reg)
                .with_scheduler(4, 8)
                .with_params(c.params.clone())
                .with_chain_kernels(c.kernels);
            let text = explain_ctx(&c.plan, &ctx);
            assert!(text.contains(c.explain), "want {} in:\n{text}", c.explain);

            let node = decompose(&c.plan);
            let (pipe, sink) = match &node {
                PipeNode::Stream(pipe) => (pipe, None),
                PipeNode::Aggregate {
                    keys,
                    aggregates,
                    pipe,
                } => (pipe, Some((*keys, *aggregates))),
                other => panic!("expected a chain at the root: {other:?}"),
            };
            let input = crate::exact::scan_table("t", None, &ctx).unwrap();
            let chain = ChainRun::resolve(&input, &pipe.ops, sink, &ctx);
            let (strategy, fallback) = chain_trace(&chain);
            assert_eq!(strategy.as_deref(), Some(c.strategy), "{text}");
            assert_eq!(fallback.as_deref(), c.fallback, "{text}");
            if let Some(barrier) = c.barrier {
                let declined = chain.selection_kernel(&input, &ctx).err();
                assert_eq!(
                    declined.map(|r| r.to_string()).as_deref(),
                    Some(barrier),
                    "{text}"
                );
            }

            if c.runs {
                let (_, prof) = crate::profile::execute_profiled(&c.plan, &ctx).unwrap();
                assert_eq!(prof.ops[0].strategy.as_deref(), Some(c.strategy), "{text}");
                assert_eq!(
                    prof.fallback_reasons(),
                    c.fallback.into_iter().collect::<Vec<_>>(),
                    "{text}"
                );
            }
        }

        // Barrier feeding: the same verdicts, as `[barrier: …]` notes on
        // both surfaces.
        for (sql, kernels, explain, profile) in [
            (
                "SELECT v FROM t WHERE v > 1 ORDER BY v DESC",
                true,
                "[barrier: selection-fed]",
                "[barrier: selection-fed (",
            ),
            (
                "SELECT v * 2 AS d FROM t WHERE v > 1 ORDER BY d",
                true,
                "[barrier: gathered: computed-projection]",
                "[barrier: gathered: computed-projection]",
            ),
            (
                "SELECT v FROM t WHERE v > 1 ORDER BY v DESC",
                false,
                "[barrier: gathered: chain-kernels-disabled]",
                "[barrier: gathered: chain-kernels-disabled]",
            ),
        ] {
            let plan = sql_plan(sql, &udfs);
            let ctx = ExecContext::new(&catalog, &udfs)
                .with_scheduler(4, 8)
                .with_chain_kernels(kernels);
            let text = explain_ctx(&plan, &ctx);
            assert!(text.contains(explain), "want {explain} in:\n{text}");
            let (_, prof) = crate::profile::execute_profiled(&plan, &ctx).unwrap();
            let pretty = prof.pretty();
            assert!(pretty.contains(profile), "want {profile} in:\n{pretty}");
        }

        // Barrier staging, on the same surfaces: EXPLAIN's note on the
        // barrier line, and the barrier trace's `strategy` / `fallback`.
        // At morsel rows 8 `t` spans five morsels, while `v < 1` keeps four
        // rows and `d JOIN e` reads three; a session-bound sort key pins at any thread count.
        catalog.register(
            tdp_storage::TableBuilder::new()
                .col_i64("k", vec![0, 1, 2])
                .col_f32("w", vec![1.0, 2.0, 3.0])
                .build("d"),
        );
        catalog.register(
            tdp_storage::TableBuilder::new()
                .col_i64("k", vec![1, 2])
                .build("e"),
        );
        let check = |kind: &str, sql: &str, threads, note: &str, strategy, fallback| {
            let plan = sql_plan(sql, &udfs);
            let ctx = ExecContext::new(&catalog, &udfs)
                .with_scheduler(threads, 8)
                .with_chain_kernels(true);
            let text = explain_ctx(&plan, &ctx);
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("barrier {kind}")))
                .unwrap_or_else(|| panic!("no {kind} barrier in:\n{text}"));
            assert!(
                line.contains(note),
                "{sql} @ {threads}: want {note} in:\n{text}"
            );
            let (_, prof) = crate::profile::execute_profiled(&plan, &ctx).unwrap();
            let op = prof.ops.iter().find(|o| o.label.starts_with(kind)).unwrap();
            assert_eq!(
                (op.strategy.as_deref(), op.fallback.as_deref()),
                (strategy, fallback),
                "{sql} @ {threads}:\n{}",
                prof.pretty()
            );
        };
        let one = "[sequential: threads=1]";
        for (kind, many, single, note, strategy) in [
            (
                "Sort",
                "SELECT v FROM t ORDER BY v DESC",
                "SELECT v FROM t WHERE v < 1 ORDER BY v DESC",
                "[merge-sort]",
                "merge-sort ×5 runs",
            ),
            (
                "TopK",
                "SELECT v FROM t ORDER BY v DESC LIMIT 3",
                "SELECT v FROM t WHERE v < 1 ORDER BY v DESC LIMIT 3",
                "[parallel top-k]",
                "parallel top-k ×5 runs",
            ),
            (
                "Join",
                "SELECT t.v, d.w FROM t JOIN d ON t.k = d.k",
                "SELECT d.w FROM d JOIN e ON d.k = e.k",
                "[partitioned ×16]",
                "partitioned ×16 (1 build + 5 probe morsels)",
            ),
            (
                "Distinct",
                "SELECT DISTINCT k FROM t",
                "SELECT DISTINCT k FROM t WHERE v < 1",
                "[partitioned ×16]",
                "partitioned ×16 (5 morsels)",
            ),
        ] {
            check(kind, many, 4, note, Some(strategy), None);
            check(kind, single, 4, note, None, None);
            check(kind, many, 1, one, None, None);
            check(kind, single, 1, one, None, None);
        }
        for threads in [4, 1] {
            let pinned = "udf-not-parallel-safe(sb)";
            let sql = "SELECT v FROM t ORDER BY sb(v)";
            check("Sort", sql, threads, pinned, None, Some(pinned));
        }
    }

    #[test]
    fn strategy_is_pure_and_prioritises_scheduler_reasons() {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs).with_chain_kernels(true);
        let pred = gt(col(0, "v"), CompiledExpr::Num(1.0));
        let ops = [MorselOp::Filter(&pred)];
        let verdict = |ops: &[MorselOp<'_>], ctx: &ExecContext| {
            crate::morsel::ChainVerdict::of(ops, None, ctx)
                .refusal()
                .map(|r| r.to_string())
        };
        assert_eq!(verdict(&ops, &ctx), None, "compiled");
        assert_eq!(ctx.access.snapshot(), crate::AccessPathStats::default());

        let off = ExecContext::new(&catalog, &udfs);
        assert_eq!(
            verdict(&ops, &off).as_deref(),
            Some("chain-kernels-disabled")
        );
        assert_eq!(verdict(&[], &ctx).as_deref(), Some("no-chain"));
    }
}
