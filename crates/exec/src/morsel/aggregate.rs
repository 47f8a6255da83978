//! Grouped aggregation: one compiled program per query
//! ([`AggProgram`]), one fold per morsel, partial states merged in
//! morsel order ([`merge_partials`]). A fold reads its keys' grouping
//! codes and its arguments' values at the positions it visits
//! ([`Inputs`], whoever evaluated them), finds each position's slot and
//! advances every accumulator in row order ([`Fold::run`]: counts in one
//! sweep, sums in fixed-width chunks, the rest in one more). The slot is
//! the key's code itself when the fold stands on one stored dictionary
//! column of at most [`direct_limit`] entries ([`fold_coded`]: the
//! reached slots are compacted in code order afterwards), and a group id
//! resolved by [`group_rows`] otherwise — the same groups in the same
//! order either way. With zero keys there is one group, and each
//! accumulator is its own loop with its running value in a local
//! ([`fold_one`]). The combine groups the partials' representative key
//! rows by `group_rows`' rule ([`group_keys`]).
//!
//! [`run_aggregate`] is one task per live window that folds it **in
//! place** when it can ([`InPlace`]): the chain's kernel selects the
//! window (a bare scan keeps every row), column keys read their grouping
//! codes where they are stored, computed keys and arguments go through
//! the kernel's window evaluator — only the columns the aggregate names
//! are read, at the rows it keeps, and nothing is copied into a batch of
//! the fold's own. Kernels off, a single-morsel input, a pinned chain, a
//! declined hand-off and every window the kernel bails on fold the
//! chain's dense window output with the interpreter
//! ([`partial_aggregate`]) — the oracle the in-place fold matches bit
//! for bit, grouped or not.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use tdp_encoding::EncodedTensor;
use tdp_sql::ast::AggFunc;
use tdp_tensor::sort::{direct_limit, group_rows, Groups};
use tdp_tensor::{BoolTensor, F32Tensor, I64Tensor, Tensor};

use super::chain::{self, ChainRun};
use super::sched::{claim_eval, live_windows, Window};
use crate::access::MorselVerdict;
use crate::batch::Batch;
use crate::error::ExecError;
use crate::exact;
use crate::expr::{eval_expr, Value};
use crate::kernel::{ChainInstance, SelVec};
use crate::memory;
use crate::physical::{CompiledExpr, PhysAggregate, PhysKey};
use crate::profile::Recorder;
use crate::udf::ExecContext;
use crate::verdict::Reason;

/// How an accumulator consumes its argument column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AccKind {
    /// COUNT(expr): trues of a boolean column, the group size for
    /// anything else (a pragmatic choice in this NULL-free dialect).
    Count,
    /// COUNT(DISTINCT expr). Distinct counts do not add across morsels,
    /// so the sink's parallel-safety analysis (`count-distinct`) pins
    /// these queries to one whole-batch
    /// partial.
    CountDistinct,
    /// f32 running sum in row order from `0.0` — SUM, and AVG's
    /// numerator (the divisor is the merged group size).
    Sum,
    Min,
    Max,
    /// f64 power sums, finalised as VARIANCE or STDDEV.
    Moments,
}

#[derive(Clone, Copy, Debug)]
struct AccSpec {
    kind: AccKind,
    /// Index into [`AggProgram::args`].
    arg: usize,
}

/// How the accumulators read one argument.
#[derive(Clone, Copy, Debug)]
struct Reads {
    /// COUNT reads it: a boolean column's trues, the group size else.
    count: bool,
    /// COUNT(DISTINCT) reads the column itself.
    distinct: bool,
    /// The first numeric function reading it, in query order (the one a
    /// refusal names); `None` when only counts do.
    numeric: Option<AggFunc>,
}

/// The aggregate list of one query, compiled once — not per morsel.
/// Argument expressions are de-duplicated (`SUM(x)`, `AVG(x)` and
/// `VARIANCE(x)` evaluate `x` once per morsel) and so are accumulators
/// (`SUM(x)` and `AVG(x)` share one running sum, `VARIANCE(x)` and
/// `STDDEV(x)` one pair of power sums); COUNT(*) needs no accumulator at
/// all, it reads the group size.
struct AggProgram<'q> {
    keys: &'q [PhysKey],
    aggregates: &'q [PhysAggregate],
    /// Distinct argument expressions in first-use order.
    args: Vec<&'q CompiledExpr>,
    /// Per argument, the forms its accumulators read.
    reads: Vec<Reads>,
    /// Distinct `(kind, argument)` accumulators.
    accs: Vec<AccSpec>,
    /// Per aggregate, the accumulator it finalises from; `None` is
    /// COUNT(*).
    outs: Vec<Option<usize>>,
}

impl<'q> AggProgram<'q> {
    fn compile(
        keys: &'q [PhysKey],
        aggregates: &'q [PhysAggregate],
    ) -> Result<AggProgram<'q>, ExecError> {
        let mut args: Vec<&'q CompiledExpr> = Vec::new();
        let mut accs: Vec<AccSpec> = Vec::new();
        let mut outs = Vec::with_capacity(aggregates.len());
        for agg in aggregates {
            let Some(e) = &agg.arg else {
                if agg.func == AggFunc::Count {
                    outs.push(None);
                    continue;
                }
                return Err(ExecError::Unsupported(format!(
                    "{}(*) is not meaningful",
                    agg.func.name()
                )));
            };
            let kind = match agg.func {
                AggFunc::Count => AccKind::Count,
                AggFunc::CountDistinct => AccKind::CountDistinct,
                AggFunc::Sum | AggFunc::Avg => AccKind::Sum,
                AggFunc::Min => AccKind::Min,
                AggFunc::Max => AccKind::Max,
                AggFunc::Variance | AggFunc::Stddev => AccKind::Moments,
            };
            let arg = args.iter().position(|&a| a == e).unwrap_or_else(|| {
                args.push(e);
                args.len() - 1
            });
            let acc = accs
                .iter()
                .position(|a| a.kind == kind && a.arg == arg)
                .unwrap_or_else(|| {
                    accs.push(AccSpec { kind, arg });
                    accs.len() - 1
                });
            outs.push(Some(acc));
        }
        let reads = (0..args.len())
            .map(|ai| {
                // The functions reading this argument, in query order.
                let funcs: Vec<AggFunc> = aggregates
                    .iter()
                    .zip(&outs)
                    .filter(|(_, out)| out.is_some_and(|acc| accs[acc].arg == ai))
                    .map(|(agg, _)| agg.func)
                    .collect();
                Reads {
                    count: funcs.contains(&AggFunc::Count),
                    distinct: funcs.contains(&AggFunc::CountDistinct),
                    numeric: funcs
                        .into_iter()
                        .find(|f| !matches!(f, AggFunc::Count | AggFunc::CountDistinct)),
                }
            })
            .collect();
        Ok(AggProgram {
            keys,
            aggregates,
            args,
            reads,
            accs,
            outs,
        })
    }
}

/// Per-accumulator state, one slot per group: a morsel's partial, or the
/// merged state the combine scatters the partials into.
enum AccColumn {
    Count(Vec<i64>),
    Sum(Vec<f32>),
    Min(Vec<f32>),
    Max(Vec<f32>),
    Moments { sum: Vec<f64>, sumsq: Vec<f64> },
}

impl AccColumn {
    /// `slots` empty states of one accumulator kind.
    fn identity(kind: AccKind, slots: usize) -> AccColumn {
        match kind {
            AccKind::Count | AccKind::CountDistinct => AccColumn::Count(vec![0; slots]),
            AccKind::Sum => AccColumn::Sum(vec![0.0; slots]),
            AccKind::Min => AccColumn::Min(vec![f32::INFINITY; slots]),
            AccKind::Max => AccColumn::Max(vec![f32::NEG_INFINITY; slots]),
            AccKind::Moments => AccColumn::Moments {
                sum: vec![0.0; slots],
                sumsq: vec![0.0; slots],
            },
        }
    }

    /// Keep the states of `slots` only, in that order.
    fn select(&mut self, slots: &[usize]) {
        fn pick<T: Copy>(v: &mut Vec<T>, slots: &[usize]) {
            *v = slots.iter().map(|&s| v[s]).collect();
        }
        match self {
            AccColumn::Count(v) => pick(v, slots),
            AccColumn::Sum(v) | AccColumn::Min(v) | AccColumn::Max(v) => pick(v, slots),
            AccColumn::Moments { sum, sumsq } => {
                pick(sum, slots);
                pick(sumsq, slots);
            }
        }
    }

    /// The partial-combine arithmetic, defined once: each step
    /// `(to, from, p)` sets slot `to` to slot `from` combined with
    /// `part`'s slot `p`, in step order. The combine scatters partials
    /// (`to == from`); a window's running frame chains peer groups
    /// (`from` the previous frame, or `to` itself — still the identity —
    /// where a partition opens).
    fn absorb(&mut self, part: &AccColumn, steps: impl Iterator<Item = Step> + Clone) {
        fn each<T: Copy>(
            acc: &mut [T],
            part: &[T],
            steps: impl Iterator<Item = Step>,
            f: impl Fn(T, T) -> T,
        ) {
            for (to, from, p) in steps {
                acc[to] = f(acc[from], part[p]);
            }
        }
        match (self, part) {
            (AccColumn::Count(t), AccColumn::Count(v)) => each(t, v, steps, |a, b| a + b),
            (AccColumn::Sum(t), AccColumn::Sum(v)) => each(t, v, steps, |a, b| a + b),
            (AccColumn::Min(t), AccColumn::Min(v)) => each(t, v, steps, f32::min),
            (AccColumn::Max(t), AccColumn::Max(v)) => each(t, v, steps, f32::max),
            (AccColumn::Moments { sum, sumsq }, AccColumn::Moments { sum: s, sumsq: q }) => {
                each(sum, s, steps.clone(), |a, b| a + b);
                each(sumsq, q, steps, |a, b| a + b);
            }
            _ => unreachable!("partials of one program share its accumulator layout"),
        }
    }
}

/// One combine step of [`AccColumn::absorb`]: `(to, from, part slot)`.
type Step = (usize, usize, usize);

/// Partial aggregation state of one morsel.
struct PartialAgg {
    /// Representative key rows (first in-morsel occurrence), encoding
    /// preserved; one `[groups]` column per GROUP BY key — what the
    /// combine groups the partials by.
    key_reps: Vec<EncodedTensor>,
    /// Group sizes.
    counts: Vec<i64>,
    /// One column per [`AggProgram::accs`] entry.
    accs: Vec<AccColumn>,
    groups: usize,
    /// Whether the keys went through the hash arm of `group_rows`.
    hashed: bool,
    /// Whether the key's dictionary codes were the fold's slots
    /// ([`fold_coded`]) instead of `group_rows`' ids.
    coded: bool,
}

impl PartialAgg {
    /// `groups` empty states of `prog`: what the combine absorbs into.
    fn identity(prog: &AggProgram<'_>, groups: usize) -> PartialAgg {
        PartialAgg {
            key_reps: Vec::new(),
            counts: vec![0; groups],
            accs: (prog.accs.iter())
                .map(|acc| AccColumn::identity(acc.kind, groups))
                .collect(),
            groups,
            hashed: false,
            coded: false,
        }
    }

    /// Absorb `part`'s group sizes and states, step by step
    /// ([`AccColumn::absorb`]).
    fn absorb(&mut self, part: &PartialAgg, steps: impl Iterator<Item = Step> + Clone) {
        for (to, from, p) in steps.clone() {
            self.counts[to] = self.counts[from] + part.counts[p];
        }
        for (acc, part) in self.accs.iter_mut().zip(&part.accs) {
            acc.absorb(part, steps.clone());
        }
    }

    /// Ledger estimate of the state this partial keeps alive until the
    /// combine step.
    fn state_bytes(&self) -> u64 {
        let per_group: usize = 8 + self
            .accs
            .iter()
            .map(|a| match a {
                AccColumn::Count(_) => 8,
                AccColumn::Sum(_) | AccColumn::Min(_) | AccColumn::Max(_) => 4,
                AccColumn::Moments { .. } => 16,
            })
            .sum::<usize>();
        let reps: usize = self.key_reps.iter().map(|c| c.memory_bytes()).sum();
        (self.groups * per_group + reps) as u64
    }
}

/// Run a fused chain + grouped aggregation, morsel-parallel where safe:
/// each live window folds into per-group partial states, merged by a
/// combine step that walks windows in index order (deterministic at any
/// thread count). A single-morsel input is the same thing with one
/// partial, folded by the interpreter. A multi-morsel stage picks its
/// form once: an in-place task selects its window — or, over a bare
/// scan, keeps every row of it — and folds what it keeps straight out of
/// the stored columns ([`InPlace`]); a gathered-form task — or an
/// in-place task whose kernel bailed — folds the chain's dense window
/// output. Partials chunk by input window either way, so they are
/// byte-identical across forms.
pub(crate) fn run_aggregate(
    input: &Batch,
    chain: &ChainRun<'_>,
    keys: &[PhysKey],
    aggregates: &[PhysAggregate],
    verdicts: Option<&[MorselVerdict]>,
    ctx: &ExecContext,
    rec: Option<&mut Recorder>,
) -> Result<Batch, ExecError> {
    let morsels = chain.morsels;
    let prog = AggProgram::compile(keys, aggregates)?;
    // Accumulator state every kept partial holds until the combine step
    // below has consumed it.
    let state = memory::ScopedCharges::new(&ctx.memory);

    let (mut partials, arrived) = if morsels <= 1 {
        let inp = chain.apply(input, verdicts, ctx)?;
        let partial = partial_aggregate(&prog, &inp, None, ctx)?;
        (vec![partial], Arrived::SingleMorsel)
    } else {
        let verdicts = verdicts.filter(|v| v.len() == morsels);
        let empty = ChainInstance::empty(ctx);
        let form = InPlace::of(input, chain, &prog, &empty, ctx);
        // Pruned morsels contribute no groups and are not scheduled.
        let windows = live_windows(verdicts, ctx.morsel_rows, input.rows());
        let bailed = AtomicBool::new(false);
        let folds = claim_eval(windows.len(), ctx, None, |j, wctx| {
            let w = windows[j];
            let (start, end) = (w.start, w.end);
            let in_place = match &form {
                Ok(f) => Some(f.fold(&prog, input, w, wctx)?),
                Err(_) => None,
            };
            let partial = match in_place {
                Some(Some(folded)) => folded,
                // The gathered form, or an in-place task whose kernel bailed.
                other => {
                    bailed.fetch_or(other.is_some(), Ordering::Relaxed);
                    let batch = chain.apply_window(input, start, end, wctx)?;
                    match batch.rows() {
                        0 => None,
                        _ => Some(partial_aggregate(&prog, &batch, None, wctx)?),
                    }
                }
            };
            if let Some(p) = &partial {
                state.add("aggregate state", p.state_bytes())?;
            }
            Ok(partial)
        });
        let arrived = match form {
            Ok(_) if bailed.into_inner() => Arrived::Gathered(Some(Reason::KernelBailout)),
            Ok(f) if f.filtered => Arrived::SelectionFed,
            Ok(_) => Arrived::Unfiltered,
            Err(why) => Arrived::Gathered(why),
        };
        // One count per stage that hands a chain's selection over: a
        // declined or bailed selection whatever the outcome, a
        // selection-fed stage once it has succeeded. A bare scan hands
        // nothing over and counts neither.
        if matches!(arrived, Arrived::Gathered(Some(_))) && !chain.ops.is_empty() {
            ctx.access.note_barrier_gathered();
        }
        let folds = folds?;
        if matches!(arrived, Arrived::SelectionFed) {
            ctx.access.note_barrier_selection_fed();
        }
        // Only a chain's in-place form takes the proofs; a bailed window
        // re-ran its filter, so a stage with one counts none.
        let proofs = matches!(arrived, Arrived::SelectionFed);
        chain::note_verdicts(verdicts, proofs, ctx);
        (folds.into_iter().flatten().flatten().collect(), arrived)
    };
    if partials.is_empty() {
        // Every morsel filtered to nothing: fold the chain's zero-row
        // output, so schema, encodings and the zero-row aggregate values
        // (a global COUNT of 0) match the single-morsel run.
        let empty = chain::apply_ops(input.slice_rows(0, 0), chain.ops, ctx)?;
        partials.push(partial_aggregate(&prog, &empty, None, ctx)?);
    }
    let keys = match (prog.keys.is_empty(), &partials[..]) {
        (true, _) => KeyArm::None,
        (false, ps) if ps.iter().any(|p| p.hashed) => KeyArm::Hash,
        (false, ps) if ps.iter().all(|p| p.coded) => KeyArm::Codes,
        (false, _) => KeyArm::Direct,
    };
    let out = merge_partials(&prog, &partials)?;
    if let Some(r) = rec {
        r.note_aggregate(&AggregateNote(&prog, out.rows(), keys, arrived));
    }
    Ok(out)
}

/// How an aggregate stage's input arrived: one interpreted partial, each
/// window selected and folded in place, every row of a bare scan folded
/// in place, or dense windows — with why a chain's hand-off was declined
/// (`None`: no kernel runs the chain, and its own note says why).
enum Arrived<'p> {
    SingleMorsel,
    SelectionFed,
    Unfiltered,
    Gathered(Option<Reason<'p>>),
}

/// How an aggregate stage's partials resolved their groups: no keys, the
/// key's dictionary codes as slots in every partial ([`fold_coded`]),
/// else `group_rows`' direct-index arm, or its hash arm in any partial.
#[derive(Clone, Copy)]
enum KeyArm {
    None,
    Codes,
    Direct,
    Hash,
}

/// An aggregate stage's profile note: its program, group count, how the
/// keys were resolved, and how its input arrived. Only a profiled run
/// renders it.
pub(crate) struct AggregateNote<'a>(&'a AggProgram<'a>, usize, KeyArm, Arrived<'a>);

impl fmt::Display for AggregateNote<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let AggregateNote(prog, groups, arm, arrived) = self;
        let keys = match arm {
            KeyArm::None => "none",
            KeyArm::Codes => "codes",
            KeyArm::Direct => "direct",
            KeyArm::Hash => "hash",
        };
        let (accs, args) = (prog.accs.len(), prog.args.len());
        write!(
            f,
            "aggregate: fused {accs} acc / {args} args, {groups} groups, keys: {keys}, "
        )?;
        match arrived {
            Arrived::SingleMorsel => f.write_str("single-morsel"),
            Arrived::SelectionFed => f.write_str("selection-fed"),
            Arrived::Unfiltered => f.write_str("unfiltered"),
            Arrived::Gathered(None) => f.write_str("gathered"),
            Arrived::Gathered(Some(why)) => write!(f, "gathered: {why}"),
        }
    }
}

// ----------------------------------------------------------------------
// The fold
// ----------------------------------------------------------------------

/// One window's keys and arguments at the positions its fold visits —
/// the window's rows (a dense selection's mask says which count) or its
/// survivors — whoever evaluated them.
struct Inputs<'a> {
    /// Positions.
    rows: usize,
    /// Grouping codes, one slice per key.
    codes: Vec<&'a [i64]>,
    /// The codes' domain `0..d`, when it is known: one key, a stored
    /// dictionary column (`d` its dictionary's size).
    domain: Option<usize>,
    /// Per argument: f32 values, when a numeric aggregate reads it.
    vals: Vec<Option<&'a [f32]>>,
    /// Per argument: a boolean column's flags, when COUNT reads it.
    flags: Vec<Option<&'a [bool]>>,
    /// Per argument: the column COUNT(DISTINCT) reads — interpreter
    /// only, distinct counts pin the stage to one whole-batch partial.
    raws: Vec<Option<&'a EncodedTensor>>,
}

/// One fold's accumulators, viewed by kind over the partial's own
/// columns (one slot per group plus the spare). SUM state is the
/// exception: while folding it is fixed-width rows per group
/// ([`sum_chunk`]), so a row touches one cache line of it per chunk of
/// sums; [`Fold::run`] leaves one column per sum in `sums`.
struct Fold<'a> {
    counts: &'a mut [i64],
    sum_args: Vec<&'a [f32]>,
    sums: Vec<Vec<f32>>,
    trues: Vec<(&'a [bool], &'a mut [i64])>,
    mins: Vec<(&'a [f32], &'a mut [f32])>,
    maxs: Vec<(&'a [f32], &'a mut [f32])>,
    moments: Vec<(&'a [f32], &'a mut [f64], &'a mut [f64])>,
}

/// Sums folded per sweep: each group's running sums of one chunk are
/// one `[f32; W]`, `W` at most this.
const SUM_LANES: usize = 4;

impl<'a> Fold<'a> {
    fn over(counts: &'a mut [i64]) -> Fold<'a> {
        Fold {
            counts,
            sum_args: Vec::new(),
            sums: Vec::new(),
            trues: Vec::new(),
            mins: Vec::new(),
            maxs: Vec::new(),
            moments: Vec::new(),
        }
    }

    /// Fold every position once, in row order: position `p` goes to slot
    /// `ids[p]`. Each f32 sum therefore adds its group's values in row
    /// order starting from `0.0` — the arithmetic of a per-aggregate
    /// scatter-add. Counts are one sweep, the sums one sweep per chunk of
    /// up to [`SUM_LANES`] ([`sum_chunk`], monomorphised per width), and
    /// every other accumulator one more; no state is shared between
    /// sweeps, so splitting them changes no bit. Counts are integers end
    /// to end (an f32 counter sticks at 2²⁴).
    fn run(&mut self, ids: &[u32]) {
        for &g in ids {
            self.counts[g as usize] += 1;
        }
        let slots = self.counts.len();
        self.sums = Vec::with_capacity(self.sum_args.len());
        for chunk in self.sum_args.chunks(SUM_LANES) {
            let cols = match chunk.len() {
                1 => sum_chunk::<1>(chunk, ids, slots),
                2 => sum_chunk::<2>(chunk, ids, slots),
                3 => sum_chunk::<3>(chunk, ids, slots),
                _ => sum_chunk::<SUM_LANES>(chunk, ids, slots),
            };
            self.sums.extend(cols);
        }
        if !(self.trues.is_empty()
            && self.mins.is_empty()
            && self.maxs.is_empty()
            && self.moments.is_empty())
        {
            self.run_others(ids);
        }
    }

    /// The sweep of every accumulator but counts and sums.
    fn run_others(&mut self, ids: &[u32]) {
        for (p, &g) in ids.iter().enumerate() {
            let g = g as usize;
            for (arg, acc) in &mut self.trues {
                acc[g] += arg[p] as i64;
            }
            // MIN/MAX keep the strict comparison against the running
            // slot: NaN never wins, and an all-NaN group stays ±inf.
            for (vals, acc) in &mut self.mins {
                if vals[p] < acc[g] {
                    acc[g] = vals[p];
                }
            }
            for (vals, acc) in &mut self.maxs {
                if vals[p] > acc[g] {
                    acc[g] = vals[p];
                }
            }
            for (vals, sum, sumsq) in &mut self.moments {
                let v = vals[p] as f64;
                sum[g] += v;
                sumsq[g] += v * v;
            }
        }
        for (vals, sum, sumsq) in &mut self.moments {
            if !sum.iter().chain(sumsq.iter()).any(|s| s.is_nan()) {
                continue;
            }
            sum.fill(0.0);
            sumsq.fill(0.0);
            for (p, &g) in ids.iter().enumerate() {
                let (v, g) = (vals[p] as f64, g as usize);
                (sum[g], sumsq[g]) = match v.is_nan() {
                    true => (v, v * v),
                    false => (sum[g] + v, sumsq[g] + v * v),
                };
            }
        }
    }
}

/// `W` running f32 sums per slot over `slots` slots, folded in one sweep
/// of the positions in row order from `+0.0`; returned as one column per
/// argument. The group's `[f32; W]` is one bounds check a row, and each
/// argument is cut to the sweep's length so its reads need none.
fn sum_chunk<const W: usize>(args: &[&[f32]], ids: &[u32], slots: usize) -> Vec<Vec<f32>> {
    let n = ids.len();
    let args: [&[f32]; W] = std::array::from_fn(|j| &args[j][..n]);
    let mut state = vec![[0.0f32; W]; slots];
    for (p, &g) in ids.iter().enumerate() {
        let acc = &mut state[g as usize];
        for j in 0..W {
            acc[j] += args[j][p];
        }
    }
    // Which NaN a sum ends with is settled where two meet, by
    // [`fold_one`]'s rule — the incoming NaN wins — not by the operand
    // order the optimiser emits for `a + v`: states that end NaN are
    // refolded under it (a state no NaN reached is unchanged by it).
    if state.iter().flatten().any(|s| s.is_nan()) {
        state.fill([0.0; W]);
        for (p, &g) in ids.iter().enumerate() {
            let acc = &mut state[g as usize];
            for j in 0..W {
                let v = args[j][p];
                acc[j] = if v.is_nan() { v } else { acc[j] + v };
            }
        }
    }
    (0..W)
        .map(|j| state.iter().map(|s| s[j]).collect())
        .collect()
}

/// Fold one window's evaluated keys and arguments into per-group partial
/// states. `mask` marks the positions that count (a dense selection's
/// mask); the rest join no group. Each group's key row is the caller's
/// to read, at its first position (`key_rows(reps)`): the caller knows
/// where the keys are stored.
fn fold(
    prog: &AggProgram<'_>,
    inp: &Inputs<'_>,
    mask: Option<&[bool]>,
    key_rows: impl FnOnce(&I64Tensor) -> Vec<EncodedTensor>,
) -> Result<PartialAgg, ExecError> {
    if inp.codes.is_empty() {
        return fold_one(prog, inp, mask);
    }
    if let Some(d) = inp.domain {
        let visited = mask.map_or(inp.rows, |m| m.iter().filter(|&&keep| keep).count());
        if d as u128 <= direct_limit(visited) {
            return fold_coded(prog, inp, mask, (d, visited), key_rows);
        }
    }
    let Groups {
        ids,
        groups,
        hashed,
        ..
    } = group_rows(&inp.codes, mask);
    let mut partial = fold_groups(prog, inp, &ids, groups, None, mask)?;
    partial.hashed = hashed;
    partial.key_reps = key_rows(&first_rows(&ids, groups, groups));
    Ok(partial)
}

/// The code-indexed fold of one key whose codes lie in `0..d`: each code
/// is its own slot and a row the mask deselects goes to the spare slot
/// `d`, so no group ids are resolved before the sweep. The slots some row
/// reached are then compacted, in code order, into dense groups, each
/// represented by its first position — exactly the groups, order and
/// representatives of `group_rows`' direct arm, whose table walk is code
/// order too. `visited` is the number of positions the mask keeps.
fn fold_coded(
    prog: &AggProgram<'_>,
    inp: &Inputs<'_>,
    mask: Option<&[bool]>,
    (d, visited): (usize, usize),
    key_rows: impl FnOnce(&I64Tensor) -> Vec<EncodedTensor>,
) -> Result<PartialAgg, ExecError> {
    let codes = inp.codes[0];
    let ids: Vec<u32> = match mask {
        None => codes.iter().map(|&c| c as u32).collect(),
        Some(m) => (codes.iter().zip(m))
            .map(|(&c, &keep)| if keep { c as u32 } else { d as u32 })
            .collect(),
    };
    let mut partial = fold_groups(prog, inp, &ids, d, None, mask)?;
    // A code past the dictionary would index past the spare slot, or be
    // dropped in it: every kept position must have reached a code's slot.
    let folded: i64 = partial.counts.iter().sum();
    assert_eq!(folded as usize, visited, "dictionary codes lie in 0..{d}");
    let present: Vec<usize> = (0..d).filter(|&g| partial.counts[g] > 0).collect();
    let groups = present.len();
    let first = first_rows(&ids, d, groups);
    let reps = present.iter().map(|&g| first.at(g)).collect();
    partial.key_reps = key_rows(&Tensor::from_vec(reps, &[groups]));
    partial.counts = present.iter().map(|&g| partial.counts[g]).collect();
    for acc in &mut partial.accs {
        acc.select(&present);
    }
    partial.groups = groups;
    partial.coded = true;
    Ok(partial)
}

/// The grouped fold: position `p` goes to group `ids[p]`, and every
/// accumulator advances in one row-order sweep ([`Fold::run`]). The slot
/// past the last group absorbs the positions a mask deselected (their id
/// is `groups`), so the sweep stays branchless and every real group sees
/// exactly its surviving rows, in row order. COUNT(DISTINCT) counts each
/// distinct grouping code ([`exact::key_codes`]) once per `scope` (per
/// position, like `ids`; `None`: each group is its own), in the lowest
/// group id holding it.
fn fold_groups(
    prog: &AggProgram<'_>,
    inp: &Inputs<'_>,
    ids: &[u32],
    groups: usize,
    scope: Option<&[u32]>,
    mask: Option<&[bool]>,
) -> Result<PartialAgg, ExecError> {
    let slots = groups + 1;
    let mut counts = vec![0i64; slots];
    let mut accs: Vec<AccColumn> = prog
        .accs
        .iter()
        .map(|acc| AccColumn::identity(acc.kind, slots))
        .collect();
    let mut fold = Fold::over(&mut counts);
    for (acc, col) in prog.accs.iter().zip(&mut accs) {
        let vals = || inp.vals[acc.arg].expect("evaluated for a numeric aggregate");
        match col {
            AccColumn::Sum(_) => fold.sum_args.push(vals()),
            AccColumn::Min(m) => fold.mins.push((vals(), m)),
            AccColumn::Max(m) => fold.maxs.push((vals(), m)),
            AccColumn::Moments { sum, sumsq } => fold.moments.push((vals(), sum, sumsq)),
            AccColumn::Count(t) if acc.kind == AccKind::Count => {
                if let Some(flags) = inp.flags[acc.arg] {
                    fold.trues.push((flags, t));
                }
            }
            AccColumn::Count(_) => {}
        }
    }
    fold.run(ids);
    let mut sums = fold.sums.into_iter();

    counts.truncate(groups);
    for (acc, col) in prog.accs.iter().zip(&mut accs) {
        match col {
            AccColumn::Sum(v) => {
                *v = sums.next().expect("one column per sum");
                v.truncate(groups);
            }
            AccColumn::Count(t) if acc.kind == AccKind::CountDistinct => {
                // Distinct (scope, value-code) pairs, each counted in the
                // lowest group among its positions.
                let raw = inp.raws[acc.arg].expect("evaluated for COUNT(DISTINCT)");
                let codes = exact::key_codes(raw)?;
                let scope: Vec<i64> = scope.unwrap_or(ids).iter().map(|&g| g as i64).collect();
                let pairs = group_rows(&[&scope, codes.data()], mask);
                let mut first = vec![u32::MAX; pairs.groups];
                for (&pair, &g) in pairs.ids.iter().zip(ids) {
                    if let Some(f) = first.get_mut(pair as usize) {
                        *f = (*f).min(g);
                    }
                }
                t.truncate(groups);
                for g in first {
                    t[g as usize] += 1;
                }
            }
            // COUNT of a non-boolean argument is the group size.
            AccColumn::Count(t) if inp.flags[acc.arg].is_none() => t.clone_from(&counts),
            AccColumn::Count(t) => t.truncate(groups),
            AccColumn::Min(v) | AccColumn::Max(v) => v.truncate(groups),
            AccColumn::Moments { sum, sumsq } => {
                sum.truncate(groups);
                sumsq.truncate(groups);
            }
        }
    }

    Ok(PartialAgg {
        key_reps: Vec::new(),
        counts,
        accs,
        groups,
        hashed: false,
        coded: false,
    })
}

/// Fold the values at the positions `mask` keeps (every position without
/// one) into one running value, in row order: `f` sees survivors only,
/// so a deselected NaN never touches the result.
fn fold_kept<T: Copy, A>(vals: &[T], mask: Option<&[bool]>, init: A, f: impl Fn(A, T) -> A) -> A {
    match mask {
        None => vals.iter().fold(init, |a, &v| f(a, v)),
        Some(m) => vals
            .iter()
            .zip(m)
            .fold(init, |a, (&v, &keep)| if keep { f(a, v) } else { a }),
    }
}

/// The zero-key fold: one group, each accumulator its own loop over the
/// visited positions with its running value in a local — no group ids,
/// no state in memory. Survivors only, in row order, sums from `+0.0`:
/// bit for bit what [`Fold::run`] computes for one group.
fn fold_one(
    prog: &AggProgram<'_>,
    inp: &Inputs<'_>,
    mask: Option<&[bool]>,
) -> Result<PartialAgg, ExecError> {
    let rows = mask.map_or(inp.rows, |m| m.iter().filter(|&&keep| keep).count()) as i64;
    let accs = prog
        .accs
        .iter()
        .map(|acc| {
            let vals = || inp.vals[acc.arg].expect("evaluated for a numeric aggregate");
            Ok(match acc.kind {
                AccKind::Count => AccColumn::Count(vec![match inp.flags[acc.arg] {
                    Some(flags) => fold_kept(flags, mask, 0i64, |a, b| a + b as i64),
                    None => rows,
                }]),
                AccKind::CountDistinct => {
                    let raw = inp.raws[acc.arg].expect("evaluated for COUNT(DISTINCT)");
                    let codes = exact::key_codes(raw)?;
                    let distinct = group_rows(&[codes.data()], mask).groups;
                    AccColumn::Count(vec![distinct as i64])
                }
                AccKind::Sum => {
                    let sum = fold_kept(vals(), mask, 0.0f32, |a, v| a + v);
                    // Which NaN a sum ends with is settled where two meet.
                    let sum = match sum.is_nan() {
                        true => {
                            fold_kept(vals(), mask, 0.0, |a, v| if v.is_nan() { v } else { a + v })
                        }
                        false => sum,
                    };
                    AccColumn::Sum(vec![sum])
                }
                // The strict comparison against the running value: NaN
                // never wins, and an all-NaN input stays ±inf.
                AccKind::Min => {
                    AccColumn::Min(vec![fold_kept(vals(), mask, f32::INFINITY, |a, v| {
                        if v < a {
                            v
                        } else {
                            a
                        }
                    })])
                }
                AccKind::Max => {
                    AccColumn::Max(vec![fold_kept(vals(), mask, f32::NEG_INFINITY, |a, v| {
                        if v > a {
                            v
                        } else {
                            a
                        }
                    })])
                }
                AccKind::Moments => {
                    let moments = |nan_last: bool| {
                        fold_kept(vals(), mask, (0.0, 0.0), |(s, q): (f64, f64), v| {
                            let v = v as f64;
                            match nan_last && v.is_nan() {
                                true => (v, v * v),
                                false => (s + v, q + v * v),
                            }
                        })
                    };
                    let (sum, sumsq) = match moments(false) {
                        (s, q) if s.is_nan() || q.is_nan() => moments(true),
                        fast => fast,
                    };
                    AccColumn::Moments {
                        sum: vec![sum],
                        sumsq: vec![sumsq],
                    }
                }
            })
        })
        .collect::<Result<_, ExecError>>()?;
    Ok(PartialAgg {
        key_reps: Vec::new(),
        counts: vec![rows],
        accs,
        groups: 1,
        hashed: false,
        coded: false,
    })
}

/// A batch's keys and arguments evaluated by the interpreter, held until
/// [`Evaluated::inputs`] lends them to the fold.
struct Evaluated {
    /// Key columns, encoding preserved: representative rows are read
    /// out of them.
    keys: Vec<EncodedTensor>,
    codes: Vec<I64Tensor>,
    vals: Vec<Option<F32Tensor>>,
    flags: Vec<Option<BoolTensor>>,
    raws: Vec<Option<EncodedTensor>>,
}

impl Evaluated {
    /// Each key, then each distinct argument once, in the forms its
    /// accumulators read: f32 values, a boolean column's flags, the raw
    /// column for DISTINCT.
    fn of(prog: &AggProgram<'_>, batch: &Batch, ctx: &ExecContext) -> Result<Evaluated, ExecError> {
        let n = batch.rows();
        let mut keys = Vec::with_capacity(prog.keys.len());
        for k in prog.keys {
            match eval_expr(&k.expr, batch, ctx)? {
                Value::Column(c) => keys.push(c),
                other => {
                    return Err(ExecError::TypeMismatch(format!(
                        "GROUP BY expression must be a column, got {other:?}"
                    )))
                }
            }
        }
        let codes = keys
            .iter()
            .map(exact::key_codes)
            .collect::<Result<_, _>>()?;
        let mut ev = Evaluated {
            keys,
            codes,
            vals: Vec::with_capacity(prog.args.len()),
            flags: Vec::with_capacity(prog.args.len()),
            raws: Vec::with_capacity(prog.args.len()),
        };
        for (e, reads) in prog.args.iter().zip(&prog.reads) {
            let v = eval_expr(e, batch, ctx)?;
            ev.flags.push(match &v {
                Value::Column(EncodedTensor::Bool(m)) if reads.count => Some(m.clone()),
                _ => None,
            });
            ev.raws.push(match &v {
                _ if !reads.distinct => None,
                Value::Column(c) => Some(c.clone()),
                other => {
                    return Err(ExecError::TypeMismatch(format!(
                        "COUNT(DISTINCT …) needs a column, got {other:?}"
                    )))
                }
            });
            let vals = reads
                .numeric
                .map(|func| v.into_agg_f32(func, n))
                .transpose()?;
            if let Some(vals) = vals.as_ref().filter(|vals| vals.ndim() != 1) {
                return Err(ExecError::TypeMismatch(format!(
                    "cannot aggregate a multi-dimensional payload column (shape {:?})",
                    vals.shape()
                )));
            }
            ev.vals.push(vals);
        }
        Ok(ev)
    }

    fn inputs(&self, rows: usize) -> Inputs<'_> {
        Inputs {
            rows,
            codes: self.codes.iter().map(I64Tensor::data).collect(),
            domain: None,
            vals: self
                .vals
                .iter()
                .map(|v| v.as_ref().map(F32Tensor::data))
                .collect(),
            flags: self
                .flags
                .iter()
                .map(|f| f.as_ref().map(BoolTensor::data))
                .collect(),
            raws: self.raws.iter().map(Option::as_ref).collect(),
        }
    }
}

/// Fold one batch with the interpreter — the oracle of the in-place
/// fold, and the path of every window it does not take. `mask` marks the
/// rows of `batch` that count.
fn partial_aggregate(
    prog: &AggProgram<'_>,
    batch: &Batch,
    mask: Option<&[bool]>,
    ctx: &ExecContext,
) -> Result<PartialAgg, ExecError> {
    let ev = Evaluated::of(prog, batch, ctx)?;
    fold(prog, &ev.inputs(batch.rows()), mask, |reps| {
        ev.keys.iter().map(|c| c.select_rows(reps)).collect()
    })
}

/// Group `n` rows by their key columns — the combine's grouping, by the
/// fold's own rule: grouping codes ([`exact::key_codes`]) into
/// [`group_rows`], which numbers groups in lexicographic code order.
/// Zero keys are one group holding every row.
fn group_keys(keys: &[EncodedTensor], n: usize) -> Result<Groups, ExecError> {
    if keys.is_empty() {
        return Ok(Groups {
            ids: vec![0; n],
            distinct: Vec::new(),
            groups: 1,
            hashed: false,
        });
    }
    let codes: Vec<I64Tensor> = keys
        .iter()
        .map(exact::key_codes)
        .collect::<Result<_, _>>()?;
    let slices: Vec<&[i64]> = codes.iter().map(|c| c.data()).collect();
    Ok(group_rows(&slices, None))
}

/// Each group's representative: the first of its rows in `ids` order
/// (`-1` for a group no row reached). Ids past the last group (rows a
/// mask deselected) represent nothing. The walk stops once `present`
/// groups have been found.
fn first_rows(ids: &[u32], groups: usize, present: usize) -> I64Tensor {
    let mut rep = vec![-1i64; groups];
    let mut left = present;
    for (row, &g) in ids.iter().enumerate() {
        if left == 0 {
            break;
        }
        if let Some(r) = rep.get_mut(g as usize).filter(|r| **r < 0) {
            *r = row as i64;
            left -= 1;
        }
    }
    Tensor::from_vec(rep, &[groups])
}

// ----------------------------------------------------------------------
// The in-place fold
// ----------------------------------------------------------------------

/// What every task of an in-place stage shares: the kernel its keys and
/// arguments evaluate with, whether it selects (a bare scan folds every
/// row), and the columns the program reads — the input's stored columns,
/// remapped by the chain's projections, never copied.
struct InPlace<'c> {
    kern: &'c ChainInstance<'c>,
    filtered: bool,
    cols: Batch,
}

/// Where a key's representative rows are read: the stored column, at
/// global row ids, or the column the kernel packed for the window, at
/// its positions.
enum KeyRows<'c> {
    Stored(&'c EncodedTensor),
    Computed(EncodedTensor),
}

impl<'c> InPlace<'c> {
    /// The stage's in-place form, or why it folds gathered windows. Over
    /// a chain: the barrier hand-off's decline, the kernel bailing on the
    /// chain's output columns, or a program [`decline`] refuses (`None`
    /// when no kernel runs the chain — its own note already says why).
    /// Over a bare scan, which hands nothing over: kernels off, or a
    /// refused program — `None` either way.
    fn of<'p>(
        input: &Batch,
        chain: &'c ChainRun<'p>,
        prog: &AggProgram<'_>,
        empty: &'c ChainInstance<'_>,
        ctx: &ExecContext,
    ) -> Result<InPlace<'c>, Option<Reason<'p>>> {
        if chain.ops.is_empty() {
            let cols = input.clone();
            return match ctx.chain_kernels && decline(prog, &cols, ctx).is_ok() {
                true => Ok(InPlace {
                    kern: empty,
                    filtered: false,
                    cols,
                }),
                false => Err(None),
            };
        }
        // No kernel runs the chain: its own note already says why.
        chain.kern().ok_or(None)?;
        let kern = chain.selection_kernel(input, ctx).map_err(Some)?;
        let cols = kern
            .selection_cols(input)
            .ok_or(Some(Reason::KernelBailout))?;
        decline(prog, &cols, ctx).map_err(Some)?;
        Ok(InPlace {
            kern,
            filtered: true,
            cols,
        })
    }

    /// Select window `w` of the stage's input `src` and fold what it
    /// keeps ([`Self::fold_window`]). A window the zone maps proved keeps
    /// every row, so it folds with no selection, as a bare scan's does —
    /// bitwise the fold under an all-true mask. `Ok(None)` = the kernel
    /// bailed, and the caller re-runs the window on the interpreter.
    fn fold(
        &self,
        prog: &AggProgram<'_>,
        src: &Batch,
        w: Window,
        ctx: &ExecContext,
    ) -> Result<Option<Option<PartialAgg>>, ExecError> {
        let (start, end) = (w.start, w.end);
        let sel = match self.filtered && !w.proven {
            false => None,
            true => match self.kern.select_window(src, start, end, ctx) {
                Some(sv) => Some(sv),
                None => return Ok(None),
            },
        };
        self.fold_window(prog, (start, end), sel, ctx)
    }

    /// Fold the rows `sel` keeps of window `start..end` (`None`: every
    /// row) straight out of the stored columns — `Ok(Some(None))` when
    /// none survived, `Ok(None)` when the kernel bailed. A dense
    /// selection folds the window under its mask; a sparse one
    /// ([`chain::HANDOFF_IDX_DIVISOR`]) reads just the survivors by
    /// position. Either way survivors are visited in row order, so the
    /// partial is byte-identical to the interpreter's over the gathered
    /// window. A column key reads its grouping codes where they are
    /// stored and a group's key row at its global row id; computed keys
    /// and arguments are the kernel's ([`ChainInstance::key_window`],
    /// [`ChainInstance::arg_window`]): plain f32 and dictionary windows
    /// borrowed, `i64` widened, compressed columns decoded for the window
    /// only. Only the fold's scratch is allocated, and that is what the
    /// ledger is charged.
    fn fold_window(
        &self,
        prog: &AggProgram<'_>,
        (start, end): (usize, usize),
        sel: Option<SelVec>,
        ctx: &ExecContext,
    ) -> Result<Option<Option<PartialAgg>>, ExecError> {
        let width = end - start;
        let (mask, idx) = match sel {
            _ if width == 0 => return Ok(Some(None)),
            None => (None, None),
            Some(sv) if sv.len() == 0 => return Ok(Some(None)),
            Some(SelVec::Mask(m, n)) if n * chain::HANDOFF_IDX_DIVISOR > width => (Some(m), None),
            Some(sparse) => (None, Some(sparse.into_idx())),
        };
        // The survivors' global row ids: where stored keys are read.
        let at = idx.as_ref().filter(|_| !prog.keys.is_empty()).map(|idx| {
            let ids = idx.iter().map(|&i| (start + i as usize) as i64).collect();
            Tensor::from_vec(ids, &[idx.len()])
        });
        // Scratch of this fold: the window's mask (1 B a row) or its
        // survivors' positions and row ids (12 B), and per visited row
        // each key's grouping codes, the group ids and each argument's
        // values.
        let rows = idx.as_ref().map_or(width, Vec::len);
        let keys = prog.keys.len();
        let per_row = 8 * keys + 4 * usize::from(keys > 0) + 4 * prog.args.len();
        let selection = match (&mask, &idx) {
            (Some(m), _) => m.len(),
            (None, Some(idx)) => idx.len() * 12,
            (None, None) => 0,
        };
        let scratch = (selection + rows * per_row) as u64;
        let _scratch = memory::charge(&ctx.memory, "aggregate scratch", scratch)?;

        let (win, sel) = ((start, end), idx.as_deref());
        let mut key_cols = Vec::with_capacity(keys);
        for k in prog.keys {
            key_cols.push(match &k.expr {
                CompiledExpr::Column(r) => {
                    let col = r.resolve(&self.cols).expect("declined unless it resolves");
                    (stored_codes(col, win, at.as_ref())?, KeyRows::Stored(col))
                }
                e => match self.kern.key_window(e, &self.cols, win, sel, ctx) {
                    Some(col) => (
                        Cow::Owned(exact::key_codes(&col)?.to_vec()),
                        KeyRows::Computed(col),
                    ),
                    None => return Ok(None),
                },
            });
        }
        let mut args = Vec::with_capacity(prog.args.len());
        for (e, reads) in prog.args.iter().zip(&prog.reads) {
            let forms = (reads.count, reads.numeric.is_some());
            match self.kern.arg_window(e, &self.cols, win, sel, forms, ctx) {
                Some(arg) => args.push(arg),
                None => return Ok(None),
            }
        }
        let domain = match &key_cols[..] {
            [(_, KeyRows::Stored(EncodedTensor::Dict { dict, .. }))] => Some(dict.len()),
            _ => None,
        };
        let inputs = Inputs {
            rows,
            codes: key_cols.iter().map(|(codes, _)| codes.as_ref()).collect(),
            domain,
            vals: args.iter().map(|a| a.vals.as_deref()).collect(),
            flags: args.iter().map(|a| a.flags.as_deref()).collect(),
            raws: vec![None; args.len()],
        };
        let partial = fold(prog, &inputs, mask.as_deref(), |reps| {
            let global = reps.map(|p| match &at {
                Some(at) => at.at(p as usize),
                None => (start as i64) + p,
            });
            let read = |(_, rows): &(_, KeyRows<'_>)| match rows {
                KeyRows::Stored(col) => col.select_rows(&global),
                KeyRows::Computed(col) => col.select_rows(reps),
            };
            key_cols.iter().map(read).collect()
        })?;
        Ok(Some(Some(partial)))
    }
}

/// A stored key column's grouping codes at the positions a fold visits —
/// rows `start..end`, or the global rows `at` — read where the column
/// lives: a plain `i64` or dictionary window is its own codes, borrowed;
/// other layouts go through [`exact::key_codes`] for the window, or
/// [`exact::key_codes_at`] at the rows.
fn stored_codes<'c>(
    col: &'c EncodedTensor,
    (start, end): (usize, usize),
    at: Option<&I64Tensor>,
) -> Result<Cow<'c, [i64]>, ExecError> {
    Ok(match (col, at) {
        (_, Some(at)) => Cow::Owned(exact::key_codes_at(col, Some(at))?),
        (EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. }, None) => {
            Cow::Borrowed(&t.data()[start..end])
        }
        (_, None) => Cow::Owned(exact::key_codes(&col.slice_rows(start, end))?.to_vec()),
    })
}

/// Why the in-place fold must not run the program over `cols`: a key or
/// argument reference these columns cannot resolve (the gathered loop
/// raises the proper error), a scalar subquery, or a session UDF — the
/// kernel evaluates neither, and only built-in expressions are known to
/// be indifferent to rows the filter removed.
fn decline(prog: &AggProgram<'_>, cols: &Batch, ctx: &ExecContext) -> Result<(), Reason<'static>> {
    let mut exprs = prog
        .keys
        .iter()
        .map(|k| &k.expr)
        .chain(prog.args.iter().copied());
    let why = exprs.find_map(|e| {
        e.find_map(&mut |node| match node {
            CompiledExpr::Column(r) => r.resolve(cols).is_err().then_some(Reason::UnresolvedColumn),
            CompiledExpr::ScalarSubquery(_) => Some(Reason::ScalarSubquery),
            _ if ctx.udfs.udf_call(node).is_some() => Some(Reason::UdfArgument),
            _ => None,
        })
    });
    why.map_or(Ok(()), Err)
}

/// Combine morsel partials (at least one) into the final grouped batch
/// — one body for any number of partials. The partials' representative
/// key rows, concatenated in morsel order, are grouped by the fold's own
/// rule ([`group_keys`]), so groups come out in lexicographic code
/// order: a shared dictionary keeps its codes through the concatenation,
/// and differing dictionaries re-encode into one order-preserving
/// dictionary (code order is string order). A group's first row in
/// morsel order is its representative. Each partial's states then
/// scatter into one merged state in morsel order — f32 sums add from
/// `0.0`, so a lone partial passes through bit for bit (a
/// round-to-nearest running sum from `+0.0` is never `-0.0`) — and
/// [`finish`] turns that state into output columns, as it does a
/// window's frames ([`window_aggregate`]).
fn merge_partials(prog: &AggProgram<'_>, partials: &[PartialAgg]) -> Result<Batch, ExecError> {
    let keys: Vec<EncodedTensor> = (0..prog.keys.len())
        .map(|ki| {
            let parts: Vec<&EncodedTensor> = partials.iter().map(|p| &p.key_reps[ki]).collect();
            EncodedTensor::concat(&parts)
        })
        .collect();
    let rows = partials.iter().map(|p| p.groups).sum();
    let Groups { ids, groups, .. } = group_keys(&keys, rows)?;

    let mut merged = PartialAgg::identity(prog, groups);
    let mut at = 0;
    for p in partials {
        let into = &ids[at..at + p.groups];
        at += p.groups;
        let scatter = into
            .iter()
            .enumerate()
            .map(|(i, &g)| (g as usize, g as usize, i));
        merged.absorb(p, scatter);
    }

    let mut out = Batch::new();
    let reps = first_rows(&ids, groups, groups);
    for (key, col) in prog.keys.iter().zip(&keys) {
        out.push(key.name.clone(), col.select_rows(&reps));
    }
    for (agg, col) in prog.aggregates.iter().zip(finish(prog, &merged)) {
        out.push(agg.output.clone(), col);
    }
    Ok(out)
}

/// The one place an aggregate function is turned into an output column,
/// for GROUP BY's merged groups and a window's frames alike: one column
/// per aggregate, each reading its accumulator (COUNT(*) the group
/// size).
fn finish(prog: &AggProgram<'_>, state: &PartialAgg) -> Vec<EncodedTensor> {
    let (counts, groups) = (&state.counts, state.groups);
    let ints = |v: &Vec<i64>| EncodedTensor::I64(Tensor::from_vec(v.clone(), &[groups]));
    let floats = |v: Vec<f32>| EncodedTensor::F32(Tensor::from_vec(v, &[groups]));
    let column = |agg: &PhysAggregate, acc: Option<usize>| match acc.map(|a| &state.accs[a]) {
        None => ints(counts),
        Some(AccColumn::Count(c)) => ints(c),
        Some(AccColumn::Sum(s)) if agg.func == AggFunc::Avg => {
            floats(s.iter().zip(counts).map(|(&s, &c)| s / c as f32).collect())
        }
        Some(AccColumn::Sum(v) | AccColumn::Min(v) | AccColumn::Max(v)) => floats(v.clone()),
        Some(AccColumn::Moments { sum, sumsq }) => {
            let is_stddev = agg.func == AggFunc::Stddev;
            // Sample variance via the sum-of-squares identity, in f64
            // for numeric robustness; singleton groups yield 0 in
            // this NULL-free dialect.
            let finish = |((&sum, &sumsq), &count): ((&f64, &f64), &i64)| {
                let c = count as f64;
                let var = match c <= 1.0 {
                    true => 0.0,
                    false => ((sumsq - sum * sum / c) / (c - 1.0)).max(0.0),
                };
                (if is_stddev { var.sqrt() } else { var }) as f32
            };
            floats(sum.iter().zip(sumsq).zip(counts).map(finish).collect())
        }
    };
    let aggregates = prog.aggregates.iter().zip(&prog.outs);
    aggregates.map(|(agg, &acc)| column(agg, acc)).collect()
}

/// One window aggregate over `batch`, one value per row — the rule:
/// without ORDER BY, a window aggregate is the GROUP BY fold of its
/// partition; with ORDER BY, it is the ordered combine of the peer-group
/// folds up to and including the row's peer group (SQL's default `RANGE
/// UNBOUNDED PRECEDING` frame). COUNT(DISTINCT) counts distinct
/// [`exact::key_codes`]. `peers` numbers each row's peer group in window
/// order (partitions contiguous) and `opens[g]` marks the peer groups
/// that open a partition; without ORDER BY each partition is one peer
/// group. The program is GROUP BY's with no keys, its argument evaluated
/// by [`Evaluated::of`] (so payload and string columns raise GROUP BY's
/// errors) and folded per peer group by [`fold_groups`], a value
/// counting for COUNT(DISTINCT) in the first peer group of its partition
/// that holds it. Frames chain in window order by the combine's
/// arithmetic ([`PartialAgg::absorb`]) from the identity, so a partition
/// of one peer group is exactly GROUP BY's single-partial merge, and
/// [`finish`] turns frames into values.
pub(crate) fn window_aggregate(
    batch: &Batch,
    agg: &PhysAggregate,
    peers: &[u32],
    opens: &[bool],
    ctx: &ExecContext,
) -> Result<EncodedTensor, ExecError> {
    let prog = AggProgram::compile(&[], std::slice::from_ref(agg))?;
    let ev = Evaluated::of(&prog, batch, ctx)?;
    let parts: Vec<u32> = (opens.iter())
        .scan(0, |part, &open| {
            *part += u32::from(open);
            Some(*part)
        })
        .collect();
    let scope: Vec<u32> = peers.iter().map(|&g| parts[g as usize]).collect();
    let groups = opens.len();
    let inputs = ev.inputs(batch.rows());
    let folded = fold_groups(&prog, &inputs, peers, groups, Some(&scope), None)?;
    let mut frames = PartialAgg::identity(&prog, groups);
    let chain = |g: usize| (g, if opens[g] { g } else { g - 1 }, g);
    frames.absorb(&folded, (0..groups).map(chain));
    let rows = peers.iter().map(|&g| i64::from(g)).collect();
    let col = finish(&prog, &frames).pop().expect("one aggregate");
    Ok(col.select_rows(&Tensor::from_vec(rows, &[peers.len()])))
}

#[cfg(test)]
mod tests {
    use super::super::tests::setup;
    use super::*;
    use crate::physical::{lower, PhysicalPlan};
    use crate::udf::UdfRegistry;
    use tdp_sql::plan::{build_plan, PlannerContext};
    use tdp_sql::{optimizer, parse};
    use tdp_storage::{Catalog, TableBuilder};

    /// An f32 counter — what `ones.segment_sum(..)` was — stops at
    /// 2²⁴; the fold counts rows and trues in i64. Seeded just below the
    /// boundary, so no 16M-row input is needed.
    #[test]
    fn counts_pass_the_f32_integer_limit() {
        const EDGE: i64 = 1 << 24;
        let flags = [true, false, true, true];
        let (mut rows, mut trues) = ([EDGE - 1], [EDGE - 1]);
        let mut fold = Fold::over(&mut rows);
        fold.trues.push((&flags, &mut trues));
        fold.run(&[0, 0, 0, 0]);
        assert_eq!((rows, trues), ([EDGE + 3], [EDGE + 2]));

        let mut f32_counter = (EDGE - 1) as f32;
        for _ in 0..4 {
            f32_counter += 1.0;
        }
        assert_eq!(f32_counter as i64, EDGE, "the counter this replaced");
    }

    /// Bit patterns of one aggregate's partial state, per group.
    type StateBits = Vec<u64>;

    /// How a NaN state compares. `Exact` everywhere but against the
    /// `segment_sum` reference of the ungrouped plain-column statement:
    /// its `VARIANCE(x)` adds NaNs of both signs (the column's `+NaN`,
    /// and the default NaN of `inf + -inf`), which of the two `NaN + NaN`
    /// keeps follows the operand order the compiler emitted for that
    /// loop, and the reference's loop is not the fold's.
    #[derive(Clone, Copy)]
    enum Nan {
        Exact,
        Any,
    }

    impl Nan {
        fn f32(self, v: f32) -> u64 {
            match self {
                Nan::Any if v.is_nan() => f32::NAN.to_bits() as u64,
                _ => v.to_bits() as u64,
            }
        }

        fn f64(self, v: f64) -> u64 {
            match self {
                Nan::Any if v.is_nan() => f64::NAN.to_bits(),
                _ => v.to_bits(),
            }
        }
    }

    /// The parent commit's partial-aggregation arithmetic, kept as the
    /// byte-identity reference: one `segment_sum` scatter pass (or row
    /// loop) per aggregate over the dense batch.
    fn reference_partial(
        batch: &Batch,
        keys: &[PhysKey],
        aggregates: &[PhysAggregate],
        ctx: &ExecContext,
        nan: Nan,
    ) -> Vec<StateBits> {
        let n = batch.rows();
        let codes: Vec<I64Tensor> = keys
            .iter()
            .map(|k| match eval_expr(&k.expr, batch, ctx).unwrap() {
                Value::Column(c) => exact::key_codes(&c).unwrap(),
                other => panic!("key {other:?}"),
            })
            .collect();
        let (ids, groups) = if codes.is_empty() {
            (Tensor::from_vec(vec![0i64; n], &[n]), 1)
        } else {
            // Ids come from `group_ids`, itself proptested against the
            // sort-based reference in `tdp_tensor::sort`.
            let (ids, distinct) = tdp_tensor::sort::group_ids(&codes.iter().collect::<Vec<_>>());
            let groups = distinct.shape()[0];
            (ids, groups)
        };
        let f32_bits = |t: F32Tensor| t.data().iter().map(|&v| nan.f32(v)).collect();
        aggregates
            .iter()
            .map(|agg| {
                let vals = || {
                    eval_expr(agg.arg.as_ref().unwrap(), batch, ctx)
                        .unwrap()
                        .into_f32_column(n)
                        .unwrap()
                };
                match agg.func {
                    // COUNT(bool expr) counts trues; anything else, rows.
                    AggFunc::Count => {
                        let flags = agg.arg.as_ref().and_then(|e| {
                            match eval_expr(e, batch, ctx).unwrap() {
                                Value::Column(EncodedTensor::Bool(m)) => Some(m),
                                _ => None,
                            }
                        });
                        let ones = match flags {
                            Some(m) => {
                                let trues = m.data().iter().map(|&b| b as u8 as f32).collect();
                                F32Tensor::from_vec(trues, &[n])
                            }
                            None => F32Tensor::ones(&[n]),
                        };
                        let counts = ones.segment_sum(&ids, groups);
                        counts.data().iter().map(|&c| c as i64 as u64).collect()
                    }
                    AggFunc::Sum | AggFunc::Avg => f32_bits(vals().segment_sum(&ids, groups)),
                    AggFunc::Min | AggFunc::Max => {
                        let is_min = agg.func == AggFunc::Min;
                        let mut acc = vec![
                            if is_min {
                                f32::INFINITY
                            } else {
                                f32::NEG_INFINITY
                            };
                            groups
                        ];
                        let vals = vals();
                        for (row, &g) in ids.data().iter().enumerate() {
                            let (v, slot) = (vals.at(row), &mut acc[g as usize]);
                            if (is_min && v < *slot) || (!is_min && v > *slot) {
                                *slot = v;
                            }
                        }
                        acc.iter().map(|&v| nan.f32(v)).collect()
                    }
                    AggFunc::Variance | AggFunc::Stddev => {
                        let (mut sum, mut sumsq) = (vec![0.0f64; groups], vec![0.0f64; groups]);
                        let vals = vals();
                        for (row, &g) in ids.data().iter().enumerate() {
                            let v = vals.at(row) as f64;
                            sum[g as usize] += v;
                            sumsq[g as usize] += v * v;
                        }
                        sum.iter().chain(&sumsq).map(|&v| nan.f64(v)).collect()
                    }
                    AggFunc::CountDistinct => unreachable!("not a morsel-parallel aggregate"),
                }
            })
            .collect()
    }

    /// The same layout out of a fused partial.
    fn partial_bits(prog: &AggProgram<'_>, p: &PartialAgg, nan: Nan) -> Vec<StateBits> {
        prog.outs
            .iter()
            .map(|out| match out.map(|acc| &p.accs[acc]) {
                None => p.counts.iter().map(|&c| c as u64).collect(),
                Some(AccColumn::Count(c)) => c.iter().map(|&c| c as u64).collect(),
                Some(AccColumn::Sum(v) | AccColumn::Min(v) | AccColumn::Max(v)) => {
                    v.iter().map(|&v| nan.f32(v)).collect()
                }
                Some(AccColumn::Moments { sum, sumsq }) => {
                    sum.iter().chain(sumsq).map(|&v| nan.f64(v)).collect()
                }
            })
            .collect()
    }

    /// Rows of the corpus table.
    const N: usize = 257;

    /// The corpus table `t`: `x` holds the floats where order and
    /// representation show — NaN, ±inf, −0.0, denormals, and magnitudes
    /// nine decades apart; `y` is finite, so its sums are not all NaN;
    /// `k` is an i64 key too wide for the direct-index table, `flag` a
    /// dictionary key; `z` meets NaNs of both signs and payloads with
    /// the `inf + -inf` a sum makes its own NaN from.
    fn corpus_catalog() -> Catalog {
        let special = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            -f32::MAX,
        ];
        let x: Vec<f32> = (0..N)
            .map(|i| match i % 11 {
                0 => special[(i / 11) % special.len()],
                _ => ((i * 7919) % 1000) as f32 * 10f32.powi(i as i32 % 9 - 4) - 3.0,
            })
            .collect();
        let y: Vec<f32> = (0..N)
            .map(|i| ((i * 104_729) % 977) as f32 * 10f32.powi(i as i32 % 7 - 3))
            .collect();
        let flags: Vec<String> = (0..N).map(|i| format!("f{}", (i * i) % 3)).collect();
        let signed = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::NAN,
            -0.0,
            f32::from_bits(0x7FC0_0001),
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::from_bits(0xFFC0_0002),
            0.0,
        ];
        let z: Vec<f32> = (0..N)
            .map(|i| match i % 7 {
                0 => signed[(i / 7) % signed.len()],
                _ => ((i * 31) % 97) as f32 - 48.5,
            })
            .collect();
        let catalog = Catalog::new();
        catalog.register(
            TableBuilder::new()
                .col_f32("x", x)
                .col_f32("y", y)
                .col_i64(
                    "k",
                    (0..N).map(|i| (i % 5) as i64 * 1_000_000_007 - 9).collect(),
                )
                .col_str("flag", &flags)
                .col_i64("q", (0..N).map(|i| (i % 50) as i64).collect())
                .col_f32("z", z)
                .build("t"),
        );
        catalog
    }

    /// Aggregate statements over the corpus table, each with how its NaN
    /// states compare against the `segment_sum` reference.
    const STATEMENTS: [(&str, Nan); 5] = [
        // Q1 shape: dict key, one computed and one repeated argument.
        (
            "SELECT flag, SUM(q), SUM(y), SUM(y * (1 - x)), AVG(x), COUNT(*) \
             FROM t GROUP BY flag",
            Nan::Exact,
        ),
        // Two keys (wide-span i64 forces the hash arm, dict rides along).
        (
            "SELECT k, flag, SUM(x), MIN(x), MAX(x), VARIANCE(y), STDDEV(y), AVG(y) \
             FROM t GROUP BY k, flag",
            Nan::Exact,
        ),
        // The wide-span key alone: the hash arm in every window of more
        // than a few rows, and in the combine.
        (
            "SELECT k, COUNT(*), SUM(y), MIN(x), MAX(x), AVG(y) FROM t GROUP BY k",
            Nan::Exact,
        ),
        // Ungrouped, computed.
        ("SELECT SUM(x * 2), MAX(y - x), COUNT(*) FROM t", Nan::Exact),
        // Ungrouped over plain columns: every accumulator kind, and
        // the one f64 sum fed NaNs of both signs.
        (
            "SELECT COUNT(*), COUNT(x > 0), COUNT(q), SUM(x), AVG(y), MIN(x), MAX(x), \
             MIN(y), VARIANCE(x), STDDEV(y), SUM(q) FROM t",
            Nan::Any,
        ),
    ];

    /// The aggregate root of `sql`, lowered against `catalog`.
    fn aggregate_root(
        sql: &str,
        catalog: &Catalog,
        udfs: &UdfRegistry,
    ) -> (Vec<PhysKey>, Vec<PhysAggregate>) {
        let plan = optimizer::optimize(
            build_plan(&parse(sql).unwrap(), &PlannerContext::default()).unwrap(),
        );
        match lower(&plan, catalog, udfs).unwrap() {
            PhysicalPlan::Aggregate {
                keys, aggregates, ..
            } => (keys, aggregates),
            _ => panic!("expected an aggregate root for {sql}"),
        }
    }

    /// Fused partials are bit-for-bit the `segment_sum` reference's on
    /// the corpus ([`corpus_catalog`]) — over the dense batch, under a
    /// mask (against the reference over the *gathered* survivors), and
    /// over survivors read by index. Zero-key programs over plain
    /// columns are in the corpus too, down to a morsel no row of which
    /// survives and one whose only survivors are NaN (MIN/MAX stay ±inf,
    /// the sums go NaN). Whatever the statement, the masked fold and the
    /// fold over survivors read by index agree to the bit, NaN sign and
    /// payload included — and so does the in-place fold over the stored
    /// columns, in both its arms and unfiltered, over the whole table and
    /// over a window that starts mid-table, key rows included.
    #[test]
    fn fused_partials_are_bitwise_the_segment_sum_reference() {
        let n = N;
        let catalog = corpus_catalog();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let batch = exact::scan_table("t", None, &ctx).unwrap();

        for (sql, nan) in STATEMENTS {
            let (keys, aggregates) = aggregate_root(sql, &catalog, &udfs);
            let (keys, aggregates) = (&keys, &aggregates);
            let prog = AggProgram::compile(keys, aggregates).unwrap();

            let dense = partial_aggregate(&prog, &batch, None, &ctx).unwrap();
            assert_eq!(
                partial_bits(&prog, &dense, nan),
                reference_partial(&batch, keys, aggregates, &ctx, nan),
                "dense: {sql}"
            );

            let x = batch.column("x").unwrap().decode_f32();
            let nan_rows: Vec<bool> = x.data().iter().map(|v| v.is_nan()).collect();
            let every = |m: usize| (0..n).map(|i| i % m != 0).collect::<Vec<bool>>();
            let masks = [
                ("none", vec![false; n]),
                ("row 0", (0..n).map(|i| i == 0).collect()),
                ("nan only", nan_rows),
                ("1/2", every(2)),
                ("2/3", every(3)),
                ("99%", every(100)),
            ];
            for (name, keep) in &masks {
                let gathered = exact::filter_batch(&batch, &Tensor::from_vec(keep.clone(), &[n]));
                let want = reference_partial(&gathered, keys, aggregates, &ctx, nan);
                let masked = partial_aggregate(&prog, &batch, Some(keep), &ctx).unwrap();
                assert_eq!(
                    partial_bits(&prog, &masked, nan),
                    want,
                    "mask/{name}: {sql}"
                );
                let ids: Vec<i64> = (0..n as i64).filter(|&i| keep[i as usize]).collect();
                let picked =
                    exact::select_batch(&batch, &Tensor::from_vec(ids.clone(), &[ids.len()]));
                let sparse = partial_aggregate(&prog, &picked, None, &ctx).unwrap();
                assert_eq!(partial_bits(&prog, &sparse, nan), want, "idx/{name}: {sql}");
                assert_eq!(
                    partial_bits(&prog, &masked, Nan::Exact),
                    partial_bits(&prog, &sparse, Nan::Exact),
                    "mask vs idx/{name}: {sql}"
                );
                for (start, end) in [(0, n), (13, 200)] {
                    let keep = &keep[start..end];
                    let window = batch.slice_rows(start, end);
                    let oracle = partial_aggregate(&prog, &window, Some(keep), &ctx).unwrap();
                    let kept: Vec<u32> = (0..end - start)
                        .filter(|&i| keep[i])
                        .map(|i| i as u32)
                        .collect();
                    let arms = [SelVec::from_mask(keep.to_vec()), SelVec::Idx(kept.clone())];
                    for sel in arms {
                        let what = format!("in place/{name} {start}..{end}: {sql}");
                        match in_place(&prog, &batch, (start, end), Some(sel), &ctx) {
                            Some(p) => assert_same_partial(&prog, &p, &oracle, &what),
                            None => assert!(kept.is_empty(), "{what}"),
                        }
                    }
                }
            }
            for (start, end) in [(0, n), (13, 200)] {
                let oracle = partial_aggregate(&prog, &batch.slice_rows(start, end), None, &ctx);
                let p = in_place(&prog, &batch, (start, end), None, &ctx).expect("rows");
                let what = format!("in place/unfiltered {start}..{end}: {sql}");
                assert_same_partial(&prog, &p, &oracle.unwrap(), &what);
            }
        }
    }

    /// The in-place fold of window `win` of `batch`'s stored columns,
    /// over the rows `sel` keeps (`None`: a bare scan's every row).
    fn in_place(
        prog: &AggProgram<'_>,
        batch: &Batch,
        win: (usize, usize),
        sel: Option<SelVec>,
        ctx: &ExecContext,
    ) -> Option<PartialAgg> {
        let empty = ChainInstance::empty(ctx);
        let form = InPlace {
            kern: &empty,
            filtered: sel.is_some(),
            cols: batch.clone(),
        };
        let folded = form.fold_window(prog, win, sel, ctx).unwrap();
        folded.expect("the corpus never bails the kernel")
    }

    /// Two partials agree to the bit: states, NaNs included, and key
    /// rows with their encodings.
    fn assert_same_partial(prog: &AggProgram<'_>, got: &PartialAgg, want: &PartialAgg, what: &str) {
        let reps = |p: &PartialAgg| {
            let rows = |c: &EncodedTensor| (c.kind(), c.decode_strings());
            p.key_reps.iter().map(rows).collect::<Vec<_>>()
        };
        assert_eq!(
            partial_bits(prog, got, Nan::Exact),
            partial_bits(prog, want, Nan::Exact),
            "{what}"
        );
        assert_eq!(reps(got), reps(want), "key rows: {what}");
        assert_eq!(got.hashed, want.hashed, "grouping arm: {what}");
    }

    /// Today's interleaved sweep over one group, kept as the reference of
    /// the zero-key fold: [`fold_groups`] over ids that send the rows a
    /// mask deselects to the spare slot.
    fn interleaved_one(
        prog: &AggProgram<'_>,
        inp: &Inputs<'_>,
        mask: Option<&[bool]>,
    ) -> PartialAgg {
        let ids: Vec<u32> = match mask {
            None => vec![0; inp.rows],
            Some(m) => m.iter().map(|&keep| u32::from(!keep)).collect(),
        };
        fold_groups(prog, inp, &ids, 1, None, mask).unwrap()
    }

    /// The zero-key fold keeps each running value in a local
    /// ([`fold_one`]) and is bit for bit the interleaved sweep
    /// ([`interleaved_one`]) on the corpus — NaNs of both signs and
    /// payloads meeting in a sum, ±inf making a NaN of their own, −0.0 —
    /// under no mask, under masks keeping row 0, the NaN rows only, every
    /// other row and 99%, and over the same survivors gathered by index.
    #[test]
    fn one_group_fold_in_locals_is_bitwise_the_interleaved_sweep() {
        let n = N;
        let catalog = corpus_catalog();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let batch = exact::scan_table("t", None, &ctx).unwrap();
        let z = batch.column("z").unwrap().decode_f32();
        let every = |m: usize| (0..n).map(|i| i % m != 0).collect::<Vec<bool>>();
        let masks = [
            ("row 0", (0..n).map(|i| i == 0).collect()),
            ("nan only", z.data().iter().map(|v| v.is_nan()).collect()),
            ("1/2", every(2)),
            ("99%", every(100)),
        ];
        let signed = "SELECT COUNT(*), COUNT(z > 0), SUM(z), AVG(z), MIN(z), MAX(z), \
                      VARIANCE(z), STDDEV(z), SUM(z * 2 + x), MAX(x - z) FROM t";
        let zero_key = STATEMENTS
            .iter()
            .map(|(sql, _)| *sql)
            .filter(|sql| !sql.contains("GROUP"));
        for sql in zero_key.chain([signed]) {
            let (keys, aggregates) = aggregate_root(sql, &catalog, &udfs);
            let prog = AggProgram::compile(&keys, &aggregates).unwrap();
            let check = |batch: &Batch, mask: Option<&[bool]>, what: &str| {
                let ev = Evaluated::of(&prog, batch, &ctx).unwrap();
                let inp = ev.inputs(batch.rows());
                let local = fold_one(&prog, &inp, mask).unwrap();
                let reference = interleaved_one(&prog, &inp, mask);
                assert_eq!(
                    partial_bits(&prog, &local, Nan::Exact),
                    partial_bits(&prog, &reference, Nan::Exact),
                    "{what}: {sql}"
                );
            };
            check(&batch, None, "no mask");
            for (name, keep) in &masks {
                check(&batch, Some(keep), &format!("mask/{name}"));
                let ids: Vec<i64> = (0..n as i64).filter(|&i| keep[i as usize]).collect();
                let picked =
                    exact::select_batch(&batch, &Tensor::from_vec(ids.clone(), &[ids.len()]));
                check(&picked, None, &format!("idx/{name}"));
            }
        }
    }

    /// The code-indexed fold ([`fold_coded`]) is bit for bit the
    /// `group_rows` fold of the same codes — states, group order, group
    /// count and representatives — on the corpus's NaNs of both signs and
    /// payloads, ±0 and ±inf, over one to five sums (one chunk of each
    /// width and a chunk past it) beside every other accumulator kind. The
    /// key is `flag`'s codes spread over a domain of ten (`3c + 1`), so
    /// seven entries are never used; the masks keep every row, none,
    /// row 0 only, the NaN rows only, every other row, every row but a
    /// whole group (a window where a group is absent) and 99%; and each
    /// mask's survivors are also folded read by index, with no mask.
    #[test]
    fn code_indexed_fold_is_bitwise_the_group_rows_fold() {
        let n = N;
        let catalog = corpus_catalog();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let batch = exact::scan_table("t", None, &ctx).unwrap();
        const DOMAIN: usize = 10;
        let statements = [
            "SELECT flag, SUM(z) FROM t GROUP BY flag",
            "SELECT flag, SUM(x), SUM(z), MIN(z), MAX(x) FROM t GROUP BY flag",
            "SELECT flag, SUM(q), SUM(y), SUM(y * (1 - x)), AVG(x), COUNT(*) FROM t GROUP BY flag",
            "SELECT flag, SUM(x), SUM(z), AVG(y), SUM(z * 2 + x), SUM(q), MIN(x), MAX(z), \
             VARIANCE(z), STDDEV(x), COUNT(x > 0), COUNT(*) FROM t GROUP BY flag",
        ];
        let x = batch.column("x").unwrap().decode_f32();
        let every = |m: usize| (0..n).map(|i| i % m != 0).collect::<Vec<bool>>();
        for sql in statements {
            let (keys, aggregates) = aggregate_root(sql, &catalog, &udfs);
            let prog = AggProgram::compile(&keys, &aggregates).unwrap();
            let fold_both = |b: &Batch, mask: Option<&[bool]>, what: &str| {
                let ev = Evaluated::of(&prog, b, &ctx).unwrap();
                let spread: Vec<i64> = ev.codes[0].data().iter().map(|&c| 3 * c + 1).collect();
                let mut inp = ev.inputs(b.rows());
                inp.codes = vec![&spread];
                let reps = |reps: &I64Tensor| vec![EncodedTensor::I64(reps.clone())];
                let plain = fold(&prog, &inp, mask, reps).unwrap();
                inp.domain = Some(DOMAIN);
                let coded = fold(&prog, &inp, mask, reps).unwrap();
                assert!(coded.coded && !plain.coded, "{what}: {sql}");
                assert_eq!(coded.groups, plain.groups, "{what}: {sql}");
                assert_same_partial(&prog, &coded, &plain, &format!("{what}: {sql}"));
                coded.groups
            };
            let flag0: Vec<bool> = ev_codes(&prog, &batch, &ctx)
                .iter()
                .map(|&c| c != 0)
                .collect();
            let masks = [
                ("all", vec![true; n]),
                ("none", vec![false; n]),
                ("row 0", (0..n).map(|i| i == 0).collect()),
                ("nan only", x.data().iter().map(|v| v.is_nan()).collect()),
                ("1/2", every(2)),
                ("group absent", flag0),
                ("99%", every(100)),
            ];
            assert_eq!(fold_both(&batch, None, "no mask"), 2, "{sql}");
            for (name, keep) in &masks {
                let groups = fold_both(&batch, Some(keep), &format!("mask/{name}"));
                let ids: Vec<i64> = (0..n as i64).filter(|&i| keep[i as usize]).collect();
                let picked =
                    exact::select_batch(&batch, &Tensor::from_vec(ids.clone(), &[ids.len()]));
                if !ids.is_empty() {
                    assert_eq!(fold_both(&picked, None, &format!("idx/{name}")), groups);
                }
                let expect = match *name {
                    "none" => 0,
                    "row 0" | "group absent" => 1,
                    _ => groups,
                };
                assert_eq!(groups, expect, "mask/{name}: {sql}");
            }
        }
    }

    /// The key's grouping codes of `prog` over `batch` (one key).
    fn ev_codes(prog: &AggProgram<'_>, batch: &Batch, ctx: &ExecContext) -> Vec<i64> {
        Evaluated::of(prog, batch, ctx).unwrap().codes[0].to_vec()
    }

    /// One key column's identity in the ordered-map merge: the decoded
    /// string of a dictionary column, the grouping code of anything else.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum RefKey {
        Int(i64),
        Str(String),
    }

    #[derive(Clone, Copy)]
    enum RefAcc {
        Count(i64),
        Sum(f32),
        Min(f32),
        Max(f32),
        Moments { sum: f64, sumsq: f64 },
    }

    struct RefGroup {
        /// `(partial index, group index)` of the first-seen representative.
        rep: (usize, usize),
        count: i64,
        accs: Vec<RefAcc>,
    }

    /// The combine the `group_rows` one replaced, kept as its reference:
    /// one insert per partial group into a map ordered by per-key
    /// identities ([`RefKey`]; a sorted vector here), the first-seen
    /// representative, and scalar accumulators added in morsel order.
    fn ordered_map_merge(prog: &AggProgram<'_>, partials: &[PartialAgg]) -> Batch {
        let mut merged: Vec<(Vec<RefKey>, RefGroup)> = Vec::new();
        for (pi, p) in partials.iter().enumerate() {
            let idents: Vec<Vec<RefKey>> = p
                .key_reps
                .iter()
                .map(|col| {
                    let ints = exact::key_codes(col).unwrap();
                    (0..p.groups)
                        .map(|g| match col {
                            EncodedTensor::Dict { codes, dict } => {
                                RefKey::Str(dict.decode_one(codes.at(g)).to_owned())
                            }
                            _ => RefKey::Int(ints.at(g)),
                        })
                        .collect()
                })
                .collect();
            for g in 0..p.groups {
                let key: Vec<RefKey> = idents.iter().map(|col| col[g].clone()).collect();
                let at = merged
                    .binary_search_by(|(k, _)| k.cmp(&key))
                    .unwrap_or_else(|at| {
                        let accs = p
                            .accs
                            .iter()
                            .map(|a| match a {
                                AccColumn::Count(_) => RefAcc::Count(0),
                                AccColumn::Sum(_) => RefAcc::Sum(0.0),
                                AccColumn::Min(_) => RefAcc::Min(f32::INFINITY),
                                AccColumn::Max(_) => RefAcc::Max(f32::NEG_INFINITY),
                                AccColumn::Moments { .. } => RefAcc::Moments {
                                    sum: 0.0,
                                    sumsq: 0.0,
                                },
                            })
                            .collect();
                        let group = RefGroup {
                            rep: (pi, g),
                            count: 0,
                            accs,
                        };
                        merged.insert(at, (key.clone(), group));
                        at
                    });
                let entry = &mut merged[at].1;
                entry.count += p.counts[g];
                for (acc, col) in entry.accs.iter_mut().zip(&p.accs) {
                    match (acc, col) {
                        (RefAcc::Count(t), AccColumn::Count(v)) => *t += v[g],
                        (RefAcc::Sum(t), AccColumn::Sum(v)) => *t += v[g],
                        (RefAcc::Min(t), AccColumn::Min(v)) => *t = t.min(v[g]),
                        (RefAcc::Max(t), AccColumn::Max(v)) => *t = t.max(v[g]),
                        (
                            RefAcc::Moments { sum, sumsq },
                            AccColumn::Moments { sum: s, sumsq: q },
                        ) => {
                            *sum += s[g];
                            *sumsq += q[g];
                        }
                        _ => unreachable!("one accumulator layout"),
                    }
                }
            }
        }

        let groups: Vec<&RefGroup> = merged.iter().map(|(_, m)| m).collect();
        let num_groups = groups.len();
        let mut out = Batch::new();
        let mut offsets = Vec::with_capacity(partials.len());
        let mut total = 0usize;
        for p in partials {
            offsets.push(total);
            total += p.groups;
        }
        for (ki, key) in prog.keys.iter().enumerate() {
            let parts: Vec<&EncodedTensor> = partials.iter().map(|p| &p.key_reps[ki]).collect();
            let combined = EncodedTensor::concat(&parts);
            let idx: Vec<i64> = groups
                .iter()
                .map(|m| (offsets[m.rep.0] + m.rep.1) as i64)
                .collect();
            out.push(
                key.name.clone(),
                combined.select_rows(&Tensor::from_vec(idx, &[num_groups])),
            );
        }
        for (agg, acc) in prog.aggregates.iter().zip(&prog.outs) {
            let f32_col = |f: &dyn Fn(&RefGroup, RefAcc) -> f32| {
                let ai = acc.expect("only COUNT(*) has no accumulator");
                EncodedTensor::F32(Tensor::from_vec(
                    groups.iter().map(|m| f(m, m.accs[ai])).collect(),
                    &[num_groups],
                ))
            };
            let col = match agg.func {
                AggFunc::Count | AggFunc::CountDistinct => EncodedTensor::I64(Tensor::from_vec(
                    groups
                        .iter()
                        .map(|m| match acc.map(|ai| m.accs[ai]) {
                            None => m.count,
                            Some(RefAcc::Count(v)) => v,
                            Some(_) => unreachable!(),
                        })
                        .collect(),
                    &[num_groups],
                )),
                AggFunc::Sum => f32_col(&|_, a| match a {
                    RefAcc::Sum(v) => v,
                    _ => unreachable!(),
                }),
                AggFunc::Avg => f32_col(&|m, a| match a {
                    RefAcc::Sum(v) => v / m.count as f32,
                    _ => unreachable!(),
                }),
                AggFunc::Min => f32_col(&|_, a| match a {
                    RefAcc::Min(v) => v,
                    _ => unreachable!(),
                }),
                AggFunc::Max => f32_col(&|_, a| match a {
                    RefAcc::Max(v) => v,
                    _ => unreachable!(),
                }),
                AggFunc::Variance | AggFunc::Stddev => {
                    let is_stddev = agg.func == AggFunc::Stddev;
                    f32_col(&|m, a| match a {
                        RefAcc::Moments { sum, sumsq } => {
                            let c = m.count as f64;
                            if c <= 1.0 {
                                return 0.0;
                            }
                            let var = ((sumsq - sum * sum / c) / (c - 1.0)).max(0.0);
                            if is_stddev {
                                var.sqrt() as f32
                            } else {
                                var as f32
                            }
                        }
                        _ => unreachable!(),
                    })
                }
            };
            out.push(agg.output.clone(), col);
        }
        out
    }

    /// A result column as `(name, encoding, values, string view)`: f32
    /// values as bit patterns, anything else by its integer view
    /// (dictionary codes included).
    type ColumnBits = (String, tdp_encoding::EncodingKind, Vec<u64>, Vec<String>);

    fn batch_bits(b: &Batch, nan: Nan) -> Vec<ColumnBits> {
        b.columns()
            .iter()
            .map(|(name, c)| {
                let bits = match c {
                    EncodedTensor::F32(t) => t.data().iter().map(|&v| nan.f32(v)).collect(),
                    other => other
                        .decode_i64()
                        .data()
                        .iter()
                        .map(|&v| v as u64)
                        .collect(),
                };
                (name.clone(), c.kind(), bits, c.decode_strings())
            })
            .collect()
    }

    /// The combine is bit for bit the ordered-map merge it replaced —
    /// values, NaN as the corpus test compares them, group order, the
    /// representative rows and their encodings — over the corpus cut
    /// into windows of 1, 7, 64 and all rows (1 to 257 partials). Each
    /// cut runs twice: every window's `flag` sharing the table's
    /// dictionary, and every window carrying a dictionary of its own
    /// (which the combine's concatenation re-encodes).
    #[test]
    fn combine_is_bitwise_the_ordered_map_merge() {
        let catalog = corpus_catalog();
        let udfs = UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let batch = exact::scan_table("t", None, &ctx).unwrap();
        let own_dictionary = |w: Batch| {
            let mut out = Batch::new();
            for (name, c) in w.columns() {
                let c = match c {
                    dict @ EncodedTensor::Dict { .. } => {
                        EncodedTensor::from_strings(&dict.decode_strings())
                    }
                    other => other.clone(),
                };
                out.push(name.clone(), c);
            }
            out
        };
        for (sql, nan) in STATEMENTS {
            let (keys, aggregates) = aggregate_root(sql, &catalog, &udfs);
            let prog = AggProgram::compile(&keys, &aggregates).unwrap();
            for rows in [1, 7, 64, N] {
                for own in [false, true] {
                    let partials: Vec<PartialAgg> = (0..N)
                        .step_by(rows)
                        .map(|start| {
                            let w = batch.slice_rows(start, start + rows);
                            let w = if own { own_dictionary(w) } else { w };
                            partial_aggregate(&prog, &w, None, &ctx).unwrap()
                        })
                        .collect();
                    assert_eq!(
                        batch_bits(&merge_partials(&prog, &partials).unwrap(), nan),
                        batch_bits(&ordered_map_merge(&prog, &partials), nan),
                        "{sql}: windows of {rows}, own dictionaries: {own}"
                    );
                }
            }
        }
    }

    #[test]
    fn program_shares_arguments_and_accumulators() {
        let c = setup(10);
        let udfs = UdfRegistry::new();
        let (keys, aggregates) = aggregate_root(
            "SELECT tag, SUM(v), AVG(v), VARIANCE(v), STDDEV(v), SUM(v * k), COUNT(*), \
             COUNT(k) FROM t GROUP BY tag",
            &c,
            &udfs,
        );
        let prog = AggProgram::compile(&keys, &aggregates).unwrap();
        // v, v * k, k — and SUM/AVG share a sum, VARIANCE/STDDEV the moments.
        assert_eq!(prog.args.len(), 3);
        assert_eq!(prog.accs.len(), 4);
        assert_eq!(prog.outs[0], prog.outs[1]);
        assert_eq!(prog.outs[2], prog.outs[3]);
        assert_eq!(prog.outs[5], None, "COUNT(*) reads the group size");
    }
}
