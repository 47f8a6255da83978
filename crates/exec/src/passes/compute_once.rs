//! The compute-once pass.

use tdp_sql::ast::BinOp;

use crate::diff::plan_on_tape;
use crate::physical::{ColumnRef, CompiledExpr, PhysProjectItem, PhysicalPlan};
use crate::udf::{UdfRegistry, Volatility};

/// **A repeated call is computed once.** When a deterministic call off
/// the tape appears both in a filter's predicate and in the operator the
/// filter feeds — an aggregate's keys or arguments, or a projection —
/// a projection under the filter computes it into a slot (`#0`, `#1`, …)
/// and keeps only the input columns read above it, and both uses read
/// that slot. Conjuncts that do not use the call stay in a filter under
/// the projection, so a scan there keeps its zone-map pruner.
///
/// The result is the plan the derived-table form `SELECT … FROM (SELECT
/// f(x) AS s, … FROM t) WHERE s > ?` lowers to, so the executors need
/// nothing new. A plan with no such pair leaves after one read-only walk.
pub(super) fn compute_once(plan: PhysicalPlan, udfs: &UdfRegistry) -> PhysicalPlan {
    if !any_node(&plan, &mut |p| !shared_calls(p, udfs).is_empty()) {
        return plan;
    }
    slot_shared_calls(plan, udfs)
}

fn any_node(plan: &PhysicalPlan, f: &mut impl FnMut(&PhysicalPlan) -> bool) -> bool {
    f(plan) || plan.inputs().into_iter().any(|c| any_node(c, f))
}

fn slot_shared_calls(plan: PhysicalPlan, udfs: &UdfRegistry) -> PhysicalPlan {
    let plan = plan.map_children(|c| slot_shared_calls(c, udfs));
    let calls: Vec<CompiledExpr> = shared_calls(&plan, udfs).into_iter().cloned().collect();
    if calls.is_empty() {
        return plan;
    }
    match plan {
        PhysicalPlan::Aggregate {
            mut keys,
            mut aggregates,
            input,
        } => {
            let above = (keys.iter_mut().map(|k| &mut k.expr))
                .chain(aggregates.iter_mut().filter_map(|a| a.arg.as_mut()))
                .collect();
            let input = Box::new(slot_calls(*input, above, &calls));
            PhysicalPlan::Aggregate {
                keys,
                aggregates,
                input,
            }
        }
        PhysicalPlan::Project { mut items, input } => {
            let above = items.iter_mut().map(|i| &mut i.expr).collect();
            let input = Box::new(slot_calls(*input, above, &calls));
            PhysicalPlan::Project { items, input }
        }
        _ => unreachable!("shared_calls matches only an aggregate or a projection"),
    }
}

/// The calls `plan` could read from a slot: `plan` is an aggregate or a
/// projection over a filter, and each call appears in the filter's
/// predicate and in `plan`'s own expressions — outermost first, each
/// once. Empty when `plan` or anything below it is on the tape, or an
/// expression there reads a column by name (its schema was unknown at
/// lowering, so no slot can be assigned).
fn shared_calls<'p>(plan: &'p PhysicalPlan, udfs: &UdfRegistry) -> Vec<&'p CompiledExpr> {
    let (above, input): (Vec<&CompiledExpr>, _) = match plan {
        PhysicalPlan::Aggregate {
            keys,
            aggregates,
            input,
        } => (
            (keys.iter().map(|k| &k.expr))
                .chain(aggregates.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            input,
        ),
        PhysicalPlan::Project { items, input } => (items.iter().map(|i| &i.expr).collect(), input),
        _ => return Vec::new(),
    };
    let PhysicalPlan::Filter { predicate, .. } = &**input else {
        return Vec::new();
    };
    let mut calls: Vec<&CompiledExpr> = Vec::new();
    predicate.find_map(&mut |e: &'p CompiledExpr| {
        if deterministic_call(e, udfs)
            && !calls.iter().any(|c| contains(c, e))
            && above.iter().any(|a| contains(a, e))
        {
            calls.push(e);
        }
        None::<()>
    });
    let by_name = |e: &CompiledExpr| {
        e.find_map(&mut |c| matches!(c, CompiledExpr::Column(ColumnRef::Name(_))).then_some(()))
            .is_some()
    };
    if calls.is_empty()
        || above.into_iter().chain([predicate]).any(by_name)
        || plan_on_tape(plan, udfs)
    {
        return Vec::new();
    }
    calls
}

/// A call whose every call node is deterministic within one execution:
/// a built-in, or a scalar UDF declared `Immutable` or `Stable`.
fn deterministic_call(e: &CompiledExpr, udfs: &UdfRegistry) -> bool {
    let deterministic = |c: &CompiledExpr| match c {
        CompiledExpr::Udf { name, .. } => {
            (udfs.scalar_spec(name)).is_some_and(|s| s.volatility != Volatility::Volatile)
        }
        CompiledExpr::Builtin { .. } => udfs.udf_call(c).is_none(),
        _ => true,
    };
    matches!(e, CompiledExpr::Udf { .. } | CompiledExpr::Builtin { .. })
        && e.find_map(&mut |c| (!deterministic(c)).then_some(()))
            .is_none()
}

fn contains(hay: &CompiledExpr, needle: &CompiledExpr) -> bool {
    hay.find_map(&mut |e| (e == needle).then_some(())).is_some()
}

/// Rewrite `filter` so that `calls` are computed once, into slots of a
/// projection under it, and point `above` — the consumer's expressions —
/// at those slots.
fn slot_calls(
    filter: PhysicalPlan,
    above: Vec<&mut CompiledExpr>,
    calls: &[CompiledExpr],
) -> PhysicalPlan {
    let PhysicalPlan::Filter { predicate, input } = filter else {
        unreachable!("shared_calls matches only a filter input")
    };
    let mut parts = Vec::new();
    conjuncts(predicate, &mut parts);
    let (using, rest): (Vec<_>, Vec<_>) =
        (parts.into_iter()).partition(|c| calls.iter().any(|call| contains(c, call)));
    // Input columns still read above, in first-use order; their slots
    // follow the calls' in the projection.
    let mut cols = Vec::new();
    let predicate = and_all(using).expect("a shared call comes from the predicate");
    let predicate = to_slots(predicate, calls, &mut cols);
    for e in above {
        *e = to_slots(
            std::mem::replace(e, CompiledExpr::Bool(true)),
            calls,
            &mut cols,
        );
    }
    let input = match and_all(rest) {
        Some(rest) => Box::new(PhysicalPlan::Filter {
            predicate: rest,
            input,
        }),
        None => input,
    };
    let items = (calls.iter().enumerate())
        .map(|(k, call)| PhysProjectItem {
            name: slot_name(k),
            expr: call.clone(),
        })
        .chain(cols.into_iter().map(|(slot, name)| PhysProjectItem {
            name: name.clone(),
            expr: CompiledExpr::Column(ColumnRef::Slot { slot, name }),
        }))
        .collect();
    PhysicalPlan::Filter {
        predicate,
        input: Box::new(PhysicalPlan::Project { items, input }),
    }
}

fn slot_name(k: usize) -> String {
    format!("#{k}")
}

/// `e` over the projection [`slot_calls`] builds: call `k` reads slot
/// `k`, and input column `c` the slot after the calls' where `cols`
/// lists it (appended on first use).
fn to_slots(
    e: CompiledExpr,
    calls: &[CompiledExpr],
    cols: &mut Vec<(usize, String)>,
) -> CompiledExpr {
    if let Some(k) = calls.iter().position(|c| *c == e) {
        return CompiledExpr::Column(ColumnRef::Slot {
            slot: k,
            name: slot_name(k),
        });
    }
    match e {
        CompiledExpr::Column(ColumnRef::Slot { slot, name }) => {
            let i = match cols.iter().position(|(s, _)| *s == slot) {
                Some(i) => i,
                None => {
                    cols.push((slot, name.clone()));
                    cols.len() - 1
                }
            };
            CompiledExpr::Column(ColumnRef::Slot {
                slot: calls.len() + i,
                name,
            })
        }
        e => e.map_children(|c| to_slots(c, calls, cols)),
    }
}

fn conjuncts(e: CompiledExpr, out: &mut Vec<CompiledExpr>) {
    match e {
        CompiledExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            conjuncts(*left, out);
            conjuncts(*right, out);
        }
        e => out.push(e),
    }
}

fn and_all(parts: Vec<CompiledExpr>) -> Option<CompiledExpr> {
    parts
        .into_iter()
        .reduce(|left, right| CompiledExpr::Binary {
            op: BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        })
}
