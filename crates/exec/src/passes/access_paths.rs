//! The access-path pass: how each base-table read reaches its rows.

use tdp_index::Metric;
use tdp_sql::ast::LimitCount;
use tdp_storage::Catalog;

use crate::access::{AnnPath, ChunkPruner};
use crate::physical::{
    ColumnRef, CompiledExpr, PhysOrderKey, PhysProjectItem, PhysicalPlan, ScalarFn, ScanAccess,
};

/// **Each base-table read gets its access path.** A filter directly
/// over a scan gives the scan a zone-map pruner; a top-k the ANN leaf
/// serves becomes [`PhysicalPlan::AnnTopK`]. Every other node, and a scan
/// with no filter above it, is left as lowered.
pub(super) fn access_paths(plan: PhysicalPlan, catalog: &Catalog) -> PhysicalPlan {
    match plan.map_children(|c| access_paths(c, catalog)) {
        PhysicalPlan::Filter {
            predicate,
            mut input,
        } => {
            choose_scan_access(&predicate, &mut input);
            PhysicalPlan::Filter { predicate, input }
        }
        PhysicalPlan::TopK { keys, n, input } => match ann_shape(&keys, &input) {
            Ok(shape) => lower_ann_topk(shape, n, catalog),
            Err(_) => PhysicalPlan::TopK { keys, n, input },
        },
        plan => plan,
    }
}

/// A filter directly over a base-table scan is the zone-map access-path
/// decision point: compile the eligible conjuncts of `predicate` into a
/// pruner for the scan `input` (or record why none were eligible). Any
/// other input is left as is.
fn choose_scan_access(predicate: &CompiledExpr, input: &mut PhysicalPlan) {
    if let PhysicalPlan::Scan { schema, access, .. } = input {
        *access = if schema.is_none() {
            ScanAccess::Unpruned("schema-unresolved")
        } else {
            match ChunkPruner::compile(predicate) {
                Ok(pruner) => ScanAccess::Pruned(pruner),
                Err(reason) => ScanAccess::Unpruned(reason),
            }
        };
    }
}

/// A top-k the [`PhysicalPlan::AnnTopK`] leaf serves: `ORDER BY
/// <vector-fn>(col, q) LIMIT k` over a base-table scan, or over a pure
/// projection of one.
pub(crate) struct AnnShape<'p> {
    metric: Metric,
    table: &'p str,
    schema: &'p [String],
    /// The key column, mapped back to the scan through a projection.
    column: &'p ColumnRef,
    query: &'p CompiledExpr,
    /// The projection the leaf sits under, when there is one.
    reproject: Option<&'p [PhysProjectItem]>,
}

/// Whether `ORDER BY keys` over `input` is a vector top-k the ANN leaf
/// serves — decided once, here, for the pass and for EXPLAIN's TopK
/// line: the leaf's shape, or the named reason it stays a full-scan
/// TopK (`Err(None)`: no vector function in the keys, an ordinary
/// top-k).
///
/// The sort key may sit directly over the base scan, or over a pure
/// projection of it (the planner places Sort above Project whenever the
/// key's columns survive projection). Projection is per-row and pure, so
/// it commutes with top-k row selection: that shape lowers as
/// Project(AnnTopK) with the key column mapped back through the
/// projected item — which must be a bare base column.
pub(crate) fn ann_shape<'p>(
    keys: &'p [PhysOrderKey],
    input: &'p PhysicalPlan,
) -> Result<AnnShape<'p>, Option<&'static str>> {
    let vector = |e: &CompiledExpr| {
        let call = matches!(
            e,
            CompiledExpr::Builtin {
                func: ScalarFn::Vector(_),
                ..
            }
        );
        call.then_some(())
    };
    if keys
        .iter()
        .all(|k| k.expr.find_map(&mut |e| vector(e)).is_none())
    {
        return Err(None);
    }
    let [key] = keys else {
        return Err(Some("multiple-sort-keys"));
    };
    let CompiledExpr::Builtin {
        func: ScalarFn::Vector(metric),
        args,
        ..
    } = &key.expr
    else {
        return Err(Some("distance-not-topmost"));
    };
    let [CompiledExpr::Column(column @ ColumnRef::Slot { slot, .. }), query] = args.as_slice()
    else {
        return Err(Some("column-arg-unresolved"));
    };
    if !matches!(query, CompiledExpr::Param { .. } | CompiledExpr::Num(_)) {
        return Err(Some("query-not-param-or-literal"));
    }
    // `distance` selects nearest rows when ascending; the similarity
    // scores select best rows when descending. Any other direction is a
    // bottom-k query the index cannot serve.
    if key.desc != vector_fn_descends(*metric) {
        return Err(Some("wrong-direction"));
    }
    let (scan, column, reproject) = match input {
        PhysicalPlan::Project { items, input } => {
            let inner = match items.get(*slot).map(|i| &i.expr) {
                Some(CompiledExpr::Column(inner @ ColumnRef::Slot { .. })) => Some(inner),
                _ => None,
            };
            (input.as_ref(), inner, Some(items.as_slice()))
        }
        scan => (scan, Some(column), None),
    };
    let PhysicalPlan::Scan { table, schema, .. } = scan else {
        return Err(Some("input-not-base-scan"));
    };
    let Some(schema) = schema else {
        return Err(Some("schema-unresolved"));
    };
    let column = column.ok_or(Some("projected-key-not-base-column"))?;
    Ok(AnnShape {
        metric: *metric,
        table,
        schema,
        column,
        query,
        reproject,
    })
}

/// Lower an [`ann_shape`] to [`PhysicalPlan::AnnTopK`]. The path is
/// chosen here at compile time: a registered index on `(table, column)`
/// with a matching metric selects IVF; otherwise flat exact.
fn lower_ann_topk(shape: AnnShape<'_>, n: LimitCount, catalog: &Catalog) -> PhysicalPlan {
    let AnnShape {
        metric,
        table,
        schema,
        column,
        query,
        reproject,
    } = shape;
    let path = match catalog.vector_index(table, column.name()) {
        Some(entry) if entry.metric == metric => match &entry.index {
            tdp_storage::VectorIndex::Flat(_) => AnnPath::Flat,
            tdp_storage::VectorIndex::Ivf { params, nprobe, .. } => AnnPath::Ivf {
                nlist: params.nlist,
                nprobe: *nprobe,
            },
        },
        _ => AnnPath::Flat,
    };
    let ann = PhysicalPlan::AnnTopK {
        table: table.to_owned(),
        schema: schema.to_vec(),
        column: column.clone(),
        query: query.clone(),
        metric,
        n,
        path,
    };
    match reproject {
        None => ann,
        Some(items) => PhysicalPlan::Project {
            items: items.to_vec(),
            input: Box::new(ann),
        },
    }
}

/// Whether best-first order for this metric's SQL function is DESC.
fn vector_fn_descends(metric: Metric) -> bool {
    !matches!(metric, Metric::L2)
}
