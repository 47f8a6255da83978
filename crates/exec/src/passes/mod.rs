//! Plan passes: rewrites of a lowered plan into a plan with the same
//! result bytes and output names. [`crate::physical::lower`] only
//! resolves names and binds calls; every plan decision is a pass here,
//! run in [`run`]'s order over the statement's plan and over each scalar
//! subquery's. EXPLAIN, fingerprints and both executors see the result.
//!
//! [`compute_once`](compute_once::compute_once) splits filters, so it
//! runs first; [`access_paths`](access_paths::access_paths) then gives
//! each scan under the filters the plan finally has its zone-map pruner,
//! and turns a top-k the ANN leaf serves into one.

use tdp_storage::Catalog;

use crate::physical::PhysicalPlan;
use crate::udf::UdfRegistry;

pub(crate) mod access_paths;
mod compute_once;

/// Every pass, in order.
pub(crate) fn run(plan: PhysicalPlan, catalog: &Catalog, udfs: &UdfRegistry) -> PhysicalPlan {
    let plan = compute_once::compute_once(plan, udfs);
    access_paths::access_paths(plan, catalog)
}
