//! The EXPLAIN golden file: every statement of the configuration
//! lattice, and the zone-map, ANN and compute-once statements whose
//! EXPLAIN `access_paths.rs` and `compute_once.rs` assert on, each
//! rendered by `Prepared::explain` with its fingerprint, compared as text
//! with `golden/explain.txt`. Sessions run at four threads and seven-row
//! morsels, so the text does not depend on the host. A change that moves
//! a plan, a fingerprint or a pipeline verdict shows as a diff of that
//! file, and a refactor that must not move one leaves it unchanged.
//!
//! To rewrite the file from the current code:
//! `TDP_BLESS_EXPLAIN=1 cargo test -p tdp_integration --test explain_golden`.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use tdp_core::{Session, Tdp, Volatility};
use tdp_integration::lattice::{
    self, CORPUS, FAILING, RANGE_SCAN, RECENT_SCAN, SUB_NESTED, SUB_TOP,
};
use tdp_integration::{blocked_table, normal_table, vecs_table, Counting};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/explain.txt");

/// The fixed configuration every block renders at.
fn pin(tdp: &Session) {
    tdp.set_threads(4);
    tdp.set_morsel_rows(7);
}

/// `f` registered on `tdp`: on the worker pool, or on the session only.
fn register_f(tdp: &Session, volatility: Volatility, local: bool) {
    let f = Arc::new(Counting {
        volatility,
        calls: Arc::new(AtomicUsize::new(0)),
    });
    match local {
        true => tdp.register_udf(f),
        false => tdp.register_udf_parallel(f),
    }
}

/// One block: the statement's name, its fingerprint, its EXPLAIN.
fn block(out: &mut String, tdp: &Session, name: &str, sql: &str) {
    let prepared = tdp.prepare(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
    out.push_str(&format!(
        "### {name}\n{sql}\nfingerprint {:016x}\n{}\n",
        prepared.fingerprint(),
        prepared.explain()
    ));
}

fn render() -> String {
    let mut out = String::new();

    let tdp = lattice::session(None, 7);
    pin(&tdp);
    for (name, sql) in CORPUS.iter().chain(FAILING) {
        block(&mut out, &tdp, &format!("lattice: {name}"), sql);
    }
    for (name, sql) in [
        ("range scan", RANGE_SCAN),
        ("recent scan", RECENT_SCAN),
        ("subquery, top level", SUB_TOP),
        ("subquery, nested", SUB_NESTED),
    ] {
        block(&mut out, &tdp, &format!("lattice: {name}"), sql);
    }

    let tdp = Tdp::new();
    pin(&tdp);
    tdp.register_table(blocked_table(100));
    for (name, sql) in [
        (
            "two prunable conjuncts",
            "SELECT v FROM t WHERE v > 1 AND v < 9 AND SQRT(v) > 0",
        ),
        ("no eligible conjunct", "SELECT v FROM t WHERE SQRT(v) < 2"),
        (
            "bound at bind time",
            "SELECT COUNT(*) AS c FROM t WHERE v < ?",
        ),
        (
            "in a scalar subquery",
            "SELECT (SELECT SUM(v) FROM t WHERE v < 100) AS s FROM t LIMIT 1",
        ),
    ] {
        block(&mut out, &tdp, &format!("zone maps: {name}"), sql);
    }

    let tdp = Tdp::new();
    pin(&tdp);
    tdp.register_table(normal_table(100));
    register_f(&tdp, Volatility::Volatile, true);
    for sql in [
        "SELECT COUNT(*) AS n FROM t WHERE f(x) > 0.5 AND k < 4000",
        "SELECT k, x FROM t WHERE f(x) > 0.5 AND k < 4000",
        "SELECT k FROM t WHERE f(x) > 0.5 AND k < 4000 ORDER BY x, k",
    ] {
        block(&mut out, &tdp, "zone maps: a pinned chain", sql);
    }

    let tdp = Tdp::new();
    pin(&tdp);
    tdp.register_table(vecs_table(32, 4, 5));
    let ann = "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10";
    block(&mut out, &tdp, "ann: flat, no index", ann);
    for sql in [
        "SELECT id FROM vecs ORDER BY distance(emb, ?), id LIMIT 3",
        "SELECT id FROM vecs ORDER BY distance(emb, ?) + 1 LIMIT 3",
        "SELECT id FROM vecs ORDER BY distance(emb, emb) LIMIT 3",
        "SELECT id FROM vecs ORDER BY distance(emb * 2, ?) LIMIT 3",
        "SELECT id FROM vecs ORDER BY distance(emb, ?) DESC LIMIT 3",
        "SELECT emb FROM ghosts ORDER BY distance(emb, ?) LIMIT 3",
        "SELECT emb * 2 AS e FROM vecs ORDER BY distance(e, ?) LIMIT 3",
        "SELECT id, emb FROM vecs WHERE id > 3 ORDER BY distance(emb, ?) LIMIT 3",
    ] {
        block(&mut out, &tdp, "ann: fallback", sql);
    }
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING ivf(8, 4) METRIC l2")
        .unwrap();
    block(&mut out, &tdp, "ann: ivf index", ann);
    tdp.execute("DROP INDEX vi").unwrap();
    tdp.execute("CREATE INDEX vi ON vecs (emb) USING FLAT METRIC cosine")
        .unwrap();
    block(&mut out, &tdp, "ann: index of another metric", ann);

    let tdp = Tdp::new();
    pin(&tdp);
    tdp.register_table(normal_table(100));
    register_f(&tdp, Volatility::Immutable, false);
    for sql in [
        "SELECT COUNT(*) AS n, SUM(f(x)) AS s FROM t WHERE f(x) > 0.5 AND k < 4000",
        "SELECT COUNT(*) AS n, SUM(f(x)) AS s FROM t WHERE f(x) > 0.5",
        "SELECT k % 5 AS g, SUM(f(x)) AS s, MAX(f(x)) AS m FROM t \
         WHERE f(x) > 0.5 AND k < 15000 GROUP BY k % 5 ORDER BY g",
        "SELECT k, f(x) AS y FROM t WHERE f(x) > 2.5",
        "SELECT f(x) AS y, COUNT(*) AS c FROM t WHERE f(x) > 4 GROUP BY f(x) ORDER BY y",
        "SELECT COUNT(*) AS n, AVG(sqrt(x)) AS a FROM t WHERE sqrt(x) < 0.5 AND x <> 0.25",
        "SELECT (SELECT SUM(f(x)) FROM t WHERE f(x) > 0.5) AS s FROM t LIMIT 1",
    ] {
        block(&mut out, &tdp, "compute once", sql);
    }
    out
}

#[test]
fn explain_matches_the_golden_file() {
    let got = render();
    if std::env::var("TDP_BLESS_EXPLAIN").is_ok() {
        std::fs::write(GOLDEN, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let first = (got_lines.iter().zip(&want_lines))
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    panic!(
        "EXPLAIN differs from {GOLDEN} from line {}:\n  golden: {:?}\n  now:    {:?}\n\
         (TDP_BLESS_EXPLAIN=1 rewrites the file)",
        first + 1,
        want_lines.get(first),
        got_lines.get(first),
    );
}
