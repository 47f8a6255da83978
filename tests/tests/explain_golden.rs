//! The golden files. `golden/explain.txt`: every statement of the
//! configuration lattice, the composite-key statements, the zone-map,
//! ANN and compute-once statements whose EXPLAIN
//! `access_paths.rs` and `compute_once.rs` assert on, and the barrier
//! statements ([`lattice::BARRIERS`]), each rendered by
//! `Prepared::explain` with its fingerprint, compared as text. Sessions
//! run at four threads and seven-row morsels, so the text does not
//! depend on the host. `golden/results.txt`: per lattice, composite-key
//! and barrier statement, its fingerprint and a 64-bit digest of its
//! result — column names, encodings, shapes and every value's bits, or
//! the error text of a failing statement — at four threads and seven-row
//! morsels, then at the session defaults; likewise per SQL
//! transcendental statement over edge values, for one Listing-5
//! training step (the bits of its forward value and θ gradient) and for
//! vector search over NaN-holding embeddings from each ANN leaf. A
//! change that moves a plan, a fingerprint, a pipeline verdict or a
//! result bit shows as a diff of one of them, and a refactor that must
//! not move one leaves both unchanged. Debug and release builds compare
//! against the same file.
//!
//! To rewrite both files from the current code:
//! `TDP_BLESS_EXPLAIN=1 cargo test -p tdp_integration --test explain_golden`.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use tdp_core::encoding::EncodedTensor;
use tdp_core::storage::Table;
use tdp_core::tensor::{F32Tensor, Rng64};
use tdp_core::ParamValues;
use tdp_core::{Session, Tdp, TdpEngine, Volatility};
use tdp_integration::lattice::{
    self, BARRIERS, CORPUS, FAILING, RANGE_SCAN, RECENT_SCAN, SUB_NESTED, SUB_TOP,
};
use tdp_integration::{
    blocked_table, composite_key_tables, edge_table, listing5_step, normal_table, vecs_table,
    vecs_with_nans, Counting, COMPOSITE_KEYS, TRANSCENDENTALS,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/explain.txt");
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/results.txt");

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

    let tdp = composite_session();
    pin(&tdp);
    for (name, sql) in COMPOSITE_KEYS {
        block(&mut out, &tdp, &format!("composite keys: {name}"), sql);
    }

    let tdp = lattice::session(None, 7);
    pin(&tdp);
    for (name, sql) in BARRIERS {
        block(&mut out, &tdp, &format!("barriers: {name}"), sql);
    }
    out
}

/// A session holding [`composite_key_tables`], at the defaults.
fn composite_session() -> Session {
    let tdp = TdpEngine::new().session();
    for t in composite_key_tables() {
        tdp.register_table(t);
    }
    tdp
}

/// FNV-1a over 64 bits: a digest fixed by this file alone, so the golden
/// file does not depend on a hasher's version.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed byte string, so concatenations cannot collide.
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The digest of a result's canonical bytes: per column its name, its
/// encoding, its shape and each value's bits — f32 bit patterns, `i64`
/// values (an integer-compressed column decoded), a boolean's byte, a
/// dictionary's strings — or the text of the error it failed with.
fn digest(result: &Result<Table, String>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let table = match result {
        Ok(table) => table,
        Err(text) => {
            h.text("error");
            h.text(text);
            return h.0;
        }
    };
    h.word(table.columns().len() as u64);
    for c in table.columns() {
        h.text(&c.name);
        h.text(&format!("{:?}", c.data.kind()));
        h.word(c.data.rows() as u64);
        let row_shape = c.data.row_shape();
        h.word(row_shape.len() as u64);
        row_shape.iter().for_each(|&d| h.word(d as u64));
        match &c.data {
            EncodedTensor::F32(_) | EncodedTensor::Pe(_) => {
                for v in c.data.decode_f32().data() {
                    h.word(v.to_bits().into());
                }
            }
            EncodedTensor::Bool(t) => t.data().iter().for_each(|&b| h.bytes(&[b as u8])),
            EncodedTensor::Dict { .. } => c.data.decode_strings().iter().for_each(|s| h.text(s)),
            _ => {
                for &v in c.data.decode_i64().data() {
                    h.word(v as u64);
                }
            }
        }
    }
    h.0
}

/// One statement's result at the session's configuration, or its error.
fn result(tdp: &Session, sql: &str) -> Result<Table, String> {
    let query = tdp.query(sql).map_err(|e| e.to_string())?;
    query.run().map_err(|e| e.to_string())
}

/// One line per statement of `statements`: its fingerprint, the digest
/// of its result at four threads and seven-row morsels, the digest at
/// the session defaults, and its name. `session(rows)` is a fresh
/// session at `rows`-row morsels.
fn result_lines(
    out: &mut String,
    set: &str,
    statements: &[(&str, &str)],
    session: impl Fn(usize) -> Session,
) {
    let pinned = session(7);
    pin(&pinned);
    let defaults = session(tdp_core::exec::DEFAULT_MORSEL_ROWS);
    for (name, sql) in statements {
        let prepared = pinned
            .prepare(sql)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push_str(&format!(
            "{:016x} {:016x} {:016x} {set}: {name}\n",
            prepared.fingerprint(),
            digest(&result(&pinned, sql)),
            digest(&result(&defaults, sql)),
        ));
    }
}

fn render_results() -> String {
    let mut out = String::new();
    let lattice = |rows| lattice::session(None, rows);
    result_lines(&mut out, "lattice", CORPUS, lattice);
    result_lines(&mut out, "lattice", FAILING, lattice);
    result_lines(&mut out, "composite keys", COMPOSITE_KEYS, |_| {
        composite_session()
    });
    result_lines(&mut out, "barriers", BARRIERS, lattice);
    result_lines(&mut out, "transcendentals", TRANSCENDENTALS, |_| {
        let tdp = TdpEngine::new().session();
        tdp.register_table(edge_table());
        tdp
    });
    train_step_line(&mut out);
    ann_nan_lines(&mut out);
    out
}

/// One line for a run that `result_lines` cannot make: `run` on a fresh
/// session at four threads and seven-row morsels, then on one at the
/// session defaults, each giving `(fingerprint, digest)`.
fn session_line(out: &mut String, name: &str, run: impl Fn(&Session) -> (u64, u64)) {
    let at = |pinned: bool| {
        let tdp = TdpEngine::new().session();
        if pinned {
            pin(&tdp);
        }
        run(&tdp)
    };
    let ((fingerprint, pinned), (_, defaults)) = (at(true), at(false));
    out.push_str(&format!(
        "{fingerprint:016x} {pinned:016x} {defaults:016x} {name}\n"
    ));
}

/// `ORDER BY distance(emb, ?) LIMIT k` over [`vecs_with_nans`]`(300, 8,
/// 11)` from the flat ANN leaf and from an IVF index probing every cell,
/// one line each: the digest of the three results at k = 1, 299 and 300.
fn ann_nan_lines(out: &mut String) {
    let sql = "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT ?";
    let q = F32Tensor::randn(&[8], 0.0, 10.0, &mut Rng64::new(1));
    for (leaf, ddl) in [
        ("flat", None),
        (
            "ivf",
            Some("CREATE INDEX vi ON vecs (emb) USING ivf(4, 4) METRIC l2"),
        ),
    ] {
        session_line(out, &format!("ann over NaN embeddings: {leaf}"), |tdp| {
            tdp.register_table(vecs_with_nans(300, 8, 11));
            if let Some(ddl) = ddl {
                tdp.execute(ddl).unwrap();
            }
            let prepared = tdp.prepare(sql).unwrap();
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for k in [1, 299, 300] {
                let params = ParamValues::new().tensor(q.clone()).number(k as f64);
                let result = prepared.bind(params).and_then(|b| b.run());
                h.word(digest(&result.map_err(|e| e.to_string())));
            }
            (prepared.fingerprint(), h.0)
        });
    }
}

/// [`listing5_step`]: the digest of the soft count's bits and θ's
/// gradient's bits.
fn train_step_line(out: &mut String) {
    session_line(out, "trainable: listing 5 step", |tdp| {
        let (sql, count, grad) = listing5_step(tdp);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.word(count.to_bits().into());
        h.word(grad.to_bits().into());
        (tdp.prepare(sql).unwrap().fingerprint(), h.0)
    });
}

/// `got` against the golden file at `path`, or — with
/// `TDP_BLESS_EXPLAIN` set — `got` written to it.
fn compare(path: &str, got: &str) {
    if std::env::var("TDP_BLESS_EXPLAIN").is_ok() {
        std::fs::write(path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_default();
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<&str>, Vec<&str>) =
        (got.lines().collect(), want.lines().collect());
    let first = (got_lines.iter().zip(&want_lines))
        .position(|(g, w)| g != w)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    panic!(
        "{path} differs from line {}:\n  golden: {:?}\n  now:    {:?}\n\
         (TDP_BLESS_EXPLAIN=1 rewrites the file)",
        first + 1,
        want_lines.get(first),
        got_lines.get(first),
    );
}

#[test]
fn explain_matches_the_golden_file() {
    compare(GOLDEN, &render());
}

#[test]
fn results_match_the_golden_file() {
    compare(RESULTS, &render_results());
}
