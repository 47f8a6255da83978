//! The in-process configuration lattice: one fixed query corpus run at
//! every point of threads × morsel rows × chain kernels × zone maps ×
//! memory budget, each compared bytewise to the sequential oracle
//! (threads = 1, kernels off, zone maps off) at the same morsel size —
//! morsel boundaries are the one knob allowed to move a float's last
//! bit. Every point also checks that `run_profiled()` returns the bytes
//! `run()` does, and that a scalar subquery returns the bytes the same
//! query returns at top level: all three ride one plan walker.
//!
//! The engine reads no environment: the session setters and
//! `TdpEngine::with_memory_budget` are the only way to reach a point,
//! and every point is reached here, in-process. So the rest of the
//! suite runs at the documented defaults, and a test that needs another
//! point sets it on its own session.

use tdp_core::storage::Table;
use tdp_core::{ParamValues, Session};
use tdp_integration::lattice::{
    session, CORPUS, FAILING, RANGE_SCAN, RECENT_SCAN, SUB_NESTED, SUB_TOP,
};
use tdp_integration::{assert_tables_identical, PAYLOAD_MISUSE, STRING_AGGREGATE_MISUSE};

/// Run the corpus at the session's current configuration.
fn run_corpus(tdp: &Session) -> Vec<(String, Table)> {
    let mut out: Vec<(String, Table)> = CORPUS
        .iter()
        .map(|(name, sql)| (name.to_string(), tdp.query(sql).unwrap().run().unwrap()))
        .collect();
    let ranged = tdp.prepare(RANGE_SCAN).unwrap();
    for (lo, hi) in [(4090.0, 4200.0), (0.0, 50.0)] {
        let params = ParamValues::new().number(lo).number(hi);
        out.push((
            format!("range scan {lo}..{hi}"),
            ranged.bind(params).unwrap().run().unwrap(),
        ));
    }
    let recent = tdp.prepare(RECENT_SCAN).unwrap();
    let rows = tdp
        .query("SELECT COUNT(*) AS n FROM c")
        .unwrap()
        .run()
        .unwrap();
    let rows = rows.columns()[0].data.decode_i64().at(0);
    for back in [5_000.0, 20_000.0] {
        let from = 1_700_000_000.0 + 3.0 * rows as f64 - back;
        out.push((
            format!("recent scan, last {back}"),
            recent
                .bind(ParamValues::new().number(from))
                .unwrap()
                .run()
                .unwrap(),
        ));
    }
    out
}

/// The error text of every failing statement: [`FAILING`] — each
/// counting `kernels` (0 or 1) kernel fallbacks — then the payload-column
/// statements (the kernel bails on a payload leaf, the interpreter names
/// the shapes it met), then the numeric aggregates over `c.flag` (the
/// window refuses the string column, and so does the fold: in place the
/// kernel bails on it and the interpreter refuses it) with the row
/// counts of their COUNT controls.
fn run_failing(tdp: &Session, kernels: bool) -> Vec<String> {
    let run = |name: &str, sql: &str| {
        let err = tdp.query(sql).unwrap().run().map(|t| t.rows());
        err.expect_err(name).to_string()
    };
    let named = FAILING.iter().map(|(name, sql)| {
        let before = tdp.chain_kernel_stats().fallbacks;
        let err = run(name, sql);
        let fallbacks = tdp.chain_kernel_stats().fallbacks - before;
        assert_eq!(fallbacks, kernels as u64, "{name}: kernel fallbacks");
        err
    });
    let payload = PAYLOAD_MISUSE.iter().map(|sql| run("payload misuse", sql));
    let strings = STRING_AGGREGATE_MISUSE
        .iter()
        .map(|(sql, refused)| match refused {
            Some(_) => run(sql, sql),
            None => format!("{} rows", tdp.query(sql).unwrap().run().expect(sql).rows()),
        });
    named.chain(payload).chain(strings).collect()
}

/// `I64 F32 …`: the encoding of every result column.
fn kinds(t: &Table) -> String {
    let names: Vec<String> = t
        .columns()
        .iter()
        .map(|c| format!("{:?}", c.kind()))
        .collect();
    names.join(" ")
}

/// Per-column result encodings of every corpus shape — one column: a
/// statement's encodings do not depend on `morsel_rows`, `threads`,
/// `chain_kernels` or zone maps. Integer-compressed layouts appear only
/// where a stored column is returned without moving a row (a bare scan,
/// a pinned projection's pass-through).
const KINDS: &[(&str, &str)] = &[
    ("scan-filter-project", "PlainF32 Dictionary"),
    ("ungrouped float aggregate", "PlainF32 PlainF32 PlainF32"),
    (
        "grouped float aggregate",
        "Dictionary PlainF32 PlainF32 PlainF32",
    ),
    (
        "q1 shape 0%",
        "Dictionary PlainF32 PlainF32 PlainF32 PlainF32 PlainI64",
    ),
    (
        "q1 shape 1%",
        "Dictionary PlainF32 PlainF32 PlainF32 PlainF32 PlainI64",
    ),
    (
        "q1 shape 50%",
        "Dictionary PlainF32 PlainF32 PlainF32 PlainF32 PlainI64",
    ),
    (
        "q1 shape 100%",
        "Dictionary PlainF32 PlainF32 PlainF32 PlainF32 PlainI64",
    ),
    (
        "ungrouped 0%",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "ungrouped 1%",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "ungrouped 50%",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "ungrouped 100%",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "two-key (i64, dict) aggregate",
        "PlainI64 Dictionary PlainF32 PlainF32 PlainF32 PlainF32 PlainI64",
    ),
    (
        "wide-span key in every morsel",
        "PlainF32 PlainI64 PlainF32 PlainF32 PlainF32",
    ),
    (
        "per-window dictionary key",
        "Dictionary Dictionary PlainI64 PlainF32",
    ),
    ("join", "PlainF32 PlainF32"),
    ("composite-key join", "PlainF32 PlainF32"),
    (
        "dictionary-key join across two dictionaries",
        "PlainF32 PlainI64",
    ),
    (
        "join with duplicate build keys",
        "PlainF32 PlainF32 PlainI64",
    ),
    (
        "left join, unmatched rows, a chain on both sides",
        "PlainF32 PlainF32 Dictionary PlainI64",
    ),
    ("join with an empty probe side", "PlainF32 PlainF32"),
    (
        "left join with an empty right side",
        "PlainF32 PlainI64 Dictionary PlainI64 PlainF32",
    ),
    ("sort", "PlainF32 PlainI64"),
    ("top-k", "PlainF32 PlainF32"),
    ("distinct", "Dictionary PlainI64"),
    ("distinct (dictionary, f32)", "Dictionary PlainF32"),
    ("limit", "PlainF32"),
    ("window", "PlainF32 PlainF32"),
    ("scalar subquery", "PlainF32"),
    ("udf-pinned chain", "PlainF32"),
    (
        "packed q6: two conjuncts on run-length, two on f32, most morsels pruned",
        "PlainF32 PlainI64",
    ),
    ("packed sort payload", "PlainF32 PlainI64 PlainI64"),
    ("packed top-k payload", "PlainF32 PlainI64 PlainI64"),
    ("packed distinct key", "PlainI64 PlainI64"),
    (
        "packed join key and payload",
        "PlainI64 PlainI64 PlainF32 PlainI64",
    ),
    (
        "packed left-join pads on both sides",
        "PlainI64 PlainI64 PlainI64",
    ),
    (
        "packed SUM argument, dense",
        "Dictionary PlainF32 PlainF32 PlainI64",
    ),
    (
        "packed SUM argument and key, sparse",
        "PlainI64 PlainF32 PlainI64",
    ),
    (
        "packed pass-through under a computed projection",
        "PlainI64 PlainI64 PlainI64 Dictionary PlainF32",
    ),
    ("packed pass-through, no filter, limit", "PlainI64 PlainI64"),
    (
        "three conjuncts over bit-packed, small",
        "PlainI64 PlainI64 PlainF32",
    ),
    (
        "three conjuncts over bit-packed, large",
        "PlainI64 PlainI64 PlainF32",
    ),
    (
        "packed, every morsel pruned, gather exit",
        "PlainI64 PlainI64 PlainF32",
    ),
    (
        "packed, every morsel pruned, aggregate",
        "PlainI64 PlainF32 PlainF32",
    ),
    ("packed, every morsel pruned, sort", "PlainI64 PlainI64"),
    (
        "packed, nothing pruned, nothing survives",
        "PlainI64 PlainI64 Dictionary",
    ),
    (
        "packed, nothing pruned, nothing survives, distinct",
        "PlainI64 PlainI64",
    ),
    (
        "bare ungrouped, plain",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "bare ungrouped, packed",
        "PlainI64 PlainI64 PlainF32 PlainF32 PlainF32 PlainF32 PlainF32 PlainF32",
    ),
    (
        "bare, grouped by a dictionary key",
        "Dictionary PlainI64 PlainF32 PlainF32",
    ),
    (
        "bare, grouped by a bit-packed key",
        "PlainI64 PlainI64 PlainF32 PlainF32",
    ),
    ("selection-fed computed key", "PlainF32 PlainI64 PlainF32"),
    (
        "small packed, three conjuncts and a computed projection",
        "PlainI64 PlainI64 PlainI64 Dictionary PlainF32",
    ),
    ("small packed, project only", "PlainI64 PlainI64 PlainI64"),
    (
        "small packed, bare scan",
        "RunLength BitPacked Delta Dictionary PlainF32",
    ),
    (
        "small packed, bare scan, limit",
        "PlainI64 PlainI64 PlainI64 Dictionary PlainF32",
    ),
    ("small packed, limit past the end", "PlainI64 PlainI64"),
    (
        "small packed, group by a run-length key",
        "PlainI64 PlainF32 PlainF32 PlainI64",
    ),
    ("small packed, sort payload", "PlainF32 PlainI64 PlainI64"),
    ("small packed, distinct key", "PlainI64 PlainI64"),
    (
        "small packed, left-join pads over stored columns",
        "PlainI64 PlainI64 PlainI64 PlainI64",
    ),
    ("small packed, pinned chain", "PlainF32 PlainI64 PlainI64"),
    ("small packed, pinned projection", "PlainF32 BitPacked"),
    ("payload column, one run of survivors", "PlainI64 PlainF32"),
    ("range scan 4090..4200", "PlainF32 PlainF32"),
    ("range scan 0..50", "PlainF32 PlainF32"),
    ("recent scan, last 5000", "PlainI64 PlainI64"),
    ("recent scan, last 20000", "PlainI64 PlainI64"),
];

#[test]
fn every_lattice_point_matches_the_sequential_oracle() {
    let default_morsel = tdp_core::exec::DEFAULT_MORSEL_ROWS;
    let mut oracle_kinds = Vec::new();
    for morsel_rows in [7, default_morsel] {
        let (oracle, oracle_errors) = {
            let tdp = session(None, morsel_rows);
            tdp.set_threads(1);
            tdp.set_chain_kernels(false);
            tdp.set_zone_maps(false);
            (run_corpus(&tdp), run_failing(&tdp, false))
        };
        if std::env::var("TDP_PRINT_KINDS").is_ok() {
            // The rows of a regenerated `KINDS` table (`--nocapture`).
            for (name, table) in &oracle {
                println!("    ({name:?}, {:?}),", kinds(table));
            }
        }
        assert_eq!(oracle.len(), KINDS.len(), "one KINDS row per shape");
        for ((name, table), (shape, want)) in oracle.iter().zip(KINDS) {
            assert_eq!(name, shape, "KINDS follows the corpus order");
            assert_eq!(&kinds(table), want, "{name} @ morsel_rows={morsel_rows}");
        }
        oracle_kinds.push(oracle.iter().map(|(_, t)| kinds(t)).collect::<Vec<_>>());
        for budget in [None, Some(256 << 20)] {
            let tdp = session(budget, morsel_rows);
            for threads in [1, 4] {
                for kernels in [true, false] {
                    for zone_maps in [true, false] {
                        tdp.set_threads(threads);
                        tdp.set_chain_kernels(kernels);
                        tdp.set_zone_maps(zone_maps);
                        let point = format!(
                            "threads={threads} morsel_rows={morsel_rows} kernels={kernels} \
                             zone_maps={zone_maps} budget={budget:?}"
                        );
                        let got = run_corpus(&tdp);
                        for ((name, got), (_, want)) in got.iter().zip(&oracle) {
                            assert_tables_identical(got, want, &format!("{name} @ {point}"));
                            assert_eq!(kinds(got), kinds(want), "{name} @ {point}: encodings");
                        }
                        let errors = run_failing(&tdp, kernels);
                        assert_eq!(errors, oracle_errors, "error text @ {point}");
                        // PROFILE is the same walk with the recorder on.
                        for ((name, sql), (_, plain)) in CORPUS.iter().zip(&got) {
                            let (profiled, _) = tdp.query(sql).unwrap().run_profiled().unwrap();
                            assert_tables_identical(
                                &profiled,
                                plain,
                                &format!("profiled {name} @ {point}"),
                            );
                        }
                        // A subquery is the same walk, re-entered.
                        assert_tables_identical(
                            &tdp.query(SUB_NESTED).unwrap().run().unwrap(),
                            &tdp.query(SUB_TOP).unwrap().run().unwrap(),
                            &format!("subquery vs top level @ {point}"),
                        );
                    }
                }
            }
        }
    }
    assert_eq!(
        oracle_kinds[0], oracle_kinds[1],
        "a statement's encodings do not depend on morsel_rows"
    );
}
