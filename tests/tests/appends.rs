//! Appends, end to end: a table grown by many appends answers every read
//! exactly as the same rows registered in one piece do, a result taken
//! before an append keeps its rows, and a batch whose column types do
//! not fit the stored columns is refused without touching the table.

use tdp_core::encoding::{EncodedTensor, EncodingKind};
use tdp_core::exec::DEFAULT_MORSEL_ROWS;
use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::Tensor;
use tdp_core::Tdp;
use tdp_integration::assert_tables_identical;

const BATCH: usize = 4_096;

/// Rows `from..from + n` of an `events(ts, device, val)` table: `ts` is
/// the row number, `device` one of 50, `val` scattered with ties.
fn events(from: usize, n: usize) -> Table {
    let rows = from..from + n;
    TableBuilder::new()
        .col_i64("ts", rows.clone().map(|i| i as i64).collect())
        .col_i64(
            "device",
            rows.clone().map(|i| (i * 31 % 50) as i64).collect(),
        )
        .col_f32(
            "val",
            rows.map(|i| (i * 7_919 % 1_000) as f32 * 0.37).collect(),
        )
        .build("events")
}

/// The four reads of the ingest workload over a table of `rows` rows:
/// the newest two batches, a grouped tenth, a top-k over the newest ten
/// batches, and the whole table.
fn reads(rows: usize) -> [String; 4] {
    [
        format!(
            "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(ts) AS lo, MAX(ts) AS hi \
             FROM events WHERE ts >= {}",
            rows - 2 * BATCH + 77
        ),
        format!(
            "SELECT device, COUNT(*) AS n, AVG(val) AS a FROM events WHERE ts >= {} \
             GROUP BY device ORDER BY n DESC, device LIMIT 10",
            rows - rows / 10 + 77
        ),
        format!(
            "SELECT ts, val FROM events WHERE ts >= {} ORDER BY val DESC LIMIT 10",
            rows - 10 * BATCH + 77
        ),
        "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a FROM events".to_string(),
    ]
}

fn kinds(t: &Table) -> Vec<EncodingKind> {
    t.columns().iter().map(|c| c.kind()).collect()
}

#[test]
fn forty_appends_answer_as_one_registration() {
    const BASE: usize = 10 * BATCH;
    const ROWS: usize = BASE + 40 * BATCH;
    let grown = Tdp::new();
    grown.register_table(events(0, BASE));
    for i in 0..40 {
        assert!(grown.append_rows("events", &events(BASE + i * BATCH, BATCH)));
    }
    let whole = Tdp::new();
    whole.register_table(events(0, ROWS));

    let (g, w) = (grown.catalog(), whole.catalog());
    let stored = (g.get("events").unwrap(), w.get("events").unwrap());
    assert_tables_identical(&stored.0, &stored.1, "stored table");
    assert_eq!(kinds(&stored.0), kinds(&stored.1), "stored encodings");
    assert_eq!(
        *g.zone_map("events").unwrap(),
        *w.zone_map("events").unwrap(),
        "extended zone maps are a full build"
    );
    drop(stored);

    for threads in [1, 4] {
        for morsel_rows in [DEFAULT_MORSEL_ROWS, 1_000] {
            for tdp in [&grown, &whole] {
                tdp.set_threads(threads);
                tdp.set_morsel_rows(morsel_rows);
            }
            for sql in reads(ROWS) {
                let what = format!("threads {threads}, morsel rows {morsel_rows}: {sql}");
                let got = grown.query(&sql).unwrap().run().unwrap();
                let want = whole.query(&sql).unwrap().run().unwrap();
                assert_tables_identical(&got, &want, &what);
                assert_eq!(kinds(&got), kinds(&want), "{what}");
            }
        }
    }
}

#[test]
fn results_taken_before_an_append_keep_their_rows() {
    let tdp = Tdp::new();
    tdp.register_table(events(0, 10_000));
    // The first append leaves room, so the next ones grow in place —
    // unless a snapshot holds the table.
    assert!(tdp.append_rows("events", &events(10_000, BATCH)));
    let held = tdp.catalog().get("events").unwrap();
    let star = tdp.query("SELECT * FROM events").unwrap().run().unwrap();
    let sum = "SELECT SUM(val) AS s, COUNT(*) AS n FROM events";
    let before = tdp.query(sum).unwrap().run().unwrap();
    for i in 0..3 {
        assert!(tdp.append_rows("events", &events(14_096 + i * BATCH, BATCH)));
    }
    let seen = events(0, 14_096);
    assert_tables_identical(&held, &seen, "catalog snapshot");
    assert_tables_identical(&star, &seen, "SELECT * result");
    let after = tdp.query(sum).unwrap().run().unwrap();
    assert_eq!(after.column("n").unwrap().data.decode_i64().at(0), 26_384);
    assert_ne!(
        after.column("s").unwrap().data.decode_f32().at(0),
        before.column("s").unwrap().data.decode_f32().at(0)
    );
    drop((held, star));
    let oracle = Tdp::new();
    oracle.register_table(events(0, 26_384));
    let star = tdp.query("SELECT * FROM events").unwrap().run().unwrap();
    let want = oracle.query("SELECT * FROM events").unwrap().run().unwrap();
    assert_tables_identical(&star, &want, "the appended table");
}

/// Every column's buffer, as an address.
fn buffers(t: &Table) -> Vec<*const u8> {
    t.columns()
        .iter()
        .map(|c| match &c.data {
            EncodedTensor::F32(t) => t.data().as_ptr().cast(),
            EncodedTensor::I64(t) => t.data().as_ptr().cast(),
            other => panic!("no growable buffer in {other:?}"),
        })
        .collect()
}

/// A result that is a window of the stored columns (a filter whose
/// survivors are one run, a LIMIT) keeps its rows across appends, and
/// once dropped pins nothing: the next append grows the stored buffers
/// in place again.
#[test]
fn window_results_keep_their_rows_and_pin_nothing() {
    let tdp = Tdp::new();
    tdp.register_table(events(0, 10_000));
    // The first append leaves room, so the next ones grow in place.
    assert!(tdp.append_rows("events", &events(10_000, BATCH)));
    let stored = || buffers(&tdp.catalog().get("events").unwrap());
    let run_sql = "SELECT ts, val FROM events WHERE ts >= 9000";
    let head_sql = "SELECT ts, val FROM events LIMIT 5";
    let run = tdp.query(run_sql).unwrap().run().unwrap();
    let head = tdp.query(head_sql).unwrap().run().unwrap();
    let oracle = |from: usize, n: usize| {
        let t = events(from, n);
        TableBuilder::new()
            .col_encoded("ts", t.column("ts").unwrap().data.clone())
            .col_encoded("val", t.column("val").unwrap().data.clone())
            .build("events")
    };
    assert_tables_identical(&run, &oracle(9_000, 5_096), run_sql);
    assert_tables_identical(&head, &oracle(0, 5), head_sql);
    assert!(tdp.append_rows("events", &events(14_096, BATCH)));
    assert_tables_identical(&run, &oracle(9_000, 5_096), "held run");
    assert_tables_identical(&head, &oracle(0, 5), "held LIMIT");
    drop((run, head));
    // Whether that append grew the buffers or copied them, they have room
    // for 100 more rows.
    let at = stored();
    assert!(tdp.append_rows("events", &events(18_192, 100)));
    assert_eq!(stored(), at, "released results pin no stored buffer");
    let run = tdp.query(run_sql).unwrap().run().unwrap();
    assert_tables_identical(&run, &oracle(9_000, 9_292), "after the appends");
}

#[test]
fn appends_of_mismatched_column_types_are_refused() {
    let tdp = Tdp::new();
    let pics = |ids: Vec<i64>, width: usize| {
        let n = ids.len();
        TableBuilder::new()
            .col_i64("id", ids)
            .col_tensor("emb", Tensor::full(&[n, width], 0.5))
            .build("pics")
    };
    tdp.register_table(pics(vec![1, 2], 4));
    // An f32 batch for the i64 column: it would have become strings.
    let floats = TableBuilder::new()
        .col_f32("id", vec![3.0])
        .col_tensor("emb", Tensor::full(&[1, 4], 0.5))
        .build("pics");
    assert!(!tdp.append_rows("pics", &floats));
    // A [n, 8] payload for the [n, 4] column, behind a column that fits:
    // neither may change.
    assert!(!tdp.append_rows("pics", &pics(vec![3], 8)));
    let t = tdp.catalog().get("pics").unwrap();
    assert_eq!(t.column("id").unwrap().rows(), 2);
    assert_eq!(t.column("id").unwrap().kind(), EncodingKind::PlainI64);
    assert_eq!(t.column("emb").unwrap().rows(), 2);
    assert_eq!(t.column("emb").unwrap().data.row_shape(), vec![4]);
    drop(t);
    // A batch that fits still appends.
    assert!(tdp.append_rows("pics", &pics(vec![3], 4)));
    let ids = tdp.query("SELECT id FROM pics").unwrap().run().unwrap();
    assert_eq!(
        ids.column("id").unwrap().data.decode_i64().to_vec(),
        vec![1, 2, 3]
    );
}
