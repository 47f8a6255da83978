//! End-to-end SQL coverage across the whole stack: parser → optimizer →
//! exact executor → storage, through the public session API only.

use tdp_core::storage::TableBuilder;
use tdp_core::{Device, Tdp};
use tdp_integration::{
    edge_table, orders_table, pics_table, PAYLOAD_MISUSE, STRING_AGGREGATE_MISUSE,
};

fn session() -> Tdp {
    let tdp = Tdp::new();
    tdp.register_table(orders_table());
    tdp.register_table(
        TableBuilder::new()
            .col_str("item", &["a", "b", "c"])
            .col_f32("weight", vec![0.5, 1.5, 2.5])
            .build("items"),
    );
    tdp
}

fn run_f32(tdp: &Tdp, sql: &str, col: &str) -> Vec<f32> {
    tdp.query(sql)
        .unwrap()
        .run()
        .unwrap()
        .column(col)
        .unwrap_or_else(|| panic!("missing column {col}"))
        .data
        .decode_f32()
        .to_vec()
}

#[test]
fn filters_projections_expressions() {
    let tdp = session();
    assert_eq!(
        run_f32(
            &tdp,
            "SELECT price * qty AS total FROM orders WHERE item = 'a' ORDER BY total",
            "total"
        ),
        vec![20.0, 60.0, 150.0]
    );
    assert_eq!(
        run_f32(
            &tdp,
            "SELECT price FROM orders WHERE price BETWEEN 2 AND 4 ORDER BY price DESC",
            "price"
        ),
        vec![4.0, 3.0, 2.5, 2.0]
    );
}

#[test]
fn aggregation_pipeline() {
    let tdp = session();
    let out = tdp
        .query(
            "SELECT item, COUNT(*), SUM(qty), AVG(price), MIN(price), MAX(price) \
                FROM orders GROUP BY item ORDER BY item",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 3);
    assert_eq!(
        out.column("item").unwrap().data.decode_strings(),
        vec!["a", "b", "c"]
    );
    assert_eq!(
        out.column("SUM(qty)").unwrap().data.decode_f32().to_vec(),
        vec![110.0, 60.0, 40.0]
    );
    assert_eq!(
        out.column("MAX(price)").unwrap().data.decode_f32().to_vec(),
        vec![2.5, 4.0, 5.0]
    );
}

#[test]
fn having_and_arithmetic_over_aggregates() {
    let tdp = session();
    let out = tdp
        .query(
            "SELECT item, SUM(qty) / COUNT(*) AS mean_qty FROM orders \
                GROUP BY item HAVING COUNT(*) > 1 ORDER BY item",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 2);
    assert_eq!(
        out.column("mean_qty").unwrap().data.decode_f32().to_vec(),
        vec![110.0 / 3.0, 30.0]
    );
}

/// An aggregate or a window call may sit anywhere inside a select item or
/// HAVING — under CASE and IN as well as arithmetic — and is computed by
/// its plan node, with the expression around it evaluated above.
#[test]
fn aggregates_and_windows_nest_under_case_in_and_like() {
    let tdp = session();
    let many = run_f32(
        &tdp,
        "SELECT item, CASE WHEN COUNT(*) > 1 THEN 1 ELSE 0 END AS many \
         FROM orders GROUP BY item ORDER BY item",
        "many",
    );
    assert_eq!(many, vec![1.0, 1.0, 0.0]);
    // SUM(qty) per item: a 110, b 60, c 40.
    let hit = run_f32(
        &tdp,
        "SELECT item, SUM(qty) IN (40, 110) AS hit FROM orders GROUP BY item ORDER BY item",
        "hit",
    );
    assert_eq!(hit, vec![1.0, 0.0, 1.0]);
    let out = tdp
        .query(
            "SELECT item FROM orders GROUP BY item \
             HAVING CASE WHEN SUM(qty) > 50 THEN 1 ELSE 0 END = 1 ORDER BY item",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        out.column("item").unwrap().data.decode_strings(),
        vec!["a", "b"]
    );
    // qty is ascending in storage order, so the row number is the row.
    let late = run_f32(
        &tdp,
        "SELECT qty, CASE WHEN ROW_NUMBER() OVER (ORDER BY qty) > 3 THEN 1 ELSE 0 END AS late \
         FROM orders",
        "late",
    );
    assert_eq!(late, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
}

#[test]
fn joins_through_the_session() {
    let tdp = session();
    let out = tdp
        .query(
            "SELECT item, SUM(weight * qty) AS load FROM orders JOIN items \
                ON orders.item = items.item GROUP BY item ORDER BY item",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        out.column("load").unwrap().data.decode_f32().to_vec(),
        vec![55.0, 90.0, 100.0]
    );
}

#[test]
fn nested_subqueries() {
    let tdp = session();
    let out = tdp
        .query(
            "SELECT AVG(total) FROM (SELECT price * qty AS total FROM \
             (SELECT price, qty FROM orders WHERE item <> 'c'))",
        )
        .unwrap()
        .run()
        .unwrap();
    // totals: b:30, a:20, a:60, b:200, a:150 -> avg 92
    assert_eq!(
        out.column("AVG(total)").unwrap().data.decode_f32().to_vec(),
        vec![92.0]
    );
}

#[test]
fn order_by_limit_topk() {
    let tdp = session();
    assert_eq!(
        run_f32(
            &tdp,
            "SELECT price FROM orders ORDER BY price DESC LIMIT 2",
            "price"
        ),
        vec![5.0, 4.0]
    );
    assert_eq!(
        run_f32(
            &tdp,
            "SELECT qty FROM orders ORDER BY item ASC, qty DESC LIMIT 3",
            "qty"
        ),
        vec![60.0, 30.0, 20.0]
    );
}

#[test]
fn results_identical_across_devices() {
    let tdp = session();
    let sql = "SELECT item, SUM(price * qty) AS v FROM orders GROUP BY item ORDER BY item";
    let cpu = tdp.query(sql).unwrap().run().unwrap();
    let accel = tdp
        .query_with(
            sql,
            tdp_core::QueryConfig::default().device(Device::accel()),
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        cpu.column("v").unwrap().data.decode_f32().to_vec(),
        accel.column("v").unwrap().data.decode_f32().to_vec(),
        "device placement must not change results"
    );
}

#[test]
fn dictionary_range_predicates() {
    let tdp = session();
    assert_eq!(
        run_f32(
            &tdp,
            "SELECT qty FROM orders WHERE item >= 'b' ORDER BY qty",
            "qty"
        ),
        vec![10.0, 40.0, 50.0]
    );
}

#[test]
fn errors_are_informative() {
    let tdp = session();
    // Unknown columns over a known table fail at compile time now that
    // lowering slot-resolves against the catalog schema.
    let e = tdp.query("SELECT nope FROM orders").unwrap_err();
    assert!(e.to_string().contains("nope"));
    // Unknown tables still fail at run time (the table may be registered
    // after compilation, as in the paper's training loop).
    let e2 = tdp
        .query("SELECT * FROM ghosts")
        .unwrap()
        .run()
        .unwrap_err();
    assert!(e2.to_string().contains("ghosts"));
    assert!(tdp.query("SELECT FROM WHERE").is_err());
}

/// A payload column (`[rows, 2, 3]`) met a per-row operand inside the
/// tensor kernels and panicked there (over TCP: a dead connection
/// thread). The interpreter checks shapes where it combines two operands
/// and where a predicate becomes a row mask; payloads still combine with
/// payloads of their own shape, and the unary paths never had a second
/// operand to disagree with.
#[test]
fn payload_columns_in_scalar_expressions_are_a_typed_error_not_a_panic() {
    use tdp_core::exec::ExecError;
    use tdp_core::TdpError;
    let tdp = session();
    tdp.register_table(pics_table(20));
    for sql in PAYLOAD_MISUSE {
        let err = tdp.query(sql).and_then(|q| q.run()).expect_err(sql);
        assert!(
            matches!(&err, TdpError::Exec(ExecError::TypeMismatch(m)) if m.contains(", 2, 3]")),
            "{sql}: {err:?}"
        );
    }
    let pixels = |sql: &str| {
        let d = tdp.query(sql).unwrap().run().unwrap();
        let d = d.column("d").unwrap().data.decode_f32();
        assert_eq!(d.shape(), [20, 2, 3], "{sql}");
        d.to_vec()[..6].to_vec()
    };
    assert_eq!(
        pixels("SELECT images + images AS d FROM pics"),
        [0.0, 2.0, 4.0, 6.0, 8.0, 0.0]
    );
    assert_eq!(pixels("SELECT images >= images AS d FROM pics"), [1.0; 6]);
    assert_eq!(
        pixels("SELECT -images AS d FROM pics"),
        [-0.0, -1.0, -2.0, -3.0, -4.0, -0.0]
    );
    assert_eq!(
        pixels("SELECT SQRT(images * images) AS d FROM pics"),
        [0.0, 1.0, 2.0, 3.0, 4.0, 0.0]
    );
}

/// SUM, AVG, MIN, MAX, VARIANCE and STDDEV over a string column folded
/// its dictionary codes (`MIN(item), MAX(item), SUM(item), AVG(item)`
/// over `orders` came back as `0 2 6 1`), as aggregates and as windows.
/// Each now refuses the column with a type error naming the function,
/// as a string literal in the same position already was; COUNT and
/// COUNT(DISTINCT) over strings keep working.
#[test]
fn numeric_aggregates_refuse_a_string_column() {
    use tdp_core::exec::ExecError;
    use tdp_core::TdpError;
    let tdp = session();
    tdp.register_table(
        TableBuilder::new()
            .col_str("flag", &["f1", "f0", "f2", "f1", "f0"])
            .col_i64("key", vec![1, 2, 1, 2, 2])
            .col_f32("dial", vec![0.95, 0.3, 0.995, 0.6, 0.999])
            .build("c"),
    );
    let refusal = |sql: &str, func: &str| {
        let err = tdp.query(sql).and_then(|q| q.run()).expect_err(sql);
        let want = format!("{func} over a string column");
        assert!(
            matches!(&err, TdpError::Exec(ExecError::TypeMismatch(m)) if *m == want),
            "{sql}: {err:?}"
        );
    };
    for (sql, refused) in STRING_AGGREGATE_MISUSE {
        match refused {
            Some(func) => refusal(sql, func),
            None => assert!(tdp.query(sql).unwrap().run().unwrap().rows() > 0, "{sql}"),
        }
    }
    refusal(
        "SELECT MIN(item), MAX(item), SUM(item), AVG(item) FROM orders",
        "MIN",
    );
    refusal(
        "SELECT item, SUM(item) OVER (PARTITION BY qty) AS s FROM orders",
        "SUM",
    );
    let counts = tdp
        .query("SELECT item, COUNT(item) AS n, COUNT(DISTINCT item) AS d FROM orders GROUP BY item")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        counts.column("n").unwrap().data.decode_i64().to_vec(),
        [3, 2, 1]
    );
    assert_eq!(
        counts.column("d").unwrap().data.decode_i64().to_vec(),
        [1, 1, 1]
    );
}

/// Two select items under one output name used to reach `Table::new`
/// and panic there (over TCP: a dead connection thread). Lowering
/// refuses the statement's output schema by name, case-insensitively and
/// after `*` expansion — aliasing one apart is all it takes, and a
/// nested query may still repeat a name it never returns.
#[test]
fn duplicate_output_names_are_a_typed_error_not_a_panic() {
    let tdp = session();
    for (sql, name) in [
        ("SELECT qty, qty FROM orders", "qty"),
        ("SELECT item, ITEM FROM orders ORDER BY item", "ITEM"),
        ("SELECT DISTINCT qty, qty FROM orders", "qty"),
        (
            "SELECT o.item, i.item FROM orders AS o JOIN items AS i ON o.item = i.item",
            "item",
        ),
        ("SELECT price AS a, qty AS a FROM orders", "a"),
        ("SELECT * FROM (SELECT qty, qty FROM orders) AS s", "qty"),
    ] {
        let err = tdp.query(sql).map(|_| ()).expect_err(sql).to_string();
        assert!(
            err.contains(&format!(
                "'{name}' appears twice in the select list; alias one"
            )),
            "{sql}: {err}"
        );
    }
    for sql in [
        "SELECT qty, qty AS qty2 FROM orders",
        "SELECT item, item AS again FROM orders ORDER BY item",
        "SELECT DISTINCT qty, qty AS q FROM orders",
        "SELECT o.item, i.item AS i_item FROM orders AS o JOIN items AS i ON o.item = i.item",
        "SELECT price AS a, qty AS b FROM orders",
        "SELECT qty, price FROM (SELECT qty, qty, price FROM orders) AS s",
    ] {
        let t = tdp.query(sql).unwrap().run().unwrap();
        assert_eq!(t.columns().len(), 2, "{sql}");
    }
    // `*` beside other items never reaches the name check.
    assert!(tdp.query("SELECT *, qty FROM orders").is_err());
}

/// An aggregate statement returns its select list: those columns, in
/// that order — not the aggregate node's keys-then-aggregates output
/// whenever every item happens to be an un-aliased column.
#[test]
fn aggregate_statements_return_their_select_list() {
    let tdp = session();
    for (sql, columns) in [
        (
            "SELECT COUNT(*), item FROM orders GROUP BY item",
            &["COUNT(*)", "item"][..],
        ),
        (
            "SELECT SUM(price) FROM orders GROUP BY item",
            &["SUM(price)"],
        ),
        (
            "SELECT qty, item, COUNT(*) FROM orders GROUP BY item, qty",
            &["qty", "item", "COUNT(*)"],
        ),
        (
            "SELECT item FROM orders GROUP BY item HAVING COUNT(*) > 1",
            &["item"],
        ),
        // The identity case keeps skipping the projection.
        (
            "SELECT item, COUNT(*) FROM orders GROUP BY item",
            &["item", "COUNT(*)"],
        ),
    ] {
        let t = tdp.query(sql).unwrap().run().unwrap();
        let names: Vec<&str> = t.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, columns, "{sql}");
    }
    let t = tdp
        .query("SELECT item FROM orders GROUP BY item HAVING COUNT(*) > 1 ORDER BY item")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(t.columns()[0].data.decode_strings(), vec!["a", "b"]);
    // One aggregate named twice is two output columns of one name.
    let sql = "SELECT SUM(price), SUM(price) FROM orders";
    let err = tdp.query(sql).map(|_| ()).expect_err(sql).to_string();
    assert!(
        err.contains("'SUM(price)' appears twice in the select list; alias one"),
        "{err}"
    );
}

/// COUNT(DISTINCT b) beside COUNT(b) over one boolean argument (no
/// literal in it, so both read the same expression): the distinct count
/// is the number of distinct values, not that plus the trues COUNT(b)
/// reads out of the same flags.
#[test]
fn count_distinct_beside_count_of_the_same_boolean() {
    let tdp = session();
    let b = "qty > price * price * price";
    for (sql, d, n) in [
        (
            format!("SELECT COUNT(DISTINCT {b}) AS d, COUNT({b}) AS n FROM orders"),
            vec![2],
            vec![3],
        ),
        // a: true ×3; b: false ×2; c: false.
        (
            format!(
                "SELECT item, COUNT(DISTINCT {b}) AS d, COUNT({b}) AS n FROM orders \
                 GROUP BY item ORDER BY item"
            ),
            vec![1, 1, 1],
            vec![3, 0, 0],
        ),
    ] {
        let t = tdp.query(&sql).unwrap().run().unwrap();
        let col = |name: &str| t.column(name).unwrap().data.decode_i64().to_vec();
        assert_eq!((col("d"), col("n")), (d, n), "{sql}");
    }
}

#[test]
fn group_by_expression_keys_work_end_to_end() {
    // Regression: a select item / sort key / HAVING residue equal to a
    // GROUP BY *expression* must reference the aggregate's key output
    // instead of re-evaluating the expression (its input columns are gone
    // post-grouping) — and literal auto-parameterisation must give the
    // select item and the key the same parameter slots.
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("x", vec![1.0, 2.0, 1.0, 3.0])
            .build("t"),
    );
    let out = tdp
        .query("SELECT x + 1, COUNT(*) FROM t GROUP BY x + 1")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.rows(), 3);
    assert_eq!(
        out.column("(x + 1)").unwrap().data.decode_f32().to_vec(),
        vec![2.0, 3.0, 4.0],
        "output column keeps the pre-extraction name"
    );
    // Sorted descending by the expression key, groups filtered by HAVING
    // over the key expression.
    let sorted = tdp
        .query(
            "SELECT x + 1, COUNT(*) FROM t GROUP BY x + 1 \
             HAVING x + 1 < 4 ORDER BY x + 1 DESC",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        sorted.column("(x + 1)").unwrap().data.decode_f32().to_vec(),
        vec![3.0, 2.0]
    );
    assert_eq!(
        sorted
            .column("COUNT(*)")
            .unwrap()
            .data
            .decode_i64()
            .to_vec(),
        vec![1, 2]
    );
}

/// What `ON a = b` means (ROADMAP 4d) — the oracle's semantics, pinned
/// so a change to the join's key representation cannot move them. Each
/// case joins `l(lid, a, a2, a3)` to `r(rid, b, b2, b3)` and lists the
/// expected `(lid, rid)` pairs in output order: probe (left) rows in
/// input order, each one's matches in ascending build (right) row order.
#[test]
fn join_key_equality_specification() {
    use tdp_core::encoding::{BitPackedColumn, DeltaColumn, EncodedTensor, RleColumn};
    use tdp_core::tensor::Tensor;

    let ints = |v: &[i64]| Tensor::from_vec(v.to_vec(), &[v.len()]);
    let plain = |v: &[i64]| EncodedTensor::I64(ints(v));
    let packed = |v: &[i64]| EncodedTensor::BitPacked(BitPackedColumn::encode(&ints(v)));
    let delta = |v: &[i64]| EncodedTensor::Delta(DeltaColumn::encode(&ints(v)).unwrap());
    let rle = |v: &[i64]| EncodedTensor::Rle(RleColumn::encode(&ints(v)));
    let strs = |v: &[&str]| EncodedTensor::from_strings(v);
    let floats = |v: &[f32]| EncodedTensor::from_f32_slice(v);
    let bools = |v: &[bool]| EncodedTensor::Bool(Tensor::from_vec(v.to_vec(), &[v.len()]));

    type Keys = Vec<EncodedTensor>;
    type Case = (&'static str, Keys, Keys, Vec<(i64, i64)>);
    let cases: Vec<Case> = vec![
        (
            "i64 x bit-packed: by value, duplicates in ascending build order",
            vec![plain(&[3, 7, 5, 3])],
            vec![packed(&[5, 3, 9, 3])],
            vec![(0, 1), (0, 3), (2, 0), (3, 1), (3, 3)],
        ),
        (
            "i64 x delta: by value",
            vec![plain(&[12, -4, 10])],
            vec![delta(&[10, 11, 12, 12])],
            vec![(0, 2), (0, 3), (2, 0)],
        ),
        (
            "rle x i64: by value",
            vec![rle(&[2, 2, 2, 8])],
            vec![plain(&[8, 2])],
            vec![(0, 1), (1, 1), (2, 1), (3, 0)],
        ),
        (
            "dictionary x dictionary: by string, across different dictionaries",
            vec![strs(&["b", "a", "z"])],
            vec![strs(&["a", "c", "b", "a"])],
            vec![(0, 2), (1, 0), (1, 3)],
        ),
        (
            "string x integer: textual equality",
            vec![strs(&["3", "x", "10", "03"])],
            vec![plain(&[3, 10, 3])],
            vec![(0, 0), (0, 2), (2, 1)],
        ),
        (
            "bool x i64: never match",
            vec![bools(&[true, false])],
            vec![plain(&[1, 0])],
            vec![],
        ),
        (
            "f32 x f32: bit-wise (NaN joins NaN, 0.0 does not join -0.0)",
            vec![floats(&[f32::NAN, 0.0, -0.0, 1.5])],
            vec![floats(&[f32::NAN, 0.0, 1.5, -0.0])],
            vec![(0, 0), (1, 1), (2, 3), (3, 2)],
        ),
        (
            "two-column key (i64, dictionary)",
            vec![plain(&[1, 1, 2, 2]), strs(&["x", "y", "x", "y"])],
            vec![packed(&[2, 1, 2, 1]), strs(&["y", "q", "y", "x"])],
            vec![(0, 3), (3, 0), (3, 2)],
        ),
        (
            "three-column key (i64, dictionary, f32)",
            vec![
                plain(&[1, 1, 1]),
                strs(&["x", "x", "y"]),
                floats(&[0.5, 0.25, 0.5]),
            ],
            vec![
                plain(&[1, 1, 1, 1]),
                strs(&["x", "y", "x", "x"]),
                floats(&[0.5, 0.5, 0.75, 0.5]),
            ],
            vec![(0, 0), (0, 3), (2, 1)],
        ),
    ];

    let side = |name: &str, id: &str, prefix: &str, keys: &Keys| {
        let rows = keys[0].rows();
        let mut b = TableBuilder::new().col_i64(id, (0..rows as i64).collect());
        for (i, col) in keys.iter().enumerate() {
            let suffix = if i == 0 {
                String::new()
            } else {
                (i + 1).to_string()
            };
            b = b.col_encoded(format!("{prefix}{suffix}"), col.clone());
        }
        b.build(name)
    };
    for (what, left, right, want) in cases {
        let tdp = Tdp::new();
        tdp.register_table(side("l", "lid", "a", &left));
        tdp.register_table(side("r", "rid", "b", &right));
        let on = match left.len() {
            1 => "l.a = r.b",
            2 => "l.a = r.b AND l.a2 = r.b2",
            _ => "l.a = r.b AND l.a2 = r.b2 AND l.a3 = r.b3",
        };
        let out = tdp
            .query(&format!("SELECT lid, rid FROM l JOIN r ON {on}"))
            .unwrap()
            .run()
            .unwrap();
        let col = |name: &str| out.column(name).unwrap().data.decode_i64().to_vec();
        let got: Vec<(i64, i64)> = col("lid").into_iter().zip(col("rid")).collect();
        assert_eq!(got, want, "{what}");
    }

    // The filter's `=` is numeric where the join's is bit-wise: both
    // zeros survive `WHERE a = 0.0`.
    let tdp = Tdp::new();
    tdp.register_table(side(
        "l",
        "lid",
        "a",
        &vec![floats(&[f32::NAN, 0.0, -0.0, 1.5])],
    ));
    let kept = tdp
        .query("SELECT lid FROM l WHERE a = 0.0")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        kept.column("lid").unwrap().data.decode_i64().to_vec(),
        vec![1, 2]
    );
}

/// A window aggregate is the GROUP BY fold of its peer groups: per row,
/// `f(x) OVER (PARTITION BY k)` carries the bits of `f(x) … GROUP BY k`
/// for that row's key, and `f(x) OVER ()` those of the ungrouped
/// aggregate — or both forms fail with the same error text. The data
/// holds NaN (both signs), ±0.0 and ±∞ in f32, `i64` values past 2²⁴
/// (where an f32 view merges neighbours) and a dictionary string column
/// (COUNT forms only). With ORDER BY and one row per peer group, a
/// running SUM is the f32 running sum from `+0.0` in window order, and
/// a running COUNT(DISTINCT) counts distinct values, not f32 images.
#[test]
fn window_aggregates_are_group_by_aggregates() {
    use tdp_core::encoding::EncodedTensor;
    use tdp_core::storage::Table;

    let neg_nan = f32::from_bits(0xffc0_0001);
    let (inf, big) = (f32::INFINITY, 1i64 << 24);
    #[rustfmt::skip]
    let rows: [(i64, f32, i64, &str); 24] = [
        (0, 1e8, big, "a"),       (1, f32::NAN, big + 1, "b"), (2, inf, big + 1, "a"),
        (3, -0.0, 1 << 40, "c"),  (0, 1.0, big + 1, "b"),      (1, 0.1, big, "b"),
        (2, -inf, 3, "a"),        (3, 0.0, (1 << 40) + 1, "c"), (0, -1e8, big + 2, "a"),
        (1, 2.5, big + 3, "c"),   (2, 7.0, big, "b"),          (3, -0.0, 5, "a"),
        (0, 0.1, big + 1, "b"),   (1, neg_nan, big, "a"),      (2, 1e-3, big, "c"),
        (3, 0.3, -big - 1, "c"),  (0, 0.2, -big, "a"),         (1, 3.0e7, 7, "a"),
        (2, 1.0, 8, "b"),         (3, 1e30, 9, "b"),           (0, 1e-7, big, "c"),
        (1, 0.7, big + 1, "c"),   (2, 3.0, 1, "a"),            (3, 1e30, 2, "a"),
    ];
    let tdp = Tdp::new();
    // One morsel: the GROUP BY side folds one partial at every setting.
    tdp.set_morsel_rows(1 << 16);
    tdp.register_table(
        TableBuilder::new()
            .col_i64("k", rows.iter().map(|r| r.0).collect())
            .col_f32("f", rows.iter().map(|r| r.1).collect())
            .col_i64("i", rows.iter().map(|r| r.2).collect())
            .col_str("s", &rows.iter().map(|r| r.3).collect::<Vec<_>>())
            .build("wt"),
    );
    tdp.register_table(pics_table(4));

    // Each cell with its type: `(is_int, bits)`.
    let cells = |t: &Table, col: &str| -> Vec<(bool, u64)> {
        match &t.column(col).unwrap().data {
            EncodedTensor::I64(v) => v.data().iter().map(|&x| (true, x as u64)).collect(),
            other => (other.decode_f32().data().iter())
                .map(|x| (false, u64::from(x.to_bits())))
                .collect(),
        }
    };
    let run = |sql: &str| {
        tdp.query(sql)
            .and_then(|q| q.run())
            .map_err(|e| e.to_string())
    };
    let mut aggregates = vec![
        "COUNT(*)".to_owned(),
        "COUNT(f > 0)".to_owned(),
        "COUNT(s = 'a')".to_owned(),
        "COUNT(s)".to_owned(),
        "COUNT(DISTINCT s)".to_owned(),
    ];
    for x in ["f", "i"] {
        for func in ["COUNT", "SUM", "AVG", "MIN", "MAX", "VARIANCE", "STDDEV"] {
            aggregates.push(format!("{func}({x})"));
        }
        aggregates.push(format!("COUNT(DISTINCT {x})"));
    }
    for agg in &aggregates {
        let window = run(&format!(
            "SELECT k, {agg} OVER (PARTITION BY k) AS w FROM wt"
        ));
        let grouped = run(&format!("SELECT k, {agg} AS g FROM wt GROUP BY k"));
        let (window, grouped) = match (window, grouped) {
            (Ok(w), Ok(g)) => (w, g),
            (w, g) => panic!("{agg}: window {w:?} vs GROUP BY {g:?}"),
        };
        let keys = grouped.column("k").unwrap().data.decode_i64().to_vec();
        let by_key: std::collections::HashMap<i64, (bool, u64)> =
            keys.into_iter().zip(cells(&grouped, "g")).collect();
        let row_keys = window.column("k").unwrap().data.decode_i64().to_vec();
        let want: Vec<(bool, u64)> = row_keys.iter().map(|k| by_key[k]).collect();
        assert_eq!(cells(&window, "w"), want, "{agg} OVER (PARTITION BY k)");

        let window = run(&format!("SELECT {agg} OVER () AS w FROM wt")).unwrap();
        let whole = run(&format!("SELECT {agg} AS g FROM wt")).unwrap();
        let want = vec![cells(&whole, "g")[0]; rows.len()];
        assert_eq!(cells(&window, "w"), want, "{agg} OVER ()");
    }

    // A payload column is GROUP BY's typed error in a window too.
    for (window, grouped) in [
        (
            "SELECT id, COUNT(DISTINCT images) OVER () AS w FROM pics",
            "SELECT COUNT(DISTINCT images) AS g FROM pics",
        ),
        (
            "SELECT id, SUM(images) OVER (PARTITION BY id) AS w FROM pics",
            "SELECT id, SUM(images) AS g FROM pics GROUP BY id",
        ),
    ] {
        let (w, g) = (run(window).unwrap_err(), run(grouped).unwrap_err());
        assert_eq!(w, g, "{window}");
    }

    // Running frames, one row per peer group: `o` is a unique order key.
    let order: Vec<i64> = (0..rows.len() as i64).map(|r| (r * 7) % 24).collect();
    let vals = [
        1e8, 1.0, -1e8, 0.1, 0.2, 0.3, 3.3, -0.0, 1e-7, 2.5, 16.0, -3.25, 0.7, 1e7, 1e-3, 5.5,
        -1.5, 1.0, 9e6, -9e6, 0.0, 0.125, 4.0, 1e8f32,
    ];
    tdp.register_table(
        TableBuilder::new()
            .col_i64("p", rows.iter().map(|r| r.0 % 2).collect())
            .col_i64("o", order.clone())
            .col_f32("v", vals.to_vec())
            .col_i64("i", rows.iter().map(|r| r.2).collect())
            .build("rt"),
    );
    let out = run("SELECT SUM(v) OVER (PARTITION BY p ORDER BY o) AS s, \
         COUNT(DISTINCT i) OVER (PARTITION BY p ORDER BY o) AS d FROM rt")
    .unwrap();
    let mut window_order: Vec<usize> = (0..rows.len()).collect();
    window_order.sort_by_key(|&r| (rows[r].0 % 2, order[r]));
    let (mut sums, mut distinct) = (vec![0u32; rows.len()], vec![0i64; rows.len()]);
    let mut seen = std::collections::HashSet::new();
    let mut acc = 0.0f32;
    for (pos, &r) in window_order.iter().enumerate() {
        if pos == 0 || rows[window_order[pos - 1]].0 % 2 != rows[r].0 % 2 {
            (acc, seen) = (0.0, Default::default());
        }
        acc += vals[r];
        seen.insert(rows[r].2);
        (sums[r], distinct[r]) = (acc.to_bits(), seen.len() as i64);
    }
    let got = out.column("s").unwrap().data.decode_f32().to_vec();
    assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), sums);
    assert_eq!(
        out.column("d").unwrap().data.decode_i64().to_vec(),
        distinct
    );
}

/// `x`'s position on the line of f32 values ordered by value: the ulp
/// distance of two values is the difference of their positions.
fn position(x: f32) -> i64 {
    let b = x.to_bits();
    if b >> 31 == 1 {
        -i64::from(b & 0x7fff_ffff)
    } else {
        i64::from(b)
    }
}

/// SQL `EXP`, `LN`, `LOG10` and `POWER` over the golden corpus's edge
/// values (`tests/golden/results.txt`, `transcendentals: …`): each value
/// within 1 ulp of the f64 reference rounded to f32 — the engine kernels'
/// measured bound — infinities and zeros exact, and every NaN the
/// canonical one.
#[test]
fn transcendental_builtins_match_the_f64_reference() {
    let tdp = Tdp::new();
    let edge = edge_table();
    let col = |name: &str| edge.column(name).unwrap().data.decode_f32().to_vec();
    let (x, y) = (col("x"), col("y"));
    tdp.register_table(edge);
    let cases: [(&str, Vec<f64>); 6] = [
        ("EXP(x)", x.iter().map(|&v| f64::from(v).exp()).collect()),
        ("LN(x)", x.iter().map(|&v| f64::from(v).ln()).collect()),
        (
            "LOG10(x)",
            x.iter().map(|&v| f64::from(v).log10()).collect(),
        ),
        (
            "POWER(x, y)",
            (x.iter().zip(&y))
                .map(|(&a, &b)| f64::from(a).powf(f64::from(b)))
                .collect(),
        ),
        (
            "POW(x, 2)",
            x.iter().map(|&v| f64::from(v).powf(2.0)).collect(),
        ),
        (
            "POWER(2, x)",
            x.iter().map(|&v| 2f64.powf(f64::from(v))).collect(),
        ),
    ];
    for (call, want) in cases {
        let got = run_f32(&tdp, &format!("SELECT {call} AS r FROM edge"), "r");
        for ((&x, got), want) in x.iter().zip(got).zip(want) {
            let want = want as f32;
            if want.is_nan() {
                assert_eq!(got.to_bits(), f32::NAN.to_bits(), "{call} at x = {x:e}");
            } else {
                let ulps = (position(got) - position(want)).abs();
                assert!(ulps <= 1, "{call} at x = {x:e}: {got:e}, want {want:e}");
                if want.is_infinite() || want == 0.0 {
                    assert_eq!(got, want, "{call} at x = {x:e}");
                }
            }
        }
    }
}
