//! The analytic benchmark's two heaviest shapes at their own scale, as an
//! oracle: a TPC-H Q1 aggregate over a sorted, compressed 1M-row
//! `lineitem`, where zone maps prove most morsels wholly inside the
//! filter, and the Q3 join of its selection to a 50k-row dense-key
//! `orders`, which probes a unique direct-index table. Each statement
//! must return, byte for byte, what zone maps and chain kernels off at
//! one thread return.
//!
//! Too slow for a debug build, so it is ignored; run it in release:
//! `cargo test --release -q -p tdp_integration -- --ignored`.

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::Rng64;
use tdp_core::{ParamValues, Tdp};
use tdp_integration::assert_tables_identical;

const ROWS: usize = 1_000_000;
const ORDERS: usize = 50_000;
const SHIP_DAYS: i64 = 2556;

/// `lineitem`: sorted `l_shipday`, `l_orderkey` into `orders`, three
/// measures, a dictionary flag and `l_v ~ N(0,1)`; compressed, so the
/// day and key columns are read out of integer-compressed layouts.
fn lineitem() -> Table {
    let mut r = Rng64::new(17);
    let flags: Vec<&str> = (0..ROWS).map(|_| ["A", "N", "R"][r.below(3)]).collect();
    TableBuilder::new()
        .col_i64(
            "l_shipday",
            (0..ROWS)
                .map(|i| i as i64 * SHIP_DAYS / ROWS as i64)
                .collect(),
        )
        .col_i64(
            "l_orderkey",
            (0..ROWS).map(|_| r.below(ORDERS) as i64).collect(),
        )
        .col_f32(
            "l_qty",
            (0..ROWS).map(|_| 1.0 + r.below(50) as f32).collect(),
        )
        .col_f32(
            "l_price",
            (0..ROWS)
                .map(|_| r.uniform_range(900.0, 105_000.0) as f32)
                .collect(),
        )
        .col_f32(
            "l_disc",
            (0..ROWS).map(|_| r.below(11) as f32 * 0.01).collect(),
        )
        .col_str("l_flag", &flags)
        .col_f32("l_v", (0..ROWS).map(|_| r.normal() as f32).collect())
        .build("lineitem")
        .compress()
}

/// `orders`: one row per key `0..ORDERS`, the join's build side.
fn orders() -> Table {
    let mut r = Rng64::new(29);
    TableBuilder::new()
        .col_i64("o_orderkey", (0..ORDERS as i64).collect())
        .col_i64("o_prio", (0..ORDERS).map(|_| r.below(5) as i64).collect())
        .col_f32(
            "o_total",
            (0..ORDERS)
                .map(|_| r.uniform_range(1e3, 5e5) as f32)
                .collect(),
        )
        .build("orders")
}

const Q1: &str = "SELECT l_flag, SUM(l_qty) AS q, SUM(l_price) AS p, \
                  SUM(l_price * (1 - l_disc)) AS net, AVG(l_disc) AS d, COUNT(*) AS n \
                  FROM lineitem WHERE l_shipday <= ? GROUP BY l_flag ORDER BY l_flag";
const Q3: &str = "SELECT orders.o_prio, COUNT(*) AS n, SUM(s.l_price) AS rev FROM \
                  (SELECT l_orderkey, l_price FROM lineitem WHERE l_v > ?) AS s \
                  JOIN orders ON s.l_orderkey = orders.o_orderkey \
                  GROUP BY orders.o_prio ORDER BY rev DESC LIMIT 3";
const Q3_PAIRS: &str = "SELECT s.l_orderkey, s.l_price, orders.o_prio, orders.o_total FROM \
                        (SELECT l_orderkey, l_price FROM lineitem WHERE l_v > ?) AS s \
                        JOIN orders ON s.l_orderkey = orders.o_orderkey";

#[test]
#[ignore = "bench scale: run with cargo test --release -p tdp_integration -- --ignored"]
fn bench_shapes_match_the_plain_run() {
    let (lineitem, orders) = (lineitem(), orders());
    let session = |fast: bool| {
        let tdp = Tdp::new();
        tdp.register_table(lineitem.clone());
        tdp.register_table(orders.clone());
        tdp.set_zone_maps(fast);
        tdp.set_chain_kernels(fast);
        tdp.set_threads(if fast { 2 } else { 1 });
        tdp
    };
    let (fast, plain) = (session(true), session(false));
    let mut cases: Vec<(&str, f64)> = (2436..2496).map(|day| (Q1, day as f64)).collect();
    for cutoff in [1.2816, 2.3263] {
        cases.push((Q3, cutoff));
        cases.push((Q3_PAIRS, cutoff));
    }
    for (sql, bound) in cases {
        let run = |tdp: &Tdp| {
            let q = tdp.prepare(sql).unwrap();
            q.bind(ParamValues::new().number(bound))
                .unwrap()
                .run()
                .unwrap()
        };
        let want = run(&plain);
        assert!(want.rows() > 0, "{sql} @ {bound}");
        assert_tables_identical(&want, &run(&fast), &format!("{sql} @ {bound}"));
    }
    // The proofs ran: of Q1's 16 morsels the bound proves the first 14
    // (the 14th ends on day 2345), the 15th straddles it and the 16th
    // starts on day 2512.
    let q1 = fast.prepare(Q1).unwrap();
    for day in [2436.0, 2495.0] {
        let bound = ParamValues::new().number(day);
        let (_, profile) = q1.bind(bound).unwrap().run_profiled().unwrap();
        let counts = (
            profile.morsels_pruned,
            profile.morsels_proven,
            profile.morsels_scanned,
        );
        assert_eq!(counts, (1, 14, 15), "{}", profile.pretty());
    }
}
