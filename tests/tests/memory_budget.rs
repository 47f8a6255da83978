//! Memory-budget isolation: a query that breaches the engine's budget
//! (`TdpEngine::with_memory_budget`) must abort with the typed
//! out-of-memory error while every concurrent in-budget query
//! completes **byte-identically** to a run
//! on an unconstrained engine — and over TCP the breach must map to
//! `ERR MEM_BUDGET` on a connection that stays usable.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tdp_core::storage::TableBuilder;
use tdp_core::{TdpEngine, TdpError};
use tdp_server::{ServerConfig, TdpServer};

/// Budget for the constrained engines: 1 MiB. The big table's decoded
/// column alone (200k × 8 B = 1.6 MB) exceeds it, so a breaching query
/// is refused its *first* charge and aborts holding zero bytes — the
/// budget stays fully available to concurrent small queries.
const BUDGET: u64 = 1 << 20;
const BIG_ROWS: usize = 200_000;

fn load_tables(engine: &TdpEngine) {
    engine.register_table(
        TableBuilder::new()
            .col_i64("qty", (0..BIG_ROWS as i64).map(|i| i % 977).collect())
            .build("big"),
    );
    engine.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0, 2.5, 0.5, 9.0])
            .col_str("item", &["b", "a", "a", "c", "b", "a", "c", "b"])
            .build("orders"),
    );
}

const BREACHING: &str = "SELECT DISTINCT qty FROM big ORDER BY qty";

const SMALL: &[&str] = &[
    "SELECT item, SUM(price) AS total FROM orders GROUP BY item ORDER BY item",
    "SELECT COUNT(*) FROM orders WHERE price > 2.0",
    "SELECT price FROM orders WHERE price >= 2.5 ORDER BY price",
];

#[test]
fn breaching_query_aborts_typed_and_names_no_dropped_state() {
    let engine = TdpEngine::with_memory_budget(BUDGET);
    load_tables(&engine);
    let session = engine.session();
    let err = session
        .query(BREACHING)
        .unwrap()
        .run()
        .expect_err("1 MiB budget cannot hold a 200k-row DISTINCT");
    match &err {
        TdpError::Exec(tdp_core::exec::ExecError::MemoryBudget {
            operator,
            requested,
        }) => {
            assert!(!operator.is_empty(), "abort names the operator");
            assert!(*requested > BUDGET, "first refused charge: {requested}");
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }
    assert!(err.to_string().contains("out of memory budget"), "{err}");
    // The abort released everything and was counted once.
    assert_eq!(engine.memory_pool().used(), 0);
    assert_eq!(engine.stats().mem_budget_aborts, 1);
    // The same session keeps working after the abort.
    let t = session.query(SMALL[1]).unwrap().run().unwrap();
    assert_eq!(t.rows(), 1);
}

/// The gathered path copies nothing ahead of its stage, so nothing is
/// refused ahead of it either — but a chain without a filter emits every
/// row it reads, and its first window charges the whole stage's output:
/// on the interpreter at seven-row morsels (28,572 of them) the breaching
/// query is still refused one charge larger than the budget, with none
/// of its output on the ledger, instead of growing 56 bytes at a time to
/// the budget its neighbours share.
#[test]
fn filterless_gathered_stage_is_refused_whole_not_window_by_window() {
    let engine = TdpEngine::with_memory_budget(BUDGET);
    load_tables(&engine);
    let session = engine.session();
    session.set_chain_kernels(false);
    session.set_morsel_rows(7);
    for threads in [1, 4] {
        session.set_threads(threads);
        let err = session.query(BREACHING).unwrap().run();
        match err.expect_err("1 MiB cannot hold the projected column") {
            TdpError::Exec(tdp_core::exec::ExecError::MemoryBudget {
                operator,
                requested,
            }) => {
                assert_eq!(operator, "morsel output");
                assert_eq!(requested, BIG_ROWS as u64 * 8, "the stage's whole output");
            }
            other => panic!("expected MemoryBudget, got {other:?}"),
        }
        assert_eq!(engine.memory_pool().used(), 0);
    }
}

#[test]
fn concurrent_small_queries_are_byte_identical_to_unconstrained_run() {
    // Oracle: the small queries on an engine with no budget at all.
    let oracle_engine = TdpEngine::new();
    load_tables(&oracle_engine);
    let oracle_session = oracle_engine.session();
    let oracle: Vec<String> = SMALL
        .iter()
        .map(|q| oracle_session.query(q).unwrap().run().unwrap().pretty(100))
        .collect();

    let engine = TdpEngine::with_memory_budget(BUDGET);
    load_tables(&engine);
    std::thread::scope(|s| {
        // Breaching queries hammering the pool from two threads…
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for _ in 0..5 {
                    let err = engine.session().query(BREACHING).unwrap().run();
                    assert!(
                        matches!(
                            err,
                            Err(TdpError::Exec(
                                tdp_core::exec::ExecError::MemoryBudget { .. }
                            ))
                        ),
                        "breacher must abort on the budget: {err:?}"
                    );
                }
            });
        }
        // …while in-budget queries stay byte-identical to the oracle.
        for _ in 0..2 {
            let engine = Arc::clone(&engine);
            let oracle = &oracle;
            s.spawn(move || {
                let session = engine.session();
                for _ in 0..5 {
                    for (q, want) in SMALL.iter().zip(oracle) {
                        let got = session.query(q).unwrap().run().unwrap().pretty(100);
                        assert_eq!(&got, want, "in-budget query diverged under pressure");
                    }
                }
            });
        }
    });
    assert_eq!(engine.memory_pool().used(), 0, "every ledger released");
    assert_eq!(engine.stats().mem_budget_aborts, 10);
}

/// Late materialization: a selective filter feeding SUM charges only
/// its selection vector and the survivors it folds (~8 KB each), so the
/// query fits a budget the gathered path cannot: with the chain on the
/// interpreter every in-flight morsel task slices its window of the
/// input — 65,536 rows × 8 B = 512 KiB — before filtering it. (Neither
/// path copies the whole column any more; the budget sits between a
/// morsel-width slice and a survivor-width one.) Same engine, same
/// query, same budget; the only difference is whether the chain hands
/// the barrier a selection vector or a gathered batch.
#[test]
fn selection_fed_aggregate_fits_budget_the_gathered_path_exceeds() {
    let engine = TdpEngine::with_memory_budget(256 << 10);
    load_tables(&engine);
    let session = engine.session();
    // The budget is sized against one morsel at the default width, set
    // here so the test owns it.
    session.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
    let sql = "SELECT SUM(qty) AS s FROM big WHERE qty < 5";

    session.set_chain_kernels(false);
    let err = session
        .query(sql)
        .unwrap()
        .run()
        .expect_err("gathered aggregation slices a morsel-width window per task");
    assert!(
        matches!(
            &err,
            TdpError::Exec(tdp_core::exec::ExecError::MemoryBudget { operator, .. })
                if operator == "morsel materialization"
        ),
        "{err:?}"
    );

    session.set_chain_kernels(true);
    let t = session
        .query(sql)
        .unwrap()
        .run()
        .expect("selection-fed aggregation charges survivors, not morsel width");
    assert_eq!(t.rows(), 1);
    // 204 full cycles of 0..977 plus a 692-row tail: 205 × (0+1+2+3+4).
    assert_eq!(t.columns()[0].data.decode_f32().to_vec(), vec![2050.0]);
    assert_eq!(engine.memory_pool().used(), 0, "ledger fully released");
}

/// A selection-fed top-k whose key is computed gathers its survivors'
/// payload before evaluating the key per run, and charges that gather —
/// not a survivor-width copy of keys it never gathers. Over 4,096 rows
/// of 32-wide embeddings in eight runs on two workers, the gathered
/// payload (4,092 survivors × 136 B) is more than twice everything else
/// the statement holds at once (its survivor ids, the runs' keys and two
/// in-flight run windows), so a budget of exactly the payload refuses the
/// gather by name, and an unconstrained run's peak covers it. (A bound
/// tensor parameter in the key would pin the sort to one run.)
#[test]
fn selection_fed_top_k_with_a_computed_key_charges_the_payload_it_gathers() {
    sort_gather_is_charged(
        "SELECT id, emb FROM vecs WHERE id > 3 ORDER BY id % 97 DESC LIMIT 3",
        2,
        "[parallel top-k]",
    );
}

/// A one-run sort of a selection-fed input gathers the survivors first,
/// whatever its keys, and charges that gather the same way: at one
/// thread, a plain-column key included.
#[test]
fn one_run_selection_fed_top_k_charges_the_payload_it_gathers() {
    sort_gather_is_charged(
        "SELECT id, emb FROM vecs WHERE id > 3 ORDER BY id DESC LIMIT 3",
        1,
        "[sequential: threads=1]",
    );
}

/// Run `sql` — a top-3 over `vecs WHERE id > 3` whose EXPLAIN shows
/// `strategy` at `threads` — unconstrained, then under a budget of
/// exactly its gathered payload, which refuses the gather by name.
fn sort_gather_is_charged(sql: &str, threads: usize, strategy: &str) {
    const ROWS: usize = 4_096;
    const DIM: usize = 32;
    let payload = ((ROWS - 4) * (8 + 4 * DIM)) as u64;
    let run = |engine: &Arc<TdpEngine>| {
        engine.register_table(tdp_integration::vecs_table(ROWS, DIM, 3));
        let session = engine.session();
        session.set_threads(threads);
        session.set_morsel_rows(ROWS / 8);
        let query = session.query(sql).unwrap();
        assert!(query.explain().contains(strategy), "{}", query.explain());
        query.run_profiled()
    };

    let (out, profile) = run(&TdpEngine::new()).expect("no budget");
    assert_eq!(out.rows(), 3);
    assert!(
        profile.peak_memory_bytes >= payload,
        "peak {} must cover the gathered payload {payload}",
        profile.peak_memory_bytes
    );

    let engine = TdpEngine::with_memory_budget(payload);
    match run(&engine) {
        Err(TdpError::Exec(tdp_core::exec::ExecError::MemoryBudget {
            operator,
            requested,
        })) => {
            assert_eq!(operator, "sort gather");
            assert_eq!(requested, payload);
        }
        other => panic!(
            "expected the gather to be refused, got {:?}",
            other.map(|r| r.0)
        ),
    }
    assert_eq!(engine.memory_pool().used(), 0, "ledger fully released");
}

/// The grouped selection-fed fold charges what it allocates — one
/// window's selection, key codes, group ids and argument values per
/// worker, and the per-group partial states — not a copy of any column,
/// and no table-wide selection vector: each task selects and folds its own
/// window where its columns are stored. The TPC-H Q1 shape at 97%
/// selectivity over 400k rows keeps n = 388,000 survivors across 4
/// referenced columns: the gathered charge that replaced (`n * 8 * refs` =
/// 12.4 MB) cannot fit 12 MiB; two workers' scratch (~1.9 MB each) does,
/// with nothing beside it. And when one worker's scratch is refused, the
/// abort is typed and the ledger drains to zero.
#[test]
fn grouped_selection_fed_aggregate_charges_scratch_not_a_gather() {
    const ROWS: usize = 400_000;
    let sql = "SELECT flag, SUM(qty) AS q, SUM(price) AS p, SUM(price * (1 - disc)) AS net, \
               AVG(disc) AS d, COUNT(*) AS n FROM lineitem WHERE dial < 0.97 GROUP BY flag";
    let load = |engine: &TdpEngine| {
        let flags: Vec<String> = (0..ROWS).map(|i| format!("f{}", (i * 7) % 3)).collect();
        engine.register_table(
            TableBuilder::new()
                .col_str("flag", &flags)
                .col_i64("qty", (0..ROWS).map(|i| (i % 50) as i64 + 1).collect())
                .col_f32(
                    "price",
                    (0..ROWS).map(|i| (i % 1000) as f32 + 0.5).collect(),
                )
                .col_f32("disc", (0..ROWS).map(|i| (i % 11) as f32 / 100.0).collect())
                .col_f32(
                    "dial",
                    (0..ROWS).map(|i| (i % 100) as f32 / 100.0).collect(),
                )
                .build("lineitem"),
        );
    };
    let run = |budget: u64| {
        let engine = TdpEngine::with_memory_budget(budget);
        load(&engine);
        let session = engine.session();
        session.set_threads(2);
        // The budgets below are sized against one worker's scratch at the
        // default morsel width, set here so the test owns it.
        session.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
        session.set_chain_kernels(true);
        let out = session.query(sql).unwrap().run_profiled();
        (engine, out)
    };

    let (engine, out) = run(12 << 20);
    let (table, profile) = out.expect("scratch + state fit where a survivor-width gather cannot");
    assert_eq!(table.rows(), 3);
    assert_eq!(
        table
            .column("n")
            .unwrap()
            .data
            .decode_i64()
            .to_vec()
            .iter()
            .sum::<i64>(),
        (ROWS as i64 / 100) * 97
    );
    let text = profile.pretty();
    assert!(text.contains("keys: codes, selection-fed"), "{text}");
    // One worker's scratch at the default width: its window's mask (1 B a
    // row), the key's grouping codes (8 B), the group ids and four argument
    // buffers (4 B each) — 29 B a row, where copying the four referenced
    // columns into a batch of the fold's own made it 45 B.
    let scratch = tdp_core::exec::DEFAULT_MORSEL_ROWS as u64 * (1 + 8 + 4 + 4 * 4);
    // At most two workers' scratch plus the partial states. The two-stage
    // hand-off peaked at 8,871,938 B: the same two beside a 3,104,008 B
    // table-wide selection vector (388,001 × 8 B).
    assert!(
        profile.peak_memory_bytes <= 2 * scratch + 4096,
        "peak {} holds more than two windows' scratch",
        profile.peak_memory_bytes
    );
    assert_eq!(engine.memory_pool().used(), 0, "ledger fully released");

    // 1 MiB cannot hold one worker's scratch: refused whether or not the
    // two workers overlap.
    let (engine, out) = run(1 << 20);
    match out {
        Err(TdpError::Exec(tdp_core::exec::ExecError::MemoryBudget { operator, .. })) => {
            assert_eq!(operator, "aggregate scratch")
        }
        other => panic!(
            "expected a typed budget abort, got {:?}",
            other.map(|(t, _)| t.rows())
        ),
    }
    assert_eq!(
        engine.memory_pool().used(),
        0,
        "refusal path drains to zero"
    );
    assert_eq!(engine.stats().mem_budget_aborts, 1);
}

/// An aggregate over a bare scan folds every window where its column is
/// stored, so it charges only the fold's scratch — `SUM(v)`'s values, 4 B
/// a row — and never a window of every column: with four unreferenced
/// `i64` columns beside `v` one window is 65,536 × 36 B = 2.25 MiB, which
/// the 2 MiB budget refuses, while four workers' scratch (1 MiB) fits.
#[test]
fn bare_scan_aggregate_charges_its_fold_scratch_not_a_window_of_every_column() {
    const ROWS: usize = 4 * 65_536;
    let engine = TdpEngine::with_memory_budget(2 << 20);
    let ints = |m: i64| (0..ROWS as i64).map(|i| i % m).collect::<Vec<i64>>();
    engine.register_table(
        TableBuilder::new()
            .col_f32("v", (0..ROWS).map(|i| (i % 10) as f32).collect())
            .col_i64("a", ints(3))
            .col_i64("b", ints(5))
            .col_i64("c", ints(7))
            .col_i64("d", ints(11))
            .build("wide"),
    );
    let session = engine.session();
    // The budget is sized against one window at the default width.
    session.set_morsel_rows(tdp_core::exec::DEFAULT_MORSEL_ROWS);
    session.set_chain_kernels(true);
    for threads in [1, 4] {
        session.set_threads(threads);
        let t = session
            .query("SELECT COUNT(*), SUM(v) FROM wide")
            .unwrap()
            .run()
            .expect("the fold's scratch fits where a window of every column cannot");
        assert_eq!(t.columns()[0].data.decode_i64().to_vec(), vec![ROWS as i64]);
        // Integer sums well below 2²⁴: exact in f32 whatever the order.
        let sum: i64 = (0..ROWS as i64).map(|i| i % 10).sum();
        assert_eq!(t.columns()[1].data.decode_f32().to_vec(), vec![sum as f32]);
        assert_eq!(engine.memory_pool().used(), 0, "ledger fully released");
    }
}

#[test]
fn run_profiled_reports_peak_bytes_under_and_over_budget() {
    let engine = TdpEngine::new();
    load_tables(&engine);
    let session = engine.session();
    let (_, profile) = session
        .query("SELECT DISTINCT qty FROM big ORDER BY qty")
        .unwrap()
        .run_profiled()
        .unwrap();
    assert!(
        profile.peak_memory_bytes > (BIG_ROWS * 8) as u64,
        "peak must cover the decoded column: {}",
        profile.peak_memory_bytes
    );
    assert!(
        profile.pretty().contains("mem peak"),
        "{}",
        profile.pretty()
    );
    assert!(
        profile.ops.iter().any(|op| op.charged_bytes > 0),
        "some operator must report charged bytes"
    );
    assert!(engine.stats().mem_high_water_bytes >= profile.peak_memory_bytes);
}

// ---------------------------------------------------------------------
// The TCP half: N clients against one tightly budgeted engine.
// ---------------------------------------------------------------------

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Send one request line, collect the framed response up to the `.`.
/// The `read_line != 0` assert is the no-dropped-connection check: a
/// server that hangs up mid-response fails here, not with a lost reply.
fn roundtrip(stream: &TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    let mut w = stream.try_clone().unwrap();
    writeln!(w, "{req}").unwrap();
    w.flush().unwrap();
    let mut out = String::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).unwrap(), 0, "server hung up");
        if line.trim_end() == "." {
            return out;
        }
        out.push_str(&line);
    }
}

#[test]
fn tcp_clients_get_typed_mem_budget_errors_not_dropped_connections() {
    // Unconstrained oracle server for the expected small-query bytes.
    let oracle_engine = TdpEngine::new();
    load_tables(&oracle_engine);
    let oracle_server =
        TdpServer::bind(oracle_engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let oracle: Vec<String> = {
        let (stream, mut reader) = connect(oracle_server.local_addr());
        SMALL
            .iter()
            .map(|q| roundtrip(&stream, &mut reader, &format!("QUERY {q}")))
            .collect()
    };
    oracle_server.shutdown();

    let engine = TdpEngine::with_memory_budget(BUDGET);
    load_tables(&engine);
    let server = TdpServer::bind(
        engine,
        "127.0.0.1:0",
        // One query at a time: this test is about budget aborts and
        // connection survival, not admission pressure.
        ServerConfig::default()
            .max_concurrent(1)
            .max_queued(64)
            .queue_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..6)
        .map(|client| {
            std::thread::spawn(move || {
                let (stream, mut reader) = connect(addr);
                let mut replies = Vec::new();
                for round in 0..3 {
                    if (client + round) % 2 == 0 {
                        let r = roundtrip(&stream, &mut reader, &format!("QUERY {BREACHING}"));
                        assert!(r.starts_with("ERR MEM_BUDGET "), "typed abort code: {r}");
                        assert!(r.contains("out of memory budget"), "{r}");
                    } else {
                        for (idx, q) in SMALL.iter().enumerate() {
                            let r = roundtrip(&stream, &mut reader, &format!("QUERY {q}"));
                            replies.push((idx, r));
                        }
                    }
                }
                // The connection survived every abort on it.
                let r = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
                assert!(r.starts_with("OK 1 rows"), "{r}");
                replies
            })
        })
        .collect();
    for h in handles {
        for (idx, got) in h.join().expect("client panicked") {
            assert_eq!(got, oracle[idx], "small query diverged from oracle");
        }
    }

    let (stream, mut reader) = connect(addr);
    let stats = roundtrip(&stream, &mut reader, "STATS");
    let aborts: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("mem_budget_aborts "))
        .expect("STATS reports mem_budget_aborts")
        .trim()
        .parse()
        .unwrap();
    assert!(aborts >= 6, "every breaching query counted: {stats}");
    assert!(
        stats.contains(&format!("mem_budget_bytes {BUDGET}")),
        "{stats}"
    );
    server.shutdown();
}
