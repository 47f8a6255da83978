//! Stress tests of the TCP server: many concurrent clients against one
//! engine must see byte-identical responses to a sequential oracle, an
//! overloaded server must reject with the typed `BUSY` error (not hang),
//! and graceful shutdown must drain in-flight queries.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, ExecContext, ExecError};
use tdp_core::storage::TableBuilder;
use tdp_core::{ArgType, FunctionSpec, ScalarUdf, TdpEngine, Volatility};
use tdp_server::{ServerConfig, TdpServer};

fn load(engine: Arc<TdpEngine>) -> Arc<TdpEngine> {
    engine.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0, 2.5, 0.5, 9.0])
            .col_str("item", &["b", "a", "a", "c", "b", "a", "c", "b"])
            .col_i64("qty", vec![10, 20, 30, 40, 50, 60, 70, 80])
            .build("orders"),
    );
    engine
}

fn test_engine() -> Arc<TdpEngine> {
    load(TdpEngine::new())
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Send one request line, collect the framed response up to the `.`.
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

const QUERIES: &[&str] = &[
    "QUERY SELECT item, SUM(qty) AS total FROM orders GROUP BY item ORDER BY item",
    "QUERY SELECT COUNT(*) FROM orders WHERE price > 2.0",
    "QUERY SELECT price, qty FROM orders WHERE price >= 2.5 ORDER BY price",
    "QUERY SELECT item, AVG(price) AS p FROM orders GROUP BY item ORDER BY item",
    "QUERY SELECT SUM(price * qty) FROM orders",
    "EXPLAIN SELECT item FROM orders WHERE qty > 30 ORDER BY item",
];

#[test]
fn eight_concurrent_clients_match_the_sequential_oracle() {
    let server = TdpServer::bind(
        test_engine(),
        "127.0.0.1:0",
        // Generous admission: this test is about correctness under
        // concurrency, not rejection.
        ServerConfig::default()
            .max_concurrent(8)
            .max_queued(64)
            .queue_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    let addr = server.local_addr();

    // Sequential oracle: one client, one query at a time.
    let oracle: Vec<String> = {
        let (stream, mut reader) = connect(addr);
        QUERIES
            .iter()
            .map(|q| roundtrip(&stream, &mut reader, q))
            .collect()
    };
    for (q, r) in QUERIES.iter().zip(&oracle) {
        assert!(r.starts_with("OK"), "oracle failed for {q}: {r}");
    }

    // 8 clients, each running every query, starting at a different
    // offset so distinct statements overlap in flight.
    let handles: Vec<_> = (0..8)
        .map(|client| {
            std::thread::spawn(move || {
                let (stream, mut reader) = connect(addr);
                (0..QUERIES.len())
                    .map(|i| {
                        let q = (client + i) % QUERIES.len();
                        (q, roundtrip(&stream, &mut reader, QUERIES[q]))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (q, response) in handle.join().unwrap() {
            assert_eq!(
                response, oracle[q],
                "concurrent response diverged from the sequential oracle for {}",
                QUERIES[q]
            );
        }
    }

    // 9 connections × repeated statements: the shared plan cache must
    // have served cross-session hits, visible over the wire via STATS.
    let (stream, mut reader) = connect(addr);
    let stats = roundtrip(&stream, &mut reader, "STATS");
    let hits: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("plan_cache_hits "))
        .expect("STATS reports plan_cache_hits")
        .trim()
        .parse()
        .unwrap();
    assert!(
        hits > 0,
        "cross-session plan-cache hits must be visible: {stats}"
    );
    assert!(server.engine().plan_cache_stats().hits >= hits.min(1));
    server.shutdown();
}

/// `stall(column)` — parks inside `invoke` until the test releases it,
/// and flags when execution has actually started. Registered
/// engine-shared, it pins the single execution slot deterministically.
struct StallUdf {
    gate: Arc<(Mutex<(bool, bool)>, Condvar)>, // (entered, released)
}

impl ScalarUdf for StallUdf {
    fn name(&self) -> &str {
        "stall"
    }

    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Column]).volatility(Volatility::Volatile)
    }

    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let (lock, cv) = &*self.gate;
        let mut st = lock.lock().unwrap();
        st.0 = true;
        cv.notify_all();
        while !st.1 {
            st = cv.wait(st).unwrap();
        }
        drop(st);
        Ok(EncodedTensor::F32(args[0].as_column()?.decode_f32()))
    }
}

fn gate() -> Arc<(Mutex<(bool, bool)>, Condvar)> {
    Arc::new((Mutex::new((false, false)), Condvar::new()))
}

fn wait_entered(gate: &Arc<(Mutex<(bool, bool)>, Condvar)>) {
    let (lock, cv) = &**gate;
    let mut st = lock.lock().unwrap();
    while !st.0 {
        st = cv.wait(st).unwrap();
    }
}

fn release(gate: &Arc<(Mutex<(bool, bool)>, Condvar)>) {
    let (lock, cv) = &**gate;
    lock.lock().unwrap().1 = true;
    cv.notify_all();
}

#[test]
fn overload_is_rejected_with_a_typed_busy_error() {
    let engine = test_engine();
    let gate = gate();
    engine.register_udf_shared(Arc::new(StallUdf {
        gate: Arc::clone(&gate),
    }));
    let server = TdpServer::bind(
        engine,
        "127.0.0.1:0",
        // One slot, no queue: the second in-flight query must be turned
        // away immediately and deterministically.
        ServerConfig::default()
            .max_concurrent(1)
            .max_queued(0)
            .queue_timeout(Duration::from_millis(50)),
    )
    .unwrap();
    let addr = server.local_addr();

    // Client A occupies the only slot, parked inside the UDF.
    let blocker = std::thread::spawn(move || {
        let (stream, mut reader) = connect(addr);
        roundtrip(
            &stream,
            &mut reader,
            "QUERY SELECT stall(price) AS p FROM orders",
        )
    });
    wait_entered(&gate);

    // Client B is over capacity: typed error, not a hang.
    let (stream, mut reader) = connect(addr);
    let rejected = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
    assert!(
        rejected.starts_with("ERR BUSY server busy"),
        "expected a typed busy rejection, got: {rejected}"
    );
    // Admission gates execution verbs only — observability stays live.
    let stats = roundtrip(&stream, &mut reader, "STATS");
    assert!(stats.contains("queries_rejected 1"), "{stats}");
    // Access-path counters render too (values depend on workload).
    for line in [
        "ivf_rebuilds ",
        "barriers_selection_fed ",
        "barriers_gathered ",
    ] {
        assert!(stats.contains(line), "STATS must report {line}: {stats}");
    }

    release(&gate);
    let blocked_response = blocker.join().unwrap();
    assert!(
        blocked_response.starts_with("OK 8 rows"),
        "the in-flight query completes after release: {blocked_response}"
    );

    // Slot free again: the previously rejected client succeeds.
    let retried = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
    assert!(retried.starts_with("OK 1 rows"), "{retried}");
    assert_eq!(server.engine().stats().queries_rejected, 1);
    server.shutdown();
}

#[test]
fn shutdown_drains_the_in_flight_query() {
    let engine = test_engine();
    let gate = gate();
    engine.register_udf_shared(Arc::new(StallUdf {
        gate: Arc::clone(&gate),
    }));
    let server = TdpServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let client = std::thread::spawn(move || {
        let (stream, mut reader) = connect(addr);
        roundtrip(
            &stream,
            &mut reader,
            "QUERY SELECT stall(price) AS p FROM orders",
        )
    });
    wait_entered(&gate);

    // Shut down while the query is executing; it must still complete and
    // deliver its response before the connection closes.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));
    release(&gate);
    shutdown.join().unwrap();

    let response = client.join().unwrap();
    assert!(
        response.starts_with("OK 8 rows"),
        "in-flight query must drain through shutdown: {response}"
    );
}

/// A LEFT JOIN whose right side comes out empty has no first row to pad
/// unmatched rows from; it used to panic on the connection thread. The
/// statement must answer with padded rows and leave the connection usable.
#[test]
fn left_join_on_an_empty_right_side_keeps_the_connection_alive() {
    let server = TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (stream, mut reader) = connect(server.local_addr());
    let joined = roundtrip(
        &stream,
        &mut reader,
        "QUERY SELECT o.qty, e.e_item, e.e_qty FROM orders AS o LEFT JOIN \
         (SELECT item AS e_item, qty AS e_qty FROM orders WHERE qty > 1000) AS e \
         ON o.item = e.e_item",
    );
    assert!(joined.starts_with("OK 8 rows"), "{joined}");
    let after = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
    assert!(after.starts_with("OK 1 rows"), "{after}");
    server.shutdown();
}

/// Duplicate output names used to panic in `Table::new` on the
/// connection thread, leaving the client waiting for a reply that never
/// came. The statement must answer `ERR …` naming the column, and the
/// same connection must answer the next one.
#[test]
fn duplicate_output_names_answer_err_and_keep_the_connection_alive() {
    let server = TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (stream, mut reader) = connect(server.local_addr());
    let refused = roundtrip(&stream, &mut reader, "QUERY SELECT qty, qty FROM orders");
    assert!(refused.starts_with("ERR "), "{refused}");
    assert!(
        refused.contains("'qty' appears twice in the select list"),
        "{refused}"
    );
    let after = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
    assert!(after.starts_with("OK 1 rows"), "{after}");
    server.shutdown();
}

/// `boom(column)` — panics inside `invoke`, on the connection thread
/// (session-bound UDFs pin their chain there).
struct BoomUdf;

impl ScalarUdf for BoomUdf {
    fn name(&self) -> &str {
        "boom"
    }

    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Column]).volatility(Volatility::Volatile)
    }

    fn invoke(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        panic!("boom goes\nthe UDF")
    }
}

/// A statement that panics used to kill its connection thread while the
/// accept loop's clone of the socket kept it open: the client waited
/// forever. It must read `ERR INTERNAL <message, one line>` and EOF, and
/// hurt nobody else: the one admission slot and the per-query memory
/// envelope are back, so a second connection is served at once.
#[test]
fn a_panicking_statement_answers_err_internal_and_closes_only_its_connection() {
    let engine = load(TdpEngine::with_memory_budget(64 << 20));
    engine.register_udf_shared(Arc::new(BoomUdf));
    let server = TdpServer::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig::default()
            .max_concurrent(1)
            .max_queued(0)
            .mem_per_query(1 << 20),
    )
    .unwrap();
    let addr = server.local_addr();

    let (stream, mut reader) = connect(addr);
    // A reply that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reply = roundtrip(
        &stream,
        &mut reader,
        "QUERY SELECT boom(price) AS p FROM orders",
    );
    assert_eq!(reply, "ERR INTERNAL boom goes; the UDF\n");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF: {rest}");

    let (stream, mut reader) = connect(addr);
    let served = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM orders");
    assert!(served.starts_with("OK 1 rows"), "{served}");
    let stats = roundtrip(&stream, &mut reader, "STATS");
    assert!(stats.contains("queries_rejected 0"), "{stats}");
    assert!(stats.contains("mem_used_bytes 0"), "{stats}");
    assert_eq!(server.engine().memory_pool().used(), 0);
    server.shutdown();
}

/// `QUIT` closes the connection for real: the client reads `OK bye`,
/// then EOF. (The accept loop used to keep a clone of every socket it
/// ever accepted, so no FIN was sent and a client reading to EOF hung.)
#[test]
fn quit_answers_bye_then_eof() {
    let server = TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (stream, mut reader) = connect(server.local_addr());
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(roundtrip(&stream, &mut reader, "QUIT"), "OK bye\n");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("EOF within 2 s"),
        0,
        "then EOF: {rest}"
    );
    server.shutdown();
}

/// A finished connection releases its socket: 200 connect → `QUIT` →
/// EOF cycles leave the process's descriptor table where it was (each
/// used to pin one fd for the server's lifetime, until `accept` failed
/// with `EMFILE` and the server silently stopped accepting).
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let server = TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let cycle = || {
        let (stream, mut reader) = connect(addr);
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(roundtrip(&stream, &mut reader, "QUIT"), "OK bye\n");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("EOF within 2 s"), 0);
    };
    cycle();
    let before = open_fds();
    for _ in 0..200 {
        cycle();
    }
    let grown = open_fds().saturating_sub(before);
    assert!(grown < 20, "200 closed connections left {grown} fds open");
    server.shutdown();
}
