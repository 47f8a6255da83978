//! `short_serve_tcp`: short statements over the TCP line protocol of an
//! in-process `TdpServer`, closed loop, one connection per client.
//!
//! Per-statement overhead dominates: the server's wire handling,
//! admission and result rendering, `sql`'s parse and normalize, `core`'s
//! plan cache and bind. `exec` runs for microseconds on tables of a
//! thousand rows. It is the only workload that times a statement from socket
//! to socket, and the one where a kernel optimisation should move
//! nothing.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tdp_core::storage::Table;
use tdp_core::tensor::Rng64;
use tdp_core::{ParamValues, Session, TdpEngine};
use tdp_server::{ServerConfig, TdpServer};

use crate::datagen;
use crate::layers;
use crate::runner::{self, Config, Driver, LoopOutcome, Report, Stop, TimedRun, Verify};
use crate::stats;
use crate::stmt::{self, PrepareWatch};
use crate::trace::{At, Kind, Tracer};

pub const NAME: &str = "short_serve_tcp";

pub const CLASSES: [&str; 5] = ["query_hot", "bind", "query_cold", "explain", "stats"];

const HOT: usize = 0;
const BIND: usize = 1;
const COLD: usize = 2;
const EXPLAIN: usize = 3;
const STATS: usize = 4;

/// Twenty ops: 9 `query_hot` (45%), 6 `bind` (30%), 3 `query_cold`
/// (15%), 1 `explain`, 1 `stats` (5% each), interleaved. With 60% of
/// ops below it and 25% above, the pooled median is a `bind`/`query_hot`
/// latency and the p95 a `query_cold` one.
const ROUND: [usize; 20] = [
    HOT, BIND, HOT, COLD, HOT, BIND, HOT, BIND, EXPLAIN, HOT, COLD, HOT, BIND, HOT, BIND, STATS,
    HOT, COLD, HOT, BIND,
];

/// Small on purpose. A scan costs time linear in the rows of every
/// morsel (64k rows) that zone maps do not prune, so on the 200,000
/// rows first planned a "point lookup" spent 300–550 µs in `exec`, 85%
/// of the round trip, and the workload measured `exec` a second time.
/// `exec.run` as a share of all op time, by `accounts` rows: 8,192 →
/// 51%, 2,048 → 33%, 1,024 → 29%; below that a fixed ~25 µs per run
/// remains. At 1,024 rows, with no range wider than a quarter of the
/// table, the per-statement layers are what the round trip is made of.
const ACCOUNTS_ROWS: usize = 1024;
const SMALL_ROWS: usize = 256;
/// Rounds each client runs before it reports ready.
const WARMUP_ROUNDS: usize = 10;
/// Structurally distinct cold statements per client: four times the
/// engine's plan-cache capacity of 256, cycled in a seeded order, so by
/// the time one recurs the LRU has long evicted it and every
/// `query_cold` compiles.
const COLD_POOL: usize = 1024;
/// The traced pass needs a p99 with ten samples beyond it.
const TRACE_ROUNDS: u64 = 100;
const MAX_CLIENTS: usize = 4;

const BIND_SQL: [&str; 3] = [
    "SELECT id, balance FROM accounts WHERE id = ?",
    "SELECT COUNT(*) AS n, AVG(balance) AS a FROM accounts WHERE id >= ? AND id < ?",
    "SELECT COUNT(*) AS n FROM small WHERE v > ? AND k = ?",
];

const STATS_FIELDS: [&str; 4] = [
    "queries_served",
    "plan_cache_hits",
    "morsels_pruned",
    "mem_high_water_bytes",
];

pub enum Request {
    Query(String),
    Bind { stmt: usize, args: Vec<f64> },
    Explain(String),
    Stats,
}

pub struct Params {
    request: Request,
    /// The request as sent, newline included.
    line: String,
}

impl Params {
    fn new(request: Request) -> Params {
        let line = match &request {
            Request::Query(sql) => format!("QUERY {sql}\n"),
            Request::Bind { stmt, args } => {
                let args: Vec<String> = args.iter().map(f64::to_string).collect();
                format!("BIND s{stmt} {}\n", args.join(" "))
            }
            Request::Explain(sql) => format!("EXPLAIN {sql}\n"),
            Request::Stats => "STATS\n".to_string(),
        };
        Params { request, line }
    }
}

struct Shape {
    accounts: i64,
}

impl Shape {
    /// One of five statement shapes, with fresh literals: the text is
    /// new every time, its normalized form is not.
    fn hot(&self, rng: &mut Rng64) -> String {
        match rng.below(5) {
            0 => format!(
                "SELECT id, balance, tier, region FROM accounts WHERE id = {}",
                rng.below(self.accounts as usize)
            ),
            1 => {
                let (a, b) = self.id_range(rng, 16);
                format!(
                    "SELECT COUNT(*) AS n, SUM(balance) AS s FROM accounts \
                     WHERE id >= {a} AND id < {b}"
                )
            }
            2 => {
                let (a, b) = self.id_range(rng, 4);
                format!(
                    "SELECT id, balance FROM accounts WHERE id >= {a} AND id < {b} AND tier = {} \
                     ORDER BY balance DESC LIMIT 5",
                    rng.below(7)
                )
            }
            3 => {
                let (a, b) = self.id_range(rng, 8);
                format!(
                    "SELECT region, COUNT(*) AS n FROM accounts WHERE id >= {a} AND id < {b} \
                     GROUP BY region ORDER BY region"
                )
            }
            _ => format!(
                "SELECT k, AVG(v) AS a FROM small WHERE w < {:.3} GROUP BY k ORDER BY k LIMIT 5",
                rng.uniform_range(0.2, 0.8)
            ),
        }
    }

    /// A random `id` range covering one `share`-th of `accounts`.
    fn id_range(&self, rng: &mut Rng64, share: i64) -> (i64, i64) {
        let width = self.accounts / share;
        let a = rng.below((self.accounts - width) as usize) as i64;
        (a, a + width)
    }

    fn bind(&self, rng: &mut Rng64) -> Request {
        let stmt = rng.below(BIND_SQL.len());
        let args = match stmt {
            0 => vec![rng.below(self.accounts as usize) as f64],
            1 => {
                let (a, b) = self.id_range(rng, 8);
                vec![a as f64, b as f64]
            }
            _ => vec![
                (rng.uniform_range(-1.0, 1.0) * 100.0).round() / 100.0,
                rng.below(50) as f64,
            ],
        };
        Request::Bind { stmt, args }
    }

    /// Cold statement `index` of `client`'s pool. The pool varies what
    /// normalization keeps — aggregate functions, columns, the
    /// comparison operator, an alias naming the client — so no two
    /// entries, of one client or of two, share a plan-cache key.
    fn cold(&self, client: usize, index: usize, rng: &mut Rng64) -> String {
        const AGGS: [&str; 4] = ["SUM", "AVG", "MIN", "MAX"];
        const COLS: [&str; 3] = ["balance", "tier", "id"];
        const FILTER_COLS: [(&str, usize); 2] = [("balance", 10_000), ("tier", 7)];
        const OPS: [&str; 4] = ["<", ">", "<=", ">="];
        let mut i = index;
        let mut pick = |n: usize| {
            let choice = i % n;
            i /= n;
            choice
        };
        let (agg1, col1) = (AGGS[pick(4)], COLS[pick(3)]);
        let (agg2, col2) = (AGGS[pick(4)], COLS[pick(3)]);
        let (filter_col, range) = FILTER_COLS[pick(2)];
        let op = OPS[pick(4)];
        let (a, b) = self.id_range(rng, 8);
        format!(
            "SELECT {agg1}({col1}) AS x{client}, {agg2}({col2}) AS y FROM accounts \
             WHERE id >= {a} AND id < {b} AND {filter_col} {op} {}",
            rng.below(range)
        )
    }
}

/// One connection and everything needed to check what comes back on it.
struct Client<'s> {
    id: usize,
    shape: Shape,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// This client's order through its cold pool, and where it stands.
    cold_order: Vec<usize>,
    cold_next: usize,
    bytes_in: u64,
    /// Sequential oracle for results.
    oracle: &'s Session,
    /// Default-configured session, as the server's are: the embedded
    /// twin of a statement, and the expected EXPLAIN text.
    twin: &'s Session,
    watch: PrepareWatch,
}

fn rendered(table: &Table) -> String {
    format!(
        "OK {} rows\n{}\n",
        table.rows(),
        table.pretty(100).trim_end()
    )
}

impl<'s> Client<'s> {
    fn connect(
        addr: SocketAddr,
        id: usize,
        seed: u64,
        accounts: usize,
        oracle: &'s Session,
        twin: &'s Session,
        tr: &mut Tracer,
    ) -> Result<Client<'s>, String> {
        let (stream, _) = layers::probe(tr, "server.connect", || TcpStream::connect(addr));
        let stream = stream.map_err(|e| format!("connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A stuck server must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut cold_order: Vec<usize> = (0..COLD_POOL).collect();
        datagen::schedule_rng(seed, 200 + id as u64).shuffle(&mut cold_order);
        let mut client = Client {
            id,
            shape: Shape {
                accounts: accounts as i64,
            },
            stream,
            reader,
            cold_order,
            cold_next: 0,
            bytes_in: 0,
            oracle,
            twin,
            watch: PrepareWatch::default(),
        };
        for (i, sql) in BIND_SQL.iter().enumerate() {
            let reply = client.roundtrip(&format!("PREPARE s{i} {sql}\n"))?;
            if !reply.starts_with("OK prepared") {
                return Err(format!("PREPARE s{i}: {}", reply.trim_end()));
            }
        }
        Ok(client)
    }

    /// Send one request line; collect the response up to its `.` frame.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        loop {
            let start = response.len();
            let n = self
                .reader
                .read_line(&mut response)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("the server closed the connection".to_string());
            }
            if &response[start..] == ".\n" {
                response.truncate(start);
                self.bytes_in += (start + n) as u64;
                return Ok(response);
            }
        }
    }

    fn next_cold(&mut self, rng: &mut Rng64) -> String {
        let index = self.cold_order[self.cold_next % COLD_POOL];
        self.cold_next += 1;
        self.shape.cold(self.id, index, rng)
    }

    /// Run `sql` on the embedded twin session the way the server's
    /// `QUERY`/`BIND` path does — prepare, bind, run, render — each under
    /// a replica span.
    fn twin_statement(
        &mut self,
        family: &str,
        sql: &str,
        values: ParamValues,
        tr: &mut Tracer,
        at: At,
    ) -> Result<(), String> {
        let prepared = self.watch.prepare(self.twin, family, sql, tr, at)?;
        let table = stmt::bind_run(&prepared, values, tr, at)?;
        let span = tr.open("storage.render", at);
        std::hint::black_box(rendered(&table));
        tr.close(span);
        Ok(())
    }
}

fn number_values(args: &[f64]) -> ParamValues {
    args.iter().fold(ParamValues::new(), |p, &v| p.number(v))
}

/// `STATS` changes with every statement; what is checked is that it
/// answers in its own format.
const STATS_WELL_FORMED: &str = "stats: well formed";

impl Driver for Client<'_> {
    type Params = Params;
    type Output = String;

    fn round(&self) -> &[usize] {
        &ROUND
    }

    fn params(&mut self, class: usize, rng: &mut Rng64) -> Params {
        Params::new(match class {
            HOT => Request::Query(self.shape.hot(rng)),
            BIND => self.shape.bind(rng),
            COLD => Request::Query(self.next_cold(rng)),
            EXPLAIN => Request::Explain(self.shape.hot(rng)),
            _ => Request::Stats,
        })
    }

    fn exec(
        &mut self,
        _class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<String, String> {
        let span = tr.open("server.roundtrip", at);
        let response = self.roundtrip(&params.line);
        tr.close(span);
        let response = response?;
        if response.starts_with("ERR ") {
            return Err(response.trim_end().to_string());
        }
        Ok(response)
    }

    fn replicas(
        &mut self,
        class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<(), String> {
        match &params.request {
            Request::Stats => Ok(()),
            Request::Explain(sql) => {
                stmt::frontend_replicas(self.twin.engine(), sql, false, tr, at)
            }
            Request::Bind { stmt, args } => {
                let sql = BIND_SQL[*stmt];
                stmt::frontend_replicas(self.twin.engine(), sql, false, tr, at)?;
                self.twin_statement(&format!("bind{stmt}"), sql, number_values(args), tr, at)
            }
            Request::Query(sql) if class == HOT => {
                stmt::frontend_replicas(self.twin.engine(), sql, false, tr, at)?;
                // Families are per normalized shape; the text up to its
                // first digit is a good enough name for one.
                let family: String = sql.chars().take_while(|c| !c.is_ascii_digit()).collect();
                self.twin_statement(&family, sql, ParamValues::new(), tr, at)
            }
            Request::Query(_) => {
                // The server has just compiled this statement, so its
                // twin would hit the cache. The next statement of the
                // pool has the same build and is still cold.
                let sibling = self.next_cold(&mut datagen::schedule_rng(at.op, 300));
                stmt::frontend_replicas(self.twin.engine(), &sibling, true, tr, at)?;
                self.twin_statement("cold", &sibling, ParamValues::new(), tr, at)
            }
        }
    }

    fn digest(&self, out: &String) -> u64 {
        let well_formed_stats = out.starts_with("OK stats\n")
            && STATS_FIELDS
                .iter()
                .all(|f| out.contains(&format!("\n{f} ")));
        runner::text_digest(if well_formed_stats {
            STATS_WELL_FORMED
        } else {
            out
        })
    }

    fn expect(&mut self, _class: usize, params: &Params) -> Result<u64, String> {
        let text = match &params.request {
            Request::Stats => STATS_WELL_FORMED.to_string(),
            Request::Explain(sql) => {
                let prepared = self.twin.prepare(sql).map_err(|e| e.to_string())?;
                format!("OK explain\n{}\n", prepared.explain().trim_end())
            }
            Request::Query(sql) => rendered(
                &self
                    .oracle
                    .query(sql)
                    .and_then(|q| q.run())
                    .map_err(|e| e.to_string())?,
            ),
            Request::Bind { stmt, args } => rendered(
                &self
                    .oracle
                    .prepare(BIND_SQL[*stmt])
                    .and_then(|p| p.bind(number_values(args)))
                    .and_then(|b| b.run())
                    .map_err(|e| e.to_string())?,
            ),
        };
        Ok(runner::text_digest(&text))
    }
}

struct Data {
    accounts: Table,
    small: Table,
}

/// Every client gets a slot; nothing queues, nothing is refused.
fn server_config() -> ServerConfig {
    ServerConfig {
        max_concurrent: MAX_CLIENTS,
        max_queued: 4 * MAX_CLIENTS,
        queue_timeout: Duration::from_secs(30),
        mem_per_query: None,
    }
}

fn start_server(data: &Data, tr: &mut Tracer) -> Result<(Arc<TdpEngine>, TdpServer, f64), String> {
    let engine = TdpEngine::new();
    let ((), register_s) = layers::probe(tr, "storage.register", || {
        engine.register_table(data.accounts.clone());
        engine.register_table(data.small.clone());
    });
    let server = TdpServer::bind(Arc::clone(&engine), "127.0.0.1:0", server_config())
        .map_err(|e| format!("cannot bind the server: {e}"))?;
    Ok((engine, server, register_s))
}

fn warm_up(client: &mut Client<'_>, seed: u64) -> Result<(), String> {
    let mut rng = datagen::schedule_rng(seed, 99);
    let mut off = Tracer::new(false);
    for class in ROUND.repeat(WARMUP_ROUNDS) {
        let params = client.params(class, &mut rng);
        client
            .exec(class, &params, &mut off, At::PROBE)
            .map_err(|e| format!("warm-up of {}: {e}", CLASSES[class]))?;
    }
    Ok(())
}

/// The timed run: `clients` threads, one connection each, released
/// together and stopped by a shared deadline.
fn timed(cfg: &Config, report: &mut Report, data: &Data) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(MAX_CLIENTS);
    report.push("serve.clients", clients as f64, "count");
    let mut setup_s = Vec::new();
    let mut off = Tracer::new(false);
    for rep in 0..cfg.setup_reps() {
        let last = rep + 1 == cfg.setup_reps();
        let start = Instant::now();
        let (engine, server, _) = start_server(data, &mut off)?;
        let addr = server.local_addr();
        report.engine_threads = engine.session().threads();
        // Three meeting points: set-up done, go, measuring done.
        let barrier = Barrier::new(clients + 1);
        let (loops, cpu_s) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|id| {
                    let (engine, barrier) = (&engine, &barrier);
                    scope.spawn(move || -> Result<Option<LoopOutcome<Params>>, String> {
                        let oracle = runner::oracle_session(engine);
                        let twin = engine.session();
                        let mut off = Tracer::new(false);
                        let accounts = data.accounts.rows();
                        let client =
                            Client::connect(addr, id, cfg.seed, accounts, &oracle, &twin, &mut off)
                                .and_then(|mut c| warm_up(&mut c, cfg.seed).map(|()| c));
                        barrier.wait();
                        if !last {
                            return client.map(|_| None);
                        }
                        barrier.wait();
                        let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
                        let measured = client.and_then(|mut client| {
                            let mut rng = datagen::schedule_rng(cfg.seed, id as u64);
                            runner::run_loop(
                                &mut client,
                                &CLASSES,
                                &mut rng,
                                &mut off,
                                Stop::Deadline(deadline),
                                Verify::Later,
                                cfg.plant_wrong && id == 0,
                            )
                            .map(|out| (client, out))
                        });
                        barrier.wait();
                        let (mut client, mut out) = measured?;
                        runner::check_deferred(&mut client, &CLASSES, &mut out);
                        Ok(Some(out))
                    })
                })
                .collect();
            barrier.wait();
            setup_s.push(start.elapsed().as_secs_f64());
            let mut cpu_s = 0.0;
            if last {
                let cpu = stats::process_cpu_seconds();
                barrier.wait();
                barrier.wait();
                cpu_s = stats::process_cpu_seconds() - cpu;
            }
            let loops: Result<Vec<_>, String> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect();
            (loops, cpu_s)
        });
        // Dropping the server on an early return shuts it down as well.
        let loops: Vec<LoopOutcome<Params>> = loops?.into_iter().flatten().collect();
        if last {
            let excluded: f64 = loops.iter().map(|l| l.excluded_cpu_s).sum();
            let served = engine.stats();
            report.push("server.queued", served.queries_queued as f64, "count");
            report.push("server.rejected", served.queries_rejected as f64, "count");
            runner::end_to_end(
                report,
                &CLASSES,
                &loops,
                &TimedRun {
                    setup_s: std::mem::take(&mut setup_s),
                    cpu_s: cpu_s - excluded,
                },
            )?;
        }
        server.shutdown();
    }
    Ok(())
}

/// Per op of the traced pass: the round trip minus what the embedded
/// twin of the same statement spent in prepare, bind, run and render.
fn server_overhead(report: &mut Report, tr: &Tracer) {
    const TWIN: [&str; 6] = [
        "core.prepare_hit",
        "core.prepare_miss",
        "core.prepare_revalidate",
        "core.bind",
        "exec.run",
        "storage.render",
    ];
    let mut roundtrip = std::collections::HashMap::new();
    let mut embedded = std::collections::HashMap::new();
    for s in tr.spans() {
        if s.kind == Kind::Call && s.name == "server.roundtrip" {
            roundtrip.insert(s.op, s.micros());
        } else if s.kind == Kind::Replica && TWIN.contains(&s.name.as_str()) {
            *embedded.entry(s.op).or_insert(0.0) += s.micros();
        }
    }
    // Only ops that have a twin: `query_hot`, `bind` and `query_cold`.
    let (overheads, shares): (Vec<f64>, Vec<f64>) = roundtrip
        .iter()
        .filter_map(|(op, &rt)| embedded.get(op).map(|&e| (rt - e, (rt - e) / rt)))
        .unzip();
    report.push_sampled(
        "server.overhead_us",
        stats::median(&overheads),
        "us",
        overheads.len(),
    );
    report.push_sampled(
        "server.overhead_share",
        stats::median(&shares),
        "ratio",
        shares.len(),
    );
}

fn traced(cfg: &Config, report: &mut Report, data: &Data) -> Result<(), String> {
    let mut tr = Tracer::new(true);
    let (engine, server, register_s) = start_server(data, &mut tr)?;
    let addr = server.local_addr();
    let oracle = runner::oracle_session(&engine);
    let twin = engine.session();
    report.engine_threads = twin.threads();
    let accounts = data.accounts.rows();
    let mut client = Client::connect(addr, 0, cfg.seed, accounts, &oracle, &twin, &mut tr)?;
    warm_up(&mut client, cfg.seed)?;

    let rounds = if cfg.smoke {
        cfg.trace_rounds()
    } else {
        TRACE_ROUNDS
    };
    client.bytes_in = 0;
    runner::traced_run(cfg, report, &mut client, &CLASSES, &twin, &mut tr, rounds)?;
    // Both passes answered the same requests.
    report.push(
        "server.bytes_out_per_op",
        client.bytes_in as f64 / report.attempted.max(1) as f64,
        "bytes",
    );
    let mut roundtrips = tr.micros("server.roundtrip");
    stats::sort(&mut roundtrips);
    report.push_sampled(
        "server.lat_p99_ms",
        stats::percentile(&roundtrips, 99.0) / 1e3,
        "ms",
        roundtrips.len(),
    );
    server_overhead(report, &tr);
    let mut shares = layers::ProfileShares::default();
    let mut rng = datagen::schedule_rng(cfg.seed, 98);
    for _ in 0..20 {
        let prepared = twin
            .prepare(&client.shape.hot(&mut rng))
            .map_err(|e| e.to_string())?;
        shares.profile(&prepared, ParamValues::new())?;
    }
    shares.report(report);
    report.push(
        "storage.register_rows_per_s",
        (data.accounts.rows() + data.small.rows()) as f64 / register_s,
        "rows/s",
    );
    for _ in 0..20 {
        let (stream, _) = layers::probe(&mut tr, "server.connect", || TcpStream::connect(addr));
        let mut stream = stream.map_err(|e| format!("connect to {addr}: {e}"))?;
        stream.write_all(b"QUIT\n").map_err(|e| e.to_string())?;
    }
    let connects = tr.micros("server.connect");
    report.push_sampled(
        "server.connect_us",
        stats::median(&connects),
        "us",
        connects.len(),
    );
    layers::tdpf_probe(report, &mut tr, &data.accounts)?;
    drop(client);
    server.shutdown();
    runner::finish_trace(cfg, report, &tr)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let start = Instant::now();
    let data = Data {
        accounts: datagen::accounts(cfg.seed, cfg.rows(ACCOUNTS_ROWS, 512)),
        small: datagen::small(cfg.seed, cfg.rows(SMALL_ROWS, 128)),
    };
    report.push("bench.datagen_s", start.elapsed().as_secs_f64(), "s");
    if cfg.trace {
        traced(cfg, &mut report, &data)?;
    } else {
        timed(cfg, &mut report, &data)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_has_the_stated_mix() {
        let count = |class| ROUND.iter().filter(|&&c| c == class).count();
        assert_eq!(
            [
                count(HOT),
                count(BIND),
                count(COLD),
                count(EXPLAIN),
                count(STATS)
            ],
            [9, 6, 3, 1, 1]
        );
    }

    #[test]
    fn request_stream_repeats_for_a_seed_and_differs_between_seeds() {
        let shape = Shape { accounts: 1024 };
        let stream = |seed: u64| -> Vec<String> {
            let mut rng = datagen::schedule_rng(seed, 0);
            (0..50)
                .map(|i| match i % 3 {
                    0 => shape.hot(&mut rng),
                    1 => Params::new(shape.bind(&mut rng)).line,
                    _ => shape.cold(0, i, &mut rng),
                })
                .collect()
        };
        assert_eq!(stream(31), stream(31));
        assert_ne!(stream(31), stream(32));
    }

    #[test]
    fn cold_pool_is_structurally_distinct() {
        let shape = Shape { accounts: 200_000 };
        let normalized = |client: usize, index: usize| {
            let sql = shape.cold(client, index, &mut Rng64::new(7));
            let ast = tdp_core::sql::parse(&sql).expect("cold statements parse");
            tdp_core::sql::parameterize_literals(ast, 0).0.to_string()
        };
        let mut keys: Vec<String> = (0..COLD_POOL).map(|i| normalized(0, i)).collect();
        keys.extend((0..COLD_POOL).map(|i| normalized(1, i)));
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2 * COLD_POOL);
    }
}
