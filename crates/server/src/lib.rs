//! # tdp-server — a multi-session TCP frontend for the engine
//!
//! Serves a [`TdpEngine`] to many concurrent clients over plain TCP —
//! the serving half of the engine/session split: the engine owns
//! everything shareable (catalog, cross-session plan cache, shared
//! functions, counters), the server gives every connection its own
//! [`tdp_core::Session`], and admission control keeps a bounded number
//! of queries executing at once.
//!
//! ```text
//!            TdpServer (accept thread, std::net — no async runtime)
//!                │ one OS thread per connection
//!    ┌───────────┼───────────┐
//!    ▼           ▼           ▼
//!  conn A      conn B      conn C        each: Session (per-user state,
//!  Session     Session     Session       prepared statements, device)
//!    └───────────┼───────────┘
//!                ▼
//!          AdmissionControl  (counting semaphore: ≤ max_concurrent
//!                │            executing, ≤ max_queued waiting)
//!                ▼
//!          Arc<TdpEngine>    (catalog, shared plan cache, shared UDFs,
//!                             access-path counters, EngineStats)
//! ```
//!
//! ## Protocol
//!
//! Line-oriented text, one request per line, UTF-8. Every response is a
//! sequence of lines terminated by a line containing a single `.`:
//!
//! ```text
//! request   = verb [SP operand] LF
//! verb      = "QUERY" | "PREPARE" | "BIND" | "EXPLAIN" | "PROFILE"
//!           | "STATS" | "QUIT"
//! response  = ( "OK" [SP detail] LF body* | "ERR" SP code SP message LF )
//!             "." LF
//! ```
//!
//! * `QUERY <sql>` — compile and execute; responds `OK <n> rows` plus the
//!   rendered result table. DDL statements (`CREATE INDEX … USING ivf(…)`,
//!   `DROP INDEX …`) run on the same verb and respond with a one-line ack.
//! * `PREPARE <name> <sql>` — remember `<sql>` under `<name>` for this
//!   connection. Compilation happens (and is plan-cached engine-wide) at
//!   `BIND` time; `PREPARE` itself just validates and stores the text.
//! * `BIND <name> [arg …]` — execute a prepared statement with positional
//!   arguments. Numbers bind as numbers, `true`/`false` as booleans,
//!   `null` as NULL, `'single quoted'` tokens as strings (`''` escapes a
//!   quote). Re-preparing per bind is cheap: the normalized statement
//!   hits the engine's cross-session plan cache.
//! * `EXPLAIN <sql>` / `PROFILE <sql>` — the compiled plan, or the result
//!   plus a per-operator execution profile.
//! * `STATS` — engine observability: sessions, served/queued/rejected
//!   query counts, plan-cache counters and hit rate
//!   ([`TdpEngine::stats`]), access-path counters — morsels pruned
//!   by zone maps, morsels scanned, ANN top-k queries, stale-IVF
//!   fallbacks ([`TdpEngine::access_path_stats`]) — and memory-pool
//!   gauges: bytes in use, high-water mark, configured budget and
//!   budget-abort count.
//! * `QUIT` — close the connection (`OK bye`).
//!
//! Error responses are one line, `ERR <CODE> <message>`, with codes
//! `BUSY` (admission rejection), `PROTO` (malformed request), `SQL`
//! (compile error), `MEM_BUDGET` (query aborted by the engine memory
//! budget), `EXEC` (any other runtime error), `UNKNOWN_STATEMENT` (BIND
//! of a name never prepared on this connection), `INTERNAL` (the
//! statement panicked: the server answers with the panic message and
//! closes this connection — its session may be half-updated — while
//! every other connection keeps being served).
//!
//! ## Admission control
//!
//! Execution verbs (`QUERY`, `BIND`, `PROFILE`) pass through a counting
//! semaphore before running: at most [`ServerConfig::max_concurrent`]
//! queries execute at once; up to [`ServerConfig::max_queued`] more wait
//! in FIFO-ish order for at most [`ServerConfig::queue_timeout`]. A query
//! beyond both bounds — or one whose wait times out — is rejected with
//! `ERR BUSY …` immediately rather than hanging; the engine counts
//! queued and rejected queries in [`tdp_core::EngineStats`]. `EXPLAIN`, `PREPARE`
//! and `STATS` do not execute and bypass admission.
//!
//! With [`ServerConfig::mem_per_query`] set (`TDP_MEM_PER_QUERY`), each
//! execution slot additionally reserves that many bytes out of the
//! engine's [`tdp_mem::MemoryPool`] as an admission envelope before the
//! query starts: when the pool cannot cover another envelope the query
//! queues (or gets `ERR BUSY`) exactly like slot exhaustion, so the
//! server stops *starting* queries that would immediately abort on the
//! memory budget. The envelope is released with the permit when the
//! query finishes. An envelope refusal is a `BUSY` rejection, not a
//! budget abort — `mem_budget_aborts` counts only queries that ran and
//! breached.
//!
//! ## Shutdown
//!
//! [`TdpServer::shutdown`] (also run on drop) stops accepting, then
//! half-closes every connection's read side: a connection mid-query
//! finishes executing, writes its response, sees EOF and exits — in-
//! flight work drains, nothing is aborted mid-write. A connection that
//! ends on its own (`QUIT`, EOF, a panic) closes its socket at once: the
//! server keeps a handle only to live connections.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tdp_core::{Session, StatementOutcome, TdpEngine, TdpError};
use tdp_exec::{ParamValue, ParamValues};

/// Rows of a result table rendered into a response (queries returning
/// more still report their full count on the `OK` line).
const RESULT_ROW_LIMIT: usize = 100;

/// Serving knobs. `Default` reads the environment: `TDP_MAX_CONCURRENT`
/// (default 4), `TDP_MAX_QUEUED` (default `2 × max_concurrent`),
/// `TDP_QUEUE_TIMEOUT_MS` (default 1000), `TDP_MEM_PER_QUERY` (bytes,
/// `k`/`m`/`g` suffixes allowed; default off).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queries allowed to execute simultaneously (≥ 1).
    pub max_concurrent: usize,
    /// Queries allowed to wait for an execution slot (0 = reject as soon
    /// as the executing cap is reached).
    pub max_queued: usize,
    /// How long a queued query waits for a slot before `ERR BUSY`.
    pub queue_timeout: Duration,
    /// Memory-envelope bytes reserved from the engine pool per
    /// executing query; `None` disables the memory admission gate.
    pub mem_per_query: Option<u64>,
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let max_concurrent = env_usize("TDP_MAX_CONCURRENT")
            .filter(|&n| n >= 1)
            .unwrap_or(4);
        ServerConfig {
            max_concurrent,
            max_queued: env_usize("TDP_MAX_QUEUED").unwrap_or(max_concurrent * 2),
            queue_timeout: Duration::from_millis(
                env_usize("TDP_QUEUE_TIMEOUT_MS")
                    .map(|n| n as u64)
                    .unwrap_or(1000),
            ),
            mem_per_query: std::env::var("TDP_MEM_PER_QUERY")
                .ok()
                .and_then(|v| tdp_mem::parse_bytes(&v)),
        }
    }
}

impl ServerConfig {
    pub fn max_concurrent(mut self, n: usize) -> ServerConfig {
        self.max_concurrent = n.max(1);
        self
    }

    pub fn max_queued(mut self, n: usize) -> ServerConfig {
        self.max_queued = n;
        self
    }

    pub fn queue_timeout(mut self, d: Duration) -> ServerConfig {
        self.queue_timeout = d;
        self
    }

    pub fn mem_per_query(mut self, bytes: u64) -> ServerConfig {
        self.mem_per_query = Some(bytes);
        self
    }
}

#[derive(Debug)]
struct AdmissionState {
    executing: usize,
    waiting: usize,
}

/// The counting semaphore gating execution verbs. Lock poisoning is
/// recovered (`into_inner`): the state is two counters adjusted in
/// single critical sections, never left torn.
#[derive(Debug)]
pub struct AdmissionControl {
    max_concurrent: usize,
    max_queued: usize,
    timeout: Duration,
    /// Admission envelope carved out of the engine memory pool per
    /// executing query; `None` disables the memory gate.
    mem_per_query: Option<u64>,
    state: Mutex<AdmissionState>,
    available: Condvar,
}

/// RAII execution slot; releasing wakes one queued query.
#[derive(Debug)]
struct AdmissionPermit<'a> {
    ctl: &'a AdmissionControl,
    /// The memory envelope held while the query executes.
    mem: Option<tdp_mem::MemoryReservation>,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        // Release the memory envelope *before* notifying: a woken
        // waiter must be able to take both the slot and the envelope.
        self.mem.take();
        let mut st = self.ctl.state.lock().unwrap_or_else(|e| e.into_inner());
        st.executing -= 1;
        drop(st);
        // notify_all, not notify_one: a woken waiter may be one that is
        // about to give up on timeout, which would strand the slot.
        self.ctl.available.notify_all();
    }
}

impl AdmissionControl {
    fn new(config: &ServerConfig) -> AdmissionControl {
        AdmissionControl {
            max_concurrent: config.max_concurrent.max(1),
            max_queued: config.max_queued,
            timeout: config.queue_timeout,
            mem_per_query: config.mem_per_query,
            state: Mutex::new(AdmissionState {
                executing: 0,
                waiting: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Try to take the per-query memory envelope. `Ok(None)` when the
    /// gate is off; `Err(())` when the pool cannot cover it right now.
    fn try_envelope(&self, engine: &TdpEngine) -> Result<Option<tdp_mem::MemoryReservation>, ()> {
        match self.mem_per_query {
            None => Ok(None),
            Some(bytes) => engine.memory_pool().try_reserve(bytes).map(Some).ok_or(()),
        }
    }

    /// Take an execution slot (and, with the memory gate on, a memory
    /// envelope), waiting in the bounded queue if either is
    /// unavailable. `Err` is the typed `BUSY` message; the engine's
    /// queued/rejected counters are updated here.
    fn acquire<'a>(&'a self, engine: &TdpEngine) -> Result<AdmissionPermit<'a>, String> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.executing < self.max_concurrent {
            if let Ok(mem) = self.try_envelope(engine) {
                st.executing += 1;
                return Ok(AdmissionPermit { ctl: self, mem });
            }
        }
        if st.waiting >= self.max_queued {
            engine.note_query_rejected();
            return Err(format!(
                "server busy: {} executing (cap {}), {} queued (cap {})",
                st.executing, self.max_concurrent, st.waiting, self.max_queued
            ));
        }
        st.waiting += 1;
        engine.note_query_queued();
        let deadline = Instant::now() + self.timeout;
        loop {
            if st.executing < self.max_concurrent {
                if let Ok(mem) = self.try_envelope(engine) {
                    st.waiting -= 1;
                    st.executing += 1;
                    return Ok(AdmissionPermit { ctl: self, mem });
                }
            }
            let now = Instant::now();
            if now >= deadline {
                st.waiting -= 1;
                engine.note_query_rejected();
                return Err(format!(
                    "server busy: no execution slot or memory envelope within {:?} (cap {})",
                    self.timeout, self.max_concurrent
                ));
            }
            let (guard, _) = self
                .available
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
}

/// A live TCP frontend over a shared engine. Dropping the server shuts
/// it down gracefully (see the module docs).
pub struct TdpServer {
    engine: Arc<TdpEngine>,
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    /// A clone of every live connection's socket, by connection id, so
    /// shutdown can half-close it; each connection removes its own entry
    /// when it ends.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl TdpServer {
    /// Bind and start serving `engine` on `addr` (use port 0 for an
    /// ephemeral port; read it back with [`TdpServer::local_addr`]).
    pub fn bind(
        engine: Arc<TdpEngine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<TdpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let running = Arc::new(AtomicBool::new(true));
        let admission = Arc::new(AdmissionControl::new(&config));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
        let conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();

        let accept_handle = {
            let engine = Arc::clone(&engine);
            let running = Arc::clone(&running);
            let admission = Arc::clone(&admission);
            let conns = Arc::clone(&conns);
            let conn_handles = Arc::clone(&conn_handles);
            // A blocking accept; `stop` wakes it with one connection of
            // its own once `running` is false.
            std::thread::spawn(move || {
                for id in 0u64.. {
                    let accepted = listener.accept();
                    if !running.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok((stream, _peer)) = accepted else {
                        // Transient (a peer reset before accept, fd
                        // exhaustion): back off briefly, keep accepting.
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    if let Ok(clone) = stream.try_clone() {
                        conns
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .insert(id, clone);
                    }
                    let engine = Arc::clone(&engine);
                    let admission = Arc::clone(&admission);
                    let conns = Arc::clone(&conns);
                    let handle = std::thread::spawn(move || {
                        serve_connection(&engine, stream, &admission);
                        // The last handle on the socket: dropping it sends
                        // the client its EOF.
                        conns.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
                    });
                    let mut handles = conn_handles.lock().unwrap_or_else(|e| e.into_inner());
                    handles.retain(|h| !h.is_finished());
                    handles.push(handle);
                }
            })
        };

        Ok(TdpServer {
            engine,
            local_addr,
            running,
            accept_handle: Some(accept_handle),
            conns,
            conn_handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<TdpEngine> {
        &self.engine
    }

    /// Stop accepting, drain in-flight queries, close every connection,
    /// and join all serving threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            // Wake the blocked accept; it sees `running` false and exits.
            // A wildcard bind is reached through loopback.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            drop(TcpStream::connect(wake));
            h.join().ok();
        }
        // Half-close the read side: blocked readers see EOF, and a
        // connection mid-query still gets to write its response.
        for (_, conn) in self.conns.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            conn.shutdown(Shutdown::Read).ok();
        }
        let handles: Vec<_> = self
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            h.join().ok();
        }
    }
}

impl Drop for TdpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One connection: its own session, its own prepared-statement namespace.
fn serve_connection(engine: &Arc<TdpEngine>, stream: TcpStream, admission: &AdmissionControl) {
    let session = engine.session();
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let mut statements: HashMap<String, String> = HashMap::new();

    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (verb, rest) = match line.split_once(char::is_whitespace) {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        if verb.eq_ignore_ascii_case("QUIT") {
            write_response(&mut writer, &Ok("OK bye".to_string()));
            break;
        }
        let dispatch = || match verb.to_ascii_uppercase().as_str() {
            "QUERY" => exec_query(&session, engine, admission, rest),
            "PREPARE" => prepare_statement(&session, &mut statements, rest),
            "BIND" => bind_statement(&session, engine, admission, &statements, rest),
            "EXPLAIN" => explain_query(&session, rest),
            "PROFILE" => profile_query(&session, engine, admission, rest),
            "STATS" => Ok(render_stats(engine)),
            other => Err(("PROTO".to_string(), format!("unknown verb '{other}'"))),
        };
        // A panicking statement must not leave its client waiting. The
        // unwind already dropped the admission permit and the memory
        // envelope (RAII); the session may be mid-`RefCell`-borrow, so it
        // serves nothing further: answer, then end this connection (its
        // thread closes the socket).
        let reply = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(dispatch)) {
            Ok(reply) => reply,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("statement panicked");
                write_response(&mut writer, &Err(("INTERNAL".to_string(), msg.to_string())));
                break;
            }
        };
        if !write_response(&mut writer, &reply) {
            break;
        }
    }
}

/// Write a framed response; returns false when the peer is gone.
fn write_response(w: &mut impl Write, reply: &Result<String, (String, String)>) -> bool {
    let ok = match reply {
        Ok(body) => writeln!(w, "{}\n.", body.trim_end()),
        Err((code, msg)) => writeln!(w, "ERR {code} {}\n.", one_line(msg)),
    };
    ok.and_then(|_| w.flush()).is_ok()
}

/// Collapse a (possibly multi-line) error message into the single-line
/// `ERR` frame.
fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], "; ")
}

fn sql_error(e: &TdpError) -> (String, String) {
    let code = match e {
        TdpError::Sql(_) | TdpError::Session(_) => "SQL",
        // A budget breach gets its own code: clients can tell "this
        // query is too big for the configured budget" from a plain
        // runtime failure and react differently (shrink, retry later).
        TdpError::Exec(tdp_exec::ExecError::MemoryBudget { .. }) => "MEM_BUDGET",
        TdpError::Exec(_) => "EXEC",
    };
    (code.to_string(), e.to_string())
}

fn exec_query(
    session: &Session,
    engine: &TdpEngine,
    admission: &AdmissionControl,
    sql: &str,
) -> Result<String, (String, String)> {
    if sql.is_empty() {
        return Err(("PROTO".into(), "QUERY needs a statement".into()));
    }
    let _permit = admission
        .acquire(engine)
        .map_err(|m| ("BUSY".to_string(), m))?;
    // `execute`, not `query`: DDL statements (CREATE/DROP INDEX) are
    // accepted on the same verb as queries.
    match session.execute(sql).map_err(|e| sql_error(&e))? {
        StatementOutcome::Rows(table) => Ok(render_table(&table)),
        StatementOutcome::Ack(msg) => Ok(format!("OK {msg}")),
    }
}

fn prepare_statement(
    session: &Session,
    statements: &mut HashMap<String, String>,
    rest: &str,
) -> Result<String, (String, String)> {
    let (name, sql) = rest
        .split_once(char::is_whitespace)
        .map(|(n, s)| (n, s.trim()))
        .ok_or((
            "PROTO".to_string(),
            "usage: PREPARE <name> <sql>".to_string(),
        ))?;
    if sql.is_empty() {
        return Err(("PROTO".into(), "usage: PREPARE <name> <sql>".into()));
    }
    // Compile now so errors surface at PREPARE time; the compilation is
    // not wasted — it warms the engine plan cache that BIND hits.
    let prepared = session.prepare(sql).map_err(|e| sql_error(&e))?;
    let params = prepared.param_count();
    statements.insert(name.to_string(), sql.to_string());
    Ok(format!("OK prepared {name} ({params} parameter(s))"))
}

fn bind_statement(
    session: &Session,
    engine: &TdpEngine,
    admission: &AdmissionControl,
    statements: &HashMap<String, String>,
    rest: &str,
) -> Result<String, (String, String)> {
    let (name, args) = match rest.split_once(char::is_whitespace) {
        Some((n, a)) => (n, a.trim()),
        None => (rest, ""),
    };
    if name.is_empty() {
        return Err(("PROTO".into(), "usage: BIND <name> [args…]".into()));
    }
    let sql = statements.get(name).ok_or((
        "UNKNOWN_STATEMENT".to_string(),
        format!("no prepared statement '{name}' on this connection"),
    ))?;
    let params = parse_args(args).map_err(|m| ("PROTO".to_string(), m))?;
    let _permit = admission
        .acquire(engine)
        .map_err(|m| ("BUSY".to_string(), m))?;
    // Re-prepare by text: the normalized statement hits the engine plan
    // cache, so this is a lookup, not a compilation.
    let prepared = session.prepare(sql).map_err(|e| sql_error(&e))?;
    let bound = prepared.bind(params).map_err(|e| sql_error(&e))?;
    let table = bound.run().map_err(|e| sql_error(&e))?;
    Ok(render_table(&table))
}

fn explain_query(session: &Session, sql: &str) -> Result<String, (String, String)> {
    if sql.is_empty() {
        return Err(("PROTO".into(), "EXPLAIN needs a statement".into()));
    }
    let prepared = session.prepare(sql).map_err(|e| sql_error(&e))?;
    Ok(format!("OK explain\n{}", prepared.explain().trim_end()))
}

fn profile_query(
    session: &Session,
    engine: &TdpEngine,
    admission: &AdmissionControl,
    sql: &str,
) -> Result<String, (String, String)> {
    if sql.is_empty() {
        return Err(("PROTO".into(), "PROFILE needs a statement".into()));
    }
    let _permit = admission
        .acquire(engine)
        .map_err(|m| ("BUSY".to_string(), m))?;
    let query = session.query(sql).map_err(|e| sql_error(&e))?;
    let (table, profile) = query.run_profiled().map_err(|e| sql_error(&e))?;
    Ok(format!(
        "{}\n{}",
        render_table(&table),
        profile.pretty().trim_end()
    ))
}

fn render_table(table: &tdp_storage::Table) -> String {
    format!(
        "OK {} rows\n{}",
        table.rows(),
        table.pretty(RESULT_ROW_LIMIT).trim_end()
    )
}

fn render_stats(engine: &TdpEngine) -> String {
    let stats = engine.stats();
    let access = engine.access_path_stats();
    format!(
        "OK stats\n\
         sessions_open {}\n\
         sessions_total {}\n\
         queries_served {}\n\
         queries_queued {}\n\
         queries_rejected {}\n\
         plan_cache_hits {}\n\
         plan_cache_misses {}\n\
         plan_cache_evictions {}\n\
         plan_cache_entries {}\n\
         plan_cache_hit_rate {:.3}\n\
         morsels_pruned {}\n\
         morsels_proven {}\n\
         morsels_scanned {}\n\
         ann_queries {}\n\
         ivf_stale_fallbacks {}\n\
         ivf_rebuilds {}\n\
         barriers_selection_fed {}\n\
         barriers_gathered {}\n\
         mem_used_bytes {}\n\
         mem_high_water_bytes {}\n\
         mem_budget_bytes {}\n\
         mem_budget_aborts {}",
        stats.sessions_open,
        stats.sessions_total,
        stats.queries_served,
        stats.queries_queued,
        stats.queries_rejected,
        stats.plan_cache.hits,
        stats.plan_cache.misses,
        stats.plan_cache.evictions,
        stats.plan_cache.entries,
        stats.plan_cache_hit_rate(),
        access.morsels_pruned,
        access.morsels_proven,
        access.morsels_scanned,
        access.ann_queries,
        access.ivf_stale_fallbacks,
        access.ivf_rebuilds,
        access.barriers_selection_fed,
        access.barriers_gathered,
        stats.mem_used_bytes,
        stats.mem_high_water_bytes,
        stats
            .mem_budget_bytes
            .map_or_else(|| "unlimited".to_string(), |b| b.to_string()),
        stats.mem_budget_aborts,
    )
}

/// Parse `BIND` arguments: whitespace-separated tokens; `'…'` quotes a
/// string (spaces allowed inside, `''` escapes a quote), `true`/`false`
/// bind booleans, `null` binds NULL, anything parsing as f64 binds a
/// number.
fn parse_args(s: &str) -> Result<ParamValues, String> {
    let mut params = ParamValues::new();
    let mut chars = s.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let Some(&c) = chars.peek() else { break };
        let value = if c == '\'' {
            chars.next();
            let mut out = String::new();
            loop {
                match chars.next() {
                    Some('\'') => {
                        if chars.peek() == Some(&'\'') {
                            chars.next();
                            out.push('\'');
                        } else {
                            break;
                        }
                    }
                    Some(ch) => out.push(ch),
                    None => return Err("unterminated string argument".into()),
                }
            }
            ParamValue::String(out)
        } else {
            let mut tok = String::new();
            while matches!(chars.peek(), Some(c) if !c.is_whitespace()) {
                tok.push(chars.next().expect("peeked"));
            }
            match tok.as_str() {
                "true" => ParamValue::Bool(true),
                "false" => ParamValue::Bool(false),
                "null" => ParamValue::Null,
                other => ParamValue::Number(
                    other
                        .parse::<f64>()
                        .map_err(|_| format!("cannot parse argument '{other}' (quote strings)"))?,
                ),
            }
        };
        params.push(value);
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_storage::TableBuilder;

    fn test_engine() -> Arc<TdpEngine> {
        let engine = TdpEngine::new();
        engine.register_table(
            TableBuilder::new()
                .col_f32("v", (0..10).map(|i| i as f32).collect())
                .build("nums"),
        );
        engine
    }

    /// A client helper: send one line, read until the `.` frame.
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

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn protocol_round_trip() {
        let server =
            TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let (stream, mut reader) = connect(server.local_addr());

        let r = roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM nums");
        assert!(r.starts_with("OK 1 rows\n"), "{r}");
        assert!(r.contains("10"), "{r}");

        let r = roundtrip(
            &stream,
            &mut reader,
            "PREPARE big SELECT COUNT(*) FROM nums WHERE v >= ?",
        );
        assert!(r.starts_with("OK prepared big (1 parameter(s))"), "{r}");
        let r = roundtrip(&stream, &mut reader, "BIND big 7");
        assert!(r.contains('3'), "v >= 7 keeps 7,8,9: {r}");
        let r = roundtrip(&stream, &mut reader, "BIND missing 7");
        assert!(r.starts_with("ERR UNKNOWN_STATEMENT"), "{r}");

        let r = roundtrip(
            &stream,
            &mut reader,
            "EXPLAIN SELECT v FROM nums WHERE v > 1",
        );
        assert!(r.contains("== physical"), "{r}");
        let r = roundtrip(&stream, &mut reader, "PROFILE SELECT COUNT(*) FROM nums");
        assert!(r.starts_with("OK 1 rows\n"), "{r}");

        let r = roundtrip(&stream, &mut reader, "STATS");
        assert!(r.contains("sessions_open 1"), "{r}");
        assert!(r.contains("plan_cache_hit_rate"), "{r}");
        assert!(r.contains("morsels_pruned"), "{r}");
        assert!(r.contains("morsels_scanned"), "{r}");
        assert!(r.contains("ann_queries"), "{r}");
        assert!(r.contains("ivf_stale_fallbacks"), "{r}");
        assert!(r.contains("mem_high_water_bytes"), "{r}");
        // `TdpEngine::new` has no memory budget, so the line renders
        // "unlimited" (a budgeted engine renders its cap).
        assert!(r.contains("mem_budget_bytes unlimited"), "{r}");
        assert!(r.contains("mem_budget_aborts 0"), "{r}");

        let r = roundtrip(&stream, &mut reader, "QUERY SELECT nope FROM nums");
        assert!(r.starts_with("ERR "), "{r}");
        let r = roundtrip(&stream, &mut reader, "FROB x");
        assert!(r.starts_with("ERR PROTO"), "{r}");

        let r = roundtrip(&stream, &mut reader, "QUIT");
        assert!(r.starts_with("OK bye"), "{r}");
        server.shutdown();
    }

    #[test]
    fn index_ddl_over_the_wire() {
        let engine = test_engine();
        engine.register_table(
            TableBuilder::new()
                .col_tensor(
                    "emb",
                    tdp_core::tensor::Tensor::from_vec(
                        vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.9, 0.1],
                        &[4, 2],
                    ),
                )
                .build("vecs"),
        );
        let server = TdpServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let (stream, mut reader) = connect(server.local_addr());

        let r = roundtrip(
            &stream,
            &mut reader,
            "QUERY CREATE INDEX vi ON vecs (emb) USING ivf(2, 2) METRIC l2",
        );
        assert!(r.starts_with("OK CREATE INDEX vi"), "{r}");
        let r = roundtrip(
            &stream,
            &mut reader,
            "EXPLAIN SELECT emb FROM vecs ORDER BY distance(emb, ?) LIMIT 2",
        );
        assert!(r.contains("AnnTopK"), "{r}");
        assert!(r.contains("ivf nlist=2 nprobe=2"), "{r}");
        let r = roundtrip(&stream, &mut reader, "QUERY DROP INDEX vi");
        assert!(r.starts_with("OK DROP INDEX vi"), "{r}");
        let r = roundtrip(&stream, &mut reader, "QUERY DROP INDEX vi");
        assert!(r.starts_with("ERR SQL"), "{r}");
        server.shutdown();
    }

    #[test]
    fn each_connection_gets_its_own_session() {
        let server =
            TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let (a, mut ra) = connect(server.local_addr());
        let (b, mut rb) = connect(server.local_addr());
        roundtrip(&a, &mut ra, "PREPARE p SELECT COUNT(*) FROM nums");
        // Prepared-statement namespaces are per connection…
        let r = roundtrip(&b, &mut rb, "BIND p");
        assert!(r.starts_with("ERR UNKNOWN_STATEMENT"), "{r}");
        // …but the engine is shared: both sessions are visible.
        let r = roundtrip(&a, &mut ra, "STATS");
        assert!(r.contains("sessions_open 2"), "{r}");
        drop((a, b));
        server.shutdown();
    }

    #[test]
    fn admission_rejects_beyond_cap_and_queue() {
        let engine = test_engine();
        let ctl = AdmissionControl::new(
            &ServerConfig::default()
                .max_concurrent(1)
                .max_queued(0)
                .queue_timeout(Duration::from_millis(50)),
        );
        let p1 = ctl.acquire(&engine).expect("first slot free");
        let err = ctl.acquire(&engine).expect_err("cap 1, queue 0");
        assert!(err.contains("server busy"), "{err}");
        assert_eq!(engine.stats().queries_rejected, 1);
        drop(p1);
        let p2 = ctl.acquire(&engine).expect("slot released");
        drop(p2);
    }

    #[test]
    fn admission_queue_times_out_with_typed_error() {
        let engine = test_engine();
        let ctl = AdmissionControl::new(
            &ServerConfig::default()
                .max_concurrent(1)
                .max_queued(4)
                .queue_timeout(Duration::from_millis(30)),
        );
        let _p1 = ctl.acquire(&engine).unwrap();
        let start = Instant::now();
        let err = ctl.acquire(&engine).expect_err("queued then timed out");
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(err.contains("server busy"), "{err}");
        let stats = engine.stats();
        assert_eq!((stats.queries_queued, stats.queries_rejected), (1, 1));
    }

    #[test]
    fn admission_queue_hands_over_released_slots() {
        let engine = test_engine();
        let ctl = Arc::new(AdmissionControl::new(
            &ServerConfig::default()
                .max_concurrent(1)
                .max_queued(1)
                .queue_timeout(Duration::from_secs(5)),
        ));
        let p1 = ctl.acquire(&engine).unwrap();
        let waiter = {
            let ctl = Arc::clone(&ctl);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || ctl.acquire(&engine).is_ok())
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(p1); // hands the slot to the queued waiter
        assert!(waiter.join().unwrap(), "queued query must get the slot");
        assert_eq!(engine.stats().queries_queued, 1);
        assert_eq!(engine.stats().queries_rejected, 0);
    }

    #[test]
    fn memory_gate_queues_and_releases_envelopes() {
        // Budget fits exactly one 1 KiB envelope: the second acquire
        // must wait for the first permit to drop, not fail outright.
        let engine = TdpEngine::with_memory_budget(1024);
        let ctl = Arc::new(AdmissionControl::new(
            &ServerConfig::default()
                .max_concurrent(4)
                .max_queued(2)
                .queue_timeout(Duration::from_secs(5))
                .mem_per_query(1024),
        ));
        let p1 = ctl.acquire(&engine).expect("first envelope fits");
        assert_eq!(engine.memory_pool().used(), 1024);
        let waiter = {
            let ctl = Arc::clone(&ctl);
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || ctl.acquire(&engine).is_ok())
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(p1); // releases the envelope, then wakes the waiter
        assert!(waiter.join().unwrap(), "queued query must get the envelope");
        assert_eq!(engine.memory_pool().used(), 0, "all envelopes released");
        assert_eq!(
            engine.stats().mem_budget_aborts,
            0,
            "admission refusals are not budget aborts"
        );
    }

    #[test]
    fn memory_gate_rejects_when_queue_full() {
        let engine = TdpEngine::with_memory_budget(1024);
        let ctl = AdmissionControl::new(
            &ServerConfig::default()
                .max_concurrent(4)
                .max_queued(0)
                .queue_timeout(Duration::from_millis(20))
                .mem_per_query(1024),
        );
        let _p1 = ctl.acquire(&engine).expect("first envelope fits");
        let err = ctl.acquire(&engine).expect_err("no envelope, queue 0");
        assert!(err.contains("server busy"), "{err}");
        assert_eq!(engine.stats().queries_rejected, 1);
    }

    #[test]
    fn bind_args_parse_all_types() {
        let p = parse_args("1.5 'a b' true null ''''").unwrap();
        assert_eq!(p.len(), 5);
        assert!(matches!(p.get(0), Some(ParamValue::Number(n)) if *n == 1.5));
        assert!(matches!(p.get(1), Some(ParamValue::String(s)) if s == "a b"));
        assert!(matches!(p.get(2), Some(ParamValue::Bool(true))));
        assert!(matches!(p.get(3), Some(ParamValue::Null)));
        assert!(matches!(p.get(4), Some(ParamValue::String(s)) if s == "'"));
        assert!(parse_args("'open").is_err());
        assert!(parse_args("wat").is_err());
        assert_eq!(parse_args("").unwrap().len(), 0);
    }

    #[test]
    fn graceful_shutdown_closes_idle_connections() {
        let server =
            TdpServer::bind(test_engine(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let (stream, mut reader) = connect(server.local_addr());
        roundtrip(&stream, &mut reader, "QUERY SELECT COUNT(*) FROM nums");
        server.shutdown(); // must not hang on the idle connection
        let mut line = String::new();
        assert_eq!(
            reader.read_line(&mut line).unwrap_or(0),
            0,
            "EOF after shutdown"
        );
    }
}
