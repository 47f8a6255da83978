//! `ingest_embedded`: appends beside reads on the same `storage` and
//! `core` code. Every round appends one 4,096-row batch to `events` and
//! then reads the table four ways, with fresh literals, so that every
//! read is the first look at a catalog the append just changed.
//!
//! A change that makes reads cheaper by making appends dearer (chunked
//! storage, eager index maintenance) or the reverse shows here as a
//! regression in one class.

use std::time::Instant;

use tdp_core::storage::Table;
use tdp_core::tensor::Rng64;
use tdp_core::{ParamValues, Session, TdpEngine};

use crate::datagen::{self, APPEND_ROWS};
use crate::layers;
use crate::runner::{self, Config, Driver, Report};
use crate::stmt::{self, PrepareWatch};
use crate::trace::{At, Kind, Tracer};

pub const NAME: &str = "ingest_embedded";

pub const CLASSES: [&str; 5] = [
    "append_batch",
    "recent_range",
    "device_agg",
    "topk_recent",
    "full_agg",
];

const ROUND: [usize; 5] = [0, 1, 2, 3, 4];
const APPEND: usize = 0;

const BASE_ROWS: usize = 500_000;
/// Rounds after which `events` is cut back to its initial rows. A run
/// is measured by time, so without the cut a faster program would append
/// more, grow the table further and pay more per op: every cycle sees
/// the same table sizes instead. The cut itself is wall time of no op.
const CYCLE_ROUNDS: usize = 32;
const WARMUP_ROUNDS: usize = 8;

pub enum Params {
    Batch(usize),
    Read(String),
}

pub enum Output {
    /// Rows in `events` after the append.
    Rows(usize),
    Table(Table),
}

struct Data {
    base: Table,
    /// Batch `i` continues `ts` where the base plus `i` batches end.
    batches: Vec<Table>,
}

struct Ingest<'s> {
    data: &'s Data,
    session: &'s Session,
    oracle: &'s Session,
    /// Batches appended since the last cut.
    appended: usize,
    watch: PrepareWatch,
    /// Table bytes rewritten and bytes appended by the traced appends.
    rewritten_bytes: u64,
    appended_bytes: u64,
    traced_input_rows: u64,
}

impl Ingest<'_> {
    fn rows(&self) -> usize {
        self.data.base.rows() + self.appended * APPEND_ROWS
    }

    fn cut_back(&mut self) {
        self.session.register_table(self.data.base.clone());
        self.appended = 0;
    }

    fn read_sql(&self, class: usize, rng: &mut Rng64) -> String {
        let rows = self.rows() as i64;
        let jitter = rng.below(512) as i64;
        match class {
            1 => format!(
                "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(ts) AS lo, MAX(ts) AS hi \
                 FROM events WHERE ts >= {}",
                rows - 2 * APPEND_ROWS as i64 + jitter
            ),
            2 => format!(
                "SELECT device, COUNT(*) AS n, AVG(val) AS a FROM events WHERE ts >= {} \
                 GROUP BY device ORDER BY n DESC, device LIMIT 10",
                rows - rows / 10 + jitter
            ),
            3 => format!(
                "SELECT ts, val FROM events WHERE ts >= {} ORDER BY val DESC LIMIT 10",
                rows - 10 * APPEND_ROWS as i64 + jitter
            ),
            _ => "SELECT COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a FROM events".to_string(),
        }
    }
}

impl Driver for Ingest<'_> {
    type Params = Params;
    type Output = Output;

    fn round(&self) -> &[usize] {
        &ROUND
    }

    fn params(&mut self, class: usize, rng: &mut Rng64) -> Params {
        if class == APPEND {
            Params::Batch(self.appended)
        } else {
            Params::Read(self.read_sql(class, rng))
        }
    }

    fn exec(
        &mut self,
        class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<Output, String> {
        match params {
            Params::Batch(i) => {
                let batch = &self.data.batches[*i];
                let span = tr.open("storage.append", at);
                let appended = self.session.append_rows("events", batch);
                tr.close(span);
                if !appended {
                    return Err("append_rows refused the batch".to_string());
                }
                self.appended += 1;
                let table = self
                    .session
                    .catalog()
                    .get("events")
                    .ok_or("events vanished")?;
                if tr.enabled() {
                    self.rewritten_bytes += table.memory_bytes() as u64;
                    self.appended_bytes += batch.memory_bytes() as u64;
                }
                Ok(Output::Rows(table.rows()))
            }
            Params::Read(sql) => {
                if tr.enabled() && at.kind == Kind::Call {
                    self.traced_input_rows += self.rows() as u64;
                }
                let prepared = self
                    .watch
                    .prepare(self.session, CLASSES[class], sql, tr, at)?;
                stmt::bind_run(&prepared, ParamValues::new(), tr, at).map(Output::Table)
            }
        }
    }

    fn replicas(
        &mut self,
        _class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<(), String> {
        match params {
            Params::Batch(_) => Ok(()),
            Params::Read(sql) => stmt::frontend_replicas(self.session.engine(), sql, true, tr, at),
        }
    }

    fn digest(&self, out: &Output) -> u64 {
        match out {
            Output::Rows(rows) => *rows as u64,
            Output::Table(table) => runner::table_digest(table),
        }
    }

    fn expect(&mut self, _class: usize, params: &Params) -> Result<u64, String> {
        match params {
            // Checked right after the append, so `appended` counts it.
            Params::Batch(_) => Ok(self.rows() as u64),
            Params::Read(sql) => {
                let table = self
                    .oracle
                    .query(sql)
                    .and_then(|q| q.run())
                    .map_err(|e| e.to_string())?;
                Ok(runner::table_digest(&table))
            }
        }
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.cut_back();
        Ok(())
    }

    fn end_round(&mut self, _round: u64) -> Result<(), String> {
        if self.appended == CYCLE_ROUNDS {
            self.cut_back();
        }
        Ok(())
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let start = Instant::now();
    let base_rows = cfg.rows(BASE_ROWS, 2 * APPEND_ROWS);
    let mut rng = datagen::schedule_rng(cfg.seed, 60);
    let data = Data {
        base: datagen::events(&mut rng, 0, base_rows),
        batches: (0..CYCLE_ROUNDS)
            .map(|i| datagen::events(&mut rng, (base_rows + i * APPEND_ROWS) as i64, APPEND_ROWS))
            .collect(),
    };
    report.push("bench.datagen_s", start.elapsed().as_secs_f64(), "s");

    let mut tr = Tracer::new(cfg.trace);
    let mut setup_s = Vec::new();
    for rep in 0..cfg.setup_reps() {
        let start = Instant::now();
        let engine = TdpEngine::new();
        let ((), register_s) = layers::probe(&mut tr, "storage.register", || {
            engine.register_table(data.base.clone())
        });
        let session = engine.session();
        let oracle = runner::oracle_session(&engine);
        let mut driver = Ingest {
            data: &data,
            session: &session,
            oracle: &oracle,
            appended: 0,
            watch: PrepareWatch::default(),
            rewritten_bytes: 0,
            appended_bytes: 0,
            traced_input_rows: 0,
        };
        // The first round compiles the four read shapes (set-up spans of
        // a traced run name them `core.prepare_miss`); the rest let the
        // allocator settle on the table-sized buffers every append
        // allocates and frees.
        let mut warm = datagen::schedule_rng(cfg.seed, 99);
        for class in ROUND.repeat(WARMUP_ROUNDS) {
            let params = driver.params(class, &mut warm);
            driver
                .exec(class, &params, &mut tr, At::PROBE)
                .map_err(|e| format!("warm-up of {}: {e}", CLASSES[class]))?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < cfg.setup_reps() {
            continue;
        }

        report.engine_threads = session.threads();
        if cfg.trace {
            runner::traced_run(
                cfg,
                &mut report,
                &mut driver,
                &CLASSES,
                &session,
                &mut tr,
                cfg.trace_rounds(),
            )?;
            report.push(
                "storage.register_rows_per_s",
                base_rows as f64 / register_s,
                "rows/s",
            );
            let appends = tr.micros("storage.append");
            report.push_sampled(
                "storage.append_ms",
                crate::stats::median(&appends) / 1e3,
                "ms",
                appends.len(),
            );
            report.push(
                "storage.append_write_amp",
                driver.rewritten_bytes as f64 / driver.appended_bytes.max(1) as f64,
                "ratio",
            );
            layers::input_rate(&mut report, &tr, driver.traced_input_rows);
            let mut shares = layers::ProfileShares::default();
            let mut rng = datagen::schedule_rng(cfg.seed, 98);
            for class in 1..CLASSES.len() {
                let sql = driver.read_sql(class, &mut rng);
                let prepared = session.prepare(&sql).map_err(|e| e.to_string())?;
                shares.profile(&prepared, ParamValues::new())?;
            }
            shares.report(&mut report);
            layers::tdpf_probe(&mut report, &mut tr, &data.base)?;
        } else {
            runner::timed_run(
                cfg,
                &mut report,
                &mut driver,
                &CLASSES,
                &session,
                std::mem::take(&mut setup_s),
            )?;
        }

        // Nothing appended may be lost: the live row count must equal
        // the initial rows plus every batch since the last cut.
        let counted = session
            .query("SELECT COUNT(*) AS n FROM events")
            .and_then(|q| q.run())
            .map_err(|e| e.to_string())?;
        let counted = counted.column("n").map(|c| c.data.decode_i64().at(0));
        if counted != Some(driver.rows() as i64) {
            report.fail_invariant(format!(
                "events holds {counted:?} rows, expected {} ({} batches since the last cut)",
                driver.rows(),
                driver.appended
            ));
        }
    }
    runner::finish_trace(cfg, &mut report, &tr)?;
    Ok(report)
}
