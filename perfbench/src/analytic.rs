//! `analytic_embedded`: seven TPC-H-shaped statements over `lineitem`
//! and `orders`, prepared once and re-bound with seeded parameters.
//!
//! `exec` does nearly all the work: one bind (microseconds) in front of
//! a scan, chain kernel and barrier over a million rows. A kernel,
//! barrier or worker-pool change must show here; a plan-cache or wire
//! change must not.

use std::sync::Arc;
use std::time::Instant;

use tdp_core::storage::Table;
use tdp_core::tensor::Rng64;
use tdp_core::{ParamValues, Prepared, Session, TdpEngine};

use crate::datagen;
use crate::layers;
use crate::runner::{self, Config, Driver, Report};
use crate::stmt::{self, PrepareWatch};
use crate::trace::{At, Kind, Tracer};

pub const NAME: &str = "analytic_embedded";

pub const CLASSES: [&str; 7] = [
    "q6_scan_agg",
    "q1_group_agg",
    "proj_chain_10pct",
    "q3_join_agg",
    "sort_1pct",
    "topk_10pct",
    "distinct_10pct",
];

const ROUND: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];

/// Sized so that a round of seven ops takes about 0.15 s on the seed
/// commit: a 10 s run then holds some 450 ops, enough for a p95 with
/// twenty samples beyond it.
const LINEITEM_ROWS: usize = 1_000_000;

const SQL: [&str; 7] = [
    // A one-year window on the sorted date column (zone maps prune the
    // other six years), two more conjuncts, an aggregate fed by the
    // selection vector.
    "SELECT SUM(l_price * l_disc) AS revenue, COUNT(*) AS n FROM lineitem \
     WHERE l_shipday >= ? AND l_shipday < ? AND l_disc >= ? AND l_disc <= ? AND l_qty < ?",
    "SELECT l_flag, SUM(l_qty) AS q, SUM(l_price) AS p, SUM(l_price * (1 - l_disc)) AS net, \
     AVG(l_disc) AS d, COUNT(*) AS n FROM lineitem WHERE l_shipday <= ? \
     GROUP BY l_flag ORDER BY l_flag",
    "SELECT l_price * (1 - l_disc) AS net, l_qty * 2 + 1 AS q FROM lineitem WHERE l_v > ?",
    // The filter sits in a derived table: the one SQL shape that parks
    // a compiled chain directly under the join's probe side.
    "SELECT orders.o_prio, COUNT(*) AS n, SUM(s.l_price) AS rev FROM \
     (SELECT l_orderkey, l_price FROM lineitem WHERE l_v > ?) AS s \
     JOIN orders ON s.l_orderkey = orders.o_orderkey \
     GROUP BY orders.o_prio ORDER BY rev DESC LIMIT 3",
    // The cell BENCH_PR10 recorded as losing to the gathered path.
    "SELECT l_v, l_orderkey FROM lineitem WHERE l_v > ? ORDER BY l_v DESC",
    "SELECT l_v, l_orderkey FROM lineitem WHERE l_v > ? ORDER BY l_v DESC LIMIT 100",
    "SELECT DISTINCT l_orderkey FROM lineitem WHERE l_v > ?",
];

/// N(0,1) cutoffs: 10% of rows lie above 1.2816, 1% above 2.3263. Each
/// op draws its cutoff from a narrow band around one of them, so the
/// bound value changes and the selectivity hardly does.
fn cutoff(rng: &mut Rng64, centre: f64) -> f64 {
    centre + rng.uniform_range(-0.01, 0.01)
}

fn class_params(class: usize, rng: &mut Rng64) -> Vec<f64> {
    match class {
        0 => {
            let year = rng.below(7) as f64;
            let disc = 0.02 + rng.below(7) as f64 * 0.01;
            vec![
                year * 365.0,
                (year + 1.0) * 365.0,
                disc - 0.011,
                disc + 0.011,
                24.0 + rng.below(2) as f64,
            ]
        }
        1 => vec![(datagen::SHIP_DAYS - 60 - rng.below(60) as i64) as f64],
        4 => vec![cutoff(rng, 2.3263)],
        _ => vec![cutoff(rng, 1.2816)],
    }
}

fn bind_values(values: &[f64]) -> ParamValues {
    values.iter().fold(ParamValues::new(), |p, &v| p.number(v))
}

struct Data {
    lineitem: Table,
    orders: Table,
}

struct Analytic<'s> {
    session: &'s Session,
    stmts: Vec<Prepared<'s>>,
    oracle: Vec<Prepared<'s>>,
    watch: PrepareWatch,
    /// Rows every op of a class reads.
    input_rows: [u64; 7],
    /// Rows read by the ops of the traced pass.
    traced_input_rows: u64,
}

impl Driver for Analytic<'_> {
    type Params = Vec<f64>;
    type Output = Table;

    fn round(&self) -> &[usize] {
        &ROUND
    }

    fn params(&mut self, class: usize, rng: &mut Rng64) -> Vec<f64> {
        class_params(class, rng)
    }

    fn exec(
        &mut self,
        class: usize,
        params: &Vec<f64>,
        tr: &mut Tracer,
        at: At,
    ) -> Result<Table, String> {
        if tr.enabled() && at.kind == Kind::Call {
            self.traced_input_rows += self.input_rows[class];
        }
        stmt::bind_run(&self.stmts[class], bind_values(params), tr, at)
    }

    fn replicas(
        &mut self,
        class: usize,
        _params: &Vec<f64>,
        tr: &mut Tracer,
        at: At,
    ) -> Result<(), String> {
        stmt::frontend_replicas(self.session.engine(), SQL[class], true, tr, at)?;
        self.watch
            .prepare(self.session, CLASSES[class], SQL[class], tr, at)
            .map(drop)
    }

    fn digest(&self, out: &Table) -> u64 {
        runner::table_digest(out)
    }

    fn expect(&mut self, class: usize, params: &Vec<f64>) -> Result<u64, String> {
        let table = self.oracle[class]
            .bind(bind_values(params))
            .and_then(|b| b.run())
            .map_err(|e| e.to_string())?;
        Ok(runner::table_digest(&table))
    }
}

/// Encode and register both tables; returns the engine with the rows
/// registered and the seconds that took.
fn load(data: &Data, tr: &mut Tracer) -> (Arc<TdpEngine>, u64, f64) {
    let engine = TdpEngine::new();
    let rows = (data.lineitem.rows() + data.orders.rows()) as u64;
    let ((), s) = layers::probe(tr, "storage.register", || {
        engine.register_table(data.lineitem.compress());
        engine.register_table(data.orders.compress());
    });
    (engine, rows, s)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let lineitem_rows = cfg.rows(LINEITEM_ROWS, 8192);
    let order_keys = cfg.rows(datagen::ORDER_KEYS, 100);
    let start = Instant::now();
    let data = Data {
        lineitem: datagen::lineitem(cfg.seed, lineitem_rows, order_keys),
        orders: datagen::orders(cfg.seed, order_keys),
    };
    report.push("bench.datagen_s", start.elapsed().as_secs_f64(), "s");

    let mut tr = Tracer::new(cfg.trace);
    let mut setup_s = Vec::new();
    for rep in 0..cfg.setup_reps() {
        let start = Instant::now();
        let (engine, registered_rows, register_s) = load(&data, &mut tr);
        let session = engine.session();
        let mut watch = PrepareWatch::default();
        let stmts = (0..CLASSES.len())
            .map(|c| watch.prepare(&session, CLASSES[c], SQL[c], &mut tr, At::PROBE))
            .collect::<Result<Vec<_>, _>>()?;
        let mut warm = datagen::schedule_rng(cfg.seed, 99);
        for (c, stmt) in stmts.iter().enumerate() {
            stmt.bind(bind_values(&class_params(c, &mut warm)))
                .and_then(|b| b.run())
                .map_err(|e| format!("warm-up of {}: {e}", CLASSES[c]))?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < cfg.setup_reps() {
            continue;
        }

        report.engine_threads = session.threads();
        let oracle_session = runner::oracle_session(&engine);
        let oracle = SQL
            .iter()
            .map(|sql| oracle_session.prepare(sql).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut input_rows = [lineitem_rows as u64; 7];
        input_rows[3] += order_keys as u64;
        let mut driver = Analytic {
            session: &session,
            stmts,
            oracle,
            watch,
            input_rows,
            traced_input_rows: 0,
        };
        if !cfg.trace {
            runner::timed_run(
                cfg,
                &mut report,
                &mut driver,
                &CLASSES,
                &session,
                std::mem::take(&mut setup_s),
            )?;
            continue;
        }

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
            registered_rows as f64 / register_s,
            "rows/s",
        );
        layers::input_rate(&mut report, &tr, driver.traced_input_rows);
        let mut shares = layers::ProfileShares::default();
        let mut rng = datagen::schedule_rng(cfg.seed, 98);
        for (c, stmt) in driver.stmts.iter().enumerate() {
            shares.profile(stmt, bind_values(&class_params(c, &mut rng)))?;
        }
        shares.report(&mut report);
        layers::tdpf_probe(&mut report, &mut tr, &data.lineitem)?;
    }
    runner::finish_trace(cfg, &mut report, &tr)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<Vec<f64>> {
        let mut rng = datagen::schedule_rng(seed, 0);
        (0..10)
            .flat_map(|_| ROUND)
            .map(|c| class_params(c, &mut rng))
            .collect()
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_between_seeds() {
        assert_eq!(schedule(21), schedule(21));
        assert_ne!(schedule(21), schedule(22));
    }

    #[test]
    fn every_statement_has_as_many_placeholders_as_its_schedule_binds() {
        let mut rng = datagen::schedule_rng(1, 0);
        for (c, sql) in SQL.iter().enumerate() {
            assert_eq!(
                sql.matches('?').count(),
                class_params(c, &mut rng).len(),
                "{}",
                CLASSES[c]
            );
        }
    }
}
