//! `ai_embedded`: the queries that set the paper apart — ANN top-k with
//! and without an IVF index, a scoring UDF in a filter and in a top-k,
//! and the Listing-5 training step of a trainable query.
//!
//! `index`, `exec`'s UDF and differentiable paths, `autodiff`, `nn` and
//! `tensor` do the work; chain kernels and barriers almost none.
//! `train_step` re-registers its input table on every op, so every step
//! is a catalog write.

use std::sync::Arc;
use std::time::Instant;

use tdp_core::autodiff::Var;
use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, DiffColumn, ExecContext, ExecError};
use tdp_core::index::{recall_at_k, FlatIndex, Metric};
use tdp_core::nn::{Adam, Optimizer};
use tdp_core::storage::Table;
use tdp_core::tensor::{F32Tensor, Rng64, Tensor};
use tdp_core::{
    ArgType, FunctionSpec, ParamValues, Prepared, QueryConfig, ScalarUdf, Session, TdpEngine,
    Volatility,
};

use crate::datagen::{self, TRUE_CUTOFF};
use crate::layers;
use crate::runner::{self, Config, Driver, Report};
use crate::stmt::{self, PrepareWatch};
use crate::trace::{At, Tracer};

pub const NAME: &str = "ai_embedded";

pub const CLASSES: [&str; 5] = [
    "ann_ivf",
    "ann_flat",
    "udf_filter",
    "udf_topk",
    "train_step",
];

const ROUND: [usize; 5] = [0, 1, 2, 3, 4];
const TRAIN: usize = 4;

/// Sizes put every class between 1 and 10 ms on the seed commit and the
/// IVF build — 20 Lloyd iterations, the bulk of `setup_s` — near 1 s.
const VECS_ROWS: usize = 40_000;
const VECS_SMALL_ROWS: usize = 16_000;
const DOCS_ROWS: usize = 30_000;
const READINGS_ROWS: usize = 100_000;
const IVF_NLIST: usize = 32;
const IVF_NPROBE: usize = 4;
const TOP_K: usize = 10;
/// Distinct probes and training batches; ops cycle through them.
const PROBES: usize = 64;
const BATCHES: usize = 32;

const TEMPERATURE: f32 = 0.05;
const LEARNING_RATE: f32 = 0.02;
const THETA_START: f32 = 0.3;
/// Steps after which θ must sit within 0.05 of the true cutoff; a
/// shorter run only has to have moved towards it.
const STEPS_TO_CONVERGE: u64 = 150;

const SQL: [&str; 5] = [
    "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10",
    "SELECT id FROM vecs_small ORDER BY distance(emb, ?) LIMIT 10",
    "SELECT COUNT(*) AS n, SUM(linear_score(emb)) AS s FROM docs WHERE linear_score(emb) > ?",
    "SELECT id, linear_score(emb) AS sc FROM docs WHERE id >= ? ORDER BY sc DESC LIMIT 10",
    "SELECT COUNT(*) FROM readings WHERE v > threshold(v)",
];

/// `linear_score(emb)`: a fixed linear model over the embedding, shared
/// engine-wide and safe to run on the worker pool.
struct LinearScore {
    weights: F32Tensor,
}

impl ScalarUdf for LinearScore {
    fn name(&self) -> &str {
        "linear_score"
    }
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Column])
            .volatility(Volatility::Immutable)
            .parallel_safe(true)
    }
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let emb = args[0].as_column()?.decode_f32();
        Ok(EncodedTensor::F32(emb.matvec(&self.weights)))
    }
}

/// `threshold(x)`: the trainable cutoff θ, broadcast to x's rows.
struct Threshold {
    theta: Var,
}

impl ScalarUdf for Threshold {
    fn name(&self) -> &str {
        "threshold"
    }
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let n = args[0].as_column()?.rows();
        Ok(EncodedTensor::F32(Tensor::full(
            &[n],
            self.theta.value().at(0),
        )))
    }
    fn invoke_diff(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<DiffColumn, ExecError> {
        let n = match &args[0] {
            ArgValue::Column(c) => c.rows(),
            ArgValue::DiffColumn(d) => d.var.shape()[0],
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "threshold expects a column, got {other:?}"
                )))
            }
        };
        Ok(DiffColumn::plain(self.theta.broadcast_to(&[n])))
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.theta.clone()]
    }
}

struct Data {
    vecs: Table,
    vecs_small: Table,
    docs: Table,
    probes: Vec<F32Tensor>,
    small_probes: Vec<F32Tensor>,
    weights: F32Tensor,
    /// `(readings batch, how many of its rows pass the true cutoff)`.
    batches: Vec<(Table, f32)>,
    docs_rows: usize,
}

impl Data {
    fn generate(cfg: &Config) -> Data {
        let seed = cfg.seed;
        let vecs = datagen::vector_table(seed, 10, "vecs", cfg.rows(VECS_ROWS, 2000));
        let vecs_small =
            datagen::vector_table(seed, 11, "vecs_small", cfg.rows(VECS_SMALL_ROWS, 1000));
        let docs_rows = cfg.rows(DOCS_ROWS, 1000);
        let docs = datagen::vector_table(seed, 12, "docs", docs_rows);
        let emb = |t: &Table| t.column("emb").expect("generated").data.decode_f32();
        let probes = datagen::probes(seed, &emb(&vecs), PROBES);
        let small_probes = datagen::probes(seed + 1, &emb(&vecs_small), PROBES);
        let mut rng = datagen::schedule_rng(seed, 50);
        let weights = Tensor::from_vec(
            (0..datagen::DIM).map(|_| rng.normal() as f32).collect(),
            &[datagen::DIM],
        );
        let readings_rows = cfg.rows(READINGS_ROWS, 2000);
        let batches = (0..BATCHES)
            .map(|_| datagen::readings(&mut rng, readings_rows))
            .collect();
        Data {
            vecs,
            vecs_small,
            docs,
            probes,
            small_probes,
            weights,
            batches,
            docs_rows,
        }
    }
}

pub enum Params {
    Probe(usize),
    Number(f64),
    Batch(usize),
}

pub enum Output {
    Rows(Table),
    /// One training step: the batch it ran on, θ before the step and
    /// the soft count the differentiable plan produced.
    Step {
        batch: usize,
        theta: f32,
        soft_count: f32,
    },
}

struct Ai<'s> {
    data: &'s Data,
    session: &'s Session,
    stmts: Vec<Prepared<'s>>,
    oracle: Vec<Prepared<'s>>,
    theta: Var,
    optimizer: Adam,
    steps: u64,
    flat: Option<FlatIndex>,
    watch: PrepareWatch,
}

impl Ai<'_> {
    fn bind_values(&self, class: usize, params: &Params) -> ParamValues {
        match *params {
            Params::Probe(i) if class == 0 => {
                ParamValues::new().tensor(self.data.probes[i].clone())
            }
            Params::Probe(i) => ParamValues::new().tensor(self.data.small_probes[i].clone()),
            Params::Number(v) => ParamValues::new().number(v),
            Params::Batch(_) => ParamValues::new(),
        }
    }

    /// The Listing-5 loop body: fresh batch in, one optimizer step out.
    fn train_step(&mut self, batch: usize, tr: &mut Tracer, at: At) -> Result<Output, String> {
        let (table, target) = &self.data.batches[batch];
        let theta = self.theta.value().at(0);

        let span = tr.open("core.reregister", at);
        self.session.register_table(table.clone());
        tr.close(span);

        let span = tr.open("core.bind", at);
        let bound = self.stmts[TRAIN]
            .bind(ParamValues::new())
            .map_err(|e| e.to_string());
        tr.close(span);
        let bound = bound?;

        let span = tr.open("autodiff.forward", at);
        let forward = bound
            .run_counts()
            .map(|counts| {
                let loss = counts.mse_loss(&F32Tensor::from_vec(vec![*target], &[1]));
                (counts, loss)
            })
            .map_err(|e| e.to_string());
        tr.close(span);
        let (counts, loss) = forward?;

        let span = tr.open("autodiff.backward", at);
        self.optimizer.zero_grad();
        loss.backward();
        tr.close(span);

        let span = tr.open("nn.optim_step", at);
        self.optimizer.step();
        tr.close(span);

        self.steps += 1;
        Ok(Output::Step {
            batch,
            theta,
            soft_count: counts.value().at(0),
        })
    }

    /// The soft count computed here, outside the engine: COUNT(*) over
    /// `v > θ` relaxes to Σ σ((v − θ)/τ).
    fn model_soft_count(&self, batch: usize, theta: f32) -> f64 {
        let values = self.data.batches[batch]
            .0
            .column("v")
            .expect("generated")
            .data
            .decode_f32();
        values
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-((v - theta) / TEMPERATURE) as f64).exp()))
            .sum()
    }
}

/// Digest of "the soft count is right": float summation order is the
/// engine's own business, so a training step is checked to a relative
/// 1e-3 and the digest is of that verdict.
const STEP_CORRECT: u64 = 1;

impl Driver for Ai<'_> {
    type Params = Params;
    type Output = Output;

    fn round(&self) -> &[usize] {
        &ROUND
    }

    fn params(&mut self, class: usize, rng: &mut Rng64) -> Params {
        match class {
            0 | 1 => Params::Probe(rng.below(PROBES)),
            // About the upper 40% of scores pass.
            2 => Params::Number(rng.uniform_range(4.0, 6.0)),
            // Top-k over the last 80–100% of the table.
            3 => Params::Number((rng.below(self.data.docs_rows / 5)) as f64),
            _ => Params::Batch(rng.below(BATCHES)),
        }
    }

    fn exec(
        &mut self,
        class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<Output, String> {
        if let Params::Batch(batch) = *params {
            return self.train_step(batch, tr, at);
        }
        let values = self.bind_values(class, params);
        stmt::bind_run(&self.stmts[class], values, tr, at).map(Output::Rows)
    }

    fn replicas(
        &mut self,
        class: usize,
        params: &Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<(), String> {
        // `train_step` names a session-local function the engine-level
        // registry cannot resolve, so its front-end is not replayed.
        if class != TRAIN {
            stmt::frontend_replicas(self.session.engine(), SQL[class], true, tr, at)?;
        }
        // After a train step this is the first prepare since a catalog
        // write: a revalidating hit.
        self.watch
            .prepare(self.session, CLASSES[class], SQL[class], tr, at)?;
        if let (0, Params::Probe(i)) = (class, params) {
            let probe = &self.data.probes[*i];
            let span = tr.open("index.ann_ivf", at);
            let hits = self
                .session
                .vector_topk("vecs", "emb", probe, TOP_K, IVF_NPROBE);
            tr.close(span);
            hits.map_err(|e| e.to_string())?;
            if let Some(flat) = &self.flat {
                let span = tr.open("index.ann_flat", at);
                std::hint::black_box(flat.search(probe, TOP_K));
                tr.close(span);
            }
        }
        Ok(())
    }

    fn digest(&self, out: &Output) -> u64 {
        match *out {
            Output::Rows(ref table) => runner::table_digest(table),
            Output::Step {
                batch,
                theta,
                soft_count,
            } => {
                let model = self.model_soft_count(batch, theta);
                u64::from((f64::from(soft_count) - model).abs() <= 1e-3 * model.max(1.0))
            }
        }
    }

    fn expect(&mut self, class: usize, params: &Params) -> Result<u64, String> {
        if class == TRAIN {
            return Ok(STEP_CORRECT);
        }
        let table = self.oracle[class]
            .bind(self.bind_values(class, params))
            .and_then(|b| b.run())
            .map_err(|e| e.to_string())?;
        Ok(runner::table_digest(&table))
    }
}

struct Loaded {
    engine: Arc<TdpEngine>,
    registered_rows: u64,
    register_s: f64,
    ivf_build_s: f64,
}

fn load(data: &Data, tr: &mut Tracer) -> Result<Loaded, String> {
    let engine = TdpEngine::new();
    let first_batch = &data.batches[0].0;
    let tables = [&data.vecs, &data.vecs_small, &data.docs, first_batch];
    let registered_rows = tables.iter().map(|t| t.rows() as u64).sum();
    let ((), register_s) = layers::probe(tr, "storage.register", || {
        for t in tables {
            engine.register_table(t.clone());
        }
    });
    engine.register_udf_shared(Arc::new(LinearScore {
        weights: data.weights.clone(),
    }));
    let ddl = format!(
        "CREATE INDEX vecs_ivf ON vecs (emb) USING ivf({IVF_NLIST}, {IVF_NPROBE}) METRIC l2"
    );
    let (built, ivf_build_s) =
        layers::probe(tr, "index.ivf_build", || engine.session().execute(&ddl));
    built.map_err(|e| format!("{ddl}: {e}"))?;
    Ok(Loaded {
        engine,
        registered_rows,
        register_s,
        ivf_build_s,
    })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::new(NAME);
    let start = Instant::now();
    let data = Data::generate(cfg);
    report.push("bench.datagen_s", start.elapsed().as_secs_f64(), "s");

    let mut tr = Tracer::new(cfg.trace);
    let mut setup_s = Vec::new();
    for rep in 0..cfg.setup_reps() {
        let start = Instant::now();
        let loaded = load(&data, &mut tr)?;
        let engine = &loaded.engine;
        let session = engine.session();
        let theta = Var::param(Tensor::from_vec(vec![THETA_START], &[1]));
        session.register_udf(Arc::new(Threshold {
            theta: theta.clone(),
        }));
        let mut watch = PrepareWatch::default();
        let mut stmts = (0..TRAIN)
            .map(|c| watch.prepare(&session, CLASSES[c], SQL[c], &mut tr, At::PROBE))
            .collect::<Result<Vec<_>, _>>()?;
        stmts.push(
            session
                .prepare_with(
                    SQL[TRAIN],
                    QueryConfig::default()
                        .trainable(true)
                        .temperature(TEMPERATURE),
                )
                .map_err(|e| e.to_string())?,
        );
        let optimizer = Adam::new(stmts[TRAIN].parameters(), LEARNING_RATE);
        let oracle_session = runner::oracle_session(engine);
        let oracle = SQL[..TRAIN]
            .iter()
            .map(|sql| oracle_session.prepare(sql).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut driver = Ai {
            data: &data,
            session: &session,
            stmts,
            oracle,
            theta,
            optimizer,
            steps: 0,
            flat: None,
            watch,
        };
        let mut warm = datagen::schedule_rng(cfg.seed, 99);
        let mut off = Tracer::new(false);
        for class in ROUND {
            let params = driver.params(class, &mut warm);
            driver
                .exec(class, &params, &mut off, At::PROBE)
                .map_err(|e| format!("warm-up of {}: {e}", CLASSES[class]))?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < cfg.setup_reps() {
            continue;
        }

        report.engine_threads = session.threads();
        if cfg.trace {
            let emb = data
                .vecs
                .column("emb")
                .expect("generated")
                .data
                .decode_f32();
            driver.flat = Some(FlatIndex::build(emb, Metric::L2));
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
                loaded.registered_rows as f64 / loaded.register_s,
                "rows/s",
            );
            report.push("index.ivf_build_s", loaded.ivf_build_s, "s");
            let flat = driver.flat.as_ref().expect("built above");
            let recalls: Vec<f64> = data
                .probes
                .iter()
                .map(|p| {
                    let approx = session
                        .vector_topk("vecs", "emb", p, TOP_K, IVF_NPROBE)
                        .map_err(|e| e.to_string())?;
                    Ok(recall_at_k(&flat.search(p, TOP_K), &approx))
                })
                .collect::<Result<_, String>>()?;
            report.push_sampled(
                "index.recall_at_10",
                recalls.iter().sum::<f64>() / recalls.len() as f64,
                "ratio",
                recalls.len(),
            );
            let mut shares = layers::ProfileShares::default();
            let mut rng = datagen::schedule_rng(cfg.seed, 98);
            for class in 0..TRAIN {
                let params = driver.params(class, &mut rng);
                shares.profile(&driver.stmts[class], driver.bind_values(class, &params))?;
            }
            shares.report(&mut report);
            layers::tdpf_probe(&mut report, &mut tr, &data.vecs)?;
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

        let learned = driver.theta.value().at(0);
        let error = (learned - TRUE_CUTOFF).abs();
        let converged = if driver.steps >= STEPS_TO_CONVERGE {
            error < 0.05
        } else {
            error < (THETA_START - TRUE_CUTOFF).abs()
        };
        report.push_sampled(
            "ai.theta_error",
            f64::from(error),
            "abs",
            driver.steps as usize,
        );
        if !converged {
            report.fail_invariant(format!(
                "after {} steps θ = {learned}, {error} away from the true cutoff {TRUE_CUTOFF}",
                driver.steps
            ));
        }
    }
    runner::finish_trace(cfg, &mut report, &tr)?;
    Ok(report)
}
