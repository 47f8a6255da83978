//! What the four workloads share: the op loop, sampling and checking
//! against the oracle, and turning latencies, counters and spans into
//! named metrics.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tdp_core::encoding::EncodingKind;
use tdp_core::storage::Table;
use tdp_core::tensor::Rng64;
use tdp_core::{Session, TdpEngine};

use crate::layers::{span_metrics, Counters};
use crate::stats;
use crate::trace::{At, Kind, Tracer};

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Rounds of the plain and of the traced pass of a `--trace 1` run. A
/// fixed count, so counters repeat exactly for a seed.
pub const TRACE_ROUNDS: u64 = 30;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// About 1/50 of the rows and a fraction of a second per workload:
    /// every code path, no meaningful numbers.
    pub smoke: bool,
    /// Test hook: corrupt the first expected result, which must surface
    /// as a failed op and a non-zero exit.
    pub plant_wrong: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

impl Config {
    /// Row count at this scale, never below `floor`.
    pub fn rows(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor)
        } else {
            full
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.trace || self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    pub fn trace_rounds(&self) -> u64 {
        if self.smoke {
            4
        } else {
            TRACE_ROUNDS
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// False when an invariant beyond per-op results broke (θ did not
    /// converge, a row count is off).
    pub invariants_hold: bool,
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    pub trace_path: Option<PathBuf>,
    pub engine_threads: usize,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            invariants_hold: true,
            ..Report::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invariants_hold
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn push_sampled(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        });
    }

    pub fn fail_invariant(&mut self, why: String) {
        self.invariants_hold = false;
        self.first_failure.get_or_insert(why);
    }

    /// Count a loop's ops and keep its first failure.
    pub fn absorb<P>(&mut self, l: &LoopOutcome<P>) {
        self.attempted += l.attempted;
        self.failed += l.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&l.first_failure);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One client of a workload: makes an op's inputs from the seeded
/// stream, runs it against the program, and can say what the sequential
/// oracle answers for the same inputs.
pub trait Driver {
    type Params;
    type Output;

    /// Class indices of one round, in issue order.
    fn round(&self) -> &[usize];

    fn params(&mut self, class: usize, rng: &mut Rng64) -> Self::Params;

    /// Run one op. Calls into the program are recorded as spans `at`
    /// the already-open op span.
    fn exec(
        &mut self,
        class: usize,
        params: &Self::Params,
        tr: &mut Tracer,
        at: At,
    ) -> Result<Self::Output, String>;

    /// Traced pass only, after the op span closed: repeat on the side,
    /// as `Replica` spans, whatever the op reaches only through another
    /// call.
    fn replicas(
        &mut self,
        _class: usize,
        _params: &Self::Params,
        _tr: &mut Tracer,
        _at: At,
    ) -> Result<(), String> {
        Ok(())
    }

    fn digest(&self, out: &Self::Output) -> u64;

    /// The oracle's digest for the same inputs against the current
    /// state of the data.
    fn expect(&mut self, class: usize, params: &Self::Params) -> Result<u64, String>;

    /// Called before the first round of every pass.
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Called after every round; its time is measured wall time of no
    /// op (ingest resets its table here once per cycle).
    fn end_round(&mut self, _round: u64) -> Result<(), String> {
        Ok(())
    }
}

pub enum Stop {
    /// Until the summed op latency reaches this many seconds.
    Busy(f64),
    /// Until this instant (clients of one server share a deadline).
    Deadline(Instant),
    Rounds(u64),
}

pub enum Verify {
    /// Ask the oracle right after a sampled op, outside its latency and
    /// outside the CPU account — needed when ops change the data.
    Now,
    /// Keep `(class, params, digest)` for the caller to check once the
    /// loop is over (the oracle session cannot cross threads).
    Later,
}

/// One successful op of a loop. Twelve bytes: the TCP workload keeps
/// half a million of them, and the runner's own memory must stay small
/// beside the program's in `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub round: u32,
    pub latency_ms: f32,
    pub class: u8,
}

/// Op samples in fixed-size chunks. The TCP workload keeps half a
/// million: in one `Vec` every doubling would copy them, and the
/// runner's own peak memory would jump by megabytes with the op count;
/// chunks grow evenly and never copy.
#[derive(Default)]
pub struct Samples {
    chunks: Vec<Vec<OpSample>>,
}

impl Samples {
    const CHUNK: usize = 1 << 14;

    fn push(&mut self, sample: OpSample) {
        if self.chunks.last().is_none_or(|c| c.len() == Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("a chunk was just ensured")
            .push(sample);
    }

    pub fn iter(&self) -> impl Iterator<Item = &OpSample> {
        self.chunks.iter().flatten()
    }

    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

pub struct LoopOutcome<P> {
    /// Successful ops in issue order.
    pub ops: Samples,
    /// Per round: summed op latency plus the time `end_round` took.
    pub round_busy_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// CPU seconds spent checking, to be taken off the process total.
    pub excluded_cpu_s: f64,
    pub deferred: Vec<(usize, P, u64)>,
}

impl<P> LoopOutcome<P> {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Compare an op's digest with what the oracle made of the same
    /// inputs.
    fn judge(&mut self, what: &str, got: u64, want: Result<u64, String>) {
        match want {
            Ok(want) if want == got => {}
            Ok(_) => self.fail(format!("{what}: result differs from the oracle")),
            Err(e) => self.fail(format!("{what}: oracle failed: {e}")),
        }
    }
}

/// Rounds 0, 1, 3, 7, 15, … are checked: dense at the start, where a
/// wrong plan shows at once, and a logarithmic handful over any length
/// of run.
fn sampled(round: u64) -> bool {
    (round + 1).is_power_of_two()
}

pub fn run_loop<D: Driver>(
    driver: &mut D,
    class_names: &[&str],
    rng: &mut Rng64,
    tr: &mut Tracer,
    stop: Stop,
    verify: Verify,
    mut plant_wrong: bool,
) -> Result<LoopOutcome<D::Params>, String> {
    let mut out = LoopOutcome {
        ops: Samples::default(),
        round_busy_s: Vec::new(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        excluded_cpu_s: 0.0,
        deferred: Vec::new(),
    };
    let mut busy_s = 0.0;
    driver.begin_pass()?;
    let round_classes = driver.round().to_vec();
    let mut round = 0u64;
    let mut op_id = 0u64;
    loop {
        let done = match stop {
            Stop::Busy(s) => busy_s >= s,
            Stop::Deadline(t) => Instant::now() >= t,
            Stop::Rounds(n) => round >= n,
        };
        if done {
            break;
        }
        let mut round_busy_s = 0.0;
        for &class in &round_classes {
            let params = driver.params(class, rng);
            let (op, at) = tr.open_op(class_names[class], op_id);
            let start = Instant::now();
            let result = driver.exec(class, &params, tr, at);
            let latency = start.elapsed().as_secs_f64();
            tr.close(op);
            out.attempted += 1;
            round_busy_s += latency;
            match result {
                Err(e) => out.fail(format!("{} op {op_id}: {e}", class_names[class])),
                Ok(output) => {
                    out.ops.push(OpSample {
                        round: round as u32,
                        latency_ms: (latency * 1e3) as f32,
                        class: class as u8,
                    });
                    if tr.enabled() {
                        driver.replicas(class, &params, tr, at.with_kind(Kind::Replica))?;
                    }
                    if sampled(round) {
                        let cpu = stats::process_cpu_seconds();
                        let mut got = driver.digest(&output);
                        if std::mem::take(&mut plant_wrong) {
                            got ^= 1;
                        }
                        match verify {
                            Verify::Later => out.deferred.push((class, params, got)),
                            Verify::Now => {
                                let want = driver.expect(class, &params);
                                out.judge(&format!("{} op {op_id}", class_names[class]), got, want);
                            }
                        }
                        out.excluded_cpu_s += stats::process_cpu_seconds() - cpu;
                    }
                }
            }
            op_id += 1;
        }
        let start = Instant::now();
        driver.end_round(round)?;
        round_busy_s += start.elapsed().as_secs_f64();
        out.round_busy_s.push(round_busy_s);
        busy_s += round_busy_s;
        round += 1;
    }
    Ok(out)
}

/// Check what [`Verify::Later`] kept.
pub fn check_deferred<D: Driver>(
    driver: &mut D,
    class_names: &[&str],
    out: &mut LoopOutcome<D::Params>,
) {
    for (class, params, got) in std::mem::take(&mut out.deferred) {
        let want = driver.expect(class, &params);
        out.judge(class_names[class], got, want);
    }
}

/// Everything a timed run measured besides its loops.
pub struct TimedRun {
    pub setup_s: Vec<f64>,
    /// Process CPU seconds over the measured window, checking excluded.
    pub cpu_s: f64,
}

/// Equal parts a timed run is cut into. Throughput and the latency
/// percentiles are computed per part and reported as the median over
/// the parts: a burst of interference from outside the program lands in
/// one part's tail and not in the result.
pub const SEGMENTS: usize = 5;

/// Throughput, p50 and p95 of one segment, over every loop's share of it.
fn segment<P>(loops: &[LoopOutcome<P>], index: usize, segments: usize) -> (f64, f64, f64) {
    let mut latencies = Vec::new();
    let mut throughput = 0.0;
    for l in loops {
        let rounds = l.round_busy_s.len();
        let (from, to) = (index * rounds / segments, (index + 1) * rounds / segments);
        let busy_s: f64 = l.round_busy_s[from..to].iter().sum();
        let before = latencies.len();
        latencies.extend(
            l.ops
                .iter()
                .filter(|op| (from..to).contains(&(op.round as usize)))
                .map(|op| f64::from(op.latency_ms)),
        );
        // A closed loop with no think time: each driver completes ops
        // at ops ÷ (time it spent waiting for them); drivers add up.
        if busy_s > 0.0 {
            throughput += (latencies.len() - before) as f64 / busy_s;
        }
    }
    stats::sort(&mut latencies);
    (
        throughput,
        stats::percentile(&latencies, 50.0),
        stats::percentile(&latencies, 95.0),
    )
}

/// The end-to-end metrics of a timed run, plus what comes for free
/// with them (per-class medians, pooled percentiles, the failure share).
pub fn end_to_end<P>(
    report: &mut Report,
    class_names: &[&str],
    loops: &[LoopOutcome<P>],
    run: &TimedRun,
) -> Result<(), String> {
    for l in loops {
        report.absorb(l);
    }
    let ok_ops: usize = loops.iter().map(|l| l.ops.len()).sum();
    if ok_ops == 0 {
        return Err(format!(
            "no op of {} succeeded: {}",
            report.workload,
            report.first_failure.as_deref().unwrap_or("nothing ran")
        ));
    }
    let rounds = loops
        .iter()
        .map(|l| l.round_busy_s.len())
        .min()
        .unwrap_or(0);
    let segments = SEGMENTS.min(rounds).max(1);
    let parts: Vec<(f64, f64, f64)> = (0..segments).map(|i| segment(loops, i, segments)).collect();
    let median_of =
        |f: fn(&(f64, f64, f64)) -> f64| stats::median(&parts.iter().map(f).collect::<Vec<_>>());
    let per_part = ok_ops / segments;
    report.push("setup_s", stats::median(&run.setup_s), "s");
    report.push_sampled("throughput_ops_s", median_of(|p| p.0), "ops/s", per_part);
    report.push_sampled("lat_p50_ms", median_of(|p| p.1), "ms", per_part);
    report.push_sampled("lat_p95_ms", median_of(|p| p.2), "ms", per_part);
    report.push("cpu_ms_per_op", run.cpu_s * 1e3 / ok_ops as f64, "ms");
    report.push("peak_rss_mb", stats::peak_rss_mb()?, "MB");

    let mut all: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.ops.iter().map(|op| f64::from(op.latency_ms)))
        .collect();
    stats::sort(&mut all);
    let tail = stats::highest_supported_percentile(all.len()).unwrap_or(50.0);
    report.push_sampled(
        "lat_pooled_p50_ms",
        stats::percentile(&all, 50.0),
        "ms",
        all.len(),
    );
    report.push_sampled(
        "lat_pooled_p95_ms",
        stats::percentile(&all, 95.0),
        "ms",
        all.len(),
    );
    report.push_sampled(
        "lat_pooled_tail_ms",
        stats::percentile(&all, tail),
        "ms",
        all.len(),
    );
    report.push("lat_pooled_tail_percentile", tail, "percentile");
    report.push(
        "bench.fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    class_medians(report, class_names, loops);
    Ok(())
}

pub fn class_medians<P>(report: &mut Report, class_names: &[&str], loops: &[LoopOutcome<P>]) {
    for (c, name) in class_names.iter().enumerate() {
        let mut v: Vec<f64> = loops
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|op| op.class as usize == c)
            .map(|op| f64::from(op.latency_ms))
            .collect();
        stats::sort(&mut v);
        report.push_sampled(
            format!("class.{name}.p50_ms"),
            stats::percentile(&v, 50.0),
            "ms",
            v.len(),
        );
    }
}

/// The `--trace 0` run of a single-driver workload: ops until their
/// summed latency reaches `cfg.seconds`, sampled rounds checked against
/// the oracle on the spot, then the end-to-end metrics.
pub fn timed_run<D: Driver>(
    cfg: &Config,
    report: &mut Report,
    driver: &mut D,
    class_names: &[&str],
    session: &Session,
    setup_s: Vec<f64>,
) -> Result<(), String> {
    let engine = session.engine();
    let mut tr = Tracer::new(false);
    let mut rng = crate::datagen::schedule_rng(cfg.seed, 0);
    let before = Counters::read(engine, session);
    let cpu = stats::process_cpu_seconds();
    let out = run_loop(
        driver,
        class_names,
        &mut rng,
        &mut tr,
        Stop::Busy(cfg.seconds),
        Verify::Now,
        cfg.plant_wrong,
    )?;
    let cpu_s = stats::process_cpu_seconds() - cpu - out.excluded_cpu_s;
    Counters::read(engine, session).report_since(&before, report);
    end_to_end(report, class_names, &[out], &TimedRun { setup_s, cpu_s })
}

/// The `--trace 1` run of a single-driver workload: a plain pass of a
/// fixed number of rounds (class medians and counter deltas, which
/// repeat exactly for a seed), then the same rounds again with spans.
pub fn traced_run<D: Driver>(
    cfg: &Config,
    report: &mut Report,
    driver: &mut D,
    class_names: &[&str],
    session: &Session,
    tr: &mut Tracer,
    rounds: u64,
) -> Result<(), String> {
    let engine = session.engine();
    tr.set_enabled(false);
    let mut rng = crate::datagen::schedule_rng(cfg.seed, 0);
    let before = Counters::read(engine, session);
    let plain = run_loop(
        driver,
        class_names,
        &mut rng,
        tr,
        Stop::Rounds(rounds),
        Verify::Now,
        cfg.plant_wrong,
    )?;
    Counters::read(engine, session).report_since(&before, report);

    tr.set_enabled(true);
    let mut rng = crate::datagen::schedule_rng(cfg.seed, 0);
    let traced = run_loop(
        driver,
        class_names,
        &mut rng,
        tr,
        Stop::Rounds(rounds),
        Verify::Now,
        false,
    )?;
    tr.set_enabled(false);
    let plain_ops_s = plain
        .ops
        .iter()
        .map(|op| f64::from(op.latency_ms) / 1e3)
        .sum();
    span_metrics(report, tr, plain_ops_s);
    class_medians(report, class_names, std::slice::from_ref(&plain));
    report.absorb(&plain);
    report.absorb(&traced);
    report.push(
        "bench.fail_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Order- and encoding-sensitive digest of a result table: column
/// names, then every value's exact bits.
pub fn table_digest(table: &Table) -> u64 {
    let mut h = DefaultHasher::new();
    table.rows().hash(&mut h);
    for col in table.columns() {
        col.name.hash(&mut h);
        match col.kind() {
            EncodingKind::PlainF32 | EncodingKind::Probability => {
                for v in col.data.decode_f32().data() {
                    v.to_bits().hash(&mut h);
                }
            }
            EncodingKind::Dictionary => col.data.decode_strings().hash(&mut h),
            EncodingKind::PlainI64
            | EncodingKind::PlainBool
            | EncodingKind::RunLength
            | EncodingKind::BitPacked
            | EncodingKind::Delta => col.data.decode_i64().data().hash(&mut h),
        }
    }
    h.finish()
}

pub fn text_digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The sequential oracle: one thread, no compiled chain kernels, no
/// zone-map pruning — the configuration every other one must match
/// byte for byte.
pub fn oracle_session(engine: &Arc<TdpEngine>) -> Session {
    let s = engine.session();
    s.set_threads(1);
    s.set_chain_kernels(false);
    s.set_zone_maps(false);
    s
}

/// Write the Chrome trace of a `--trace 1` run.
pub fn finish_trace(cfg: &Config, report: &mut Report, tr: &Tracer) -> Result<(), String> {
    if !cfg.trace {
        return Ok(());
    }
    let path = cfg.trace_out.clone().unwrap_or_else(|| {
        scratch_dir().join(format!("trace_{}_seed{}.json", report.workload, cfg.seed))
    });
    tr.write_chrome_trace(&path)?;
    report.trace_path = Some(path);
    Ok(())
}

/// Where scratch files (TDPF probes, traces, result files) go: under
/// the cargo target directory, which `.gitignore` already names.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target.join("tdp_bench")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_dense_first_then_logarithmic() {
        let picked: Vec<u64> = (0..100).filter(|&r| sampled(r)).collect();
        assert_eq!(picked, [0, 1, 3, 7, 15, 31, 63]);
    }

    #[test]
    fn smoke_scale_divides_by_fifty_with_a_floor() {
        let mut cfg = Config {
            workload: "x".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: false,
            plant_wrong: false,
            out: None,
            trace_out: None,
        };
        assert_eq!(cfg.rows(1_000_000, 10), 1_000_000);
        assert_eq!(cfg.setup_reps(), SETUP_REPS);
        cfg.smoke = true;
        assert_eq!(cfg.rows(1_000_000, 10), 20_000);
        assert_eq!(cfg.rows(100, 10), 10);
        assert_eq!(cfg.setup_reps(), 1);
    }
}
