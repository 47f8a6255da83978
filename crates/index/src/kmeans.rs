//! Lloyd's k-means over tensor rows — the coarse quantizer of IVF.
//!
//! ## Bounded assignment
//!
//! Most rows keep their cell from one Lloyd iteration to the next, and
//! most of those can be shown to keep it without measuring them against
//! every centre. The assignment step follows Hamerly ("Making k-means even
//! faster", SDM 2010). Each row carries two f64 bounds on *true* Euclidean
//! distances — the exact distance between the f32 vectors as real
//! numbers:
//!
//! * `upper ≥ D(x, c_a)`, the distance to its own centre `a`;
//! * `lower ≤ min_{c≠a} D(x, c)`, the distance to every other centre.
//!
//! Each centre `c` keeps `gap[c] ≤ min_{c'≠c} D(c, c')`, recomputed per
//! iteration. When the centres move, the triangle inequality widens the
//! bounds: `upper` grows by the own centre's movement and `lower` shrinks
//! by the largest movement of any other centre. Since `D(x, c) ≥ gap[a] −
//! D(x, c_a)` too, every other centre is at least `z = max(lower, gap[a] −
//! upper)` away. A row whose bounds prove that its own centre still wins
//! skips its `k` distance evaluations. Otherwise it re-measures its own
//! centre and tries again, and only then runs the full scan — the plain
//! loop's rule (f32 [`sq_dist`], strict `<`, ties to the lowest id), which
//! also yields the second-nearest distance for the new `lower`.
//!
//! ## Why the result is bitwise the plain loop's
//!
//! The plain loop compares computed f32 squared distances `S̃`, not true
//! ones, so every bound carries a margin that covers the rounding of both.
//!
//! * **f32 distances.** `sq_dist` over `d` elements rounds each
//!   difference, each square, and at most `d − 1` additions on any
//!   term's way into the total (adding to an exact zero is exact), all
//!   of non-negative terms, in whatever order. So `S̃ = S(1 ± ε) ± η`
//!   with `ε = γ(d + 8)` (`γ(m) = m·2⁻²⁴ / (1 − m·2⁻²⁴)`; `d + 1`
//!   suffices) and `η = d·2⁻¹⁴⁹` for squares that underflow. Taking roots,
//!   `D(1 − ε) − t ≤ √S̃ ≤ D(1 + ε) + t` with `t = √η`. A sum that
//!   overflows to `+∞` still says `D(1 + ε) + t ≥ √f32::MAX`, so a lower
//!   bound clamps it there.
//! * **Measured to bound.** A measured own distance becomes `upper =
//!   (√S̃ + t)/(1 − ε)`; the second-nearest, `lower = (√S̃₂ − t)/(1 + ε)`,
//!   bounds every other centre because each of their `S̃` is at least
//!   `S̃₂`. Centre movements and centre-to-centre gaps go through the same
//!   two conversions.
//! * **f64 arithmetic.** Every bound operation is one or a few correctly
//!   rounded f64 steps (relative error `2⁻⁵³` each) and is then scaled by
//!   `1 ± 2⁻⁴⁰` in the safe direction, so each stored bound is rigorous
//!   given the previous one. A negative `lower` is trivially valid. The
//!   margin is therefore paid per operation. A `lower` decayed over many
//!   iterations carries `ε` times every movement subtracted since its
//!   last scan, not `ε` times its current value.
//! * **The skip test.** A row skips when `upper(1 + ε) + 2t < z(1 − ε)`,
//!   with one more `2⁻⁴⁰` of slack for evaluating that inequality. Then
//!   for every `c ≠ a`, `√S̃_a ≤ D_a(1 + ε) + t < D_c(1 − ε) − t ≤ √S̃_c`.
//!   The own centre is *strictly* nearest in the computed distances, so no
//!   tie can arise and the full scan would have returned `a`.
//!
//! NaN and `±∞` take no special path. A centre holding a non-finite
//! value makes an iteration rescan every row, until the centres the
//! bounds were measured against and the current ones are all finite
//! again. A row whose own distance is NaN or `+∞` has an `upper` of NaN
//! or `+∞`, which no skip test passes. An assignment can therefore only
//! change in a full scan, which computes exactly what the plain loop's
//! scan computes. The centroid update, the iteration count and the
//! inertia are the plain loop's code, so they follow bit for bit.
//!
//! ## Seeding hand-off
//!
//! k-means++ seeding measures every row against every seed, in id order,
//! with the same `sq_dist` and the same strict-`<` rule. It records each
//! row's nearest and second-nearest seed on the way. Lloyd's first
//! iteration takes that assignment and those bounds, so it runs no
//! assignment pass of its own.

use tdp_tensor::linalg::sq_dist;
use tdp_tensor::{F32Tensor, Rng64, Tensor};

use crate::metric::normalize_rows;
use crate::Metric;

/// Output of [`kmeans`]: centroids plus the final assignment.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// `[k, d]` centroid matrix.
    pub centroids: F32Tensor,
    /// Cluster id per input row, `[n]`.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of rows to their centroid (inertia) at
    /// convergence — useful for picking `nlist`.
    pub inertia: f64,
    /// Iterations actually run (≤ `max_iters`; stops early on a fixed
    /// point).
    pub iterations: usize,
    /// Rows that needed a full scan over every centre, summed over the
    /// assignment steps. The first iteration's assignment comes from the
    /// seeding pass and is not counted. The plain loop's count would be
    /// `n × iterations`; the gap is the work the bounds saved.
    pub rescans: usize,
}

/// Lloyd's algorithm with k-means++-style seeding (first centroid uniform,
/// subsequent centroids sampled proportionally to squared distance).
///
/// `metric` only affects preprocessing: for [`Metric::Cosine`] the rows are
/// L2-normalised first (spherical k-means); clustering itself is Euclidean,
/// which is the standard IVF construction.
///
/// Distances — seeding, assignment and inertia — are f32, through the
/// `tdp_tensor::linalg::sq_dist` row kernel (the one `Metric::L2` scores
/// with); a row goes to its nearest centroid, ties to the lowest id. The
/// centroid update and the seeding weights and inertia totals are summed
/// in f64.
///
/// The assignment step skips every row whose distance bounds prove it
/// keeps its cell (see the module docs). Centroids, assignments, inertia
/// and iterations are bitwise those of the plain loop that measures every
/// row against every centre; only [`KMeansResult::rescans`] shows the
/// difference.
pub fn kmeans(
    data: &F32Tensor,
    k: usize,
    max_iters: usize,
    metric: Metric,
    rng: &mut Rng64,
) -> KMeansResult {
    assert_eq!(data.ndim(), 2, "kmeans expects [n, d] data");
    let n = data.shape()[0];
    let d = data.shape()[1];
    assert!(k >= 1, "k must be at least 1");
    assert!(n >= k, "cannot build {k} clusters from {n} rows");

    let work = if metric.wants_normalized() {
        normalize_rows(data)
    } else {
        data.clone()
    };
    let rows = work.data();
    let row = |i: usize| &rows[i * d..(i + 1) * d];
    let margin = Margin::new(d);

    let (mut centroids, seeded) = seed(rows, n, d, k, rng);
    let mut assignments: Vec<usize> = seeded.iter().map(|s| s.best).collect();
    let mut upper: Vec<f64> = seeded.iter().map(|s| margin.upper(s.best_d)).collect();
    let mut lower: Vec<f64> = seeded.iter().map(|s| margin.lower(s.second_d)).collect();
    drop(seeded);

    let mut previous = centroids.clone();
    let mut moved = vec![0.0f64; k];
    let mut gap = vec![0.0f64; k];
    let mut iterations = 0;
    let mut rescans = 0;
    for it in 0..max_iters.max(1) {
        iterations = it + 1;
        if it > 0 {
            // The bounds were measured against `previous`.
            let prune = all_finite(&previous) && all_finite(&centroids);
            let cent = |c: usize| &centroids[c * d..(c + 1) * d];
            // Largest and second-largest movement: a row's other centres
            // moved by at most the largest, unless its own centre did.
            let (mut far, mut most, mut next) = (0usize, 0.0f64, 0.0f64);
            if prune {
                for (c, m) in moved.iter_mut().enumerate() {
                    *m = margin.upper(sq_dist(&previous[c * d..(c + 1) * d], cent(c)));
                    if *m > most {
                        (far, most, next) = (c, *m, most);
                    } else if *m > next {
                        next = *m;
                    }
                }
                gap.fill(f64::INFINITY);
                for a in 0..k {
                    for b in a + 1..k {
                        let g = margin.lower(sq_dist(cent(a), cent(b)));
                        gap[a] = gap[a].min(g);
                        gap[b] = gap[b].min(g);
                    }
                }
            }
            let mut changed = false;
            for (i, slot) in assignments.iter_mut().enumerate() {
                let (a, x) = (*slot, row(i));
                let mut l = lower[i];
                // Whether bounds `own ≤ u`, `others ≥ l` prove `a` still wins.
                let keeps = |u: f64, l: f64| margin.proves(u, l.max((gap[a] - u) * DOWN));
                if prune {
                    let u = (upper[i] + moved[a]) * UP;
                    l = (l - if a == far { next } else { most }) * DOWN;
                    if keeps(u, l) {
                        (upper[i], lower[i]) = (u, l);
                        continue;
                    }
                }
                let own = sq_dist(x, cent(a));
                if prune {
                    let u = margin.upper(own);
                    if keeps(u, l) {
                        (upper[i], lower[i]) = (u, l);
                        continue;
                    }
                }
                rescans += 1;
                let near = scan(x, &centroids, d, a, own);
                changed |= near.best != a;
                *slot = near.best;
                upper[i] = margin.upper(near.best_d);
                lower[i] = margin.lower(near.second_d);
            }
            if !changed {
                break;
            }
        }
        previous.copy_from_slice(&centroids);
        update(rows, d, k, &assignments, &mut centroids);
    }

    KMeansResult {
        inertia: inertia(rows, d, &assignments, &centroids),
        centroids: Tensor::from_vec(centroids, &[k, d]),
        assignments,
        iterations,
        rescans,
    }
}

/// A row's nearest centre so far, and the distance to the nearest of the
/// others. Offered centres in id order, it applies the plain rule: a
/// strictly smaller f32 distance wins, so ties go to the lowest id and a
/// NaN never wins.
#[derive(Debug, Clone, Copy)]
struct Nearest {
    best: usize,
    best_d: f32,
    second_d: f32,
}

impl Nearest {
    const NONE: Nearest = Nearest {
        best: 0,
        best_d: f32::INFINITY,
        second_d: f32::INFINITY,
    };

    #[inline(always)]
    fn offer(&mut self, c: usize, dist: f32) {
        // Four selects, each one `maxss` / `minss` / `cmov`: a branch here
        // mispredicts on every new best.
        let runner_up = if self.best_d > dist {
            self.best_d
        } else {
            dist
        };
        self.second_d = if runner_up < self.second_d {
            runner_up
        } else {
            self.second_d
        };
        self.best = if dist < self.best_d { c } else { self.best };
        self.best_d = if dist < self.best_d {
            dist
        } else {
            self.best_d
        };
    }
}

/// The full scan: `x` against every centre in id order, reusing the
/// just-measured distance `own_d` to centre `own`.
fn scan(x: &[f32], centroids: &[f32], d: usize, own: usize, own_d: f32) -> Nearest {
    let mut near = Nearest::NONE;
    for (c, cent) in centroids.chunks_exact(d.max(1)).enumerate() {
        near.offer(c, if c == own { own_d } else { scan_dist(x, cent) });
    }
    near
}

/// [`sq_dist`] kept out of line for [`scan`]. Inlined into that loop, the
/// kernel was vectorised two lanes wide on x86-64 and the scan ran about
/// 1.5× the plain loop's time per distance; out of line it gets the
/// kernel's own code at every call.
#[inline(never)]
fn scan_dist(x: &[f32], cent: &[f32]) -> f32 {
    sq_dist(x, cent)
}

/// k-means++ seeding: the `[k, d]` seeds, and each row's nearest and
/// second-nearest seed from the distances the seeding measured anyway
/// (plus one pass against the last seed, which picking never needs).
fn seed(rows: &[f32], n: usize, d: usize, k: usize, rng: &mut Rng64) -> (Vec<f32>, Vec<Nearest>) {
    let row = |i: usize| &rows[i * d..(i + 1) * d];
    let mut near = vec![Nearest::NONE; n];
    let mut centroids: Vec<f32> = Vec::with_capacity(k * d);
    let first = rng.below(n);
    centroids.extend_from_slice(row(first));
    let mut min_d2 = vec![f64::INFINITY; n];
    for c in 1..k {
        // Update min distance to the newest centroid.
        let newest = &centroids[(c - 1) * d..c * d];
        for (i, (md, nr)) in min_d2.iter_mut().zip(&mut near).enumerate() {
            let dist = sq_dist(row(i), newest);
            *md = md.min(f64::from(dist));
            nr.offer(c - 1, dist);
        }
        let total: f64 = min_d2.iter().sum();
        let pick = if total <= 0.0 {
            rng.below(n)
        } else {
            let mut target = rng.uniform() * total;
            let mut chosen = n - 1;
            for (i, &w) in min_d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.extend_from_slice(row(pick));
    }
    let last = &centroids[(k - 1) * d..];
    for (i, nr) in near.iter_mut().enumerate() {
        nr.offer(k - 1, sq_dist(row(i), last));
    }
    (centroids, near)
}

/// The centroid update: each centre becomes the f64 mean of its rows,
/// rounded to f32. Empty clusters keep their previous centroid.
fn update(rows: &[f32], d: usize, k: usize, assignments: &[usize], centroids: &mut [f32]) {
    let mut sums = vec![0.0f64; k * d];
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        counts[c] += 1;
        for j in 0..d {
            sums[c * d + j] += rows[i * d + j] as f64;
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            for j in 0..d {
                centroids[c * d + j] = (sums[c * d + j] / counts[c] as f64) as f32;
            }
        }
    }
}

/// `Σ sq_dist(row, its centroid)`, summed in f64 in row order.
fn inertia(rows: &[f32], d: usize, assignments: &[usize], centroids: &[f32]) -> f64 {
    assignments
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            f64::from(sq_dist(
                &rows[i * d..(i + 1) * d],
                &centroids[c * d..(c + 1) * d],
            ))
        })
        .sum()
}

fn all_finite(v: &[f32]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Relative slack that rounds one f64 bound operation the safe way.
const RHO: f64 = 1.0 / (1u64 << 40) as f64;
/// Scale an upper bound by this after an f64 step.
const UP: f64 = 1.0 + RHO;
/// Scale a lower bound by this after an f64 step.
const DOWN: f64 = 1.0 - RHO;

/// The rounding margin between true distances and `sq_dist`'s f32 ones
/// at dimension `d` (the module docs derive it).
#[derive(Debug, Clone, Copy)]
struct Margin {
    /// `ε`: relative error of `√S̃`, capped at 1 (which disables skipping).
    eps: f64,
    /// `t`: absolute error of `√S̃` from underflowing squares.
    tiny: f64,
}

impl Margin {
    fn new(d: usize) -> Margin {
        let m = (d as f64 + 8.0) * f64::powi(2.0, -24);
        Margin {
            eps: if m < 0.5 { m / (1.0 - m) } else { 1.0 },
            tiny: (d as f64 + 8.0).sqrt() * f64::powi(2.0, -70),
        }
    }

    /// An upper bound on the true distance behind the computed `d2`
    /// (`+∞` or NaN when `d2` is).
    fn upper(self, d2: f32) -> f64 {
        (f64::from(d2).sqrt() + self.tiny) / (1.0 - self.eps) * UP
    }

    /// A lower bound on the true distance behind the computed `d2`. An
    /// overflowed `+∞` stands for at least `f32::MAX`; NaN stays NaN.
    fn lower(self, d2: f32) -> f64 {
        let d2 = if d2 > f32::MAX { f32::MAX } else { d2 };
        (f64::from(d2).sqrt() - self.tiny) / (1.0 + self.eps) * DOWN
    }

    /// Whether true distances `own ≤ u` and `other ≥ z` prove that the
    /// computed `sq_dist` to the own centre is strictly below the other's.
    fn proves(self, u: f64, z: f64) -> bool {
        let other = (1.0 - self.eps - RHO).max(0.0);
        u * (1.0 + self.eps + RHO) + 2.0 * self.tiny * UP < z * other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain Lloyd loop: every row against every centre, every
    /// iteration. The oracle [`kmeans`] must match bit for bit.
    fn plain_kmeans(
        data: &F32Tensor,
        k: usize,
        max_iters: usize,
        metric: Metric,
        rng: &mut Rng64,
    ) -> KMeansResult {
        let (n, d) = (data.shape()[0], data.shape()[1]);
        let work = if metric.wants_normalized() {
            normalize_rows(data)
        } else {
            data.clone()
        };
        let rows = work.data();
        let (mut centroids, _) = seed(rows, n, d, k, rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;
        for it in 0..max_iters.max(1) {
            iterations = it + 1;
            let mut changed = false;
            for (i, slot) in assignments.iter_mut().enumerate() {
                let x = &rows[i * d..(i + 1) * d];
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let dist = sq_dist(x, &centroids[c * d..(c + 1) * d]);
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            if !changed && it > 0 {
                break;
            }
            update(rows, d, k, &assignments, &mut centroids);
        }
        KMeansResult {
            inertia: inertia(rows, d, &assignments, &centroids),
            centroids: Tensor::from_vec(centroids, &[k, d]),
            assignments,
            iterations,
            rescans: n * iterations,
        }
    }

    /// Run both loops from the same seed and require identical output:
    /// centroid bits, assignments, inertia bits and iteration count.
    fn matches_plain(
        case: &str,
        data: &F32Tensor,
        k: usize,
        iters: usize,
        metric: Metric,
    ) -> KMeansResult {
        let got = kmeans(data, k, iters, metric, &mut Rng64::new(0x5eed));
        let want = plain_kmeans(data, k, iters, metric, &mut Rng64::new(0x5eed));
        let bits = |t: &F32Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.centroids),
            bits(&want.centroids),
            "{case}: centroids"
        );
        assert_eq!(got.assignments, want.assignments, "{case}: assignments");
        assert_eq!(
            got.inertia.to_bits(),
            want.inertia.to_bits(),
            "{case}: inertia"
        );
        assert_eq!(got.iterations, want.iterations, "{case}: iterations");
        got
    }

    /// `clusters` Gaussian blobs in `d` dimensions, rows round-robin:
    /// centres drawn at σ = 3, rows at σ = 0.7 around them — the shape of
    /// the vector tables the ANN benchmarks index.
    fn mixture(n: usize, d: usize, clusters: usize, seed: u64) -> F32Tensor {
        let mut r = Rng64::new(seed);
        let centres: Vec<f32> = (0..clusters * d).map(|_| r.normal() as f32 * 3.0).collect();
        let v = (0..n * d)
            .map(|e| centres[(e / d % clusters) * d + e % d] + r.normal() as f32 * 0.7)
            .collect();
        Tensor::from_vec(v, &[n, d])
    }

    fn randn(n: usize, d: usize, seed: u64) -> F32Tensor {
        F32Tensor::randn(&[n, d], 0.0, 1.0, &mut Rng64::new(seed))
    }

    #[test]
    fn bounded_loop_matches_plain_loop() {
        // (case, data, k, max_iters, metric)
        let mut grid = Vec::new();
        for x in -2..=2 {
            for y in -2..=2 {
                grid.extend([x as f32, y as f32]);
            }
        }
        // Two blobs mirrored about x = 0, and rows on that bisector.
        let mut bisector = Vec::new();
        for i in 0..12 {
            let y = (i % 4) as f32 - 1.5;
            bisector.extend([[-2.0, y], [2.0, y], [0.0, y]][i % 3]);
        }
        let dup: Vec<f32> = randn(40, 5, 9)
            .data()
            .chunks(5)
            .flat_map(|r| r.iter().chain(r).chain(r).copied())
            .collect();
        let mut odd = randn(60, 4, 10).to_vec();
        odd[7] = f32::NAN;
        odd[4 * 13 + 2] = f32::INFINITY;
        odd[4 * 31] = f32::NEG_INFINITY;
        odd[4 * 44 + 3] = f32::NAN;
        let cases: Vec<(&str, F32Tensor, usize, usize, Metric)> = vec![
            ("randn", randn(400, 8, 1), 8, 30, Metric::L2),
            ("d = 1", randn(200, 1, 2), 5, 30, Metric::L2),
            ("mixture", mixture(1024, 32, 32, 0x5eed), 32, 20, Metric::L2),
            ("d = 19", mixture(300, 19, 6, 3), 6, 30, Metric::L2),
            ("d = 67", randn(150, 67, 4), 4, 30, Metric::L2),
            ("k = 1", randn(50, 3, 5), 1, 10, Metric::L2),
            ("k = n", randn(12, 3, 6), 12, 10, Metric::L2),
            (
                "all equal",
                F32Tensor::full(&[30, 3], 2.0),
                4,
                10,
                Metric::L2,
            ),
            (
                "grid ties",
                Tensor::from_vec(grid, &[25, 2]),
                4,
                20,
                Metric::L2,
            ),
            (
                "bisector",
                Tensor::from_vec(bisector, &[12, 2]),
                2,
                20,
                Metric::L2,
            ),
            (
                "duplicates",
                Tensor::from_vec(dup, &[120, 5]),
                6,
                30,
                Metric::L2,
            ),
            (
                "NaN and ±inf",
                Tensor::from_vec(odd, &[60, 4]),
                5,
                20,
                Metric::L2,
            ),
            ("cosine", mixture(300, 16, 8, 7), 8, 30, Metric::Cosine),
            ("max_iters = 1", mixture(300, 16, 8, 8), 8, 1, Metric::L2),
        ];
        for (case, data, k, iters, metric) in cases {
            matches_plain(case, &data, k, iters, metric);
        }
    }

    /// A lead of one f32 ulp is rounding, not distance. Row `x` is owned
    /// by centre 1, whose `sq_dist` rounds down to 2²⁴ while centre 0's
    /// rounds up one ulp. Centre 1 then moves by 10⁻⁶ and its `sq_dist`
    /// rounds up too: a tie, which goes to centre 0. Bounds taken at face
    /// value would keep `x` in cell 1; the margin must refuse.
    #[test]
    fn margin_refuses_a_one_ulp_lead() {
        let x = [0.0f32, 4096.0];
        let a = [-(1.1f32.sqrt()), 0.0];
        let (b, b_moved) = ([0.9999995f32, 0.0], [1.0000005f32, 0.0]);
        let (da, db) = (sq_dist(&x, &a), sq_dist(&x, &b));
        assert_eq!((db, da), (16_777_216.0, 16_777_218.0));
        assert_eq!(sq_dist(&x, &b_moved), da, "the move ties the two centres");

        let root = |v: f32| f64::from(v).sqrt();
        let step = root(sq_dist(&b, &b_moved));
        assert!(root(db) + step < root(da), "face-value bounds would skip");
        let m = Margin::new(2);
        let u = (m.upper(db) + m.upper(sq_dist(&b, &b_moved))) * UP;
        let l = (m.lower(da) - m.upper(0.0)) * DOWN;
        assert!(!m.proves(u, l));
        // A lead of many ulps is distance, and the margin lets it through.
        assert!(m.proves(m.upper(db), m.lower(da * 1.01)));
    }

    /// Bounds that silently stopped proving anything would still pass the
    /// oracle; the rescan count catches them.
    #[test]
    fn bounds_skip_most_rows_of_a_clustered_table() {
        let r = kmeans(
            &mixture(4096, 64, 32, 0x5eed),
            32,
            20,
            Metric::L2,
            &mut Rng64::new(0x5eed),
        );
        let work = 4096 * r.iterations;
        assert!(
            r.rescans * 4 < work,
            "{} full scans of {work} row-iterations",
            r.rescans
        );
    }

    /// The bitwise contract at the ANN benchmark's shape. Slow in a debug
    /// build: run with `cargo test --release -p tdp_index -- --ignored`.
    #[test]
    #[ignore]
    fn bounded_loop_matches_plain_loop_at_bench_scale() {
        let data = mixture(40_000, 64, 32, 0x5eed);
        let r = matches_plain("mixture", &data, 32, 20, Metric::L2);
        assert!(
            r.rescans * 4 < 40_000 * r.iterations,
            "rescans {}",
            r.rescans
        );
        matches_plain("randn", &randn(40_000, 64, 0x5eed), 32, 20, Metric::L2);
    }

    /// Two well-separated blobs around (0,0) and (10,10).
    fn blobs(rng: &mut Rng64) -> F32Tensor {
        let mut v = Vec::new();
        for i in 0..40 {
            let cx = if i < 20 { 0.0 } else { 10.0 };
            v.push((cx + rng.normal() * 0.3) as f32);
            v.push((cx + rng.normal() * 0.3) as f32);
        }
        Tensor::from_vec(v, &[40, 2])
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = Rng64::new(3);
        let data = blobs(&mut rng);
        let r = kmeans(&data, 2, 20, Metric::L2, &mut rng);
        assert_eq!(r.centroids.shape(), &[2, 2]);
        // All first-blob points share a cluster; all second-blob points the other.
        let first = r.assignments[0];
        assert!(r.assignments[..20].iter().all(|&a| a == first));
        assert!(r.assignments[20..].iter().all(|&a| a != first));
        // Centroids land near the blob centers.
        let c = r.centroids.data();
        let near_zero = c.chunks(2).any(|p| p[0].abs() < 1.0 && p[1].abs() < 1.0);
        let near_ten = c.chunks(2).any(|p| (p[0] - 10.0).abs() < 1.0);
        assert!(near_zero && near_ten, "centroids {c:?}");
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = Rng64::new(11);
        let data = F32Tensor::randn(&[100, 4], 0.0, 1.0, &mut rng);
        let r2 = kmeans(&data, 2, 25, Metric::L2, &mut rng.fork());
        let r8 = kmeans(&data, 8, 25, Metric::L2, &mut rng.fork());
        assert!(r8.inertia < r2.inertia);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let mut rng = Rng64::new(5);
        let data = F32Tensor::randn(&[6, 3], 0.0, 1.0, &mut rng);
        let r = kmeans(&data, 6, 30, Metric::L2, &mut rng);
        assert!(r.inertia < 1e-6, "inertia {}", r.inertia);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut r1 = Rng64::new(42);
        let mut r2 = Rng64::new(42);
        let data = F32Tensor::randn(&[50, 3], 0.0, 1.0, &mut Rng64::new(1));
        let a = kmeans(&data, 4, 15, Metric::L2, &mut r1);
        let b = kmeans(&data, 4, 15, Metric::L2, &mut r2);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.to_vec(), b.centroids.to_vec());
    }

    #[test]
    fn converged_rows_sit_in_their_nearest_cell() {
        let mut rng = Rng64::new(8);
        let data = F32Tensor::randn(&[300, 19], 0.0, 1.0, &mut rng);
        let r = kmeans(&data, 6, 200, Metric::L2, &mut rng);
        assert!(r.iterations < 200, "did not converge");
        let (rows, cents) = (data.data(), r.centroids.data());
        for (i, &a) in r.assignments.iter().enumerate() {
            let row = &rows[i * 19..(i + 1) * 19];
            let dists: Vec<f32> = cents.chunks(19).map(|c| sq_dist(row, c)).collect();
            let best = (0..6).fold(0, |b, c| if dists[c] < dists[b] { c } else { b });
            assert_eq!(a, best, "row {i}: {dists:?}");
        }
        let inertia: f64 = r
            .assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                f64::from(sq_dist(
                    &rows[i * 19..(i + 1) * 19],
                    &cents[c * 19..(c + 1) * 19],
                ))
            })
            .sum();
        assert_eq!(inertia, r.inertia);
    }

    #[test]
    fn ties_go_to_the_lowest_centroid() {
        let data = F32Tensor::full(&[5, 3], 2.0);
        let r = kmeans(&data, 3, 5, Metric::L2, &mut Rng64::new(1));
        assert_eq!(r.assignments, vec![0; 5]);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn more_clusters_than_rows_panics() {
        let data = F32Tensor::zeros(&[2, 2]);
        kmeans(&data, 3, 5, Metric::L2, &mut Rng64::new(0));
    }
}
