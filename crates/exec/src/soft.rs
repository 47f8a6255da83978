//! Soft (differentiable) relational operator kernels.
//!
//! These implement the paper's §4: continuous relaxations of discrete
//! operators. `soft_count` over a probability-encoded column is a column
//! sum; grouped counting over several PE columns is an iterated Khatri-Rao
//! (row-wise Kronecker) product followed by a column sum — additions and
//! multiplications only, hence exactly differentiable. Relaxed predicates
//! are logistic functions of the score margin, producing row *weights*
//! threaded through downstream aggregates instead of discarding rows.
//!
//! A relaxed `>`, `>=`, `<` or `<=` is **one tape node**
//! ([`soft_compare`]), not a chain of elementwise ones. Its forward is one
//! pass over both operands computing σ(((l − r) + −0.0)·(1/τ)), complemented
//! as σ·(−1) + 1 for `<` / `<=`; its backward is one pass that yields both
//! operand gradients. Each element takes the same operations in the same
//! order as the chain sub → add-scalar → mul-scalar → sigmoid (→ neg → add)
//! that it replaces, so weights and gradients keep their bits
//! (`tests::fused_comparison_has_the_bits_of_the_chain`).

use tdp_autodiff::{reduce_to_shape, Var};
use tdp_tensor::{broadcast_shapes, math, F32Tensor, Tensor};

/// Row-wise Kronecker (Khatri-Rao) product: `[N, A] ⊗ [N, B] -> [N, A*B]`,
/// with output column `a * B + b` holding `lhs[:, a] * rhs[:, b]`.
pub fn khatri_rao(lhs: &Var, rhs: &Var) -> Var {
    let (n, a) = (lhs.shape()[0], lhs.shape()[1]);
    let (n2, b) = (rhs.shape()[0], rhs.shape()[1]);
    assert_eq!(n, n2, "khatri_rao row mismatch: {n} vs {n2}");
    let l3 = lhs.reshape(&[n, a, 1]);
    let r3 = rhs.reshape(&[n, 1, b]);
    l3.mul(&r3).reshape(&[n, a * b])
}

/// Joint membership matrix of several PE columns: `[N, C1*C2*...*Ck]`,
/// groups ordered lexicographically by class index (first column most
/// significant). With one column this is the column itself.
pub fn joint_membership(pe_cols: &[&Var]) -> Var {
    assert!(!pe_cols.is_empty(), "joint membership of zero columns");
    let mut joint = pe_cols[0].clone();
    for col in &pe_cols[1..] {
        joint = khatri_rao(&joint, col);
    }
    joint
}

/// Expand class-value vectors into the cartesian key columns matching the
/// group order of [`joint_membership`]: returns one `[G]` tensor per input
/// column, `G = prod(len(values_i))`.
pub fn expand_group_keys(class_values: &[&F32Tensor]) -> Vec<F32Tensor> {
    assert!(!class_values.is_empty(), "no key columns");
    let sizes: Vec<usize> = class_values.iter().map(|v| v.numel()).collect();
    let groups: usize = sizes.iter().product();
    let mut out = Vec::with_capacity(class_values.len());
    for (k, vals) in class_values.iter().enumerate() {
        // Stride pattern: repeat each value `inner` times, tile `outer` times.
        let inner: usize = sizes[k + 1..].iter().product();
        let outer: usize = sizes[..k].iter().product();
        let mut col = Vec::with_capacity(groups);
        for _ in 0..outer {
            for v in vals.data() {
                for _ in 0..inner {
                    col.push(*v);
                }
            }
        }
        out.push(Tensor::from_vec(col, &[groups]));
    }
    out
}

/// Differentiable grouped COUNT(*): column sums of the (optionally
/// weighted) joint membership matrix. Returns a `[G]` Var.
pub fn soft_groupby_count(joint: &Var, weights: Option<&Var>) -> Var {
    let weighted = apply_weights(joint, weights);
    weighted.sum_dim(0, false)
}

/// Differentiable grouped SUM(values): `jointᵀ · (w ⊙ values)`.
pub fn soft_groupby_sum(joint: &Var, values: &Var, weights: Option<&Var>) -> Var {
    let n = joint.shape()[0];
    assert_eq!(values.shape(), vec![n], "one value per row");
    let weighted_vals = match weights {
        Some(w) => values.mul(w),
        None => values.clone(),
    };
    joint
        .transpose()
        .matmul(&weighted_vals.reshape(&[n, 1]))
        .reshape(&[joint.shape()[1]])
}

/// Differentiable grouped AVG: soft sum / soft count, with an epsilon so
/// empty groups yield ~0 instead of NaN.
pub fn soft_groupby_avg(joint: &Var, values: &Var, weights: Option<&Var>) -> Var {
    let sums = soft_groupby_sum(joint, values, weights);
    let counts = soft_groupby_count(joint, weights).add_scalar(1e-9);
    sums.div(&counts)
}

/// Differentiable global COUNT(*) under soft weights: the weight sum.
pub fn soft_global_count(weights: &Var) -> Var {
    weights.sum()
}

/// Which way a relaxed comparison `l ⋈ r` points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Towards {
    /// `>` and `>=`: the weight rises with the margin `l − r`.
    Greater,
    /// `<` and `<=`: the complement, falling with the margin.
    Less,
}

/// Relaxed comparison of `l` against `r` as one tape node: the weight
/// `σ((l − r) / τ)` for [`Towards::Greater`], `1 − σ((l − r) / τ)` for
/// [`Towards::Less`], broadcast like `l.sub(r)`. As τ → 0 it approaches
/// the exact step; at inference the executor swaps in the exact
/// comparison (paper §4). The forward is one pass, the backward one pass
/// yielding the gradient of each operand that is a parameter or computed
/// (module docs); a comparison of two constants is a constant.
// `x * -1.0` is the chain's `neg` (a multiply) step for step; `-x` would
// be a different operation on NaN's sign bit.
#[allow(clippy::neg_multiply)]
pub fn soft_compare(l: &Var, r: &Var, towards: Towards, temperature: f32) -> Var {
    assert!(temperature > 0.0, "temperature must be positive");
    let inv = 1.0 / temperature;
    let (lv, rv) = (l.value(), r.value());
    let (l_shape, r_shape) = (lv.shape().to_vec(), rv.shape().to_vec());
    let shape = broadcast_shapes(&l_shape, &r_shape)
        .unwrap_or_else(|| panic!("shapes {l_shape:?} and {r_shape:?} are not broadcastable"));
    let device = lv.device().combine(rv.device());
    let (lb, rb) = (lv.broadcast_to(&shape), rv.broadcast_to(&shape));
    let tensor = |v: Vec<f32>| Tensor::from_vec(v, &shape).to(device);
    // One slice loop per arm with the engine's branch-free sigmoid
    // inlined, so it vectorises. `sig` is σ of the margin, which the
    // backward reads; for `Less` the node's value is its complement,
    // made in the same pass.
    let pairs = || lb.data().iter().zip(rb.data());
    let margin = |a: f32, b: f32| math::sigmoid((a - b + -0.0) * inv);
    let mut sig = vec![0.0f32; lb.numel()];
    let (sig, value) = match towards {
        Towards::Greater => {
            for (s, (&a, &b)) in sig.iter_mut().zip(pairs()) {
                *s = margin(a, b);
            }
            let sig = tensor(sig);
            (sig.clone(), sig)
        }
        Towards::Less => {
            let mut value = vec![0.0f32; sig.len()];
            for ((s, v), (&a, &b)) in sig.iter_mut().zip(&mut value).zip(pairs()) {
                *s = margin(a, b);
                *v = *s * -1.0 + 1.0;
            }
            (tensor(sig), tensor(value))
        }
    };
    let less = towards == Towards::Less;
    // Only an operand a gradient can reach is a parent: a constant leaf's
    // gradient would be built and dropped on every backward pass.
    let carries = |v: &Var| v.is_param() || !v.is_leaf();
    let (to_l, to_r) = (carries(l), carries(r));
    let parents: Vec<Var> = [(l, to_l), (r, to_r)]
        .into_iter()
        .filter(|&(_, carries)| carries)
        .map(|(v, _)| v.clone())
        .collect();
    if parents.is_empty() {
        return Var::constant(value);
    }
    Var::fused(value, parents, move |g| {
        // ∂/∂l, stored; ∂/∂r is its negation, read back from the store so
        // a NaN's sign is flipped as stored, not folded into the product.
        let dl: Vec<f32> = g
            .data()
            .iter()
            .zip(sig.data())
            .map(|(&g, &s)| {
                let g = if less { g * -1.0 } else { g };
                g * s * (-s + 1.0) * inv
            })
            .collect();
        let grad = |v: Vec<f32>, to: &[usize]| {
            reduce_to_shape(&Tensor::from_vec(v, &shape).to(device), to)
        };
        let gr = to_r.then(|| grad(dl.iter().map(|&t| -t).collect(), &r_shape));
        let gl = to_l.then(|| grad(dl, &l_shape));
        gl.into_iter().chain(gr).collect()
    })
}

/// NeuralSort relaxation of the sort permutation (Grover et al. 2019; one
/// of the continuous relaxations the paper's §4 points to). For scores `s`
/// `[N]`, row `i` of the returned `[N, N]` matrix is a softmax that peaks
/// at the index of the i-th largest (or smallest) score:
///
/// `P[i, j] = softmax_j(((N + 1 − 2(i+1))·s_j − Σ_k |s_j − s_k|) / τ)`.
///
/// As τ → 0 the matrix approaches the exact permutation matrix of the
/// sort; at any τ > 0 it is differentiable in `s`.
pub fn soft_sort_matrix(scores: &Var, descending: bool, temperature: f32) -> Var {
    assert!(temperature > 0.0, "temperature must be positive");
    let n = scores.shape()[0];
    let s = if descending {
        scores.clone()
    } else {
        scores.neg()
    };
    // Pairwise |s_j − s_k| column sums: [N].
    let col = s.reshape(&[n, 1]);
    let row = s.reshape(&[1, n]);
    let abs_sum = col.sub(&row).abs().sum_dim(0, false); // Σ_k |s_j − s_k|
                                                         // Rank coefficients (N+1−2(i+1)) as a constant column.
    let coef: Vec<f32> = (1..=n).map(|i| (n as f32) + 1.0 - 2.0 * i as f32).collect();
    let coef = Var::constant(Tensor::from_vec(coef, &[n, 1]));
    let logits = coef
        .mul(&s.reshape(&[1, n]))
        .sub(&abs_sum.reshape(&[1, n]))
        .div_scalar(temperature);
    logits.softmax(1)
}

/// Relaxed top-k membership weights: the column sums of the first `k` rows
/// of the [`soft_sort_matrix`]. Row weights approach 1 for the exact top-k
/// rows and 0 elsewhere as τ → 0; the trainable executor threads them
/// through downstream soft aggregates instead of cutting rows — the
/// differentiable twin of `ORDER BY … LIMIT k`.
pub fn soft_topk_weights(scores: &Var, k: usize, descending: bool, temperature: f32) -> Var {
    let n = scores.shape()[0];
    let k = k.min(n);
    if k == 0 {
        return Var::constant(F32Tensor::zeros(&[n]));
    }
    let p = soft_sort_matrix(scores, descending, temperature);
    p.narrow(0, 0, k).sum_dim(0, false)
}

fn apply_weights(joint: &Var, weights: Option<&Var>) -> Var {
    match weights {
        Some(w) => {
            let n = joint.shape()[0];
            assert_eq!(w.shape(), vec![n], "one weight per row");
            joint.mul(&w.reshape(&[n, 1]))
        }
        None => joint.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_autodiff::gradcheck::check_gradients;

    fn onehot_var(ids: &[usize], classes: usize) -> Var {
        let mut data = vec![0.0f32; ids.len() * classes];
        for (i, &c) in ids.iter().enumerate() {
            data[i * classes + c] = 1.0;
        }
        Var::constant(Tensor::from_vec(data, &[ids.len(), classes]))
    }

    #[test]
    fn khatri_rao_small_case() {
        let a = Var::constant(Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2]));
        let b = Var::constant(Tensor::from_vec(vec![5.0f32, 6.0, 7.0, 8.0], &[2, 2]));
        let k = khatri_rao(&a, &b);
        assert_eq!(k.shape(), vec![2, 4]);
        assert_eq!(
            k.value().to_vec(),
            vec![5.0, 6.0, 10.0, 12.0, 21.0, 24.0, 28.0, 32.0]
        );
    }

    #[test]
    fn soft_count_on_onehot_equals_exact_contingency() {
        // digits: [2, 0, 2, 1], sizes: [1, 0, 1, 1]
        let digit = onehot_var(&[2, 0, 2, 1], 3);
        let size = onehot_var(&[1, 0, 1, 1], 2);
        let joint = joint_membership(&[&digit, &size]);
        let counts = soft_groupby_count(&joint, None).value();
        // Group order: (d0,s0),(d0,s1),(d1,s0),(d1,s1),(d2,s0),(d2,s1)
        assert_eq!(counts.to_vec(), vec![1.0, 0.0, 0.0, 1.0, 0.0, 2.0]);
        assert_eq!(counts.sum(), 4.0, "total mass equals row count");
    }

    #[test]
    fn expand_group_keys_lexicographic() {
        let d = Tensor::from_vec(vec![0.0f32, 1.0, 2.0], &[3]);
        let s = Tensor::from_vec(vec![10.0f32, 20.0], &[2]);
        let keys = expand_group_keys(&[&d, &s]);
        assert_eq!(keys[0].to_vec(), vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        assert_eq!(keys[1].to_vec(), vec![10.0, 20.0, 10.0, 20.0, 10.0, 20.0]);
    }

    #[test]
    fn weighted_counts_scale_rows() {
        let digit = onehot_var(&[0, 1], 2);
        let w = Var::constant(Tensor::from_vec(vec![0.25f32, 0.75], &[2]));
        let counts = soft_groupby_count(&digit, Some(&w)).value();
        assert_eq!(counts.to_vec(), vec![0.25, 0.75]);
    }

    #[test]
    fn soft_sum_and_avg() {
        let groups = onehot_var(&[0, 1, 0], 2);
        let vals = Var::constant(Tensor::from_vec(vec![10.0f32, 100.0, 30.0], &[3]));
        let sums = soft_groupby_sum(&groups, &vals, None).value();
        assert_eq!(sums.to_vec(), vec![40.0, 100.0]);
        let avgs = soft_groupby_avg(&groups, &vals, None).value();
        assert!((avgs.at(0) - 20.0).abs() < 1e-4);
        assert!((avgs.at(1) - 100.0).abs() < 1e-4);
    }

    #[test]
    fn soft_gt_approaches_step() {
        let s = Var::constant(Tensor::from_vec(vec![0.0f32, 0.79, 0.81, 2.0], &[4]));
        let cut = Var::constant(Tensor::scalar(0.8f32));
        let sharp = soft_compare(&s, &cut, Towards::Greater, 0.001).value();
        assert!(sharp.at(0) < 1e-3 && sharp.at(1) < 0.01);
        assert!(sharp.at(2) > 0.99 && sharp.at(3) > 0.999);
        let smooth = soft_compare(&s, &cut, Towards::Greater, 1.0).value();
        assert!(smooth.at(1) > 0.4 && smooth.at(2) < 0.6, "high τ is soft");
        let lt = soft_compare(&s, &cut, Towards::Less, 0.001).value();
        assert!(lt.at(0) > 0.999 && lt.at(3) < 1e-3);
    }

    /// The elementwise chain [`soft_compare`] fuses, kept as its oracle:
    /// one tape node per step.
    fn unfused(l: &Var, r: &Var, towards: Towards, temperature: f32) -> Var {
        let sig = l
            .sub(r)
            .add_scalar(-0.0)
            .mul_scalar(1.0 / temperature)
            .sigmoid();
        match towards {
            Towards::Greater => sig,
            Towards::Less => sig.neg().add_scalar(1.0),
        }
    }

    fn bits(t: &F32Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_comparison_has_the_bits_of_the_chain() {
        let mut rng = tdp_tensor::Rng64::new(11);
        let mut v: Vec<f32> = (0..5000).map(|_| rng.normal() as f32).collect();
        v.extend([
            0.0,
            -0.0,
            0.62,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e30,
        ]);
        let n = v.len();
        for towards in [Towards::Greater, Towards::Less] {
            for (theta, tau) in [(0.62f32, 0.05f32), (-0.3, 0.5), (0.0, 1e-3), (2.0, 3.0)] {
                // θ broadcast the way a threshold UDF hands it over, so the
                // gradient also passes the broadcast's reduction.
                let run = |f: fn(&Var, &Var, Towards, f32) -> Var, trained: bool| {
                    // As a param, both operands' gradient bits are compared;
                    // as a constant — the Listing-5 column — it is no parent
                    // of the fused node and gets none.
                    let col = Tensor::from_vec(v.clone(), &[n]);
                    let col = if trained {
                        Var::param(col)
                    } else {
                        Var::constant(col)
                    };
                    let p = Var::param(Tensor::from_vec(vec![theta], &[1]));
                    let w = f(&col, &p.broadcast_to(&[n]), towards, tau);
                    // A seed that varies per row, as a weighted loss does.
                    let seed: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
                    w.backward_with(Tensor::from_vec(seed, &[n]));
                    (
                        bits(&w.value()),
                        bits(&p.grad().unwrap()),
                        col.grad().map(|g| bits(&g)),
                    )
                };
                for trained in [true, false] {
                    assert_eq!(
                        run(soft_compare, trained),
                        run(unfused, trained),
                        "{towards:?} at θ={theta}, τ={tau}, column trained: {trained}"
                    );
                }
            }
        }
        // Broadcast operands reduce their gradients like `sub` does.
        let l = Var::param(Tensor::from_vec(vec![0.1f32, 0.9, -2.0], &[3]));
        let r = Var::param(Tensor::scalar(0.5f32));
        let (a, b) = (
            soft_compare(&l, &r, Towards::Less, 0.3),
            unfused(&l, &r, Towards::Less, 0.3),
        );
        assert_eq!(bits(&a.value()), bits(&b.value()));
        a.sum().backward();
        let (gl, gr) = (l.grad().unwrap(), r.grad().unwrap());
        l.zero_grad();
        r.zero_grad();
        b.sum().backward();
        assert_eq!(bits(&gl), bits(&l.grad().unwrap()));
        assert_eq!(bits(&gr), bits(&r.grad().unwrap()));
    }

    #[test]
    fn gradients_flow_through_soft_compare() {
        for towards in [Towards::Greater, Towards::Less] {
            check_gradients(
                &[vec![0.2f32, -0.4, 0.9], vec![0.1f32]],
                &[vec![3], vec![1]],
                |vars| {
                    let w = Var::constant(Tensor::from_vec(vec![1.0f32, 2.0, -1.0], &[3]));
                    soft_compare(&vars[0], &vars[1].broadcast_to(&[3]), towards, 0.4)
                        .mul(&w)
                        .sum()
                },
                1e-2,
            );
        }
    }

    #[test]
    fn gradients_flow_through_soft_groupby() {
        // d(count)/d(prob) checked against finite differences.
        let probs = vec![0.6f32, 0.4, 0.3, 0.7, 0.5, 0.5];
        check_gradients(
            &[probs],
            &[vec![3, 2]],
            |vars| {
                // Weighted "loss" over soft counts to give non-trivial grads.
                let w = Var::constant(Tensor::from_vec(vec![1.0f32, 3.0], &[2]));
                soft_groupby_count(&vars[0], None).mul(&w).sum()
            },
            1e-2,
        );
    }

    #[test]
    fn gradients_flow_through_khatri_rao_and_weights() {
        let a = vec![0.7f32, 0.3, 0.2, 0.8];
        let b = vec![0.1f32, 0.9, 0.5, 0.5];
        let w = vec![0.9f32, 0.4];
        check_gradients(
            &[a, b, w],
            &[vec![2, 2], vec![2, 2], vec![2]],
            |vars| {
                let joint = khatri_rao(&vars[0], &vars[1]);
                let target = Var::constant(Tensor::from_vec(vec![0.5f32, 0.0, 0.0, 0.5], &[4]));
                soft_groupby_count(&joint, Some(&vars[2]))
                    .sub(&target)
                    .square()
                    .sum()
            },
            2e-2,
        );
    }

    #[test]
    fn soft_sort_matrix_recovers_permutation_at_low_temperature() {
        let s = Var::constant(Tensor::from_vec(vec![0.3f32, 0.9, 0.1, 0.5], &[4]));
        let p = soft_sort_matrix(&s, true, 0.01).value();
        // Descending order of scores: rows should peak at 1, 3, 0, 2.
        let expected = [1usize, 3, 0, 2];
        for (i, &j) in expected.iter().enumerate() {
            assert!(
                p.get(&[i, j]) > 0.99,
                "row {i} should peak at column {j}: {:?}",
                p.to_vec()
            );
        }
        // Rows are stochastic.
        let row_sums = p.sum_dim(1, false);
        assert!(row_sums.data().iter().all(|&r| (r - 1.0).abs() < 1e-4));
    }

    #[test]
    fn soft_topk_weights_select_topk_rows() {
        let s = Var::constant(Tensor::from_vec(vec![0.3f32, 0.9, 0.1, 0.5], &[4]));
        let w = soft_topk_weights(&s, 2, true, 0.01).value();
        assert!(w.at(1) > 0.99 && w.at(3) > 0.99, "{:?}", w.to_vec());
        assert!(w.at(0) < 0.01 && w.at(2) < 0.01, "{:?}", w.to_vec());
        // Ascending selects the smallest instead.
        let w_asc = soft_topk_weights(&s, 2, false, 0.01).value();
        assert!(
            w_asc.at(2) > 0.99 && w_asc.at(0) > 0.99,
            "{:?}",
            w_asc.to_vec()
        );
        // Total mass is k regardless of temperature.
        let w_soft = soft_topk_weights(&s, 2, true, 1.0).value();
        assert!((w_soft.sum() - 2.0).abs() < 1e-4);
        // k = 0 and k > n degenerate sensibly.
        assert_eq!(soft_topk_weights(&s, 0, true, 0.1).value().sum(), 0.0);
        assert!((soft_topk_weights(&s, 9, true, 0.01).value().sum() - 4.0).abs() < 1e-3);
    }

    #[test]
    fn gradients_flow_through_soft_topk() {
        let scores = vec![0.2f32, 0.8, 0.5];
        check_gradients(
            &[scores],
            &[vec![3]],
            |vars| {
                // Loss: weighted sum of fixed values under top-2 weights.
                let vals = Var::constant(Tensor::from_vec(vec![1.0f32, 2.0, 3.0], &[3]));
                soft_topk_weights(&vars[0], 2, true, 0.5).mul(&vals).sum()
            },
            2e-2,
        );
    }

    #[test]
    fn soft_equals_exact_under_onehot_and_binary_weights() {
        // Property at the heart of the inference-time swap: one-hot PE plus
        // 0/1 weights make every soft operator exact.
        let digit = onehot_var(&[1, 0, 1, 1, 0], 2);
        let w = Var::constant(Tensor::from_vec(vec![1.0f32, 0.0, 1.0, 1.0, 1.0], &[5]));
        let counts = soft_groupby_count(&digit, Some(&w)).value();
        // Rows kept: 0(d1), 2(d1), 3(d1), 4(d0) -> d0:1, d1:3
        assert_eq!(counts.to_vec(), vec![1.0, 3.0]);
    }
}
