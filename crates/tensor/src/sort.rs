//! Sorting and grouping kernels.
//!
//! [`Tensor::argsort`] is the plain sorting primitive (the executor's
//! ORDER BY, top-k and window order compare grouping codes of their own
//! and do not call it). GROUP BY's combine, DISTINCT and PARTITION BY
//! lower to [`group_rows`], which resolves composite integer keys to
//! dense group ids in one O(n) sweep — the keys' [`Direct`] slots when
//! [`Direct`] admits them, an open-addressing hash otherwise — and sorts
//! only the *distinct* tuples to keep group order lexicographic: a few
//! dense passes over columns, mirroring how TQP expresses relational
//! operators as tensor programs.

use crate::element::Element;
use crate::keytable::Direct;
use crate::tensor::Tensor;

impl<T: Element> Tensor<T> {
    /// Indices that sort a 1-d tensor ascending (stable).
    pub fn argsort(&self) -> Tensor<i64> {
        assert_eq!(self.ndim(), 1, "argsort expects a 1-d tensor");
        let d = self.data();
        let mut idx: Vec<i64> = (0..d.len() as i64).collect();
        idx.sort_by(|&a, &b| {
            d[a as usize]
                .partial_cmp(&d[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let n = idx.len();
        Tensor::from_vec(idx, &[n]).to(self.device())
    }
}

/// Result of [`group_rows`]: one dense group id per position plus the
/// distinct key tuples.
#[derive(Debug, Clone)]
pub struct Groups {
    /// `ids[p]` is the group of position `p`, in `[0, groups)`. Positions
    /// a mask deselected carry the sentinel `groups` (one past the last
    /// group), so a fold can accumulate them branchlessly into a spare
    /// slot it throws away.
    pub ids: Vec<u32>,
    /// Distinct key tuples, row-major `[groups, num_keys]`, in
    /// lexicographic order — group `g` is the `g`-th smallest tuple.
    pub distinct: Vec<i64>,
    pub groups: usize,
}

/// Resolve composite integer keys to dense group ids in O(n) with no
/// per-row allocation — the grouping of GROUP BY's combine, DISTINCT and
/// PARTITION BY.
///
/// `keys` are equal-length code columns (most-significant first); `mask`
/// optionally restricts grouping to the positions it keeps (a selection
/// vector's dense form), so filtered-out rows never create groups. Two
/// arms:
///
/// * **direct** — when [`Direct`] admits the keys over the kept rows,
///   each row's [`Direct`] slot marks a presence table of exactly
///   [`Direct::slots`] entries (dictionary codes, bools, narrow ints).
///   Walking the table in slot order *is* lexicographic order, so
///   nothing is sorted.
/// * **hash** — [`group_hashed`].
pub fn group_rows(keys: &[&[i64]], mask: Option<&[bool]>) -> Groups {
    assert!(!keys.is_empty(), "group_rows needs at least one key");
    let n = keys[0].len();
    for k in keys {
        assert_eq!(k.len(), n, "group keys must have equal length");
    }
    assert!(n < u32::MAX as usize, "group ids are 32-bit");
    if let Some(m) = mask {
        assert_eq!(m.len(), n, "one mask entry per key row");
    }
    match Direct::of(keys, mask) {
        Some(direct) => group_direct(keys, mask, &direct),
        None => group_hashed(keys, mask),
    }
}

/// The direct arm: slots marked present, numbered in slot order.
fn group_direct(keys: &[&[i64]], mask: Option<&[bool]>, direct: &Direct) -> Groups {
    let mut ids = direct.index(keys, mask);
    let slots = direct.slots();
    let mut table = vec![0u32; slots + 1];
    for &c in &ids {
        table[c as usize] = 1;
    }
    let mut distinct = Vec::new();
    let mut groups = 0u32;
    for (slot, entry) in table[..slots].iter_mut().enumerate() {
        if *entry != 0 {
            *entry = groups;
            groups += 1;
            distinct.extend(direct.tuple(slot));
        }
    }
    table[slots] = groups;
    for id in &mut ids {
        *id = table[*id as usize];
    }
    Groups {
        ids,
        distinct,
        groups: groups as usize,
    }
}

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
pub(crate) fn mix(x: u64) -> u64 {
    let m = (x as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_u128);
    (m as u64) ^ ((m >> 64) as u64)
}

/// The hash arm of [`group_rows`], for keys [`Direct`] does not admit:
/// an open-addressing table keyed on the tuple assigns ids in
/// first-seen order; only the distinct tuples are then sorted and the
/// ids remapped, keeping the lexicographic-order contract. The table
/// starts at 64 slots and doubles, and its hash takes a per-call random
/// seed — see [`crate::keytable`] for why it is not a `KeyTable`.
pub fn group_hashed(keys: &[&[i64]], mask: Option<&[bool]>) -> Groups {
    use std::hash::{BuildHasher, Hasher};
    const EMPTY: u32 = u32::MAX;
    let n = keys[0].len();
    let nk = keys.len();
    // Keys are user data: a per-call random seed keeps crafted inputs
    // from piling onto one probe chain. Output never depends on it —
    // ids and tuple order are fixed by the sort below.
    let seed = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    let hash_at = |p: usize| keys.iter().fold(seed, |h, k| mix(h ^ k[p] as u64));

    let mut cap = 64usize;
    let mut table = vec![EMPTY; cap];
    // First-seen order: tuple `g` at `distinct[g * nk..]`, its hash kept
    // so growth re-inserts without touching the keys again.
    let mut distinct: Vec<i64> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    let mut ids = vec![EMPTY; n];
    for p in 0..n {
        if mask.is_some_and(|m| !m[p]) {
            continue;
        }
        let h = hash_at(p);
        let mut slot = h as usize & (cap - 1);
        let g = loop {
            let g = table[slot];
            if g == EMPTY {
                break EMPTY;
            }
            let tuple = &distinct[g as usize * nk..][..nk];
            if keys.iter().zip(tuple).all(|(k, &t)| k[p] == t) {
                break g;
            }
            slot = (slot + 1) & (cap - 1);
        };
        ids[p] = if g != EMPTY {
            g
        } else {
            let g = hashes.len() as u32;
            table[slot] = g;
            distinct.extend(keys.iter().map(|k| k[p]));
            hashes.push(h);
            if hashes.len() * 2 > cap {
                cap *= 2;
                table = vec![EMPTY; cap];
                for (g, &h) in hashes.iter().enumerate() {
                    let mut slot = h as usize & (cap - 1);
                    while table[slot] != EMPTY {
                        slot = (slot + 1) & (cap - 1);
                    }
                    table[slot] = g as u32;
                }
            }
            g
        };
    }

    // Sort the distinct tuples only, then renumber.
    let groups = hashes.len();
    let mut order: Vec<u32> = (0..groups as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        distinct[a as usize * nk..][..nk].cmp(&distinct[b as usize * nk..][..nk])
    });
    let mut rank = vec![0u32; groups];
    let mut sorted = Vec::with_capacity(distinct.len());
    for (r, &g) in order.iter().enumerate() {
        rank[g as usize] = r as u32;
        sorted.extend_from_slice(&distinct[g as usize * nk..][..nk]);
    }
    for id in &mut ids {
        *id = if *id == EMPTY {
            groups as u32
        } else {
            rank[*id as usize]
        };
    }
    Groups {
        ids,
        distinct: sorted,
        groups,
    }
}

/// Result of [`unique_i64`]: distinct values and supporting indexes.
#[derive(Debug, Clone)]
pub struct Unique {
    /// Distinct values in ascending order.
    pub values: Tensor<i64>,
    /// For each input position, the index of its value within `values`.
    pub inverse: Tensor<i64>,
    /// Multiplicity of each distinct value.
    pub counts: Tensor<i64>,
}

fn ids_tensor(ids: &[u32]) -> Tensor<i64> {
    Tensor::from_vec(ids.iter().map(|&g| g as i64).collect(), &[ids.len()])
}

/// Distinct values of a 1-d i64 tensor with inverse mapping and counts —
/// single-key [`group_rows`] plus a histogram.
pub fn unique_i64(t: &Tensor<i64>) -> Unique {
    assert_eq!(t.ndim(), 1, "unique expects a 1-d tensor");
    let g = group_rows(&[t.data()], None);
    let mut counts = vec![0i64; g.groups];
    for &id in &g.ids {
        counts[id as usize] += 1;
    }
    Unique {
        inverse: ids_tensor(&g.ids),
        values: Tensor::from_vec(g.distinct, &[g.groups]),
        counts: Tensor::from_vec(counts, &[g.groups]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ti(v: Vec<i64>) -> Tensor<i64> {
        let n = v.len();
        Tensor::from_vec(v, &[n])
    }

    #[test]
    fn argsort_ascending() {
        let t = Tensor::from_vec(vec![3.0f32, 1.0, 2.0], &[3]);
        assert_eq!(t.argsort().to_vec(), vec![1, 2, 0]);
    }

    #[test]
    fn argsort_is_stable() {
        let t = ti(vec![1, 0, 1, 0]);
        assert_eq!(t.argsort().to_vec(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn unique_counts_and_inverse() {
        let t = ti(vec![4, 2, 4, 4, 1]);
        let u = unique_i64(&t);
        assert_eq!(u.values.to_vec(), vec![1, 2, 4]);
        assert_eq!(u.counts.to_vec(), vec![1, 1, 3]);
        assert_eq!(u.inverse.to_vec(), vec![2, 1, 2, 2, 0]);
        // Invariant: counts sum to n.
        assert_eq!(u.counts.sum(), 5);
        // Invariant: values[inverse[i]] == t[i].
        let recon = u.values.select_rows(&u.inverse);
        assert_eq!(recon.to_vec(), t.to_vec());
    }

    #[test]
    fn group_rows_multi_key() {
        let g = group_rows(&[&[3, 3, 5, 3], &[0, 1, 0, 0]], None);
        // Lexicographic distinct tuples: (3,0), (3,1), (5,0)
        assert_eq!(g.groups, 3);
        assert_eq!(g.distinct, vec![3, 0, 3, 1, 5, 0]);
        assert_eq!(g.ids, vec![0, 1, 2, 0]);
    }

    /// Grouping by sorting: a stable comparator sort of the row
    /// positions by tuple, then a boundary scan. Kept as the contract's
    /// reference implementation.
    fn group_rows_sorted_ref(keys: &[&[i64]]) -> (Vec<u32>, Vec<i64>) {
        let n = keys[0].len();
        let tuple = |pos: usize| -> Vec<i64> { keys.iter().map(|k| k[pos]).collect() };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&pos| tuple(pos));
        let mut ids = vec![0u32; n];
        let mut distinct: Vec<i64> = Vec::new();
        let mut prev: Option<Vec<i64>> = None;
        for pos in order {
            let t = tuple(pos);
            if prev.as_ref() != Some(&t) {
                distinct.extend_from_slice(&t);
                prev = Some(t);
            }
            ids[pos] = (distinct.len() / keys.len() - 1) as u32;
        }
        (ids, distinct)
    }

    /// The pre-hash `unique_i64` (argsort + boundary scan).
    fn unique_sorted_ref(t: &Tensor<i64>) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        let d = t.data();
        let mut values = Vec::new();
        let mut counts: Vec<i64> = Vec::new();
        let mut inverse = vec![0i64; d.len()];
        for &pos in t.argsort().data() {
            let v = d[pos as usize];
            if values.last() != Some(&v) {
                values.push(v);
                counts.push(0);
            }
            let g = values.len() - 1;
            counts[g] += 1;
            inverse[pos as usize] = g as i64;
        }
        (values, inverse, counts)
    }

    fn assert_matches_reference(cols: &[Vec<i64>]) {
        let refs: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
        let g = group_rows(&refs, None);
        let (want_ids, want_distinct) = group_rows_sorted_ref(&refs);
        assert_eq!(g.ids, want_ids, "ids for {cols:?}");
        assert_eq!(g.distinct, want_distinct, "distinct for {cols:?}");
        assert_eq!(g.groups, want_distinct.len() / cols.len());
        assert!(g.ids.iter().all(|&id| (id as usize) < g.groups));

        let first = ti(cols[0].clone());
        let u = unique_i64(&first);
        let (values, inverse, counts) = unique_sorted_ref(&first);
        assert_eq!(u.values.to_vec(), values);
        assert_eq!(u.inverse.to_vec(), inverse);
        assert_eq!(u.counts.to_vec(), counts);
    }

    /// Map a small draw onto a key alphabet that mixes narrow codes,
    /// negatives and the i64 extremes.
    fn spread(v: i64, extremes: bool) -> i64 {
        const WILD: [i64; 6] = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 0, 1 << 40];
        if extremes && v % 3 == 0 {
            WILD[(v / 3).rem_euclid(6) as usize]
        } else {
            v - 4
        }
    }

    proptest::proptest! {
        #[test]
        fn grouping_matches_sorted_reference(
            raw in proptest::collection::vec(0i64..12, 0..120),
            nkeys in 1usize..4,
            extremes in proptest::any::<bool>(),
        ) {
            let n = raw.len() / nkeys;
            let cols: Vec<Vec<i64>> = (0..nkeys)
                .map(|k| raw[k * n..(k + 1) * n].iter().map(|&v| spread(v, extremes)).collect())
                .collect();
            assert_matches_reference(&cols);
        }

        #[test]
        fn masked_grouping_ignores_deselected_rows(
            raw in proptest::collection::vec(0i64..9, 1..80),
            keep in proptest::collection::vec(proptest::any::<bool>(), 80usize),
            extremes in proptest::any::<bool>(),
        ) {
            let a: Vec<i64> = raw.iter().map(|&v| spread(v, extremes)).collect();
            let b: Vec<i64> = raw.iter().rev().map(|&v| v % 3).collect();
            let mask = &keep[..a.len()];
            let g = group_rows(&[&a, &b], Some(mask));
            // Same groups as grouping the kept rows alone…
            let pick = |c: &[i64]| -> Vec<i64> {
                c.iter().zip(mask).filter_map(|(&v, &m)| m.then_some(v)).collect()
            };
            let dense = group_rows(&[&pick(&a), &pick(&b)], None);
            assert_eq!(g.distinct, dense.distinct);
            assert_eq!(g.groups, dense.groups);
            let kept: Vec<u32> = g.ids.iter().zip(mask).filter_map(|(&i, &m)| m.then_some(i)).collect();
            assert_eq!(kept, dense.ids);
            // …and every deselected row carries the spare-slot sentinel.
            assert!(g.ids.iter().zip(mask).all(|(&i, &m)| m || i as usize == g.groups));
        }
    }

    #[test]
    fn grouping_edge_shapes() {
        assert_matches_reference(&[vec![]]);
        assert_matches_reference(&[vec![], vec![]]);
        assert_matches_reference(&[vec![42]]);
        assert_matches_reference(&[vec![7; 50]]);
        assert_matches_reference(&[(0..200).rev().collect()]);
        // All-distinct and far apart: the span overflows any table, the
        // subtraction overflows i64 — the hash arm must take it calmly.
        assert_matches_reference(&[vec![i64::MAX, i64::MIN, 0, i64::MIN, i64::MAX]]);
        assert_matches_reference(&[
            (0..300).map(|i| i * 1_000_003).collect(),
            (0..300).map(|i| -(i % 7)).collect(),
        ]);
    }

    #[test]
    fn arm_follows_key_span() {
        let direct = |keys: &[i64], mask: Option<&[bool]>| Direct::of(&[keys], mask).is_some();
        let narrow: Vec<i64> = (0..1000).map(|i| i % 3 - 1).collect();
        assert!(direct(&narrow, None));
        let wide: Vec<i64> = (0..1000).map(|i| (i % 3) * (1 << 40)).collect();
        assert!(!direct(&wide, None));
        assert_eq!(
            group_rows(&[&wide], None).distinct,
            vec![0, 1 << 40, 2 << 40]
        );
        // A mask that hides the outliers brings the span back in range.
        let mask: Vec<bool> = wide.iter().map(|&v| v == 0).collect();
        assert!(direct(&wide, Some(&mask)));
        let g = group_rows(&[&wide], Some(&mask));
        assert_eq!((g.groups, g.distinct), (1, vec![0]));
    }

    #[test]
    fn group_rows_single_key_matches_unique() {
        let g = group_rows(&[&[7, 7, 2]], None);
        assert_eq!(g.distinct, vec![2, 7]);
        assert_eq!(g.ids, vec![1, 1, 0]);
    }
}
