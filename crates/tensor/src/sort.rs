//! Sorting and distinct-value kernels.
//!
//! [`Tensor::argsort`] and [`lexsort_i64`] are plain sorting primitives
//! (the executor's ORDER BY, top-k and window order compare grouping
//! codes of their own and call neither). GROUP BY, DISTINCT and
//! PARTITION BY lower to [`group_rows`], which resolves
//! composite integer keys to dense group ids in one O(n) sweep (a
//! direct-index table for narrow key spans, an open-addressing hash
//! otherwise) and sorts only the *distinct* tuples to keep group order
//! lexicographic — a few dense passes over columns, mirroring how TQP
//! expresses relational operators as tensor programs.

use crate::element::Element;
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

/// Stable lexicographic argsort over several equal-length key columns
/// (most-significant key first). The substrate of multi-column ORDER BY.
pub fn lexsort_i64(keys: &[&Tensor<i64>]) -> Tensor<i64> {
    assert!(!keys.is_empty(), "lexsort needs at least one key");
    let n = keys[0].numel();
    for k in keys {
        assert_eq!(k.ndim(), 1, "lexsort keys must be 1-d");
        assert_eq!(k.numel(), n, "lexsort keys must have equal length");
    }
    let mut idx: Vec<i64> = (0..n as i64).collect();
    idx.sort_by(|&a, &b| {
        for k in keys {
            let (ka, kb) = (k.at(a as usize), k.at(b as usize));
            match ka.cmp(&kb) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    Tensor::from_vec(idx, &[n])
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
    /// `true` when the keys were resolved by the hash table, `false` when
    /// their value span was small enough for the direct-index table.
    pub hashed: bool,
}

/// Largest direct-index table, in slots, for `visited` rows — the one
/// density rule of every table indexed by key value: [`group_rows`]'
/// direct arm, the aggregate's code-indexed fold and
/// [`crate::keytable::Direct`]. The table is allocated at exactly the key
/// span, so tiny inputs pay for tiny tables; above a few slots per row
/// the hash table's O(distinct) footprint wins.
pub fn direct_limit(visited: usize) -> u128 {
    (visited.saturating_mul(4)).clamp(64, 1 << 30) as u128
}

/// Resolve composite integer keys to dense group ids in O(n) with no
/// per-row allocation — the core of GROUP BY, DISTINCT and PARTITION BY.
///
/// `keys` are equal-length code columns (most-significant first); `mask`
/// optionally restricts grouping to the positions it keeps (a selection
/// vector's dense form), so filtered-out rows never create groups. Two
/// arms, chosen from the keys' value span over the kept rows:
///
/// * **direct** — the composite code `Σ (kᵢ − minᵢ)·strideᵢ` indexes a
///   presence table of exactly `Π spanᵢ` slots (dictionary codes, bools,
///   narrow ints). Walking the table in index order *is* lexicographic
///   order, so nothing is sorted.
/// * **hash** — an open-addressing table keyed on the tuple assigns ids
///   in first-seen order; only the distinct tuples are then sorted and
///   the ids remapped, keeping the lexicographic-order contract.
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
    let visited = mask.map_or(n, |m| m.iter().filter(|&&b| b).count());
    if visited == 0 {
        return Groups {
            ids: vec![0; n],
            distinct: Vec::new(),
            groups: 0,
            hashed: false,
        };
    }

    // Value range of every key over the kept rows (branchless selects).
    let mut ranges = Vec::with_capacity(keys.len());
    let mut slots: u128 = 1;
    for k in keys {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        match mask {
            None => {
                for &v in *k {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            Some(m) => {
                for (&v, &keep) in k.iter().zip(m) {
                    lo = lo.min(if keep { v } else { i64::MAX });
                    hi = hi.max(if keep { v } else { i64::MIN });
                }
            }
        }
        let span = (hi as i128 - lo as i128 + 1) as u128;
        slots = slots.saturating_mul(span);
        ranges.push((lo, span));
    }
    if slots <= direct_limit(visited) {
        group_direct(keys, mask, &ranges, slots as usize)
    } else {
        group_hashed(keys, mask)
    }
}

fn group_direct(
    keys: &[&[i64]],
    mask: Option<&[bool]>,
    ranges: &[(i64, u128)],
    slots: usize,
) -> Groups {
    let n = keys[0].len();
    // Composite codes, accumulated key-major so each pass is one
    // contiguous loop. Deselected rows may hold out-of-span values: the
    // wrapping arithmetic keeps them harmless until the mask overwrites
    // them with the spare slot `slots`.
    let mut ids = vec![0u32; n];
    let mut stride = slots;
    for (k, &(lo, span)) in keys.iter().zip(ranges) {
        stride /= span as usize;
        let s = stride as u32;
        for (id, &v) in ids.iter_mut().zip(*k) {
            *id = id.wrapping_add((v.wrapping_sub(lo) as u32).wrapping_mul(s));
        }
    }
    if let Some(m) = mask {
        for (id, &keep) in ids.iter_mut().zip(m) {
            if !keep {
                *id = slots as u32;
            }
        }
    }
    let mut table = vec![0u32; slots + 1];
    for &c in &ids {
        table[c as usize] = 1;
    }
    // Dense ids in table order = lexicographic tuple order.
    let mut distinct = Vec::new();
    let mut groups = 0u32;
    for (code, slot) in table[..slots].iter_mut().enumerate() {
        if *slot != 0 {
            *slot = groups;
            groups += 1;
            let mut rem = code;
            let mut stride = slots;
            for &(lo, span) in ranges {
                stride /= span as usize;
                distinct.push(lo.wrapping_add((rem / stride) as i64));
                rem %= stride;
            }
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
        hashed: false,
    }
}

/// Folded 64×64→128 multiply: every input bit reaches every output bit.
pub(crate) fn mix(x: u64) -> u64 {
    let m = (x as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_u128);
    (m as u64) ^ ((m >> 64) as u64)
}

fn group_hashed(keys: &[&[i64]], mask: Option<&[bool]>) -> Groups {
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
        hashed: true,
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

/// Compose several i64 key columns into one group id per row plus the
/// distinct key tuples (row-major `[num_groups, num_keys]`), ordered
/// lexicographically. The tensor-level face of [`group_rows`], used by
/// DISTINCT and PARTITION BY.
pub fn group_ids(keys: &[&Tensor<i64>]) -> (Tensor<i64>, Tensor<i64>) {
    assert!(!keys.is_empty(), "group_ids needs at least one key");
    for k in keys {
        assert_eq!(k.ndim(), 1, "group_ids keys must be 1-d");
    }
    let slices: Vec<&[i64]> = keys.iter().map(|k| k.data()).collect();
    let g = group_rows(&slices, None);
    (
        ids_tensor(&g.ids),
        Tensor::from_vec(g.distinct, &[g.groups, keys.len()]),
    )
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
    fn lexsort_two_keys() {
        let a = ti(vec![1, 0, 1, 0]);
        let b = ti(vec![5, 9, 3, 7]);
        // Sort by (a, b): (0,7)@3, (0,9)@1, (1,3)@2, (1,5)@0
        assert_eq!(lexsort_i64(&[&a, &b]).to_vec(), vec![3, 1, 2, 0]);
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
    fn group_ids_multi_key() {
        let digit = ti(vec![3, 3, 5, 3]);
        let size = ti(vec![0, 1, 0, 0]);
        let (ids, distinct) = group_ids(&[&digit, &size]);
        // Lexicographic distinct tuples: (3,0), (3,1), (5,0)
        assert_eq!(distinct.shape(), &[3, 2]);
        assert_eq!(distinct.to_vec(), vec![3, 0, 3, 1, 5, 0]);
        assert_eq!(ids.to_vec(), vec![0, 1, 2, 0]);
    }

    /// The pre-hash `group_ids`: stable comparator lexsort, then a
    /// boundary scan. Kept as the contract's reference implementation.
    fn group_ids_sorted_ref(keys: &[&Tensor<i64>]) -> (Vec<i64>, Vec<i64>) {
        let n = keys[0].numel();
        let order = lexsort_i64(keys);
        let mut ids = vec![0i64; n];
        let mut distinct: Vec<i64> = Vec::new();
        let mut current = -1i64;
        let mut prev: Option<Vec<i64>> = None;
        for &pos in order.data() {
            let tuple: Vec<i64> = keys.iter().map(|k| k.at(pos as usize)).collect();
            if prev.as_ref() != Some(&tuple) {
                distinct.extend_from_slice(&tuple);
                current += 1;
                prev = Some(tuple);
            }
            ids[pos as usize] = current;
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
        let tensors: Vec<Tensor<i64>> = cols.iter().map(|c| ti(c.clone())).collect();
        let refs: Vec<&Tensor<i64>> = tensors.iter().collect();
        let (ids, distinct) = group_ids(&refs);
        let (want_ids, want_distinct) = group_ids_sorted_ref(&refs);
        assert_eq!(ids.to_vec(), want_ids, "ids for {cols:?}");
        assert_eq!(distinct.to_vec(), want_distinct, "distinct for {cols:?}");
        let groups = want_distinct.len() / cols.len();
        assert_eq!(distinct.shape(), &[groups, cols.len()]);
        assert!(ids.data().iter().all(|&g| g >= 0 && (g as usize) < groups));

        let u = unique_i64(&tensors[0]);
        let (values, inverse, counts) = unique_sorted_ref(&tensors[0]);
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
        let narrow: Vec<i64> = (0..1000).map(|i| i % 3 - 1).collect();
        assert!(!group_rows(&[&narrow], None).hashed);
        let wide: Vec<i64> = (0..1000).map(|i| (i % 3) * (1 << 40)).collect();
        let g = group_rows(&[&wide], None);
        assert!(g.hashed);
        assert_eq!(g.distinct, vec![0, 1 << 40, 2 << 40]);
        // A mask that hides the outliers brings the span back in range.
        let mask: Vec<bool> = wide.iter().map(|&v| v == 0).collect();
        let g = group_rows(&[&wide], Some(&mask));
        assert!(!g.hashed);
        assert_eq!((g.groups, g.distinct), (1, vec![0]));
    }

    #[test]
    fn group_ids_single_key_matches_unique() {
        let t = ti(vec![7, 7, 2]);
        let (ids, distinct) = group_ids(&[&t]);
        assert_eq!(distinct.to_vec(), vec![2, 7]);
        assert_eq!(ids.to_vec(), vec![1, 1, 0]);
    }
}
