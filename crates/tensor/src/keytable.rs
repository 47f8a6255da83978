//! Flat hash table over composite integer keys — the build/probe
//! structure of the hash join and the seen-set of DISTINCT.
//!
//! Keys are equal-length `i64` code columns; a row's composite hash is
//! computed once ([`hash_rows`]) and reused by everything downstream:
//! the exchange takes the low bits ([`partition_of`]), the table the
//! high bits, so one partition's keys still spread over its whole table.
//! A [`KeyTable`] is open addressing over `u32` row indices with one
//! shared `next` chain for duplicate keys: no per-key vector, no per-row
//! key object — keys are compared by reading the code columns at the
//! stored position.

use crate::sort::mix;

/// Marks a free slot and the end of a duplicate chain.
const EMPTY: u32 = u32::MAX;

/// Composite-key hash of each of `rows` rows: one folded-multiply round
/// (the mixer [`crate::sort::group_rows`] hashes with) per key column. Deterministic and seed-free — partition assignment has to
/// agree across threads, morsels and runs — so, like any fixed hash,
/// it does not defend against keys crafted to collide.
pub fn hash_rows(keys: &[&[i64]], rows: usize) -> Vec<u64> {
    let mut out = vec![0x9E37_79B9_7F4A_7C15_u64; rows];
    for k in keys {
        assert_eq!(k.len(), rows, "one key code per row");
        for (h, &v) in out.iter_mut().zip(*k) {
            *h = mix(*h ^ v as u64);
        }
    }
    out
}

/// Exchange partition of a row hash: the low 32 bits scaled onto
/// `0..partitions` (a multiply and a shift, no division).
pub fn partition_of(hash: u64, partitions: usize) -> usize {
    (((hash & 0xFFFF_FFFF) * partitions as u64) >> 32) as usize
}

/// A hash table over the rows `rows` (ascending positions into the key
/// columns). Items are indices into `rows`; two ways to fill it:
///
/// * [`KeyTable::build`] chains every row: [`KeyTable::matches`] then
///   yields the positions holding a probe key in **ascending** order —
///   rows are inserted last to first, each at the head of its key's
///   chain, so following `next` from the head walks upwards.
/// * [`KeyTable::new`] + [`KeyTable::insert_if_absent`] keeps the first
///   row of each key only (no chain is allocated).
///
/// Sized once at twice the row count rounded up to a power of two (at
/// least 8 slots), so it never grows and an empty input pays 32 bytes.
pub struct KeyTable<'a> {
    keys: &'a [&'a [i64]],
    hashes: &'a [u64],
    rows: &'a [u32],
    /// Item at the head of each occupied slot's chain.
    slots: Vec<u32>,
    /// `next[i]`: the next item with item `i`'s key.
    next: Vec<u32>,
    shift: u32,
}

impl<'a> KeyTable<'a> {
    /// An empty table able to hold every row of `rows`.
    pub fn new(keys: &'a [&'a [i64]], hashes: &'a [u64], rows: &'a [u32]) -> KeyTable<'a> {
        assert!(rows.len() < EMPTY as usize / 2, "table items are 32-bit");
        let cap = (rows.len() * 2).next_power_of_two().max(8);
        KeyTable {
            keys,
            hashes,
            rows,
            slots: vec![EMPTY; cap],
            next: Vec::new(),
            shift: 64 - cap.trailing_zeros(),
        }
    }

    /// The table over all of `rows`, duplicates chained in ascending order.
    pub fn build(keys: &'a [&'a [i64]], hashes: &'a [u64], rows: &'a [u32]) -> KeyTable<'a> {
        let mut t = KeyTable::new(keys, hashes, rows);
        t.next = vec![EMPTY; rows.len()];
        for i in (0..rows.len()).rev() {
            let pos = rows[i] as usize;
            let slot = t.find(hashes[pos], |at| t.same_key(t.keys, pos, at));
            t.next[i] = t.slots[slot];
            t.slots[slot] = i as u32;
        }
        t
    }

    /// Insert item `i` (the row `rows[i]`) unless its key is already
    /// present; `true` when it was inserted.
    pub fn insert_if_absent(&mut self, i: usize) -> bool {
        let pos = self.rows[i] as usize;
        let slot = self.find(self.hashes[pos], |at| self.same_key(self.keys, pos, at));
        let fresh = self.slots[slot] == EMPTY;
        if fresh {
            self.slots[slot] = i as u32;
        }
        fresh
    }

    /// Positions (entries of `rows`) whose key equals row `row` of the
    /// `probe` code columns, given that row's hash. Ascending after
    /// [`KeyTable::build`].
    pub fn matches(&self, probe: &[&[i64]], row: usize, hash: u64) -> Matches<'_> {
        let slot = self.find(hash, |at| self.same_key(probe, row, at));
        Matches {
            rows: self.rows,
            next: &self.next,
            item: self.slots[slot],
        }
    }

    /// Linear probe from `hash`'s home slot to the slot holding an equal
    /// key (`hit(position of the slot's head row)`), or the free slot
    /// that ends the run.
    fn find(&self, hash: u64, hit: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> self.shift) as usize;
        loop {
            let head = self.slots[slot];
            if head == EMPTY || hit(self.rows[head as usize] as usize) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Row `row` of `other` against this table's own key row `at`.
    fn same_key(&self, other: &[&[i64]], row: usize, at: usize) -> bool {
        other.iter().zip(self.keys).all(|(o, k)| o[row] == k[at])
    }
}

/// Iterator over one key's chain, see [`KeyTable::matches`].
pub struct Matches<'t> {
    rows: &'t [u32],
    next: &'t [u32],
    item: u32,
}

impl Iterator for Matches<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.item == EMPTY {
            return None;
        }
        let i = self.item as usize;
        // An unchained table (insert-if-absent) holds one row per key.
        self.item = self.next.get(i).copied().unwrap_or(EMPTY);
        Some(self.rows[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Build over `rows`, probe with every row of `probe`, dedup `rows`
    /// — all against a `BTreeMap<tuple, positions>` reference. `hashes`
    /// are the caller's, so a test can force collisions.
    fn check(
        build: &[Vec<i64>],
        probe: &[Vec<i64>],
        rows: &[u32],
        hash: impl Fn(&[&[i64]], usize) -> Vec<u64>,
    ) {
        let bkeys: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
        let pkeys: Vec<&[i64]> = probe.iter().map(Vec::as_slice).collect();
        let (bn, pn) = (build[0].len(), probe[0].len());
        let (bh, ph) = (hash(&bkeys, bn), hash(&pkeys, pn));
        let tuple =
            |cols: &[Vec<i64>], r: usize| -> Vec<i64> { cols.iter().map(|c| c[r]).collect() };
        let mut want: BTreeMap<Vec<i64>, Vec<u32>> = BTreeMap::new();
        for &r in rows {
            want.entry(tuple(build, r as usize)).or_default().push(r);
        }

        let table = KeyTable::build(&bkeys, &bh, rows);
        for (r, &h) in ph.iter().enumerate() {
            let got: Vec<u32> = table.matches(&pkeys, r, h).collect();
            let expect = want.get(&tuple(probe, r)).cloned().unwrap_or_default();
            assert_eq!(
                got, expect,
                "probe row {r} of {probe:?} in {build:?} over {rows:?}"
            );
        }

        let mut set = KeyTable::new(&bkeys, &bh, rows);
        let firsts: Vec<u32> = (0..rows.len())
            .filter(|&i| set.insert_if_absent(i))
            .map(|i| rows[i])
            .collect();
        let mut expect: Vec<u32> = want.values().map(|v| v[0]).collect();
        expect.sort_unstable();
        assert_eq!(
            firsts, expect,
            "first occurrences of {build:?} over {rows:?}"
        );
        // The unchained table answers "present?" with its one row per key.
        for (r, &h) in ph.iter().enumerate() {
            let got: Vec<u32> = set.matches(&pkeys, r, h).collect();
            let expect: Vec<u32> = want
                .get(&tuple(probe, r))
                .map(|v| v[0])
                .into_iter()
                .collect();
            assert_eq!(got, expect);
        }
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Small draws mapped onto narrow codes, negatives and the extremes.
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
        fn table_matches_btreemap_reference(
            raw in proptest::collection::vec(0i64..12, 0..180),
            nkeys in 1usize..4,
            alphabet in 1i64..13,
            extremes in proptest::any::<bool>(),
            stride in 1usize..4,
        ) {
            // One draw feeds both sides: the first half builds, the rest probes.
            let n = raw.len() / nkeys / 2;
            let col = |k: usize, off: usize| -> Vec<i64> {
                raw[(2 * k) * n + off..][..n].iter().map(|&v| spread(v % alphabet, extremes)).collect()
            };
            let build: Vec<Vec<i64>> = (0..nkeys).map(|k| col(k, 0)).collect();
            let probe: Vec<Vec<i64>> = (0..nkeys).map(|k| col(k, n)).collect();
            // A partition: every `stride`-th position, ascending.
            let rows: Vec<u32> = (0..n as u32).step_by(stride).collect();
            check(&build, &probe, &rows, hash_rows);
            // Every key in one probe run: equality alone must decide.
            check(&build, &probe, &rows, |_, n| vec![7 << 61; n]);
        }
    }

    #[test]
    fn edge_shapes() {
        check(&[Vec::new()], &[vec![1, 2]], &[], hash_rows);
        check(&[vec![5]], &[vec![5, 6]], &[0], hash_rows);
        check(&[vec![7; 40]], &[vec![7, 8]], &all_rows(40), hash_rows);
        let distinct: Vec<i64> = (0..300).map(|i| i * 1_000_003).collect();
        let distinct = [distinct];
        check(&distinct, &distinct, &all_rows(300), hash_rows);
        check(
            &[vec![i64::MAX, i64::MIN, 0, i64::MIN, i64::MAX]],
            &[vec![i64::MIN, i64::MAX, 1]],
            &all_rows(5),
            hash_rows,
        );
        // Duplicate-heavy composite keys.
        let a: Vec<i64> = (0..200).map(|i| i % 3).collect();
        let b: Vec<i64> = (0..200).map(|i| -(i % 2)).collect();
        check(&[a.clone(), b.clone()], &[a, b], &all_rows(200), hash_rows);
    }

    #[test]
    fn forced_collisions_at_capacity_eight() {
        // Four rows size the table at its 8-slot floor; one shared hash
        // sends every key to the last slot, so the probe run wraps.
        let build = [vec![10, 20, 10, 30]];
        let rows = all_rows(4);
        let keys: Vec<&[i64]> = build.iter().map(Vec::as_slice).collect();
        let hashes = vec![u64::MAX; 4];
        let t = KeyTable::build(&keys, &hashes, &rows);
        assert_eq!(t.slots.len(), 8);
        assert_eq!(
            t.matches(&keys, 0, u64::MAX).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(t.matches(&keys, 3, u64::MAX).collect::<Vec<_>>(), vec![3]);
        let probe: [&[i64]; 1] = [&[40]];
        assert_eq!(t.matches(&probe, 0, u64::MAX).count(), 0);
        check(&build, &[vec![10, 20, 30, 40]], &rows, |_, n| {
            vec![u64::MAX; n]
        });
    }

    #[test]
    fn hash_is_stable_and_partitions_spread() {
        let k: Vec<i64> = (0..16_000).collect();
        let h = hash_rows(&[&k], k.len());
        assert_eq!(h, hash_rows(&[&k], k.len()), "seed-free");
        let mut sizes = [0usize; 16];
        for &x in &h {
            sizes[partition_of(x, 16)] += 1;
        }
        assert!(sizes.iter().all(|&s| (800..1200).contains(&s)), "{sizes:?}");
        // Zero key columns: every row is the same (empty) key.
        assert_eq!(hash_rows(&[], 3).len(), 3);
    }
}
