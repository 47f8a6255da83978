//! Flat tables over composite integer keys — the build/probe structure
//! of the join and the seen-set of DISTINCT.
//!
//! Keys are equal-length `i64` code columns. A [`KeyTable`] holds `u32`
//! row indices with one shared `next` chain for duplicate keys: no
//! per-key vector, no per-row key object. Its caller picks one of two
//! slot rules ([`Index`]):
//!
//! * **hash** — open addressing keyed on a row's composite hash, computed
//!   once ([`hash_rows`]) and reused by everything downstream: the
//!   exchange takes the low bits ([`partition_of`]), the table the high
//!   bits, so one partition's keys still spread over its whole table.
//!   Keys are compared by reading the code columns at the stored
//!   position.
//! * **direct** — one key column whose span over the rows is within
//!   [`direct_limit`] ([`Direct::of`]): the slot *is* the key minus the
//!   smallest key, so no hash is computed, no key is compared and no
//!   exchange is needed (the table is small enough to build whole).
//!   When no key repeats over the rows (a dense primary key), the table
//!   is **unique**: each slot holds its key's row itself, and a probe is
//!   one slot read ([`KeyTable::row_of`]).

use crate::sort::{direct_limit, mix};

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

/// The key range of a direct-index table: slot `key − lo` for keys in
/// `lo..lo + slots`; every other key is absent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Direct {
    lo: i64,
    slots: usize,
}

impl Direct {
    /// The direct-index range of `keys` over `rows`: `Some` when there is
    /// exactly one key column and its span over `rows` is at most
    /// [`direct_limit`]`(rows.len())` slots (an empty `rows` spans none).
    /// A span that overflows `i64` is never direct.
    pub fn of(keys: &[&[i64]], rows: &[u32]) -> Option<Direct> {
        let [key] = keys else { return None };
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for &r in rows {
            let v = key[r as usize];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if rows.is_empty() {
            return Some(Direct { lo: 0, slots: 0 });
        }
        let span = (hi as i128 - lo as i128 + 1) as u128;
        (span <= direct_limit(rows.len())).then_some(Direct {
            lo,
            slots: span as usize,
        })
    }

    /// Slots of the table.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The slot of key `v`, `None` outside the range. `v − lo` wraps onto
    /// `0..2⁶⁴` bijectively, so exactly the keys in range land below
    /// `slots`.
    fn slot(&self, v: i64) -> Option<usize> {
        let off = v.wrapping_sub(self.lo) as u64;
        (off < self.slots as u64).then_some(off as usize)
    }
}

/// How a [`KeyTable`] finds a key's slot — chosen by its caller.
#[derive(Clone, Copy)]
pub enum Index<'a> {
    /// Open addressing from each row's composite hash ([`hash_rows`] of
    /// the table's key columns; a probe passes its own row's hash).
    Hash(&'a [u64]),
    /// The key itself, offset ([`Direct::of`] over the table's rows).
    Direct(Direct),
}

/// A table over the rows `rows` (ascending positions into the key
/// columns). Items are indices into `rows`; two ways to fill it:
///
/// * [`KeyTable::build`] chains every row: [`KeyTable::matches`] then
///   yields the positions holding a probe key in **ascending** order —
///   rows are inserted last to first, each at the head of its key's
///   chain, so following `next` from the head walks upwards. A direct
///   table whose rows repeat no key is [`KeyTable::unique`] instead: its
///   slots hold the positions themselves and no chain exists, so
///   [`KeyTable::row_of`] answers a probe key with one slot read — what
///   the chained walk would yield, its only match. [`KeyTable::matches`]
///   does not read a unique table: one reader per arm.
/// * [`KeyTable::new`] + [`KeyTable::insert_if_absent`] keeps the first
///   row of each key only (no chain is allocated).
///
/// A hash table is sized once at twice the row count rounded up to a
/// power of two (at least 8 slots), so it never grows and an empty input
/// pays 32 bytes; a direct table has exactly [`Direct::slots`] slots.
pub struct KeyTable<'a> {
    keys: &'a [&'a [i64]],
    rows: &'a [u32],
    index: Index<'a>,
    /// Item at the head of each occupied slot's chain — or, in a unique
    /// table, the position (entry of `rows`) of the slot's one row.
    slots: Vec<u32>,
    /// `next[i]`: the next item with item `i`'s key (empty when unique).
    next: Vec<u32>,
    /// Hash arm: the shift that takes a hash's high bits to a slot.
    shift: u32,
    /// Built on the direct arm with no key repeated.
    unique: bool,
}

impl<'a> KeyTable<'a> {
    /// An empty table able to hold every row of `rows`.
    pub fn new(keys: &'a [&'a [i64]], index: Index<'a>, rows: &'a [u32]) -> KeyTable<'a> {
        assert!(rows.len() < EMPTY as usize / 2, "table items are 32-bit");
        let (cap, shift) = match index {
            Index::Hash(_) => {
                let cap = (rows.len() * 2).next_power_of_two().max(8);
                (cap, 64 - cap.trailing_zeros())
            }
            Index::Direct(d) => (d.slots, 0),
        };
        KeyTable {
            keys,
            rows,
            index,
            slots: vec![EMPTY; cap],
            next: Vec::new(),
            shift,
            unique: false,
        }
    }

    /// The table over all of `rows`, duplicates chained in ascending
    /// order — or, on the direct arm with no key repeated, the unique
    /// table of positions.
    pub fn build(keys: &'a [&'a [i64]], index: Index<'a>, rows: &'a [u32]) -> KeyTable<'a> {
        let mut t = KeyTable::new(keys, index, rows);
        t.next = vec![EMPTY; rows.len()];
        let mut repeated = false;
        for i in (0..rows.len()).rev() {
            let slot = t.own_slot(i);
            repeated |= t.slots[slot] != EMPTY;
            t.next[i] = t.slots[slot];
            t.slots[slot] = i as u32;
        }
        if matches!(index, Index::Direct(_)) && !repeated {
            for s in t.slots.iter_mut().filter(|s| **s != EMPTY) {
                *s = rows[*s as usize];
            }
            t.next = Vec::new();
            t.unique = true;
        }
        t
    }

    /// Whether this is a unique table: built on the direct arm, no key
    /// repeated over its rows.
    pub fn unique(&self) -> bool {
        self.unique
    }

    /// The one position holding key `key` in a [`KeyTable::unique`]
    /// table — one slot read, no chain — or `None` when no row holds it.
    pub fn row_of(&self, key: i64) -> Option<u32> {
        debug_assert!(self.unique, "row_of reads a unique table");
        let Index::Direct(d) = self.index else {
            return None;
        };
        d.slot(key)
            .map(|s| self.slots[s])
            .filter(|&row| row != EMPTY)
    }

    /// Insert item `i` (the row `rows[i]`) unless its key is already
    /// present; `true` when it was inserted.
    pub fn insert_if_absent(&mut self, i: usize) -> bool {
        let slot = self.own_slot(i);
        let fresh = self.slots[slot] == EMPTY;
        if fresh {
            self.slots[slot] = i as u32;
        }
        fresh
    }

    /// Positions (entries of `rows`) whose key equals row `row` of the
    /// `probe` code columns, given that row's hash (ignored by a direct
    /// table). Ascending after [`KeyTable::build`]. A
    /// [`KeyTable::unique`] table is read with [`KeyTable::row_of`]
    /// instead.
    pub fn matches(&self, probe: &[&[i64]], row: usize, hash: u64) -> Matches<'_> {
        debug_assert!(!self.unique, "a unique table is read with row_of");
        let item = match self.index {
            Index::Hash(_) => self.slots[self.find(hash, |at| self.same_key(probe, row, at))],
            Index::Direct(d) => d.slot(probe[0][row]).map_or(EMPTY, |s| self.slots[s]),
        };
        Matches {
            rows: self.rows,
            next: &self.next,
            item,
        }
    }

    /// The slot of item `i`'s own key: where it chains, or the one it
    /// finds taken.
    fn own_slot(&self, i: usize) -> usize {
        let pos = self.rows[i] as usize;
        match self.index {
            Index::Hash(hashes) => self.find(hashes[pos], |at| self.same_key(self.keys, pos, at)),
            Index::Direct(d) => d.slot(self.keys[0][pos]).expect("rows lie in the range"),
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
        // An unchained (insert-if-absent) table holds one row per key.
        self.item = self.next.get(i).copied().unwrap_or(EMPTY);
        Some(self.rows[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// What a table answers, whatever its arm: each probe row's matches
    /// after [`KeyTable::build`], then an insert-if-absent sweep's first
    /// occurrences and each probe row's answer from that unchained set.
    type Answers = (Vec<Vec<u32>>, Vec<u32>, Vec<Vec<u32>>);

    fn answers(
        bkeys: &[&[i64]],
        pkeys: &[&[i64]],
        index: Index,
        ph: &[u64],
        rows: &[u32],
    ) -> Answers {
        let table = KeyTable::build(bkeys, index, rows);
        let probe = |t: &KeyTable| -> Vec<Vec<u32>> {
            (ph.iter().enumerate())
                .map(|(r, &h)| match t.unique() {
                    true => t.row_of(pkeys[0][r]).into_iter().collect(),
                    false => t.matches(pkeys, r, h).collect(),
                })
                .collect()
        };
        let matches = probe(&table);
        let mut set = KeyTable::new(bkeys, index, rows);
        let firsts = (0..rows.len())
            .filter(|&i| set.insert_if_absent(i))
            .map(|i| rows[i])
            .collect();
        (matches, firsts, probe(&set))
    }

    /// Build over `rows`, probe with every row of `probe`, dedup `rows`
    /// — all against a `BTreeMap<tuple, positions>` reference. `hashes`
    /// are the caller's, so a test can force collisions. Where the keys
    /// admit a direct-index table ([`Direct::of`]), it must answer exactly
    /// what the hash table does; returns whether one was built.
    fn check(
        build: &[Vec<i64>],
        probe: &[Vec<i64>],
        rows: &[u32],
        hash: impl Fn(&[&[i64]], usize) -> Vec<u64>,
    ) -> bool {
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

        let hashed = answers(&bkeys, &pkeys, Index::Hash(&bh), &ph, rows);
        let (matches, firsts, present) = &hashed;
        for (r, got) in matches.iter().enumerate() {
            let expect = want.get(&tuple(probe, r)).cloned().unwrap_or_default();
            assert_eq!(
                *got, expect,
                "probe row {r} of {probe:?} in {build:?} over {rows:?}"
            );
        }
        let mut expect: Vec<u32> = want.values().map(|v| v[0]).collect();
        expect.sort_unstable();
        assert_eq!(
            *firsts, expect,
            "first occurrences of {build:?} over {rows:?}"
        );
        // The unchained table answers "present?" with its one row per key.
        for (r, got) in present.iter().enumerate() {
            let expect: Vec<u32> = want
                .get(&tuple(probe, r))
                .map(|v| v[0])
                .into_iter()
                .collect();
            assert_eq!(*got, expect);
        }

        let Some(direct) = Direct::of(&bkeys, rows) else {
            return false;
        };
        let direct = answers(&bkeys, &pkeys, Index::Direct(direct), &ph, rows);
        assert_eq!(direct, hashed, "direct arm of {build:?} over {rows:?}");
        true
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

    proptest::proptest! {
        /// One key column: the direct arm is taken exactly when the span
        /// of the build rows fits [`direct_limit`], and then answers
        /// exactly what the hash arm does — negative keys, probe keys
        /// either side of the range, partitions of every stride.
        #[test]
        fn direct_arm_is_the_hash_arm(
            raw in proptest::collection::vec(-40i64..40, 0..160),
            probe in proptest::collection::vec(-70i64..70, 1..60),
            spread in 0usize..3,
            stride in 1usize..4,
        ) {
            let scale = [1i64, 7, 1_000][spread];
            let build: Vec<i64> = raw.iter().map(|&v| v * scale).collect();
            let probe: Vec<i64> = probe.iter().map(|&v| v * scale).collect();
            let rows: Vec<u32> = (0..build.len() as u32).step_by(stride).collect();
            let kept = rows.iter().map(|&r| build[r as usize]);
            let span = kept.clone().max().zip(kept.min()).map(|(hi, lo)| (hi - lo + 1) as u128);
            let direct = check(&[build], &[probe], &rows, hash_rows);
            proptest::prop_assert_eq!(direct, span.is_none_or(|s| s <= direct_limit(rows.len())));
        }
    }

    proptest::proptest! {
        /// A direct build is unique exactly when no key repeats over its
        /// rows, and then its one-slot probe answers what the hash arm's
        /// chained walk does: the one matching position, or none.
        #[test]
        fn unique_arm_is_the_chained_walk(
            raw in proptest::collection::vec(-30i64..30, 0..120),
            probe in proptest::collection::vec(-50i64..50, 1..60),
            distinct in proptest::any::<bool>(),
            stride in 1usize..4,
        ) {
            // Half the draws are made distinct, so both outcomes occur.
            let build: Vec<i64> = match distinct {
                true => (0..raw.len() as i64).map(|i| if raw[i as usize] < 0 { -i } else { i }).collect(),
                false => raw.clone(),
            };
            let rows: Vec<u32> = (0..build.len() as u32).step_by(stride).collect();
            let keys: [&[i64]; 1] = [&build];
            // Spans past the direct limit hash: nothing to check.
            if let Some(direct) = Direct::of(&keys, &rows) {
                let mut seen = std::collections::BTreeSet::new();
                let repeats = rows.iter().any(|&r| !seen.insert(build[r as usize]));
                let table = KeyTable::build(&keys, Index::Direct(direct), &rows);
                proptest::prop_assert_eq!(table.unique(), !repeats);
                let hashes = hash_rows(&keys, build.len());
                let chained = KeyTable::build(&keys, Index::Hash(&hashes), &rows);
                let probe_keys: [&[i64]; 1] = [&probe];
                let probe_hashes = hash_rows(&probe_keys, probe.len());
                for (r, &h) in probe_hashes.iter().enumerate() {
                    let walk: Vec<u32> = chained.matches(&probe_keys, r, h).collect();
                    let direct: Vec<u32> = match table.unique() {
                        true => table.row_of(probe[r]).into_iter().collect(),
                        false => table.matches(&probe_keys, r, h).collect(),
                    };
                    proptest::prop_assert_eq!(&direct, &walk);
                }
            }
        }
    }

    #[test]
    fn direct_range_edges() {
        // An empty build spans nothing: every probe misses.
        assert!(check(&[Vec::new()], &[vec![0, i64::MIN]], &[], hash_rows));
        // A span past `i64` (and past the limit) always hashes.
        let wild = [vec![i64::MIN, 0, i64::MAX]];
        assert!(!check(&wild, &[vec![i64::MAX, 1]], &all_rows(3), hash_rows));
        assert!(!check(
            &[vec![i64::MIN, i64::MAX]],
            &wild,
            &all_rows(2),
            hash_rows
        ));
        // The extremes themselves index directly when they are the range.
        let top = [vec![i64::MAX, i64::MAX - 2, i64::MAX]];
        let probe = [vec![i64::MAX, i64::MAX - 1, i64::MIN, i64::MAX - 3, 0]];
        assert!(check(&top, &probe, &all_rows(3), hash_rows));
        let bottom = [vec![i64::MIN + 1, i64::MIN]];
        let probe = [vec![i64::MIN, i64::MAX, i64::MIN + 2, -1]];
        assert!(check(&bottom, &probe, &all_rows(2), hash_rows));
        // Only the rows listed set the range: a row outside `rows` may
        // hold any key.
        assert!(check(
            &[vec![3, i64::MIN, 5, 3]],
            &[vec![3, 5, i64::MIN]],
            &[0, 2, 3],
            hash_rows
        ));
        // The limit is inclusive: 4 slots a row (64 at least).
        let at = |slots: i64, rows: usize| {
            let mut key = vec![0; rows];
            key[rows - 1] = slots - 1;
            Direct::of(&[&key], &all_rows(rows)).map(|d| d.slots())
        };
        assert_eq!(at(64, 2), Some(64));
        assert_eq!(at(65, 2), None);
        assert_eq!(at(400, 100), Some(400));
        assert_eq!(at(401, 100), None);
        // Two key columns never index directly.
        assert_eq!(Direct::of(&[&[1, 2], &[1, 2]], &all_rows(2)), None);
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
        let t = KeyTable::build(&keys, Index::Hash(&hashes), &rows);
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
