//! Tables over composite integer keys (equal-length `i64` code columns):
//! [`Direct`], the one rule that decides whether keys — any number of
//! them — index a table by value, and the slots they index it by, read
//! by every such table (`group_rows`' direct arm, the aggregate's direct
//! fold, a [`KeyTable`]'s direct arm); and [`KeyTable`], the build/probe
//! structure of the join and the seen-set of DISTINCT.
//!
//! A [`KeyTable`] holds `u32` row indices with one shared `next` chain
//! for duplicate keys: no per-key vector, no per-row key object. Its
//! caller picks one of two slot rules ([`Index`]):
//!
//! * **hash** — open addressing keyed on a row's composite hash, computed
//!   once ([`hash_rows`]) and reused by everything downstream: the
//!   exchange takes the low bits ([`partition_of`]), the table the high
//!   bits, so one partition's keys still spread over its whole table.
//!   Keys are compared by reading the code columns at the stored
//!   position.
//! * **direct** — the [`Direct`] slot of the row's keys: no hash is
//!   computed, no key is compared and no exchange is needed (the table
//!   is small enough to build whole). When no key repeats over the rows
//!   (a dense primary key), the table is **unique**: each slot holds its
//!   key's row itself, and a probe is one slot read
//!   ([`KeyTable::row_of`]).
//!
//! There are two hash tables, and they stay two. `group_rows`' hash arm
//! starts at 64 slots, grows, and seeds its hash per call: a grouping's
//! distinct count is unknown until it is done, and its keys are user
//! data. A [`KeyTable`]'s hash arm is sized once from its row list and is
//! seed-free, because exchange partitions must agree across workers,
//! morsels and runs.

use crate::sort::mix;

/// Marks a free slot and the end of a duplicate chain.
const EMPTY: u32 = u32::MAX;

/// Largest direct-index table, in slots, for `visited` rows — the one
/// density threshold, read only by [`Direct`]. The table is allocated at
/// exactly the keys' span, so tiny inputs pay for tiny tables; above a
/// few slots per row the hash table's O(distinct) footprint wins.
pub fn direct_limit(visited: usize) -> u128 {
    (visited.saturating_mul(4)).clamp(64, 1 << 30) as u128
}

/// Composite-key hash of each of `rows` rows: one folded-multiply round
/// (the mixer [`crate::sort::group_rows`] hashes with) per key column.
/// Deterministic and seed-free — partition assignment has to agree
/// across threads, morsels and runs — so, like any fixed hash, it does
/// not defend against keys crafted to collide.
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

/// The direct index of composite integer keys: key `i` ranges over
/// `loᵢ..loᵢ + spanᵢ`, and a tuple in range has the slot
/// `Σ (kᵢ − loᵢ)·strideᵢ`, the last key's stride 1 — so slot order is
/// lexicographic tuple order. Every other tuple, and every row a mask
/// drops, has the spare slot [`Direct::slots`], which no tuple shares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Direct {
    /// Per key: `(lo, span, stride)`.
    keys: Vec<(i64, u64, u32)>,
    slots: usize,
}

impl Direct {
    /// The direct index of keys whose ranges over the `visited` rows it
    /// will index are `ranges` (each key's smallest value and span) —
    /// `Some` when the product of the spans is at most
    /// [`direct_limit`]`(visited)`. The product saturates, so an overflow
    /// is never direct. A known domain may stand in for a scan: a
    /// dictionary column's codes range over `(0, its size)`.
    pub fn new(ranges: &[(i64, u128)], visited: usize) -> Option<Direct> {
        let slots = (ranges.iter()).fold(1u128, |p, &(_, span)| p.saturating_mul(span));
        if slots > direct_limit(visited) {
            return None;
        }
        // With no slot at all every row is spare: spans of zero miss.
        // Otherwise every span, and so every stride, is below 2³⁰.
        let mut stride = 1;
        let mut keys: Vec<_> = (ranges.iter().rev())
            .map(|&(lo, span)| {
                let span = if slots == 0 { 0 } else { span as u64 };
                let key = (lo, span, stride);
                stride *= span.max(1) as u32;
                key
            })
            .collect();
        keys.reverse();
        Some(Direct {
            keys,
            slots: slots as usize,
        })
    }

    /// The direct index of `keys` over the rows `mask` keeps (every row
    /// without one), from their scanned ranges ([`Direct::new`]). Rows
    /// the mask drops set no range, so they may hold any key.
    pub fn of(keys: &[&[i64]], mask: Option<&[bool]>) -> Option<Direct> {
        let rows = keys.first().map_or(0, |k| k.len());
        let visited = mask.map_or(rows, |m| m.iter().filter(|&&keep| keep).count());
        // Each key's smallest value and span over the kept rows, with
        // branchless selects; a span of zero when no row is kept.
        let range = |key: &[i64]| {
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            match mask {
                None => key.iter().for_each(|&v| (lo, hi) = (lo.min(v), hi.max(v))),
                Some(m) => {
                    for (&v, &keep) in key.iter().zip(m) {
                        lo = lo.min(if keep { v } else { i64::MAX });
                        hi = hi.max(if keep { v } else { i64::MIN });
                    }
                }
            }
            match lo > hi {
                true => (0, 0),
                false => (lo, (hi as i128 - lo as i128 + 1) as u128),
            }
        };
        let ranges: Vec<(i64, u128)> = keys.iter().map(|k| range(k)).collect();
        Direct::new(&ranges, visited)
    }

    /// Slots of the table; also the spare slot.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Each row's slot, computed column by column by Horner's rule
    /// (`slot · spanᵢ + offᵢ`, so the first key's offset needs no
    /// multiply, which a baseline x86 vector unit lacks for 32-bit
    /// lanes): the spare slot for a row `mask` drops or one with any key
    /// outside its range. A miss saturates the running slot, which
    /// in-range offsets (summing below `slots`) never reach, and the last
    /// key caps it at the spare slot.
    pub fn index(&self, keys: &[&[i64]], mask: Option<&[bool]>) -> Vec<u32> {
        assert!(
            !keys.is_empty() && keys.len() == self.keys.len(),
            "one column per key"
        );
        let rows = keys[0].len();
        assert!(
            mask.is_none_or(|m| m.len() == rows),
            "one mask entry per key row"
        );
        let cap = |i: usize| {
            if i + 1 == keys.len() {
                self.slots as u32
            } else {
                u32::MAX
            }
        };
        let ((lo, span, _), miss) = (self.keys[0], cap(0));
        let first = |v: i64, keep: bool| {
            let off = v.wrapping_sub(lo) as u64;
            if keep && off < span {
                off as u32
            } else {
                miss
            }
        };
        let mut ids: Vec<u32> = match mask {
            None => keys[0].iter().map(|&v| first(v, true)).collect(),
            Some(m) => (keys[0].iter().zip(m))
                .map(|(&v, &keep)| first(v, keep))
                .collect(),
        };
        for (i, (k, &(lo, span, _))) in keys.iter().zip(&self.keys).enumerate().skip(1) {
            assert_eq!(k.len(), rows, "one key code per row");
            let cap = cap(i);
            for (id, &v) in ids.iter_mut().zip(*k) {
                let off = v.wrapping_sub(lo) as u64;
                let slot = match off < span {
                    true => id.saturating_mul(span as u32).saturating_add(off as u32),
                    false => u32::MAX,
                };
                *id = slot.min(cap);
            }
        }
        ids
    }

    /// The key tuple of slot `slot` (below [`Direct::slots`]), most
    /// significant key first.
    pub fn tuple(&self, slot: usize) -> impl Iterator<Item = i64> + '_ {
        (self.keys.iter()).map(move |&(lo, span, stride)| {
            lo.wrapping_add((slot as u64 / stride as u64 % span) as i64)
        })
    }
}

/// How a [`KeyTable`] finds a key's slot — chosen by its caller.
#[derive(Clone, Copy)]
pub enum Index<'a> {
    /// Open addressing from each row's composite hash ([`hash_rows`] of
    /// the table's key columns).
    Hash(&'a [u64]),
    /// The keys' [`Direct`] slot ([`Direct::of`] over the table's rows).
    Direct(&'a Direct),
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
/// Either way a probe row is looked up by where [`KeyTable::locate`]
/// puts it: its hash on the hash arm, its [`Direct`] slot on the direct
/// arm. A hash table is sized once at twice the row count rounded up to
/// a power of two (at least 8 slots), so it never grows and an empty
/// input pays 32 bytes; a direct table has exactly [`Direct::slots`]
/// slots.
pub struct KeyTable<'a> {
    keys: &'a [&'a [i64]],
    rows: &'a [u32],
    index: Index<'a>,
    /// Direct arm: the slot of every position of the key columns.
    at: Vec<u32>,
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
        let (cap, shift, at) = match index {
            Index::Hash(_) => {
                let cap = (rows.len() * 2).next_power_of_two().max(8);
                (cap, 64 - cap.trailing_zeros(), Vec::new())
            }
            Index::Direct(d) => (d.slots(), 0, d.index(keys, None)),
        };
        KeyTable {
            keys,
            rows,
            index,
            at,
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

    /// Where each row of the `probe` code columns is looked up: its
    /// [`hash_rows`] hash on the hash arm, its [`Direct`] slot on the
    /// direct arm (the spare slot, past the table, for a key it cannot
    /// hold).
    pub fn locate(&self, probe: &[&[i64]], rows: usize) -> Vec<u64> {
        match self.index {
            Index::Hash(_) => hash_rows(probe, rows),
            Index::Direct(d) => d.index(probe, None).into_iter().map(u64::from).collect(),
        }
    }

    /// The one position holding the key located at `at`
    /// ([`KeyTable::locate`]) in a [`KeyTable::unique`] table — one slot
    /// read, no chain — or `None` when no row holds it.
    pub fn row_of(&self, at: u64) -> Option<u32> {
        debug_assert!(self.unique, "row_of reads a unique table");
        self.slots.get(at as usize).copied().filter(|&r| r != EMPTY)
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
    /// `probe` code columns, located at `at` ([`KeyTable::locate`]).
    /// Ascending after [`KeyTable::build`]. A [`KeyTable::unique`] table
    /// is read with [`KeyTable::row_of`] instead.
    pub fn matches(&self, probe: &[&[i64]], row: usize, at: u64) -> Matches<'_> {
        debug_assert!(!self.unique, "a unique table is read with row_of");
        let item = match self.index {
            Index::Hash(_) => self.slots[self.find(at, |pos| self.same_key(probe, row, pos))],
            Index::Direct(_) => self.slots.get(at as usize).copied().unwrap_or(EMPTY),
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
            Index::Direct(d) => {
                let slot = self.at[pos] as usize;
                assert!(slot < d.slots(), "rows lie in the range");
                slot
            }
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

    /// `at` locates each probe row: its hash on the hash arm (the
    /// caller's, so a test can force collisions), its slot on the direct.
    fn answers(
        bkeys: &[&[i64]],
        pkeys: &[&[i64]],
        index: Index,
        at: &[u64],
        rows: &[u32],
    ) -> Answers {
        let table = KeyTable::build(bkeys, index, rows);
        let probe = |t: &KeyTable| -> Vec<Vec<u32>> {
            (at.iter().enumerate())
                .map(|(r, &at)| match t.unique() {
                    true => t.row_of(at).into_iter().collect(),
                    false => t.matches(pkeys, r, at).collect(),
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

    /// The mask keeping exactly `rows` of `n` positions.
    fn mask_of(rows: &[u32], n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        rows.iter().for_each(|&r| mask[r as usize] = true);
        mask
    }

    /// Build over `rows`, probe with every row of `probe`, dedup `rows`
    /// — all against a `BTreeMap<tuple, positions>` reference. `hashes`
    /// are the caller's, so a test can force collisions. Where the keys
    /// admit a direct-index table ([`Direct::of`], under the mask keeping
    /// `rows` unless they are every position), it must answer exactly what the hash table does; returns
    /// whether one was built.
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

        // Every position listed: no mask.
        let mask = (rows.len() != bn).then(|| mask_of(rows, bn));
        let Some(direct) = Direct::of(&bkeys, mask.as_deref()) else {
            return false;
        };
        let at: Vec<u64> = (direct.index(&pkeys, None).into_iter())
            .map(u64::from)
            .collect();
        let slots = answers(&bkeys, &pkeys, Index::Direct(&direct), &at, rows);
        assert_eq!(slots, hashed, "direct arm of {build:?} over {rows:?}");
        // A probe row's slot is the spare exactly when some key of it is
        // outside that key's range, so it never aliases another key.
        let table = KeyTable::new(&bkeys, Index::Direct(&direct), rows);
        assert_eq!(table.locate(&pkeys, pn), at);
        let in_range = |r: usize| {
            let tuple = tuple(probe, r);
            let (lo, hi) = (0..build.len())
                .map(|k| {
                    let kept = rows.iter().map(|&b| build[k][b as usize]);
                    (kept.clone().min(), kept.max())
                })
                .unzip::<_, _, Vec<_>, Vec<_>>();
            (tuple.iter().enumerate())
                .all(|(k, v)| lo[k].is_some_and(|lo| lo <= *v) && hi[k].is_some_and(|hi| *v <= hi))
        };
        for (r, &at) in at.iter().enumerate() {
            assert_eq!(at < direct.slots() as u64, in_range(r), "probe row {r}");
        }
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
        /// One, two or three key columns: the direct arm is taken exactly
        /// when the product of the build rows' spans fits [`direct_limit`],
        /// and then answers exactly what the hash arm does — negative
        /// keys, `i64` extremes whose span product overflows, probe rows
        /// with one key in range and another not, and masks (partitions of
        /// every stride).
        #[test]
        fn direct_arm_is_the_hash_arm(
            raw in proptest::collection::vec(-40i64..40, 0..240),
            probe in proptest::collection::vec(-70i64..70, 3..180),
            nkeys in 1usize..4,
            narrow in 1i64..41,
            spread in 0usize..4,
            stride in 1usize..4,
        ) {
            let scale = [1i64, 7, 1_000, i64::MAX / 40][spread];
            let (n, pn) = (raw.len() / nkeys, probe.len() / nkeys);
            // Values below `narrow` in magnitude, key 0 scaled: spans on
            // both sides of the limit, and at the widest scale a product
            // that overflows. Probe values reach three past the build's.
            let col = |v: &[i64], k: usize, len: usize, m: i64| -> Vec<i64> {
                let s = if k == 0 { scale } else { 1 };
                v[k * len..][..len].iter().map(|&x| (x % m).saturating_mul(s)).collect()
            };
            let build: Vec<Vec<i64>> = (0..nkeys).map(|k| col(&raw, k, n, narrow)).collect();
            let probe: Vec<Vec<i64>> = (0..nkeys).map(|k| col(&probe, k, pn, narrow + 3)).collect();
            let rows: Vec<u32> = (0..n as u32).step_by(stride).collect();
            let slots = (0..nkeys).try_fold(1u128, |p, k| {
                let kept = rows.iter().map(|&r| build[k][r as usize]);
                let span = kept.clone().max().zip(kept.min()).map(|(hi, lo)| (hi as i128 - lo as i128 + 1) as u128);
                Some(p.saturating_mul(span?))
            });
            let direct = check(&build, &probe, &rows, hash_rows);
            proptest::prop_assert_eq!(direct, slots.is_none_or(|s| s <= direct_limit(rows.len())));
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
            if let Some(direct) = Direct::of(&keys, Some(&mask_of(&rows, build.len()))) {
                let mut seen = std::collections::BTreeSet::new();
                let repeats = rows.iter().any(|&r| !seen.insert(build[r as usize]));
                let table = KeyTable::build(&keys, Index::Direct(&direct), &rows);
                proptest::prop_assert_eq!(table.unique(), !repeats);
                let hashes = hash_rows(&keys, build.len());
                let chained = KeyTable::build(&keys, Index::Hash(&hashes), &rows);
                let probe_keys: [&[i64]; 1] = [&probe];
                let probe_hashes = chained.locate(&probe_keys, probe.len());
                let slots = table.locate(&probe_keys, probe.len());
                for (r, (&h, &at)) in probe_hashes.iter().zip(&slots).enumerate() {
                    let walk: Vec<u32> = chained.matches(&probe_keys, r, h).collect();
                    let direct: Vec<u32> = match table.unique() {
                        true => table.row_of(at).into_iter().collect(),
                        false => table.matches(&probe_keys, r, at).collect(),
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
        // The limit is inclusive: 4 slots a row (64 at least), the
        // product of the spans over two keys.
        let at = |slots: i64, rows: usize| {
            let mut key = vec![0; rows];
            key[rows - 1] = slots - 1;
            Direct::of(&[&key], None).map(|d| d.slots())
        };
        assert_eq!(at(64, 2), Some(64));
        assert_eq!(at(65, 2), None);
        assert_eq!(at(400, 100), Some(400));
        assert_eq!(at(401, 100), None);
        let pair = |a: i64, b: i64| Direct::of(&[&[0, a - 1], &[0, b - 1]], None);
        assert_eq!(pair(8, 8).map(|d| d.slots()), Some(64));
        assert_eq!(pair(13, 5), None);
        // Spans whose product overflows `u128` saturate: never direct.
        let wide = [i64::MIN, i64::MAX];
        assert_eq!(Direct::of(&[&wide, &wide, &wide], None), None);
        // Slots are lexicographic; a key outside its range is spare.
        let d = pair(3, 4).expect("12 slots");
        let probe: [&[i64]; 2] = [&[0, 2, 1, 3, -1, 2], &[0, 3, 2, 0, 0, 4]];
        assert_eq!(d.index(&probe, None), vec![0, 11, 6, 12, 12, 12]);
        assert_eq!(d.tuple(6).collect::<Vec<_>>(), vec![1, 2]);
        let mask = [true, false, true, true, true, true];
        assert_eq!(d.index(&probe, Some(&mask)), vec![0, 12, 6, 12, 12, 12]);
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
