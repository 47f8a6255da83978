//! The session catalog: a concurrent name → table registry, with
//! per-table zone maps and the vector-index registry riding along.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::table::{Table, TableStats};
use crate::vindex::VectorIndexEntry;
use crate::zonemap::TableZoneMaps;

/// A registered table and the zone maps that describe it, published
/// together: no reader sees one without the other.
#[derive(Debug, Clone)]
struct Entry {
    table: Arc<Table>,
    zone_maps: Arc<TableZoneMaps>,
}

/// Thread-safe table namespace. Registration replaces silently (matching
/// the paper's training loop, which re-registers the input tensor under the
/// same name every iteration — Listing 5, line 6).
///
/// Registration also computes [`TableZoneMaps`] for the new table and
/// **invalidates** any vector indexes built over the replaced table —
/// the write-invalidation half of the access-path contract: statistics
/// and indexes in the catalog always describe the table currently
/// registered under that name.
///
/// Table writers (register, append, drop) are serialised; readers never
/// wait for one beyond an in-place append of a batch.
///
/// Lock poisoning is recovered, not propagated: the maps hold complete
/// `Arc` values that are swapped in single `insert`/`remove` calls, and
/// an in-place append checks every column before it changes any, so a
/// thread that panicked while holding a lock cannot have left a
/// half-written entry behind. Recovering keeps one crashed worker from
/// wedging every other session sharing the engine.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Entry>>,
    /// Held by every table writer for its whole write: an append reads
    /// the entry it replaces, so a second write to the name in between
    /// would be lost (or a replaced table put back).
    writer: Mutex<()>,
    /// Vector indexes keyed by `table.column` (lowercased). Entries are
    /// removed whenever their table is re-registered or dropped.
    vector_indexes: RwLock<HashMap<String, Arc<VectorIndexEntry>>>,
    /// Stale-index ANN fallbacks per `table.column` key since that
    /// index was last (re)built — the trigger counter for opt-in
    /// auto-rebuild (`Session::set_ivf_rebuild_after`). Reset whenever an index
    /// is registered under the key.
    stale_ann: RwLock<HashMap<String, u64>>,
    /// Monotonic change counter, bumped on every register/append/drop
    /// (of tables) and register/drop (of vector indexes). Plan caches
    /// use it as a cheap "anything changed?" check before falling back
    /// to per-table schema validation.
    version: AtomicU64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Register (or replace) a table under its own name. Zone maps are
    /// recomputed for the new contents; vector indexes over the old
    /// contents are invalidated (a write makes them stale).
    pub fn register(&self, table: Table) -> Arc<Table> {
        let key = Self::key(table.name());
        let entry = Entry {
            zone_maps: Arc::new(TableZoneMaps::build(&table)),
            table: Arc::new(table),
        };
        let arc = Arc::clone(&entry.table);
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.tables
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key.clone(), entry);
        self.invalidate_indexes_of(&key);
        self.version.fetch_add(1, Ordering::Relaxed);
        arc
    }

    /// Append rows to a registered table. `rows` must have the table's
    /// column names in order (case-insensitive), each column of a type
    /// the stored one takes ([`Table::can_append`]); otherwise, or when
    /// no table is registered under the name, returns `false` and
    /// changes nothing.
    ///
    /// The append grows the stored columns copy-on-write
    /// ([`Table::append_rows`]). While the catalog is the only holder of
    /// the table and its buffers have room, they grow where they are and
    /// the append costs the batch, not the table. A snapshot taken before
    /// — an `Arc<Table>` from [`Catalog::get`], a query result sharing a
    /// column — keeps exactly the rows it saw, and costs the next append
    /// one copy of the table (made outside the lock readers take). Zone
    /// maps are **extended incrementally** ([`TableZoneMaps::extend`])
    /// and published with the grown table in one step. Unlike
    /// [`Catalog::register`], vector indexes over the table are *kept*:
    /// they no longer cover the new rows, and the execution layer
    /// detects the row-count mismatch at query time and falls back to an
    /// exact scan (counted as an IVF stale fallback) until the index is
    /// rebuilt.
    pub fn append(&self, name: &str, rows: &Table) -> bool {
        let key = Self::key(name);
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        let Some(entry) = tables.get_mut(&key) else {
            return false;
        };
        if !entry.table.can_append(rows) {
            return false;
        }
        if let Some(table) = Arc::get_mut(&mut entry.table) {
            if table.appends_in_place(rows) {
                table.append_rows(rows);
                entry.zone_maps = Arc::new(entry.zone_maps.extend(table));
                self.version.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        // Someone holds the table or a buffer of it (or a buffer is
        // full): grow a copy with readers free to `get` the old one.
        let old = entry.clone();
        drop(tables);
        let mut table = Table::clone(&old.table);
        table.append_rows(rows);
        let entry = Entry {
            zone_maps: Arc::new(old.zone_maps.extend(&table)),
            table: Arc::new(table),
        };
        self.tables
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, entry);
        self.version.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Zone maps of a table (always present for registered tables).
    pub fn zone_map(&self, name: &str) -> Option<Arc<TableZoneMaps>> {
        self.tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&Self::key(name))
            .map(|e| Arc::clone(&e.zone_maps))
    }

    /// Register (or replace) a vector index on `entry.table.column`.
    pub fn register_vector_index(&self, entry: VectorIndexEntry) -> Arc<VectorIndexEntry> {
        let key = format!("{}.{}", Self::key(&entry.table), Self::key(&entry.column));
        let arc = Arc::new(entry);
        let mut guard = self
            .vector_indexes
            .write()
            .unwrap_or_else(|e| e.into_inner());
        // An index name is unique: re-using one replaces the old index
        // even if it covered a different column.
        guard.retain(|_, e| !e.name.eq_ignore_ascii_case(&arc.name));
        guard.insert(key.clone(), Arc::clone(&arc));
        drop(guard);
        // A fresh build clears the stale-fallback tally for the key.
        self.stale_ann
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        self.version.fetch_add(1, Ordering::Relaxed);
        arc
    }

    /// Count one stale-index ANN fallback on `table.column`, returning
    /// the total since the index there was last (re)built. Executors
    /// call this each time a query planned for the IVF path had to
    /// degrade to the exact scan; auto-rebuild compares the total to
    /// its threshold.
    pub fn note_stale_ann(&self, table: &str, column: &str) -> u64 {
        let key = format!("{}.{}", Self::key(table), Self::key(column));
        let mut guard = self.stale_ann.write().unwrap_or_else(|e| e.into_inner());
        let n = guard.entry(key).or_insert(0);
        *n += 1;
        *n
    }

    /// Fetch the vector index on `table.column`, if one is registered.
    pub fn vector_index(&self, table: &str, column: &str) -> Option<Arc<VectorIndexEntry>> {
        let key = format!("{}.{}", Self::key(table), Self::key(column));
        self.vector_indexes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
            .cloned()
    }

    /// Drop a vector index by its (case-insensitive) name.
    pub fn drop_vector_index(&self, name: &str) -> bool {
        let mut guard = self
            .vector_indexes
            .write()
            .unwrap_or_else(|e| e.into_inner());
        let before = guard.len();
        guard.retain(|_, e| !e.name.eq_ignore_ascii_case(name));
        let dropped = guard.len() < before;
        drop(guard);
        if dropped {
            self.version.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// All registered vector indexes, sorted by name.
    pub fn vector_indexes(&self) -> Vec<Arc<VectorIndexEntry>> {
        let mut out: Vec<_> = self
            .vector_indexes
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Remove every vector index built over table `key` (lowercased).
    fn invalidate_indexes_of(&self, key: &str) {
        self.vector_indexes
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|_, e| Self::key(&e.table) != key);
    }

    /// Current value of the change counter (any register/append/drop
    /// bumps it).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Fetch a table by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&Self::key(name))
            .map(|e| Arc::clone(&e.table))
    }

    /// Remove a table (with its zone maps and vector indexes); returns
    /// whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        let key = Self::key(name);
        let _writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let existed = self
            .tables
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key)
            .is_some();
        if existed {
            self.invalidate_indexes_of(&key);
            self.version.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Registered table names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|e| e.table.name().to_owned())
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate statistics over all tables.
    pub fn stats(&self) -> TableStats {
        let guard = self.tables.read().unwrap_or_else(|e| e.into_inner());
        let mut total = TableStats {
            rows: 0,
            columns: 0,
            bytes: 0,
        };
        for e in guard.values() {
            let s = e.table.stats();
            total.rows += s.rows;
            total.columns += s.columns;
            total.bytes += s.bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use tdp_encoding::EncodedTensor;

    fn tbl(name: &str, n: usize) -> Table {
        TableBuilder::new()
            .col_f32("v", (0..n).map(|i| i as f32).collect())
            .build(name)
    }

    #[test]
    fn register_get_drop() {
        let cat = Catalog::new();
        cat.register(tbl("t1", 3));
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get("T1").unwrap().rows(), 3, "case-insensitive");
        assert!(cat.drop_table("t1"));
        assert!(!cat.drop_table("t1"));
        assert!(cat.get("t1").is_none());
    }

    #[test]
    fn re_register_replaces() {
        let cat = Catalog::new();
        cat.register(tbl("grid", 5));
        cat.register(tbl("grid", 9));
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get("grid").unwrap().rows(), 9);
    }

    #[test]
    fn version_bumps_on_register_and_drop() {
        let cat = Catalog::new();
        let v0 = cat.version();
        cat.register(tbl("t", 1));
        assert!(cat.version() > v0);
        let v1 = cat.version();
        cat.register(tbl("t", 2)); // replacement bumps too
        assert!(cat.version() > v1);
        let v2 = cat.version();
        assert!(cat.drop_table("t"));
        assert!(cat.version() > v2);
        let v3 = cat.version();
        assert!(!cat.drop_table("t"), "missing drop is a no-op");
        assert_eq!(cat.version(), v3);
    }

    #[test]
    fn zone_maps_follow_registration() {
        let cat = Catalog::new();
        cat.register(tbl("t", 4));
        let zm = cat.zone_map("T").expect("zone maps computed on register");
        assert_eq!(zm.range(0, 0, 4), Some((0.0, 3.0)));
        cat.register(tbl("t", 2));
        let zm = cat.zone_map("t").unwrap();
        assert_eq!(zm.range(0, 0, 4), Some((0.0, 1.0)), "recomputed on replace");
        cat.drop_table("t");
        assert!(cat.zone_map("t").is_none());
    }

    #[test]
    fn vector_indexes_invalidate_on_table_writes() {
        use crate::vindex::{VectorIndex, VectorIndexEntry};
        use tdp_index::{FlatIndex, Metric};
        use tdp_tensor::Tensor;

        let cat = Catalog::new();
        cat.register(tbl("docs", 2));
        let flat = FlatIndex::build(Tensor::from_vec(vec![0.0; 4], &[2, 2]), Metric::L2);
        cat.register_vector_index(VectorIndexEntry {
            name: "idx_docs".into(),
            table: "docs".into(),
            column: "emb".into(),
            metric: Metric::L2,
            rows: 2,
            index: VectorIndex::Flat(flat),
        });
        assert!(cat.vector_index("DOCS", "EMB").is_some(), "case-folded");
        let v = cat.version();
        // A write to the indexed table invalidates its indexes.
        cat.register(tbl("docs", 3));
        assert!(cat.vector_index("docs", "emb").is_none());
        assert!(cat.version() > v);
        assert!(!cat.drop_vector_index("idx_docs"), "already invalidated");
    }

    #[test]
    fn append_extends_rows_and_zone_maps() {
        let cat = Catalog::new();
        cat.register(tbl("t", 3));
        let v0 = cat.version();
        assert!(cat.append("T", &tbl("t", 2)), "schemas match");
        assert_eq!(cat.get("t").unwrap().rows(), 5);
        assert!(cat.version() > v0);
        let zm = cat.zone_map("t").unwrap();
        assert_eq!(zm.rows(), 5, "zone maps follow the append");
        assert_eq!(zm.range(0, 0, 5), Some((0.0, 2.0)));
        // Missing table or mismatched schema: rejected, no change.
        assert!(!cat.append("nope", &tbl("nope", 1)));
        let other = TableBuilder::new().col_i64("q", vec![1]).build("t");
        assert!(!cat.append("t", &other));
        assert_eq!(cat.get("t").unwrap().rows(), 5);
    }

    /// Every column's buffer, as an address.
    fn buffers(t: &Table) -> Vec<*const u8> {
        t.columns()
            .iter()
            .map(|c| match &c.data {
                EncodedTensor::F32(t) => t.data().as_ptr().cast(),
                EncodedTensor::I64(t) | EncodedTensor::Dict { codes: t, .. } => {
                    t.data().as_ptr().cast()
                }
                EncodedTensor::Bool(t) => t.data().as_ptr().cast(),
                other => panic!("no growable buffer in {other:?}"),
            })
            .collect()
    }

    /// `n` (≤ 100,000) rows of every growable layout, starting at row
    /// `from`. The string column is a slice of one stored column, so
    /// every batch shares its dictionary.
    fn rows_of(name: &str, from: usize, n: usize) -> Table {
        static WORDS: std::sync::OnceLock<EncodedTensor> = std::sync::OnceLock::new();
        let words = WORDS.get_or_init(|| {
            let words: Vec<String> = (0..1 << 17).map(|i| format!("w{}", i % 37)).collect();
            EncodedTensor::from_strings(&words)
        });
        TableBuilder::new()
            .col_i64("ts", (from..from + n).map(|i| i as i64).collect())
            .col_f32("v", (from..from + n).map(|i| (i % 101) as f32).collect())
            .col_bool("even", (from..from + n).map(|i| i % 2 == 0).collect())
            .col_encoded("s", words.slice_rows(from % 1_024, from % 1_024 + n))
            .build(name)
    }

    #[test]
    fn appends_grow_a_uniquely_held_table_in_place() {
        let cat = Catalog::new();
        cat.register(rows_of("t", 0, 1_000));
        // The first append copies into buffers with room to grow ...
        assert!(cat.append("t", &rows_of("t", 1_000, 64)));
        let at = buffers(&cat.get("t").unwrap());
        // ... which every further small append then fills in place.
        for i in 0..10 {
            assert!(cat.append("t", &rows_of("t", 1_064 + 64 * i, 64)));
            assert_eq!(buffers(&cat.get("t").unwrap()), at, "append {i}");
        }
        let t = cat.get("t").unwrap();
        assert_eq!(t.rows(), 1_704);
        let ts = t.column("ts").unwrap().data.decode_i64().to_vec();
        assert_eq!(ts, (0..1_704).collect::<Vec<i64>>());
        assert_eq!(*cat.zone_map("t").unwrap(), TableZoneMaps::build(&t));
    }

    #[test]
    fn snapshots_keep_the_rows_they_saw() {
        let cat = Catalog::new();
        cat.register(rows_of("t", 0, 100));
        assert!(cat.append("t", &rows_of("t", 100, 10)));
        let snapshot = cat.get("t").unwrap();
        let seen = snapshot.pretty(usize::MAX);
        let (at, zm) = (buffers(&snapshot), cat.zone_map("t").unwrap());
        // The snapshot holds the table: the next append grows a copy.
        assert!(cat.append("t", &rows_of("t", 110, 10)));
        assert_eq!(snapshot.rows(), 110);
        assert_eq!(snapshot.pretty(usize::MAX), seen);
        assert_eq!(buffers(&snapshot), at);
        assert_eq!(zm.rows(), 110, "its zone maps too");
        let grown = cat.get("t").unwrap();
        assert_eq!(grown.rows(), 120);
        assert!(buffers(&grown).iter().all(|b| !at.contains(b)));
        drop((snapshot, grown));
        // Released, the grown copy takes the next append in place.
        let at = buffers(&cat.get("t").unwrap());
        assert!(cat.append("t", &rows_of("t", 120, 10)));
        assert_eq!(buffers(&cat.get("t").unwrap()), at);
    }

    #[test]
    fn a_registered_table_value_keeps_its_rows() {
        let cat = Catalog::new();
        let mine = rows_of("t", 0, 50);
        let (seen, at) = (mine.pretty(usize::MAX), buffers(&mine));
        cat.register(mine.clone());
        for i in 0..3 {
            assert!(cat.append("t", &rows_of("t", 50 + 10 * i, 10)));
        }
        assert_eq!(cat.get("t").unwrap().rows(), 80);
        assert_eq!(mine.rows(), 50);
        assert_eq!(mine.pretty(usize::MAX), seen);
        assert_eq!(buffers(&mine), at);
    }

    #[test]
    fn mismatched_column_types_are_refused_untouched() {
        let cat = Catalog::new();
        cat.register(rows_of("t", 0, 10));
        let before = cat.get("t").unwrap().pretty(usize::MAX);
        let v = cat.version();
        // `ts` as f32: would have become a dictionary of strings.
        let bad = TableBuilder::new()
            .col_f32("ts", vec![1.5])
            .col_f32("v", vec![1.0])
            .col_bool("even", vec![true])
            .col_str("s", &["w1"])
            .build("t");
        assert!(!cat.append("t", &bad));
        // The last column is the bad one: nothing before it may move.
        let bad = TableBuilder::new()
            .col_i64("ts", vec![10])
            .col_f32("v", vec![1.0])
            .col_bool("even", vec![true])
            .col_i64("s", vec![3])
            .build("t");
        assert!(!cat.append("t", &bad));
        let t = cat.get("t").unwrap();
        assert_eq!(t.pretty(usize::MAX), before);
        assert_eq!(
            t.column("ts").unwrap().kind(),
            tdp_encoding::EncodingKind::PlainI64
        );
        assert_eq!(cat.version(), v);
        assert_eq!(cat.zone_map("t").unwrap().rows(), 10);
    }

    /// Eight writers append to one table at once: writers are
    /// serialised, so no batch is lost, and the zone maps published with
    /// the last one describe every row.
    #[test]
    fn concurrent_appends_lose_no_rows() {
        const BASE: usize = 100_000;
        let cat = Arc::new(Catalog::new());
        cat.register(rows_of("t", 0, BASE));
        let writers: Vec<_> = (0..8)
            .map(|w| {
                let c = Arc::clone(&cat);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let from = BASE + (w * 50 + i) * 64;
                        assert!(c.append("t", &rows_of("t", from, 64)));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let t = cat.get("t").unwrap();
        assert_eq!(t.rows(), BASE + 25_600);
        assert_eq!(cat.zone_map("t").unwrap().rows(), BASE + 25_600);
        assert_eq!(*cat.zone_map("t").unwrap(), TableZoneMaps::build(&t));
        let mut ts = t.column("ts").unwrap().data.decode_i64().to_vec();
        ts.sort_unstable();
        assert_eq!(ts, (0..(BASE + 25_600) as i64).collect::<Vec<_>>());
    }

    #[test]
    fn append_keeps_vector_indexes_stale() {
        use crate::vindex::{VectorIndex, VectorIndexEntry};
        use tdp_index::{FlatIndex, Metric};
        use tdp_tensor::Tensor;

        let cat = Catalog::new();
        cat.register(tbl("docs", 2));
        let flat = FlatIndex::build(Tensor::from_vec(vec![0.0; 4], &[2, 2]), Metric::L2);
        cat.register_vector_index(VectorIndexEntry {
            name: "idx".into(),
            table: "docs".into(),
            column: "v".into(),
            metric: Metric::L2,
            rows: 2,
            index: VectorIndex::Flat(flat),
        });
        assert!(cat.append("docs", &tbl("docs", 1)));
        let entry = cat
            .vector_index("docs", "v")
            .expect("append keeps the index (stale, detected at query time)");
        assert_eq!(entry.rows, 2, "entry still describes the pre-append rows");
        assert_ne!(entry.rows, cat.get("docs").unwrap().rows());
    }

    #[test]
    fn names_sorted() {
        let cat = Catalog::new();
        cat.register(tbl("zeta", 1));
        cat.register(tbl("alpha", 1));
        assert_eq!(cat.names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn concurrent_access() {
        let cat = Arc::new(Catalog::new());
        let mut handles = Vec::new();
        for i in 0..8 {
            let c = Arc::clone(&cat);
            handles.push(std::thread::spawn(move || {
                c.register(tbl(&format!("t{i}"), i + 1));
                c.get(&format!("t{i}")).expect("just registered").rows()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap() >= 1);
        }
        assert_eq!(cat.len(), 8);
        assert_eq!(cat.stats().rows, (1..=8).sum::<usize>());
    }
}
