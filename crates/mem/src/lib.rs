//! Per-query memory accounting: an engine-owned pool of budgeted bytes
//! and the per-query ledgers that charge against it.
//!
//! ## Ledger model
//!
//! One process-wide [`MemoryPool`] lives on the engine. Its budget is
//! set when the engine is built (`TdpEngine::with_memory_budget`);
//! `TdpEngine::new` means unlimited. Every query run gets its
//! own [`MemoryReservation`] — a ledger tied back to the pool — and the
//! executor charges that ledger wherever it materialises data whose
//! size is proportional to the input rather than the output:
//!
//! - batch materialization in the morsel scheduler (decoded partition
//!   columns and per-morsel result slots),
//! - the exchange's partitioned position buffer (one `u32` per row),
//! - join build-side hash structures (the flat key table's slots and
//!   `next` chain plus the row-hash column),
//! - sort runs (permutation plus decoded key columns),
//! - DISTINCT key codes and per-partition seen-sets (the same table,
//!   unchained).
//!
//! Charges follow RAII: the executor wraps each charge in a guard that
//! shrinks the ledger when the operator's intermediate state drops, and
//! dropping the reservation itself returns any remainder to the pool.
//! Sizes are estimates of the dominant allocations (vector payloads,
//! hash-table entries), not a malloc shim — the point is that a query
//! whose intermediates are proportional to a huge input gets stopped
//! before it takes the process down, with bookkeeping cheap enough to
//! leave on unconditionally.
//!
//! ## Abort semantics (and the future spill seam)
//!
//! [`MemoryReservation::try_grow`] either succeeds or reports failure;
//! it never blocks and never kills anything itself. The executor turns
//! a failed grow into a typed `ExecError::MemoryBudget` naming the
//! operator that breached, which aborts *only* that query — concurrent
//! in-budget queries keep their reservations and complete unchanged.
//! A failed grow leaves the ledger exactly as it was, so when a
//! spill-to-disk path lands it can catch the same failure, spill the
//! operator's state, `shrink` the ledger, and retry the grow instead of
//! aborting: the reservation API is deliberately the whole seam.
//!
//! The pool additionally tracks a high-water mark and a count of
//! budget-aborted reservations for `EngineStats` / server `STATS`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide byte budget shared by every query's ledger.
///
/// `used` is the sum of all live reservations; `try_charge` admits a
/// grow only while `used + bytes` stays within the budget (when one is
/// set). All accounting is atomic — the pool is shared freely across
/// sessions and worker threads.
#[derive(Debug)]
pub struct MemoryPool {
    budget: Option<u64>,
    used: AtomicU64,
    high_water: AtomicU64,
    budget_aborts: AtomicU64,
}

impl MemoryPool {
    /// Pool with a hard byte budget.
    pub fn with_budget(budget: u64) -> MemoryPool {
        MemoryPool {
            budget: Some(budget),
            used: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            budget_aborts: AtomicU64::new(0),
        }
    }

    /// Pool that accounts usage but never refuses a charge.
    pub fn unlimited() -> MemoryPool {
        MemoryPool {
            budget: None,
            used: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            budget_aborts: AtomicU64::new(0),
        }
    }

    /// Configured budget in bytes; `None` when unlimited.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Bytes currently reserved across all live ledgers.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Largest `used` value ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Number of reservations that hit the budget (each counted once,
    /// on its first refused grow).
    pub fn budget_aborts(&self) -> u64 {
        self.budget_aborts.load(Ordering::Relaxed)
    }

    /// Open a fresh per-query ledger against this pool.
    pub fn reserve(self: &Arc<Self>) -> MemoryReservation {
        MemoryReservation {
            pool: Arc::clone(self),
            size: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            charged_total: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
        }
    }

    /// Open a ledger pre-charged with an admission envelope of `bytes`,
    /// or `None` when the budget cannot cover it right now. Unlike
    /// [`MemoryReservation::try_grow`], a refusal is **not** counted as
    /// a budget abort: no query ran out of memory — the caller (server
    /// admission control) is deciding whether to start one, and tracks
    /// its rejections separately.
    pub fn try_reserve(self: &Arc<Self>, bytes: u64) -> Option<MemoryReservation> {
        if !self.try_charge(bytes) {
            return None;
        }
        let r = self.reserve();
        r.size.store(bytes, Ordering::Relaxed);
        r.peak.store(bytes, Ordering::Relaxed);
        r.charged_total.store(bytes, Ordering::Relaxed);
        Some(r)
    }

    /// Charge `bytes` against the pool, reporting whether the budget
    /// admits it. Optimistic: the add happens first and is rolled back
    /// on refusal, so concurrent charges never under-count.
    fn try_charge(&self, bytes: u64) -> bool {
        let prev = self.used.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if let Some(budget) = self.budget {
            if now > budget {
                self.used.fetch_sub(bytes, Ordering::Relaxed);
                return false;
            }
        }
        self.high_water.fetch_max(now, Ordering::Relaxed);
        true
    }

    fn release(&self, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn note_budget_abort(&self) {
        self.budget_aborts.fetch_add(1, Ordering::Relaxed);
    }
}

/// One query's memory ledger against a [`MemoryPool`].
///
/// Grows and shrinks are atomic, so the morsel scheduler's worker
/// threads can all charge the same reservation. Dropping the
/// reservation returns whatever is still charged to the pool.
#[derive(Debug)]
pub struct MemoryReservation {
    pool: Arc<MemoryPool>,
    size: AtomicU64,
    peak: AtomicU64,
    charged_total: AtomicU64,
    aborted: AtomicBool,
}

impl MemoryReservation {
    /// Stand-alone ledger against a private unlimited pool, for
    /// contexts built without an engine (tests, direct executor use).
    pub fn detached() -> MemoryReservation {
        Arc::new(MemoryPool::unlimited()).reserve()
    }

    /// Charge `bytes` more against the pool. On refusal the ledger is
    /// left unchanged (the seam where a spill path would shrink and
    /// retry instead of aborting) and the pool's abort counter is
    /// bumped — once per reservation, however many workers race here.
    #[must_use]
    pub fn try_grow(&self, bytes: u64) -> bool {
        if !self.pool.try_charge(bytes) {
            if !self.aborted.swap(true, Ordering::Relaxed) {
                self.pool.note_budget_abort();
            }
            return false;
        }
        let now = self.size.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.charged_total.fetch_add(bytes, Ordering::Relaxed);
        true
    }

    /// Return `bytes` of this ledger to the pool.
    pub fn shrink(&self, bytes: u64) {
        let bytes = bytes.min(self.size.load(Ordering::Relaxed));
        self.size.fetch_sub(bytes, Ordering::Relaxed);
        self.pool.release(bytes);
    }

    /// Bytes currently charged to this ledger.
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    /// Largest `size` this ledger ever reached.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Cumulative bytes of every successful grow (never decremented):
    /// interval deltas give per-operator charged bytes in profiles.
    pub fn charged_total(&self) -> u64 {
        self.charged_total.load(Ordering::Relaxed)
    }

    /// Whether any grow on this ledger was refused.
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    /// The pool this ledger charges against.
    pub fn pool(&self) -> &Arc<MemoryPool> {
        &self.pool
    }
}

impl Drop for MemoryReservation {
    fn drop(&mut self) {
        let rest = self.size.load(Ordering::Relaxed);
        if rest > 0 {
            self.pool.release(rest);
        }
    }
}

/// Parse a byte count: plain digits, optionally suffixed with `k`, `m`
/// or `g` (case-insensitive, powers of 1024).
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .map(|n| n.saturating_mul(mult))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemoryPool>();
        assert_send_sync::<MemoryReservation>();
    }

    #[test]
    fn grow_shrink_round_trip() {
        let pool = Arc::new(MemoryPool::with_budget(1000));
        let r = pool.reserve();
        assert!(r.try_grow(400));
        assert!(r.try_grow(300));
        assert_eq!(r.size(), 700);
        assert_eq!(pool.used(), 700);
        r.shrink(500);
        assert_eq!(r.size(), 200);
        assert_eq!(pool.used(), 200);
        assert_eq!(r.peak(), 700);
        assert_eq!(pool.high_water(), 700);
        drop(r);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn refusal_leaves_ledger_unchanged_and_counts_once() {
        let pool = Arc::new(MemoryPool::with_budget(100));
        let r = pool.reserve();
        assert!(r.try_grow(80));
        assert!(!r.try_grow(50));
        assert!(!r.try_grow(50), "second refusal");
        assert_eq!(r.size(), 80, "failed grow must not change the ledger");
        assert_eq!(pool.used(), 80);
        assert!(r.aborted());
        assert_eq!(pool.budget_aborts(), 1, "one abort per reservation");
    }

    #[test]
    fn sibling_reservation_unaffected_by_abort() {
        let pool = Arc::new(MemoryPool::with_budget(100));
        let small = pool.reserve();
        let big = pool.reserve();
        assert!(small.try_grow(10));
        assert!(!big.try_grow(1000));
        assert!(small.try_grow(10), "sibling keeps growing after abort");
        drop(big);
        assert_eq!(pool.used(), 20);
    }

    #[test]
    fn try_reserve_envelope_is_quiet_and_releases_on_drop() {
        let pool = Arc::new(MemoryPool::with_budget(100));
        let a = pool.try_reserve(60).expect("fits");
        assert_eq!(a.size(), 60);
        assert!(pool.try_reserve(60).is_none(), "would overrun");
        assert_eq!(pool.budget_aborts(), 0, "admission refusal is not an abort");
        drop(a);
        assert_eq!(pool.used(), 0);
        assert!(pool.try_reserve(60).is_some(), "envelope returned");
    }

    #[test]
    fn unlimited_pool_never_refuses() {
        let pool = Arc::new(MemoryPool::unlimited());
        let r = pool.reserve();
        assert!(r.try_grow(u64::MAX / 4));
        assert_eq!(pool.budget(), None);
        assert_eq!(pool.budget_aborts(), 0);
    }

    #[test]
    fn shrink_clamps_to_size() {
        let pool = Arc::new(MemoryPool::with_budget(1000));
        let r = pool.reserve();
        assert!(r.try_grow(100));
        r.shrink(500);
        assert_eq!(r.size(), 0);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("1024"), Some(1024));
        assert_eq!(parse_bytes("4k"), Some(4096));
        assert_eq!(parse_bytes("2M"), Some(2 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes(" 8 m "), Some(8 << 20));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
    }

    #[test]
    fn concurrent_charges_balance() {
        let pool = Arc::new(MemoryPool::unlimited());
        let r = Arc::new(pool.reserve());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..1000 {
                        assert!(r.try_grow(64));
                        r.shrink(64);
                    }
                });
            }
        });
        assert_eq!(r.size(), 0);
        assert_eq!(pool.used(), 0);
        assert!(pool.high_water() >= 64);
    }
}
