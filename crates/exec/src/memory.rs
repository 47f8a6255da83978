//! Executor-side charging helpers over the query's [`tdp_mem`] ledger.
//!
//! The morsel scheduler and the staged barrier operators charge their
//! input-proportional materializations here: decoded partition columns,
//! exchanged positions, join build tables, sort runs and DISTINCT sets.
//! Charges are estimates of the dominant allocation (payload bytes for
//! columns; for the flat key tables the hash column, the `u32` slots at
//! their worst-case four per row and the `next` chain), taken *before*
//! the allocation where practical so a breach aborts cheaply. Both
//! guards release on drop — the "release on operator drop" half of the
//! ledger contract — and a refused charge becomes
//! [`ExecError::MemoryBudget`] naming the operator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tdp_encoding::EncodedTensor;
use tdp_mem::MemoryReservation;

use crate::error::ExecError;

/// One-shot RAII charge: grows the ledger now, shrinks on drop.
#[derive(Debug)]
pub(crate) struct ChargeGuard {
    memory: Arc<MemoryReservation>,
    bytes: u64,
}

impl Drop for ChargeGuard {
    fn drop(&mut self) {
        self.memory.shrink(self.bytes);
    }
}

/// Charge `bytes` against `memory` for `operator`, or fail with the
/// typed budget error that aborts this query (and only this query).
pub(crate) fn charge(
    memory: &Arc<MemoryReservation>,
    operator: &str,
    bytes: u64,
) -> Result<ChargeGuard, ExecError> {
    if !memory.try_grow(bytes) {
        return Err(ExecError::MemoryBudget {
            operator: operator.to_string(),
            requested: bytes,
        });
    }
    Ok(ChargeGuard {
        memory: Arc::clone(memory),
        bytes,
    })
}

/// Accumulating charge shared across a worker pool: every `add` grows
/// the ledger, the running total is released in one shrink on drop.
/// Atomic, so morsel/partition claim loops charge concurrently.
pub(crate) struct ScopedCharges {
    memory: Arc<MemoryReservation>,
    total: AtomicU64,
}

impl ScopedCharges {
    pub(crate) fn new(memory: &Arc<MemoryReservation>) -> ScopedCharges {
        ScopedCharges {
            memory: Arc::clone(memory),
            total: AtomicU64::new(0),
        }
    }

    /// Charge `bytes` more for `operator`.
    pub(crate) fn add(&self, operator: &str, bytes: u64) -> Result<(), ExecError> {
        if !self.memory.try_grow(bytes) {
            return Err(ExecError::MemoryBudget {
                operator: operator.to_string(),
                requested: bytes,
            });
        }
        self.total.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for ScopedCharges {
    fn drop(&mut self) {
        self.memory.shrink(self.total.load(Ordering::Relaxed));
    }
}

/// Payload bytes of a materialised column set.
pub(crate) fn cols_bytes(cols: &[(String, EncodedTensor)]) -> u64 {
    cols.iter().map(|(_, c)| c.memory_bytes() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_mem::MemoryPool;

    fn tight(budget: u64) -> Arc<MemoryReservation> {
        Arc::new(Arc::new(MemoryPool::with_budget(budget)).reserve())
    }

    #[test]
    fn charge_guard_releases_on_drop() {
        let mem = tight(100);
        {
            let _g = charge(&mem, "test", 80).unwrap();
            assert_eq!(mem.size(), 80);
            assert!(charge(&mem, "test", 40).is_err());
        }
        assert_eq!(mem.size(), 0);
        assert!(charge(&mem, "test", 40).is_ok());
    }

    #[test]
    fn refused_charge_names_the_operator() {
        let mem = tight(10);
        let err = charge(&mem, "join build", 100).unwrap_err();
        assert!(err.to_string().contains("out of memory budget"));
        assert!(err.to_string().contains("join build"));
    }

    #[test]
    fn scoped_charges_accumulate_and_release_once() {
        let mem = tight(100);
        {
            let s = ScopedCharges::new(&mem);
            s.add("a", 30).unwrap();
            s.add("b", 30).unwrap();
            assert_eq!(mem.size(), 60);
            assert!(s.add("c", 50).is_err());
            assert_eq!(mem.size(), 60, "failed add leaves the total alone");
        }
        assert_eq!(mem.size(), 0);
    }
}
