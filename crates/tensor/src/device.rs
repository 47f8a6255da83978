//! Execution devices.
//!
//! The paper runs compiled queries unchanged on CPU or GPU by virtue of
//! PyTorch's device abstraction. We reproduce the *abstraction* (placement,
//! `.to(device)`, device-aware kernel dispatch) with a simulated accelerator:
//! [`Device::accel`] executes large kernels data-parallel across worker
//! threads, while [`Device::Cpu`] stays single-threaded. The relative shape
//! of CPU-vs-accelerator results in the Figure 2 experiment comes from this
//! parallelism, standing in for the V100 the authors used.
//!
//! ## One spawn site, and a lane never spawns lanes
//!
//! Parallel kernels write through [`Device::fill_indexed`] or
//! [`Device::fill_rows`], both over one private block splitter, the crate's
//! only spawn site: each lane gets one contiguous block of output rows
//! as `&mut`, so every row is written whole by one lane and the bits never
//! depend on the lane count. The splitter stays on the calling thread below
//! the caller's cut-off and on a thread that is already a lane (one it
//! spawned, or one inside [`run_as_lane`]: the executor's morsel workers),
//! so a stage of `threads` workers on `Accel(n)` runs `max(threads, n)`
//! threads at most.

use std::cell::Cell;
use std::ops::Range;
use std::thread;

/// Minimum number of output rows (items, for [`Device::fill_indexed`])
/// before a scalar kernel is worth parallelising on the simulated
/// accelerator. Below this the thread spawn overhead dominates.
pub const PAR_THRESHOLD: usize = 16 * 1024;

thread_local! {
    /// Whether this thread is running as a lane (see [`run_as_lane`]).
    static ON_LANE: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` as a lane: device kernels it calls run on this thread and
/// never spawn lanes of their own.
pub fn run_as_lane<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ON_LANE.set(self.0);
        }
    }
    let _restore = Restore(ON_LANE.replace(true));
    f()
}

/// Where a tensor lives and where kernels operating on it execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Device {
    /// Single-threaded host execution.
    #[default]
    Cpu,
    /// Simulated accelerator with the given degree of data parallelism.
    Accel(usize),
}

impl Device {
    /// A simulated accelerator sized to the host's available parallelism.
    pub fn accel() -> Device {
        let n = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Device::Accel(n.max(2))
    }

    /// Number of worker lanes used for kernels on this device.
    pub fn lanes(self) -> usize {
        match self {
            Device::Cpu => 1,
            Device::Accel(n) => n.max(1),
        }
    }

    /// Whether the device is the simulated accelerator.
    pub fn is_accel(self) -> bool {
        matches!(self, Device::Accel(_))
    }

    /// Device that results from combining operands placed on `self` and
    /// `other`. Mirrors PyTorch's rule of refusing silent cross-device
    /// compute — except we promote instead of erroring, because our devices
    /// share one address space; promotion keeps the API ergonomic while
    /// preserving placement semantics for the benchmarks.
    pub fn combine(self, other: Device) -> Device {
        match (self, other) {
            (Device::Accel(a), Device::Accel(b)) => Device::Accel(a.max(b)),
            (Device::Accel(a), _) | (_, Device::Accel(a)) => Device::Accel(a),
            _ => Device::Cpu,
        }
    }

    /// Fill `out` by evaluating `f(i)` for every index, split across the
    /// device's lanes from [`PAR_THRESHOLD`] items on.
    pub fn fill_indexed<T: Send, F>(self, out: &mut [T], f: F)
    where
        F: Fn(usize) -> T + Sync,
    {
        let len = out.len();
        self.split_rows(out, len, PAR_THRESHOLD, |rows, block| {
            for (i, o) in rows.zip(block) {
                *o = f(i);
            }
        });
    }

    /// Fill `out`, as `rows` rows of `out.len() / rows` elements, by calling
    /// `f(i, row)` for every row, split across the device's lanes from
    /// `min_rows` rows on: [`PAR_THRESHOLD`] for scalar kernels, 1 for work
    /// as heavy as a model call per row. `f` runs for every row, zero-width
    /// rows included.
    pub fn fill_rows<T: Send, F>(self, out: &mut [T], rows: usize, min_rows: usize, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let width = out.len().checked_div(rows).unwrap_or(0);
        assert_eq!(width * rows, out.len(), "{rows} rows of unequal width");
        self.split_rows(out, rows, min_rows, |range, block| {
            let start = range.start;
            for i in range {
                f(i, &mut block[(i - start) * width..][..width]);
            }
        });
    }

    /// The one spawn site. Runs `f(rows, block)` on one lane per block of
    /// `rows.div_ceil(lanes)` rows of `out`, or once over all of `out` on
    /// the calling thread when there are fewer than `min_rows` (or two)
    /// rows, one lane, or this thread is already a lane.
    fn split_rows<T: Send>(
        self,
        out: &mut [T],
        rows: usize,
        min_rows: usize,
        f: impl Fn(Range<usize>, &mut [T]) + Sync,
    ) {
        let lanes = self.lanes();
        if lanes <= 1 || rows < min_rows.max(2) || ON_LANE.get() {
            f(0..rows, out);
            return;
        }
        let (width, chunk, f) = (out.len() / rows, rows.div_ceil(lanes), &f);
        thread::scope(|s| {
            let mut rest = out;
            for start in (0..rows).step_by(chunk) {
                let end = (start + chunk).min(rows);
                let (block, tail) = std::mem::take(&mut rest).split_at_mut((end - start) * width);
                rest = tail;
                s.spawn(move || run_as_lane(|| f(start..end, block)));
            }
        });
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Cpu => write!(f, "cpu"),
            Device::Accel(n) => write!(f, "accel:{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_and_flags() {
        assert_eq!(Device::Cpu.lanes(), 1);
        assert_eq!(Device::Accel(8).lanes(), 8);
        assert!(Device::accel().is_accel());
        assert!(!Device::Cpu.is_accel());
    }

    #[test]
    fn combine_promotes_to_accelerator() {
        assert_eq!(Device::Cpu.combine(Device::Cpu), Device::Cpu);
        assert_eq!(Device::Cpu.combine(Device::Accel(4)), Device::Accel(4));
        assert_eq!(Device::Accel(2).combine(Device::Accel(6)), Device::Accel(6));
    }

    #[test]
    fn fill_indexed_parallel_matches_serial() {
        let n = PAR_THRESHOLD * 2 + 17;
        let mut par = vec![0usize; n];
        let mut ser = vec![0usize; n];
        Device::Accel(4).fill_indexed(&mut par, |i| i * 3 + 1);
        Device::Cpu.fill_indexed(&mut ser, |i| i * 3 + 1);
        assert_eq!(par, ser);
    }

    /// Every kernel that writes through the splitter, past the cut-off and
    /// at zero width: the same shape and bits on `Cpu` as on `Accel(2/3/4)`.
    #[test]
    fn ported_kernels_give_the_same_bits_on_every_lane_count() {
        use crate::conv::{im2col, Conv2dGeom};
        use crate::{Rng64, Tensor};
        let rows = PAR_THRESHOLD + 5;
        let mut rng = Rng64::new(3);
        let mut randn = |shape: &[usize]| Tensor::<f32>::randn(shape, 0.0, 1.0, &mut rng);
        let (a, b, b0) = (randn(&[rows, 6]), randn(&[6, 5]), randn(&[6, 0]));
        let (col, wide, empty) = (randn(&[rows]), randn(&[rows, 8]), randn(&[rows, 0]));
        let (image, no_channels) = (randn(&[1, 2, 130, 130]), randn(&[1, 0, 130, 130]));
        let ids = Tensor::from_vec(
            (0..rows as i64).map(|i| i * 7919 % rows as i64).collect(),
            &[rows],
        );
        let geom = Conv2dGeom::new(3, 3, 1, 1);
        type Case<'a> = (&'a str, Box<dyn Fn(Device) -> Tensor<f32> + 'a>);
        let cases: Vec<Case> = vec![
            ("matmul", Box::new(|d| a.to(d).matmul(&b))),
            ("matmul [m, k] x [k, 0]", Box::new(|d| a.to(d).matmul(&b0))),
            ("select_rows [n]", Box::new(|d| col.to(d).select_rows(&ids))),
            (
                "select_rows [n, 8]",
                Box::new(|d| wide.to(d).select_rows(&ids)),
            ),
            (
                "select_rows [n, 0]",
                Box::new(|d| empty.to(d).select_rows(&ids)),
            ),
            ("im2col", Box::new(|d| im2col(&image.to(d), geom))),
            (
                "im2col, 0 channels",
                Box::new(|d| im2col(&no_channels.to(d), geom)),
            ),
            (
                "fill_indexed",
                Box::new(|d| {
                    let mut out = vec![0.0f32; rows];
                    d.fill_indexed(&mut out, |i| (i as f32).sin());
                    Tensor::from_vec(out, &[rows]).to(d)
                }),
            ),
        ];
        let bits = |t: &Tensor<f32>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, run) in &cases {
            let cpu = run(Device::Cpu);
            assert!(
                cpu.rows() >= PAR_THRESHOLD,
                "{name} stays below the cut-off"
            );
            for lanes in 2..=4 {
                let acc = run(Device::Accel(lanes));
                assert_eq!(acc.device(), Device::Accel(lanes), "{name}");
                assert_eq!(acc.shape(), cpu.shape(), "{name} on {lanes} lanes");
                assert!(bits(&acc) == bits(&cpu), "{name} on {lanes} lanes");
            }
        }
    }

    #[test]
    fn for_each_chunk_covers_range() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = PAR_THRESHOLD + 3;
        let total = AtomicUsize::new(0);
        let mut seen = vec![0u8; n];
        Device::Accel(3).fill_rows(&mut seen, n, PAR_THRESHOLD, |_, row| {
            total.fetch_add(1, Ordering::Relaxed);
            row[0] += 1;
        });
        assert_eq!(total.load(Ordering::Relaxed), n);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn a_lane_never_spawns_lanes() {
        let ran_on = |f: &dyn Fn(&mut [thread::ThreadId])| {
            let mut ids = vec![thread::current().id(); PAR_THRESHOLD + 5];
            f(&mut ids);
            ids
        };
        let nested = |ids: &mut [thread::ThreadId]| {
            Device::Accel(4).fill_indexed(ids, |_| thread::current().id())
        };
        // Inside a lane the splitter spawns, a nested fill stays on it.
        let mut whole = [false; 4];
        Device::Accel(4).fill_rows(&mut whole, 4, 1, |_, whole| {
            let lane = thread::current().id();
            whole[0] = ran_on(&nested).iter().all(|&t| t == lane);
        });
        assert_eq!(whole, [true; 4]);
        // `run_as_lane` marks the calling thread, and only while it runs.
        let me = thread::current().id();
        let inside = run_as_lane(|| ran_on(&nested));
        assert!(inside.iter().all(|&t| t == me));
        assert!(ran_on(&nested).iter().all(|&t| t != me));
    }

    #[test]
    fn display_format() {
        assert_eq!(Device::Cpu.to_string(), "cpu");
        assert_eq!(Device::Accel(4).to_string(), "accel:4");
    }
}
