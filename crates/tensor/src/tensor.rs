//! The core dense tensor type.

use std::sync::Arc;

use crate::device::Device;
use crate::element::{Element, Float, Num};
use crate::rng::Rng64;
use crate::shape::Shape;

/// A dense, contiguous, row-major n-dimensional array.
///
/// The elements are one contiguous window of a buffer shared behind an
/// [`Arc`], so one buffer can back many tensors: cloning, reshaping and
/// taking a window of rows ([`Tensor::slice_rows`], [`Tensor::row`], a
/// [`Tensor::select_rows`] of one ascending run) are O(1) and copy
/// nothing. Mutation goes through copy-on-write: a tensor that is the
/// whole of a buffer nothing else holds is changed where it is; any other
/// (a shared buffer, or a window of a larger one) first copies out just
/// its own elements, so every other holder keeps exactly the values it
/// saw. [`Tensor::append_rows`] grows a buffer by the same rule, so a
/// window never extends into, or exposes, rows outside it. A scalar is a
/// tensor with an empty shape.
#[derive(Clone)]
pub struct Tensor<T: Element> {
    data: Arc<Vec<T>>,
    /// Where this tensor's first element sits in `data`.
    offset: usize,
    /// Its element count, `shape.numel()`, kept so that reading the
    /// window costs no walk over the dimensions.
    len: usize,
    shape: Shape,
    device: Device,
}

impl<T: Element> Tensor<T> {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Build a tensor from a flat row-major buffer.
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<T>, shape: &[usize]) -> Tensor<T> {
        let sh = Shape::new(shape);
        assert_eq!(
            data.len(),
            sh.numel(),
            "buffer of {} elements cannot form shape {}",
            data.len(),
            sh
        );
        Tensor {
            len: data.len(),
            data: Arc::new(data),
            offset: 0,
            shape: sh,
            device: Device::Cpu,
        }
    }

    /// A 0-dimensional (scalar) tensor.
    pub fn scalar(v: T) -> Tensor<T> {
        Tensor::from_vec(vec![v], &[])
    }

    /// A tensor filled with one value.
    pub fn full(shape: &[usize], v: T) -> Tensor<T> {
        let n = shape.iter().product();
        Tensor::from_vec(vec![v; n], shape)
    }

    /// Tensor of default values (zero for numeric types).
    pub fn empty(shape: &[usize]) -> Tensor<T> {
        Tensor::full(shape, T::default())
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// Extents of each dimension.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Shape object (strides, offsets).
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions. Scalars have 0.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.len
    }

    /// Size of the leading dimension — the row count of a column tensor.
    /// Scalars report 1.
    pub fn rows(&self) -> usize {
        self.shape.dims().first().copied().unwrap_or(1)
    }

    /// Device the tensor is placed on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// `true` when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.numel() == 0
    }

    /// Borrow the tensor's elements, flat and row-major. The one place the
    /// shared buffer is indexed: every other read goes through here, so
    /// none can forget `offset`.
    pub fn data(&self) -> &[T] {
        &self.data.as_slice()[self.offset..self.offset + self.len]
    }

    /// Copy out the elements.
    pub fn to_vec(&self) -> Vec<T> {
        self.data().to_vec()
    }

    /// Mutable access to the elements (copy-on-write: a window copies out
    /// only itself, a shared buffer is copied first).
    pub fn data_mut(&mut self) -> &mut [T] {
        if !self.is_whole_buffer() {
            self.data = Arc::new(self.data().to_vec());
            self.offset = 0;
        }
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// `true` when the tensor's elements are all of its buffer — not a
    /// window of a larger one.
    fn is_whole_buffer(&self) -> bool {
        self.offset == 0 && self.data.len() == self.len
    }

    /// A tensor of `shape` over this one's buffer from element `at` of its
    /// window on: O(1), nothing copied.
    pub(crate) fn window(&self, at: usize, shape: Shape) -> Tensor<T> {
        let len = shape.numel();
        assert!(
            at + len <= self.len,
            "window [{at}, {at}+{len}) exceeds {} elements",
            self.len
        );
        Tensor {
            data: Arc::clone(&self.data),
            offset: self.offset + at,
            len,
            shape,
            device: self.device,
        }
    }

    /// Append `other`'s rows after this tensor's (trailing dimensions must
    /// agree); the tensor keeps its device. Copy-on-write: the whole of a
    /// buffer nothing else holds grows where it is, copying only `other`
    /// (amortised, like `Vec::extend`); a shared buffer or a window is
    /// copied once into a fresh buffer with room to grow, and other
    /// holders keep their rows.
    pub fn append_rows(&mut self, other: &Tensor<T>) {
        assert!(self.ndim() >= 1, "append_rows() on a scalar");
        assert_eq!(
            &self.shape()[1..],
            other.shape().get(1..).unwrap_or(&[]),
            "append_rows trailing shape mismatch"
        );
        let whole = self.is_whole_buffer();
        match Arc::get_mut(&mut self.data) {
            Some(buf) if whole => buf.extend_from_slice(other.data()),
            _ => {
                let len = self.numel() + other.numel();
                let mut buf = Vec::with_capacity(len.max(2 * self.numel()));
                buf.extend_from_slice(self.data());
                buf.extend_from_slice(other.data());
                self.data = Arc::new(buf);
                self.offset = 0;
            }
        }
        let mut dims = self.shape().to_vec();
        dims[0] += other.rows();
        self.shape = Shape::new(&dims);
        self.len += other.len;
    }

    /// Rows [`Tensor::append_rows`] can add before it must copy or
    /// reallocate the buffer: 0 when the buffer is shared or the tensor is
    /// a window. Takes `&mut` so that no other holder can appear while the
    /// answer is used.
    pub fn spare_rows(&mut self) -> usize {
        let stride: usize = self.shape().get(1..).unwrap_or(&[]).iter().product();
        let whole = self.is_whole_buffer();
        match Arc::get_mut(&mut self.data) {
            Some(buf) if whole => (buf.capacity() - buf.len())
                .checked_div(stride)
                .unwrap_or(usize::MAX),
            _ => 0,
        }
    }

    /// Element at a multi-index.
    pub fn get(&self, idx: &[usize]) -> T {
        self.data()[self.shape.offset(idx)]
    }

    /// Set the element at a multi-index (copy-on-write).
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.shape.offset(idx);
        self.data_mut()[off] = v;
    }

    /// Element at a flat offset.
    pub fn at(&self, flat: usize) -> T {
        self.data()[flat]
    }

    /// The single element of a scalar or 1-element tensor.
    pub fn item(&self) -> T {
        assert_eq!(
            self.numel(),
            1,
            "item() on tensor of {} elements",
            self.numel()
        );
        self.data()[0]
    }

    // ------------------------------------------------------------------
    // Device movement
    // ------------------------------------------------------------------

    /// Move the tensor to a device. Data is shared (our simulated devices
    /// live in one address space); only kernel dispatch changes.
    pub fn to(&self, device: Device) -> Tensor<T> {
        let mut t = self.clone();
        t.device = device;
        t
    }

    pub(crate) fn with_device(mut self, device: Device) -> Tensor<T> {
        self.device = device;
        self
    }

    // ------------------------------------------------------------------
    // Shape manipulation (all O(1) on data; reshape-family and row
    // windows share buffers)
    // ------------------------------------------------------------------

    /// View with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor<T> {
        let sh = Shape::new(shape);
        assert_eq!(
            sh.numel(),
            self.numel(),
            "cannot reshape {} elements into {}",
            self.numel(),
            sh
        );
        self.window(0, sh)
    }

    /// Flatten into 1-d.
    pub fn flatten(&self) -> Tensor<T> {
        self.reshape(&[self.numel()])
    }

    /// Insert a size-1 dimension at `dim`.
    pub fn unsqueeze(&self, dim: usize) -> Tensor<T> {
        assert!(dim <= self.ndim(), "unsqueeze dim {dim} out of range");
        let mut dims = self.shape.dims().to_vec();
        dims.insert(dim, 1);
        self.reshape(&dims)
    }

    /// Remove a size-1 dimension at `dim`.
    pub fn squeeze(&self, dim: usize) -> Tensor<T> {
        assert!(
            self.shape.dims().get(dim) == Some(&1),
            "squeeze dim {dim} of shape {} is not 1",
            self.shape
        );
        let mut dims = self.shape.dims().to_vec();
        dims.remove(dim);
        self.reshape(&dims)
    }

    /// Materialised broadcast of this tensor to a larger shape.
    pub fn broadcast_to(&self, shape: &[usize]) -> Tensor<T> {
        let target = Shape::new(shape);
        if self.shape.dims() == shape {
            return self.clone();
        }
        let out_n = target.numel();
        let src_dims = self.shape.dims();
        let src_strides = self.shape.strides();
        let pad = shape.len() - src_dims.len();
        // Effective stride per output dim: 0 where the source broadcasts.
        let mut eff = vec![0usize; shape.len()];
        for (d, &dim) in shape.iter().enumerate() {
            if d >= pad {
                let sd = src_dims[d - pad];
                assert!(
                    sd == dim || sd == 1,
                    "cannot broadcast {} to {}",
                    self.shape,
                    target
                );
                eff[d] = if sd == 1 { 0 } else { src_strides[d - pad] };
            }
        }
        // One element broadcasts to a fill: no index arithmetic per output.
        if self.len == 1 {
            return Tensor::full(shape, self.data()[0]).with_device(self.device);
        }
        let data = self.data();
        let mut out = vec![T::default(); out_n];
        let target_strides = target.strides();
        self.device.fill_indexed(&mut out, |flat| {
            let mut rem = flat;
            let mut src = 0usize;
            for d in 0..shape.len() {
                let i = rem / target_strides[d];
                rem %= target_strides[d];
                src += i * eff[d];
            }
            data[src]
        });
        Tensor::from_vec(out, shape).with_device(self.device)
    }

    /// Permute dimensions (generalised transpose). Materialises the data.
    pub fn permute(&self, dims: &[usize]) -> Tensor<T> {
        assert_eq!(dims.len(), self.ndim(), "permute rank mismatch");
        let mut seen = vec![false; dims.len()];
        for &d in dims {
            assert!(d < dims.len() && !seen[d], "invalid permutation {dims:?}");
            seen[d] = true;
        }
        let src_strides = self.shape.strides();
        let new_dims: Vec<usize> = dims.iter().map(|&d| self.shape.dims()[d]).collect();
        let out_shape = Shape::new(&new_dims);
        let out_strides = out_shape.strides();
        let data = self.data();
        let mut out = vec![T::default(); self.numel()];
        self.device.fill_indexed(&mut out, |flat| {
            let mut rem = flat;
            let mut src = 0usize;
            for d in 0..new_dims.len() {
                let i = rem / out_strides[d];
                rem %= out_strides[d];
                src += i * src_strides[dims[d]];
            }
            data[src]
        });
        Tensor::from_vec(out, &new_dims).with_device(self.device)
    }

    /// 2-d transpose.
    pub fn transpose(&self) -> Tensor<T> {
        assert_eq!(
            self.ndim(),
            2,
            "transpose() requires a matrix, got {}",
            self.shape
        );
        self.permute(&[1, 0])
    }

    /// Repeat the whole tensor `n` times along a new leading dimension.
    pub fn repeat_rows(&self, n: usize) -> Tensor<T> {
        let mut out = Vec::with_capacity(self.numel() * n);
        for _ in 0..n {
            out.extend_from_slice(self.data());
        }
        let mut dims = vec![n];
        dims.extend_from_slice(self.shape.dims());
        Tensor::from_vec(out, &dims).with_device(self.device)
    }

    /// Apply `f` to every element.
    pub fn map<U: Element>(&self, f: impl Fn(T) -> U + Sync) -> Tensor<U> {
        let mut out = vec![U::default(); self.numel()];
        self.device.fill_mapped(self.data(), &mut out, f);
        Tensor::from_vec(out, self.shape.dims()).with_device(self.device)
    }

    /// First `n` rows (clamped to the row count): the window
    /// `slice_rows(0, n)`.
    pub fn head_rows(&self, n: usize) -> Tensor<T> {
        self.slice_rows(0, n)
    }

    /// Rows `start..end` (bounds clamped to the row count) as a window
    /// sharing this tensor's buffer: O(1), no copy, no index
    /// materialisation — which is what makes morsel partitioning cheap.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor<T> {
        assert!(self.ndim() >= 1, "slice_rows() on a scalar");
        let end = end.min(self.rows());
        let start = start.min(end);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        self.window(start * self.row_len(), Shape(dims))
    }

    /// Row `i` of a tensor with ndim >= 1, as a window of one lower rank.
    pub fn row(&self, i: usize) -> Tensor<T> {
        assert!(self.ndim() >= 1, "row() on a scalar");
        let n = self.rows();
        assert!(i < n, "row {i} out of bounds for {n} rows");
        self.window(i * self.row_len(), Shape::new(&self.shape.dims()[1..]))
    }

    /// Elements per row: the product of the trailing dimensions.
    fn row_len(&self) -> usize {
        self.shape.dims()[1..].iter().product()
    }
}

impl<T: Num> Tensor<T> {
    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Tensor<T> {
        Tensor::full(shape, T::zero())
    }

    /// One-filled tensor.
    pub fn ones(shape: &[usize]) -> Tensor<T> {
        Tensor::full(shape, T::one())
    }

    /// `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Tensor<T> {
        Tensor::from_vec((0..n).map(|i| T::from_f64(i as f64)).collect(), &[n])
    }

    /// `n` evenly spaced points from `lo` to `hi` inclusive.
    pub fn linspace(lo: f64, hi: f64, n: usize) -> Tensor<T> {
        assert!(n >= 2, "linspace needs at least two points");
        let step = (hi - lo) / (n - 1) as f64;
        Tensor::from_vec(
            (0..n).map(|i| T::from_f64(lo + step * i as f64)).collect(),
            &[n],
        )
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Tensor<T> {
        let mut data = vec![T::zero(); n * n];
        for i in 0..n {
            data[i * n + i] = T::one();
        }
        Tensor::from_vec(data, &[n, n])
    }

    /// Normal random tensor.
    pub fn randn(shape: &[usize], mean: f64, std: f64, rng: &mut Rng64) -> Tensor<T> {
        let n: usize = shape.iter().product();
        Tensor::from_vec(
            (0..n)
                .map(|_| T::from_f64(rng.normal_with(mean, std)))
                .collect(),
            shape,
        )
    }

    /// Cast to another numeric element type.
    pub fn cast<U: Num>(&self) -> Tensor<U> {
        self.map(|v| U::from_f64(v.to_f64()))
    }

    /// Convenience casts used throughout the engine.
    pub fn to_f32(&self) -> Tensor<f32> {
        self.cast()
    }

    pub fn to_i64(&self) -> Tensor<i64> {
        self.cast()
    }
}

impl Tensor<bool> {
    /// Convert a mask to 0/1 floats (soft-operator inputs).
    pub fn to_f32_mask(&self) -> Tensor<f32> {
        self.map(|b| if b { 1.0f32 } else { 0.0 })
    }

    /// Convert a mask to 0/1 integers.
    pub fn to_i64_mask(&self) -> Tensor<i64> {
        self.map(i64::from)
    }

    /// Number of `true` entries.
    pub fn count_true(&self) -> usize {
        self.data().iter().filter(|&&b| b).count()
    }

    /// Elementwise logical and/or/not with broadcasting.
    pub fn and(&self, other: &Tensor<bool>) -> Tensor<bool> {
        crate::ops::broadcast_zip(self, other, |a, b| a && b)
    }

    pub fn or(&self, other: &Tensor<bool>) -> Tensor<bool> {
        crate::ops::broadcast_zip(self, other, |a, b| a || b)
    }

    pub fn not(&self) -> Tensor<bool> {
        self.map(|b| !b)
    }

    /// `true` if any element is set.
    pub fn any(&self) -> bool {
        self.data().iter().any(|&b| b)
    }

    /// `true` if all elements are set.
    pub fn all(&self) -> bool {
        self.data().iter().all(|&b| b)
    }
}

impl<T: Float> Tensor<T> {
    /// Kaiming/He-style fan-in scaled initialisation for layer weights.
    pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut Rng64) -> Tensor<T> {
        let std = (2.0 / fan_in.max(1) as f64).sqrt();
        Tensor::randn(shape, 0.0, std, rng)
    }

    /// `true` if every element is finite (NaN/Inf guard for training loops).
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|v| v.is_finite())
    }
}

impl<T: Element> std::fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor<{}>({}, {}", T::DTYPE, self.shape, self.device)?;
        let n = self.numel();
        if n <= 16 {
            write!(f, ", {:?})", self.data())
        } else {
            let d = self.data();
            write!(f, ", [{:?}, {:?}, ... ; {n}])", d[0], d[1])
        }
    }
}

impl<T: Element> PartialEq for Tensor<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.at(3), 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot form shape")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![1.0f32; 5], &[2, 3]);
    }

    #[test]
    fn scalar_semantics() {
        let s = Tensor::scalar(5i64);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.item(), 5);
        assert_eq!(s.rows(), 1);
    }

    #[test]
    fn cow_clone_isolation() {
        let a = Tensor::from_vec(vec![1i64, 2, 3], &[3]);
        let mut b = a.clone();
        b.set(&[0], 99);
        assert_eq!(a.at(0), 1, "original must be untouched by COW write");
        assert_eq!(b.at(0), 99);
    }

    #[test]
    fn append_rows_copies_on_write_then_grows_in_place() {
        let base =
            Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[3, 2]).to(Device::Accel(1));
        let mut t = base.clone();
        assert_eq!(t.spare_rows(), 0, "a shared buffer has no room of its own");
        t.append_rows(&Tensor::from_vec(vec![6.0, 7.0], &[1, 2]));
        assert_eq!(base.shape(), &[3, 2], "the other holder keeps its rows");
        assert_eq!(t.shape(), &[4, 2]);
        assert_eq!(t.to_vec(), (0..8).map(|i| i as f32).collect::<Vec<_>>());
        assert_eq!(t.device(), Device::Accel(1), "the stored device stays");
        // The copy left room to grow: further appends keep the buffer.
        assert!(t.spare_rows() >= 2);
        let at = t.data().as_ptr();
        t.append_rows(&Tensor::from_vec(vec![8.0, 9.0, 10.0, 11.0], &[2, 2]));
        assert_eq!(t.data().as_ptr(), at);
        assert_eq!(t.at(11), 11.0);
        // An empty append and a zero-width row shape are fine.
        t.append_rows(&Tensor::from_vec(vec![], &[0, 2]));
        assert_eq!(t.rows(), 6);
        let mut w = Tensor::<i64>::from_vec(vec![], &[2, 0]);
        w.append_rows(&Tensor::from_vec(vec![], &[3, 0]));
        assert_eq!(w.shape(), &[5, 0]);
    }

    /// `[4, 3]` of `0..12`.
    fn grid() -> Tensor<f32> {
        Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[4, 3])
    }

    #[test]
    fn row_windows_share_the_buffer() {
        let a = grid();
        let w = a.slice_rows(1, 4);
        assert_eq!(w.shape(), &[3, 3]);
        assert_eq!(w.data().as_ptr(), a.data()[3..].as_ptr(), "no copy");
        // A window of a window, and the row family, address the same buffer.
        let ww = w.slice_rows(1, 2);
        assert_eq!(ww.to_vec(), vec![6.0, 7.0, 8.0]);
        assert_eq!(ww.data().as_ptr(), a.data()[6..].as_ptr());
        assert_eq!(w.row(2).to_vec(), vec![9.0, 10.0, 11.0]);
        assert_eq!(w.row(2).data().as_ptr(), a.data()[9..].as_ptr());
        assert_eq!(w.head_rows(1), a.slice_rows(1, 2));
        assert_eq!(w.slice_rows(2, 99).rows(), 1, "clamped to the window");
        assert_eq!(w.slice_rows(5, 9).shape(), &[0, 3]);
        // Reshape and flatten keep the window.
        assert_eq!(ww.flatten().to_vec(), vec![6.0, 7.0, 8.0]);
        let r = w.reshape(&[9]);
        assert_eq!(r.to_vec(), (3..12).map(|i| i as f32).collect::<Vec<_>>());
        assert_eq!(r.reshape(&[3, 3]).get(&[2, 1]), 10.0);
        assert_eq!(w.at(0), 3.0);
        assert_eq!(ww.row(0).slice_rows(2, 3).item(), 8.0);
    }

    #[test]
    fn writes_to_a_window_copy_out_only_the_window() {
        let a = grid();
        let mut w = a.slice_rows(1, 3);
        w.set(&[0, 0], -1.0);
        assert_eq!(w.to_vec(), vec![-1.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a, grid(), "the parent keeps its values");
        let mut v = a.row(3);
        v.data_mut()[2] = -2.0;
        assert_eq!(v.to_vec(), vec![9.0, 10.0, -2.0]);
        assert_eq!(a, grid());
        // A window whose parent is gone still owns only its own rows.
        let mut lone = grid().slice_rows(2, 3);
        lone.data_mut()[0] = 0.5;
        assert_eq!(lone.to_vec(), vec![0.5, 7.0, 8.0]);
        assert_eq!(lone.spare_rows(), 0);
    }

    #[test]
    fn appending_to_a_window_never_exposes_the_parents_rows() {
        // A prefix window whose parent was dropped is the buffer's only
        // holder, yet must not grow into (or show) the parent's tail, nor
        // count the parent's spare capacity as its own.
        let mut parent = grid();
        parent.append_rows(&Tensor::from_vec(vec![12.0, 13.0, 14.0], &[1, 3]));
        assert!(parent.spare_rows() >= 1);
        let mut w = parent.head_rows(2);
        drop(parent);
        assert_eq!(w.spare_rows(), 0, "a window has no room of its own");
        w.append_rows(&Tensor::from_vec(vec![-1.0, -2.0, -3.0], &[1, 3]));
        assert_eq!(w.shape(), &[3, 3]);
        assert_eq!(
            w.to_vec(),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, -3.0]
        );
        // The copy is the whole of a fresh buffer: it grows in place now.
        assert!(w.spare_rows() >= 1);
        let at = w.data().as_ptr();
        w.append_rows(&Tensor::from_vec(vec![-4.0, -5.0, -6.0], &[1, 3]));
        assert_eq!(w.data().as_ptr(), at);
        assert_eq!(w.rows(), 4);
        // A window held next to its parent: both keep their rows.
        let a = grid();
        let mut mid = a.slice_rows(1, 2);
        mid.append_rows(&a.row(0).unsqueeze(0));
        assert_eq!(mid.to_vec(), vec![3.0, 4.0, 5.0, 0.0, 1.0, 2.0]);
        assert_eq!(a, grid());
    }

    #[test]
    fn debug_prints_the_windows_own_elements() {
        let a = Tensor::from_vec((0..40).map(|i| i as i64).collect(), &[20, 2]);
        let w = a.slice_rows(5, 15);
        assert_eq!(
            format!("{w:?}"),
            "Tensor<i64>([10, 2], cpu, [10, 11, ... ; 20])"
        );
        assert!(format!("{:?}", a.slice_rows(5, 7)).ends_with(", [10, 11, 12, 13])"));
    }

    #[test]
    #[should_panic(expected = "trailing shape mismatch")]
    fn append_rows_checks_the_row_shape() {
        let mut t = Tensor::<f32>::zeros(&[2, 4]);
        t.append_rows(&Tensor::zeros(&[1, 8]));
    }

    #[test]
    fn reshape_shares_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.get(&[2, 1]), 5.0);
        assert_eq!(b.flatten().shape(), &[6]);
    }

    #[test]
    fn squeeze_unsqueeze() {
        let a = Tensor::<f32>::zeros(&[3]);
        let b = a.unsqueeze(0).unsqueeze(2);
        assert_eq!(b.shape(), &[1, 3, 1]);
        assert_eq!(b.squeeze(0).squeeze(1).shape(), &[3]);
    }

    #[test]
    fn broadcast_to_materialises() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2, 1]);
        let b = a.broadcast_to(&[2, 3]);
        assert_eq!(b.to_vec(), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let c = Tensor::scalar(7.0f32).broadcast_to(&[2, 2]);
        assert_eq!(c.to_vec(), vec![7.0; 4]);
        // A one-element window of a larger buffer fills with its own value.
        let w = Tensor::from_vec(vec![1.0f32, -0.0, 3.0], &[3, 1]).slice_rows(1, 2);
        let f = w.to(crate::Device::Accel(2)).broadcast_to(&[2, 3]);
        assert_eq!(f.shape(), &[2, 3]);
        assert!(f.data().iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        assert_eq!(f.device(), crate::Device::Accel(2));
    }

    #[test]
    fn permute_and_transpose() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), a.get(&[1, 2]));
        let p =
            Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.get(&[3, 1, 2]), 23.0);
    }

    #[test]
    fn arange_linspace_eye() {
        assert_eq!(Tensor::<i64>::arange(4).to_vec(), vec![0, 1, 2, 3]);
        let l = Tensor::<f32>::linspace(0.0, 1.0, 5);
        assert_eq!(l.to_vec(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(Tensor::<f32>::eye(2).to_vec(), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn device_round_trip() {
        let a = Tensor::<f32>::ones(&[4]);
        assert_eq!(a.device(), Device::Cpu);
        let b = a.to(Device::Accel(4));
        assert_eq!(b.device(), Device::Accel(4));
        assert_eq!(b.to_vec(), a.to_vec(), "placement must not alter data");
    }

    #[test]
    fn map_and_cast() {
        let a = Tensor::from_vec(vec![1i64, -2, 3], &[3]);
        let b: Tensor<f32> = a.map(|v| v as f32 * 2.0);
        assert_eq!(b.to_vec(), vec![2.0, -4.0, 6.0]);
        assert_eq!(a.to_f32().to_vec(), vec![1.0, -2.0, 3.0]);
        assert_eq!(b.to_i64().to_vec(), vec![2, -4, 6]);
    }

    #[test]
    fn bool_mask_helpers() {
        let m = Tensor::from_vec(vec![true, false, true], &[3]);
        assert_eq!(m.count_true(), 2);
        assert_eq!(m.to_f32_mask().to_vec(), vec![1.0, 0.0, 1.0]);
        assert!(m.any());
        assert!(!m.all());
        assert_eq!(m.not().to_i64_mask().to_vec(), vec![0, 1, 0]);
        let n = Tensor::from_vec(vec![true, true, false], &[3]);
        assert_eq!(m.and(&n).count_true(), 1);
        assert_eq!(m.or(&n).count_true(), 3);
    }

    #[test]
    fn row_extraction() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let r = a.row(1);
        assert_eq!(r.shape(), &[4]);
        assert_eq!(r.to_vec(), vec![4.0, 5.0, 6.0, 7.0]);
        let img = Tensor::<f32>::zeros(&[2, 1, 3, 3]);
        assert_eq!(img.row(0).shape(), &[1, 3, 3]);
    }

    #[test]
    fn repeat_rows_tiles() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2]);
        let b = a.repeat_rows(3);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn randn_is_seeded() {
        let mut r1 = Rng64::new(3);
        let mut r2 = Rng64::new(3);
        let a = Tensor::<f32>::randn(&[16], 0.0, 1.0, &mut r1);
        let b = Tensor::<f32>::randn(&[16], 0.0, 1.0, &mut r2);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn all_finite_guard() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2]);
        assert!(a.all_finite());
        let b = Tensor::from_vec(vec![1.0f32, f32::NAN], &[2]);
        assert!(!b.all_finite());
    }
}
