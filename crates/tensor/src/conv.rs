//! Convolution and pooling kernels (im2col lowering).
//!
//! `conv2d` follows PyTorch's convention (cross-correlation, NCHW layout)
//! and is lowered to matmul through [`im2col`]; the autodiff crate reuses
//! [`col2im`] for the input gradient. `correlate2d` is the template-matching
//! primitive behind the OCR pipeline of §5.2.

use crate::device::PAR_THRESHOLD;
use crate::element::Float;
use crate::tensor::Tensor;

/// Spatial geometry of a convolution/pooling op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeom {
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl Conv2dGeom {
    pub fn new(kh: usize, kw: usize, stride: usize, pad: usize) -> Conv2dGeom {
        assert!(stride > 0, "stride must be positive");
        Conv2dGeom {
            kh,
            kw,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h x w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad)
            .checked_sub(self.kh)
            .map(|v| v / self.stride + 1);
        let ow = (w + 2 * self.pad)
            .checked_sub(self.kw)
            .map(|v| v / self.stride + 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => panic!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh,
                self.kw,
                h + 2 * self.pad,
                w + 2 * self.pad
            ),
        }
    }
}

/// Unfold `[n, c, h, w]` into columns `[n * oh * ow, c * kh * kw]`.
pub fn im2col<T: Float>(input: &Tensor<T>, g: Conv2dGeom) -> Tensor<T> {
    assert_eq!(
        input.ndim(),
        4,
        "im2col expects NCHW, got {:?}",
        input.shape()
    );
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (oh, ow) = g.out_size(h, w);
    let cols_w = c * g.kh * g.kw;
    let data = input.data();
    let patches = n * oh * ow;
    let mut out = vec![T::zero(); patches * cols_w];
    input
        .device()
        .fill_rows(&mut out, patches, PAR_THRESHOLD, |patch, row| {
            let b = patch / (oh * ow);
            let oy = (patch / ow) % oh;
            let ox = patch % ow;
            let mut col = 0usize;
            for ch in 0..c {
                for ky in 0..g.kh {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    for kx in 0..g.kw {
                        let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                        row[col] = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            data[((b * c + ch) * h + iy as usize) * w + ix as usize]
                        } else {
                            T::zero()
                        };
                        col += 1;
                    }
                }
            }
        });
    Tensor::from_vec(out, &[patches, cols_w]).to(input.device())
}

/// Fold columns back into an image, accumulating overlaps — the adjoint of
/// [`im2col`], used for conv2d input gradients.
pub fn col2im<T: Float>(
    cols: &Tensor<T>,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    g: Conv2dGeom,
) -> Tensor<T> {
    let (oh, ow) = g.out_size(h, w);
    let cols_w = c * g.kh * g.kw;
    assert_eq!(
        cols.shape(),
        &[n * oh * ow, cols_w],
        "col2im shape mismatch"
    );
    let data = cols.data();
    let mut out = vec![T::zero(); n * c * h * w];
    for patch in 0..n * oh * ow {
        let b = patch / (oh * ow);
        let oy = (patch / ow) % oh;
        let ox = patch % ow;
        let row = &data[patch * cols_w..(patch + 1) * cols_w];
        let mut col = 0usize;
        for ch in 0..c {
            for ky in 0..g.kh {
                let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                for kx in 0..g.kw {
                    let ix = (ox * g.stride + kx) as isize - g.pad as isize;
                    if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                        out[((b * c + ch) * h + iy as usize) * w + ix as usize] += row[col];
                    }
                    col += 1;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w]).to(cols.device())
}

impl<T: Float> Tensor<T> {
    /// 2-d convolution (cross-correlation). `self` is `[n, c, h, w]`,
    /// `weight` is `[o, c, kh, kw]`, optional `bias` is `[o]`.
    pub fn conv2d(
        &self,
        weight: &Tensor<T>,
        bias: Option<&Tensor<T>>,
        stride: usize,
        pad: usize,
    ) -> Tensor<T> {
        assert_eq!(self.ndim(), 4, "conv2d input must be NCHW");
        assert_eq!(weight.ndim(), 4, "conv2d weight must be OCKK");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let (o, wc, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        assert_eq!(c, wc, "conv2d channel mismatch: input {c} vs weight {wc}");
        let g = Conv2dGeom::new(kh, kw, stride, pad);
        let (oh, ow) = g.out_size(h, w);

        // cols: [n*oh*ow, c*kh*kw]; weight as [c*kh*kw, o]
        let cols = im2col(self, g);
        let wmat = weight.reshape(&[o, c * kh * kw]).transpose();
        let mut out = cols.matmul(&wmat); // [n*oh*ow, o]
        if let Some(b) = bias {
            assert_eq!(b.shape(), &[o], "conv2d bias must be [out_channels]");
            out = out.add(&b.reshape(&[1, o]));
        }
        // [n*oh*ow, o] -> [n, oh, ow, o] -> [n, o, oh, ow]
        out.reshape(&[n, oh, ow, o]).permute(&[0, 3, 1, 2])
    }

    /// Max pooling with argmax indices (flat over the input HxW plane per
    /// (n, c)). Returns `(pooled [n,c,oh,ow], indices i64 [n,c,oh,ow])`.
    pub fn max_pool2d(&self, k: usize, stride: usize) -> (Tensor<T>, Tensor<i64>) {
        assert_eq!(self.ndim(), 4, "max_pool2d input must be NCHW");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let g = Conv2dGeom::new(k, k, stride, 0);
        let (oh, ow) = g.out_size(h, w);
        let data = self.data();
        let mut vals = vec![T::zero(); n * c * oh * ow];
        let mut idxs = vec![0i64; n * c * oh * ow];
        for b in 0..n {
            for ch in 0..c {
                let plane = &data[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = T::min_value();
                        let mut best_i = 0usize;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * stride + ky;
                                let ix = ox * stride + kx;
                                let v = plane[iy * w + ix];
                                if v > best {
                                    best = v;
                                    best_i = iy * w + ix;
                                }
                            }
                        }
                        let oi = ((b * c + ch) * oh + oy) * ow + ox;
                        vals[oi] = best;
                        idxs[oi] = best_i as i64;
                    }
                }
            }
        }
        (
            Tensor::from_vec(vals, &[n, c, oh, ow]).to(self.device()),
            Tensor::from_vec(idxs, &[n, c, oh, ow]).to(self.device()),
        )
    }

    /// Average pooling.
    pub fn avg_pool2d(&self, k: usize, stride: usize) -> Tensor<T> {
        assert_eq!(self.ndim(), 4, "avg_pool2d input must be NCHW");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        let g = Conv2dGeom::new(k, k, stride, 0);
        let (oh, ow) = g.out_size(h, w);
        let data = self.data();
        let inv = T::from_f64(1.0 / (k * k) as f64);
        let mut out = vec![T::zero(); n * c * oh * ow];
        for b in 0..n {
            for ch in 0..c {
                let plane = &data[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = T::zero();
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += plane[(oy * stride + ky) * w + ox * stride + kx];
                            }
                        }
                        out[((b * c + ch) * oh + oy) * ow + ox] = acc * inv;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, oh, ow]).to(self.device())
    }

    /// Global average pooling `[n, c, h, w] -> [n, c]`.
    pub fn global_avg_pool(&self) -> Tensor<T> {
        assert_eq!(self.ndim(), 4, "global_avg_pool input must be NCHW");
        let (n, c, h, w) = (
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        );
        self.reshape(&[n, c, h * w]).mean_dim(2, false)
    }

    /// Valid-mode 2-d cross-correlation of a single-channel image `[h, w]`
    /// with a template `[kh, kw]`. The OCR character recogniser slides a
    /// glyph atlas over document images with this kernel.
    pub fn correlate2d(&self, template: &Tensor<T>) -> Tensor<T> {
        assert_eq!(self.ndim(), 2, "correlate2d image must be 2-d");
        assert_eq!(template.ndim(), 2, "correlate2d template must be 2-d");
        let img = self.reshape(&[1, 1, self.shape()[0], self.shape()[1]]);
        let ker = template.reshape(&[1, 1, template.shape()[0], template.shape()[1]]);
        let out = img.conv2d(&ker, None, 1, 0);
        let (oh, ow) = (out.shape()[2], out.shape()[3]);
        out.reshape(&[oh, ow])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn geom_output_sizes() {
        assert_eq!(Conv2dGeom::new(3, 3, 1, 0).out_size(5, 5), (3, 3));
        assert_eq!(Conv2dGeom::new(3, 3, 1, 1).out_size(5, 5), (5, 5));
        assert_eq!(Conv2dGeom::new(2, 2, 2, 0).out_size(4, 4), (2, 2));
    }

    #[test]
    fn conv2d_identity_kernel() {
        let img = t((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let ident = t(vec![1.0], &[1, 1, 1, 1]);
        let out = img.conv2d(&ident, None, 1, 0);
        assert_eq!(out.to_vec(), img.to_vec());
    }

    #[test]
    fn conv2d_box_filter_hand_checked() {
        let img = t(
            vec![
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 9.0,
            ],
            &[1, 1, 3, 3],
        );
        let box2 = t(vec![1.0; 4], &[1, 1, 2, 2]);
        let out = img.conv2d(&box2, None, 1, 0);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.to_vec(), vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_and_bias() {
        let img = t(vec![1.0; 9], &[1, 1, 3, 3]);
        let k = t(vec![1.0; 9], &[1, 1, 3, 3]);
        let bias = t(vec![0.5], &[1]);
        let out = img.conv2d(&k, Some(&bias), 1, 1);
        assert_eq!(out.shape(), &[1, 1, 3, 3]);
        // Centre sees all 9 ones; corner sees 4.
        assert_eq!(out.get(&[0, 0, 1, 1]), 9.5);
        assert_eq!(out.get(&[0, 0, 0, 0]), 4.5);
    }

    #[test]
    fn conv2d_multi_channel() {
        // Two input channels, kernel sums them.
        let img = t(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        );
        let k = t(vec![1.0, 1.0], &[1, 2, 1, 1]);
        let out = img.conv2d(&k, None, 1, 0);
        assert_eq!(out.to_vec(), vec![11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn conv2d_stride() {
        let img = t((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let ident = t(vec![1.0], &[1, 1, 1, 1]);
        let out = img.conv2d(&ident, None, 2, 0);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.to_vec(), vec![0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn im2col_col2im_adjoint_shape() {
        let g = Conv2dGeom::new(2, 2, 1, 0);
        let img = t((0..9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let cols = im2col(&img, g);
        assert_eq!(cols.shape(), &[4, 4]);
        let back = col2im(&cols, 1, 1, 3, 3, g);
        assert_eq!(back.shape(), &[1, 1, 3, 3]);
        // Centre pixel participates in all 4 patches -> accumulated 4x.
        assert_eq!(back.get(&[0, 0, 1, 1]), 4.0 * img.get(&[0, 0, 1, 1]));
        // Corner participates once.
        assert_eq!(back.get(&[0, 0, 0, 0]), img.get(&[0, 0, 0, 0]));
    }

    #[test]
    fn max_pool_values_and_indices() {
        let img = t(
            vec![
                1.0, 3.0, 2.0, 4.0, //
                5.0, 6.0, 8.0, 7.0, //
                9.0, 2.0, 1.0, 0.0, //
                3.0, 4.0, 5.0, 6.0,
            ],
            &[1, 1, 4, 4],
        );
        let (vals, idx) = img.max_pool2d(2, 2);
        assert_eq!(vals.to_vec(), vec![6.0, 8.0, 9.0, 6.0]);
        assert_eq!(idx.to_vec(), vec![5, 6, 8, 15]);
    }

    #[test]
    fn avg_and_global_pool() {
        let img = t(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        assert_eq!(img.avg_pool2d(2, 2).to_vec(), vec![2.5]);
        let two_ch = t(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        assert_eq!(two_ch.global_avg_pool().to_vec(), vec![2.5, 10.0]);
    }

    #[test]
    fn correlate2d_peaks_at_template_location() {
        // Embed a distinctive 2x2 pattern at (1,2) of a 4x5 image.
        let mut img = Tensor::<f32>::zeros(&[4, 5]);
        let pat = [[3.0f32, 1.0], [1.0, 3.0]];
        for (dy, row) in pat.iter().enumerate() {
            for (dx, &v) in row.iter().enumerate() {
                img.set(&[1 + dy, 2 + dx], v);
            }
        }
        let template = t(vec![3.0, 1.0, 1.0, 3.0], &[2, 2]);
        let score = img.correlate2d(&template);
        assert_eq!(score.shape(), &[3, 4]);
        let best = score.argmax_flat();
        assert_eq!((best / 4, best % 4), (1, 2));
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn oversized_kernel_panics() {
        t(vec![0.0; 4], &[1, 1, 2, 2]).conv2d(&t(vec![0.0; 9], &[1, 1, 3, 3]), None, 1, 0);
    }
}
