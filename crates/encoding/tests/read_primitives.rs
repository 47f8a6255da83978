//! The one row-movement family every morsel, gather and late
//! materialization goes through — [`EncodedTensor::slice_rows`] (and its
//! prefix form `head`), [`EncodedTensor::select_rows`] and
//! [`EncodedTensor::filter_rows`] — against its definition, for every
//! layout: the decoded column sliced / indexed, integer-compressed
//! layouts coming back as plain `i64`, every other layout as itself.

use proptest::prelude::*;
use tdp_encoding::delta::ANCHOR_STRIDE;
use tdp_encoding::{
    BitPackedColumn, DeltaColumn, EncodedTensor, EncodingKind, PeTensor, RleColumn,
};
use tdp_tensor::{I64Tensor, Tensor};

fn i64s(v: Vec<i64>) -> I64Tensor {
    let n = v.len();
    Tensor::from_vec(v, &[n])
}

/// What a reader observes of a scalar column, one entry per row, in the
/// form its layout is exact in: strings for dictionaries, bit patterns
/// for floats (PE decodes to its class values), integers for everything
/// else.
#[derive(Debug, PartialEq)]
enum View {
    Strings(Vec<String>),
    Bits(Vec<u32>),
    Ints(Vec<i64>),
}

fn view(col: &EncodedTensor) -> View {
    match col.kind() {
        EncodingKind::Dictionary => View::Strings(col.decode_strings()),
        EncodingKind::PlainF32 | EncodingKind::Probability => View::Bits(
            col.decode_f32()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        ),
        _ => View::Ints(col.decode_i64().to_vec()),
    }
}

/// The rows `ids` of a whole-column view — the definition every read is
/// held to, computed without the family under test.
fn pick(whole: &View, ids: &[i64]) -> View {
    fn rows<T: Clone>(v: &[T], ids: &[i64]) -> Vec<T> {
        ids.iter().map(|&i| v[i as usize].clone()).collect()
    }
    match whole {
        View::Strings(v) => View::Strings(rows(v, ids)),
        View::Bits(v) => View::Bits(rows(v, ids)),
        View::Ints(v) => View::Ints(rows(v, ids)),
    }
}

/// The kind a read comes back as: integer-compressed layouts are read
/// into plain `i64`, every other layout keeps its own.
fn read_kind(col: &EncodedTensor) -> EncodingKind {
    match col.kind() {
        EncodingKind::RunLength | EncodingKind::BitPacked | EncodingKind::Delta => {
            EncodingKind::PlainI64
        }
        own => own,
    }
}

fn check_window(col: &EncodedTensor, whole: &View, start: usize, end: usize) {
    let rows = col.rows();
    let clamped: Vec<i64> = (start.min(end).min(rows)..end.min(rows))
        .map(|r| r as i64)
        .collect();
    let got = col.slice_rows(start, end);
    assert_eq!(got.kind(), read_kind(col), "slice {start}..{end}");
    assert_eq!(
        view(&got),
        pick(whole, &clamped),
        "slice {start}..{end} of {:?}",
        col.kind()
    );
    if start == 0 {
        let head = col.head(end);
        assert_eq!(head.kind(), read_kind(col), "head {end}");
        assert_eq!(view(&head), view(&got), "head {end} of {:?}", col.kind());
    }
}

fn check_at(col: &EncodedTensor, whole: &View, ids: Vec<i64>) {
    let got = col.select_rows(&i64s(ids.clone()));
    assert_eq!(got.kind(), read_kind(col), "select {ids:?}");
    assert_eq!(
        view(&got),
        pick(whole, &ids),
        "select {ids:?} of {:?}",
        col.kind()
    );
    // Law: a mask's survivors are the rows at the ids it keeps.
    if ids.windows(2).all(|w| w[0] < w[1]) {
        let mut mask = vec![false; col.rows()];
        ids.iter().for_each(|&i| mask[i as usize] = true);
        let n = mask.len();
        let kept = col.filter_rows(&Tensor::from_vec(mask, &[n]));
        assert_eq!(kept.kind(), got.kind(), "filter keeping {ids:?}");
        assert_eq!(view(&kept), view(&got), "filter keeping {ids:?}");
    }
}

/// Law: the full range is the decoded column — and for the layouts that
/// keep their encoding, the column's own buffer, shared rather than
/// copied.
fn check_full_range(col: &EncodedTensor, whole: &View) {
    let full = col.slice_rows(0, col.rows());
    assert_eq!(full.kind(), read_kind(col));
    assert_eq!(&view(&full), whole);
    let shared = match (col, &full) {
        (EncodedTensor::F32(a), EncodedTensor::F32(b)) => a.data().as_ptr() == b.data().as_ptr(),
        (EncodedTensor::I64(a), EncodedTensor::I64(b)) => a.data().as_ptr() == b.data().as_ptr(),
        (EncodedTensor::Bool(a), EncodedTensor::Bool(b)) => a.data().as_ptr() == b.data().as_ptr(),
        (EncodedTensor::Dict { codes: a, .. }, EncodedTensor::Dict { codes: b, .. }) => {
            a.data().as_ptr() == b.data().as_ptr()
        }
        _ => true,
    };
    assert!(
        shared,
        "full-range slice of {:?} copied the buffer",
        col.kind()
    );
}

/// Every window over `bounds` × `bounds` (clamped and empty ones
/// included), and the id lists the hand-off produces: none, all, the
/// first and last row, every `stride`-th row, the rows either side of
/// each of `bounds` — plus one list that is not ascending.
fn check_reads(col: &EncodedTensor, bounds: &[usize], stride: usize) {
    let plain = view(col);
    let rows = col.rows();
    check_full_range(col, &plain);
    for &start in bounds {
        for &end in bounds {
            check_window(col, &plain, start, end);
        }
    }
    let valid = |r: &i64| (0..rows as i64).contains(r);
    check_at(col, &plain, Vec::new());
    check_at(col, &plain, (0..rows as i64).collect());
    check_at(col, &plain, (0..rows as i64).step_by(stride).collect());
    check_at(
        col,
        &plain,
        [0, rows as i64 - 1].into_iter().filter(valid).collect(),
    );
    let mut near: Vec<i64> = bounds
        .iter()
        .flat_map(|&b| [b as i64 - 1, b as i64, b as i64 + 1])
        .filter(valid)
        .collect();
    near.sort_unstable();
    check_at(col, &plain, near.clone());
    near.reverse();
    near.extend((0..rows as i64).step_by(stride));
    check_at(col, &plain, near);
}

/// Every row boundary of a short column, plus two past its end.
fn all_bounds(rows: usize) -> Vec<usize> {
    (0..=rows + 2).collect()
}

const WIDTHS: [u32; 6] = [0, 1, 7, 16, 63, 64];

proptest! {
    /// Bit-packed columns of every interesting width; 7-bit values over
    /// more than 64 rows straddle word boundaries, 63 and 64 bits fill
    /// whole words.
    #[test]
    fn bit_packed_reads(
        raw in proptest::collection::vec(any::<i64>(), 0..150),
        width in 0usize..WIDTHS.len(),
        stride in 1usize..9,
    ) {
        let width = WIDTHS[width];
        let mask = if width == 0 { 0 } else { u64::MAX >> (64 - width) };
        let min = if width == 64 { i64::MIN } else { -5 };
        // Offsets 0 and `mask` pin the packed width.
        let vals: Vec<i64> = [0, mask]
            .into_iter()
            .chain(raw.iter().map(|&r| r as u64 & mask))
            .map(|off| min.wrapping_add(off as i64))
            .collect();
        let packed = BitPackedColumn::encode(&i64s(vals.clone()));
        prop_assert_eq!(packed.width(), width);
        prop_assert_eq!(packed.decode().to_vec(), vals);
        let col = EncodedTensor::BitPacked(packed);
        check_reads(&col, &all_bounds(col.rows()), stride);
    }

    #[test]
    fn run_length_reads(
        raw in proptest::collection::vec(-2i64..3, 0..120),
        repeat in 1usize..6,
        stride in 1usize..9,
    ) {
        let vals: Vec<i64> = raw
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v * 1_000_000_007, repeat))
            .take(150)
            .collect();
        let col = EncodedTensor::Rle(RleColumn::encode(&i64s(vals)));
        check_reads(&col, &all_bounds(col.rows()), stride);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delta columns at the lengths where anchors begin, end and repeat,
    /// with small, negative and overflow-adjacent differences, read at
    /// both sides of every anchor — from a freshly encoded column and
    /// from one rebuilt out of its serialised parts.
    #[test]
    fn delta_reads(
        len in 0usize..6,
        shape in 0usize..3,
        seed in any::<i64>(),
        at in 0usize..(3 * ANCHOR_STRIDE + 5),
        stride in 1usize..700,
    ) {
        let len = [0, 1, ANCHOR_STRIDE - 1, ANCHOR_STRIDE, ANCHOR_STRIDE + 1, 3 * ANCHOR_STRIDE + 5][len];
        let mut state = seed as u64 | 1;
        let mut step = || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (state >> 33) as i64
        };
        let vals: Vec<i64> = match shape {
            // A jittered clock.
            0 => (0..len).scan(1_660_000_000i64, |t, _| { *t += 1 + step() % 3; Some(*t) }).collect(),
            // Falling as often as rising.
            1 => (0..len).scan(0i64, |t, _| { *t += step() % 2001 - 1000; Some(*t) }).collect(),
            // Differences of ±(2⁶³ − 1): the widest a delta may be.
            _ => (0..len).map(|i| if i % 2 == 0 { i64::MIN / 2 } else { i64::MAX / 2 }).collect(),
        };
        let fresh = DeltaColumn::encode(&i64s(vals.clone())).expect("differences fit i64");
        prop_assert_eq!(fresh.decode().to_vec(), vals);
        let (first, deltas, rows) = fresh.parts();
        let loaded = DeltaColumn::from_parts(first, deltas.clone(), rows);

        let mut bounds = vec![0, 1, at.min(len), len.saturating_sub(1), len, len + 3];
        bounds.extend((0..=len).step_by(ANCHOR_STRIDE).flat_map(|a| [a.saturating_sub(1), a, a + 1]));
        bounds.sort_unstable();
        bounds.dedup();
        for col in [EncodedTensor::Delta(fresh), EncodedTensor::Delta(loaded)] {
            check_reads(&col, &bounds, stride);
        }
    }

}

proptest! {
    /// Layouts that are not integer-compressed read as themselves:
    /// plain f32 (scalar and payload), plain i64, booleans, dictionary
    /// strings sharing their dictionary, probability encodings.
    #[test]
    fn other_layouts_read_as_slices_and_gathers(
        raw in proptest::collection::vec(0i64..7, 0..60),
        stride in 1usize..5,
    ) {
        let n = raw.len();
        let strings: Vec<String> = raw.iter().map(|v| format!("s{v}")).collect();
        let cols = [
            EncodedTensor::from_f32_slice(&raw.iter().map(|&v| v as f32 - 0.5).collect::<Vec<_>>()),
            EncodedTensor::F32(Tensor::from_vec(
                raw.iter().flat_map(|&v| [v as f32, -(v as f32)]).collect(),
                &[n, 2],
            )),
            EncodedTensor::from_i64_slice(&raw),
            EncodedTensor::Bool(Tensor::from_vec(raw.iter().map(|&v| v % 2 == 0).collect(), &[n])),
            EncodedTensor::from_strings(&strings),
            EncodedTensor::Pe(PeTensor::from_class_ids(&i64s(raw.clone()), PeTensor::range_classes(7))),
        ];
        for col in &cols {
            if col.row_shape().is_empty() {
                check_reads(col, &all_bounds(n), stride);
            } else {
                // Payload rows have no scalar view; compare the buffers.
                let idx = i64s((0..n as i64).step_by(stride).collect());
                let buf = col.decode_f32().to_vec();
                let want: Vec<f32> = idx.data().iter().flat_map(|&i| [buf[2 * i as usize], buf[2 * i as usize + 1]]).collect();
                prop_assert_eq!(col.select_rows(&idx).decode_f32().to_vec(), want);
                prop_assert_eq!(col.slice_rows(1, n + 1).decode_f32().to_vec(), buf[(2 * n).min(2)..].to_vec());
                check_full_range(col, &View::Bits(buf.iter().map(|v| v.to_bits()).collect()));
            }
        }
        if let (EncodedTensor::Dict { dict: whole, .. }, EncodedTensor::Dict { dict: part, .. }) =
            (&cols[4], &cols[4].slice_rows(0, n / 2))
        {
            prop_assert!(std::sync::Arc::ptr_eq(whole, part), "slices share the dictionary");
        }
    }
}
