//! TDPF — the native binary columnar table format.
//!
//! The paper's Listing 1 registers Pandas dataframes, NumPy/Arrow arrays
//! and Parquet files into TDP. TDPF is our on-disk equivalent of that
//! last case: a self-describing columnar file that preserves each
//! column's *encoding* (plain, dictionary, RLE, bit-packed, delta,
//! probability), so a compressed table loads back compressed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "TDPF" u8×4 | version u16 | name (u32 len + utf8)
//! n_rows u64 | n_cols u32
//! per column: name (u32 len + utf8) | tag u8 | payload (per encoding)
//! ```
//!
//! The reader validates magic, version, tags and lengths and reports
//! [`FormatError::Corrupt`] with a description rather than panicking.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use tdp_encoding::{BitPackedColumn, DeltaColumn, EncodedTensor, PeTensor, RleColumn};
use tdp_tensor::{F32Tensor, Tensor};

use crate::table::{Column, Table};

const MAGIC: [u8; 4] = *b"TDPF";
const VERSION: u16 = 1;

/// Reading/writing failures.
#[derive(Debug)]
pub enum FormatError {
    Io(io::Error),
    /// Structural problem in the byte stream; the message says what.
    Corrupt(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "tdpf io error: {e}"),
            FormatError::Corrupt(m) => write!(f, "tdpf corrupt file: {m}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> FormatError {
        FormatError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> FormatError {
    FormatError::Corrupt(msg.into())
}

// ----------------------------------------------------------------------
// Primitive readers/writers
// ----------------------------------------------------------------------

fn write_u16(w: &mut impl Write, v: u16) -> Result<(), FormatError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn write_u32(w: &mut impl Write, v: u32) -> Result<(), FormatError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<(), FormatError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn write_i64(w: &mut impl Write, v: i64) -> Result<(), FormatError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn write_str(w: &mut impl Write, s: &str) -> Result<(), FormatError> {
    write_u32(w, s.len() as u32)?;
    Ok(w.write_all(s.as_bytes())?)
}

fn read_exact<const N: usize>(r: &mut impl Read) -> Result<[u8; N], FormatError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u16(r: &mut impl Read) -> Result<u16, FormatError> {
    Ok(u16::from_le_bytes(read_exact::<2>(r)?))
}

fn read_u32(r: &mut impl Read) -> Result<u32, FormatError> {
    Ok(u32::from_le_bytes(read_exact::<4>(r)?))
}

fn read_u64(r: &mut impl Read) -> Result<u64, FormatError> {
    Ok(u64::from_le_bytes(read_exact::<8>(r)?))
}

fn read_i64(r: &mut impl Read) -> Result<i64, FormatError> {
    Ok(i64::from_le_bytes(read_exact::<8>(r)?))
}

/// Cap for length prefixes: guards against allocating petabytes on a
/// corrupt or malicious length field.
const MAX_LEN: u64 = 1 << 33;

fn checked_len(v: u64, what: &str) -> Result<usize, FormatError> {
    if v > MAX_LEN {
        return Err(corrupt(format!("{what} length {v} is implausible")));
    }
    Ok(v as usize)
}

/// Read `n` items of `width` bytes each. The buffer grows only with bytes
/// actually read, so a length field cannot make the reader allocate more
/// than the stream holds; a short stream is an unexpected EOF, as from
/// `read_exact`.
fn read_bytes(r: &mut impl Read, n: usize, width: usize) -> Result<Vec<u8>, FormatError> {
    let want = n
        .checked_mul(width)
        .ok_or_else(|| corrupt(format!("{n} × {width} bytes overflows")))?;
    let mut buf = Vec::new();
    r.by_ref().take(want as u64).read_to_end(&mut buf)?;
    if buf.len() != want {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

fn read_str(r: &mut impl Read) -> Result<String, FormatError> {
    let len = checked_len(read_u32(r)? as u64, "string")?;
    String::from_utf8(read_bytes(r, len, 1)?).map_err(|_| corrupt("non-utf8 string"))
}

fn write_f32_slice(w: &mut impl Write, data: &[f32]) -> Result<(), FormatError> {
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f32_vec(r: &mut impl Read, n: usize) -> Result<Vec<f32>, FormatError> {
    Ok(read_bytes(r, n, 4)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn read_i64_vec(r: &mut impl Read, n: usize) -> Result<Vec<i64>, FormatError> {
    Ok(read_bytes(r, n, 8)?
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

// ----------------------------------------------------------------------
// Tensors and columns
// ----------------------------------------------------------------------

fn write_f32_tensor(w: &mut impl Write, t: &F32Tensor) -> Result<(), FormatError> {
    write_u32(w, t.ndim() as u32)?;
    for &d in t.shape() {
        write_u64(w, d as u64)?;
    }
    write_f32_slice(w, t.data())
}

fn read_f32_tensor(r: &mut impl Read) -> Result<F32Tensor, FormatError> {
    let ndim = read_u32(r)? as usize;
    if ndim > 8 {
        return Err(corrupt(format!("tensor rank {ndim} is implausible")));
    }
    let mut dims = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        dims.push(checked_len(read_u64(r)?, "dimension")?);
    }
    let numel = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    let numel = numel.ok_or_else(|| corrupt(format!("tensor dims {dims:?} overflow")))?;
    let n = checked_len(numel as u64, "tensor")?;
    Ok(Tensor::from_vec(read_f32_vec(r, n)?, &dims))
}

fn write_i64_column(w: &mut impl Write, data: &[i64]) -> Result<(), FormatError> {
    write_u64(w, data.len() as u64)?;
    for &v in data {
        write_i64(w, v)?;
    }
    Ok(())
}

fn read_i64_column(r: &mut impl Read) -> Result<Vec<i64>, FormatError> {
    let n = checked_len(read_u64(r)?, "i64 column")?;
    read_i64_vec(r, n)
}

fn write_bitpacked(w: &mut impl Write, b: &BitPackedColumn) -> Result<(), FormatError> {
    let (min, width, words, len) = b.parts();
    write_i64(w, min)?;
    write_u32(w, width)?;
    write_u64(w, len as u64)?;
    write_u64(w, words.len() as u64)?;
    for &word in words {
        write_u64(w, word)?;
    }
    Ok(())
}

fn read_bitpacked(r: &mut impl Read) -> Result<BitPackedColumn, FormatError> {
    let min = read_i64(r)?;
    let width = read_u32(r)?;
    if width > 64 {
        return Err(corrupt(format!("bit width {width} exceeds 64")));
    }
    let len = checked_len(read_u64(r)?, "bitpacked column")?;
    let n_words = checked_len(read_u64(r)?, "bitpacked words")?;
    if n_words < (len * width as usize).div_ceil(64) {
        return Err(corrupt(
            "bitpacked word buffer shorter than declared length",
        ));
    }
    let words = read_bytes(r, n_words, 8)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    Ok(BitPackedColumn::from_parts(min, width, words, len))
}

const TAG_F32: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_DICT: u8 = 3;
const TAG_RLE: u8 = 4;
const TAG_PE: u8 = 5;
const TAG_BITPACK: u8 = 6;
const TAG_DELTA: u8 = 7;

fn write_encoded(w: &mut impl Write, col: &EncodedTensor) -> Result<(), FormatError> {
    match col {
        EncodedTensor::F32(t) => {
            w.write_all(&[TAG_F32])?;
            write_f32_tensor(w, t)
        }
        EncodedTensor::I64(t) => {
            w.write_all(&[TAG_I64])?;
            write_i64_column(w, t.data())
        }
        EncodedTensor::Bool(t) => {
            w.write_all(&[TAG_BOOL])?;
            write_u64(w, t.numel() as u64)?;
            let bytes: Vec<u8> = t.data().iter().map(|&b| b as u8).collect();
            Ok(w.write_all(&bytes)?)
        }
        EncodedTensor::Dict { codes, dict } => {
            w.write_all(&[TAG_DICT])?;
            write_i64_column(w, codes.data())?;
            write_u32(w, dict.len() as u32)?;
            for v in dict.values() {
                write_str(w, v)?;
            }
            Ok(())
        }
        EncodedTensor::Rle(rle) => {
            w.write_all(&[TAG_RLE])?;
            write_u64(w, rle.run_values().len() as u64)?;
            for (&v, &run) in rle.run_values().iter().zip(rle.run_lengths()) {
                write_i64(w, v)?;
                write_u32(w, run)?;
            }
            Ok(())
        }
        EncodedTensor::Pe(pe) => {
            w.write_all(&[TAG_PE])?;
            write_f32_tensor(w, pe.probs())?;
            write_f32_tensor(w, pe.class_values())
        }
        EncodedTensor::BitPacked(b) => {
            w.write_all(&[TAG_BITPACK])?;
            write_bitpacked(w, b)
        }
        EncodedTensor::Delta(d) => {
            w.write_all(&[TAG_DELTA])?;
            let (first, deltas, len) = d.parts();
            write_i64(w, first)?;
            write_u64(w, len as u64)?;
            write_bitpacked(w, deltas)
        }
    }
}

fn read_encoded(r: &mut impl Read) -> Result<EncodedTensor, FormatError> {
    let tag = read_exact::<1>(r)?[0];
    Ok(match tag {
        TAG_F32 => EncodedTensor::F32(read_f32_tensor(r)?),
        TAG_I64 => {
            let data = read_i64_column(r)?;
            let n = data.len();
            EncodedTensor::I64(Tensor::from_vec(data, &[n]))
        }
        TAG_BOOL => {
            let n = checked_len(read_u64(r)?, "bool column")?;
            let buf = read_bytes(r, n, 1)?;
            if buf.iter().any(|&b| b > 1) {
                return Err(corrupt("bool byte outside {0, 1}"));
            }
            EncodedTensor::Bool(Tensor::from_vec(
                buf.iter().map(|&b| b == 1).collect(),
                &[n],
            ))
        }
        TAG_DICT => {
            let codes = read_i64_column(r)?;
            let dict_len = read_u32(r)? as i64;
            let mut values = Vec::new();
            for _ in 0..dict_len {
                values.push(read_str(r)?);
            }
            if let Some(&bad) = codes.iter().find(|&&c| c < 0 || c >= dict_len) {
                return Err(corrupt(format!(
                    "dictionary code {bad} outside [0, {dict_len})"
                )));
            }
            if values.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("dictionary values not strictly sorted"));
            }
            // Decode + re-encode keeps StringDict's internal invariants
            // without exposing an unchecked constructor.
            let strings: Vec<&str> = codes.iter().map(|&c| values[c as usize].as_str()).collect();
            EncodedTensor::from_strings(&strings)
        }
        TAG_RLE => {
            let runs = checked_len(read_u64(r)?, "rle runs")?;
            let body = read_bytes(r, runs, 12)?;
            let (values, lengths): (Vec<i64>, Vec<u32>) = body
                .chunks_exact(12)
                .map(|c| {
                    let value = i64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
                    (
                        value,
                        u32::from_le_bytes(c[8..].try_into().expect("4 bytes")),
                    )
                })
                .unzip();
            if lengths.contains(&0) {
                return Err(corrupt("zero-length RLE run"));
            }
            EncodedTensor::Rle(RleColumn::from_parts(values, lengths))
        }
        TAG_PE => {
            let probs = read_f32_tensor(r)?;
            let class_values = read_f32_tensor(r)?;
            if probs.ndim() != 2 || class_values.ndim() != 1 {
                return Err(corrupt("PE payload has wrong rank"));
            }
            if probs.shape()[1] != class_values.numel() {
                return Err(corrupt("PE class count mismatch"));
            }
            EncodedTensor::Pe(PeTensor::new(probs, class_values))
        }
        TAG_BITPACK => EncodedTensor::BitPacked(read_bitpacked(r)?),
        TAG_DELTA => {
            let first = read_i64(r)?;
            let len = checked_len(read_u64(r)?, "delta column")?;
            let deltas = read_bitpacked(r)?;
            if deltas.len() != len.saturating_sub(1) {
                return Err(corrupt("delta payload length mismatch"));
            }
            EncodedTensor::Delta(DeltaColumn::from_parts(first, deltas, len))
        }
        other => return Err(corrupt(format!("unknown encoding tag {other}"))),
    })
}

// ----------------------------------------------------------------------
// Tables
// ----------------------------------------------------------------------

/// Serialize a table into a writer.
pub fn write_table(w: &mut impl Write, table: &Table) -> Result<(), FormatError> {
    w.write_all(&MAGIC)?;
    write_u16(w, VERSION)?;
    write_str(w, table.name())?;
    write_u64(w, table.rows() as u64)?;
    write_u32(w, table.columns().len() as u32)?;
    for col in table.columns() {
        write_str(w, &col.name)?;
        write_encoded(w, &col.data)?;
    }
    Ok(())
}

/// Deserialize a table from a reader.
pub fn read_table(r: &mut impl Read) -> Result<Table, FormatError> {
    let magic = read_exact::<4>(r)?;
    if magic != MAGIC {
        return Err(corrupt("bad magic (not a TDPF file)"));
    }
    let version = read_u16(r)?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let name = read_str(r)?;
    let rows = checked_len(read_u64(r)?, "table")?;
    let n_cols = read_u32(r)?;
    if n_cols > 100_000 {
        return Err(corrupt(format!("{n_cols} columns is implausible")));
    }
    let mut columns = Vec::new();
    for _ in 0..n_cols {
        let col_name = read_str(r)?;
        let data = read_encoded(r)?;
        if data.rows() != rows {
            return Err(corrupt(format!(
                "column '{col_name}' has {} rows, table declares {rows}",
                data.rows()
            )));
        }
        columns.push(Column::new(col_name, data));
    }
    Ok(Table::new(name, columns))
}

/// Write a table to a file path.
pub fn save_table(table: &Table, path: impl AsRef<Path>) -> Result<(), FormatError> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_table(&mut f, table)?;
    Ok(f.flush()?)
}

/// Read a table from a file path.
pub fn load_table(path: impl AsRef<Path>) -> Result<Table, FormatError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_table(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use tdp_tensor::Rng64;

    fn mixed_table() -> Table {
        let mut rng = Rng64::new(4);
        let images = F32Tensor::randn(&[6, 2, 3, 3], 0.0, 1.0, &mut rng);
        let pe = PeTensor::from_class_ids(
            &Tensor::from_vec(vec![0i64, 1, 2, 1, 0, 2], &[6]),
            PeTensor::range_classes(3),
        );
        TableBuilder::new()
            .col_f32("score", vec![0.5, -1.0, 2.25, 0.0, 3.5, -0.125])
            .col_i64("qty", vec![4, 4, 4, 9, 9, 1])
            .col_bool("flag", vec![true, false, true, true, false, false])
            .col_str("tag", &["b", "a", "b", "c", "a", "a"])
            .col_tensor("img", images)
            .col_encoded("label", EncodedTensor::Pe(pe))
            .build("mixed")
    }

    fn round_trip(t: &Table) -> Table {
        let mut buf = Vec::new();
        write_table(&mut buf, t).expect("write");
        read_table(&mut buf.as_slice()).expect("read")
    }

    #[test]
    fn mixed_encodings_round_trip() {
        let t = mixed_table();
        let back = round_trip(&t);
        assert_eq!(back.name(), "mixed");
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.column_names(), t.column_names());
        for col in t.columns() {
            let b = back.column(&col.name).unwrap();
            assert_eq!(b.data.kind(), col.data.kind(), "{}", col.name);
            assert_eq!(
                b.data.decode_strings(),
                col.data.decode_strings(),
                "{}",
                col.name
            );
        }
        // Payload tensor bytes match exactly.
        assert_eq!(
            back.column("img").unwrap().data.decode_f32().to_vec(),
            t.column("img").unwrap().data.decode_f32().to_vec()
        );
    }

    #[test]
    fn compressed_encodings_stay_compressed_on_disk() {
        let ts: Vec<i64> = (0..4_000).map(|i| 9_000 + i).collect();
        let t = TableBuilder::new()
            .col_i64("ts", ts.clone())
            .build("log")
            .compress();
        let kind = t.column("ts").unwrap().data.kind();
        assert_ne!(kind, tdp_encoding::EncodingKind::PlainI64);

        let mut buf = Vec::new();
        write_table(&mut buf, &t).expect("write");
        // The file is much smaller than 4000 × 8 bytes of plain i64.
        assert!(buf.len() < 8_000, "file is {} bytes", buf.len());
        let back = read_table(&mut buf.as_slice()).expect("read");
        assert_eq!(back.column("ts").unwrap().data.kind(), kind);
        assert_eq!(back.column("ts").unwrap().data.decode_i64().to_vec(), ts);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = TableBuilder::new().col_f32("x", vec![]).build("empty");
        let back = round_trip(&t);
        assert_eq!(back.rows(), 0);
        assert_eq!(back.column_names(), vec!["x"]);
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let t = mixed_table();
        let mut buf = Vec::new();
        write_table(&mut buf, &t).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_table(&mut bad_magic.as_slice()),
            Err(FormatError::Corrupt(_))
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read_table(&mut bad_version.as_slice()),
            Err(FormatError::Corrupt(_))
        ));

        // Truncation at any of a few prefixes must error, not panic.
        for cut in [5usize, 20, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_table(&mut buf[..cut].as_ref()).is_err(),
                "truncated at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_inconsistent_row_counts() {
        // Hand-craft a file whose column length disagrees with the header.
        let t = TableBuilder::new().col_f32("x", vec![1.0, 2.0]).build("t");
        let mut buf = Vec::new();
        write_table(&mut buf, &t).unwrap();
        // Patch declared row count (8 bytes after magic+version+name).
        let name_end = 4 + 2 + 4 + 1; // magic, version, len("t"), "t"
        buf[name_end] = 9;
        assert!(matches!(
            read_table(&mut buf.as_slice()),
            Err(FormatError::Corrupt(m)) if m.contains("rows")
        ));
    }

    /// A one-column file up to and including the column's encoding tag,
    /// declaring `rows` rows; the caller appends the payload.
    fn one_column(rows: u64, tag: u8) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        write_u16(&mut buf, VERSION).unwrap();
        write_str(&mut buf, "t").unwrap();
        write_u64(&mut buf, rows).unwrap();
        write_u32(&mut buf, 1).unwrap();
        write_str(&mut buf, "x").unwrap();
        buf.push(tag);
        buf
    }

    /// A length field says what follows, never what to allocate: a file
    /// declaring more than it holds fails with an error — not an abort on
    /// a 64 GiB allocation, not a panic, not a table of rows with no data
    /// behind them — and a shape whose element count overflows is corrupt.
    #[test]
    fn declared_lengths_never_size_an_allocation() {
        const HUGE: u64 = 1 << 33;
        // 37 bytes: an i64 column of 2^33 rows, no body.
        let mut i64_col = one_column(HUGE, TAG_I64);
        write_u64(&mut i64_col, HUGE).unwrap();
        assert_eq!(i64_col.len(), 37);
        // 49 bytes: an f32 tensor of dims [2^32, 2^32], no body.
        let mut f32_col = one_column(1 << 32, TAG_F32);
        write_u32(&mut f32_col, 2).unwrap();
        write_u64(&mut f32_col, 1 << 32).unwrap();
        write_u64(&mut f32_col, 1 << 32).unwrap();
        assert_eq!(f32_col.len(), 49);
        assert!(matches!(
            read_table(&mut f32_col.as_slice()),
            Err(FormatError::Corrupt(m)) if m.contains("overflow")
        ));

        let mut bools = one_column(HUGE, TAG_BOOL);
        write_u64(&mut bools, HUGE).unwrap();
        // No codes, then u32::MAX dictionary values.
        let mut dict = one_column(0, TAG_DICT);
        write_u64(&mut dict, 0).unwrap();
        write_u32(&mut dict, u32::MAX).unwrap();
        let mut rle = one_column(HUGE, TAG_RLE);
        write_u64(&mut rle, HUGE).unwrap();
        // min, bit width 1, 2^33 values in 2^33 words.
        let mut packed = one_column(HUGE, TAG_BITPACK);
        write_i64(&mut packed, 0).unwrap();
        write_u32(&mut packed, 1).unwrap();
        write_u64(&mut packed, HUGE).unwrap();
        write_u64(&mut packed, HUGE).unwrap();
        for (name, file) in [
            ("i64", i64_col),
            ("f32", f32_col),
            ("bool", bools),
            ("dictionary", dict),
            ("rle", rle),
            ("bit-packed", packed),
        ] {
            assert!(read_table(&mut file.as_slice()).is_err(), "{name}");
        }
    }

    #[test]
    fn save_and_load_via_path() {
        let dir = std::env::temp_dir().join("tdpf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.tdpf");
        let t = mixed_table();
        save_table(&t, &path).expect("save");
        let back = load_table(&path).expect("load");
        assert_eq!(back.rows(), t.rows());
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_table(dir.join("missing.tdpf")),
            Err(FormatError::Io(_))
        ));
    }
}
