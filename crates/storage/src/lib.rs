//! # tdp-storage
//!
//! Columnar tensor storage (paper §2, "Storage Model"): a table is a set of
//! named encoded-tensor columns sharing a row count. Because a column is
//! just a tensor, tabular data (1-d columns), vector data (2-d), and image
//! data (3-d/4-d) live side by side in one table and can be queried by one
//! engine — the property that makes mixed scalar-vector queries natural.
//!
//! The [`Catalog`] is the session-level namespace; registration APIs play
//! the role of `tdp.sql.register_df` / `register_tensor` in the paper
//! (Listing 1), converting and encoding inputs and placing them on the
//! requested device.

pub mod catalog;
pub mod csv;
pub mod format;
pub mod table;
pub mod vindex;
pub mod zonemap;

pub use catalog::Catalog;
pub use format::{load_table, save_table, FormatError};
pub use table::{Column, Table, TableBuilder, TableStats};
pub use vindex::{IndexKind, VectorIndex, VectorIndexEntry};
pub use zonemap::{ChunkStat, ColumnZoneMap, TableZoneMaps, ZONE_MAP_CHUNK_ROWS};
