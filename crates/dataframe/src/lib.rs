//! # geotorch-dataframe
//!
//! A columnar, partitioned DataFrame engine with the geospatial types the
//! preprocessing pipeline needs — the Apache Spark + Apache Sedona
//! substrate of the GeoTorchAI reproduction.
//!
//! The engine keeps a [`DataFrame`] as a set of *partitions* (column
//! chunks). Partition-local work runs concurrently across a scoped thread
//! pool ([`exec::par_map`]), mirroring how Spark distributes stages over
//! executors; the final merge step plays the role of the shuffle/reduce.
//! This preserves the property GeoTorchAI's preprocessing evaluation
//! measures: partitioned, streaming execution keeps memory flat and scales
//! with cores, while a naive materialising engine (see
//! `geotorch-preprocess::geopandas_like`) does not.
//!
//! Spatial support covers what the paper's Listing 8 uses on a uniform
//! grid: geometry columns ([`geometry::Geometry`]), WKT round-tripping,
//! [`spatial::add_point_column`] and [`spatial::UniformGrid`]. The Sedona
//! spatial join and group-by behind Listing 8 are fused into one grid kernel
//! in `geotorch-preprocess`; irregular-zone joins are not reproduced.
//!
//! Unlike the tensor crates (where shape errors are programmer bugs and
//! panic), this crate deals with *data-dependent* failure and returns
//! [`DfError`] everywhere.

#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod exec;
pub mod frame;
pub mod geometry;
pub mod spatial;
pub mod spill;

pub use column::{Column, DType, Value};
pub use error::{DfError, DfResult};
pub use frame::{DataFrame, Schema};
pub use geometry::{Envelope, Geometry, Point, Polygon};
pub use spill::SpillStore;
