//! # geotorch-datasets
//!
//! Benchmark datasets, synthetic data generators, and batching utilities
//! for GeoTorch-RS — the `geotorchai.datasets` module of the paper.
//!
//! The paper's benchmark datasets (Table II and III) are derived from
//! external sources (NYC TLC records, TaxiBJ GPS traces, Sentinel-2
//! imagery, WeatherBench, …) that are not available here. Every dataset
//! is therefore backed by a **seeded synthetic generator** that matches
//! the published grid shape / interval / band count / class count and —
//! crucially — reproduces the *inductive-bias structure* each model
//! family exploits:
//!
//! * traffic grids carry strong daily/weekly periodicity plus a stable
//!   spatial demand pattern (what ST-ResNet/DeepSTN+'s
//!   closeness-period-trend features capture);
//! * weather fields evolve by smooth persistence (what ConvLSTM's
//!   recurrence captures) with weak periodicity;
//! * raster scenes give each class a spectral signature plus texture
//!   (what SatCNN learns, and what DeepSatV2's handcrafted GLCM/spectral
//!   features summarise);
//! * segmentation scenes contain cloud-like blobs whose mask correlates
//!   with the spectral bands.
//!
//! Grid datasets expose the paper's three tensor representations —
//! basic (`lead_time`), sequential (`history/prediction`), and periodical
//! (`closeness/period/trend`) — exactly as Listings 2–4.

#![warn(missing_docs)]

pub mod grid;
pub mod loader;
pub mod raster;
pub mod samplers;
pub mod synth;

pub use grid::{GridDatasetBuilder, Representation, StBatch, StGridDataset, StSample};
pub use loader::{chronological_split, shuffled_split, BatchIndices};
pub use raster::{RasterBatchData, RasterDataset};
pub use samplers::{GridSampler, RandomSampler};
