//! # geotorch-converter
//!
//! The **DFtoTorch Converter** (§III-C of the paper): maps preprocessed
//! DataFrames into trainable tensor batches *without collecting the whole
//! DataFrame onto one node*.
//!
//! The paper's Figure 7 splits the converter into two stages, mirrored
//! here:
//!
//! 1. [`DfFormatter`] — per-partition, maps each row into flat feature /
//!    label arrays shaped for the target application (classification,
//!    segmentation, or spatiotemporal prediction). The output
//!    [`FormattedFrame`] stays partitioned.
//! 2. [`RowTransformer`] — streams the formatted partitions as batched
//!    `(features, labels)` tensors, applying an optional user
//!    [`TransformSpec`] per batch (the Petastorm role).

#![warn(missing_docs)]

pub mod stream;

use geotorch_dataframe::{exec, Column, DataFrame, DfError, DfResult, Schema};
use geotorch_tensor::Tensor;

pub use stream::{
    BatchStream, FrameBatchStream, LoaderError, PrefetchLoader, SpillBatchStream,
};

/// Per-partition formatted rows: flat row-major feature and label
/// buffers.
#[derive(Debug, Clone)]
pub struct FormattedPartition {
    /// `rows × feature_len` values.
    pub features: Vec<f32>,
    /// `rows × label_len` values.
    pub labels: Vec<f32>,
    /// Row count.
    pub rows: usize,
}

/// The formatter's output: still partitioned, plus the tensor shapes a
/// single row maps to.
#[derive(Debug, Clone)]
pub struct FormattedFrame {
    /// Formatted partitions in input order.
    pub partitions: Vec<FormattedPartition>,
    /// Shape of one feature row (without the batch axis).
    pub feature_shape: Vec<usize>,
    /// Shape of one label row (without the batch axis).
    pub label_shape: Vec<usize>,
}

impl FormattedFrame {
    /// Total rows across partitions.
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.rows).sum()
    }
}

/// Stage 1: row → array mapping, configured per application domain.
#[derive(Debug, Clone)]
pub struct DfFormatter {
    feature_columns: Vec<String>,
    label_columns: Vec<String>,
    feature_shape: Vec<usize>,
    label_shape: Vec<usize>,
}

impl DfFormatter {
    /// Spatiotemporal prediction: numeric feature columns reshaped to
    /// `feature_shape`, numeric label columns to `label_shape`.
    ///
    /// # Errors
    /// If shapes do not match the column counts.
    pub fn for_prediction(
        feature_columns: &[&str],
        feature_shape: &[usize],
        label_columns: &[&str],
        label_shape: &[usize],
    ) -> DfResult<DfFormatter> {
        let f_len: usize = feature_shape.iter().product();
        let l_len: usize = label_shape.iter().product();
        if f_len != feature_columns.len() {
            return Err(DfError::InvalidArgument(format!(
                "feature shape {feature_shape:?} needs {f_len} columns, got {}",
                feature_columns.len()
            )));
        }
        if l_len != label_columns.len() {
            return Err(DfError::InvalidArgument(format!(
                "label shape {label_shape:?} needs {l_len} columns, got {}",
                label_columns.len()
            )));
        }
        Ok(DfFormatter {
            feature_columns: feature_columns.iter().map(|s| s.to_string()).collect(),
            label_columns: label_columns.iter().map(|s| s.to_string()).collect(),
            feature_shape: feature_shape.to_vec(),
            label_shape: label_shape.to_vec(),
        })
    }

    /// Classification: features as above; a single label column holding
    /// the class index.
    pub fn for_classification(
        feature_columns: &[&str],
        feature_shape: &[usize],
        label_column: &str,
    ) -> DfResult<DfFormatter> {
        Self::for_prediction(feature_columns, feature_shape, &[label_column], &[1])
    }

    /// Run the mapping partition-parallel; the result stays partitioned
    /// (no master-node collect).
    pub fn format(&self, df: &DataFrame) -> DfResult<FormattedFrame> {
        let schema = df.schema();
        let results: Vec<DfResult<FormattedPartition>> =
            exec::par_map(df.partitions(), |part| self.format_partition(schema, part));
        Ok(FormattedFrame {
            partitions: results.into_iter().collect::<DfResult<Vec<_>>>()?,
            feature_shape: self.feature_shape.clone(),
            label_shape: self.label_shape.clone(),
        })
    }

    /// Format a single partition — the unit of work the out-of-core
    /// streaming loader calls per spilled partition.
    pub fn format_partition(
        &self,
        schema: &Schema,
        part: &[Column],
    ) -> DfResult<FormattedPartition> {
        let f_idx: Vec<usize> = self
            .feature_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<DfResult<_>>()?;
        let l_idx: Vec<usize> = self
            .label_columns
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<DfResult<_>>()?;
        let rows = part.first().map_or(0, Column::len);
        let mut features = Vec::with_capacity(rows * f_idx.len());
        let mut labels = Vec::with_capacity(rows * l_idx.len());
        for row in 0..rows {
            for &i in &f_idx {
                features.push(numeric_at(schema, part, i, row)?);
            }
            for &i in &l_idx {
                labels.push(numeric_at(schema, part, i, row)?);
            }
        }
        Ok(FormattedPartition {
            features,
            labels,
            rows,
        })
    }

    /// Shape of one feature row (without the batch axis).
    pub fn feature_shape(&self) -> &[usize] {
        &self.feature_shape
    }

    /// Shape of one label row (without the batch axis).
    pub fn label_shape(&self) -> &[usize] {
        &self.label_shape
    }
}

/// Column `idx` at `row` as f32, through f64 for integers and timestamps.
fn numeric_at(schema: &Schema, part: &[Column], idx: usize, row: usize) -> DfResult<f32> {
    match &part[idx] {
        Column::F64(v) => Ok(v[row] as f32),
        Column::I64(v) | Column::Ts(v) => Ok(v[row] as f64 as f32),
        other => Err(DfError::TypeMismatch {
            column: schema.fields()[idx].0.clone(),
            expected: "numeric",
            found: other.dtype().name(),
        }),
    }
}

/// A per-batch tensor transform (normalisation, augmentation, …).
pub type TransformSpec = Box<dyn Fn(Tensor) -> Tensor + Send + Sync>;

/// Stage 2: stream formatted partitions as batched tensors.
pub struct RowTransformer {
    batch_size: usize,
    transform: Option<TransformSpec>,
}

impl RowTransformer {
    /// Batches of `batch_size` rows (final partial batch kept).
    pub fn new(batch_size: usize) -> RowTransformer {
        assert!(batch_size > 0, "batch_size must be positive");
        RowTransformer {
            batch_size,
            transform: None,
        }
    }

    /// Apply `spec` to every feature batch.
    pub fn with_transform(mut self, spec: TransformSpec) -> RowTransformer {
        self.transform = Some(spec);
        self
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Build the `(features, labels)` batch for rows `[start, end)` of
    /// partition `pi` — the single construction path shared by
    /// [`RowTransformer::batches`] and the [`stream::BatchStream`]
    /// implementations, so every consumer sees bit-identical batches.
    pub(crate) fn build_batch(
        &self,
        frame: &FormattedFrame,
        pi: usize,
        start: usize,
        end: usize,
    ) -> (Tensor, Tensor) {
        let f_len: usize = frame.feature_shape.iter().product();
        let l_len: usize = frame.label_shape.iter().product();
        let part = &frame.partitions[pi];
        let b = end - start;
        let mut f_shape = vec![b];
        f_shape.extend_from_slice(&frame.feature_shape);
        let mut l_shape = vec![b];
        l_shape.extend_from_slice(&frame.label_shape);
        // from_slice fills a pooled buffer, so steady-state batch
        // staging recycles instead of growing the heap.
        let mut features =
            Tensor::from_slice(&part.features[start * f_len..end * f_len], &f_shape);
        if let Some(t) = &self.transform {
            features = t(features);
        }
        let labels = Tensor::from_slice(&part.labels[start * l_len..end * l_len], &l_shape);
        geotorch_telemetry::count!("converter.batches_built", 1);
        (features, labels)
    }

    /// Stream `(features [B, ..], labels [B, ..])` batches. Batches never
    /// cross partition boundaries, so each partition can live on its own
    /// worker in a distributed deployment.
    pub fn batches<'a>(
        &'a self,
        frame: &'a FormattedFrame,
    ) -> impl Iterator<Item = (Tensor, Tensor)> + 'a {
        frame
            .partitions
            .iter()
            .enumerate()
            .flat_map(move |(pi, part)| {
                (0..part.rows).step_by(self.batch_size).map(move |start| {
                    let end = (start + self.batch_size).min(part.rows);
                    self.build_batch(frame, pi, start, end)
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "a".into(),
                Column::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0].into()),
            ),
            (
                "b".into(),
                Column::F64(vec![10.0, 20.0, 30.0, 40.0, 50.0].into()),
            ),
            ("y".into(), Column::I64(vec![0, 1, 0, 1, 1].into())),
        ])
        .unwrap()
    }

    #[test]
    fn formatter_shapes_rows() {
        let fmt = DfFormatter::for_prediction(&["a", "b"], &[2], &["y"], &[1]).unwrap();
        let frame = fmt.format(&df()).unwrap();
        assert_eq!(frame.num_rows(), 5);
        assert_eq!(frame.feature_shape, vec![2]);
        assert_eq!(frame.partitions.len(), 1);
        assert_eq!(frame.partitions[0].features[..4], [1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    fn formatter_stays_partitioned() {
        let fmt = DfFormatter::for_classification(&["a", "b"], &[2], "y").unwrap();
        let frame = fmt.format(&df().repartition(3).unwrap()).unwrap();
        assert!(frame.partitions.len() > 1, "no master-node collect");
        assert_eq!(frame.num_rows(), 5);
    }

    #[test]
    fn formatter_validates_shapes_and_columns() {
        assert!(DfFormatter::for_prediction(&["a"], &[2], &["y"], &[1]).is_err());
        assert!(DfFormatter::for_prediction(&["a"], &[1], &["y", "a"], &[1]).is_err());
        let fmt = DfFormatter::for_classification(&["missing"], &[1], "y").unwrap();
        assert!(fmt.format(&df()).is_err());
        let bad_type = DataFrame::from_columns(vec![
            ("y".into(), Column::I64(vec![0].into())),
            ("a".into(), Column::Str(vec!["x".into()].into())),
        ])
        .unwrap();
        let fmt = DfFormatter::for_classification(&["a"], &[1], "y").unwrap();
        assert_eq!(
            fmt.format(&bad_type).unwrap_err(),
            DfError::TypeMismatch {
                column: "a".into(),
                expected: "numeric",
                found: "str",
            }
        );
    }

    #[test]
    fn transformer_batches_cover_all_rows() {
        let fmt = DfFormatter::for_classification(&["a", "b"], &[2], "y").unwrap();
        let frame = fmt.format(&df()).unwrap();
        let rt = RowTransformer::new(2);
        let batches: Vec<_> = rt.batches(&frame).collect();
        assert_eq!(batches.len(), 3); // 2 + 2 + 1
        assert_eq!(batches[0].0.shape(), &[2, 2]);
        assert_eq!(batches[2].0.shape(), &[1, 2]);
        let total: usize = batches.iter().map(|(x, _)| x.shape()[0]).sum();
        assert_eq!(total, 5);
        // Labels survive the trip.
        assert_eq!(batches[0].1.as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn transform_spec_applies_per_batch() {
        let fmt = DfFormatter::for_classification(&["a"], &[1], "y").unwrap();
        let frame = fmt.format(&df()).unwrap();
        let rt = RowTransformer::new(10)
            .with_transform(Box::new(|t| t.mul_scalar(0.1)));
        let (x, _) = rt.batches(&frame).next().unwrap();
        assert!(x.allclose(
            &Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5], &[5, 1]),
            1e-6
        ));
    }

    #[test]
    fn multidimensional_feature_shape() {
        let fmt =
            DfFormatter::for_prediction(&["a", "b"], &[1, 2, 1], &["y"], &[1, 1]).unwrap();
        let frame = fmt.format(&df()).unwrap();
        let (x, y) = RowTransformer::new(3).batches(&frame).next().unwrap();
        assert_eq!(x.shape(), &[3, 1, 2, 1]);
        assert_eq!(y.shape(), &[3, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        RowTransformer::new(0);
    }
}
