//! DataFrame utility operators: distinct rows, column renaming, and
//! numeric summary statistics.

use std::collections::HashSet;

use crate::column::{Column, DType, GroupKey};
use crate::error::{DfError, DfResult};
use crate::frame::{DataFrame, Schema};

/// Summary statistics of one numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Non-null value count.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl DataFrame {
    /// Keep the first occurrence of each distinct row (all columns
    /// compared; floats by bit pattern). Produces a single partition,
    /// preserving first-seen order.
    pub fn distinct(&self) -> DfResult<DataFrame> {
        let merged = self.concat_partitions()?;
        let Some(cols) = merged.partitions().first() else {
            return Ok(merged);
        };
        let rows = cols.first().map_or(0, Column::len);
        let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
        let mut keep = Vec::with_capacity(rows);
        for row in 0..rows {
            let key: Vec<GroupKey> = cols.iter().map(|c| c.value(row).group_key()).collect();
            keep.push(seen.insert(key));
        }
        let filtered: Vec<Column> = cols.iter().map(|c| c.filter(&keep)).collect();
        DataFrame::from_partitions(merged.schema().clone(), vec![filtered])
    }

    /// Rename a column, keeping its position and data.
    pub fn rename_column(&self, from: &str, to: &str) -> DfResult<DataFrame> {
        let idx = self.schema().index_of(from)?;
        if from != to && self.schema().index_of(to).is_ok() {
            return Err(DfError::DuplicateColumn(to.to_string()));
        }
        let fields: Vec<(String, DType)> = self
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, (name, dtype))| {
                if i == idx {
                    (to.to_string(), *dtype)
                } else {
                    (name.clone(), *dtype)
                }
            })
            .collect();
        DataFrame::from_partitions(Schema::new(fields)?, self.partitions().to_vec())
    }

    /// Summary statistics for every numeric (f64 / i64 / timestamp)
    /// column — the engine's `describe()`.
    pub fn describe(&self) -> DfResult<Vec<ColumnSummary>> {
        let mut summaries = Vec::new();
        for (name, dtype) in self.schema().fields() {
            if !matches!(dtype, DType::F64 | DType::I64 | DType::Ts) {
                continue;
            }
            let mut count = 0usize;
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for part in self.partitions() {
                let idx = self.schema().index_of(name)?;
                let values: Vec<f64> = match &part[idx] {
                    Column::F64(v) => v.to_vec(),
                    Column::I64(v) | Column::Ts(v) => v.iter().map(|&x| x as f64).collect(),
                    _ => unreachable!("dtype filtered above"),
                };
                for v in values {
                    count += 1;
                    sum += v;
                    sum_sq += v * v;
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            let mean = if count > 0 { sum / count as f64 } else { f64::NAN };
            let var = if count > 0 {
                (sum_sq / count as f64 - mean * mean).max(0.0)
            } else {
                f64::NAN
            };
            summaries.push(ColumnSummary {
                name: name.clone(),
                count,
                mean,
                std: var.sqrt(),
                min,
                max,
            });
        }
        Ok(summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            ("k".into(), Column::I64(vec![1, 2, 1, 2, 1].into())),
            (
                "v".into(),
                Column::F64(vec![1.0, 2.0, 1.0, 4.0, 1.0].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn distinct_keeps_first_occurrences() {
        let out = df().distinct().unwrap();
        assert_eq!(out.num_rows(), 3); // (1,1.0), (2,2.0), (2,4.0)
        assert_eq!(out.column("k").unwrap(), Column::I64(vec![1, 2, 2].into()));
        assert_eq!(
            out.column("v").unwrap(),
            Column::F64(vec![1.0, 2.0, 4.0].into())
        );
    }

    #[test]
    fn distinct_on_partitioned_frame() {
        let out = df().repartition(3).unwrap().distinct().unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    #[test]
    fn rename_preserves_data() {
        let out = df().rename_column("v", "value").unwrap();
        assert_eq!(out.schema().names(), vec!["k", "value"]);
        assert_eq!(out.column("value").unwrap().len(), 5);
        assert!(df().rename_column("missing", "x").is_err());
        assert!(df().rename_column("v", "k").is_err());
        // Renaming to itself is a no-op.
        assert!(df().rename_column("v", "v").is_ok());
    }

    #[test]
    fn describe_computes_summary() {
        let summaries = df().describe().unwrap();
        assert_eq!(summaries.len(), 2);
        let v = summaries.iter().find(|s| s.name == "v").unwrap();
        assert_eq!(v.count, 5);
        assert!((v.mean - 1.8).abs() < 1e-12);
        assert_eq!(v.min, 1.0);
        assert_eq!(v.max, 4.0);
        assert!(v.std > 0.0);
    }

    #[test]
    fn describe_skips_non_numeric() {
        let df = DataFrame::from_columns(vec![
            ("s".into(), Column::Str(vec!["a".into()].into())),
            ("x".into(), Column::F64(vec![3.0].into())),
        ])
        .unwrap();
        let summaries = df.describe().unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "x");
        assert_eq!(summaries[0].std, 0.0);
    }
}
