//! The partitioned DataFrame.

use crate::column::{Column, DType};
use crate::error::{DfError, DfResult};

/// Named, typed column layout shared by every partition of a DataFrame.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    fields: Vec<(String, DType)>,
}

impl Schema {
    /// Build from `(name, dtype)` pairs.
    ///
    /// # Errors
    /// On duplicate names.
    pub fn new(fields: Vec<(String, DType)>) -> DfResult<Schema> {
        for (i, (name, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(n, _)| n == name) {
                return Err(DfError::DuplicateColumn(name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> DfResult<usize> {
        self.fields
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DfError::ColumnNotFound(name.to_string()))
    }

    /// The dtype of a column by name.
    pub fn dtype_of(&self, name: &str) -> DfResult<DType> {
        Ok(self.fields[self.index_of(name)?].1)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// `(name, dtype)` pairs.
    pub fn fields(&self) -> &[(String, DType)] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

/// A columnar table split into partitions processed in parallel.
#[derive(Debug, Clone)]
pub struct DataFrame {
    schema: Schema,
    partitions: Vec<Vec<Column>>,
}

impl DataFrame {
    /// Single-partition DataFrame from `(name, column)` pairs.
    ///
    /// # Errors
    /// On duplicate names or ragged column lengths.
    pub fn from_columns(columns: Vec<(String, Column)>) -> DfResult<DataFrame> {
        let schema = Schema::new(
            columns
                .iter()
                .map(|(n, c)| (n.clone(), c.dtype()))
                .collect(),
        )?;
        let cols: Vec<Column> = columns.into_iter().map(|(_, c)| c).collect();
        if let Some(first) = cols.first() {
            let n = first.len();
            if cols.iter().any(|c| c.len() != n) {
                return Err(DfError::LengthMismatch(
                    "columns have different lengths".into(),
                ));
            }
        }
        Ok(DataFrame {
            schema,
            partitions: vec![cols],
        })
    }

    /// An empty DataFrame with the given schema.
    pub fn empty(schema: Schema) -> DataFrame {
        DataFrame {
            schema,
            partitions: Vec::new(),
        }
    }

    /// Build directly from partitions (internal constructors and tests).
    ///
    /// # Errors
    /// If any partition disagrees with the schema layout.
    pub fn from_partitions(schema: Schema, partitions: Vec<Vec<Column>>) -> DfResult<DataFrame> {
        for part in &partitions {
            if part.len() != schema.len() {
                return Err(DfError::LengthMismatch(format!(
                    "partition has {} columns, schema has {}",
                    part.len(),
                    schema.len()
                )));
            }
            for (col, (name, dtype)) in part.iter().zip(schema.fields()) {
                if col.dtype() != *dtype {
                    return Err(DfError::TypeMismatch {
                        column: name.clone(),
                        expected: dtype.name(),
                        found: col.dtype().name(),
                    });
                }
            }
            if let Some(first) = part.first() {
                if part.iter().any(|c| c.len() != first.len()) {
                    return Err(DfError::LengthMismatch(
                        "ragged columns within a partition".into(),
                    ));
                }
            }
        }
        Ok(DataFrame { schema, partitions })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total row count across partitions.
    pub fn num_rows(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.first().map_or(0, Column::len))
            .sum()
    }

    /// Partition count.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Raw partition access (for engine-level operators).
    pub fn partitions(&self) -> &[Vec<Column>] {
        &self.partitions
    }

    /// A full column, concatenated across partitions.
    pub fn column(&self, name: &str) -> DfResult<Column> {
        let idx = self.schema.index_of(name)?;
        let parts: Vec<&Column> = self.partitions.iter().map(|p| &p[idx]).collect();
        if parts.is_empty() {
            return Ok(Column::empty(self.schema.fields()[idx].1));
        }
        Column::concat(&parts)
    }

    /// Redistribute rows into `n` roughly equal partitions.
    pub fn repartition(&self, n: usize) -> DfResult<DataFrame> {
        let n = n.max(1);
        let merged = self.concat_partitions()?;
        let total = merged.num_rows();
        let cols = match merged.partitions.first() {
            Some(c) => c,
            None => return Ok(DataFrame::empty(self.schema.clone())),
        };
        let chunk = total.div_ceil(n).max(1);
        let mut partitions = Vec::new();
        let mut start = 0;
        while start < total {
            let end = (start + chunk).min(total);
            partitions.push(cols.iter().map(|c| c.slice(start, end)).collect());
            start = end;
        }
        DataFrame::from_partitions(self.schema.clone(), partitions)
    }

    /// Merge all partitions into one.
    pub fn concat_partitions(&self) -> DfResult<DataFrame> {
        if self.partitions.len() <= 1 {
            return Ok(self.clone());
        }
        let mut cols = Vec::with_capacity(self.schema.len());
        for idx in 0..self.schema.len() {
            let parts: Vec<&Column> = self.partitions.iter().map(|p| &p[idx]).collect();
            cols.push(Column::concat(&parts)?);
        }
        DataFrame::from_partitions(self.schema.clone(), vec![cols])
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.iter())
            .map(Column::approx_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spatial::add_point_column;

    fn sample() -> DataFrame {
        DataFrame::from_columns(vec![
            ("id".into(), Column::I64(vec![1, 2, 3, 4].into())),
            ("x".into(), Column::F64(vec![0.5, 1.5, 2.5, 3.5].into())),
            (
                "name".into(),
                Column::Str(vec!["a".into(), "b".into(), "c".into(), "d".into()].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let df = sample();
        assert_eq!(df.num_rows(), 4);
        assert_eq!(df.num_partitions(), 1);
        assert_eq!(df.schema().names(), vec!["id", "x", "name"]);
    }

    #[test]
    fn rejects_duplicate_and_ragged() {
        assert!(matches!(
            DataFrame::from_columns(vec![
                ("a".into(), Column::I64(vec![1].into())),
                ("a".into(), Column::I64(vec![2].into())),
            ]),
            Err(DfError::DuplicateColumn(_))
        ));
        assert!(matches!(
            DataFrame::from_columns(vec![
                ("a".into(), Column::I64(vec![1].into())),
                ("b".into(), Column::I64(vec![2, 3].into())),
            ]),
            Err(DfError::LengthMismatch(_))
        ));
    }

    #[test]
    fn repartition_and_merge_round_trip() {
        let df = sample().repartition(2).unwrap();
        assert_eq!(df.num_partitions(), 2);
        assert_eq!(df.num_rows(), 4);
        let merged = df.concat_partitions().unwrap();
        assert_eq!(merged.num_partitions(), 1);
        assert_eq!(
            merged.column("id").unwrap(),
            Column::I64(vec![1, 2, 3, 4].into())
        );
    }

    #[test]
    fn operators_that_move_no_rows_share_storage_with_their_input() {
        let df = sample();
        let start_of = |df: &DataFrame, part: usize, name: &str| {
            let idx = df.schema().index_of(name).unwrap();
            match &df.partitions()[part][idx] {
                Column::I64(v) => v.as_ptr() as usize,
                Column::F64(v) => v.as_ptr() as usize,
                other => panic!("unexpected {:?} column", other.dtype()),
            }
        };
        let (id, x) = (start_of(&df, 0, "id"), start_of(&df, 0, "x"));
        let parts = df.repartition(2).unwrap();
        assert_eq!(start_of(&parts, 0, "id"), id);
        assert_eq!(
            start_of(&parts, 1, "id"),
            id + 2 * std::mem::size_of::<i64>()
        );
        assert_eq!(start_of(&parts, 1, "x"), x + 2 * std::mem::size_of::<f64>());
        let wider = add_point_column(&parts, "id", "x", "pt").unwrap();
        for part in 0..2 {
            for name in ["id", "x"] {
                assert_eq!(start_of(&wider, part, name), start_of(&parts, part, name));
            }
        }
        assert_eq!(start_of(&df.concat_partitions().unwrap(), 0, "id"), id);
    }
}
