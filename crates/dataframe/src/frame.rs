//! The partitioned DataFrame.

use crate::column::{Column, DType, Value};
use crate::error::{DfError, DfResult};
use crate::exec;
use crate::geometry::Geometry;

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

/// A borrowed view of one row inside one partition.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    schema: &'a Schema,
    columns: &'a [Column],
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The value in `column` at this row.
    pub fn value(&self, column: &str) -> DfResult<Value> {
        let idx = self.schema.index_of(column)?;
        Ok(self.columns[idx].value(self.row))
    }

    /// f64 accessor (coerces integers/timestamps).
    pub fn f64(&self, column: &str) -> DfResult<f64> {
        let v = self.value(column)?;
        v.as_f64().ok_or_else(|| DfError::TypeMismatch {
            column: column.to_string(),
            expected: "f64",
            found: v.dtype().name(),
        })
    }

    /// i64 accessor (accepts timestamps).
    pub fn i64(&self, column: &str) -> DfResult<i64> {
        let v = self.value(column)?;
        v.as_i64().ok_or_else(|| DfError::TypeMismatch {
            column: column.to_string(),
            expected: "i64",
            found: v.dtype().name(),
        })
    }

    /// Geometry accessor.
    pub fn geometry(&self, column: &str) -> DfResult<Geometry> {
        match self.value(column)? {
            Value::Geom(g) => Ok(g),
            v => Err(DfError::TypeMismatch {
                column: column.to_string(),
                expected: "geometry",
                found: v.dtype().name(),
            }),
        }
    }

    /// Row index within the partition.
    pub fn index(&self) -> usize {
        self.row
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

    /// Append another DataFrame's rows (schemas must match).
    pub fn union(&self, other: &DataFrame) -> DfResult<DataFrame> {
        if self.schema != other.schema {
            return Err(DfError::LengthMismatch("union schema mismatch".into()));
        }
        let mut partitions = self.partitions.clone();
        partitions.extend(other.partitions.clone());
        DataFrame::from_partitions(self.schema.clone(), partitions)
    }

    /// Project a subset of columns (in the given order).
    pub fn select(&self, names: &[&str]) -> DfResult<DataFrame> {
        let indices: Vec<usize> = names
            .iter()
            .map(|n| self.schema.index_of(n))
            .collect::<DfResult<_>>()?;
        let schema = Schema::new(
            indices
                .iter()
                .map(|&i| self.schema.fields()[i].clone())
                .collect(),
        )?;
        let partitions = self
            .partitions
            .iter()
            .map(|p| indices.iter().map(|&i| p[i].clone()).collect())
            .collect();
        DataFrame::from_partitions(schema, partitions)
    }

    /// Drop a column.
    pub fn drop_column(&self, name: &str) -> DfResult<DataFrame> {
        let keep: Vec<&str> = self
            .schema
            .names()
            .into_iter()
            .filter(|n| *n != name)
            .collect();
        if keep.len() == self.schema.len() {
            return Err(DfError::ColumnNotFound(name.to_string()));
        }
        self.select(&keep)
    }

    /// Append a computed column. `f` is evaluated per row, partition-
    /// parallel; every produced value must have dtype `dtype`.
    pub fn with_column<F>(&self, name: &str, dtype: DType, f: F) -> DfResult<DataFrame>
    where
        F: Fn(RowRef<'_>) -> DfResult<Value> + Sync,
    {
        if self.schema.index_of(name).is_ok() {
            return Err(DfError::DuplicateColumn(name.to_string()));
        }
        let schema = Schema::new(
            self.schema
                .fields()
                .iter()
                .cloned()
                .chain(std::iter::once((name.to_string(), dtype)))
                .collect(),
        )?;
        let results: Vec<DfResult<Vec<Column>>> = exec::par_map(&self.partitions, |part| {
            let rows = part.first().map_or(0, Column::len);
            let mut new_col = Column::empty(dtype);
            for row in 0..rows {
                let value = f(RowRef {
                    schema: &self.schema,
                    columns: part,
                    row,
                })?;
                if value.dtype() != dtype {
                    return Err(DfError::TypeMismatch {
                        column: name.to_string(),
                        expected: dtype.name(),
                        found: value.dtype().name(),
                    });
                }
                new_col.push(value)?;
            }
            let mut cols = part.clone();
            cols.push(new_col);
            Ok(cols)
        });
        let partitions = results.into_iter().collect::<DfResult<Vec<_>>>()?;
        DataFrame::from_partitions(schema, partitions)
    }

    /// Keep rows where `predicate` returns true (partition-parallel).
    pub fn filter<F>(&self, predicate: F) -> DfResult<DataFrame>
    where
        F: Fn(RowRef<'_>) -> DfResult<bool> + Sync,
    {
        let results: Vec<DfResult<Vec<Column>>> = exec::par_map(&self.partitions, |part| {
            let rows = part.first().map_or(0, Column::len);
            let mut mask = Vec::with_capacity(rows);
            for row in 0..rows {
                mask.push(predicate(RowRef {
                    schema: &self.schema,
                    columns: part,
                    row,
                })?);
            }
            Ok(part.iter().map(|c| c.filter(&mask)).collect())
        });
        let partitions = results.into_iter().collect::<DfResult<Vec<_>>>()?;
        DataFrame::from_partitions(self.schema.clone(), partitions)
    }

    /// Sort all rows ascending by a numeric (f64/i64/timestamp) column.
    /// Produces a single partition.
    pub fn sort_by(&self, name: &str) -> DfResult<DataFrame> {
        let merged = self.concat_partitions()?;
        let idx = merged.schema.index_of(name)?;
        let Some(cols) = merged.partitions.first() else {
            return Ok(merged);
        };
        let n = cols.first().map_or(0, Column::len);
        let mut order: Vec<usize> = (0..n).collect();
        match &cols[idx] {
            Column::F64(v) => order.sort_by(|&a, &b| {
                v[a].partial_cmp(&v[b]).unwrap_or(std::cmp::Ordering::Equal)
            }),
            Column::I64(v) | Column::Ts(v) => order.sort_by_key(|&i| v[i]),
            Column::Str(v) => order.sort_by(|&a, &b| v[a].cmp(&v[b])),
            Column::Bool(v) => order.sort_by_key(|&i| v[i]),
            Column::Geom(_) => {
                return Err(DfError::InvalidArgument(
                    "cannot sort by a geometry column".into(),
                ))
            }
        }
        let sorted = cols.iter().map(|c| c.take(&order)).collect();
        DataFrame::from_partitions(merged.schema.clone(), vec![sorted])
    }

    /// First `n` rows (after merging partitions in order).
    pub fn limit(&self, n: usize) -> DfResult<DataFrame> {
        let merged = self.concat_partitions()?;
        let Some(cols) = merged.partitions.first() else {
            return Ok(merged);
        };
        let end = n.min(cols.first().map_or(0, Column::len));
        let cut = cols.iter().map(|c| c.slice(0, end)).collect();
        DataFrame::from_partitions(merged.schema.clone(), vec![cut])
    }

    /// Iterate rows of all partitions with a visitor (sequential).
    pub fn for_each_row<F>(&self, mut f: F) -> DfResult<()>
    where
        F: FnMut(RowRef<'_>) -> DfResult<()>,
    {
        for part in &self.partitions {
            let rows = part.first().map_or(0, Column::len);
            for row in 0..rows {
                f(RowRef {
                    schema: &self.schema,
                    columns: part,
                    row,
                })?;
            }
        }
        Ok(())
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
        assert_eq!(start_of(&df.select(&["x"]).unwrap(), 0, "x"), x);
        let both = df.union(&parts).unwrap();
        assert_eq!(start_of(&both, 0, "id"), id);
        assert_eq!(start_of(&both, 1, "id"), id);
        let wider = parts
            .with_column("x2", DType::F64, |row| Ok(Value::F64(row.f64("x")? * 2.0)))
            .unwrap();
        assert_eq!(start_of(&wider, 1, "x"), start_of(&parts, 1, "x"));
        assert_eq!(start_of(&df.concat_partitions().unwrap(), 0, "id"), id);
    }

    #[test]
    fn select_and_drop() {
        let df = sample();
        let sel = df.select(&["x", "id"]).unwrap();
        assert_eq!(sel.schema().names(), vec!["x", "id"]);
        assert!(df.select(&["missing"]).is_err());
        let dropped = df.drop_column("name").unwrap();
        assert_eq!(dropped.schema().len(), 2);
        assert!(df.drop_column("nope").is_err());
    }

    #[test]
    fn with_column_computes_per_row() {
        let df = sample().repartition(2).unwrap();
        let out = df
            .with_column("x2", DType::F64, |row| Ok(Value::F64(row.f64("x")? * 2.0)))
            .unwrap();
        assert_eq!(
            out.column("x2").unwrap(),
            Column::F64(vec![1.0, 3.0, 5.0, 7.0].into())
        );
        // Duplicate name rejected.
        assert!(df
            .with_column("x", DType::F64, |_| Ok(Value::F64(0.0)))
            .is_err());
        // Wrong produced dtype rejected.
        assert!(df
            .with_column("bad", DType::F64, |_| Ok(Value::I64(1)))
            .is_err());
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let df = sample().repartition(2).unwrap();
        let out = df.filter(|row| Ok(row.i64("id")? % 2 == 0)).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column("id").unwrap(), Column::I64(vec![2, 4].into()));
    }

    #[test]
    fn sort_by_each_type() {
        let df = DataFrame::from_columns(vec![
            ("k".into(), Column::F64(vec![2.0, 1.0, 3.0].into())),
            ("v".into(), Column::I64(vec![20, 10, 30].into())),
        ])
        .unwrap();
        let sorted = df.sort_by("k").unwrap();
        assert_eq!(
            sorted.column("v").unwrap(),
            Column::I64(vec![10, 20, 30].into())
        );
        let by_str = sample().sort_by("name").unwrap();
        assert_eq!(
            by_str.column("id").unwrap(),
            Column::I64(vec![1, 2, 3, 4].into())
        );
    }

    #[test]
    fn limit_truncates() {
        let df = sample().repartition(2).unwrap();
        assert_eq!(df.limit(3).unwrap().num_rows(), 3);
        assert_eq!(df.limit(10).unwrap().num_rows(), 4);
    }

    #[test]
    fn union_requires_matching_schema() {
        let df = sample();
        let u = df.union(&df).unwrap();
        assert_eq!(u.num_rows(), 8);
        let other =
            DataFrame::from_columns(vec![("id".into(), Column::I64(vec![1].into()))]).unwrap();
        assert!(df.union(&other).is_err());
    }

    #[test]
    fn for_each_row_visits_all() {
        let df = sample().repartition(3).unwrap();
        let mut sum = 0;
        df.for_each_row(|row| {
            sum += row.i64("id")?;
            Ok(())
        })
        .unwrap();
        assert_eq!(sum, 10);
    }

    #[test]
    fn row_accessors_type_check() {
        let df = sample();
        df.for_each_row(|row| {
            assert!(row.f64("name").is_err());
            assert!(row.geometry("x").is_err());
            assert!(row.value("missing").is_err());
            Ok(())
        })
        .unwrap();
    }
}
