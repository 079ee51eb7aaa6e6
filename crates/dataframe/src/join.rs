//! Inner hash equi-join.

use std::collections::HashMap;

use crate::column::{Column, GroupKey};
use crate::error::{DfError, DfResult};
use crate::frame::{DataFrame, Schema};

impl DataFrame {
    /// Inner join on equality of `left_key` (this frame) and `right_key`.
    ///
    /// The build side is the right frame (hashed once); the probe side
    /// streams the left frame's rows. Right-side columns are suffixed with
    /// `_right` when their name collides with a left column. The right key
    /// column is dropped from the output (it duplicates the left key).
    pub fn join_inner(
        &self,
        right: &DataFrame,
        left_key: &str,
        right_key: &str,
    ) -> DfResult<DataFrame> {
        let left = self.concat_partitions()?;
        let right = right.concat_partitions()?;
        let lk = left.schema().index_of(left_key)?;
        let rk = right.schema().index_of(right_key)?;

        let empty_left: Vec<Column> = Vec::new();
        let left_cols = left.partitions().first().unwrap_or(&empty_left);
        let empty_right: Vec<Column> = Vec::new();
        let right_cols = right.partitions().first().unwrap_or(&empty_right);
        let left_rows = left_cols.first().map_or(0, Column::len);
        let right_rows = right_cols.first().map_or(0, Column::len);

        // Build phase.
        let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        if !right_cols.is_empty() {
            for row in 0..right_rows {
                table
                    .entry(right_cols[rk].value(row).group_key())
                    .or_default()
                    .push(row);
            }
        }

        // Probe phase.
        let mut left_take = Vec::new();
        let mut right_take = Vec::new();
        if !left_cols.is_empty() {
            for row in 0..left_rows {
                if let Some(matches) = table.get(&left_cols[lk].value(row).group_key()) {
                    for &r in matches {
                        left_take.push(row);
                        right_take.push(r);
                    }
                }
            }
        }

        // Output schema: all left fields + right fields except the key.
        let mut fields = left.schema().fields().to_vec();
        let left_names: Vec<String> = fields.iter().map(|(n, _)| n.clone()).collect();
        let mut right_field_indices = Vec::new();
        for (i, (name, dtype)) in right.schema().fields().iter().enumerate() {
            if i == rk {
                continue;
            }
            let out_name = if left_names.iter().any(|n| n == name) {
                format!("{name}_right")
            } else {
                name.clone()
            };
            fields.push((out_name, *dtype));
            right_field_indices.push(i);
        }
        let schema = Schema::new(fields)?;

        let mut cols: Vec<Column> = left_cols.iter().map(|c| c.take(&left_take)).collect();
        for &i in &right_field_indices {
            cols.push(right_cols[i].take(&right_take));
        }
        if cols.is_empty() {
            return Err(DfError::InvalidArgument(
                "join of two empty-schema frames".into(),
            ));
        }
        DataFrame::from_partitions(schema, vec![cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;

    fn users() -> DataFrame {
        DataFrame::from_columns(vec![
            ("uid".into(), Column::I64(vec![1, 2, 3].into())),
            (
                "name".into(),
                Column::Str(vec!["ann".into(), "bob".into(), "cat".into()].into()),
            ),
        ])
        .unwrap()
    }

    fn orders() -> DataFrame {
        DataFrame::from_columns(vec![
            ("user".into(), Column::I64(vec![1, 1, 3, 9].into())),
            (
                "total".into(),
                Column::F64(vec![10.0, 20.0, 30.0, 99.0].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn inner_join_matches() {
        let joined = orders().join_inner(&users(), "user", "uid").unwrap();
        // Orders for users 1,1,3 match; user 9 does not.
        assert_eq!(joined.num_rows(), 3);
        assert_eq!(joined.schema().names(), vec!["user", "total", "name"]);
        let names = joined.column("name").unwrap();
        let mut got: Vec<String> = names.strs().unwrap().to_vec();
        got.sort();
        assert_eq!(got, vec!["ann", "ann", "cat"]);
    }

    #[test]
    fn one_to_many_expands() {
        let joined = users().join_inner(&orders(), "uid", "user").unwrap();
        assert_eq!(joined.num_rows(), 3);
        // User 1 appears twice (two orders).
        let ids = joined.column("uid").unwrap();
        let ones = ids.i64s().unwrap().iter().filter(|&&v| v == 1).count();
        assert_eq!(ones, 2);
    }

    #[test]
    fn name_collision_gets_suffix() {
        let a = DataFrame::from_columns(vec![
            ("k".into(), Column::I64(vec![1].into())),
            ("v".into(), Column::F64(vec![1.0].into())),
        ])
        .unwrap();
        let b = DataFrame::from_columns(vec![
            ("k2".into(), Column::I64(vec![1].into())),
            ("v".into(), Column::F64(vec![2.0].into())),
        ])
        .unwrap();
        let joined = a.join_inner(&b, "k", "k2").unwrap();
        assert_eq!(joined.schema().names(), vec!["k", "v", "v_right"]);
        assert_eq!(joined.column("v_right").unwrap().value(0), Value::F64(2.0));
    }

    #[test]
    fn join_on_strings() {
        let a = DataFrame::from_columns(vec![(
            "city".into(),
            Column::Str(vec!["nyc".into(), "sf".into()].into()),
        )])
        .unwrap();
        let b = DataFrame::from_columns(vec![
            ("c".into(), Column::Str(vec!["nyc".into()].into())),
            ("pop".into(), Column::I64(vec![8_000_000].into())),
        ])
        .unwrap();
        let joined = a.join_inner(&b, "city", "c").unwrap();
        assert_eq!(joined.num_rows(), 1);
    }

    #[test]
    fn empty_sides_produce_empty_result() {
        let empty = DataFrame::from_columns(vec![
            ("user".into(), Column::I64(vec![].into())),
            ("total".into(), Column::F64(vec![].into())),
        ])
        .unwrap();
        let joined = empty.join_inner(&users(), "user", "uid").unwrap();
        assert_eq!(joined.num_rows(), 0);
        assert_eq!(joined.schema().names(), vec!["user", "total", "name"]);
    }

    #[test]
    fn missing_key_errors() {
        assert!(orders().join_inner(&users(), "nope", "uid").is_err());
        assert!(orders().join_inner(&users(), "user", "nope").is_err());
    }
}
