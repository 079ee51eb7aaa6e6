//! Hash group-by with partition-local partial aggregation.
//!
//! Aggregation runs in two phases, like a Spark shuffle-free combine +
//! reduce: each partition builds partial accumulators in parallel, then the
//! partials merge into the final groups. (`STManager`'s cell/time counting
//! does not come through here: its keys are dense integers, so it indexes
//! a table instead of hashing — see `geotorch-preprocess::st_manager`.)

use std::collections::HashMap;

use crate::column::{Column, DType, GroupKey, Value};
use crate::error::{DfError, DfResult};
use crate::exec;
use crate::frame::{DataFrame, Schema};

/// An aggregate over one group.
#[derive(Debug, Clone)]
pub enum Agg {
    /// Row count, emitted as an i64 column with the given alias.
    Count(String),
    /// Sum of a numeric column.
    Sum(String, String),
    /// Minimum of a numeric column.
    Min(String, String),
    /// Maximum of a numeric column.
    Max(String, String),
    /// Arithmetic mean of a numeric column.
    Mean(String, String),
}

impl Agg {
    fn alias(&self) -> &str {
        match self {
            Agg::Count(a) => a,
            Agg::Sum(_, a) | Agg::Min(_, a) | Agg::Max(_, a) | Agg::Mean(_, a) => a,
        }
    }

    fn source(&self) -> Option<&str> {
        match self {
            Agg::Count(_) => None,
            Agg::Sum(c, _) | Agg::Min(c, _) | Agg::Max(c, _) | Agg::Mean(c, _) => Some(c),
        }
    }

    fn output_dtype(&self) -> DType {
        match self {
            Agg::Count(_) => DType::I64,
            _ => DType::F64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Acc {
    count: i64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

type Partial = HashMap<Vec<GroupKey>, (Vec<Value>, Vec<Acc>)>;

impl DataFrame {
    /// Group by `keys` and compute `aggs` per group.
    ///
    /// Output columns: the key columns (first-seen representative values)
    /// followed by one column per aggregate, named by its alias. Group
    /// order is unspecified; sort afterwards if needed.
    pub fn group_by(&self, keys: &[&str], aggs: &[Agg]) -> DfResult<DataFrame> {
        let schema = self.schema();
        let key_indices: Vec<usize> = keys
            .iter()
            .map(|k| schema.index_of(k))
            .collect::<DfResult<_>>()?;
        // One accumulator slot per agg; Count uses a dummy source.
        let agg_indices: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| a.source().map(|c| schema.index_of(c)).transpose())
            .collect::<DfResult<_>>()?;
        for (agg, src) in aggs.iter().zip(&agg_indices) {
            if let Some(idx) = src {
                let dtype = schema.fields()[*idx].1;
                if !matches!(dtype, DType::F64 | DType::I64 | DType::Ts) {
                    return Err(DfError::TypeMismatch {
                        column: agg.source().unwrap_or_default().to_string(),
                        expected: "numeric",
                        found: dtype.name(),
                    });
                }
            }
        }

        // Phase 1: partition-local partial aggregation, in parallel.
        let partials: Vec<DfResult<Partial>> = exec::par_map(self.partitions(), |part| {
            let rows = part.first().map_or(0, Column::len);
            let mut map: Partial = HashMap::new();
            for row in 0..rows {
                let key: Vec<GroupKey> = key_indices
                    .iter()
                    .map(|&i| part[i].value(row).group_key())
                    .collect();
                let entry = map.entry(key).or_insert_with(|| {
                    let rep = key_indices.iter().map(|&i| part[i].value(row)).collect();
                    (rep, vec![Acc::new(); aggs.len()])
                });
                for (acc, src) in entry.1.iter_mut().zip(&agg_indices) {
                    match src {
                        None => acc.count += 1,
                        Some(idx) => {
                            let v = part[*idx].value(row).as_f64().ok_or_else(|| {
                                DfError::TypeMismatch {
                                    column: schema.fields()[*idx].0.clone(),
                                    expected: "numeric",
                                    found: "non-numeric",
                                }
                            })?;
                            acc.update(v);
                        }
                    }
                }
            }
            Ok(map)
        });

        // Phase 2: merge partials.
        let mut merged: Partial = HashMap::new();
        for partial in partials {
            for (key, (rep, accs)) in partial? {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        for (dst, src) in e.get_mut().1.iter_mut().zip(&accs) {
                            dst.merge(src);
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((rep, accs));
                    }
                }
            }
        }

        // Materialise output columns.
        let mut out_fields: Vec<(String, DType)> = key_indices
            .iter()
            .map(|&i| schema.fields()[i].clone())
            .collect();
        for agg in aggs {
            out_fields.push((agg.alias().to_string(), agg.output_dtype()));
        }
        let out_schema = Schema::new(out_fields)?;

        let mut key_cols: Vec<Column> = key_indices
            .iter()
            .map(|&i| Column::empty(schema.fields()[i].1))
            .collect();
        let mut agg_cols: Vec<Column> = aggs
            .iter()
            .map(|a| Column::empty(a.output_dtype()))
            .collect();
        for (rep, accs) in merged.into_values() {
            for (col, value) in key_cols.iter_mut().zip(rep) {
                col.push(value)?;
            }
            for ((col, acc), agg) in agg_cols.iter_mut().zip(&accs).zip(aggs) {
                let value = match agg {
                    Agg::Count(_) => Value::I64(acc.count),
                    Agg::Sum(_, _) => Value::F64(acc.sum),
                    Agg::Min(_, _) => Value::F64(acc.min),
                    Agg::Max(_, _) => Value::F64(acc.max),
                    Agg::Mean(_, _) => Value::F64(if acc.count > 0 {
                        acc.sum / acc.count as f64
                    } else {
                        f64::NAN
                    }),
                };
                col.push(value)?;
            }
        }
        key_cols.extend(agg_cols);
        DataFrame::from_partitions(out_schema, vec![key_cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "city".into(),
                Column::Str(
                    vec![
                        "nyc".into(),
                        "sf".into(),
                        "nyc".into(),
                        "sf".into(),
                        "nyc".into(),
                    ]
                    .into(),
                ),
            ),
            (
                "amount".into(),
                Column::F64(vec![10.0, 20.0, 30.0, 40.0, 50.0].into()),
            ),
        ])
        .unwrap()
    }

    fn lookup(df: &DataFrame, city: &str, col: &str) -> Value {
        let cities = df.column("city").unwrap();
        let values = df.column(col).unwrap();
        for row in 0..df.num_rows() {
            if let Value::Str(s) = cities.value(row) {
                if s == city {
                    return values.value(row);
                }
            }
        }
        panic!("city {city} not found");
    }

    #[test]
    fn count_sum_mean_min_max() {
        let out = sales()
            .group_by(
                &["city"],
                &[
                    Agg::Count("n".into()),
                    Agg::Sum("amount".into(), "total".into()),
                    Agg::Mean("amount".into(), "avg".into()),
                    Agg::Min("amount".into(), "lo".into()),
                    Agg::Max("amount".into(), "hi".into()),
                ],
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(lookup(&out, "nyc", "n"), Value::I64(3));
        assert_eq!(lookup(&out, "nyc", "total"), Value::F64(90.0));
        assert_eq!(lookup(&out, "nyc", "avg"), Value::F64(30.0));
        assert_eq!(lookup(&out, "sf", "lo"), Value::F64(20.0));
        assert_eq!(lookup(&out, "sf", "hi"), Value::F64(40.0));
    }

    #[test]
    fn partitioned_input_matches_single_partition() {
        let single = sales()
            .group_by(&["city"], &[Agg::Sum("amount".into(), "t".into())])
            .unwrap();
        let multi = sales()
            .repartition(3)
            .unwrap()
            .group_by(&["city"], &[Agg::Sum("amount".into(), "t".into())])
            .unwrap();
        assert_eq!(lookup(&single, "nyc", "t"), lookup(&multi, "nyc", "t"));
        assert_eq!(lookup(&single, "sf", "t"), lookup(&multi, "sf", "t"));
    }

    #[test]
    fn multi_key_grouping() {
        let df = DataFrame::from_columns(vec![
            ("a".into(), Column::I64(vec![1, 1, 2, 2, 1].into())),
            ("b".into(), Column::I64(vec![0, 1, 0, 0, 0].into())),
            (
                "v".into(),
                Column::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0].into()),
            ),
        ])
        .unwrap();
        let out = df
            .group_by(&["a", "b"], &[Agg::Count("n".into())])
            .unwrap();
        assert_eq!(out.num_rows(), 3); // (1,0), (1,1), (2,0)
        let total: i64 = out.column("n").unwrap().i64s().unwrap().iter().sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_frame_groups_to_empty() {
        let df = DataFrame::from_columns(vec![
            ("k".into(), Column::I64(vec![].into())),
            ("v".into(), Column::F64(vec![].into())),
        ])
        .unwrap();
        let out = df
            .group_by(&["k"], &[Agg::Sum("v".into(), "s".into())])
            .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn rejects_non_numeric_aggregation() {
        let err = sales()
            .group_by(&["city"], &[Agg::Sum("city".into(), "s".into())])
            .unwrap_err();
        assert!(matches!(err, DfError::TypeMismatch { .. }));
    }

    #[test]
    fn rejects_unknown_columns() {
        assert!(sales()
            .group_by(&["nope"], &[Agg::Count("n".into())])
            .is_err());
        assert!(sales()
            .group_by(&["city"], &[Agg::Sum("nope".into(), "s".into())])
            .is_err());
    }
}
