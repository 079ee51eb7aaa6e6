//! CSV reading and writing.
//!
//! The paper's raw inputs (NYC TLC trip records) ship as CSV; this module
//! lets the preprocessing pipeline start from files on disk. The reader
//! supports explicit schemas or type inference, quoted fields, and
//! partitioned loading (rows are split into chunks as they stream in, so
//! a large file lands directly in partition-parallel form).

use std::io::{BufRead, BufReader, Write};
use std::path::Path;

use crate::column::{Column, DType, Value};
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;

/// CSV reading options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator.
    pub delimiter: char,
    /// Whether the first row is a header.
    pub has_header: bool,
    /// Target rows per partition (0 = single partition).
    pub rows_per_partition: usize,
    /// Explicit column types; `None` infers from the first data rows.
    pub schema: Option<Vec<DType>>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: true,
            rows_per_partition: 0,
            schema: None,
        }
    }
}

/// Read a CSV file into a DataFrame.
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> DfResult<DataFrame> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| DfError::InvalidArgument(format!("cannot open csv: {e}")))?;
    read_csv_from(BufReader::new(file), options)
}

/// Read CSV from any buffered reader (used directly in tests).
pub fn read_csv_from(reader: impl BufRead, options: &CsvOptions) -> DfResult<DataFrame> {
    let mut lines = reader.lines();
    let mut names: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();

    if options.has_header {
        match lines.next() {
            Some(Ok(header)) => {
                names = split_line(&header, options.delimiter);
            }
            Some(Err(e)) => return Err(DfError::InvalidArgument(format!("csv read: {e}"))),
            None => return Err(DfError::InvalidArgument("empty csv".into())),
        }
    }

    for line in lines {
        let line = line.map_err(|e| DfError::InvalidArgument(format!("csv read: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(&line, options.delimiter);
        if names.is_empty() {
            names = (0..fields.len()).map(|i| format!("column_{i}")).collect();
        }
        if fields.len() != names.len() {
            return Err(DfError::LengthMismatch(format!(
                "row has {} fields, header has {}",
                fields.len(),
                names.len()
            )));
        }
        rows.push(fields);
    }
    if names.is_empty() {
        return Err(DfError::InvalidArgument("empty csv".into()));
    }

    let dtypes = match &options.schema {
        Some(schema) => {
            if schema.len() != names.len() {
                return Err(DfError::LengthMismatch(format!(
                    "schema has {} types, header has {} columns",
                    schema.len(),
                    names.len()
                )));
            }
            schema.clone()
        }
        None => infer_types(&rows, names.len()),
    };

    // Build typed columns.
    let mut columns: Vec<Column> = dtypes.iter().map(|&d| Column::empty(d)).collect();
    for (row_idx, row) in rows.iter().enumerate() {
        for ((field, column), &dtype) in row.iter().zip(&mut columns).zip(&dtypes) {
            let value = parse_value(field, dtype).ok_or_else(|| {
                DfError::TypeMismatch {
                    column: format!("row {row_idx}: {field:?}"),
                    expected: dtype.name(),
                    found: "unparseable text",
                }
            })?;
            column.push(value)?;
        }
    }

    let df = DataFrame::from_columns(names.into_iter().zip(columns).collect())?;
    if options.rows_per_partition > 0 && df.num_rows() > options.rows_per_partition {
        let parts = df.num_rows().div_ceil(options.rows_per_partition);
        df.repartition(parts)
    } else {
        Ok(df)
    }
}

/// Write a DataFrame as CSV (geometry columns serialise as WKT).
pub fn write_csv(df: &DataFrame, path: impl AsRef<Path>) -> DfResult<()> {
    let mut file = std::fs::File::create(path.as_ref())
        .map_err(|e| DfError::InvalidArgument(format!("cannot create csv: {e}")))?;
    let names = df.schema().names();
    writeln!(file, "{}", names.join(","))
        .map_err(|e| DfError::InvalidArgument(format!("csv write: {e}")))?;
    df.for_each_row(|row| {
        let fields: Vec<String> = names
            .iter()
            .map(|n| format_value(&row.value(n).expect("schema column")))
            .collect();
        writeln!(file, "{}", fields.join(","))
            .map_err(|e| DfError::InvalidArgument(format!("csv write: {e}")))
    })
}

fn split_line(line: &str, delimiter: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    current.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                current.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(std::mem::take(&mut current));
        } else {
            current.push(c);
        }
    }
    fields.push(current);
    fields.iter().map(|f| f.trim().to_string()).collect()
}

fn infer_types(rows: &[Vec<String>], columns: usize) -> Vec<DType> {
    (0..columns)
        .map(|col| {
            let mut all_int = true;
            let mut all_float = true;
            let mut all_bool = true;
            let mut seen = false;
            for row in rows.iter().take(100) {
                let field = &row[col];
                if field.is_empty() {
                    continue;
                }
                seen = true;
                if field.parse::<i64>().is_err() {
                    all_int = false;
                }
                if field.parse::<f64>().is_err() {
                    all_float = false;
                }
                if !matches!(field.to_ascii_lowercase().as_str(), "true" | "false") {
                    all_bool = false;
                }
            }
            if !seen {
                DType::Str
            } else if all_int {
                DType::I64
            } else if all_float {
                DType::F64
            } else if all_bool {
                DType::Bool
            } else {
                DType::Str
            }
        })
        .collect()
}

fn parse_value(field: &str, dtype: DType) -> Option<Value> {
    match dtype {
        DType::I64 => field.parse().ok().map(Value::I64),
        DType::Ts => field.parse().ok().map(Value::Ts),
        DType::F64 => field.parse().ok().map(Value::F64),
        DType::Bool => match field.to_ascii_lowercase().as_str() {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ => None,
        },
        DType::Str => Some(Value::Str(field.to_string())),
        DType::Geom => crate::geometry::Geometry::from_wkt(field).ok().map(Value::Geom),
    }
}

fn format_value(value: &Value) -> String {
    match value {
        Value::F64(v) => format!("{v}"),
        Value::I64(v) | Value::Ts(v) => format!("{v}"),
        Value::Bool(v) => format!("{v}"),
        Value::Str(s) => {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        }
        Value::Geom(g) => format!("\"{}\"", g.to_wkt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(text: &str, options: &CsvOptions) -> DfResult<DataFrame> {
        read_csv_from(Cursor::new(text.to_string()), options)
    }

    #[test]
    fn reads_typed_columns_with_inference() {
        let df = read(
            "id,lat,lon,name\n1,40.7,-74.0,alpha\n2,40.8,-73.9,beta\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(df.num_rows(), 2);
        assert_eq!(df.schema().dtype_of("id").unwrap(), DType::I64);
        assert_eq!(df.schema().dtype_of("lat").unwrap(), DType::F64);
        assert_eq!(df.schema().dtype_of("name").unwrap(), DType::Str);
        assert_eq!(df.column("lat").unwrap().f64s().unwrap()[1], 40.8);
    }

    #[test]
    fn explicit_schema_overrides_inference() {
        let options = CsvOptions {
            schema: Some(vec![DType::Ts, DType::F64]),
            ..CsvOptions::default()
        };
        let df = read("ts,v\n100,1\n200,2\n", &options).unwrap();
        assert_eq!(df.schema().dtype_of("ts").unwrap(), DType::Ts);
        assert_eq!(df.column("ts").unwrap().i64s().unwrap(), &[100, 200]);
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let df = read(
            "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let b = df.column("b").unwrap();
        assert_eq!(b.strs().unwrap()[0], "say \"hi\"");
        let a = df.column("a").unwrap();
        assert_eq!(a.strs().unwrap()[0], "hello, world");
    }

    #[test]
    fn headerless_generates_names() {
        let options = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let df = read("1,2.5\n3,4.5\n", &options).unwrap();
        assert_eq!(df.schema().names(), vec!["column_0", "column_1"]);
        assert_eq!(df.num_rows(), 2);
    }

    #[test]
    fn partitioned_loading() {
        let options = CsvOptions {
            rows_per_partition: 2,
            ..CsvOptions::default()
        };
        let df = read("v\n1\n2\n3\n4\n5\n", &options).unwrap();
        assert_eq!(df.num_rows(), 5);
        assert!(df.num_partitions() >= 2);
    }

    #[test]
    fn bad_rows_are_rejected() {
        assert!(read("a,b\n1\n", &CsvOptions::default()).is_err());
        let options = CsvOptions {
            schema: Some(vec![DType::I64]),
            ..CsvOptions::default()
        };
        assert!(read("a\nnot_an_int\n", &options).is_err());
        assert!(read("", &CsvOptions::default()).is_err());
    }

    #[test]
    fn mixed_numeric_column_infers_f64() {
        let df = read("v\n1\n2.5\n", &CsvOptions::default()).unwrap();
        assert_eq!(df.schema().dtype_of("v").unwrap(), DType::F64);
    }

    #[test]
    fn file_round_trip_with_geometry() {
        use crate::geometry::{Geometry, Point};
        let df = DataFrame::from_columns(vec![
            ("id".into(), Column::I64(vec![1, 2].into())),
            (
                "geom".into(),
                Column::Geom(
                    vec![
                        Geometry::Point(Point::new(1.0, 2.0)),
                        Geometry::Point(Point::new(-73.9, 40.7)),
                    ]
                    .into(),
                ),
            ),
        ])
        .unwrap();
        let path = std::env::temp_dir().join(format!("geotorch_csv_{}.csv", std::process::id()));
        write_csv(&df, &path).unwrap();
        let options = CsvOptions {
            schema: Some(vec![DType::I64, DType::Geom]),
            ..CsvOptions::default()
        };
        let back = read_csv(&path, &options).unwrap();
        assert_eq!(back.column("geom").unwrap(), df.column("geom").unwrap());
        std::fs::remove_file(path).ok();
    }
}
