//! Spill-to-disk partition storage for out-of-core preprocessing.
//!
//! At the paper's real trip volumes (100M+ rows, Fig. 8) the partitioned
//! engine cannot hold every partition in RAM. [`SpillStore`] writes each
//! partition to its own binary file and reads it back on demand, so a
//! downstream consumer (the converter's streaming loader) touches one
//! partition at a time with bounded memory.
//!
//! Properties the training stack relies on:
//!
//! - **Atomic writes.** Each partition is serialised to a `.tmp` sibling
//!   and `rename`d into place, so a crash (or an injected fault — see the
//!   `dataframe.spill.write` fault point) can never leave a half-written
//!   file where a retry would pick it up. A failed spill registers
//!   nothing; retrying the same partition starts from scratch.
//! - **Recycled read-back buffers.** [`SpillStore::read_with`] decodes
//!   from a caller-owned scratch buffer that is reused across partitions
//!   (and the batch tensors staged from the decoded columns draw from the
//!   tensor pool), so steady-state streaming does not grow the heap with
//!   the dataset.
//! - **Telemetry.** Every spilled byte is counted under
//!   `dataframe.spill_bytes`.
//!
//! The on-disk format is a private little-endian layout (magic +
//! per-column dtype tag + payload), not an interchange format: spill
//! files live for the duration of one pipeline run and the store removes
//! its directory on drop.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::column::{Column, DType};
use crate::error::{DfError, DfResult};
use crate::frame::{DataFrame, Schema};

/// File magic: "GTSP" + format version 1.
const MAGIC: &[u8; 5] = b"GTSP1";

/// One spilled partition's bookkeeping.
#[derive(Debug, Clone)]
struct SpillEntry {
    path: PathBuf,
    rows: usize,
    bytes: u64,
}

/// Disk-backed partition storage: spill partitions out, read them back
/// one at a time.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    schema: Schema,
    entries: Vec<SpillEntry>,
    next_id: u64,
}

impl SpillStore {
    /// A store rooted at `dir` (created if missing) for partitions of
    /// `schema`. Geometry columns cannot be spilled.
    ///
    /// # Errors
    /// If the directory cannot be created or the schema contains a
    /// geometry column.
    pub fn create(dir: impl AsRef<Path>, schema: Schema) -> DfResult<SpillStore> {
        for (name, dtype) in schema.fields() {
            if *dtype == DType::Geom {
                return Err(DfError::TypeMismatch {
                    column: name.clone(),
                    expected: "spillable (f64/i64/ts/bool/str)",
                    found: "geom",
                });
            }
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| DfError::Io(format!("create {dir:?}: {e}")))?;
        Ok(SpillStore {
            dir,
            schema,
            entries: Vec::new(),
            next_id: 0,
        })
    }

    /// Spill every partition of `df` into a fresh store under `dir`.
    pub fn from_frame(dir: impl AsRef<Path>, df: &DataFrame) -> DfResult<SpillStore> {
        let mut store = SpillStore::create(dir, df.schema().clone())?;
        for part in df.partitions() {
            store.spill(part)?;
        }
        Ok(store)
    }

    /// Write one partition to disk; returns its index in the store.
    ///
    /// The file is written to a `.tmp` path and renamed into place, so a
    /// failure mid-write (crash, full disk, injected
    /// `dataframe.spill.write` fault) leaves no consumable artifact and
    /// registers no entry — the caller can simply retry.
    pub fn spill(&mut self, partition: &[Column]) -> DfResult<usize> {
        if partition.len() != self.schema.len() {
            return Err(DfError::LengthMismatch(format!(
                "partition has {} columns, schema has {}",
                partition.len(),
                self.schema.len()
            )));
        }
        let rows = partition.first().map_or(0, Column::len);
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&(partition.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(rows as u64).to_le_bytes());
        for col in partition {
            if col.len() != rows {
                return Err(DfError::LengthMismatch(format!(
                    "ragged partition: {} vs {rows} rows",
                    col.len()
                )));
            }
            encode_column(col, &mut payload)?;
        }
        let id = self.next_id;
        self.next_id += 1;
        let path = self.dir.join(format!("part-{id:06}.spill"));
        let tmp = self.dir.join(format!("part-{id:06}.tmp"));
        let write = (|| -> Result<(), String> {
            let mut f = fs::File::create(&tmp).map_err(|e| e.to_string())?;
            // The fault point sits between create and the payload write:
            // an injected failure leaves an empty/partial tmp file, never
            // a renamed spill file.
            geotorch_telemetry::fault_point!("dataframe.spill.write")?;
            f.write_all(&payload).map_err(|e| e.to_string())?;
            f.sync_all().map_err(|e| e.to_string())?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(DfError::Io(format!("spill {tmp:?}: {e}")));
        }
        fs::rename(&tmp, &path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            DfError::Io(format!("rename {tmp:?}: {e}"))
        })?;
        geotorch_telemetry::count!("dataframe.spill_bytes", payload.len());
        self.entries.push(SpillEntry {
            path,
            rows,
            bytes: payload.len() as u64,
        });
        Ok(self.entries.len() - 1)
    }

    /// Read partition `i` back, reusing `scratch` as the file buffer so
    /// repeated reads recycle one allocation instead of growing the heap
    /// per partition.
    pub fn read_with(&self, i: usize, scratch: &mut Vec<u8>) -> DfResult<Vec<Column>> {
        let entry = self
            .entries
            .get(i)
            .ok_or_else(|| DfError::InvalidArgument(format!("spill partition {i} out of range")))?;
        scratch.clear();
        let mut f = fs::File::open(&entry.path)
            .map_err(|e| DfError::Io(format!("open {:?}: {e}", entry.path)))?;
        std::io::Read::read_to_end(&mut f, scratch)
            .map_err(|e| DfError::Io(format!("read {:?}: {e}", entry.path)))?;
        decode_partition(scratch, &self.schema, entry.rows)
            .map_err(|e| DfError::Io(format!("decode {:?}: {e}", entry.path)))
    }

    /// Read partition `i` back with a fresh buffer.
    pub fn read(&self, i: usize) -> DfResult<Vec<Column>> {
        let mut scratch = Vec::new();
        self.read_with(i, &mut scratch)
    }

    /// Number of spilled partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been spilled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rows in partition `i`.
    pub fn rows(&self, i: usize) -> usize {
        self.entries[i].rows
    }

    /// Total rows across partitions.
    pub fn total_rows(&self) -> usize {
        self.entries.iter().map(|e| e.rows).sum()
    }

    /// Total bytes currently on disk.
    pub fn spilled_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// The schema every partition conforms to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        for e in &self.entries {
            let _ = fs::remove_file(&e.path);
        }
        // Only removed if empty — the store never owns foreign files.
        let _ = fs::remove_dir(&self.dir);
    }
}

fn dtype_tag(dtype: DType) -> u8 {
    match dtype {
        DType::F64 => 0,
        DType::I64 => 1,
        DType::Str => 2,
        DType::Bool => 3,
        DType::Ts => 4,
        DType::Geom => 255,
    }
}

fn encode_column(col: &Column, out: &mut Vec<u8>) -> DfResult<()> {
    out.push(dtype_tag(col.dtype()));
    match col {
        Column::F64(v) => {
            for x in v.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::I64(v) | Column::Ts(v) => {
            for x in v.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
        Column::Str(v) => {
            for s in v.iter() {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        Column::Geom(_) => {
            return Err(DfError::TypeMismatch {
                column: "<spill>".into(),
                expected: "spillable (f64/i64/ts/bool/str)",
                found: "geom",
            })
        }
    }
    Ok(())
}

fn decode_partition(buf: &[u8], schema: &Schema, rows: usize) -> Result<Vec<Column>, String> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        if *pos + n > buf.len() {
            return Err(format!("truncated spill file at byte {}", *pos));
        }
        let s = &buf[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, MAGIC.len())? != MAGIC {
        return Err("bad spill magic".into());
    }
    let ncols = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let file_rows = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
    if ncols != schema.len() || file_rows != rows {
        return Err(format!(
            "spill header mismatch: {ncols} cols / {file_rows} rows, expected {} / {rows}",
            schema.len()
        ));
    }
    let mut cols = Vec::with_capacity(ncols);
    for (name, dtype) in schema.fields() {
        let tag = take(&mut pos, 1)?[0];
        if tag != dtype_tag(*dtype) {
            return Err(format!("column {name}: dtype tag {tag} does not match schema"));
        }
        let col = match dtype {
            DType::F64 => Column::F64(
                take(&mut pos, rows * 8)?
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            DType::I64 | DType::Ts => {
                let v = take(&mut pos, rows * 8)?
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                if *dtype == DType::I64 {
                    Column::I64(v)
                } else {
                    Column::Ts(v)
                }
            }
            DType::Bool => Column::Bool(take(&mut pos, rows)?.iter().map(|&b| b != 0).collect()),
            DType::Str => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let len =
                        u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
                    let bytes = take(&mut pos, len)?;
                    v.push(
                        String::from_utf8(bytes.to_vec())
                            .map_err(|e| format!("non-utf8 string payload: {e}"))?,
                    );
                }
                Column::Str(v.into())
            }
            DType::Geom => return Err("geometry columns are never spilled".into()),
        };
        cols.push(col);
    }
    if pos != buf.len() {
        return Err(format!(
            "trailing bytes in spill file: consumed {pos} of {}",
            buf.len()
        ));
    }
    Ok(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;

    /// Tests that spill take this gate: the telemetry test counts
    /// `dataframe.spill_bytes`, a process-global counter every spill in
    /// this binary adds to while it is enabled.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "geotorch-spill-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![
            (
                "lat".into(),
                Column::F64(vec![40.7, 40.8, 40.9, 41.0].into()),
            ),
            ("count".into(), Column::I64(vec![1, 2, 3, 4].into())),
            ("ts".into(), Column::Ts(vec![10, 20, 30, 40].into())),
            (
                "flag".into(),
                Column::Bool(vec![true, false, true, false].into()),
            ),
            (
                "zone".into(),
                Column::Str(vec!["a".into(), "b".into(), "".into(), "über".into()].into()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn round_trips_every_dtype() {
        let _g = serial();
        let df = df().repartition(2).unwrap();
        let store = SpillStore::from_frame(tmpdir("roundtrip"), &df).unwrap();
        assert_eq!(store.len(), df.num_partitions());
        assert_eq!(store.total_rows(), 4);
        assert!(store.spilled_bytes() > 0);
        let mut scratch = Vec::new();
        for (i, part) in df.partitions().iter().enumerate() {
            let back = store.read_with(i, &mut scratch).unwrap();
            assert_eq!(&back, part);
        }
    }

    #[test]
    fn window_onto_a_shared_buffer_spills_only_its_rows() {
        let _g = serial();
        let whole = df();
        let window: Vec<Column> = whole.partitions()[0]
            .iter()
            .map(|c| c.slice(1, 3))
            .collect();
        let owned: Vec<Column> = window.iter().map(|c| c.take(&[0, 1])).collect();
        let mut store = SpillStore::create(tmpdir("window"), whole.schema().clone()).unwrap();
        store.spill(&window).unwrap();
        store.spill(&owned).unwrap();
        let (mut from_window, mut from_owned) = (Vec::new(), Vec::new());
        assert_eq!(store.read_with(0, &mut from_window).unwrap(), window);
        assert_eq!(store.read_with(1, &mut from_owned).unwrap(), owned);
        assert_eq!(
            from_window, from_owned,
            "spill files must be byte-identical"
        );
    }

    #[test]
    fn read_buffer_is_recycled() {
        let _g = serial();
        let df = df();
        let store = SpillStore::from_frame(tmpdir("recycle"), &df).unwrap();
        let mut scratch = Vec::new();
        store.read_with(0, &mut scratch).unwrap();
        let cap = scratch.capacity();
        for _ in 0..5 {
            store.read_with(0, &mut scratch).unwrap();
        }
        assert_eq!(scratch.capacity(), cap, "scratch must be reused, not regrown");
    }

    #[test]
    fn rejects_geometry_schemas() {
        let schema = Schema::new(vec![("g".into(), DType::Geom)]).unwrap();
        assert!(SpillStore::create(tmpdir("geom"), schema).is_err());
    }

    #[test]
    fn rejects_mismatched_partitions() {
        let mut store =
            SpillStore::create(tmpdir("mismatch"), df().schema().clone()).unwrap();
        assert!(store.spill(&[Column::F64(vec![1.0].into())]).is_err());
    }

    #[test]
    fn drop_removes_spill_files() {
        let _g = serial();
        let dir = tmpdir("cleanup");
        let path;
        {
            let store = SpillStore::from_frame(&dir, &df()).unwrap();
            path = dir.join("part-000000.spill");
            assert!(path.exists());
            drop(store);
        }
        assert!(!path.exists());
        assert!(!dir.exists());
    }

    #[test]
    fn counts_spilled_bytes_in_telemetry() {
        let _g = serial();
        geotorch_telemetry::reset();
        geotorch_telemetry::set_enabled(true);
        let store = SpillStore::from_frame(tmpdir("telemetry"), &df()).unwrap();
        geotorch_telemetry::set_enabled(false);
        let snap = geotorch_telemetry::snapshot();
        let stat = snap
            .iter()
            .find(|s| s.name == "dataframe.spill_bytes")
            .expect("spill_bytes counter");
        assert_eq!(stat.count, store.spilled_bytes());
    }

    #[test]
    fn truncated_file_is_rejected_not_misread() {
        let _g = serial();
        let dir = tmpdir("truncate");
        let store = SpillStore::from_frame(&dir, &df()).unwrap();
        let path = dir.join("part-000000.spill");
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = store.read(0).unwrap_err();
        assert!(matches!(err, DfError::Io(_)), "got {err:?}");
    }

    #[test]
    fn values_survive_via_value_api() {
        let _g = serial();
        let df = df();
        let store = SpillStore::from_frame(tmpdir("values"), &df).unwrap();
        let back = store.read(0).unwrap();
        assert_eq!(back[4].value(3), Value::Str("über".into()));
        assert_eq!(back[1].value(2), Value::I64(3));
    }
}
