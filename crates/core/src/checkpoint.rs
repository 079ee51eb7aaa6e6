//! Model checkpointing: JSON serialisation of a module's state dict.
//!
//! A checkpoint is one file: the tensors inside a header that records
//! the model name (when known) and every tensor's shape, so a checkpoint
//! can be validated against a target architecture — or rejected with an
//! error — *before* any parameter is overwritten:
//!
//! ```json
//! {"format":"geotorch.checkpoint","version":1,"model":"SatCNN",
//!  "shapes":[[16,2,3,3], ...],
//!  "tensors":[{"shape":[16,2,3,3],"data":[...]}, ...]}
//! ```
//!
//! This is the one format [`load`], [`peek`] and [`parse_bytes`] read: a
//! bare JSON array of tensors is a [`CheckpointError::Format`] error, and
//! the manifests of the replicated registry are read by
//! [`crate::delta::DeltaStore`] alone.

use std::path::Path;

use geotorch_nn::Module;
use geotorch_tensor::{json, Tensor};
use serde::{Deserialize, Serialize, Value};
use serde_json::Reader;

/// The `format` marker written into every checkpoint and manifest.
pub const FORMAT_MARKER: &str = "geotorch.checkpoint";

/// The checkpoint format version this build writes and reads.
pub const FORMAT_VERSION: u64 = 1;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed checkpoint contents.
    Format(String),
    /// The checkpoint header names a different model than the caller
    /// expects (e.g. loading a UNet checkpoint into a SatCNN slot).
    WrongModel {
        /// Model name recorded in the checkpoint header.
        saved: String,
        /// Model name the caller asked for.
        expected: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(msg) => write!(f, "checkpoint format error: {msg}"),
            CheckpointError::WrongModel { saved, expected } => write!(
                f,
                "checkpoint was saved for model `{saved}`, expected `{expected}`"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Save a module's parameters under the header, without a model name.
///
/// The write is atomic with respect to the destination: the bytes go to
/// a `.tmp` sibling first and are `rename`d into place, so a crash (or
/// full disk) mid-write never leaves a truncated checkpoint where a
/// previously valid one existed.
///
/// A parameter holding NaN or an infinity is a [`CheckpointError::Format`]
/// error before any byte is written: JSON cannot store it, and the file
/// would replace a good checkpoint with one that never loads.
pub fn save(model: &dyn Module, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save_impl(model, None, path.as_ref())
}

/// Save a module's parameters with the model name recorded in the header,
/// so [`load_named`] can refuse to deserialise it into a different
/// architecture.
pub fn save_named(
    model: &dyn Module,
    name: &str,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_impl(model, Some(name), path.as_ref())
}

fn save_impl(
    model: &dyn Module,
    name: Option<&str>,
    path: &Path,
) -> Result<(), CheckpointError> {
    let state = model.state_dict();
    check_finite(&state)?;
    let shapes: Vec<Vec<usize>> = state.iter().map(|t| t.shape().to_vec()).collect();
    let header = Value::Object(vec![
        ("format".to_string(), FORMAT_MARKER.to_value()),
        ("version".to_string(), FORMAT_VERSION.to_value()),
        (
            "model".to_string(),
            name.map_or(Value::Null, |n| n.to_value()),
        ),
        ("shapes".to_string(), shapes.to_value()),
    ]);
    // The small header goes through `Value`; the tensors are written
    // after it by the tensor codec, into the same string.
    let mut text =
        serde_json::to_string(&header).map_err(|e| CheckpointError::Format(e.to_string()))?;
    text.pop(); // the header's closing `}`
    text.push_str(",\"tensors\":[");
    for (i, t) in state.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        json::write(t, &mut text);
    }
    text.push_str("]}");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = std::fs::write(&tmp, text) {
        std::fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Io(e));
    }
    // Chaos hook for the crash window the tmp+rename dance exists for:
    // a fault injected here (error or panic) must leave any previous
    // checkpoint at `path` untouched and loadable.
    if let Err(msg) = geotorch_telemetry::fault_point!("core.checkpoint.rename") {
        std::fs::remove_file(&tmp).ok();
        return Err(CheckpointError::Format(format!(
            "injected fault between staging write and rename: {msg}"
        )));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        CheckpointError::Io(e)
    })
}

/// JSON has no NaN or infinity: such a weight would be written as `null`
/// and the file would never load again. Refuse it before anything is
/// written, naming the parameter.
pub(crate) fn check_finite(state: &[Tensor]) -> Result<(), CheckpointError> {
    match state
        .iter()
        .position(|t| t.as_slice().iter().any(|x| !x.is_finite()))
    {
        Some(i) => Err(CheckpointError::Format(format!(
            "parameter {i} holds a NaN or infinite value, which JSON cannot store"
        ))),
        None => Ok(()),
    }
}

/// What a checkpoint file declares about itself, readable without
/// touching any model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u64,
    /// Model name recorded at save time, if any.
    pub model: Option<String>,
    /// Shape of every tensor in the state dict, in parameter order.
    pub shapes: Vec<Vec<usize>>,
}

fn parse_file(
    path: &Path,
    expected: Option<&str>,
) -> Result<(CheckpointMeta, Vec<Tensor>), CheckpointError> {
    if let Err(msg) = geotorch_telemetry::fault_point!("core.checkpoint.load") {
        return Err(CheckpointError::Format(format!(
            "injected load fault: {msg}"
        )));
    }
    let json = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
    parse_bytes(&json, expected)
}

/// Parse a checkpoint from already-read JSON text. When `expected` is
/// given, a header that names a different model is
/// [`CheckpointError::WrongModel`] (a header without a name passes).
pub fn parse_bytes(
    json: &str,
    expected: Option<&str>,
) -> Result<(CheckpointMeta, Vec<Tensor>), CheckpointError> {
    let syntax = |e: serde_json::Error| CheckpointError::Format(e.to_string());
    // One pass: the header members become a small `Value`, the first
    // `tensors` array goes through the tensor codec with no tree.
    let mut reader = Reader::new(json);
    let mut tensors = None;
    let value = if reader.peek() == Some(b'{') {
        let mut header = Vec::new();
        let mut more = reader.begin_object().map_err(syntax)?;
        while more {
            let key = reader.key().map_err(syntax)?;
            if key == "tensors" && tensors.is_none() {
                tensors = Some(read_tensors(&mut reader).map_err(syntax)?);
            } else {
                header.push((key.into_owned(), reader.value().map_err(syntax)?));
            }
            more = reader.object_next().map_err(syntax)?;
        }
        Value::Object(header)
    } else {
        reader.value().map_err(syntax)?
    };
    reader.end().map_err(syntax)?;
    let marker = value.get("format").and_then(Value::as_str).ok_or_else(|| {
        CheckpointError::Format(
            "missing `format` marker (a checkpoint is a header object, not a bare tensor array)"
                .to_string(),
        )
    })?;
    if marker != FORMAT_MARKER {
        return Err(CheckpointError::Format(format!(
            "unknown format marker `{marker}`"
        )));
    }
    let version = value
        .get("version")
        .map(u64::from_value)
        .transpose()
        .map_err(|e| CheckpointError::Format(format!("`version`: {e}")))?
        .ok_or_else(|| CheckpointError::Format("missing `version`".to_string()))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported checkpoint version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let model = match value.get("model") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| CheckpointError::Format("`model` must be a string".to_string()))?
                .to_string(),
        ),
    };
    if let (Some(expected), Some(saved)) = (expected, model.as_deref()) {
        if expected != saved {
            return Err(CheckpointError::WrongModel {
                saved: saved.to_string(),
                expected: expected.to_string(),
            });
        }
    }
    let shapes: Vec<Vec<usize>> = value
        .get("shapes")
        .map(Vec::<Vec<usize>>::from_value)
        .transpose()
        .map_err(|e| CheckpointError::Format(e.to_string()))?
        .ok_or_else(|| CheckpointError::Format("missing `shapes`".to_string()))?;
    let tensors =
        tensors.ok_or_else(|| CheckpointError::Format("missing `tensors`".to_string()))?;
    if shapes.len() != tensors.len() {
        return Err(CheckpointError::Format(format!(
            "header lists {} shapes but file holds {} tensors",
            shapes.len(),
            tensors.len()
        )));
    }
    for (i, (shape, t)) in shapes.iter().zip(&tensors).enumerate() {
        if shape.as_slice() != t.shape() {
            return Err(CheckpointError::Format(format!(
                "tensor {i}: header shape {:?} disagrees with payload shape {:?}",
                shape,
                t.shape()
            )));
        }
    }
    Ok((
        CheckpointMeta {
            version,
            model,
            shapes,
        },
        tensors,
    ))
}

fn read_tensors(reader: &mut Reader<'_>) -> Result<Vec<Tensor>, serde_json::Error> {
    let mut tensors = Vec::new();
    let mut more = reader.begin_array()?;
    while more {
        tensors.push(json::read(reader)?);
        more = reader.array_next()?;
    }
    Ok(tensors)
}

/// Read only a checkpoint's metadata (version, model name, shapes).
pub fn peek(path: impl AsRef<Path>) -> Result<CheckpointMeta, CheckpointError> {
    parse_file(path.as_ref(), None).map(|(meta, _)| meta)
}

/// Load parameters saved by [`save`]/[`save_named`] into a structurally
/// identical model. Shape mismatches are reported as errors before any
/// parameter is touched.
pub fn load(model: &dyn Module, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    load_impl(model, None, path.as_ref())
}

/// Like [`load`], but additionally require the checkpoint header to name
/// `expected` (a file saved without a name is accepted as long as the
/// shapes match).
pub fn load_named(
    model: &dyn Module,
    expected: &str,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    load_impl(model, Some(expected), path.as_ref())
}

fn load_impl(
    model: &dyn Module,
    expected: Option<&str>,
    path: &Path,
) -> Result<(), CheckpointError> {
    let (_, state) = parse_file(path, expected)?;
    model
        .load_state_dict(&state)
        .map_err(|e| CheckpointError::Format(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use geotorch_models::raster::{SatCnn, UNet};
    use geotorch_models::RasterClassifier;
    use geotorch_nn::Var;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("geotorch_ckpt_{}_{name}.json", std::process::id()))
    }

    #[test]
    fn save_load_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = SatCnn::new(2, 8, 8, 3, &mut rng);
        let x = Var::constant(Tensor::rand_uniform(&[1, 2, 8, 8], 0.0, 1.0, &mut rng));
        let before = model.forward(&x, None).value();
        let path = tmp("round_trip");
        save(&model, &path).unwrap();

        // Fresh model with different init must differ, then match after load.
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(99);
        let model2 = SatCnn::new(2, 8, 8, 3, &mut rng2);
        assert!(!model2.forward(&x, None).value().allclose(&before, 1e-6));
        load(&model2, &path).unwrap();
        assert!(model2.forward(&x, None).value().allclose(&before, 1e-6));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_records_name_version_and_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = SatCnn::new(2, 8, 8, 3, &mut rng);
        let path = tmp("header");
        save_named(&model, "satcnn", &path).unwrap();
        let meta = peek(&path).unwrap();
        assert_eq!(meta.version, FORMAT_VERSION);
        assert_eq!(meta.model.as_deref(), Some("satcnn"));
        let expected: Vec<Vec<usize>> = model
            .state_dict()
            .iter()
            .map(|t| t.shape().to_vec())
            .collect();
        assert_eq!(meta.shapes, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_structural_mismatch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let small = SatCnn::new(2, 8, 8, 3, &mut rng);
        let big = SatCnn::new(4, 8, 8, 3, &mut rng);
        let path = tmp("mismatch");
        save(&small, &path).unwrap();
        assert!(matches!(load(&big, &path), Err(CheckpointError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_architecture_errors_without_mutating() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let unet = UNet::new(3, 1, 4, &mut rng);
        let path = tmp("wrong_arch");
        save_named(&unet, "unet", &path).unwrap();

        let satcnn = SatCnn::new(2, 8, 8, 3, &mut rng);
        let before = satcnn.state_dict();
        // Name check fires first on named loads...
        assert!(matches!(
            load_named(&satcnn, "satcnn", &path),
            Err(CheckpointError::WrongModel { .. })
        ));
        // ...and the shape check still protects anonymous loads.
        assert!(matches!(load(&satcnn, &path), Err(CheckpointError::Format(_))));
        for (p, b) in satcnn.state_dict().iter().zip(&before) {
            assert_eq!(p, b, "failed load must not mutate the target model");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsupported_version_errors() {
        let path = tmp("future_version");
        std::fs::write(
            &path,
            format!(
                "{{\"format\":\"{FORMAT_MARKER}\",\"version\":999,\"model\":null,\"shapes\":[],\"tensors\":[]}}"
            ),
        )
        .unwrap();
        let err = peek(&path).expect_err("future versions must be rejected");
        assert!(matches!(err, CheckpointError::Format(_)), "got {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let model = SatCnn::new(1, 8, 8, 2, &mut rng);
        let path = tmp("atomic");
        let tmp_sibling = {
            let mut s = path.as_os_str().to_owned();
            s.push(".tmp");
            std::path::PathBuf::from(s)
        };
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&tmp_sibling).ok();

        // A good checkpoint exists...
        save(&model, &path).unwrap();
        assert!(!tmp_sibling.exists(), "tmp sibling must not outlive save");
        let good = std::fs::read_to_string(&path).unwrap();

        // ...then a save whose staging write fails (a directory squats on
        // the .tmp path) must error without touching the real file.
        std::fs::create_dir(&tmp_sibling).unwrap();
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(7);
        let other = SatCnn::new(1, 8, 8, 2, &mut rng2);
        assert!(matches!(save(&other, &path), Err(CheckpointError::Io(_))));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            good,
            "failed save must leave the previous checkpoint intact"
        );
        load(&model, &path).unwrap();

        std::fs::remove_dir(&tmp_sibling).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_non_finite_weight_never_replaces_a_good_checkpoint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let model = SatCnn::new(1, 8, 8, 2, &mut rng);
        let path = tmp("non_finite");
        save(&model, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut state = model.state_dict();
            let last = state.len() - 1;
            state[last].as_mut_slice()[0] = bad;
            let broken = SatCnn::new(1, 8, 8, 2, &mut rng);
            broken.load_state_dict(&state).unwrap();
            let err = save(&broken, &path).expect_err("a non-finite weight must not be saved");
            assert!(
                matches!(&err, CheckpointError::Format(m) if m.contains(&format!("parameter {last}"))),
                "{bad}: {err:?}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                good,
                "{bad}: the previous file changed"
            );
        }
        load(&model, &path).expect("the previous checkpoint still loads");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let model = SatCnn::new(1, 8, 8, 2, &mut rng);
        assert!(matches!(
            load(&model, "/nonexistent/ckpt.json"),
            Err(CheckpointError::Io(_))
        ));
    }
}
