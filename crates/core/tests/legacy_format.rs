//! Regression tests for the checkpoint formats each reader accepts:
//! `checkpoint` reads only the named header file `save` writes — a bare
//! tensor array (the pre-header format) is a `Format` error, never a
//! silent load — and a manifest is read by its `DeltaStore` alone, whose
//! head answers from the manifest without reading a single payload. A
//! store written by an older manifest version is refused, untouched.

use std::path::PathBuf;

use geotorch_core::checkpoint::{self, CheckpointError};
use geotorch_core::{DeltaStore, Manifest};
use geotorch_models::raster::SatCnn;
use geotorch_models::RasterClassifier;
use geotorch_nn::{Module, Var};
use geotorch_tensor::Tensor;
use rand::SeedableRng;
use serde::Serialize;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("geotorch_legacy_{}_{name}", std::process::id()))
}

fn model(seed: u64) -> SatCnn {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SatCnn::new(2, 8, 8, 3, &mut rng)
}

fn logits(m: &SatCnn) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let x = Var::constant(Tensor::rand_uniform(&[1, 2, 8, 8], 0.0, 1.0, &mut rng));
    geotorch_nn::no_grad(|| m.forward(&x, None).value())
        .as_slice()
        .to_vec()
}

#[test]
fn bare_array_checkpoints_are_format_errors() {
    // The pre-header format: a JSON array of tensors, nothing else.
    let path = tmp("bare.json");
    let json = serde_json::to_string(&model(0).state_dict().to_value()).expect("serialise");
    std::fs::write(&path, &json).expect("write");

    let target = model(9);
    let before = logits(&target);
    assert!(matches!(
        checkpoint::peek(&path),
        Err(CheckpointError::Format(_))
    ));
    assert!(matches!(
        checkpoint::parse_bytes(&json, None),
        Err(CheckpointError::Format(_))
    ));
    assert!(matches!(
        checkpoint::load(&target, &path),
        Err(CheckpointError::Format(_))
    ));
    assert!(matches!(
        checkpoint::load_named(&target, "satcnn", &path),
        Err(CheckpointError::Format(_))
    ));
    assert_eq!(
        logits(&target),
        before,
        "a refused file must not touch the model"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn v1_named_checkpoints_still_load() {
    let path = tmp("named.json");
    let donor = model(1);
    checkpoint::save_named(&donor, "satcnn", &path).expect("save");

    let meta = checkpoint::peek(&path).expect("peek");
    assert_eq!(meta.version, checkpoint::FORMAT_VERSION);
    assert_eq!(meta.model.as_deref(), Some("satcnn"));

    let restored = model(9);
    checkpoint::load_named(&restored, "satcnn", &path).expect("v1 loads");
    assert_eq!(logits(&restored), logits(&donor));
    // The name check still bites.
    let err = checkpoint::load_named(&model(8), "other", &path).expect_err("wrong name");
    assert!(matches!(err, CheckpointError::WrongModel { .. }));
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_version_must_be_an_exact_integer() {
    let path = tmp("version.json");
    checkpoint::save(&model(3), &path).expect("save");
    let json = std::fs::read_to_string(&path).expect("read");
    let field = format!("\"version\":{},", checkpoint::FORMAT_VERSION);
    assert!(json.contains(&field));
    for version in ["1.5", "-1", "1e300", "1.0000001"] {
        let bad = json.replacen(&field, &format!("\"version\":{version},"), 1);
        let err = checkpoint::parse_bytes(&bad, None).expect_err(version);
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("version")),
            "version {version}: {err:?}"
        );
    }
    checkpoint::parse_bytes(&json, None).expect("the written version parses");
    std::fs::remove_file(&path).ok();
}

#[test]
fn manifest_is_read_by_its_store_alone() {
    let dir = tmp("store");
    std::fs::remove_dir_all(&dir).ok();
    let donor = model(2);
    let mut store = DeltaStore::open(&dir, "satcnn").expect("open");
    store.publish(&donor.state_dict()).expect("publish");

    // The store materialises its head into the donor's weights…
    let restored = model(9);
    restored
        .load_state_dict(&store.materialize().expect("materialize"))
        .expect("same architecture");
    assert_eq!(logits(&restored), logits(&donor));
    // …while the checkpoint reader refuses the manifest file.
    let head_path = dir.join("head.json");
    assert!(matches!(
        checkpoint::peek(&head_path),
        Err(CheckpointError::Format(_))
    ));

    // With every payload file deleted, a reopened store's `head()` still
    // answers from the manifest alone, while `materialize` (which needs
    // the tensors) now fails.
    let head = store.head().expect("head").clone();
    drop(store);
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let entry = entry.expect("dir entry");
        if entry.file_name().to_string_lossy().starts_with('t') {
            std::fs::remove_file(entry.path()).expect("remove payload");
        }
    }
    let store = DeltaStore::open(&dir, "satcnn").expect("reopen needs no payloads");
    assert_eq!(store.head(), Some(&head));
    assert_eq!(head.model, "satcnn");
    assert!(
        store.materialize().is_err(),
        "materializing without payloads must fail, proving open never read them"
    );

    // The manifest JSON itself round-trips exactly (content id verified
    // on parse).
    let json = std::fs::read_to_string(&head_path).expect("read head");
    let parsed = Manifest::from_json(&json).expect("parse");
    assert_eq!(parsed, head);
    assert_eq!(
        parsed.to_json(),
        json,
        "manifest JSON round-trips byte-for-byte"
    );

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file in `dir` with its bytes, sorted by name.
fn snapshot(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn version_2_stores_are_refused_and_left_in_place() {
    let dir = tmp("v2_store");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A store as the history-DAG format wrote it: a head naming its
    // parent, the DAG node file, and one payload.
    let hash = geotorch_core::delta::tensor_hash(&Tensor::zeros(&[2]));
    let head = format!(
        r#"{{"format":"geotorch.checkpoint","version":2,"model":"satcnn","id":"0123456789abcdef","parents":["fedcba9876543210"],"shapes":[[2]],"entries":[{{"ver":1,"hash":"{hash}"}}]}}"#
    );
    std::fs::write(dir.join("head.json"), &head).expect("write head");
    std::fs::write(dir.join("m-0123456789abcdef.json"), &head).expect("write node");
    std::fs::write(
        dir.join(format!("t0@1-{hash}.json")),
        serde_json::to_string(&Tensor::zeros(&[2])).expect("serialise"),
    )
    .expect("write payload");
    let before = snapshot(&dir);

    let err = DeltaStore::open(&dir, "satcnn").err().expect("a v2 head is refused");
    assert!(
        matches!(&err, CheckpointError::Format(m) if m.contains("version 2")),
        "{err:?}"
    );
    assert_eq!(snapshot(&dir), before, "a refused store must be left as it was");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifests_without_a_model_name_are_refused() {
    let dir = tmp("null_model");
    std::fs::remove_dir_all(&dir).ok();
    let mut store = DeltaStore::open(&dir, "satcnn").expect("open");
    store.publish(&model(4).state_dict()).expect("publish");
    drop(store);
    let head_path = dir.join("head.json");
    let json = std::fs::read_to_string(&head_path).expect("read head");
    assert!(json.contains(r#""model":"satcnn""#));
    let nameless = json.replace(r#""model":"satcnn""#, r#""model":null"#);
    let err = Manifest::from_json(&nameless).expect_err("a null model is refused");
    assert!(
        matches!(&err, CheckpointError::Format(m) if m.contains("`model`")),
        "{err:?}"
    );
    std::fs::write(&head_path, &nameless).expect("write head");
    assert!(matches!(
        DeltaStore::open(&dir, "satcnn"),
        Err(CheckpointError::Format(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
