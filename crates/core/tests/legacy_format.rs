//! Regression tests for the checkpoint formats each reader accepts:
//! `checkpoint` reads only the named header file `save` writes — a bare
//! tensor array (the pre-header format) is a `Format` error, never a
//! silent load — and a manifest is read by its `DeltaStore` alone, whose
//! head answers from the manifest without reading a single payload.

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
fn manifest_is_read_by_its_store_alone() {
    let dir = tmp("store");
    std::fs::remove_dir_all(&dir).ok();
    let donor = model(2);
    let mut store = DeltaStore::open(&dir, Some("satcnn")).expect("open");
    store.publish_module(&donor).expect("publish");

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
    let store = DeltaStore::open(&dir, Some("satcnn")).expect("reopen needs no payloads");
    assert_eq!(store.head(), Some(&head));
    assert_eq!(head.model.as_deref(), Some("satcnn"));
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
