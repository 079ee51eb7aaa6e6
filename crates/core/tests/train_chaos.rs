//! Chaos tests for the streaming training pipeline: inject faults into
//! the prefetch thread and into the spill writer, and prove the trainer
//! fails the epoch *cleanly* — no deadlock, no half-written spill
//! consumed on retry, and every pooled buffer slot returned.
//!
//! The fault registry is process-global; every test takes `serial()`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use geotorch_converter::{
    BatchStream, DfFormatter, LoaderError, PrefetchLoader, RowTransformer, SpillBatchStream,
};
use geotorch_core::{TrainConfig, TrainError, Trainer, UpdateMode};
use geotorch_dataframe::{Column, DataFrame, SpillStore};
use geotorch_nn::layers::Linear;
use geotorch_nn::{Layer, Var};
use geotorch_tensor::{pool, Device};
use geotorch_telemetry::fault::{self, FaultAction, FaultPlan};
use rand::SeedableRng;

fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_seed() -> u64 {
    std::env::var("GEOTORCH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("geotorch_train_chaos_{}_{name}", std::process::id()))
}

fn trips(rows: usize, parts: usize) -> DataFrame {
    let a: Vec<f64> = (0..rows).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..rows).map(|i| (i % 11) as f64 * 0.5).collect();
    let y: Vec<f64> = (0..rows).map(|i| (i % 5) as f64).collect();
    DataFrame::from_columns(vec![
        ("a".into(), Column::F64(a.into())),
        ("b".into(), Column::F64(b.into())),
        ("y".into(), Column::F64(y.into())),
    ])
    .unwrap()
    .repartition(parts)
    .unwrap()
}

fn pipeline_parts(dir: &PathBuf) -> (Arc<SpillStore>, DfFormatter, Arc<RowTransformer>) {
    let _ = std::fs::remove_dir_all(dir);
    let df = trips(96, 6);
    let store = Arc::new(SpillStore::from_frame(dir, &df).unwrap());
    let fmt = DfFormatter::for_prediction(&["a", "b"], &[2], &["y"], &[1]).unwrap();
    (store, fmt, Arc::new(RowTransformer::new(16)))
}

fn quick_config(replicas: usize) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        learning_rate: 1e-3,
        early_stopping_patience: None,
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed: 0,
        device: Device::Cpu,
        replicas,
    }
}

fn fit_over(
    trainer: &Trainer,
    store: &Arc<SpillStore>,
    fmt: &DfFormatter,
    rt: &Arc<RowTransformer>,
) -> Result<geotorch_core::TrainReport, TrainError> {
    let model = Linear::new(2, 1, &mut rand::rngs::StdRng::seed_from_u64(0));
    let store = Arc::clone(store);
    let fmt = fmt.clone();
    let rt = Arc::clone(rt);
    let mut make = move |_epoch: usize| -> Result<Box<dyn BatchStream>, LoaderError> {
        let inner = SpillBatchStream::new(Arc::clone(&store), fmt.clone(), Arc::clone(&rt));
        Ok(Box::new(PrefetchLoader::new(Box::new(inner), 2)))
    };
    trainer.fit_stream(
        &model,
        &|r| Box::new(Linear::new(2, 1, &mut rand::rngs::StdRng::seed_from_u64(r as u64))),
        &|m: &Linear, x: &Var| m.forward(x),
        &mut make,
        &mut || 0.0,
        None,
    )
}

fn prefetch_depth() -> u64 {
    geotorch_telemetry::snapshot()
        .into_iter()
        .find(|s| s.name == "loader.prefetch_depth")
        .map_or(0, |s| s.count)
}

#[test]
fn prefetch_fault_fails_the_epoch_cleanly_and_returns_pool_slots() {
    let _g = serial();
    let dir = tmp_dir("prefetch");
    let (store, fmt, rt) = pipeline_parts(&dir);
    let trainer = Trainer::new(quick_config(2));

    // Healthy baseline proves the pipeline itself trains.
    let ok = fit_over(&trainer, &store, &fmt, &rt).expect("healthy run succeeds");
    assert_eq!(ok.epochs_run, 2);
    assert!(ok.train_losses.iter().all(|l| l.is_finite()));

    fault::install(FaultPlan::new(chaos_seed()).on_nth(
        "loader.prefetch",
        3,
        FaultAction::Error("prefetch thread lost its disk".into()),
    ));
    let err = fit_over(&trainer, &store, &fmt, &rt).expect_err("injected fault must fail the fit");
    fault::clear();
    assert!(
        matches!(
            &err,
            TrainError::Loader(LoaderError::Prefetch(msg)) if msg.contains("lost its disk")
        ),
        "unexpected error: {err}"
    );

    // The failed epoch drained its prefetch queue: the depth gauge is
    // back to zero and repeated failed runs do not leak pooled buffers.
    assert_eq!(prefetch_depth(), 0, "prefetch queue must drain on failure");
    let baseline = pool::stats().bytes_in_use;
    for _ in 0..3 {
        fault::install(FaultPlan::new(chaos_seed()).on_nth(
            "loader.prefetch",
            2,
            FaultAction::Error("flaky again".into()),
        ));
        let _ = fit_over(&trainer, &store, &fmt, &rt).expect_err("fault fires each run");
        fault::clear();
    }
    assert_eq!(prefetch_depth(), 0);
    assert_eq!(
        pool::stats().bytes_in_use,
        baseline,
        "failed epochs must return every pooled buffer slot"
    );

    // After the fault clears, the same pipeline trains again.
    fit_over(&trainer, &store, &fmt, &rt).expect("recovery run succeeds");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_write_fault_leaves_no_half_written_partition_for_retry() {
    let _g = serial();
    let dir = tmp_dir("spill_write");
    let _ = std::fs::remove_dir_all(&dir);
    let df = trips(64, 4);
    let schema = df.schema().clone();
    let mut store = SpillStore::create(&dir, schema).unwrap();
    store.spill(&df.partitions()[0]).expect("first spill ok");

    // Fail the second spill between file creation and the payload write
    // — the crash window a torn partition would come from.
    fault::install(FaultPlan::new(chaos_seed()).always(
        "dataframe.spill.write",
        FaultAction::Error("power cut mid-write".into()),
    ));
    let err = store
        .spill(&df.partitions()[1])
        .expect_err("injected fault must fail the spill");
    fault::clear();
    assert!(format!("{err}").contains("power cut"), "unexpected error: {err}");

    // Nothing half-written is registered or left on disk.
    assert_eq!(store.len(), 1, "failed spill must register no partition");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "staging files left behind: {leftovers:?}");

    // The retry lands in a clean slot, and a full training run over the
    // store consumes only complete partitions.
    store.spill(&df.partitions()[1]).expect("retry succeeds");
    store.spill(&df.partitions()[2]).unwrap();
    store.spill(&df.partitions()[3]).unwrap();
    assert_eq!(store.total_rows(), 64);

    let store = Arc::new(store);
    let fmt = DfFormatter::for_prediction(&["a", "b"], &[2], &["y"], &[1]).unwrap();
    let rt = Arc::new(RowTransformer::new(16));
    let trainer = Trainer::new(quick_config(1));
    let report = fit_over(&trainer, &store, &fmt, &rt).expect("training over retried store");
    assert_eq!(report.epochs_run, 2);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prefetch_panic_surfaces_as_clean_error_not_deadlock() {
    let _g = serial();
    let dir = tmp_dir("prefetch_panic");
    let (store, fmt, rt) = pipeline_parts(&dir);
    let trainer = Trainer::new(quick_config(3));

    fault::install(FaultPlan::new(chaos_seed()).on_nth(
        "loader.prefetch",
        2,
        FaultAction::Panic("prefetch thread crashed".into()),
    ));
    let err = fit_over(&trainer, &store, &fmt, &rt).expect_err("panic must fail the fit");
    fault::clear();
    assert!(
        matches!(&err, TrainError::Loader(LoaderError::Prefetch(_))),
        "unexpected error: {err}"
    );
    assert_eq!(prefetch_depth(), 0);

    fit_over(&trainer, &store, &fmt, &rt).expect("pipeline recovers after the panic");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
