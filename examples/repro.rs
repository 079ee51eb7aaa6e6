//! `repro` — regenerate every table and figure of the GeoTorchAI paper's
//! evaluation (§V) on the GeoTorch-RS reproduction.
//!
//! ```sh
//! cargo run --release --example repro -- [--quick] [--threads N] [--profile] <experiment>
//! ```
//!
//! Experiments: `fig8`, `table4`, `table5`, `table6`, `table7`, `fig9`,
//! `table8`, or `all`. `--quick` shrinks scales for a fast smoke run.
//! `--threads N` pins the Fig. 9 "GPU" (data-parallel) runs to a
//! `Device::Parallel(N)` worker-pool share instead of every core.
//! `--profile` turns on the telemetry layer and dumps a per-kernel time
//! breakdown after each experiment: a markdown section appended to the
//! report plus machine-readable `results/<name>.profile.json`.
//!
//! Results print as markdown and are appended to `results/<name>.md`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::SeedableRng;

use geotorch_core::{TrainConfig, Trainer, UpdateMode};
use geotorch_datasets::grid::GridDatasetBuilder;
use geotorch_datasets::synth::{TripGenerator, WeatherField, WeatherVariable};
use geotorch_datasets::{chronological_split, shuffled_split, RasterDataset, StGridDataset};
use geotorch_models::grid::{ConvLstm, DeepStnPlus, PeriodicalCnn, StResNet};
use geotorch_models::raster::{DeepSatV2, Fcn, SatCnn, UNet, UNetPlusPlus};
use geotorch_models::{GridModel, RasterClassifier, Segmenter};
use geotorch_preprocess::geopandas_like::get_st_grid_dataframe_naive;
use geotorch_preprocess::raster_processing::{RasterBatch, RasterProcessing};
use geotorch_preprocess::st_manager::{trips_dataframe, StGridConfig, StManager};
use geotorch_raster::transforms::{AppendNormalizedDifferenceIndex, Compose};
use geotorch_tensor::Device;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A [`GlobalAlloc`] wrapper that tracks current and peak live bytes, so
/// Fig. 8 can report each engine's peak memory: bracket a region with
/// [`CountingAllocator::reset_peak`] / [`CountingAllocator::peak`].
struct CountingAllocator {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    const fn new() -> CountingAllocator {
        CountingAllocator {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Peak live bytes since the last reset.
    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the peak to the current live size and return the live size.
    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    fn record_alloc(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn record_dealloc(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            self.record_dealloc(layout.size());
            self.record_alloc(new_size);
        }
        new_ptr
    }
}

/// A one-line host descriptor appended to every `results/*.md` artifact:
/// core count plus the tensor pool's high-water mark, so single-core
/// container runs (where data-parallel speedups flatten to ~1x) are
/// self-describing.
fn host_stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = geotorch_tensor::pool::stats();
    format!(
        "\n_Host: {cores} core(s); tensor pool high-water {:.1} MB._\n",
        pool.high_water_bytes as f64 / 1e6
    )
}

/// The periodical feature lengths used by every grid experiment
/// (closeness 3, period 4, trend 2 — within the ranges of Listing 4).
const PERIODICAL_LENS: (usize, usize, usize) = (3, 4, 1);

/// Sequence length for ConvLSTM experiments.
const CONVLSTM_HISTORY: usize = 12;

/// The four grid models of Tables IV/V, in the paper's column order.
const GRID_MODEL_NAMES: [&str; 4] = ["PeriodicalCNN", "ConvLSTM", "ST-ResNet", "DeepSTN+"];

/// Instantiate a grid model by Table IV column name for a dataset of
/// `c` channels on an `h × w` grid.
///
/// # Panics
/// On an unknown name.
fn make_grid_model(name: &str, c: usize, h: usize, w: usize, seed: u64) -> Box<dyn GridModel> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match name {
        "PeriodicalCNN" => Box::new(PeriodicalCnn::new(c, PERIODICAL_LENS, 8, &mut rng)),
        // The paper's ConvLSTM is by far its largest model (Table VII); a
        // wide cell unrolled over a 12-frame history mirrors that.
        "ConvLSTM" => Box::new(ConvLstm::new(c, 16, 3, 1, &mut rng)),
        "ST-ResNet" => Box::new(StResNet::new(c, PERIODICAL_LENS, h, w, 16, 2, &mut rng)),
        "DeepSTN+" => Box::new(DeepStnPlus::new(c, PERIODICAL_LENS, h, w, 16, &mut rng)),
        other => panic!("unknown grid model {other}"),
    }
}

/// Configure a dataset with the representation a model consumes.
fn set_representation(dataset: &mut StGridDataset, model_name: &str) {
    if model_name == "ConvLSTM" {
        dataset.set_sequential_representation(CONVLSTM_HISTORY, 1);
    } else {
        dataset.set_periodical_representation(
            PERIODICAL_LENS.0,
            PERIODICAL_LENS.1,
            PERIODICAL_LENS.2,
        );
    }
}

/// The §V-C training protocol: Adam, incremental updates, early stopping
/// on the validation metric.
fn paper_train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        learning_rate: 5e-3,
        early_stopping_patience: Some(8),
        update_mode: UpdateMode::Incremental,
        gradient_clip: None,
        seed,
        device: Device::Cpu,
        replicas: 1,
    }
}

/// Mean and maximum absolute deviation of a sample (the paper reports
/// `avg ± spread` over 5 iterations).
fn mean_and_spread(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (f32::NAN, f32::NAN);
    }
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    let spread = values
        .iter()
        .map(|v| (v - mean).abs())
        .fold(0.0f32, f32::max);
    (mean, spread)
}

/// Format a training-speed cell as `seconds/epoch (samples/s)` — the
/// shared shape for every timing table in the harness.
fn timing_cell(epoch_seconds: f64, samples_per_sec: f64) -> String {
    format!("{epoch_seconds:.3} ({samples_per_sec:.1}/s)")
}

/// Render rows as a markdown table.
fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let profile = args.iter().any(|a| a == "--profile");
    if profile {
        geotorch_telemetry::set_enabled(true);
    }
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                })
        });
    let mut skip_next = false;
    let chosen: Vec<&str> = args
        .iter()
        .filter_map(|s| {
            if skip_next {
                skip_next = false;
                return None;
            }
            if s == "--threads" {
                skip_next = true;
                return None;
            }
            (s != "--quick" && s != "--profile").then_some(s.as_str())
        })
        .collect();
    let all = [
        "fig8",
        "table4",
        "table5",
        "table6",
        "table7",
        "fig9",
        "table8",
    ];
    let run: Vec<&str> = if chosen.is_empty() || chosen.contains(&"all") {
        all.to_vec()
    } else {
        chosen
    };
    std::fs::create_dir_all("results").ok();
    for experiment in run {
        if profile {
            geotorch_telemetry::reset();
        }
        let start = Instant::now();
        let output = match experiment {
            "fig8" => fig8(quick),
            "table4" => table4(quick),
            "table5" => table5(quick),
            "table6" => table6(quick),
            "table7" => table7(quick),
            "fig9" => fig9(quick, threads),
            "table8" => table8(quick),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        let elapsed = start.elapsed().as_secs_f64();
        let mut report = format!(
            "{output}\n_(harness time: {elapsed:.1}s, quick={quick})_\n{}",
            host_stamp()
        );
        if profile {
            report.push_str(&profile_section(experiment));
        }
        println!("{report}");
        std::fs::write(format!("results/{experiment}.md"), &report).ok();
    }
}

/// Dump the telemetry snapshot for one experiment: JSON next to the
/// markdown report, plus a rendered breakdown with a kernel-coverage
/// summary (how much of the instrumented training time the tensor/nn
/// kernels account for).
fn profile_section(experiment: &str) -> String {
    let json = geotorch_telemetry::snapshot_json();
    std::fs::write(format!("results/{experiment}.profile.json"), &json).ok();
    let stats = geotorch_telemetry::snapshot();
    let kernel_ns: u64 = stats
        .iter()
        .filter(|s| s.name.starts_with("tensor.") || s.name.starts_with("nn."))
        .map(|s| s.self_ns)
        .sum();
    let epoch_ns: u64 = stats
        .iter()
        .filter(|s| s.name == "core.trainer.epoch")
        .map(|s| s.total_ns)
        .sum();
    let coverage = if epoch_ns > 0 {
        format!(
            "Kernel self-time covers {:.0}% of instrumented epoch wall-clock \
             (kernels also run in validation, so >100% is possible).",
            100.0 * kernel_ns as f64 / epoch_ns as f64
        )
    } else {
        "No trainer epochs ran in this experiment.".to_string()
    };
    format!(
        "\n### Profile (`--profile`)\n\n{}\n{coverage}\n\nMachine-readable copy: `results/{experiment}.profile.json`.\n",
        geotorch_telemetry::snapshot_markdown()
    )
}

// ---------------------------------------------------------------- Fig. 8

/// Figure 8: spatiotemporal tensor preparation — elapsed time and peak
/// memory, GeoTorchAI's partitioned engine vs the naive single-threaded
/// GeoPandas-like baseline, over growing record counts.
///
/// Paper sizes (1.4 M – 250 M trips) are scaled ÷100 so the sweep runs on
/// a laptop; the scaling *shape* is the reproduction target.
fn fig8(quick: bool) -> String {
    let sizes: Vec<usize> = if quick {
        vec![14_000, 50_000, 140_000]
    } else {
        vec![14_000, 140_000, 1_000_000, 2_500_000]
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let mut rows = Vec::new();
    for &n in &sizes {
        let generator = TripGenerator::nyc_like(42);
        let trips = generator.generate(n);
        let (min_lon, min_lat, max_lon, max_lat) = generator.extent();
        let extent = geotorch_dataframe::Envelope::new(min_lon, min_lat, max_lon, max_lat);
        let config = StGridConfig {
            partitions_x: 12,
            partitions_y: 16,
            step_duration_sec: 1800,
            extent: Some(extent),
        };
        let lats: Vec<f64> = trips.iter().map(|t| t.pickup_lat).collect();
        let lons: Vec<f64> = trips.iter().map(|t| t.pickup_lon).collect();
        let timestamps: Vec<i64> = trips.iter().map(|t| t.timestamp).collect();
        drop(trips);

        // GeoTorchAI: partitioned, parallel.
        let df = trips_dataframe(lats.clone(), lons.clone(), timestamps.clone())
            .expect("trip columns")
            .repartition(threads * 2)
            .expect("repartition");
        let base = ALLOC.reset_peak();
        let start = Instant::now();
        let (tensor, _) =
            StManager::get_st_grid_array(&df, "lat", "lon", "ts", &config).expect("fast pipeline");
        let fast_time = start.elapsed().as_secs_f64();
        let fast_mem = ALLOC.peak().saturating_sub(base);
        let fast_total = tensor.sum();
        drop(tensor);
        drop(df);

        // Baseline: naive single-threaded materialising pipeline.
        let df = trips_dataframe(lats, lons, timestamps).expect("trip columns");
        let base = ALLOC.reset_peak();
        let start = Instant::now();
        let naive = get_st_grid_dataframe_naive(&df, "lat", "lon", "ts", &config)
            .expect("naive pipeline");
        let naive_time = start.elapsed().as_secs_f64();
        let naive_mem = ALLOC.peak().saturating_sub(base);
        let naive_total = naive.to_tensor().expect("dense tensor").sum();
        assert_eq!(fast_total, naive_total, "engines must agree on the result");

        rows.push(vec![
            format!("{n}"),
            format!("{fast_time:.3}"),
            format!("{naive_time:.3}"),
            format!("{:.1}x", naive_time / fast_time.max(1e-9)),
            format!("{:.1}", fast_mem as f64 / 1e6),
            format!("{:.1}", naive_mem as f64 / 1e6),
        ]);
    }
    format!(
        "## Figure 8 — spatiotemporal tensor preparation (GeoTorchAI vs GeoPandas-like baseline)\n\n\
         Workload: synthetic NYC-like taxi trips → 12×16 grid, 30-min slots. `{threads}` worker threads.\n\n{}",
        markdown_table(
            &["records", "geotorch time (s)", "baseline time (s)", "speedup", "geotorch peak MB", "baseline peak MB"],
            &rows
        )
    )
}

// ------------------------------------------------------------- Table IV

#[allow(clippy::type_complexity)]
fn table4(quick: bool) -> String {
    let days = if quick { 9 } else { 14 };
    let seeds: Vec<u64> = if quick { vec![0] } else { vec![0, 1] };
    let datasets: Vec<(&str, Box<dyn Fn(u64) -> StGridDataset>)> = vec![
        (
            "BikeNYC-DeepSTN",
            Box::new(move |s| StGridDataset::bike_nyc_deepstn(days, s)),
        ),
        (
            "TaxiBJ21",
            Box::new(move |s| StGridDataset::taxi_bj21(days.min(10), s)),
        ),
        (
            "YellowTrip-NYC",
            Box::new(move |s| StGridDataset::yellowtrip_nyc(days.min(10), s)),
        ),
    ];
    grid_model_table(
        "Table IV — traffic prediction (MAE / RMSE, normalised units)",
        &datasets,
        &seeds,
        quick,
    )
}

// -------------------------------------------------------------- Table V

#[allow(clippy::type_complexity)]
fn table5(quick: bool) -> String {
    let days = if quick { 9 } else { 14 };
    // Weather grids run at 16×32 (half the paper's 32×64 per axis) to
    // keep ConvLSTM training tractable on CPU; the dynamics are
    // scale-free.
    let weather = move |variable: WeatherVariable, name: &'static str, seed: u64| {
        let raw = WeatherField::new(variable, seed).with_grid(16, 32).generate(days * 24);
        GridDatasetBuilder::new(raw).name(name).steps_per_day(24).build()
    };
    let seeds: Vec<u64> = if quick { vec![0] } else { vec![0, 1] };
    let datasets: Vec<(&str, Box<dyn Fn(u64) -> StGridDataset>)> = vec![
        (
            "Temperature",
            Box::new(move |s| weather(WeatherVariable::Temperature, "Temperature", s)),
        ),
        (
            "TotalPrecipitation",
            Box::new(move |s| {
                weather(WeatherVariable::TotalPrecipitation, "TotalPrecipitation", s)
            }),
        ),
        (
            "TotalCloudCover",
            Box::new(move |s| weather(WeatherVariable::TotalCloudCover, "TotalCloudCover", s)),
        ),
    ];
    grid_model_table(
        "Table V — weather forecasting (MAE / RMSE, normalised units)",
        &datasets,
        &seeds,
        quick,
    )
}

/// Shared harness for Tables IV and V: every grid model on every dataset,
/// averaged over seeds, reported as `mean ± spread`.
#[allow(clippy::type_complexity)]
fn grid_model_table(
    title: &str,
    datasets: &[(&str, Box<dyn Fn(u64) -> StGridDataset>)],
    seeds: &[u64],
    quick: bool,
) -> String {
    let mut rows = Vec::new();
    for (dataset_name, make_dataset) in datasets {
        let mut mae_cells = Vec::new();
        let mut rmse_cells = Vec::new();
        for model_name in GRID_MODEL_NAMES {
            let mut maes = Vec::new();
            let mut rmses = Vec::new();
            for &seed in seeds {
                let mut dataset = make_dataset(seed);
                set_representation(&mut dataset, model_name);
                let (_, c, h, w) = dataset.dims();
                let model = make_grid_model(model_name, c, h, w, seed.wrapping_add(7));
                let epochs = match (model_name, quick) {
                    (_, true) => 6,
                    ("ConvLSTM", false) => 12,
                    _ => 40,
                };
                let trainer = Trainer::new(paper_train_config(epochs, seed));
                let (train, val, test) = chronological_split(dataset.len());
                trainer.fit_grid(model.as_ref(), &dataset, &train, &val);
                let (mae, rmse) = trainer.evaluate_grid(model.as_ref(), &dataset, &test);
                maes.push(mae);
                rmses.push(rmse);
            }
            let (m_mean, m_spread) = mean_and_spread(&maes);
            let (r_mean, r_spread) = mean_and_spread(&rmses);
            mae_cells.push(format!("{m_mean:.4}±{m_spread:.4}"));
            rmse_cells.push(format!("{r_mean:.4}±{r_spread:.4}"));
        }
        let mut mae_row = vec![dataset_name.to_string(), "MAE".to_string()];
        mae_row.extend(mae_cells);
        rows.push(mae_row);
        let mut rmse_row = vec![String::new(), "RMSE".to_string()];
        rmse_row.extend(rmse_cells);
        rows.push(rmse_row);
    }
    let mut headers = vec!["dataset", "metric"];
    headers.extend(GRID_MODEL_NAMES);
    format!("## {title}\n\n{}", markdown_table(&headers, &rows))
}

// ------------------------------------------------------------- Table VI

fn table6(quick: bool) -> String {
    let per_class = if quick { 8 } else { 30 };
    let scenes = if quick { 24 } else { 64 };
    let scene_size = 32;
    let seeds: Vec<u64> = if quick { vec![0] } else { vec![0, 1, 2] };
    let epochs = if quick { 6 } else { 30 };
    let mut rows = Vec::new();

    // Classification: DeepSAT V2 and SatCNN on EuroSAT and SAT-6.
    for dataset_name in ["EuroSAT", "SAT6"] {
        for model_name in ["DeepSAT V2", "SatCNN"] {
            let mut accs = Vec::new();
            for &seed in &seeds {
                let dataset = match dataset_name {
                    // EuroSAT at 32×32 (paper: 64×64) keeps the 13-band,
                    // 10-class structure at laptop scale.
                    "EuroSAT" => RasterDataset::classification(
                        "EuroSAT", 13, 32, 32, 10, per_class, seed,
                    ),
                    _ => RasterDataset::sat6(per_class * 2, seed),
                };
                let dataset = if model_name == "DeepSAT V2" {
                    dataset.with_additional_features()
                } else {
                    dataset
                };
                let (h, w) = dataset.image_shape();
                let bands = dataset.effective_bands();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(13));
                let model: Box<dyn RasterClassifier> = if model_name == "DeepSAT V2" {
                    Box::new(DeepSatV2::new(
                        bands,
                        h,
                        w,
                        dataset.num_classes(),
                        dataset.feature_len(),
                        &mut rng,
                    ))
                } else {
                    Box::new(SatCnn::new(bands, h, w, dataset.num_classes(), &mut rng))
                };
                let mut config = paper_train_config(epochs, seed);
                config.learning_rate = 2e-3;
                config.batch_size = 8;
                config.gradient_clip = Some(5.0);
                config.early_stopping_patience = Some(8);
                let trainer = Trainer::new(config);
                let (train, val, test) = shuffled_split(dataset.len(), seed);
                trainer.fit_classifier(model.as_ref(), &dataset, &train, &val);
                accs.push(trainer.evaluate_classifier(model.as_ref(), &dataset, &test) * 100.0);
            }
            let (mean, spread) = mean_and_spread(&accs);
            rows.push(vec![
                model_name.to_string(),
                dataset_name.to_string(),
                "Classification".to_string(),
                format!("{mean:.2}±{spread:.2}%"),
            ]);
        }
    }

    // Segmentation: UNet, FCN, UNet++ on 38-Cloud.
    for model_name in ["UNet", "FCN", "UNet++"] {
        let mut accs = Vec::new();
        for &seed in &seeds {
            let dataset = RasterDataset::cloud38(scenes, scene_size, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(29));
            let model: Box<dyn Segmenter> = match model_name {
                "UNet" => Box::new(UNet::new(4, 1, 4, &mut rng)),
                "FCN" => Box::new(Fcn::new(4, 1, 4, &mut rng)),
                _ => Box::new(UNetPlusPlus::new(4, 1, 4, &mut rng)),
            };
            let mut config = paper_train_config(epochs, seed);
            // FCN's stacked transposed convolutions are the most
            // excitable; a slightly lower rate keeps every seed stable.
            config.learning_rate = if model_name == "FCN" { 1.5e-3 } else { 2e-3 };
            config.batch_size = 4;
            config.gradient_clip = Some(5.0);
            config.early_stopping_patience = Some(6);
            let trainer = Trainer::new(config);
            let (train, val, test) = chronological_split(dataset.len());
            trainer.fit_segmenter(model.as_ref(), &dataset, &train, &val);
            accs.push(trainer.evaluate_segmenter(model.as_ref(), &dataset, &test) * 100.0);
        }
        let (mean, spread) = mean_and_spread(&accs);
        rows.push(vec![
            model_name.to_string(),
            "38-Cloud".to_string(),
            "Segmentation".to_string(),
            format!("{mean:.2}±{spread:.2}%"),
        ]);
    }
    format!(
        "## Table VI — raster classification and segmentation accuracy\n\n{}",
        markdown_table(&["model", "dataset", "application", "accuracy"], &rows)
    )
}

// ------------------------------------------------------------ Table VII

fn table7(quick: bool) -> String {
    let days = if quick { 5 } else { 10 };
    let mut rows = Vec::new();

    // Grid models on the Temperature dataset (reduced 16×32 grid).
    let weather = |seed: u64| {
        let raw = WeatherField::new(WeatherVariable::Temperature, seed)
            .with_grid(16, 32)
            .generate(days * 24);
        GridDatasetBuilder::new(raw).name("Temperature").steps_per_day(24).build()
    };
    for model_name in GRID_MODEL_NAMES {
        let mut dataset = weather(0);
        set_representation(&mut dataset, model_name);
        let (_, c, h, w) = dataset.dims();
        let model = make_grid_model(model_name, c, h, w, 7);
        let mut config = paper_train_config(1, 0);
        config.early_stopping_patience = None;
        let trainer = Trainer::new(config);
        let (train, val, _) = chronological_split(dataset.len());
        let report = trainer.fit_grid(model.as_ref(), &dataset, &train, &val);
        rows.push(vec![
            "Temperature".into(),
            "Prediction".into(),
            model_name.to_string(),
            timing_cell(report.mean_epoch_seconds(), report.mean_samples_per_sec()),
        ]);
    }

    // Classification on EuroSAT (32×32 reduced).
    let per_class = if quick { 6 } else { 12 };
    for model_name in ["DeepSAT V2", "SatCNN"] {
        let dataset = RasterDataset::classification("EuroSAT", 13, 32, 32, 10, per_class, 0);
        let dataset = if model_name == "DeepSAT V2" {
            dataset.with_additional_features()
        } else {
            dataset
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model: Box<dyn RasterClassifier> = if model_name == "DeepSAT V2" {
            Box::new(DeepSatV2::new(13, 32, 32, 10, dataset.feature_len(), &mut rng))
        } else {
            Box::new(SatCnn::new(13, 32, 32, 10, &mut rng))
        };
        let mut config = paper_train_config(1, 0);
        config.early_stopping_patience = None;
        let trainer = Trainer::new(config);
        let (train, val, _) = shuffled_split(dataset.len(), 0);
        let report = trainer.fit_classifier(model.as_ref(), &dataset, &train, &val);
        rows.push(vec![
            "EuroSAT".into(),
            "Classification".into(),
            model_name.to_string(),
            timing_cell(report.mean_epoch_seconds(), report.mean_samples_per_sec()),
        ]);
    }

    // Segmentation on 38-Cloud.
    let scenes = if quick { 12 } else { 24 };
    for model_name in ["FCN", "UNet", "UNet++"] {
        let dataset = RasterDataset::cloud38(scenes, 32, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let model: Box<dyn Segmenter> = match model_name {
            "UNet" => Box::new(UNet::new(4, 1, 4, &mut rng)),
            "FCN" => Box::new(Fcn::new(4, 1, 4, &mut rng)),
            _ => Box::new(UNetPlusPlus::new(4, 1, 4, &mut rng)),
        };
        let mut config = paper_train_config(1, 0);
        config.batch_size = 4;
        config.early_stopping_patience = None;
        let trainer = Trainer::new(config);
        let (train, val, _) = chronological_split(dataset.len());
        let report = trainer.fit_segmenter(model.as_ref(), &dataset, &train, &val);
        rows.push(vec![
            "38-Cloud".into(),
            "Segmentation".into(),
            model_name.to_string(),
            timing_cell(report.mean_epoch_seconds(), report.mean_samples_per_sec()),
        ]);
    }
    format!(
        "## Table VII — training time per epoch (seconds)\n\n{}",
        markdown_table(
            &["dataset", "application", "model", "s/epoch (samples/s)"],
            &rows,
        )
    )
}

// -------------------------------------------------------------- Fig. 9

fn fig9(quick: bool, threads: Option<usize>) -> String {
    let per_class = if quick { 4 } else { 8 };
    let epoch_time = |bands: usize, size: usize, device: Device| -> f64 {
        let dataset = RasterDataset::classification("sweep", bands, size, size, 10, per_class, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let model = SatCnn::new(bands, size, size, 10, &mut rng);
        let mut config = paper_train_config(1, 0);
        config.early_stopping_patience = None;
        // The trainer pins every fit/evaluate call to its configured
        // device, so the device must go through the config — an ambient
        // `with_device` wrapper would be overridden inside the trainer.
        config.device = device;
        let trainer = Trainer::new(config);
        let (train, val, _) = shuffled_split(dataset.len(), 0);
        trainer
            .fit_classifier(&model, &dataset, &train, &val)
            .mean_epoch_seconds()
    };
    let parallel = threads.map_or_else(Device::parallel, Device::Parallel);
    let mut rows_by_bands = Vec::new();
    for bands in [3usize, 5, 8, 10, 13] {
        let cpu = epoch_time(bands, 64, Device::Cpu);
        let gpu = epoch_time(bands, 64, parallel);
        rows_by_bands.push(vec![
            format!("{bands}"),
            format!("{cpu:.3}"),
            format!("{gpu:.3}"),
            format!("{:.1}x", cpu / gpu.max(1e-9)),
        ]);
    }
    let mut grid_rows = Vec::new();
    for size in [28usize, 32, 64] {
        let cpu = epoch_time(3, size, Device::Cpu);
        let gpu = epoch_time(3, size, parallel);
        grid_rows.push(vec![
            format!("{size}x{size}"),
            format!("{cpu:.3}"),
            format!("{gpu:.3}"),
            format!("{:.1}x", cpu / gpu.max(1e-9)),
        ]);
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env_note = if host_cores < parallel.threads() {
        format!(
            "\n\n> **Environment caveat:** this run executed on a host exposing only \
             {host_cores} core(s), so the {}-thread \"GPU\" column oversubscribes a \
             single core and measures dispatch overhead, not scaling — expect ~1x \
             speedups above. On a multi-core host the same command shows the parallel \
             speedup; the `kernel_regression` gate enforces it whenever ≥ 2 cores are \
             available. The kernel-level speedup that *is* visible on any host is the \
             blocked SIMD matmul ({} tier) vs the seed's naive loops — see \
             DESIGN.md §11.",
            parallel.threads(),
            geotorch_tensor::ops::matmul::simd_kernel_name(),
        )
    } else {
        format!(
            "\n\n_Host: {host_cores} cores, matmul SIMD tier `{}`._",
            geotorch_tensor::ops::matmul::simd_kernel_name()
        )
    };
    format!(
        "## Figure 9 — epoch time vs bands and grid shape (SatCNN)\n\n\
         \"CPU\" = serial kernels; \"GPU\" = data-parallel kernels over {} threads \
         (the reproduction's GPU substitute).\n\n### Varying spectral bands (64×64 grid)\n\n{}\n\
         ### Varying grid shape (3 bands)\n\n{}{}",
        parallel.threads(),
        markdown_table(&["bands", "CPU s/epoch", "\"GPU\" s/epoch", "speedup"], &rows_by_bands),
        markdown_table(&["grid", "CPU s/epoch", "\"GPU\" s/epoch", "speedup"], &grid_rows),
        env_note,
    )
}

// ------------------------------------------------------------ Table VIII

fn table8(quick: bool) -> String {
    let per_class = if quick { 3 } else { 10 };
    let epochs = if quick { 2 } else { 6 };
    let base_dir = std::env::temp_dir().join(format!("geotorch_table8_{}", std::process::id()));
    let mut rows = Vec::new();
    for count in 1..=5usize {
        // A chain of `count` normalized-difference appends over distinct
        // band pairs.
        let make_chain = || {
            let mut chain = Compose::new();
            for k in 0..count {
                chain = chain.add(AppendNormalizedDifferenceIndex::new(k % 13, (k + 1) % 13));
            }
            chain
        };

        // (a) Train with transforms applied on the fly.
        let dataset = RasterDataset::classification("t8", 13, 64, 64, 6, per_class, 1)
            .with_transform(make_chain());
        let bands = dataset.effective_bands();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let model = SatCnn::new(bands, 64, 64, 6, &mut rng);
        let mut config = paper_train_config(epochs, 0);
        config.early_stopping_patience = None;
        let trainer = Trainer::new(config);
        let (train, val, _) = shuffled_split(dataset.len(), 0);
        let on_the_fly = median_time(3, || {
            trainer.fit_classifier(&model, &dataset, &train, &val);
        });
        // Directly measured per-run transform cost inside training
        // (cumulative counter divided by the 3 timing repetitions).
        let in_train_transform = dataset.transform_seconds() / 3.0;

        // (b) Pre-transform offline (load → transform → write, Listing 9).
        let raw = RasterDataset::classification("t8", 13, 64, 64, 6, per_class, 1);
        let labels: Vec<usize> = (0..raw.len()).map(|i| raw.label(i)).collect();
        let images: Vec<geotorch_raster::Raster> = (0..raw.len())
            .map(|i| {
                let (t, _, _) = raw.get(i);
                geotorch_raster::Raster::from_tensor(&t).expect("tensor image")
            })
            .collect();
        let in_dir = base_dir.join(format!("in_{count}"));
        let out_dir = base_dir.join(format!("out_{count}"));
        RasterProcessing::write_geotiff_images(&RasterBatch::from_rasters(images), &in_dir)
            .expect("write raw images");
        let start = Instant::now();
        RasterProcessing::process_directory(&in_dir, &out_dir, &make_chain())
            .expect("offline pipeline");
        let pretransform = start.elapsed().as_secs_f64();

        // (c) Train on the pre-transformed images (no per-access work).
        let batch = RasterProcessing::load_geotiff_images(&out_dir).expect("load transformed");
        let dataset = RasterDataset::from_images("t8-pre", batch.rasters, labels, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let model = SatCnn::new(bands, 64, 64, 6, &mut rng);
        let trainer = Trainer::new({
            let mut c = paper_train_config(epochs, 0);
            c.early_stopping_patience = None;
            c
        });
        let pre_trained = median_time(3, || {
            trainer.fit_classifier(&model, &dataset, &train, &val);
        });

        rows.push(vec![
            format!("{count}"),
            format!("{on_the_fly:.2}"),
            format!("{in_train_transform:.3}"),
            format!("{pre_trained:.2}"),
            format!("{pretransform:.2}"),
            format!("{:.2}", pre_trained + pretransform),
        ]);
    }
    std::fs::remove_dir_all(&base_dir).ok();
    format!(
        "## Table VIII — on-the-fly vs offline raster transformation (seconds)\n\n{}",
        markdown_table(
            &[
                "transforms",
                "train w/ transforms",
                "(transform s in train)",
                "train w/ pretransforms",
                "pretransform",
                "pretransform total"
            ],
            &rows
        )
    )
}

/// Median wall-clock seconds of `repeats` runs of `f` (absorbs scheduler
/// noise on small timing cells).
fn median_time(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    times[repeats / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_spread_values() {
        let (mean, spread) = mean_and_spread(&[1.0, 2.0, 3.0]);
        assert_eq!(mean, 2.0);
        assert_eq!(spread, 1.0);
        let (m, s) = mean_and_spread(&[5.0]);
        assert_eq!((m, s), (5.0, 0.0));
        assert!(mean_and_spread(&[]).0.is_nan());
    }

    #[test]
    fn timing_cell_format() {
        assert_eq!(timing_cell(0.5, 123.45), "0.500 (123.5/s)");
    }

    #[test]
    fn markdown_table_layout() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[3], "| 3 | 4 |");
    }

    #[test]
    fn model_factory_builds_all_names() {
        for name in GRID_MODEL_NAMES {
            let m = make_grid_model(name, 2, 8, 8, 0);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn representation_matches_model() {
        let mut ds = StGridDataset::taxi_nyc_stdn(21, 0);
        set_representation(&mut ds, "ConvLSTM");
        assert!(matches!(
            ds.representation(),
            geotorch_datasets::Representation::Sequential { .. }
        ));
        set_representation(&mut ds, "DeepSTN+");
        assert!(matches!(
            ds.representation(),
            geotorch_datasets::Representation::Periodical { .. }
        ));
    }

    #[test]
    fn counting_allocator_tracks_peak() {
        // Exercise the bookkeeping directly (not the installed global
        // allocator).
        let counter = CountingAllocator::new();
        counter.record_alloc(100);
        counter.record_alloc(200);
        counter.record_dealloc(100);
        counter.record_alloc(50);
        assert_eq!(counter.peak(), 300);
        assert_eq!(counter.reset_peak(), 250);
        assert_eq!(counter.peak(), 250);
    }
}
