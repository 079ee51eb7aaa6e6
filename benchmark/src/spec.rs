//! The names the benchmark emits: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same, and `check` fails when they differ.

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

pub const WORKLOADS: [&str; 6] = [
    "prep_trips",
    "train_grid",
    "train_stream",
    "serve_predict",
    "serve_tiles",
    "pipeline",
];

/// Every workload reports every one of these from an untraced run, with
/// the share of the parent's median by which it may get worse.
pub const END_TO_END: [(Metric, f64); 5] = [
    (
        Metric {
            name: "work_per_s",
            unit: "1/s",
            better: "higher",
        },
        0.25,
    ),
    (
        Metric {
            name: "op_p50_ms",
            unit: "ms",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "op_p95_ms",
            unit: "ms",
            better: "lower",
        },
        0.25,
    ),
    (
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            better: "lower",
        },
        0.05,
    ),
    (
        Metric {
            name: "setup_s",
            unit: "s",
            better: "lower",
        },
        0.25,
    ),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// Every workload reports every one of these from a traced run; a layer
/// a workload does not exercise reads 0. A name ending in `_s` whose stem
/// is a span name is filled from the spans: mean self seconds per call.
pub const PER_LAYER: [Metric; 68] = [
    lower("preprocess.trips_dataframe_s", "s"),
    lower("dataframe.repartition_s", "s"),
    lower("preprocess.st_grid_array_s", "s"),
    lower("preprocess.add_points_s", "s"),
    lower("preprocess.st_grid_frame_s", "s"),
    lower("preprocess.to_tensor_s", "s"),
    higher("preprocess.naive_ratio", "ratio"),
    lower("dataframe.spill_write_s", "s"),
    lower("dataframe.spill_bytes", "bytes"),
    lower("dataframe.spill_read_s", "s"),
    lower("converter.format_partition_s", "s"),
    lower("converter.batches_s", "s"),
    lower("converter.loader_wait_s", "s"),
    lower("converter.loader_wait_share", "share"),
    lower("datasets.batch_s", "s"),
    lower("datasets.build_s", "s"),
    lower("datasets.sampler_s", "s"),
    lower("nn.forward_s", "s"),
    lower("nn.backward_s", "s"),
    lower("nn.optim_s", "s"),
    lower("core.fit_unattributed_share", "share"),
    lower("core.replica_overhead_share", "share"),
    lower("core.fit_grid_s", "s"),
    lower("core.finetune_s", "s"),
    lower("core.checkpoint_save_s", "s"),
    lower("core.checkpoint_bytes", "bytes"),
    lower("core.checkpoint_load_s", "s"),
    lower("core.delta_publish_s", "s"),
    lower("core.delta_bytes", "bytes"),
    lower("serve.sync_s", "s"),
    lower("serve.sync_fetched_bytes", "bytes"),
    lower("serve.start_s", "s"),
    lower("serve.shutdown_s", "s"),
    lower("serve.predict_loop_s", "s"),
    lower("pipeline.pass_s", "s"),
    lower("serve.client_serialize_ms", "ms"),
    lower("serve.client_parse_ms", "ms"),
    lower("serve.http_wait_ms", "ms"),
    lower("serve.http_p99_ms", "ms"),
    lower("serve.embedded_p50_ms", "ms"),
    lower("serve.http_overhead_ms", "ms"),
    lower("serve.batch_wait_ms", "ms"),
    lower("models.forward_b1_ms", "ms"),
    lower("models.forward_b8_ms", "ms"),
    lower("serve.shed_count", "count"),
    lower("serve.http_non200", "count"),
    lower("serve.tile_predict_ms", "ms"),
    lower("raster.read_window_s", "s"),
    lower("raster.mosaic_add_s", "s"),
    lower("raster.mosaic_finalize_s", "s"),
    lower("serve.mosaic_unattributed_share", "share"),
    higher("tensor.matmul_gflops", "GFLOP/s"),
    higher("tensor.conv3x3_gflops", "GFLOP/s"),
    lower("tensor.pool_miss", "count"),
    lower("tensor.pool_high_water_mb", "MB"),
    lower("trace.overhead_share", "share"),
    higher("trace.coverage_share", "share"),
    higher("run.op_count", "count"),
    lower("share.dataframe", "share"),
    lower("share.preprocess", "share"),
    lower("share.converter", "share"),
    lower("share.datasets", "share"),
    lower("share.nn", "share"),
    lower("share.core", "share"),
    lower("share.serve", "share"),
    lower("share.raster", "share"),
    lower("share.models", "share"),
    lower("share.tensor", "share"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// One line per entry of a `BENCHMARK.json` list: its name, then its
/// unit, direction and bound where the list has them.
fn declared(doc: &Value, key: &str) -> Vec<String> {
    let text = |entry: &Value, field: &str| {
        entry
            .get(field)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|entry| match key {
            "workloads" => text(entry, "name"),
            _ => describe(
                &text(entry, "name"),
                &text(entry, "unit"),
                &text(entry, "better"),
                entry.get("bound").and_then(Value::as_f64),
            ),
        })
        .collect()
}

fn describe(name: &str, unit: &str, better: &str, bound: Option<f64>) -> String {
    match bound {
        Some(bound) => format!("{name} [{unit}] {better} bound {bound}"),
        None => format!("{name} [{unit}] {better}"),
    }
}

/// Every way `BENCHMARK.json` and the tables above disagree.
pub fn differences(benchmark_json: &str) -> Vec<String> {
    let doc: Value = match serde_json::from_str(benchmark_json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let emitted = [
        (
            "workloads",
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>(),
        ),
        (
            "end_to_end",
            END_TO_END
                .iter()
                .map(|(m, b)| describe(m.name, m.unit, m.better, Some(*b)))
                .collect(),
        ),
        (
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| describe(m.name, m.unit, m.better, None))
                .collect(),
        ),
    ];
    let mut out = Vec::new();
    for (key, emitted) in emitted {
        let declared = declared(&doc, key);
        for line in declared.iter().filter(|line| !emitted.contains(line)) {
            out.push(format!(
                "{key}: `{line}` is in BENCHMARK.json but is not emitted"
            ));
        }
        for line in emitted.iter().filter(|line| !declared.contains(line)) {
            out.push(format!(
                "{key}: `{line}` is emitted but is not in BENCHMARK.json"
            ));
        }
    }
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|(m, _)| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        let valid = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !valid {
            out.push(format!(
                "name `{name}` is not made of at most 64 letters, digits, `_`, `.` and `-`"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.extend(WORKLOADS);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn a_missing_metric_is_reported() {
        let diffs = differences(r#"{"workloads": [], "end_to_end": [], "per_layer": []}"#);
        assert!(diffs
            .iter()
            .any(|d| d == "workloads: `prep_trips` is emitted but is not in BENCHMARK.json"));
        assert!(diffs
            .iter()
            .any(|d| d.contains("`setup_s [s] lower bound 0.25` is emitted")));
    }
}
