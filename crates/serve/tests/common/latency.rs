//! Request-latency digest for the load tests: linear-interpolation
//! percentiles over per-request wall-clock samples.

/// Linear-interpolation percentile (`p` in `[0, 100]`) of an unsorted
/// sample. Returns NaN for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Request-latency digest (milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Number of requests observed.
    pub count: usize,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

impl LatencySummary {
    /// Digest a sample of per-request latencies given in seconds.
    pub fn from_secs(latencies: &[f64]) -> LatencySummary {
        let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
        let mean = if ms.is_empty() {
            f64::NAN
        } else {
            ms.iter().sum::<f64>() / ms.len() as f64
        };
        LatencySummary {
            count: ms.len(),
            mean_ms: mean,
            p50_ms: percentile(&ms, 50.0),
            p95_ms: percentile(&ms, 95.0),
            p99_ms: percentile(&ms, 99.0),
        }
    }
}

#[test]
fn percentile_interpolates() {
    let values = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&values, 0.0), 1.0);
    assert_eq!(percentile(&values, 100.0), 4.0);
    assert_eq!(percentile(&values, 50.0), 2.5);
    assert!(percentile(&[], 50.0).is_nan());
    assert_eq!(percentile(&[7.0], 99.0), 7.0);
}

#[test]
fn latency_summary_digest() {
    // 100 latencies of 1ms..=100ms.
    let secs: Vec<f64> = (1..=100).map(|i| i as f64 / 1e3).collect();
    let s = LatencySummary::from_secs(&secs);
    assert_eq!(s.count, 100);
    assert!((s.mean_ms - 50.5).abs() < 1e-9);
    assert!((s.p50_ms - 50.5).abs() < 1e-9);
    assert!(s.p95_ms > 94.0 && s.p95_ms < 96.1);
    assert!(s.p99_ms > 98.0 && s.p99_ms <= 100.0);
}
