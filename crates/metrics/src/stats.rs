//! Experiment statistics following the paper's methodology (§4).

/// Geometric mean (0 for an empty slice), used to average across instances so
/// that every instance has the same influence. Non-positive values are
/// clamped to a small positive constant, mirroring the usual treatment of
/// zero-cost instances in partitioning papers.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The paper's "improvement over" metric: `(σ_B / σ_A − 1) · 100 %`, i.e. how
/// much *better* algorithm A is than baseline B when lower values are better.
pub fn improvement_percent(value_a: f64, baseline_b: f64) -> f64 {
    (baseline_b / value_a.max(1e-9) - 1.0) * 100.0
}

/// Speedup of A over B: `time_B / time_A`.
pub fn speedup(time_a: f64, time_b: f64) -> f64 {
    time_b / time_a.max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_handles_zero_values() {
        let g = geometric_mean(&[0.0, 100.0]);
        assert!(g.is_finite());
        assert!(g >= 0.0);
    }

    #[test]
    fn improvement_over_matches_paper_definition() {
        // A cuts 100 edges, B cuts 200: A improves 100 % over B.
        assert!((improvement_percent(100.0, 200.0) - 100.0).abs() < 1e-9);
        // A cuts 200, B cuts 100: A is 50 % worse.
        assert!((improvement_percent(200.0, 100.0) + 50.0).abs() < 1e-9);
        // Equal values → 0 %.
        assert!(improvement_percent(5.0, 5.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_definition() {
        assert!((speedup(1.0, 10.0) - 10.0).abs() < 1e-12);
        assert!((speedup(10.0, 1.0) - 0.1).abs() < 1e-12);
    }
}
