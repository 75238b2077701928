//! Order statistics and the metric list a run prints.

/// Nearest-rank quantile of `values` (`q` in `0..=1`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` without their lowest and highest tenth (nearest
/// rank); 0 when empty. Verify times are a mix of the host cores' speeds:
/// the mean follows the mix smoothly where a median jumps between the
/// cores, and the trim drops the rare call that lost its core.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Mean per sample of the per-protocol trimmed means of `(protocol,
/// value)` samples, each protocol weighted by its sample count, so that
/// protocols with different costs are each trimmed on their own.
pub fn per_protocol_mean(samples: &[(usize, f64)]) -> f64 {
    let protocols = samples.iter().map(|s| s.0 + 1).max().unwrap_or(0);
    let total: f64 = (0..protocols)
        .map(|p| {
            let v: Vec<f64> = samples.iter().filter(|s| s.0 == p).map(|s| s.1).collect();
            trimmed_mean(&v) * v.len() as f64
        })
        .sum();
    total / samples.len().max(1) as f64
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest ladder percentile with at least ten samples beyond it
/// among `n` samples (50 when even the 75th has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| {
            let at = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(at) >= 10
        })
        .unwrap_or(50.0)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The `metrics` object of the result line. Values print with Rust's
    /// shortest round-trip formatting, so no measured digit is dropped.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
                let v = if value.is_finite() { *value + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The simulated-device metrics, in A100-model cycles: deterministic for
/// a given workload, so any change is a change of modelled behaviour.
pub fn add_sim(m: &mut Metrics, proofs: usize, span_cycles: u64, latency_cycles: &[u64]) {
    let kcycles: Vec<f64> = latency_cycles.iter().map(|&c| c as f64 / 1e3).collect();
    m.add(
        "sim_proofs_per_mcycle",
        proofs as f64 * 1e6 / span_cycles.max(1) as f64,
        "1/Mcycle",
    );
    m.add("sim_latency_p50_kcycles", median(&kcycles), "kcycles");
    m.add(
        "sim_latency_p95_kcycles",
        quantile(&kcycles, 0.95),
        "kcycles",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_each_side() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), (2..=9).map(f64::from).sum::<f64>() / 8.0);
        assert_eq!(trimmed_mean(&[3.0, 5.0]), 4.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn per_protocol_means_are_count_weighted() {
        let v = [(0, 1.0), (0, 9.0), (0, 2.0), (1, 10.0)];
        assert_eq!(per_protocol_mean(&v), (3.0 * 4.0 + 10.0) / 4.0);
        assert_eq!(per_protocol_mean(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(256), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(20000), 99.9);
        assert_eq!(tail_percentile(64), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
    }
}
