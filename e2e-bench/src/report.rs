//! Result formatting and the small statistics the metrics need.

use std::fmt::Write as _;

/// One named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The result line: the last line a run prints on standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// A JSON object of string/number fields, for the run's context line.
pub fn info_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string of an identifier, which holds no quote or backslash.
pub fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// Every digit as measured; JSON has no NaN or infinity, and every ratio
/// here guards its zero base, so a non-finite value is a bug.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median in seconds, as the mean of the middle two for an even count.
pub fn median_secs(durations: &[std::time::Duration]) -> f64 {
    median(durations.iter().map(|d| d.as_nanos() as u64)) as f64 / 1e9
}

/// The `q` percentile of each pass's item times (consecutive chunks of
/// `pass_len`), then the median over the passes, in ms. A short stall of
/// the host lifts the tail of the pass it falls in, and the median over
/// passes leaves that pass out.
pub fn pass_percentile_ms(item_ns: &[u64], pass_len: usize, q: f64) -> f64 {
    median(item_ns.chunks(pass_len).map(|pass| percentile(pass, q))) as f64 / 1e6
}

/// The median, as the mean of the middle two for an even count.
fn median(values: impl Iterator<Item = u64>) -> u64 {
    let mut sorted: Vec<u64> = values.collect();
    assert!(!sorted.is_empty(), "median of no values");
    sorted.sort_unstable();
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a 64: fingerprints that must match across runs and machines.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// A field followed by a separator byte that no UTF-8 text contains,
    /// so adjacent fields cannot run together.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(bytes).bytes(&[0xff])
    }

    pub fn hex(self) -> String {
        format!("\"{:016x}\"", self.0)
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_samples_beyond_p99_of_a_thousand() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&samples, 0.99), 990);
        assert_eq!(percentile(&samples, 0.5), 500);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_an_even_count_is_the_middle_mean() {
        let secs = |v: &[u64]| -> Vec<std::time::Duration> {
            v.iter()
                .map(|&s| std::time::Duration::from_secs(s))
                .collect()
        };
        assert_eq!(median_secs(&secs(&[30, 20])), 25.0);
        assert_eq!(median_secs(&secs(&[3, 1, 2])), 2.0);
    }

    #[test]
    fn pass_percentiles_take_the_median_over_passes() {
        // Three passes of two items; the second pass has a stalled item.
        let ns = [
            1_000_000, 2_000_000, 1_000_000, 90_000_000, 3_000_000, 4_000_000,
        ];
        assert_eq!(pass_percentile_ms(&ns, 2, 0.99), 4.0);
        assert_eq!(pass_percentile_ms(&ns, 2, 0.5), 1.0);
        assert_eq!(pass_percentile_ms(&ns[..2], 2, 0.99), 2.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("items_per_s", 812.25, "1/s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"items_per_s\": {\"value\": 812.25, \"unit\": \"1/s\"}}}"
        );
    }
}
