//! Service-level observability: allocation-free latency histograms and the
//! [`ServiceStats`] snapshot in the workspace's hand-rolled JSON
//! conventions (schema `hjsvd-serve-stats/v1`).

use crate::job::{Priority, PRIORITY_CLASSES};
use std::fmt::Write as _;

/// Number of power-of-two microsecond buckets in a [`LatencyHistogram`].
/// Bucket `k` covers latencies up to `2^k` µs; the last bucket
/// (`2^39` µs ≈ 6.4 days) is a catch-all, so recording can never index out
/// of range.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Fixed-size log₂-bucketed latency histogram.
///
/// Recording touches one array slot and three scalars — no allocation — so
/// the serving loop's steady state stays allocation-free while still
/// answering percentile queries. Buckets are powers of two microseconds;
/// percentiles are therefore upper bounds with ≤ 2× resolution, which is
/// plenty for saturation curves.
#[derive(Debug, Clone, Copy)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_seconds: f64,
    max_seconds: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_seconds: 0.0,
            max_seconds: 0.0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one latency observation.
    pub fn record(&mut self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds > 0.0 { seconds } else { 0.0 };
        let micros = seconds * 1e6;
        let bucket = if micros <= 1.0 {
            0
        } else {
            (micros.log2().ceil() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_seconds += seconds;
        if seconds > self.max_seconds {
            self.max_seconds = seconds;
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_seconds / self.count as f64
        }
    }

    /// Largest latency recorded, in seconds.
    pub fn max_seconds(&self) -> f64 {
        self.max_seconds
    }

    /// Upper-bound latency (seconds) of the `q`-quantile (`0.0 ≤ q ≤ 1.0`),
    /// with ≤ 2× bucket resolution. Returns 0 when empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket k is 2^k µs.
                return (1u64 << k.min(62)) as f64 * 1e-6;
            }
        }
        self.max_seconds
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_seconds += other.sum_seconds;
        if other.max_seconds > self.max_seconds {
            self.max_seconds = other.max_seconds;
        }
    }

    fn write_json(&self, out: &mut String) {
        write!(
            out,
            concat!(
                "{{\"count\":{},\"mean_s\":{:?},\"p50_s\":{:?},",
                "\"p90_s\":{:?},\"p99_s\":{:?},\"max_s\":{:?}}}"
            ),
            self.count,
            finite(self.mean_seconds()),
            finite(self.quantile_seconds(0.50)),
            finite(self.quantile_seconds(0.90)),
            finite(self.quantile_seconds(0.99)),
            finite(self.max_seconds),
        )
        .expect("write to String");
    }
}

/// Clamp non-finite values to 0 so every emitted number is valid JSON.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Point-in-time snapshot of a running service, in the same hand-rolled
/// JSON conventions as [`hj_core::SolveStats`].
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Jobs queued (admitted, not yet dispatched) at snapshot time.
    pub queue_depth: usize,
    /// Jobs currently executing on workers at snapshot time.
    pub running: usize,
    /// Jobs that passed admission control.
    pub admitted: u64,
    /// Submissions rejected because the queue was full.
    pub rejected_queue_full: u64,
    /// Submissions rejected by a per-tenant in-flight cap.
    pub rejected_tenant_cap: u64,
    /// Submissions rejected because the service was draining.
    pub rejected_draining: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that ended with a solve fault or input error.
    pub faulted: u64,
    /// Jobs terminated by drain-time cancellation without ever running.
    pub cancelled_at_drain: u64,
    /// Admission-to-completion latency per priority class, indexed by
    /// [`Priority::index`].
    pub latency: [LatencyHistogram; PRIORITY_CLASSES],
}

impl ServiceStats {
    /// Total submissions rejected, across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_tenant_cap + self.rejected_draining
    }

    /// Serialize as one JSON object, schema `hjsvd-serve-stats/v1`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        write!(
            s,
            concat!(
                "{{\"schema\":\"hjsvd-serve-stats/v1\",",
                "\"workers\":{},\"queue_capacity\":{},\"queue_depth\":{},",
                "\"running\":{},\"admitted\":{},\"rejected_queue_full\":{},",
                "\"rejected_tenant_cap\":{},\"rejected_draining\":{},",
                "\"completed\":{},\"faulted\":{},",
                // A job completes on its first outcome, so nothing is ever
                // retried; the key stays because perfbench reads it.
                "\"retries\":0,",
                "\"cancelled_at_drain\":{},\"latency\":{{"
            ),
            self.workers,
            self.queue_capacity,
            self.queue_depth,
            self.running,
            self.admitted,
            self.rejected_queue_full,
            self.rejected_tenant_cap,
            self.rejected_draining,
            self.completed,
            self.faulted,
            self.cancelled_at_drain,
        )
        .expect("write to String");
        for i in 0..PRIORITY_CLASSES {
            if i > 0 {
                s.push(',');
            }
            let class = Priority::from_index(i).expect("class index in range");
            write!(s, "\"{}\":", class.name()).expect("write to String");
            self.latency[i].write_json(&mut s);
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bound_observations() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(0.001); // 1 ms
        }
        for _ in 0..10 {
            h.record(0.1); // 100 ms
        }
        assert_eq!(h.count(), 100);
        // p50 upper bound is within 2× of 1 ms; p99 covers the 100 ms tail.
        assert!(h.quantile_seconds(0.5) >= 0.001 && h.quantile_seconds(0.5) <= 0.002049);
        assert!(h.quantile_seconds(0.99) >= 0.1);
        assert!((h.max_seconds() - 0.1).abs() < 1e-12);
        assert!(h.mean_seconds() > 0.001 && h.mean_seconds() < 0.1);
    }

    #[test]
    fn histogram_handles_edge_inputs() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_seconds(0.5), 0.0);
        h.record(0.0);
        h.record(-1.0); // clamped
        h.record(f64::NAN); // clamped
        h.record(1e9); // far future; lands in the catch-all bucket
        assert_eq!(h.count(), 4);
        assert!(h.quantile_seconds(1.0) > 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(0.001);
        b.record(0.010);
        b.record(0.010);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.max_seconds() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn stats_json_is_flat_and_complete() {
        let mut stats = ServiceStats {
            workers: 4,
            queue_capacity: 64,
            queue_depth: 3,
            running: 2,
            admitted: 100,
            rejected_queue_full: 5,
            rejected_tenant_cap: 2,
            rejected_draining: 1,
            completed: 90,
            faulted: 4,
            cancelled_at_drain: 1,
            latency: [LatencyHistogram::new(); PRIORITY_CLASSES],
        };
        stats.latency[0].record(0.002);
        assert_eq!(stats.rejected(), 8);
        let j = stats.to_json();
        assert!(j.starts_with("{\"schema\":\"hjsvd-serve-stats/v1\","), "{j}");
        for key in [
            "\"workers\":4",
            "\"queue_capacity\":64",
            "\"queue_depth\":3",
            "\"running\":2",
            "\"admitted\":100",
            "\"rejected_queue_full\":5",
            "\"rejected_tenant_cap\":2",
            "\"rejected_draining\":1",
            "\"completed\":90",
            "\"faulted\":4",
            "\"retries\":0",
            "\"cancelled_at_drain\":1",
            "\"interactive\":{\"count\":1",
            "\"batch\":{\"count\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains(",}") && !j.contains(",]"), "{j}");
    }
}
