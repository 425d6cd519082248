//! Server-local counters and a log-bucketed latency histogram.
//!
//! Kept separate from the global [`cbsp_trace`] collector on purpose:
//! these counters describe *this server instance* (admission decisions,
//! turn waits, request latency) and must work even when tracing is
//! disabled, while `cbsp_trace` aggregates whatever pipeline work runs
//! in the process. `GET /metrics` surfaces both side by side.

use crate::protocol::obj;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds, so the top bucket starts at ~34 s.
const BUCKETS: usize = 36;

/// A lock-free power-of-two histogram of microsecond samples. Quantile
/// estimates return the upper bound of the containing bucket, i.e. they
/// are conservative to within a factor of two — plenty for the
/// "did p95 regress 10x" question `/metrics` exists to answer.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one sample of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (63 - u64::leading_zeros(us.max(1)) as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) in milliseconds, or 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i: 2^(i+1) µs.
                return (1u64 << (i + 1).min(63)) as f64 / 1000.0;
            }
        }
        (1u64 << BUCKETS) as f64 / 1000.0
    }
}

/// All serve-side counters, updated by connection threads.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests received (every parsed frame, including rejected ones).
    pub requests: AtomicU64,
    /// Requests that joined an identical admitted request instead of
    /// executing again.
    pub singleflight_hits: AtomicU64,
    /// Requests rejected because `max_inflight` requests were admitted.
    pub overloaded: AtomicU64,
    /// Requests that hit their deadline (waiting for their turn or at
    /// a stage boundary).
    pub timeouts: AtomicU64,
    /// Total time admitted requests waited for their turn.
    pub queue_wait_us: AtomicU64,
    /// End-to-end request latency (parse to response), µs buckets.
    pub latency: Histogram,
    per_method: Mutex<BTreeMap<String, u64>>,
    per_error: Mutex<BTreeMap<String, u64>>,
}

impl ServeMetrics {
    /// Counts a request of `method`.
    pub fn count_request(&self, method: &str) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut map = self.per_method.lock().expect("metrics lock");
        *map.entry(method.to_string()).or_insert(0) += 1;
    }

    /// Counts an error response with the given code.
    pub fn count_error(&self, code: &str) {
        let mut map = self.per_error.lock().expect("metrics lock");
        *map.entry(code.to_string()).or_insert(0) += 1;
    }

    /// Renders the `serve` section of `GET /metrics`. `queue_depth`
    /// (requests waiting for a turn) and `executing` are sampled by the
    /// caller under the admission lock.
    pub fn to_value(&self, queue_depth: u64, executing: u64, draining: bool) -> Value {
        let load = |a: &AtomicU64| Value::UInt(a.load(Ordering::Relaxed));
        let map_value = |m: &Mutex<BTreeMap<String, u64>>| {
            Value::Object(
                m.lock()
                    .expect("metrics lock")
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            )
        };
        obj(vec![
            ("requests", load(&self.requests)),
            ("by_method", map_value(&self.per_method)),
            ("errors_by_code", map_value(&self.per_error)),
            ("singleflight_hits", load(&self.singleflight_hits)),
            ("overloaded", load(&self.overloaded)),
            ("timeouts", load(&self.timeouts)),
            ("queue_depth", Value::UInt(queue_depth)),
            ("executing", Value::UInt(executing)),
            ("draining", Value::Bool(draining)),
            (
                "queue_wait_ms_total",
                Value::Float(self.queue_wait_us.load(Ordering::Relaxed) as f64 / 1000.0),
            ),
            (
                "latency_ms",
                obj(vec![
                    ("count", Value::UInt(self.latency.count())),
                    ("p50", Value::Float(self.latency.quantile_ms(0.50))),
                    ("p95", Value::Float(self.latency.quantile_ms(0.95))),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record_us(1_000); // ~1 ms
        }
        h.record_us(1_000_000); // ~1 s straggler
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        assert!((1.0..=2.048).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile_ms(0.95);
        assert!(p95 <= 2.048, "p95 = {p95}");
        let p100 = h.quantile_ms(1.0);
        assert!(p100 >= 1_000.0, "p100 = {p100}");
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ms(0.95), 0.0);
    }

    #[test]
    fn metrics_render_without_panicking() {
        let m = ServeMetrics::default();
        m.count_request("ping");
        m.count_error("bad_request");
        let v = m.to_value(2, 1, false);
        let text = serde_json::to_string(&v).expect("serializes");
        assert!(text.contains("\"requests\":1"));
        assert!(text.contains("\"queue_depth\":2"));
    }
}
