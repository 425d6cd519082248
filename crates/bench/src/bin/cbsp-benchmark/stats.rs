//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median and its tail: the highest
//! percentile of [`TAIL_LADDER`] that still has at least
//! [`MIN_BEYOND_TAIL`] samples beyond it, so a reported tail is never
//! one or two stragglers. Repetitions the hypervisor stole CPU time
//! from are left out ([`Steal`], [`calm`]).

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `q`-quantile of `values` by linear interpolation between the
/// closest ranks (Hyndman–Fan type 7). `values` need not be sorted.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest ladder percentile with at least [`MIN_BEYOND_TAIL`]
/// of `n` samples beyond it; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    let pct = TAIL_LADDER
        .into_iter()
        .find(|pct| n * (100 - pct) >= MIN_BEYOND_TAIL * 100)
        .unwrap_or(50);
    pct as f64 / 100.0
}

/// The latency at [`tail_percentile`] of `values`.
pub fn tail(values: &[f64]) -> f64 {
    quantile(values, tail_percentile(values.len()))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Steal share up to which a repetition counts as calm.
pub const CALM_STEAL: f64 = 0.01;

/// Clock ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// From the text of `/proc/stat`: steal ticks so far summed over the
/// machine's CPUs, and the number of CPUs.
fn parse_steal(stat: &str) -> Option<(f64, f64)> {
    let mut lines = stat.lines();
    // cpu user nice system idle iowait irq softirq steal ...
    let steal = lines.next()?.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = lines
        .filter(|l| {
            l.strip_prefix("cpu")
                .is_some_and(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        })
        .count();
    (cpus > 0).then_some((steal, cpus as f64))
}

fn read_steal() -> Option<(f64, f64)> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Measures steal over a stretch of work: the CPU time the hypervisor
/// gave to other guests while this machine's CPUs wanted to run. On a
/// shared host it comes in bursts that slow a repetition by a third or
/// more, and nothing the benchmark does can be told apart from it.
pub struct Steal {
    start: Option<(f64, f64)>,
    at: std::time::Instant,
}

impl Steal {
    pub fn start() -> Steal {
        Steal {
            start: read_steal(),
            at: std::time::Instant::now(),
        }
    }

    /// Share of all the machine's CPU time stolen since [`Steal::start`];
    /// 0 where `/proc/stat` reports none.
    pub fn share(&self) -> f64 {
        match (self.start, read_steal()) {
            (Some((from, cpus)), Some((to, _))) => {
                ratio(to - from, USER_HZ * cpus * self.at.elapsed().as_secs_f64())
            }
            _ => 0.0,
        }
    }
}

/// Which repetitions to keep, given each one's steal share: those at
/// most [`CALM_STEAL`], or, when more than half exceed it, those at most
/// the median share. A calm run keeps everything.
pub fn calm(steal: &[f64]) -> Vec<bool> {
    let limit = median(steal).max(CALM_STEAL);
    steal.iter().map(|&s| s <= limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(21), 0.50);
        assert_eq!(tail_percentile(3), 0.50);
    }

    #[test]
    fn tail_of_a_known_vector() {
        // 1..=1000 ms: p99 sits at 990.01 by type-7 interpolation, with
        // the ten samples 991..=1000 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert!((t - 990.01).abs() < 1e-9, "tail {t}");
        assert_eq!(v.iter().filter(|&&x| x > t).count(), 10);
        // 100 samples: p90, again ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(v.iter().filter(|&&x| x > tail(&v)).count(), 10);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn steal_is_read_from_the_aggregate_line() {
        let stat = "cpu  4433108 0 281635 3485416 8737 0 10904 59322 0 0\n\
                    cpu0 2156793 0 141529 1800917 5269 0 5143 29854 0 0\n\
                    cpu1 2276315 0 140105 1684498 3468 0 5761 29467 0 0\n\
                    intr 1 2 3\nctxt 99\n";
        assert_eq!(parse_steal(stat), Some((59322.0, 2.0)));
        assert_eq!(parse_steal("cpu 1 2 3\n"), None);
        assert_eq!(parse_steal(""), None);
    }

    #[test]
    fn calm_keeps_all_but_stolen_repetitions() {
        assert_eq!(calm(&[0.0, 0.002, 0.0]), [true, true, true]);
        assert_eq!(calm(&[0.0, 0.13, 0.004, 0.2]), [true, false, true, false]);
        // Most repetitions stolen: keep the less stolen half.
        assert_eq!(
            calm(&[0.05, 0.02, 0.2, 0.03, 0.04]),
            [false, true, false, true, true]
        );
    }
}
