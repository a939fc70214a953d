//! Order statistics, `/proc` readings and Prometheus-page parsing.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// CPU seconds this process has used so far, over all of its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor steals from the
/// vCPUs is not charged to the process, so differences of this clock
/// measure the work a call did, not how much of the host it was given.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec; the clock id is a
    // Linux constant, and the call only writes `t`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `RssAnon`, ...) in MiB.
pub fn proc_status_mb(pid: &str, field: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no {field} field"))
}

/// One scrape of a Prometheus text page: every sample keyed by its
/// full series name (`name{labels}`).
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the sample lines of a text-exposition page.
    pub fn parse(page: &str) -> Scrape {
        let samples = page
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                Some((series.to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Scrape(samples)
    }

    /// A sample's value (0 when the series is absent: counters and
    /// histograms appear on first use).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Scrape, series: &str) -> f64 {
        self.get(series) - before.get(series)
    }

    /// Mean of a histogram over the window `before..self`:
    /// `Δsum / Δcount`, or `None` when nothing was observed.
    pub fn window_mean(&self, before: &Scrape, family: &str, labels: &str) -> Option<f64> {
        let count = self.delta(before, &format!("{family}_count{{{labels}}}"));
        let sum = self.delta(before, &format!("{family}_sum{{{labels}}}"));
        (count > 0.0).then(|| sum / count)
    }

    /// The `q`-quantile of a histogram over the window `before..self`,
    /// interpolated linearly inside the bucket that holds it (the
    /// `histogram_quantile` convention). `labels` is the label set
    /// without `le`, e.g. `endpoint="topk"`.
    pub fn window_quantile(
        &self,
        before: &Scrape,
        family: &str,
        labels: &str,
        q: f64,
    ) -> Option<f64> {
        let prefix = format!("{family}_bucket{{{labels},le=\"");
        // The page lists only touched buckets (and the tail); an omitted
        // bucket's cumulative count is that of the listed one below it.
        let buckets = |page: &Scrape| -> Vec<(f64, f64)> {
            let mut listed: Vec<(f64, f64)> = page
                .0
                .iter()
                .filter_map(|(series, &count)| {
                    let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                    let bound = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().ok()?
                    };
                    Some((bound, count))
                })
                .collect();
            listed.sort_by(|a, b| a.0.total_cmp(&b.0));
            listed
        };
        let earlier = buckets(before);
        let cumulative_before = |bound: f64| {
            earlier
                .iter()
                .take_while(|(b, _)| *b <= bound)
                .last()
                .map_or(0.0, |&(_, count)| count)
        };
        let bounds: Vec<(f64, f64)> = buckets(self)
            .into_iter()
            .map(|(bound, count)| (bound, count - cumulative_before(bound)))
            .collect();
        let total = bounds.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = q * total;
        let (mut lower, mut below) = (0.0, 0.0);
        for &(upper, cumulative) in &bounds {
            if cumulative >= rank && cumulative > below {
                if upper.is_infinite() {
                    return Some(lower);
                }
                return Some(lower + (upper - lower) * (rank - below) / (cumulative - below));
            }
            lower = upper;
            below = cumulative;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_window_quantile() {
        let before = Scrape::parse(
            "h_bucket{e=\"a\",le=\"2\"} 1\nh_bucket{e=\"a\",le=\"+Inf\"} 1\nh_count{e=\"a\"} 1\nh_sum{e=\"a\"} 1\n",
        );
        let after = Scrape::parse(
            "h_bucket{e=\"a\",le=\"2\"} 1\nh_bucket{e=\"a\",le=\"4\"} 3\nh_bucket{e=\"a\",le=\"8\"} 5\n\
             h_bucket{e=\"a\",le=\"+Inf\"} 5\nh_count{e=\"a\"} 5\nh_sum{e=\"a\"} 21\n",
        );
        // Window: 2 samples in (2, 4], 2 in (4, 8].
        assert_eq!(
            after.window_quantile(&before, "h", "e=\"a\"", 0.5),
            Some(4.0)
        );
        assert_eq!(after.window_mean(&before, "h", "e=\"a\""), Some(5.0));
    }
}
