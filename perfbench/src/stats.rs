//! Order statistics over raw samples, and the memory probe.

/// The `q`-quantile of ascending `sorted` samples, interpolating linearly
/// between the two nearest order statistics; 0 when there are none.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let (a, b) = (sorted[lo] as f64, sorted[hi] as f64);
            a + (b - a) * (pos - lo as f64)
        }
    }
}

/// `samples`, sorted ascending.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// The median of `values`; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Splits `[0, span_ns)` into `windows` equal slices and returns the
/// median over non-empty slices of the `q`-quantile of the values whose
/// time falls in each. Bursts of interference on a shared machine spoil
/// a few slices, not the median.
pub fn windowed_quantile(points: &[(u64, u64)], span_ns: u64, windows: usize, q: f64) -> f64 {
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(at, value) in points {
        let slot = (at as u128 * windows as u128 / span_ns.max(1) as u128) as usize;
        slices[slot.min(windows - 1)].push(value);
    }
    let per_slice: Vec<f64> = slices
        .into_iter()
        .filter(|slice| !slice.is_empty())
        .map(|slice| quantile(&sorted(slice), q))
        .collect();
    median(&per_slice)
}

/// Events per second from the ascending event times of several phases:
/// the median over runs of `chunk` consecutive events within a phase of
/// `chunk` divided by the time the run took. `chunk` is a multiple of
/// `period`, the length after which the request stream repeats its mix,
/// so every run holds the same mix of requests; it is sized for at least
/// `slices` runs in all. Bursts of interference slow a few runs, not the
/// median.
pub fn chunked_rate(phases: &[Vec<u64>], period: usize, slices: usize) -> f64 {
    let intervals = |times: &Vec<u64>| times.len().saturating_sub(1);
    let total: usize = phases.iter().map(intervals).sum();
    let chunk = period * (total / (slices * period)).max(1);
    let rates: Vec<f64> = phases
        .iter()
        .flat_map(|times| {
            (0..intervals(times) / chunk).map(move |run| {
                let ns = times[(run + 1) * chunk] - times[run * chunk];
                chunk as f64 * 1e9 / ns.max(1) as f64
            })
        })
        .collect();
    median(&rates)
}

/// Lowers each of `best` to the matching item of `values`, or starts it
/// over from `values` when `first`; keeps the items both have.
pub fn keep_lowest(best: &mut Vec<u64>, values: impl Iterator<Item = u64>, first: bool) {
    if first {
        best.clear();
        best.extend(values);
        return;
    }
    let mut kept = 0;
    for (slot, value) in best.iter_mut().zip(values) {
        *slot = (*slot).min(value);
        kept += 1;
    }
    best.truncate(kept);
}

/// Events per second between the first and the last of ascending
/// `times`; 0 with fewer than two.
pub fn rate(times: &[u64]) -> f64 {
    match (times.first(), times.last()) {
        (Some(first), Some(last)) if last > first => {
            (times.len() - 1) as f64 * 1e9 / (last - first) as f64
        }
        _ => 0.0,
    }
}

/// Peak resident memory (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = sorted(vec![40, 10, 30, 20]);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_statistics_take_the_median_slice() {
        // Three one-second slices; the middle one is disturbed.
        let points = [
            (100, 1),
            (200, 3),
            (1_100, 90),
            (1_200, 99),
            (2_100, 2),
            (2_200, 4),
        ];
        assert_eq!(windowed_quantile(&points, 3_000, 3, 0.5), 3.0);
        // Runs of two events: 2 per second, 2 per second, then a stall.
        let half = 500_000_000;
        let times = vec![0, half, 2 * half, 3 * half, 4 * half, 18 * half, 20 * half];
        assert_eq!(chunked_rate(&[times.clone()], 2, 3), 2.0);
        // Too few events for a second run: chunks stay one period long.
        assert_eq!(chunked_rate(&[times[..3].to_vec()], 2, 3), 2.0);
        assert_eq!(chunked_rate(&[], 2, 3), 0.0);
        // Runs never span two phases: the gap between them is no stall.
        let later: Vec<u64> = times[..3].iter().map(|t| t + 100 * half).collect();
        let phases = [times[..3].to_vec(), later, vec![0, 9 * half, 10 * half]];
        assert_eq!(chunked_rate(&phases, 2, 3), 2.0);
    }

    #[test]
    fn rounds_keep_each_items_lowest_value() {
        let mut best = vec![9];
        keep_lowest(&mut best, [5, 7, 2].into_iter(), true);
        keep_lowest(&mut best, [6, 3, 4, 1].into_iter(), false);
        assert_eq!(best, [5, 3, 2]);
        // A round that reached fewer items shortens the comparison.
        keep_lowest(&mut best, [8, 1].into_iter(), false);
        assert_eq!(best, [5, 1]);
        let half = 500_000_000;
        assert_eq!(rate(&[half, 2 * half, 5 * half]), 1.0);
        assert_eq!(rate(&[half]), 0.0);
    }
}
