//! Latency samples, percentile math, scaling to the reference speed,
//! process counters and the result line the benchmark prints.

use crate::calib;
use std::time::{Duration, Instant};

/// Raw latency samples of one op class on one thread. Keeps at most
/// `cap` samples: when full it drops every other one and from then on
/// keeps every second op, so the kept set stays a uniform sample of the
/// whole run, with no bucketing of the values themselves.
pub struct Recorder {
    samples: Vec<u32>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Recorder {
    pub fn new(cap: usize) -> Recorder {
        assert!(cap >= 2, "a recorder keeps at least two samples");
        Recorder {
            samples: Vec::new(),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Records one latency (saturating at ~4.3 s).
    pub fn record(&mut self, latency: Duration) {
        let keep = self.seen.is_multiple_of(self.stride);
        self.seen += 1;
        if !keep {
            return;
        }
        if self.samples.len() == self.cap {
            let mut i = 0;
            self.samples.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
            if !(self.seen - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.samples
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Adds another thread's samples of the same window.
    fn absorb(&mut self, other: Recorder) {
        self.seen += other.seen;
        self.samples.extend(other.samples);
    }

    /// Ops recorded, kept or not.
    pub fn count(&self) -> u64 {
        self.seen
    }
}

/// Sorted latency samples of one op class.
pub struct Latencies {
    ns: Vec<u32>,
}

impl Latencies {
    /// All samples of `recorders`, sorted.
    pub fn of<'a>(recorders: impl IntoIterator<Item = &'a Recorder>) -> Latencies {
        let mut ns: Vec<u32> = recorders
            .into_iter()
            .flat_map(|r| r.samples.iter().copied())
            .collect();
        ns.sort_unstable();
        Latencies { ns }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The `p`th percentile in microseconds (nearest rank), or `None`
    /// without samples.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        percentile(&self.ns, p).map(|ns| f64::from(ns) / 1e3)
    }
}

/// Samples kept per op class, window and thread: a bound on the
/// benchmark's own memory, so `peak_rss_mib` does not grow with
/// throughput.
const WINDOW_SAMPLE_CAP: usize = 1 << 15;
/// A window's percentile counts only when every window has this many
/// samples of the class; otherwise the phase's samples are pooled.
const MIN_WINDOW_SAMPLES: usize = 1000;

/// What one window of a phase saw.
pub struct Window {
    pub ops: u64,
    pub decisions: u64,
    pub read: Recorder,
    pub heavy: Recorder,
    /// Sum and count of the reference kernel's speeds, taken as each
    /// load thread entered this window.
    speed_sum: f64,
    speed_n: u32,
}

impl Default for Window {
    fn default() -> Window {
        Window {
            ops: 0,
            decisions: 0,
            read: Recorder::new(WINDOW_SAMPLE_CAP),
            heavy: Recorder::new(WINDOW_SAMPLE_CAP),
            speed_sum: 0.0,
            speed_n: 0,
        }
    }
}

/// A phase cut into equal windows. Each figure is taken per window and
/// the median over the windows is reported, so a burst of noise from
/// outside the process moves one window, not the result. Scaled figures
/// are first expressed at [`calib::REF_RATE`], using the speed the
/// reference kernel measured in the same window.
pub struct Timeline {
    start: Instant,
    window: Duration,
    windows: Vec<Window>,
    /// Ops that completed after the last window closed.
    overrun: Window,
    /// The window this thread last entered.
    current: usize,
}

impl Timeline {
    pub fn new(start: Instant, length: Duration, windows: u32) -> Timeline {
        Timeline {
            start,
            window: length / windows,
            windows: (0..windows).map(|_| Window::default()).collect(),
            overrun: Window::default(),
            current: usize::MAX,
        }
    }

    /// The window an op that completed at `at` belongs to. The first
    /// time this thread lands in a window it runs the reference kernel
    /// for [`calib::SLICE`] and records its speed there.
    pub fn at(&mut self, at: Instant) -> &mut Window {
        let index = at.saturating_duration_since(self.start).as_nanos() / self.window.as_nanos();
        let index = index as usize;
        if index != self.current && index < self.windows.len() {
            self.current = index;
            let speed = calib::rate(calib::SLICE);
            self.windows[index].speed_sum += speed;
            self.windows[index].speed_n += 1;
        }
        match self.windows.get_mut(index) {
            Some(window) => window,
            None => &mut self.overrun,
        }
    }

    /// Adds the timeline of another thread that shared this phase clock.
    pub fn absorb(&mut self, other: Timeline) {
        for (into, from) in self.windows.iter_mut().zip(other.windows) {
            into.absorb(from);
        }
        self.overrun.absorb(other.overrun);
    }

    /// Each window's `count` per second.
    pub fn rates(&self, count: impl Fn(&Window) -> u64) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.windows
            .iter()
            .map(|w| count(w) as f64 / secs)
            .collect()
    }

    /// Ops of the class `pick` selects, over all windows.
    pub fn count(&self, pick: impl Fn(&Window) -> &Recorder) -> u64 {
        self.windows.iter().map(|w| pick(w).count()).sum()
    }

    /// Median over the windows of `count` per second.
    pub fn rate(&self, count: impl Fn(&Window) -> u64) -> f64 {
        median(&mut self.rates(count))
    }

    /// Each window's speed factor: the reference kernel's speed in it
    /// over [`calib::REF_RATE`]. A window no load thread entered takes
    /// the median speed of the others.
    pub fn factors(&self) -> Vec<f64> {
        let mut known: Vec<f64> = self.windows.iter().filter_map(Window::speed).collect();
        let fallback = if known.is_empty() {
            calib::REF_RATE
        } else {
            median(&mut known)
        };
        self.windows
            .iter()
            .map(|w| w.speed().unwrap_or(fallback) / calib::REF_RATE)
            .collect()
    }

    /// Median over the windows of `count` per second, each window's rate
    /// scaled to the reference speed.
    pub fn scaled_rate(&self, count: impl Fn(&Window) -> u64) -> f64 {
        let mut scaled: Vec<f64> = self
            .rates(count)
            .iter()
            .zip(self.factors())
            .map(|(rate, factor)| rate / factor)
            .collect();
        median(&mut scaled)
    }

    /// The `p`th percentile in microseconds of the class `pick` selects,
    /// scaled to the reference speed: the median of the windows' scaled
    /// percentiles when every window holds at least
    /// [`MIN_WINDOW_SAMPLES`], else the percentile of all samples scaled
    /// by the median factor.
    pub fn scaled_percentile_us(&self, pick: impl Fn(&Window) -> &Recorder, p: f64) -> f64 {
        let mut factors = self.factors();
        let per_window: Vec<Latencies> = self
            .windows
            .iter()
            .map(|w| Latencies::of([pick(w)]))
            .collect();
        if per_window.iter().all(|l| l.len() >= MIN_WINDOW_SAMPLES) {
            let mut values: Vec<f64> = per_window
                .iter()
                .zip(&factors)
                .filter_map(|(l, factor)| l.percentile_us(p).map(|us| us * factor))
                .collect();
            median(&mut values)
        } else {
            let pooled = Latencies::of(self.windows.iter().map(pick))
                .percentile_us(p)
                .unwrap_or(0.0);
            pooled * median(&mut factors)
        }
    }
}

impl Window {
    fn speed(&self) -> Option<f64> {
        (self.speed_n > 0).then(|| self.speed_sum / f64::from(self.speed_n))
    }

    fn absorb(&mut self, other: Window) {
        self.speed_sum += other.speed_sum;
        self.speed_n += other.speed_n;
        self.ops += other.ops;
        self.decisions += other.decisions;
        self.read.absorb(other.read);
        self.heavy.absorb(other.heavy);
    }
}

/// Nearest-rank percentile of sorted `values`: the smallest value with at
/// least `p` percent of the values at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU time of the whole process so far.
pub fn cpu_time() -> Duration {
    // Fields 14 and 15 of /proc/self/stat, in USER_HZ (100 on Linux)
    // ticks; the command name (field 2) may hold spaces, so count from
    // its closing parenthesis.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Whether `name` fits the metric-name charset: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit charset: at most 16 letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}, ..}}`. Non-finite
/// values are reported as an error rather than printed.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!(
                "metric {:?} [{}] breaks the charset",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u32], 99.0), Some(7));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn recorder_keeps_a_uniform_bounded_sample() {
        let mut r = Recorder::new(1000);
        for i in 0..100_000u64 {
            r.record(Duration::from_nanos(i));
        }
        assert_eq!(r.count(), 100_000);
        assert!(r.samples.len() <= 1000 && r.samples.len() >= 500);
        let lat = Latencies::of([&r]);
        let p50 = lat.percentile_us(50.0).unwrap() * 1e3;
        let p99 = lat.percentile_us(99.0).unwrap() * 1e3;
        assert!((p50 - 50_000.0).abs() < 1_000.0, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() < 1_000.0, "p99 {p99}");
    }

    #[test]
    fn scaled_figures_divide_out_each_windows_speed() {
        let mut tl = Timeline::new(Instant::now(), Duration::from_secs(3), 3);
        // One second per window; the middle window ran at twice the
        // reference speed and the last has no speed of its own.
        for (w, (ops, speed)) in tl
            .windows
            .iter_mut()
            .zip([(100, 1.0), (200, 2.0), (100, 0.0)])
        {
            w.ops = ops;
            if speed > 0.0 {
                w.speed_sum = speed * calib::REF_RATE;
                w.speed_n = 1;
            }
            for ns in 1..=1000u64 {
                w.read
                    .record(Duration::from_nanos(ns * 1000 / (speed.max(1.0) as u64)));
            }
        }
        assert_eq!(tl.factors(), [1.0, 2.0, 1.5]);
        // Scaled rates 100, 100 and 66.7.
        assert_eq!(tl.scaled_rate(|w| w.ops), 100.0);
        assert_eq!(tl.rate(|w| w.ops), 100.0);
        // Scaled p50s 500, 500 and 750 µs-at-reference ⇒ median 500.
        assert_eq!(tl.scaled_percentile_us(|w| &w.read, 50.0), 500.0);
    }

    #[test]
    fn recorder_below_cap_keeps_everything() {
        let mut r = Recorder::new(64);
        for i in 0..64u64 {
            r.record(Duration::from_nanos(i));
        }
        assert_eq!(r.samples.len(), 64);
        assert_eq!(r.samples[63], 63);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "refmon.check_hit_ns",
            "server.rtt_b64_us",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "q\"uote", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "ratio", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "latency_ms",
                value: 1.25,
                unit: "ms",
            }],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        let nan = Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
        };
        assert!(result_line(true, 1, 0, &[nan]).is_err());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        // Process CPU time moves in 10 ms ticks: spin until it does.
        let before = cpu_time();
        let spin = Instant::now();
        while cpu_time() == before && spin.elapsed() < Duration::from_secs(5) {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        }
        assert!(cpu_time() > before);
    }
}
