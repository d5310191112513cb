//! Statistics, span tracing and JSON writing shared by the workloads.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A seed for one input or decision stream, derived from the run's seed
/// and a per-stream salt (splitmix64 finalizer), so streams are
/// independent and every one is a pure function of `--seed`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of the 99.9th, 99th, 90th and 50th percentiles that has at
/// least ten samples beyond it: `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    // Percentiles in tenths of a percent keep the count exact.
    for p in [999, 990, 900] {
        if xs.len() * (1000 - p) / 1000 >= 10 {
            let p = p as f64 / 10.0;
            return (p, quantile(xs, p / 100.0));
        }
    }
    (50.0, median(xs))
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Consecutive batches for [`batch_median_range`].
const BATCHES: usize = 12;

/// An interval for the median of a time series: the lowest and highest
/// median of [`BATCHES`] consecutive batches of it. Consecutive rounds are
/// alike (the machine's speed drifts in phases), so single samples cannot
/// be resampled independently; whole batches can. If the batch medians
/// are independent, the range misses the series' median with probability
/// 2^(1−k) for k batches, about 0.05% here — small enough for a gate that
/// many runs evaluate.
pub fn batch_median_range(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let k = BATCHES.min(n);
    let medians: Vec<f64> = (0..k)
        .map(|i| median(&xs[i * n / k..(i + 1) * n / k]))
        .collect();
    (quantile(&medians, 0.0), quantile(&medians, 1.0))
}

// `END_TO_END` and `PER_LAYER`: `(name, unit)` of every metric, in the
// order of `BENCHMARK.json`, generated from it by `build.rs`.
include!(concat!(env!("OUT_DIR"), "/metrics.rs"));

/// The unit `BENCHMARK.json` declares for a metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One metric as reported: value, unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// The metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record a metric declared in `BENCHMARK.json`, with its unit there.
    pub fn put(&mut self, name: impl Into<String>, value: f64, n: usize) {
        let name = name.into();
        let unit = unit_of(&name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"));
        self.0.push(Metric {
            name,
            value,
            unit,
            n,
        });
    }
}

/// Operations attempted and failed (outcome other than expected: wrong
/// output, unexpected error, panic, or a self-check that fired).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed to stderr at the end of the run.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it failed with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(why());
            }
        }
    }
}

/// A span recorded by the benchmark around a call into one layer.
pub struct Span {
    pub parent: Option<usize>,
    /// Round (batch) or request (serve) the span belongs to; set-up spans
    /// use group 0 and rounds count from 1.
    pub group: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Counter snapshots taken at the span's boundaries.
    pub counters: Vec<(&'static str, f64)>,
}

/// In-memory span recorder. When off, every method is a no-op returning
/// `None`, so untraced runs pay one branch per call site.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Open a span starting now; [`close`](Tracer::close) ends it.
    pub fn open(&mut self, parent: Option<usize>, group: u64, name: &str) -> Option<usize> {
        let now = Instant::now();
        self.span(parent, group, name, now, now, Vec::new())
    }

    pub fn close(&mut self, id: Option<usize>, counters: Vec<(&'static str, f64)>) {
        let Some(i) = id else { return };
        let end = self.at(Instant::now());
        let s = &mut self.spans[i];
        s.dur_ns = end.saturating_sub(s.start_ns);
        s.counters = counters;
    }

    /// Record a finished span `[start, end)`.
    pub fn span(
        &mut self,
        parent: Option<usize>,
        group: u64,
        name: &str,
        start: Instant,
        end: Instant,
        counters: Vec<(&'static str, f64)>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.at(start);
        self.spans.push(Span {
            parent,
            group,
            name: name.to_string(),
            start_ns,
            dur_ns: self.at(end).saturating_sub(start_ns),
            counters,
        });
        Some(self.spans.len() - 1)
    }

    /// Record program-reported children of `parent` laid end to end from
    /// its start: `(name, duration)` in order.
    pub fn children(&mut self, parent: Option<usize>, parts: &[(&str, Duration)]) {
        let Some(p) = parent else { return };
        let (group, mut at) = (self.spans[p].group, self.spans[p].start_ns);
        for (name, d) in parts {
            let dur_ns = d.as_nanos() as u64;
            self.spans.push(Span {
                parent: Some(p),
                group,
                name: name.to_string(),
                start_ns: at,
                dur_ns,
                counters: Vec::new(),
            });
            at += dur_ns;
        }
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Self times in ms of every span named `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.self_ms_where(|s| s.name == name)
    }

    /// Self times in ms of every span named `name` whose parent is named
    /// `parent`.
    pub fn self_ms_under(&self, name: &str, parent: &str) -> Vec<f64> {
        self.self_ms_where(|s| {
            s.name == name && s.parent.is_some_and(|p| self.spans[p].name == parent)
        })
    }

    fn self_ms_where(&self, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        let selfs = self.self_ns();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| keep(s))
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                .collect();
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"group\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"dur_ns\": {}, \"self_ns\": {self_ns}, \"counters\": {{{}}}}}{}",
                s.group,
                json_str(&s.name),
                s.start_ns,
                s.dur_ns,
                counters.join(", "),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Nominal duration of [`calibrate`] in seconds: its median on the
/// 2-core VM the benchmark was written on.
pub const CALIBRATION_NOMINAL_S: f64 = 0.016;

/// The streaming buffer of [`calibrate`], allocated once and never freed,
/// so the calibration leaves the allocator as it found it: glibc raises
/// its mmap threshold when a block that large is freed, which would
/// change how the crates' later allocations of 128 KiB and up are served.
static CALIBRATION_BUFFER: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Time a fixed piece of work that belongs to the benchmark, not to the
/// crates under test, so no change to them moves it. It mixes what set-up
/// does: many small allocations in a tree, as the compiler's passes make,
/// and streaming passes over a 4 MiB array, as input generation and the
/// VM make. Timed right before and after a set-up, it gives the
/// machine's speed at that moment (see [`SetupTimes`]).
pub fn calibrate() -> Duration {
    let mut v = CALIBRATION_BUFFER.lock().unwrap_or_else(|e| e.into_inner());
    // The first call faults the buffer in before the timer starts.
    v.resize(1 << 20, 0);
    let t = Instant::now();
    let mut tree = std::collections::BTreeMap::new();
    for i in 0..40_000u64 {
        tree.insert(sub_seed(i, 7) % 100_000, vec![i; 8]);
    }
    for (i, e) in v.iter_mut().enumerate() {
        *e = i as u32;
    }
    for r in 0..16 {
        for e in v.iter_mut() {
            *e = e.wrapping_mul(0x9e37_79b9).rotate_left(r) ^ r;
        }
    }
    std::hint::black_box((tree.len(), v[v.len() / 2]));
    t.elapsed()
}

/// The set-ups of one run, each with the machine's speed around it.
#[derive(Default)]
pub struct SetupTimes {
    /// Wall time of each set-up, in seconds.
    pub wall: Vec<f64>,
    /// Geometric mean of the calibrations right before and after each
    /// set-up, in seconds.
    pub calib: Vec<f64>,
}

impl SetupTimes {
    /// Run one set-up between two calibrations and record it.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let before = calibrate().as_secs_f64();
        let t = Instant::now();
        let out = setup();
        self.wall.push(t.elapsed().as_secs_f64());
        let after = calibrate().as_secs_f64();
        self.calib.push((before * after).sqrt());
        out
    }

    /// `setup_s`: the median set-up time at nominal machine speed, each
    /// set-up's wall time scaled by [`CALIBRATION_NOMINAL_S`] over the
    /// calibration around it. The machine's speed drifts by a third over
    /// minutes, which the raw wall time (`setup.wall_s`) carries; the
    /// calibration, timed next to the set-up, carries the same drift.
    pub fn put(&self, m: &mut Metrics) {
        let scaled: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.calib)
            .map(|(w, c)| w * CALIBRATION_NOMINAL_S / c)
            .collect();
        let n = scaled.len();
        m.put("setup_s", median(&scaled), n);
        m.put("setup.wall_s", median(&self.wall), n);
        let calib_ms: Vec<f64> = self.calib.iter().map(|c| c * 1e3).collect();
        m.put("control.calib_ms", median(&calib_ms), n);
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits (non-finite as null).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 90.0);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 99.0);
        assert_eq!(tail(&xs[..15]).0, 50.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let s = t.t0;
        let p = t.span(None, 1, "call", s, s + Duration::from_millis(10), vec![]);
        t.children(
            p,
            &[
                ("a", Duration::from_millis(3)),
                ("b", Duration::from_millis(4)),
            ],
        );
        assert_eq!(t.self_ms("call"), vec![3.0]);
        assert_eq!(t.self_ms("b"), vec![4.0]);
    }

    #[test]
    fn batch_range_spans_the_batch_medians() {
        // Twelve batches of ten: batch i holds the values 10i..10i+10.
        let xs: Vec<f64> = (0..120).map(f64::from).collect();
        assert_eq!(batch_median_range(&xs), (4.5, 114.5));
        assert_eq!(batch_median_range(&[2.0, 1.0]), (1.0, 2.0));
        assert_eq!(batch_median_range(&[]), (0.0, 0.0));
    }
}
