//! Host probe, probe-normalized timings and percentile helpers.
//!
//! On small shared hosts, throughput-bound arithmetic (RSA, AES, SHA) runs
//! up to ~1.8x slower for stretches of seconds to a minute while the program
//! itself is unchanged.  The benchmark therefore times a fixed 1024-bit
//! schoolbook multiply — its own code, not the program's — whenever the
//! program is idle, groups the run into windows of about a second, and
//! scales each timing taken in a window by `PROBE_REF_US / probe median of
//! that window`.  Normalized values read "as if the host ran the probe in
//! `PROBE_REF_US`"; raw values are kept for the traced run's `raw.*`
//! metrics.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference probe time.  Any fixed value works (it only sets the unit of
/// normalized timings); this is the probe median measured on the 2-vCPU
/// x86-64 host the benchmark was calibrated on.
pub const PROBE_REF_US: f64 = 60.0;

/// Length of one probe window.
const WINDOW: Duration = Duration::from_millis(1000);

/// A window whose probe median exceeds the run's fastest window by this
/// factor counts as slow (`host.slow_share`).
const SLOW_FACTOR: f64 = 1.3;

/// Multiplies two fixed 1024-bit numbers 200 times, schoolbook, and
/// returns the elapsed microseconds.
pub fn probe_us() -> f64 {
    let mut a = [0u64; 16];
    let mut b = [0u64; 16];
    for i in 0..16 {
        a[i] = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
        b[i] = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(i as u64 + 7);
    }
    let mut out = [0u64; 32];
    let start = Instant::now();
    for _ in 0..200 {
        let (x, y) = (black_box(&a), black_box(&b));
        out = [0; 32];
        for i in 0..16 {
            let mut carry: u128 = 0;
            for j in 0..16 {
                let t = x[i] as u128 * y[j] as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 16] = carry as u64;
        }
        a[0] ^= out[5];
    }
    black_box(&out);
    start.elapsed().as_secs_f64() * 1e6
}

/// Probe samples grouped into windows of about [`WINDOW`]; a window's
/// probe value is the trimmed mean of its samples.
#[derive(Debug)]
pub struct HostProbe {
    window_start: Instant,
    current: Vec<f64>,
    windows: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            window_start: Instant::now(),
            current: Vec::new(),
            windows: Vec::new(),
        }
    }
}

impl HostProbe {
    /// Index of the open window (the one timings recorded now belong to).
    pub fn window(&self) -> usize {
        self.windows.len()
    }

    /// Runs `n` probes; call only while the program is idle.  Closes the
    /// open window once it is old enough.
    pub fn idle(&mut self, n: usize) {
        for _ in 0..n {
            self.current.push(probe_us());
        }
        if self.window_start.elapsed() >= WINDOW {
            self.close();
        }
    }

    /// Closes the open window (no-op when it holds no probe).
    pub fn close(&mut self) {
        if !self.current.is_empty() {
            self.windows.push(trimmed_mean(&self.current));
            self.current.clear();
        }
        self.window_start = Instant::now();
    }

    /// Normalization factor for timings recorded in window `w`.
    pub fn factor(&self, w: usize) -> f64 {
        match self.windows.get(w).or(self.windows.last()) {
            Some(probe) => PROBE_REF_US / probe,
            None => 1.0,
        }
    }

    /// Median over windows of the window probe values.
    pub fn median_us(&self) -> f64 {
        median(&self.windows)
    }

    /// Share of windows slower than [`SLOW_FACTOR`] x the fastest one.
    pub fn slow_share(&self) -> f64 {
        let fastest = self.windows.iter().copied().fold(f64::INFINITY, f64::min);
        let slow = self
            .windows
            .iter()
            .filter(|&&w| w > SLOW_FACTOR * fastest)
            .count();
        slow as f64 / self.windows.len().max(1) as f64
    }
}

/// One closed-loop iteration: its three timed steps and its wall time (the
/// iteration without the idle work between iterations), in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub window: usize,
    pub steps: [f64; 3],
    pub wall_ms: f64,
    /// Operations the iteration completed (`ops_per_s` counts these).
    pub ops: f64,
}

/// The timed part of a run.
#[derive(Debug, Default)]
pub struct Phase {
    pub probe: HostProbe,
    pub samples: Vec<Sample>,
}

impl Phase {
    pub fn record(&mut self, steps: [f64; 3], wall_ms: f64, ops: f64) {
        let window = self.probe.window();
        self.samples.push(Sample {
            window,
            steps,
            wall_ms,
            ops,
        });
    }

    fn scale(&self, s: &Sample, normalized: bool) -> f64 {
        if normalized {
            self.probe.factor(s.window)
        } else {
            1.0
        }
    }

    /// The values of step `k`; NaN entries (a step that did not run) are
    /// skipped.
    pub fn step(&self, k: usize, normalized: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.steps[k].is_finite())
            .map(|s| s.steps[k] * self.scale(s, normalized))
            .collect()
    }

    /// Wall times of the samples that complete operations.
    pub fn walls(&self, normalized: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ops > 0.0)
            .map(|s| s.wall_ms * self.scale(s, normalized))
            .collect()
    }

    /// Total wall time of the phase's iterations, in seconds.
    pub fn total_s(&self, normalized: bool) -> f64 {
        self.walls(normalized).iter().sum::<f64>() / 1e3
    }

    /// Operations per second of the median iteration (a median, unlike
    /// total ops over total time, is not moved by a few stalled iterations).
    pub fn ops_per_s(&self, normalized: bool) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ops > 0.0)
            .map(|s| s.ops * 1e3 / (s.wall_ms * self.scale(s, normalized)))
            .collect();
        median(&rates)
    }
}

/// Set-up cost: the median over several repetitions, each normalized by
/// the probes taken right before and after it.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub raw_s: f64,
    pub normalized_s: f64,
}

impl SetupTime {
    /// Adds a warm-up phase, normalized window by window like the timed loop.
    pub fn add(&mut self, warmup: &Phase) {
        self.raw_s += warmup.total_s(false);
        self.normalized_s += warmup.total_s(true);
    }
}

/// Runs `build` `reps` times and keeps the last result.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, SetupTime), String> {
    let mut raw = Vec::with_capacity(reps);
    let mut normalized = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let mut probes: Vec<f64> = (0..32).map(|_| probe_us()).collect();
        let start = Instant::now();
        let built = build()?;
        let seconds = start.elapsed().as_secs_f64();
        probes.extend((0..32).map(|_| probe_us()));
        raw.push(seconds);
        normalized.push(seconds * PROBE_REF_US / trimmed_mean(&probes));
        kept = Some(built);
    }
    let built = kept.ok_or("no set-up repetition ran")?;
    Ok((
        built,
        SetupTime {
            raw_s: median(&raw),
            normalized_s: median(&normalized),
        },
    ))
}

/// Linear-interpolated percentile (`q` in 0..=1); NaN for no values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of the middle 80 % of `values`.  The host alternates between fast
/// and slow states faster than a window lasts, so the program sees the
/// average slowdown; a mean tracks the mix smoothly where a median would
/// jump between the two modes.  Trimming drops preempted probes.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median time of one call of `f`, in microseconds, over `reps` calls each
/// timed on its own (one untimed call first warms caches).
pub fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// SplitMix64: the benchmark's own input generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` printable ASCII characters.
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_trimmed_mean_drops_the_tails() {
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&values), 6.0);
        assert_eq!(percentile(&values, 0.9), 10.0);
        assert!(percentile(&[], 0.5).is_nan());
        let mut spiky = vec![1.0; 10];
        spiky[0] = 1000.0;
        assert_eq!(trimmed_mean(&spiky), 1.0);
    }

    #[test]
    fn timings_scale_by_their_window_probe() {
        let mut phase = Phase::default();
        phase.record([2.0, f64::NAN, 1.0], 4.0, 1.0);
        phase.probe.windows.push(2.0 * PROBE_REF_US);
        assert_eq!(phase.step(0, true), vec![1.0]);
        assert_eq!(phase.step(0, false), vec![2.0]);
        assert!(phase.step(1, true).is_empty());
        assert_eq!(phase.ops_per_s(true), 500.0);
    }

    #[test]
    fn the_input_generator_is_seeded() {
        let (mut a, mut b) = (SplitMix::new(5), SplitMix::new(5));
        assert_eq!(a.text(64), b.text(64));
        let mut order: Vec<usize> = (0..16).collect();
        a.shuffle(&mut order);
        order.sort_unstable();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }
}
