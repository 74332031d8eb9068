//! The shared measuring kit: exact percentiles, the sliced closed-loop
//! runner, the open-loop scheduler with due-time accounting, the reading
//! of a run ([`Measured`]: pooled samples, median slice rate), and the
//! small helpers (FNV, peak RSS, scratch directories) every workload
//! uses.
//!
//! Percentiles here are always exact — the nearest-rank element of the
//! full sorted sample vector — never the log2 buckets of `xks-obs`,
//! whose adjacent powers of two cannot resolve a 10 % regression.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// FNV-1a offset basis; fold bytes in with [`fnv1a`].
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a running FNV-1a hash.
pub fn fnv1a(bytes: &[u8], hash: &mut u64) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Rotates `items` left by an offset drawn from `seed` (SplitMix64):
/// the same seed gives the same order, and neighbours stay neighbours.
pub fn rotate<T>(items: &mut [T], seed: u64) {
    if items.is_empty() {
        return;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    items.rotate_left((z % items.len() as u64) as usize);
}

/// Exact nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample (sorts in place; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median of an integer sample, as a float.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&mut values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Raw samples of one stretch of load: a slice of a closed loop, one
/// connection's open-loop schedule, a write schedule.
#[derive(Debug, Default)]
pub struct Raw {
    /// Latency of every completed, correct operation, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Time the rate is taken over: time inside operations (closed
    /// loop, zero think time) or wall time of the schedule (open loop).
    pub busy_ns: u64,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
}

impl Raw {
    /// Records one operation's outcome; a closed loop's busy time is the
    /// sum of its correct operations' latencies.
    pub fn record(&mut self, outcome: Result<u64, ()>) {
        self.attempted += 1;
        match outcome {
            Ok(ns) => {
                self.latencies_ns.push(ns);
                self.busy_ns += ns;
            }
            Err(()) => self.failed += 1,
        }
    }

    /// Correct operations per second of busy time.
    pub fn rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }

    /// Adds another stretch's samples, time and tally to this one.
    pub fn absorb(&mut self, other: Raw) {
        self.latencies_ns.extend(other.latencies_ns);
        self.busy_ns += other.busy_ns;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a measured run observed, read the plain way: `rate` is the
/// **median slice rate** (each slice's correct operations over its busy
/// time), and the latency vector **pools every sample of every slice**,
/// sorted, so [`Measured::latency_us`] is an exact nearest-rank
/// percentile of everything the caller saw. Nothing is filtered: a stall
/// that hits one request in twenty is in `p95`.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every correct operation's latency, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Operations per second: the median of `slice_rates`.
    pub rate: f64,
    /// Each slice's rate, in run order.
    pub slice_rates: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Measured {
    /// Pools the slices' samples and takes the median of their rates.
    pub fn from_slices(slices: Vec<Raw>) -> Measured {
        let slice_rates: Vec<f64> = slices.iter().map(Raw::rate).collect();
        let mut pooled = Raw::default();
        for slice in slices {
            pooled.absorb(slice);
        }
        pooled.latencies_ns.sort_unstable();
        Measured {
            latencies_ns: pooled.latencies_ns,
            rate: median(&mut slice_rates.clone()),
            slice_rates,
            attempted: pooled.attempted,
            failed: pooled.failed,
        }
    }

    /// Exact nearest-rank percentile of the pooled samples, microseconds.
    pub fn latency_us(&self, p: f64) -> f64 {
        percentile(&self.latencies_ns, p) as f64 / 1e3
    }
}

/// How a static workload's `--seconds` are spent: a warm-up that is not
/// sampled, then equal slices.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seconds of unsampled warm-up.
    pub warmup_s: f64,
    /// Measured slices.
    pub slices: usize,
    /// Seconds per slice.
    pub slice_s: f64,
}

impl Plan {
    /// A tenth of `seconds` as warm-up, the rest in five slices: 2 s +
    /// 5 × 3.6 s at the 20 s `BENCHMARK.json` runs for.
    pub fn sliced(seconds: f64) -> Plan {
        Plan {
            warmup_s: 0.1 * seconds,
            slices: 5,
            slice_s: 0.18 * seconds,
        }
    }

    /// One stretch of `seconds`, no warm-up: smoke runs and the
    /// per-layer run's reference and traced stretches.
    pub fn stretch(seconds: f64) -> Plan {
        Plan {
            warmup_s: 0.0,
            slices: 1,
            slice_s: seconds,
        }
    }
}

/// Closed loop, one caller, zero think time. The warm-up and every
/// slice run **whole cycles** of the `cycle_len` operations until their
/// time is spent, so every operation is sampled equally often. `op(i)`
/// runs operation `i` and returns its own caller-observed nanoseconds
/// (`Err` = failed or wrong output); whatever `op` does after taking its
/// end timestamp — checking the answer — is not charged. Warm-up
/// failures count in the first slice's tally.
pub fn closed_loop(
    plan: Plan,
    cycle_len: usize,
    mut op: impl FnMut(usize) -> Result<u64, ()>,
) -> Vec<Raw> {
    let mut cycle = 0usize;
    let mut run = |seconds: f64, into: &mut Raw| {
        let (budget, started) = (Duration::from_secs_f64(seconds), Instant::now());
        loop {
            // Each cycle starts one operation further down the list, so
            // an operation meets the program's caches in every state the
            // list leaves them in, not always the same one.
            for step in 0..cycle_len {
                let i = (cycle + step) % cycle_len;
                into.record(op(i));
            }
            cycle += 1;
            if started.elapsed() >= budget {
                break;
            }
        }
    };
    let mut warmup = Raw::default();
    if plan.warmup_s > 0.0 {
        run(plan.warmup_s, &mut warmup);
    }
    let mut slices: Vec<Raw> = (0..plan.slices.max(1)).map(|_| Raw::default()).collect();
    for slice in &mut slices {
        run(plan.slice_s, slice);
    }
    slices[0].attempted += warmup.failed;
    slices[0].failed += warmup.failed;
    slices
}

/// What one connection's open-loop schedule observed.
#[derive(Debug, Default)]
pub struct Scheduled {
    /// Latency **from the due time** of every request after the warm-up;
    /// `busy_ns` is the wall time from the first sampled due time to the
    /// last completion.
    pub raw: Raw,
    /// How late each sampled request left, nanoseconds.
    pub send_lag_ns: Vec<u64>,
}

/// Open loop on one connection: request `k` is due at
/// `start + k / rate`, whatever happened to request `k - 1`. The caller
/// sleeps to 200 µs before the due time and spins the rest, runs
/// `op(k)`, and the latency is taken **from the due time**, so a stall
/// charges every request it delayed. Runs whole cycles of `cycle_len`
/// for about `plan.warmup_s` unsampled, then for about the slices' time
/// sampled (one stretch: the offered rate is fixed, so there is no slice
/// rate to take a median of), starting at operation `first` of the list.
pub fn open_loop(
    start: Instant,
    rate_per_s: f64,
    plan: Plan,
    cycle_len: usize,
    first: usize,
    mut op: impl FnMut(usize) -> Result<(), ()>,
) -> Scheduled {
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let whole = |seconds: f64| ((rate_per_s * seconds) as usize).div_ceil(cycle_len) * cycle_len;
    let warmup = whole(plan.warmup_s);
    let sampled = whole(plan.slice_s * plan.slices as f64).max(cycle_len);
    let mut out = Scheduled::default();
    for k in 0..warmup + sampled {
        let due = start + interval * k as u32;
        let spin_from = due.checked_sub(Duration::from_micros(200)).unwrap_or(due);
        let now = Instant::now();
        if now < spin_from {
            std::thread::sleep(spin_from - now);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let lag = ns_since(due);
        let outcome = op((first + k) % cycle_len).map(|()| ns_since(due));
        if k >= warmup {
            out.send_lag_ns.push(lag);
            out.raw.record(outcome);
        } else if outcome.is_err() {
            out.raw.record(outcome);
        }
    }
    out.raw.busy_ns = ns_since(start + interval * warmup as u32);
    out
}

/// Starts the peak resident set over, so that [`rss_peak_mb`] read
/// after a measured loop is the loop's own peak and not the harness's:
/// the parsed tree, the XML text and the gate's oracle are dropped by
/// then, but the allocator keeps their freed pages resident, so they
/// are first handed back (`malloc_trim`, glibc only) and the kernel's
/// high-water mark is then reset (`echo 5 > /proc/self/clear_refs`).
/// Where either is refused, the peak covers more of the process's life.
pub fn reset_rss_peak() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only returns free
        // heap pages to the kernel; it is safe to call at any time.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark may write: `$CARGO_TARGET_DIR/benchmark` when the
/// driver set one, `target/benchmark` otherwise — both inside the
/// checkout the command runs from, both ignored by git.
pub fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// A scratch directory for index files and corpus directories, removed
/// when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<output_dir>/work/<tag>-<pid>` afresh.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = output_dir()
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn rotation_is_seeded_and_keeps_neighbours() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            rotate(&mut v, seed);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        assert!(order(7).windows(2).all(|w| (w[0] + 1) % 100 == w[1]));
        rotate::<u32>(&mut [], 7);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_ns(&[5, 1]), 3.0);
    }

    #[test]
    fn closed_loop_runs_whole_cycles_per_slice() {
        let mut calls = Vec::new();
        let plan = Plan {
            warmup_s: 0.002,
            slices: 3,
            slice_s: 0.004,
        };
        let slices = closed_loop(plan, 3, |i| {
            calls.push(i);
            if i == 1 {
                Err(())
            } else {
                Ok(1_000 + i as u64)
            }
        });
        assert_eq!(slices.len(), 3);
        assert_eq!(calls.len() % 3, 0);
        for slice in &slices[1..] {
            assert_eq!(slice.attempted % 3, 0);
            assert_eq!(slice.failed * 3, slice.attempted);
            assert_eq!(slice.latencies_ns.len() as u64 * 3, slice.attempted * 2);
        }
        // Warm-up operations are not sampled; their failures are counted.
        let attempted: u64 = slices.iter().map(|s| s.attempted).sum();
        assert!((attempted as usize) < calls.len());
        assert!(slices[0].failed * 3 > slices[0].attempted);
    }

    #[test]
    fn measured_pools_samples_and_takes_the_median_slice_rate() {
        let slice = |latencies: &[u64]| {
            let mut raw = Raw::default();
            for &ns in latencies {
                raw.record(Ok(ns));
            }
            raw
        };
        // Slice rates 1e9/100, 1e9/200, 1e9/1000 per ns-mean: median is
        // the middle slice's; the stalled sample stays in the pool.
        let m = Measured::from_slices(vec![
            slice(&[100, 100]),
            slice(&[200, 200]),
            slice(&[100, 1_900]),
        ]);
        assert_eq!(m.latencies_ns, vec![100, 100, 100, 200, 200, 1_900]);
        assert!((m.rate - 5e6).abs() < 1.0);
        assert_eq!(m.latency_us(0.50), 0.1);
        assert_eq!(m.latency_us(0.95), 1.9);
        assert_eq!((m.attempted, m.failed), (6, 0));
    }

    #[test]
    fn open_loop_times_from_due_and_skips_the_warm_up() {
        let plan = Plan {
            warmup_s: 0.004,
            slices: 2,
            slice_s: 0.008,
        };
        let run = open_loop(Instant::now(), 1_000.0, plan, 4, 2, |_| Ok(()));
        assert_eq!((run.raw.attempted, run.raw.failed), (16, 0));
        assert_eq!(run.send_lag_ns.len(), 16);
        assert_eq!(run.raw.latencies_ns.len(), 16);
        assert!(run.raw.busy_ns >= 15_000_000);
    }
}
