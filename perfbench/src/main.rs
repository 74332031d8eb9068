//! `xks-perfbench` — the repository's one benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf100-disk --seed 2009 --seconds 10 --trace 0
//! ```
//!
//! One invocation with `--workload <name>` is one workload in this
//! process: it builds its inputs from `--seed`, passes the correctness
//! gate, measures for about `--seconds`, and prints every metric by
//! name and unit, then — as the last line — one JSON object with the
//! keys `correct`, `attempted`, `failed`, `metrics`. `--trace 0` prints
//! the end-to-end metrics (tracing off); `--trace 1` runs the layer
//! ladder and the traced slice, prints the per-layer metrics, and
//! writes `<target>/benchmark/<workload>.trace.json`.
//!
//! `--workload all` (the default), `--smoke`, `--check` and
//! `--repeat N` re-run this binary once per workload and mode, so each
//! workload always has a process — and a peak RSS — of its own.
//! See `perfbench/README.md`.

mod corpus;
mod harness;
mod http;
mod ingest;
mod inproc;
mod layers;
mod metrics;
mod spans;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use xks_store::json::{self, Value};

use harness::Measured;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};

/// Seed used when `--seed` is not given (the harness seed of the
/// Figure 5/6 reproduction).
const DEFAULT_SEED: u64 = 2009;
/// Schema id of everything this binary writes.
const SCHEMA: &str = "xks-perfbench/1";

/// The five workloads: name, and why it exists (the one-line reasons
/// are repeated in `BENCHMARK.json`).
const WORKLOADS: &[&str] = &[
    "paper43-mem",
    "zipf100-disk",
    "uniform10-http-fresh",
    "uniform10-http-keepalive",
    "ingest-mixed",
];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Smoke run: one set-up, one slice, few cold repetitions.
    pub smoke: bool,
}

impl RunConfig {
    /// Whether to set up once more: three times at least, and on while
    /// less than two seconds have gone into it (nine times at most), so
    /// the cheap set-ups get the most repetitions. `setup_s` is the
    /// median. A smoke run sets up once.
    pub fn set_up_again(&self, setups: &[f64]) -> bool {
        let (least, most) = if self.smoke { (1, 1) } else { (3, 9) };
        setups.len() < least || (setups.len() < most && setups.iter().sum::<f64>() < 2.0)
    }

    /// How the measured loop of a static workload spends `seconds`: a
    /// warm-up then five slices; a smoke run is one short stretch.
    pub fn plan(&self) -> harness::Plan {
        if self.smoke {
            harness::Plan::stretch(self.seconds)
        } else {
            harness::Plan::sliced(self.seconds)
        }
    }

    /// Fewest cold passes over the query list behind
    /// `e2e.cold_query_ms`.
    pub fn cold_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Where the traced run's spans go.
    pub fn trace_path(&self) -> PathBuf {
        harness::output_dir().join(format!("{}.trace.json", self.workload))
    }

    /// The one JSON envelope: schema id, git revision, `nproc`, seed,
    /// workload.
    pub fn envelope(&self) -> BTreeMap<String, Value> {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        validrtf::wire::obj([
            ("schema", Value::Str(SCHEMA.to_owned())),
            ("git_rev", Value::Str(git_rev())),
            ("nproc", Value::Num(nproc as u64)),
            ("seed", Value::Num(self.seed)),
            ("workload", Value::Str(self.workload.to_owned())),
            ("seconds", Value::Float(self.seconds)),
        ])
    }
}

/// `git rev-parse --short HEAD`, or `unknown` outside a repository (the
/// driver's checkout is not one).
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    values: Values,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// Bundles the metric values with the run's operation tally.
    pub fn new(values: Values, attempted: u64, failed: u64) -> Self {
        Outcome {
            values,
            attempted: attempted.max(1),
            failed,
        }
    }

    /// The end-to-end outcome every workload reports the same way.
    /// Call it right after the measured loop: `rss_peak_mb` is read here.
    pub fn end_to_end(measured: &Measured, mut setups: Vec<f64>) -> Self {
        let mut values = Values::default();
        values.set_n("setup_s", harness::median(&mut setups), setups.len());
        let n = measured.latencies_ns.len();
        println!("# slice rates, 1/s: {:.1?}", measured.slice_rates);
        println!(
            "# latency us, p50/p75/p90/p95/p99/max: {:.0?}",
            [0.50, 0.75, 0.90, 0.95, 0.99, 1.0].map(|p| measured.latency_us(p))
        );
        values.set_n("qps", measured.rate, n);
        values.set_n("p50_us", measured.latency_us(0.50), n);
        values.set_n("p95_us", measured.latency_us(0.95), n);
        values.set("rss_peak_mb", harness::rss_peak_mb());
        Outcome::new(values, measured.attempted, measured.failed)
    }
}

fn run_workload(cfg: &RunConfig, traced: bool) -> Outcome {
    use http::Mode;
    use inproc::Kind;
    match (cfg.workload, traced) {
        ("paper43-mem", false) => inproc::end_to_end(Kind::Paper43Mem, cfg),
        ("paper43-mem", true) => inproc::per_layer(Kind::Paper43Mem, cfg),
        ("zipf100-disk", false) => inproc::end_to_end(Kind::Zipf100Disk, cfg),
        ("zipf100-disk", true) => inproc::per_layer(Kind::Zipf100Disk, cfg),
        ("uniform10-http-fresh", false) => http::end_to_end(Mode::Fresh, cfg),
        ("uniform10-http-fresh", true) => http::per_layer(Mode::Fresh, cfg),
        ("uniform10-http-keepalive", false) => http::end_to_end(Mode::KeepAlive, cfg),
        ("uniform10-http-keepalive", true) => http::per_layer(Mode::KeepAlive, cfg),
        ("ingest-mixed", false) => ingest::end_to_end(cfg),
        ("ingest-mixed", true) => ingest::per_layer(cfg),
        _ => unreachable!("workload names are validated by the argument parser"),
    }
}

/// Prints every metric of `catalogue` by name with its unit and sample
/// count, then the result line. Returns false when the run is not
/// correct: a failed operation, a missing end-to-end metric, or a
/// metric the catalogue does not declare.
fn report(cfg: &RunConfig, traced: bool, outcome: &Outcome) -> bool {
    let catalogue: &[MetricDef] = if traced { PER_LAYER } else { END_TO_END };
    println!(
        "# {SCHEMA} workload={} seed={} seconds={} trace={} git={} nproc={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(traced),
        git_rev(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    );
    let mut metrics = BTreeMap::new();
    let mut complete = true;
    for def in catalogue {
        // A per-layer metric off this workload's path reads 0; an
        // end-to-end metric must always be measured.
        let value = outcome.values.get(def.name).unwrap_or_else(|| {
            complete &= traced;
            0.0
        });
        let samples = outcome
            .values
            .samples
            .get(def.name)
            .map_or_else(String::new, |n| format!("  (n={n})"));
        println!("{:<42} {:>16.4} {}{samples}", def.name, value, def.unit);
        metrics.insert(
            def.name.to_owned(),
            Value::Obj(validrtf::wire::obj([
                ("value", Value::Float(value)),
                ("unit", Value::Str(def.unit.to_owned())),
            ])),
        );
    }
    let undeclared = outcome.values.undeclared(catalogue);
    if !undeclared.is_empty() {
        eprintln!("perfbench: undeclared metrics emitted: {undeclared:?}");
    }
    let correct = complete && undeclared.is_empty() && outcome.failed == 0;
    println!(
        "{}",
        json::to_string(&Value::Obj(validrtf::wire::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(outcome.attempted)),
            ("failed", Value::Num(outcome.failed)),
            ("metrics", Value::Obj(metrics)),
        ])))
    );
    correct
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    check: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        check: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name or `all`")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    other => Some(*WORKLOADS.iter().find(|w| **w == other).ok_or(format!(
                        "unknown workload {other:?}; one of {WORKLOADS:?} or all"
                    ))?),
                };
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Seconds measured when `--seconds` is absent.
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        0.6
    } else {
        20.0
    }
}

/// Runs this binary again for one workload and mode, echoing its output,
/// and returns its parsed result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    echo: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    json::parse(last).map_err(|e| format!("{workload}: result line is not JSON: {e}"))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--check`: `BENCHMARK.json` declares exactly the binary's catalogue
/// (name, unit, direction, bound), and every workload emits every
/// declared name in the declared unit and nothing else.
fn check(selected: &[&'static str], seed: u64) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // name -> (unit, better, bound) as the file declares them.
    type Declared = BTreeMap<String, (String, String, Option<f64>)>;
    let declared = |key: &str| -> Result<Declared, String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_owned);
                let bound = m.get("bound").and_then(Value::as_f64);
                match (field("name"), field("unit"), field("better")) {
                    (Some(name), Some(unit), Some(better)) => Ok((name, (unit, better, bound))),
                    _ => Err(format!("{key}: entry without name/unit/better")),
                }
            })
            .collect()
    };
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    if names != WORKLOADS {
        return Err(format!(
            "workloads differ: BENCHMARK.json {names:?}, binary {WORKLOADS:?}"
        ));
    }
    for (key, catalogue, traced) in [
        ("end_to_end", END_TO_END, false),
        ("per_layer", PER_LAYER, true),
    ] {
        let declared = declared(key)?;
        let built_in: Declared = catalogue
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let declared = (d.unit.to_owned(), better.to_owned(), d.bound);
                (d.name.to_owned(), declared)
            })
            .collect();
        if declared != built_in {
            return Err(format!(
                "{key}: BENCHMARK.json and the binary's catalogue differ"
            ));
        }
        for workload in selected {
            let result = child(workload, seed, default_seconds(true), traced, true, false)?;
            let emitted = result
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("result line has no metrics")?;
            for (name, (unit, ..)) in &declared {
                let got = emitted
                    .get(name)
                    .and_then(|m| m.get("unit"))
                    .and_then(Value::as_str);
                if got != Some(unit.as_str()) {
                    return Err(format!("{workload}: {name} missing or in the wrong unit"));
                }
            }
            if let Some(extra) = emitted.keys().find(|k| !declared.contains_key(*k)) {
                return Err(format!("{workload}: {extra} is emitted but not declared"));
            }
            println!(
                "check {workload:<26} {key:<10} ok ({} metrics)",
                declared.len()
            );
        }
    }
    Ok(())
}

/// `--repeat N`: N end-to-end runs per workload on seeds `seed..seed+N`,
/// then each metric's spread — interquartile distance over the median,
/// the way the driver computes it — against its bound.
fn repeat(selected: &[&'static str], seed: u64, seconds: f64, n: usize) -> Result<bool, String> {
    let mut steady = true;
    for workload in selected {
        let mut runs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for k in 0..n {
            let result = child(workload, seed + k as u64, seconds, false, false, false)?;
            for def in END_TO_END {
                let v = metric_value(&result, def.name)
                    .ok_or(format!("{workload}: no {}", def.name))?;
                runs.entry(def.name).or_default().push(v);
            }
        }
        for def in END_TO_END {
            let values = &mut runs.get_mut(def.name).expect("filled above")[..];
            let mid = harness::median(values);
            let (q1, q3) = quartiles(values);
            let spread = (q3 - q1) / mid;
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            // `setup_s` is judged on its median only, never its spread.
            let ok = def.name == "setup_s" || spread <= bound;
            steady &= ok;
            println!(
                "repeat {workload:<26} {:<14} median {mid:>12.4} {:<4} spread {:>6.2}% bound {:>4.0}% {}",
                def.name,
                def.unit,
                spread * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "UNSTEADY" },
            );
        }
    }
    Ok(steady)
}

/// First and third quartile of an ascending sample, by the exclusive
/// method of Python's `statistics.quantiles(values, n=4)`.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: xks-perfbench [--workload <name>|all] [--seed N] [--seconds S] \
                 [--trace 0|1] [--smoke] [--check] [--repeat N]"
            );
            return ExitCode::from(64);
        }
    };
    let selected: Vec<&'static str> = args
        .workload
        .map_or_else(|| WORKLOADS.to_vec(), |w| vec![w]);
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.smoke));

    if args.check {
        return match check(&selected, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("perfbench: check failed: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(n) = args.repeat {
        return match repeat(&selected, args.seed, seconds, n.max(2)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("perfbench: {message}");
                ExitCode::FAILURE
            }
        };
    }

    // One named workload with an explicit mode: measure in this process.
    if let (Some(workload), Some(traced)) = (args.workload, args.trace) {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds,
            smoke: args.smoke,
        };
        let outcome = run_workload(&cfg, traced);
        return if report(&cfg, traced, &outcome) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Otherwise: every selected workload, both modes unless one was
    // asked for, each in a fresh process.
    let modes: Vec<bool> = args.trace.map_or_else(|| vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    for workload in &selected {
        for &traced in &modes {
            match child(workload, args.seed, seconds, traced, args.smoke, true) {
                Ok(result) => {
                    all_correct &= result.get("correct") == Some(&Value::Bool(true));
                }
                Err(message) => {
                    eprintln!("perfbench: {message}");
                    all_correct = false;
                }
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
