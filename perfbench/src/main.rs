//! End-to-end and per-layer benchmark of the AdaFlow stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine|wire|des|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload calls the program only through its public API, checks
//! every answer against a computation made apart from the program, and
//! prints human-readable lines followed by one JSON object as the last
//! line of standard output. With `--trace 0` the object holds the
//! end-to-end metrics of the workload, measured untraced; with `--trace 1`
//! it holds every per-layer metric (all three layer families are traced,
//! each for a third of the run). See `perfbench/README.md`.

mod des;
mod engine;
mod loadgen;
mod reference;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Run parameters shared by every workload.
#[derive(Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
}

/// SplitMix64: the benchmark's own input generator, so inputs depend only
/// on the seed and never on the program's random number code.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it: returns
/// `(percentile, value)`. Needs at least forty samples to be a tail at all.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    (n >= 40).then(|| (100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn usage() -> String {
    "usage: perfbench --workload engine|wire|des|all --seed N --seconds S --trace 0|1".to_string()
}

fn parse_args() -> Result<(String, Params, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(usage)?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
        i += 2;
    }
    let workload = workload.ok_or_else(usage)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    Ok((workload, Params { seed, seconds }, trace))
}

fn run_workload(name: &str, params: Params, trace: bool) -> Result<Outcome, String> {
    if trace {
        // The traced run covers every layer family, whichever workload
        // was named, so it prints every per-layer metric.
        let third = Params {
            seconds: params.seconds / 3.0,
            ..params
        };
        let mut out = Outcome::default();
        out.absorb(engine::traced(third)?);
        out.absorb(wire::traced(third)?);
        out.absorb(des::traced(third)?);
        return Ok(out);
    }
    let mut out = match name {
        "engine" => engine::run(params)?,
        "wire" => wire::run(params)?,
        "des" => des::run(params)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (engine | wire | des | all)"
            ))
        }
    };
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    Ok(out)
}

fn json_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed
    ))
}

/// Environment variables through which a user pins the kernel crossovers.
const PLAN_VARS: [&str; 2] = ["ADAFLOW_GEMM_MIN_K", "ADAFLOW_PACKED_MIN_ROWS"];
/// Fresh processes asked for their measured crossovers.
const PLAN_PROBES: usize = 9;

/// Settles the kernel plan every engine in this run uses.
///
/// `kernel_thresholds()` is measured once per process, and on a noisy
/// host the measurement does not repeat: the same binary draws different
/// crossovers, and so a different plan for conv1, in different processes.
/// One process's draw would make every engine figure bimodal across runs.
/// Instead `PLAN_PROBES` fresh processes each report their draw, and this
/// process adopts the most common one — the plan most users of this host
/// get. Crossovers a user already pinned are left alone.
fn settle_plan() -> Result<(), String> {
    if PLAN_VARS.iter().any(|v| std::env::var_os(v).is_some()) {
        println!("  kernel crossovers pinned by the environment; not probing");
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut draws: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for _ in 0..PLAN_PROBES {
        let output = std::process::Command::new(&exe)
            .arg("--probe-thresholds")
            .output()
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<usize>);
        match (output.status.success(), fields.next(), fields.next()) {
            (true, Some(Ok(k)), Some(Ok(rows))) => *draws.entry((k, rows)).or_default() += 1,
            _ => return Err(format!("threshold probe failed: {text}")),
        }
    }
    let mode = |pick: fn(&(usize, usize)) -> usize| {
        let mut votes: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        for (draw, n) in &draws {
            *votes.entry(pick(draw)).or_default() += n;
        }
        votes
            .into_iter()
            .max_by_key(|&(value, n)| (n, std::cmp::Reverse(value)))
            .map(|(value, _)| value)
            .expect("probes ran")
    };
    let (k, rows) = (mode(|d| d.0), mode(|d| d.1));
    let seen: Vec<String> = draws
        .iter()
        .map(|((k, r), n)| format!("{n}x(gemm_min_k {k}, packed_min_rows {r})"))
        .collect();
    println!("  crossover draws over {PLAN_PROBES} processes: {}; adopting gemm_min_k {k}, packed_min_rows {rows}", seen.join(", "));
    std::env::set_var(PLAN_VARS[0], k.to_string());
    std::env::set_var(PLAN_VARS[1], rows.to_string());
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--probe-thresholds") {
        let t = adaflow_nn::kernel_thresholds();
        println!("{} {}", t.gemm_min_k, t.packed_min_rows);
        return ExitCode::SUCCESS;
    }
    let (workload, params, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if workload == "all" && !trace {
        vec!["engine", "wire", "des"]
    } else {
        vec![workload.as_str()]
    };
    if let Err(e) = settle_plan() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut total = Outcome::default();
    for name in &names {
        let out = match run_workload(name, params, trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "== {name} (seed {}, {} s, trace {}): attempted {}, failed {}",
            params.seed,
            params.seconds,
            u8::from(trace),
            out.attempted,
            out.failed
        );
        for m in &out.metrics {
            println!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
        for e in &out.errors {
            println!("  CHECK FAILED: {e}");
        }
        if names.len() > 1 {
            for m in out.metrics {
                total.metrics.push(Metric {
                    name: format!("{name}.{}", m.name),
                    ..m
                });
            }
            total.attempted += out.attempted;
            total.failed += out.failed;
            total.errors.extend(out.errors);
        } else {
            total = out;
        }
    }
    match json_line(&total) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
