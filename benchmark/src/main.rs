//! `opass-benchmark` — the repository benchmark.
//!
//! ```text
//! opass-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (`read_phase`, `trace_replay`, `serve_hot`,
//! `serve_churn`) on inputs generated from `--seed`, measures it for
//! `--seconds`, checks its outputs, and prints the metric table, a
//! detail line (host, sizes, sample counts) and, last, the contract line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones
//! from a traced run, whose spans are written to
//! `$CARGO_TARGET_DIR/opass-bench/spans-<workload>.jsonl`
//! (`target/` when the variable is unset). See `DESIGN.md`.

mod read_phase;
mod report;
mod serve_load;
mod spans;
mod stats;
mod trace_replay;

use opass_json::Json;
use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["read_phase", "trace_replay", "serve_hot", "serve_churn"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// How long the timed part measures, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Hardware threads of the host.
    pub host_threads: usize,
}

/// SplitMix64 of `seed ^ salt`: independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs set-up [`SETUP_REPS`] times and returns the last result with the
/// median set-up time in seconds. Earlier results are dropped after the
/// next one is timed.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = spans::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("set-up never ran")?;
    Ok((value, stats::median(&times)))
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

struct Args {
    workload: String,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    Ok(Args {
        workload,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            host_threads,
        },
    })
}

fn spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("opass-bench")
        .join(format!("spans-{workload}.jsonl"))
}

/// The per-layer self-time table from the traced spans, in ms.
fn set_self_times(report: &mut Report, spans: &[spans::Span]) {
    let (by_layer, wall_ns) = spans::self_times(spans);
    for (layer, ns) in spans::LAYERS.iter().zip(by_layer) {
        let name = report::PER_LAYER
            .iter()
            .find(|d| d.name == format!("self.{layer}_ms"))
            .expect("every layer has a self-time metric")
            .name;
        report.set(name, ns as f64 / 1e6);
    }
    report.set("traced.wall_ms", wall_ns as f64 / 1e6);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: opass-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = &args.run;
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "read_phase" => read_phase::run(run, &mut report),
        "trace_replay" => trace_replay::run(run, &mut report),
        "serve_hot" => serve_load::run(run, false, &mut report),
        _ => serve_load::run(run, true, &mut report),
    };
    let spans = match result {
        Ok(spans) => spans,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match peak_rss_mib() {
        Ok(mib) => report.set("peak_rss_mib", mib),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let attempted = report.attempted.max(1);
    report.set("ok_frac", 1.0 - report.failed as f64 / attempted as f64);

    let schema = if run.trace {
        set_self_times(&mut report, &spans);
        let path = spans_path(&args.workload);
        match spans::write_jsonl(&path, &spans) {
            Ok(()) => report.note("spans_file", path.display().to_string()),
            Err(e) => {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        report.note("spans", spans.len());
        PER_LAYER
    } else {
        END_TO_END
    };
    report.note("workload", args.workload.as_str());
    report.note("seed", run.seed);
    report.note("seconds", run.seconds);
    report.note("traced", run.trace);
    report.note("host_threads", run.host_threads);
    report.note(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    println!(
        "{} seed={} seconds={} trace={} host_threads={}",
        args.workload, run.seed, run.seconds, run.trace, run.host_threads
    );
    print!("{}", report.table(schema));
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    println!(
        "{}",
        Json::object([("detail".to_string(), Json::object(report.detail.clone()))]).to_compact()
    );
    println!("{}", report.contract_line(schema));
    ExitCode::SUCCESS
}
