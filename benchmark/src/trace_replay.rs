//! `trace_replay` — a generated access trace parsed and replayed into
//! long-lived planning sessions with layout churn.
//!
//! Set-up generates a `TraceSpec` trace of [`RECORDS`] records from the
//! workload seed (default shape: Zipf 1.1 over 8 datasets × 640 chunks,
//! diurnal swing, one flash crowd) and writes it as text. The timed
//! loop repeats passes of `parse_text_with_threads` (one thread per
//! hardware thread) followed by `replay_local` with churn on. This is the
//! only workload that exercises the `trace` parser and session repair at
//! a high rate; it bypasses the network and `simio`.

use crate::report::Report;
use crate::spans::{now, Span, Tracer};
use crate::stats::{median, Summary};
use crate::{mix, Run};
use opass_serve::{replay_local, ReplayConfig, ReplayReport};
use opass_trace::{generate_text, parse_text, parse_text_with_threads, TraceRecord, TraceSpec};

/// Records in the generated trace.
pub const RECORDS: u64 = 2_000_000;

/// The replay configuration: `replay_local`'s defaults (64 nodes, r=3,
/// 4096-record batches) with churn on.
fn replay_config(seed: u64) -> ReplayConfig {
    ReplayConfig {
        seed: mix(seed, 0x5EED),
        churn: true,
        ..ReplayConfig::default()
    }
}

/// Generates the trace text from the workload seed.
fn generate(seed: u64) -> String {
    generate_text(&TraceSpec {
        name: "trace_replay".to_string(),
        seed: mix(seed, 0x7ACE),
        records: RECORDS,
        ..TraceSpec::default()
    })
}

struct Pass {
    records: Vec<TraceRecord>,
    report: ReplayReport,
    parse_s: f64,
    replay_s: f64,
}

fn pass(
    text: &str,
    threads: usize,
    config: &ReplayConfig,
    tracer: &mut Tracer,
    n: u64,
) -> Result<Pass, String> {
    let t0 = now();
    let records = tracer
        .span("trace.parse", n, || parse_text_with_threads(text, threads))
        .map_err(|e| format!("parse failed: {e}"))?;
    let t1 = now();
    let report = tracer
        .span("replay.replay_local", n, || replay_local(&records, config))
        .map_err(|e| format!("replay failed: {e}"))?;
    let t2 = now();
    Ok(Pass {
        records,
        report,
        parse_s: (t1 - t0).as_secs_f64(),
        replay_s: (t2 - t1).as_secs_f64(),
    })
}

/// Runs the workload and fills `report`; returns the traced spans.
pub fn run(run: &Run, report: &mut Report) -> Result<Vec<Span>, String> {
    let (text, setup_s) = crate::timed_setup(|| Ok(generate(run.seed)))?;
    report.set("setup_s", setup_s);
    let threads = run.host_threads;
    let config = replay_config(run.seed);
    let mib = text.len() as f64 / f64::from(1 << 20);

    // The first pass is the reference every later pass must repeat: the
    // same records and the same replay fingerprint. A traced run makes it
    // an untraced pass before the timed loop, for the tracing overhead.
    let mut reference: Option<Pass> = None;
    let mut calibration_s = 0.0;
    if run.trace {
        let p = pass(&text, threads, &config, &mut Tracer::new(false, now()), 0)?;
        calibration_s = p.parse_s + p.replay_s;
        reference = Some(p);
    }
    let min_passes = if run.trace { 1 } else { 2 };

    let mut tracer = Tracer::new(run.trace, now());
    let root = tracer.begin("run", 0);
    let (mut parse_ms, mut replay_ms, mut per_plan_ms) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = now();
    let mut passes = 0u64;
    while passes < min_passes || t0.elapsed().as_secs_f64() < run.seconds {
        passes += 1;
        let p = pass(&text, threads, &config, &mut tracer, passes)?;
        parse_ms.push(p.parse_s * 1e3);
        replay_ms.push(p.replay_s * 1e3);
        per_plan_ms.push((p.parse_s + p.replay_s) * 1e3 / p.report.digests.len().max(1) as f64);
        let Some(first) = &reference else {
            reference = Some(p);
            continue;
        };
        tracer.span("loadgen.check", passes, || {
            report.check(p.records == first.records, || {
                format!("pass {passes}: the {threads}-thread parse changed")
            });
            report.check(p.report.fingerprint() == first.report.fingerprint(), || {
                format!("pass {passes}: replay fingerprint changed")
            });
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.end(root);
    let first = reference.expect("at least one pass ran");
    let fingerprint = first.report.fingerprint();

    // The parallel parse must equal the sequential one.
    let sequential = parse_text(&text).map_err(|e| format!("sequential parse failed: {e}"))?;
    report.check(sequential == first.records, || {
        format!("the {threads}-thread parse differs from the 1-thread parse")
    });

    let plan = Summary::of(&per_plan_ms);
    report.set("plan_p50_ms", plan.p50);
    report.set("plan_mean_ms", plan.mean);
    // The fastest pass: on a shared host the machine's speed swings
    // within seconds, and the fastest pass is the one that ran while it
    // was least contended.
    let fastest_s = parse_ms
        .iter()
        .zip(&replay_ms)
        .map(|(p, r)| (p + r) / 1e3)
        .fold(f64::INFINITY, f64::min);
    report.set("throughput_per_s", RECORDS as f64 / fastest_s);
    report.set("local_frac", first.report.mean_session_locality);
    let parse = median(&parse_ms);
    report.set("trace.parse_ms", parse);
    report.set("trace.parse_mib_per_s", mib / (parse / 1e3));
    report.set("replay.ms", median(&replay_ms));
    report.set("replay.batches", first.report.batches as f64);
    report.set("replay.migrations", first.report.migrations as f64);
    if run.trace {
        report.set(
            "tracing.overhead_frac",
            wall_s / passes as f64 / calibration_s - 1.0,
        );
    }

    report.note("records", RECORDS);
    report.note("trace_mib", mib);
    report.note("parse_threads", threads);
    report.note("replay_nodes", config.n_nodes);
    report.note("batch_records", config.batch_records);
    report.note("plan_steps_per_pass", first.report.digests.len());
    report.note("passes", passes);
    report.note("fingerprint", format!("{fingerprint:016x}"));
    Ok(tracer.into_spans())
}
