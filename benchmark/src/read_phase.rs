//! `read_phase` — the paper's §V parallel read phases, planned cold
//! in-process and executed on the simulator.
//!
//! A batch of jobs is built from the workload seed on a 128-node, r=3
//! cluster at 10 tasks per process: single-data jobs (max-flow
//! matching), multi-input jobs (Algorithm 1 over 30/20/10 MB inputs) and
//! dynamic jobs (the guided scheduler over log-normal compute times).
//! Each job is planned with `OpassPlanner::plan` and its read phase run
//! through `runtime::execute`. The timed loop repeats whole passes over
//! the batch. This is the only workload that reaches the cold solvers in
//! `matching` and the `simio` engine; it bypasses `serve` and `trace`.

use crate::report::Report;
use crate::spans::{now, Tracer};
use crate::stats::{median, Summary};
use crate::{mix, Run};
use opass_core::dfs::{DfsConfig, Namenode, Placement, DEFAULT_CHUNK_SIZE};
use opass_core::matching::Assignment;
use opass_core::runtime::{execute, ExecConfig, ProcessPlacement, RunResult, TaskSource};
use opass_core::workloads::{
    dynamic, multi, single, DynamicConfig, MultiDataConfig, SingleDataConfig, Workload,
};
use opass_core::{OpassPlanner, PlanRequest};
use opass_json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cluster size (one process per node).
pub const NODES: usize = 128;
/// Replication factor.
pub const REPLICATION: u32 = 3;
/// Tasks per process; a job has `NODES × TASKS_PER_PROC` tasks.
pub const TASKS_PER_PROC: usize = 10;
/// Untraced passes a traced run times first, for the tracing overhead.
const CALIBRATION_PASSES: usize = 10;
/// The batch, by count: (single-data, multi-input, dynamic) jobs. Chosen
/// so Algorithm 1 takes about a quarter of the wall time: it keeps
/// max-flow and `simio` visible, and Algorithm 1's plan time, the figure
/// most moved by other tenants' load on a shared host, does not dominate.
pub const MIX: (usize, usize, usize) = (40, 1, 20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Single,
    Multi,
    Dynamic,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Single => "core.plan_single",
            Kind::Multi => "core.plan_multi",
            Kind::Dynamic => "core.plan_dynamic",
        }
    }
}

struct Job {
    kind: Kind,
    seed: u64,
    namenode: Namenode,
    workload: Workload,
}

fn build_job(kind: Kind, seed: u64) -> Job {
    let mut namenode = Namenode::new(
        NODES,
        DfsConfig {
            replication: REPLICATION,
        },
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = NODES * TASKS_PER_PROC;
    let workload = match kind {
        Kind::Single => {
            let config = SingleDataConfig {
                n_procs: NODES,
                chunks_per_process: TASKS_PER_PROC,
                chunk_size: DEFAULT_CHUNK_SIZE,
            };
            single::generate(&mut namenode, &config, &Placement::Random, &mut rng).1
        }
        Kind::Multi => {
            let config = MultiDataConfig {
                n_tasks: tasks,
                ..MultiDataConfig::default()
            };
            multi::generate(&mut namenode, &config, &Placement::Random, &mut rng).1
        }
        Kind::Dynamic => {
            let config = DynamicConfig {
                n_tasks: tasks,
                ..DynamicConfig::default()
            };
            dynamic::generate(&mut namenode, &config, &Placement::Random, &mut rng).1
        }
    };
    Job {
        kind,
        seed,
        namenode,
        workload,
    }
}

/// Builds the batch from the workload seed.
fn build_batch(seed: u64) -> Vec<Job> {
    let (s, m, d) = MIX;
    let kinds = std::iter::repeat_n(Kind::Single, s)
        .chain(std::iter::repeat_n(Kind::Multi, m))
        .chain(std::iter::repeat_n(Kind::Dynamic, d));
    kinds
        .enumerate()
        .map(|(i, kind)| build_job(kind, mix(seed, i as u64 + 1)))
        .collect()
}

/// The deterministic outcome of one job; equal on every pass.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    matched_files: usize,
    filled_files: usize,
    makespan_bits: u64,
    local_bytes: u64,
    total_bytes: u64,
    reads: u64,
    recompute_passes: u64,
    flows_rerated: u64,
    eta_pushed: u64,
    eta_stale: u64,
}

/// Wall times of one job, seconds.
struct Timing {
    plan_s: f64,
    execute_s: f64,
}

/// Checks that a static assignment is valid for its workload: one owner
/// per task, every owner a real process, loads balanced.
fn check_assignment(a: &Assignment, workload: &Workload) -> Result<(), String> {
    if a.n_tasks() != workload.len() || a.n_procs() != NODES {
        return Err(format!(
            "assignment covers {} tasks on {} procs, workload has {} tasks on {NODES}",
            a.n_tasks(),
            a.n_procs(),
            workload.len()
        ));
    }
    if a.owners().iter().any(|&p| p >= NODES) {
        return Err("assignment names a process past the cluster".to_string());
    }
    if !a.is_balanced() {
        return Err(format!("assignment load spread {}", a.load_spread()));
    }
    Ok(())
}

/// Checks that the simulated read phase read every input of every task
/// exactly once.
fn check_run(result: &RunResult, workload: &Workload) -> Result<(), String> {
    let mut reads = vec![0usize; workload.len()];
    for r in &result.records {
        let task = workload
            .tasks
            .get(r.task)
            .ok_or_else(|| format!("read of unknown task {}", r.task))?;
        if !task.inputs.contains(&r.chunk) {
            return Err(format!(
                "task {} read chunk {:?} it does not own",
                r.task, r.chunk
            ));
        }
        reads[r.task] += 1;
    }
    match workload
        .tasks
        .iter()
        .zip(&reads)
        .position(|(t, &n)| n != t.inputs.len())
    {
        Some(task) => Err(format!(
            "task {task} read {} of its {} inputs",
            reads[task],
            workload.tasks[task].inputs.len()
        )),
        None => Ok(()),
    }
}

fn run_job(
    job: &Job,
    placement: &ProcessPlacement,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(Outcome, Timing), String> {
    let planner = OpassPlanner::default();
    let (nn, wl) = (&job.namenode, &job.workload);
    let t0 = now();
    let span = tracer.begin(job.kind.span(), request);
    let outcome = match job.kind {
        Kind::Single => planner.plan(&PlanRequest::single(nn, wl, placement).seed(job.seed)),
        Kind::Multi => planner.plan(&PlanRequest::multi(nn, wl, placement).seed(job.seed)),
        Kind::Dynamic => planner.plan(&PlanRequest::dynamic(nn, wl, placement).seed(job.seed)),
    };
    tracer.end(span);
    let t1 = now();
    let check = tracer.begin("loadgen.check", request);
    let (source, matched_files, filled_files) = match job.kind {
        Kind::Single => {
            let plan = outcome
                .into_single()
                .ok_or("single-data request gave another plan kind")?;
            check_assignment(&plan.assignment, wl)?;
            (
                TaskSource::Static(plan.assignment),
                plan.matched_files,
                plan.filled_files,
            )
        }
        Kind::Multi => {
            let plan = outcome
                .into_multi()
                .ok_or("multi-input request gave another plan kind")?;
            check_assignment(&plan.assignment, wl)?;
            (TaskSource::Static(plan.assignment), 0, 0)
        }
        Kind::Dynamic => {
            let sched = outcome
                .into_dynamic()
                .ok_or("dynamic request gave another plan kind")?;
            (TaskSource::Dynamic(Box::new(sched)), 0, 0)
        }
    };
    tracer.end(check);
    let t2 = now();
    let span = tracer.begin("simio.execute", request);
    let config = ExecConfig {
        seed: job.seed,
        ..ExecConfig::default()
    };
    let result = execute(nn, wl, placement, source, &config);
    tracer.end(span);
    let t3 = now();
    let check = tracer.begin("loadgen.check", request);
    check_run(&result, wl)?;
    let (mut local_bytes, mut total_bytes) = (0u64, 0u64);
    for r in &result.records {
        total_bytes += r.bytes;
        if r.source == r.reader {
            local_bytes += r.bytes;
        }
    }
    tracer.end(check);
    let e = result.engine;
    Ok((
        Outcome {
            matched_files,
            filled_files,
            makespan_bits: result.makespan.to_bits(),
            local_bytes,
            total_bytes,
            reads: result.records.len() as u64,
            recompute_passes: e.recompute_passes,
            flows_rerated: e.flows_rerated,
            eta_pushed: e.eta_pushed,
            eta_stale: e.eta_stale,
        },
        Timing {
            plan_s: (t1 - t0).as_secs_f64(),
            execute_s: (t3 - t2).as_secs_f64(),
        },
    ))
}

/// Plan and execute wall times gathered over the timed passes.
#[derive(Default)]
struct Samples {
    plan_ms: Vec<f64>,
    /// Per pass: its wall time and its plan calls' median and mean, ms.
    pass_ms: Vec<f64>,
    pass_plan: Vec<Summary>,
    plan_ms_by_kind: [Vec<f64>; 3],
    execute_ms: Vec<f64>,
}

/// One pass over the batch; each job's outcome must equal `expected`.
fn pass(
    batch: &[Job],
    placement: &ProcessPlacement,
    expected: &[Outcome],
    tracer: &mut Tracer,
    samples: &mut Samples,
    report: &mut Report,
) {
    let t = now();
    let first_plan = samples.plan_ms.len();
    for (i, (job, want)) in batch.iter().zip(expected).enumerate() {
        match run_job(job, placement, tracer, i as u64) {
            Ok((got, timing)) => {
                report.check(got == *want, || {
                    format!("job {i}: outcome changed between passes: {got:?} vs {want:?}")
                });
                samples.plan_ms.push(timing.plan_s * 1e3);
                samples.plan_ms_by_kind[job.kind as usize].push(timing.plan_s * 1e3);
                samples.execute_ms.push(timing.execute_s * 1e3);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("job {i}: {e}"));
            }
        }
    }
    samples.pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let plans = Summary::of(&samples.plan_ms[first_plan..]);
    samples.pass_plan.push(plans);
}

/// Runs the workload and fills `report`; returns the traced spans.
pub fn run(run: &Run, report: &mut Report) -> Result<Vec<crate::spans::Span>, String> {
    let (batch, setup_s) = crate::timed_setup(|| Ok(build_batch(run.seed)))?;
    report.set("setup_s", setup_s);
    let placement = ProcessPlacement::one_per_node(NODES);

    // Warm-up pass, untimed: checks every job once and records the
    // deterministic outcomes later passes must repeat.
    let mut off = Tracer::new(false, now());
    let mut expected = Vec::with_capacity(batch.len());
    for (i, job) in batch.iter().enumerate() {
        let (outcome, _) =
            run_job(job, &placement, &mut off, i as u64).map_err(|e| format!("job {i}: {e}"))?;
        report.attempted += 1;
        expected.push(outcome);
    }

    // A traced run first times a few passes untraced, for the tracing
    // overhead.
    let mut samples = Samples::default();
    let mut untraced = Samples::default();
    if run.trace {
        for _ in 0..CALIBRATION_PASSES {
            pass(
                &batch,
                &placement,
                &expected,
                &mut off,
                &mut untraced,
                report,
            );
        }
    }

    // Timed loop: whole passes until the time is up.
    let mut tracer = Tracer::new(run.trace, now());
    let root = tracer.begin("run", 0);
    let mut passes = 0usize;
    let t0 = now();
    while passes == 0 || t0.elapsed().as_secs_f64() < run.seconds {
        pass(
            &batch,
            &placement,
            &expected,
            &mut tracer,
            &mut samples,
            report,
        );
        passes += 1;
    }
    tracer.end(root);

    // The figures of the fastest pass. On a shared host the machine's
    // speed swings by up to 1.6x within seconds; the fastest of the run's
    // ~100 passes is the one that ran while it was uncontended, and it
    // holds still from run to run where the median pass does not.
    let best = samples
        .pass_ms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .ok_or("no pass ran")?;
    report.set("plan_p50_ms", samples.pass_plan[best].p50);
    report.set("plan_mean_ms", samples.pass_plan[best].mean);
    report.set(
        "throughput_per_s",
        batch.len() as f64 / (samples.pass_ms[best] / 1e3),
    );
    let local: u64 = expected.iter().map(|o| o.local_bytes).sum();
    let total: u64 = expected.iter().map(|o| o.total_bytes).sum();
    report.set("local_frac", local as f64 / total.max(1) as f64);

    for (kind, name) in [
        (Kind::Single, "core.plan_single_ms"),
        (Kind::Multi, "core.plan_multi_ms"),
        (Kind::Dynamic, "core.plan_dynamic_ms"),
    ] {
        report.set(name, median(&samples.plan_ms_by_kind[kind as usize]));
    }
    let singles = || {
        batch
            .iter()
            .zip(&expected)
            .filter(|(j, _)| j.kind == Kind::Single)
    };
    let matched: usize = singles().map(|(_, o)| o.matched_files).sum();
    let tasks: usize = singles().map(|(j, _)| j.workload.len()).sum();
    report.set("core.matched_frac", matched as f64 / tasks.max(1) as f64);
    let sum = |f: fn(&Outcome) -> u64| expected.iter().map(f).sum::<u64>();
    report.set("core.filled_files", sum(|o| o.filled_files as u64) as f64);
    report.set("simio.execute_ms", median(&samples.execute_ms));
    report.set("simio.reads", sum(|o| o.reads) as f64);
    report.set("simio.recompute_passes", sum(|o| o.recompute_passes) as f64);
    report.set("simio.flows_rerated", sum(|o| o.flows_rerated) as f64);
    report.set(
        "simio.eta_stale_ratio",
        sum(|o| o.eta_stale) as f64 / sum(|o| o.eta_pushed).max(1) as f64,
    );
    let makespans: f64 = expected
        .iter()
        .map(|o| f64::from_bits(o.makespan_bits))
        .sum();
    report.set("simio.makespan_s", makespans / expected.len() as f64);
    if run.trace {
        report.set(
            "tracing.overhead_frac",
            median(&samples.pass_ms) / median(&untraced.pass_ms) - 1.0,
        );
    }

    let (s, m, d) = MIX;
    report.note("nodes", NODES);
    report.note("replication", REPLICATION);
    report.note("tasks_per_job", NODES * TASKS_PER_PROC);
    report.note(
        "job_mix",
        Json::object([
            ("single".to_string(), Json::from(s)),
            ("multi".to_string(), Json::from(m)),
            ("dynamic".to_string(), Json::from(d)),
        ]),
    );
    report.note("passes", passes);
    report.note("plan_samples", samples.plan_ms.len());
    report.note("fastest_pass_ms", samples.pass_ms[best]);
    report.note("median_pass_ms", median(&samples.pass_ms));
    Ok(tracer.into_spans())
}
