//! `serve_hot` and `serve_churn` — an in-process `opass serve` driven
//! open-loop over the wire.
//!
//! Set-up starts `serve` at its defaults (one shard per hardware thread,
//! 4 workers, queue 64) on the default `ServeSpec` shape seeded from the
//! workload seed, connects one pipelined connection and warms the plan
//! cache with every key: [`DATASET_SEEDS`] plan seeds for each of the 8
//! datasets. The load is a ladder of fixed offered rates; requests go
//! out on a fixed schedule whether or not earlier replies came back, and
//! each is timed from its due time. Keys are Zipf(1.1)-popular over the
//! datasets and uniform over the seeds.
//!
//! * `serve_hot` sends only plans: nearly every reply is a cache hit, so
//!   it measures the wire (`frame`, `protocol`, `json`), shard routing
//!   and the cache, and bypasses the planner.
//! * `serve_churn` makes every [`WRITE_EVERY`]-th request a write: an
//!   `invalidate{dataset, delta}` migrating one replica, built against
//!   the benchmark's own mirror of the served `World`, and every
//!   [`BARE_EVERY`]-th write a bare `invalidate`. Plans after a write take
//!   the repair or cold path on the worker pool.
//!
//! The load generator is this process alone: [`LOADGEN_THREADS`] thread
//! over [`LOADGEN_CONNS`] connection, and it refuses to run on a host
//! with fewer hardware threads.

use crate::report::Report;
use crate::spans::{now, Span, Tracer};
use crate::stats::{highest_passing, windowed, Rung, Summary};
use crate::{mix, Run};
use opass_core::dfs::{ChunkId, LayoutDelta, NodeId};
use opass_core::{OpassPlanner, PlanRequest};
use opass_json::Json;
use opass_serve::frame::{encode_frame, parse_body, parse_header, MAX_FRAME};
use opass_serve::{
    serve, LatencyBin, PlanReply, Request, Response, ServeSpec, ServerConfig, ServerHandle,
    StatsReply, Strategy, World,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-generator threads: one thread sends on schedule and reads the
/// replies while it waits.
pub const LOADGEN_THREADS: usize = 1;
/// Load-generator connections.
pub const LOADGEN_CONNS: usize = 1;
/// Plan seeds per dataset: keys are `datasets × DATASET_SEEDS`.
pub const DATASET_SEEDS: u64 = 4;
/// Zipf exponent of dataset popularity in the key stream.
pub const ZIPF: f64 = 1.1;
/// `serve_churn`: every this-many-th request is a write.
pub const WRITE_EVERY: usize = 8;
/// `serve_churn`: every this-many-th write is a bare `invalidate`.
pub const BARE_EVERY: usize = 256;
/// The generator abandons a rung once it runs this far behind schedule.
const ABORT_LAG: Duration = Duration::from_millis(500);
/// A reply that takes longer than this is a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// Each rung's latency percentiles are medians over this many windows.
pub const WINDOWS: usize = 10;
/// `serve_churn` checks at most this many computed (repaired or cold)
/// replies against a fresh solve.
const SAMPLE_CAP: usize = 200;

/// A fixed ladder of offered rates with a p90 latency limit.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Offered rates, requests per second, ascending.
    pub rates: &'static [f64],
    /// Index of the reference rate: latency metrics are read there.
    pub reference: usize,
    /// p90 latency limit, ms.
    pub limit_ms: f64,
}

/// Share of a run's time the reference rung gets; the other rungs split
/// the rest evenly.
pub const REFERENCE_SHARE: f64 = 0.5;

impl Ladder {
    /// Requests rung `r` sends in a run of `seconds`.
    pub fn requests(&self, r: usize, seconds: f64) -> usize {
        let share = if r == self.reference {
            REFERENCE_SHARE
        } else {
            (1.0 - REFERENCE_SHARE) / (self.rates.len() - 1) as f64
        };
        (self.rates[r] * seconds * share).round() as usize
    }
}

/// `serve_hot`'s ladder.
pub const HOT: Ladder = Ladder {
    rates: &[2_000.0, 4_000.0, 8_000.0, 32_000.0],
    reference: 2,
    limit_ms: 1.0,
};

/// `serve_churn`'s ladder.
pub const CHURN: Ladder = Ladder {
    rates: &[1_000.0, 2_000.0, 4_000.0, 32_000.0],
    reference: 1,
    limit_ms: 10.0,
};

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
enum Op {
    Plan {
        dataset: usize,
        seed: u64,
    },
    /// The next precomputed write; writes go out strictly in order.
    Write,
}

/// A precomputed write and the generation the server must answer.
struct WriteOp {
    request: Request,
    generation: u64,
}

/// Expected plan for a key at generation 0.
struct Expected {
    owners: Vec<usize>,
    matched_files: usize,
    filled_files: usize,
}

/// The running server plus everything generated from the seed.
struct Setup {
    server: ServerHandle,
    conn: TcpStream,
    spec: ServeSpec,
    /// The warm-up replies, one per key in key order.
    warm: Vec<PlanReply>,
    writes: Vec<WriteOp>,
}

fn spec_for(seed: u64) -> ServeSpec {
    ServeSpec {
        seed: mix(seed, 0x5E17E),
        ..ServeSpec::default()
    }
}

/// Cumulative Zipf weights over `n` datasets.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|d| 1.0 / ((d + 1) as f64).powf(ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Builds the write sequence against the benchmark's own replica table of
/// the served world: replica migrations on Zipf-chosen datasets, every
/// [`BARE_EVERY`]-th a bare flush, each with the generation the server
/// must answer.
fn build_writes(spec: ServeSpec, count: usize, seed: u64) -> Vec<WriteOp> {
    let world = World::new(spec);
    // Per dataset: each chunk's id and replica holders.
    let mut replicas: Vec<Vec<(ChunkId, Vec<NodeId>)>> = (0..spec.n_datasets)
        .map(|d| {
            let layout = world.capture_layout(d).expect("dataset in the spec");
            layout
                .entries()
                .iter()
                .map(|e| (e.chunk, e.locations.clone()))
                .collect()
        })
        .collect();
    let (mut global, mut bumps) = (0u64, vec![0u64; spec.n_datasets]);
    let cdf = zipf_cdf(spec.n_datasets);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xD17A));
    (0..count)
        .map(|w| {
            if w % BARE_EVERY == BARE_EVERY - 1 {
                global += 1;
                return WriteOp {
                    request: Request::Invalidate {
                        dataset: None,
                        delta: None,
                    },
                    generation: global,
                };
            }
            let dataset = pick(&cdf, &mut rng);
            let chunks = &mut replicas[dataset];
            let k = rng.gen_range(0..chunks.len());
            let (chunk, holders) = &mut chunks[k];
            let from = holders[rng.gen_range(0..holders.len())];
            let to = loop {
                let node = NodeId(rng.gen_range(0..spec.n_nodes as u32));
                if !holders.contains(&node) {
                    break node;
                }
            };
            holders.retain(|&n| n != from);
            holders.push(to);
            bumps[dataset] += 1;
            WriteOp {
                request: Request::Invalidate {
                    dataset: Some(dataset),
                    delta: Some(LayoutDelta::migration(*chunk, from, to)),
                },
                generation: global + bumps[dataset],
            }
        })
        .collect()
}

/// Sends one request and reads its reply on an idle connection.
fn call(conn: &mut TcpStream, request: &Request) -> Result<Response, String> {
    let frame = encode_frame(&request.to_json()).map_err(|e| e.to_string())?;
    conn.write_all(&frame).map_err(|e| e.to_string())?;
    let (body, _) = read_frame(conn)?;
    Response::from_json(&parse_body(&body).map_err(|e| e.to_string())?).map_err(|e| e.to_string())
}

/// Reads one frame's body; also returns when its last byte arrived.
fn read_frame(r: &mut impl Read) -> Result<(Vec<u8>, Instant), String> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)
        .map_err(|e| format!("reply header: {e}"))?;
    let len = parse_header(header, MAX_FRAME).map_err(|e| e.to_string())?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| format!("reply body: {e}"))?;
    Ok((body, now()))
}

fn start(run: &Run, churn: bool, ladder: &Ladder) -> Result<Setup, String> {
    let spec = spec_for(run.seed);
    let server = serve(ServerConfig {
        spec,
        ..ServerConfig::default()
    })?;
    let mut conn = TcpStream::connect(server.addr()).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut warm = Vec::new();
    for dataset in 0..spec.n_datasets {
        for seed in 0..DATASET_SEEDS {
            let request = Request::Plan {
                dataset,
                strategy: Strategy::Opass,
                seed,
            };
            match call(&mut conn, &request)? {
                Response::Plan(p) => warm.push(p),
                other => return Err(format!("warm-up plan got {other:?}")),
            }
        }
    }
    let writes = if churn {
        // Enough for every rung plus a traced run's calibration rung.
        let requests: usize = (0..ladder.rates.len())
            .chain([ladder.reference])
            .map(|r| ladder.requests(r, run.seconds))
            .sum();
        build_writes(spec, requests / WRITE_EVERY + 1, run.seed)
    } else {
        Vec::new()
    };
    Ok(Setup {
        server,
        conn,
        spec,
        warm,
        writes,
    })
}

/// In-process plans for every key on a rebuilt world at generation 0.
fn expected_plans(spec: ServeSpec) -> BTreeMap<(usize, u64), Expected> {
    let world = World::new(spec);
    let placement = spec.placement();
    let mut out = BTreeMap::new();
    for dataset in 0..spec.n_datasets {
        let snapshot = world.capture_layout(dataset).expect("dataset in the spec");
        for seed in 0..DATASET_SEEDS {
            let plan = OpassPlanner::default()
                .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(seed))
                .into_single()
                .expect("single-data plan");
            out.insert(
                (dataset, seed),
                Expected {
                    owners: plan.assignment.owners().to_vec(),
                    matched_files: plan.matched_files,
                    filled_files: plan.filled_files,
                },
            );
        }
    }
    out
}

/// A computed (not cached) `serve_churn` reply kept for the
/// fresh-solve check.
struct Sample {
    request: usize,
    reply: PlanReply,
}

/// Everything one rung measured.
#[derive(Default)]
struct RungLog {
    /// (op index, latency from due time, ms) of every plan reply.
    plan_ms: Vec<(usize, f64)>,
    /// Latency from due time of every write reply, ms.
    write_ms: Vec<f64>,
    /// `local_byte_fraction` of every plan reply.
    local_frac: Vec<f64>,
    /// Plan replies by path: cache hit, repaired, computed cold.
    paths: [u64; 3],
    /// How late each request went out, ms.
    lag_ms: Vec<f64>,
    /// `Request::to_json` + `encode_frame`, µs.
    encode_us: Vec<f64>,
    /// `parse_body` + `Response::from_json`, µs.
    decode_us: Vec<f64>,
    sent: usize,
    completed: usize,
    aborted: bool,
    elapsed_s: f64,
    samples: Vec<Sample>,
}

impl RungLog {
    /// All plan reply latencies of the rung, ms.
    fn plan_summary(&self) -> Summary {
        Summary::of(&self.plan_ms.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    fn rung(&self, rate: f64, failed: u64) -> (Rung, [u64; 3]) {
        let tail_from = self.sent * (WINDOWS - 1) / WINDOWS;
        let tail: Vec<f64> = self
            .plan_ms
            .iter()
            .filter(|&&(i, _)| i >= tail_from)
            .map(|&(_, ms)| ms)
            .collect();
        let rung = Rung {
            rate,
            sent: self.sent as u64,
            failed,
            latency: windowed(&self.plan_ms, self.sent, WINDOWS),
            tail_p50_ms: Summary::of(&tail).p50,
            aborted: self.aborted,
            completed_per_s: self.completed as f64 / self.elapsed_s.max(1e-9),
        };
        (rung, self.paths)
    }
}

/// Requests in flight beyond which the generator reads replies before
/// sending more: half the server's default queue, so one connection can
/// never fill the worker pool and a saturated rung shows as generator
/// lag and latency, not as shed requests.
const MAX_IN_FLIGHT: usize = 32;

/// How often the generator polls for replies while it waits.
const POLL: Duration = Duration::from_micros(20);

/// Writes a whole frame to a nonblocking socket, napping while the send
/// buffer is full.
fn write_all_polling(conn: &mut TcpStream, mut frame: &[u8]) -> std::io::Result<()> {
    while !frame.is_empty() {
        match conn.write(frame) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => frame = &frame[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reassembles length-prefixed frames from a byte stream.
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    chunk: Vec<u8>,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            chunk: vec![0; 64 << 10],
        }
    }
}

impl FrameBuf {
    /// Reads whatever the (nonblocking) socket has.
    fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let n = r.read(&mut self.chunk)?;
        // Keep only the unparsed tail (at most one partial frame).
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n)
    }

    /// The next complete frame's body, if one is buffered.
    fn next(&mut self) -> Result<Option<Vec<u8>>, String> {
        let rest = &self.buf[self.start..];
        let Some(header) = rest.get(..4) else {
            return Ok(None);
        };
        let header: [u8; 4] = header.try_into().expect("four bytes");
        let len = parse_header(header, MAX_FRAME).map_err(|e| e.to_string())?;
        let Some(body) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.start += 4 + len;
        Ok(Some(body))
    }
}

/// The generator's view of one rung.
struct Load<'a> {
    ops: &'a [Op],
    start: Instant,
    interval_s: f64,
    churn: bool,
    expected: &'a BTreeMap<(usize, u64), Expected>,
    writes: &'a [WriteOp],
    /// When each sent request went out.
    sent_at: Vec<Instant>,
    /// Per request: index into `writes` of the write it is or would be
    /// (writes go out strictly in order).
    write_of: Vec<usize>,
    /// Computed replies sampled so far in the whole run.
    sampled: usize,
}

impl Load<'_> {
    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 * self.interval_s)
    }

    /// Decodes, times and checks the reply to request `i`.
    fn reply(
        &mut self,
        i: usize,
        body: &[u8],
        arrived: Instant,
        tracer: &mut Tracer,
        log: &mut RungLog,
        report: &mut Report,
    ) {
        tracer.record("serve.wire", i as u64, self.sent_at[i], arrived);
        let t = now();
        let span = tracer.begin("serve.decode", i as u64);
        let response = parse_body(body)
            .map_err(|e| e.to_string())
            .and_then(|json| Response::from_json(&json).map_err(|e| e.to_string()));
        tracer.end(span);
        log.decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        log.completed += 1;
        let latency_ms = (arrived - self.due(i)).as_secs_f64() * 1e3;
        let check = tracer.begin("loadgen.check", i as u64);
        match (self.ops[i], response) {
            (Op::Plan { dataset, seed }, Ok(Response::Plan(p))) => {
                let key_ok = p.dataset == dataset && p.seed == seed;
                if self.churn {
                    report.check(key_ok, || format!("request {i}: reply for another key"));
                    if !p.cached && self.sampled < SAMPLE_CAP {
                        self.sampled += 1;
                        log.samples.push(Sample {
                            request: i,
                            reply: p.clone(),
                        });
                    }
                } else {
                    let want = &self.expected[&(dataset, seed)];
                    report.check(
                        key_ok
                            && p.generation == 0
                            && p.owners == want.owners
                            && p.matched_files == want.matched_files
                            && p.filled_files == want.filled_files,
                        || format!("request {i}: plan ({dataset}, {seed}) differs from in-process"),
                    );
                }
                log.plan_ms.push((i, latency_ms));
                log.local_frac.push(p.local_byte_fraction);
                log.paths[if p.cached {
                    0
                } else if p.repaired {
                    1
                } else {
                    2
                }] += 1;
            }
            (Op::Write, Ok(Response::Invalidated { generation })) => {
                let want = self.writes[self.write_of[i]].generation;
                report.check(generation == want, || {
                    format!(
                        "request {i}: write answered generation {generation}, mirror has {want}"
                    )
                });
                log.write_ms.push(latency_ms);
            }
            (_, Ok(other)) => {
                report.attempted += 1;
                report.fail(format!("request {i}: unexpected reply {other:?}"));
            }
            (_, Err(e)) => {
                report.attempted += 1;
                report.fail(format!("request {i}: undecodable reply: {e}"));
            }
        }
        tracer.end(check);
    }
}

/// Runs one rung on one thread: sends `ops` on a fixed schedule at
/// `rate` and, between sends, polls for replies and times and checks
/// each as it comes.
#[allow(clippy::too_many_arguments)]
fn run_rung(
    setup: &mut Setup,
    ops: &[Op],
    rate: f64,
    next_write: &mut usize,
    expected: &BTreeMap<(usize, u64), Expected>,
    sampled: usize,
    churn: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<RungLog, String> {
    let write_of = ops
        .iter()
        .scan(*next_write, |next, op| {
            let w = *next;
            *next += usize::from(matches!(op, Op::Write));
            Some(w)
        })
        .collect();
    let mut load = Load {
        ops,
        start: now(),
        interval_s: 1.0 / rate,
        churn,
        expected,
        writes: &setup.writes,
        sent_at: Vec::with_capacity(ops.len()),
        write_of,
        sampled,
    };
    let conn = &mut setup.conn;
    conn.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut log = RungLog::default();
    let mut rx = FrameBuf::default();
    let (mut received, mut aborted) = (0usize, false);
    let mut last_reply = now();
    loop {
        let sent = load.sent_at.len();
        let t = now();
        let can_send = sent < ops.len() && !aborted && sent - received < MAX_IN_FLIGHT;
        if can_send && t >= load.due(sent) {
            let lag = t - load.due(sent);
            if lag > ABORT_LAG {
                aborted = true;
                continue;
            }
            log.lag_ms.push(lag.as_secs_f64() * 1e3);
            let span = tracer.begin("serve.encode", sent as u64);
            let request = match ops[sent] {
                Op::Plan { dataset, seed } => Request::Plan {
                    dataset,
                    strategy: Strategy::Opass,
                    seed,
                },
                Op::Write => {
                    *next_write += 1;
                    load.writes
                        .get(load.write_of[sent])
                        .ok_or("the schedule ran out of writes")?
                        .request
                        .clone()
                }
            };
            let frame = encode_frame(&request.to_json()).map_err(|e| e.to_string())?;
            tracer.end(span);
            let sent_at = now();
            log.encode_us.push((sent_at - t).as_secs_f64() * 1e6);
            load.sent_at.push(sent_at);
            if let Err(e) = write_all_polling(conn, &frame) {
                report.attempted += 1;
                report.fail(format!("request {sent}: send failed: {e}"));
                aborted = true;
            }
            continue;
        }
        if received < sent {
            match rx.fill(conn) {
                Ok(0) => {
                    report.attempted += 1;
                    report.fail(format!(
                        "request {received}: the server closed the connection"
                    ));
                    aborted = true;
                    break;
                }
                Ok(_) => {
                    let arrived = now();
                    last_reply = arrived;
                    while let Some(body) = rx.next()? {
                        load.reply(received, &body, arrived, tracer, &mut log, report);
                        received += 1;
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if t - last_reply > REPLY_TIMEOUT {
                        report.attempted += 1;
                        report.fail(format!(
                            "request {received}: no reply within {REPLY_TIMEOUT:?}"
                        ));
                        aborted = true;
                        break;
                    }
                }
                Err(e) => return Err(format!("reading replies: {e}")),
            }
        } else if sent == ops.len() || aborted {
            break;
        } else {
            last_reply = t;
        }
        // Nothing to do: nap until the next request is due, polling for
        // replies while any are outstanding.
        let until_due = if can_send {
            load.due(sent).saturating_duration_since(t)
        } else {
            POLL
        };
        std::thread::sleep(if received < sent {
            until_due.min(POLL)
        } else {
            until_due
        });
    }
    conn.set_nonblocking(false).map_err(|e| e.to_string())?;
    log.elapsed_s = load.start.elapsed().as_secs_f64();
    log.sent = load.sent_at.len();
    log.aborted = aborted;
    if received < log.sent {
        // The connection now holds unread replies: the run cannot go on.
        return Err(format!("{} replies never arrived", log.sent - received));
    }
    Ok(log)
}

/// The schedule of one rung: `n` requests with Zipf-popular keys; in
/// `serve_churn` every [`WRITE_EVERY`]-th is a write.
fn schedule(n: usize, churn: bool, cdf: &[f64], rng: &mut StdRng) -> Vec<Op> {
    (0..n)
        .map(|k| {
            if churn && k % WRITE_EVERY == WRITE_EVERY - 1 {
                Op::Write
            } else {
                Op::Plan {
                    dataset: pick(cdf, rng),
                    seed: rng.gen_range(0..DATASET_SEEDS),
                }
            }
        })
        .collect()
}

fn stats(conn: &mut TcpStream) -> Result<StatsReply, String> {
    match call(conn, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("stats request got {other:?}")),
    }
}

/// Quantile `q` of the server's latency histogram between two stats
/// snapshots: the upper edge of the power-of-two bucket it falls in, µs.
fn bucket_quantile(before: &[LatencyBin], after: &[LatencyBin], q: f64) -> f64 {
    let mut bins: BTreeMap<u64, (f64, i64)> = BTreeMap::new();
    for (sign, list) in [(1i64, after), (-1, before)] {
        for b in list {
            let slot = bins.entry(b.lo as u64).or_insert((b.hi, 0));
            slot.1 += sign * b.count as i64;
        }
    }
    let total: i64 = bins.values().map(|&(_, c)| c).sum();
    if total <= 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as i64;
    let mut seen = 0;
    for &(hi, count) in bins.values() {
        seen += count;
        if seen >= rank {
            return hi;
        }
    }
    0.0
}

/// Checks every sampled `serve_churn` reply against a fresh solve on a
/// mirror `World` replayed through the sent writes to the reply's
/// generation: matched files and locality must agree, and a cold (not
/// repaired) plan must have the same owners too. Returns how long each
/// `World::invalidate_dataset` took on the mirror, µs — the work a shard
/// does inline for each write.
fn check_samples(
    spec: ServeSpec,
    writes: &[WriteOp],
    samples: &[Sample],
    report: &mut Report,
) -> Vec<f64> {
    let mut pending: BTreeMap<(usize, u64), Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        pending
            .entry((s.reply.dataset, s.reply.generation))
            .or_default()
            .push(s);
    }
    let world = World::new(spec);
    let placement = spec.placement();
    let mut check_at = |world: &World, dataset: usize, report: &mut Report| {
        let Some(group) = pending.remove(&(dataset, world.generation_of(dataset))) else {
            return;
        };
        let snapshot = world.capture_layout(dataset).expect("dataset in the spec");
        for s in group {
            let p = &s.reply;
            let fresh = OpassPlanner::default()
                .plan(&PlanRequest::single_from_layout(&snapshot, &placement).seed(p.seed))
                .into_single()
                .expect("single-data plan");
            let same = p.matched_files == fresh.matched_files
                && p.filled_files == fresh.filled_files
                && p.local_task_fraction == fresh.locality.task_fraction()
                && p.local_byte_fraction == fresh.locality.byte_fraction()
                && (p.repaired || p.owners == fresh.assignment.owners());
            report.check(same, || {
                format!(
                    "request {}: {} plan for ({dataset}, {}) at generation {} disagrees with a fresh solve",
                    s.request,
                    if p.repaired { "repaired" } else { "cold" },
                    p.seed,
                    p.generation
                )
            });
        }
    };
    for dataset in 0..spec.n_datasets {
        check_at(&world, dataset, report);
    }
    let mut invalidate_us = Vec::with_capacity(writes.len());
    for w in writes {
        match &w.request {
            Request::Invalidate {
                dataset: Some(d),
                delta: Some(delta),
            } => {
                let t = now();
                let generation = world.invalidate_dataset(*d, delta);
                invalidate_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.check(generation == Some(w.generation), || {
                    format!(
                        "the mirror reached generation {generation:?}, the write expected {}",
                        w.generation
                    )
                });
                check_at(&world, *d, report);
            }
            _ => {
                world.invalidate();
                for dataset in 0..spec.n_datasets {
                    check_at(&world, dataset, report);
                }
            }
        }
    }
    for ((dataset, generation), group) in pending {
        for s in group {
            report.attempted += 1;
            report.fail(format!(
                "request {}: reply names generation {generation} of dataset {dataset}, which the writes never reach",
                s.request
            ));
        }
    }
    invalidate_us
}

/// Runs `serve_hot` (`churn == false`) or `serve_churn` and fills
/// `report`; returns the traced spans.
pub fn run(run: &Run, churn: bool, report: &mut Report) -> Result<Vec<Span>, String> {
    if LOADGEN_THREADS > run.host_threads || LOADGEN_CONNS > run.host_threads {
        return Err(format!(
            "the load generator needs {LOADGEN_THREADS} threads and {LOADGEN_CONNS} connection, \
             more than this host's {} hardware threads",
            run.host_threads
        ));
    }
    let ladder = if churn { CHURN } else { HOT };
    let (mut setup, setup_s) = crate::timed_setup(|| start(run, churn, &ladder))?;
    report.set("setup_s", setup_s);
    let spec = setup.spec;
    let expected = expected_plans(spec);
    for p in &setup.warm {
        let want = &expected[&(p.dataset, p.seed)];
        report.check(
            p.generation == 0 && p.owners == want.owners && p.matched_files == want.matched_files,
            || {
                format!(
                    "warm-up plan ({}, {}) differs from in-process",
                    p.dataset, p.seed
                )
            },
        );
    }

    let cdf = zipf_cdf(spec.n_datasets);
    let mut rng = StdRng::seed_from_u64(mix(run.seed, 0x10AD));
    let mut next_write = 0usize;
    let mut samples: Vec<Sample> = Vec::new();
    let mut tracer = Tracer::new(run.trace, now());
    let reference_rate = ladder.rates[ladder.reference];

    // A traced run first runs the reference rung untraced, for the
    // tracing overhead.
    let mut calibration_ms = 0.0;
    if run.trace {
        let ops = schedule(
            ladder.requests(ladder.reference, run.seconds),
            churn,
            &cdf,
            &mut rng,
        );
        let mut off = Tracer::new(false, now());
        let log = run_rung(
            &mut setup,
            &ops,
            reference_rate,
            &mut next_write,
            &expected,
            SAMPLE_CAP,
            churn,
            &mut off,
            report,
        )?;
        calibration_ms = log.plan_summary().mean;
    }

    let root = tracer.begin("run", 0);
    let mut rungs = Vec::new();
    let mut reference = None;
    for (r, &rate) in ladder.rates.iter().enumerate() {
        let before = (r == ladder.reference)
            .then(|| stats(&mut setup.conn))
            .transpose()?;
        let ops = schedule(ladder.requests(r, run.seconds), churn, &cdf, &mut rng);
        let failed = report.failed;
        let mut log = run_rung(
            &mut setup,
            &ops,
            rate,
            &mut next_write,
            &expected,
            samples.len(),
            churn,
            &mut tracer,
            report,
        )?;
        rungs.push(log.rung(rate, report.failed - failed));
        samples.append(&mut log.samples);
        if let Some(before) = before {
            let after = stats(&mut setup.conn)?;
            reference = Some((log, before, after));
        }
    }
    tracer.end(root);
    let (log, before, after) = reference.expect("the reference rung is on the ladder");

    let invalidate_us = if churn {
        check_samples(spec, &setup.writes[..next_write], &samples, report)
    } else {
        Vec::new()
    };
    drop(setup.conn);
    setup.server.shutdown();

    let plan = log.plan_summary();
    let latency = windowed(&log.plan_ms, log.sent, WINDOWS);
    let write = Summary::of(&log.write_ms);
    report.set("plan_p50_ms", latency.p50);
    report.set("plan_mean_ms", latency.mean);
    let (rungs, paths): (Vec<Rung>, Vec<[u64; 3]>) = rungs.into_iter().unzip();
    let ok = highest_passing(&rungs, ladder.limit_ms);
    report.set(
        "throughput_per_s",
        ok.map_or(0.0, |i| rungs[i].completed_per_s),
    );
    report.set("local_frac", Summary::of(&log.local_frac).mean);

    report.set("serve.encode_us", Summary::of(&log.encode_us).p50);
    report.set("serve.decode_us", Summary::of(&log.decode_us).p50);
    let hist = |q| bucket_quantile(&before.latency_histogram, &after.latency_histogram, q);
    report.set("serve.server_p50_us", hist(0.50));
    report.set("serve.server_p99_us", hist(0.99));
    let delta = |f: fn(&StatsReply) -> u64| (f(&after) - f(&before)) as f64;
    let hits = delta(|s| s.cache_hits);
    report.set(
        "serve.cache_hit_ratio",
        hits / (hits + delta(|s| s.cache_misses)).max(1.0),
    );
    report.set(
        "serve.forwarded",
        delta(|s| s.shards.iter().map(|sh| sh.forwarded).sum()),
    );
    report.set("serve.coalesced", delta(|s| s.coalesced));
    report.set("serve.shed", delta(|s| s.shed));
    report.set("serve.repaired", delta(|s| s.repaired));
    report.set("serve.cold_plans", delta(|s| s.planned));
    report.set("serve.repair_us_p50", after.repair_us.p50_us);
    report.set("serve.cold_plan_us_p50", after.cold_plan_us.p50_us);
    report.set("serve.world_invalidate_us", Summary::of(&invalidate_us).p50);
    report.set("serve.write_p50_ms", write.p50);
    report.set("serve.write_p99_ms", write.p99);
    report.set("loadgen.lag_p99_ms", Summary::of(&log.lag_ms).p99);
    report.set("loadgen.sent", log.sent as f64);
    report.set("loadgen.completed", log.completed as f64);
    if run.trace {
        report.set("tracing.overhead_frac", plan.mean / calibration_ms - 1.0);
    }

    report.note("nodes", spec.n_nodes);
    report.note("datasets", spec.n_datasets);
    report.note("chunks_per_dataset", spec.chunks_per_dataset);
    report.note("keys", spec.n_datasets * DATASET_SEEDS as usize);
    report.note("shards", opass_serve::default_shards());
    report.note("loadgen_threads", LOADGEN_THREADS);
    report.note("loadgen_conns", LOADGEN_CONNS);
    report.note("limit_ms", ladder.limit_ms);
    report.note("reference_rate", reference_rate);
    report.note("plan_samples", plan.count);
    report.note("write_samples", write.count);
    report.note("checked_samples", samples.len());
    report.note(
        "ladder",
        Json::array(rungs.iter().zip(&paths).map(|(r, paths)| {
            Json::object([
                ("rate".to_string(), Json::from(r.rate)),
                ("sent".to_string(), Json::from(r.sent)),
                ("failed".to_string(), Json::from(r.failed)),
                ("p50_ms".to_string(), Json::from(r.latency.p50)),
                ("mean_ms".to_string(), Json::from(r.latency.mean)),
                ("p90_ms".to_string(), Json::from(r.latency.p90)),
                ("p99_ms".to_string(), Json::from(r.latency.p99)),
                ("tail_p50_ms".to_string(), Json::from(r.tail_p50_ms)),
                ("aborted".to_string(), Json::from(r.aborted)),
                ("completed_per_s".to_string(), Json::from(r.completed_per_s)),
                ("passes".to_string(), Json::from(r.passes(ladder.limit_ms))),
                ("hits".to_string(), Json::from(paths[0])),
                ("repaired".to_string(), Json::from(paths[1])),
                ("cold".to_string(), Json::from(paths[2])),
            ])
        })),
    );
    Ok(tracer.into_spans())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_ascending_with_a_reference_below_the_top() {
        for ladder in [HOT, CHURN] {
            assert!(ladder.rates.windows(2).all(|w| w[0] < w[1]));
            assert!(ladder.reference + 1 < ladder.rates.len());
            assert!(ladder.limit_ms > 0.0);
        }
        // Half the time at the reference rate, the rest split evenly.
        assert_eq!(HOT.requests(HOT.reference, 20.0), 80_000);
        assert_eq!(
            HOT.requests(0, 20.0),
            (2_000.0 * 20.0 / 6.0_f64).round() as usize
        );
        let total: f64 = (0..CHURN.rates.len())
            .map(|r| CHURN.requests(r, 60.0) as f64 / CHURN.rates[r])
            .sum();
        assert!((total - 60.0).abs() < 0.01, "rungs fill the run: {total}");
    }

    #[test]
    fn frames_reassemble_across_partial_reads() {
        let a = encode_frame(&Request::Ping.to_json()).expect("frame");
        let b = encode_frame(&Request::Stats.to_json()).expect("frame");
        let stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        let mut buf = FrameBuf::default();
        let mut got = Vec::new();
        // Feed the bytes three at a time, as short reads would.
        for piece in stream.chunks(3) {
            buf.fill(&mut &piece[..]).expect("read from a slice");
            while let Some(body) = buf.next().expect("valid frames") {
                got.push(body);
            }
        }
        assert_eq!(got, [a[4..].to_vec(), b[4..].to_vec()]);
        assert!(buf.next().expect("empty").is_none());
    }

    #[test]
    fn server_quantiles_difference_two_histogram_snapshots() {
        let bin = |lo: f64, count: u64| LatencyBin {
            lo,
            hi: lo * 2.0,
            count,
        };
        let before = [bin(1.0, 10), bin(64.0, 5)];
        // 90 new requests in [1, 2) µs and 10 new in [64, 128) µs.
        let after = [bin(1.0, 100), bin(64.0, 15)];
        assert_eq!(bucket_quantile(&before, &after, 0.5), 2.0);
        assert_eq!(bucket_quantile(&before, &after, 0.9), 2.0);
        assert_eq!(bucket_quantile(&before, &after, 0.99), 128.0);
        assert_eq!(bucket_quantile(&after, &after, 0.5), 0.0, "no new requests");
    }

    #[test]
    fn writes_are_valid_migrations_with_predicted_generations() {
        let spec = ServeSpec {
            n_nodes: 8,
            n_datasets: 2,
            chunks_per_dataset: 16,
            ..ServeSpec::default()
        };
        let writes = build_writes(spec, 2 * BARE_EVERY, 7);
        let world = World::new(spec);
        for w in &writes {
            let generation = match &w.request {
                Request::Invalidate {
                    dataset: Some(d),
                    delta: Some(delta),
                } => {
                    let pairs = delta.migration_pairs().expect("a migration");
                    let layout = world.capture_layout(*d).expect("dataset");
                    for (chunk, from, to) in pairs {
                        let entry = layout
                            .entries()
                            .iter()
                            .find(|e| e.chunk == chunk)
                            .expect("chunk of the dataset");
                        assert!(entry.locations.contains(&from) && !entry.locations.contains(&to));
                    }
                    world.invalidate_dataset(*d, delta)
                }
                _ => Some(world.invalidate()),
            };
            assert_eq!(generation, Some(w.generation));
        }
        assert_eq!(build_writes(spec, 40, 7).len(), 40);
    }
}
