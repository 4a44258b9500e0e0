//! `ingest-helium`: live APPEND of the Helium-B stream into a server whose
//! `AppendSink` writes a real file, with one follower tailing the archive.
//!
//! Each fill streams a fresh Helium-B trajectory (fill `k` of a run is
//! generated from the run's seed and `k`) into a fresh one-block archive;
//! one `Client` appends one buffer (10 frames) at a time and waits for the
//! durability ack, while `Client::follow(0)` polls for new frames. Fills
//! repeat until the time is up, so every figure averages over several
//! trajectories. The archive grows during a fill, so any per-append cost
//! that scales with archive size shows up in the ack times and in
//! `append.ack_growth`.
//!
//! The traced half follows every fill with an in-process replay of the
//! same appends against a file of its own, timing the layers an APPEND runs
//! through: the block encode, the recovery scan, `append_store` (whose
//! remainder is file I/O and the two syncs) and `StoreReader::refresh`.
//!
//! A fill whose APPENDs are not all acked ends the phase: the failure is
//! counted, reported and fails the run.

use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mdz_core::{Frame, Obs, ParallelTrajectoryCompressor};
use mdz_obs::{MetricsSnapshot, Registry};
use mdz_sim::{DatasetKind, Scale};
use mdz_store::{
    append_store, create_store, recover_slice, AppendSink, Client, ClientError, FileIo, Precision,
    Server, ServerConfig, StoreIo, StoreOptions, StoreReader,
};

use crate::check::{buffer_eps, frame_hashes, frames_of, within_bound};
use crate::compress::{config, BUFFER, SETUP_REPS};
use crate::report::{decl, median, Decl, Report};
use crate::serve::Running;
use crate::trace::Tracer;
use crate::{host, Params, Workload, PHASE_LIMIT};

pub const WORKLOAD: Workload = Workload { name: "ingest-helium", layers: LAYERS, run };

const LAYERS: &[Decl] = &[
    decl("e2e_s", "s"),
    decl("unattributed_s", "s"),
    decl("trace.overhead_share", "ratio"),
    decl("append_mbps", "MB/s"),
    decl("append_p50_ms", "ms"),
    decl("staleness_p50_ms", "ms"),
    decl("staleness_p99_ms", "ms"),
    decl("archive.encode_s", "s"),
    decl("archive.recover_scan_s", "s"),
    decl("archive.io_s", "s"),
    decl("reader.refresh_s", "s"),
    decl("server.other_s", "s"),
    decl("archive.append_store_p50_ms", "ms"),
    decl("archive.recover_scan_ms", "ms"),
    decl("reader.refresh_ms", "ms"),
    decl("append_p99_ms", "ms"),
    decl("append.ack_growth", "x"),
    decl("follow.empty_polls_per_append", "ratio"),
    decl("follow.reconnects", "count"),
];

/// How long the follower sleeps between empty polls.
const POLL: Duration = Duration::from_millis(2);
/// How long a fill waits for its follower to catch up after the last ack.
const FOLLOW_WAIT: Duration = Duration::from_secs(10);
/// Buffers per epoch of the archive.
const EPOCH: usize = 8;
/// `ratio` is taken over the first this many fills' trajectories; the
/// untraced phase runs on until it has them.
const RATIO_FILLS: usize = 16;

struct Ctx {
    opts: StoreOptions,
    dir: PathBuf,
    scale: Scale,
    seed: u64,
    /// Whether the server gets an `AppendSink`; without one it refuses
    /// every APPEND.
    appends: bool,
}

/// One fill's input trajectory and its per-buffer error bounds.
struct Stream {
    frames: Vec<Frame>,
    eps: Vec<[f64; 3]>,
}

impl Stream {
    /// The trajectory of fill `k`.
    fn generate(ctx: &Ctx, k: u64) -> Stream {
        let seed = ctx.seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let frames = frames_of(mdz_sim::datasets::generate(DatasetKind::HeliumB, ctx.scale, seed));
        let eps = buffer_eps(&frames, BUFFER, ctx.opts.cfg.bound);
        Stream { frames, eps }
    }

    fn raw_bytes(&self) -> usize {
        self.frames.len() * self.frames[0].len() * 24
    }
}

/// A fresh one-block archive served by a live server.
struct Live {
    path: PathBuf,
    running: Running,
}

/// What the follower thread saw.
#[derive(Default)]
struct Followed {
    /// `(when, position after the batch)` for each delivered batch.
    deliveries: Vec<(Instant, usize)>,
    hashes: Vec<u64>,
    error: Option<String>,
}

/// Output checks accumulated over every fill.
#[derive(Default)]
struct Checks {
    fills: usize,
    follower_mismatch: usize,
    short_archive: usize,
    /// Fills that ended before every APPEND was acked.
    incomplete: usize,
    bound_errors: Vec<String>,
    worst: f64,
    count_checked: usize,
    count_mismatch: Vec<String>,
}

/// One fill's measurements.
#[derive(Default)]
struct Fill {
    /// Ack latency of each append, seconds, in append order.
    acks: Vec<f64>,
    /// APPEND ack to follower delivery, seconds (negative when the
    /// follower saw the frames before the producer saw the ack).
    staleness: Vec<f64>,
    bytes: f64,
    polls_empty: u64,
    reconnects: u64,
    /// Server time spent in APPEND, seconds.
    server_append_s: f64,
    raw_len: usize,
    archive_len: usize,
    /// Peak resident memory while the fill's server ran, MB, and whether it
    /// covers only that span.
    peak_rss_mb: Option<f64>,
    peak_scoped: bool,
}

fn start_live(ctx: &Ctx, stream: &Stream, name: &str) -> Result<Live, String> {
    let path = ctx.dir.join(name);
    let _ = std::fs::remove_file(&path);
    let mut io = FileIo::open(&path).map_err(|e| e.to_string())?;
    create_store(&mut io, &stream.frames[..BUFFER], &[], &[], &ctx.opts)
        .map_err(|e| e.to_string())?;
    let reader =
        StoreReader::open(io.read_all().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
    let mut server =
        Server::bind(reader, "127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())?;
    if ctx.appends {
        server = server.with_append_sink(AppendSink::new(Box::new(io), ctx.opts.clone()));
    }
    let running = Running::start(server).map_err(|e| e.to_string())?;
    Ok(Live { path, running })
}

fn signed_seconds(later: Instant, earlier: Instant) -> f64 {
    match later.checked_duration_since(earlier) {
        Some(d) => d.as_secs_f64(),
        None => -earlier.duration_since(later).as_secs_f64(),
    }
}

/// Appends the stream into `live` with a follower attached, then checks the
/// follower's stream and the archive. Stops the server. `None` when the
/// fill did not complete.
fn fill(stream: &Stream, live: Live, report: &mut Report, checks: &mut Checks) -> Option<Fill> {
    let peak_scoped = host::reset_peak_rss();
    let addr = live.running.addr;
    let frames = &stream.frames;
    let target = frames.len();
    let registry = Arc::new(Registry::new());
    let obs = Obs::new(Arc::clone(&registry) as Arc<dyn mdz_core::Recorder>);
    let (tx, rx) = mpsc::channel();
    let follower = std::thread::spawn(move || {
        let mut out = Followed::default();
        match Client::connect(addr).and_then(|c| c.follow(0)) {
            Ok(f) => {
                let mut f = f.with_poll_interval(POLL).with_obs(obs);
                while f.position() < target {
                    match f.next_batch() {
                        Ok(batch) => {
                            out.deliveries.push((Instant::now(), f.position()));
                            out.hashes.extend(frame_hashes(&batch));
                        }
                        Err(e) => {
                            out.error = Some(format!("follow: {e}"));
                            break;
                        }
                    }
                }
            }
            Err(e) => out.error = Some(format!("follow: {e}")),
        }
        let _ = tx.send(out);
    });

    let mut result = Fill::default();
    let mut acked: Vec<(Instant, usize)> = Vec::new();
    let mut answered = 0u64;
    if let Some(mut client) = report.op("connect", Client::connect(addr)) {
        for (i, chunk) in frames[BUFFER..].chunks(BUFFER).enumerate() {
            let start = Instant::now();
            let ack = client.append(chunk, Precision::F64);
            let end = Instant::now();
            if matches!(ack, Ok(_) | Err(ClientError::Server { .. })) {
                answered += 1;
            }
            if report.op("APPEND", ack).is_none() {
                break;
            }
            result.acks.push(end.duration_since(start).as_secs_f64());
            result.bytes += (chunk.len() * chunk[0].len() * 24) as f64;
            acked.push((end, BUFFER + i * BUFFER + chunk.len()));
        }
    }
    let complete = result.acks.len() == frames[BUFFER..].chunks(BUFFER).len();
    if !complete {
        // The follower waits for frames that will never come, and cannot be
        // interrupted while it polls: it is left behind and ends with the
        // process, which the failed APPEND already dooms.
        checks.incomplete += 1;
        if let Err(e) = live.running.stop() {
            report.fail(format!("stopping server: {e}"));
        }
        let _ = std::fs::remove_file(&live.path);
        return None;
    }
    let followed = match rx.recv_timeout(FOLLOW_WAIT) {
        Ok(f) => {
            if follower.join().is_err() {
                report.fail("follower thread panicked".into());
            }
            f
        }
        // As above, a follower that has not caught up is left behind.
        Err(_) => {
            Followed { error: Some("follower did not catch up".into()), ..Default::default() }
        }
    };
    match &followed.error {
        Some(e) => report.fail(e.clone()),
        None => report.ops_ok(followed.deliveries.len() as u64),
    }
    let snap: Option<MetricsSnapshot> =
        report.op("METRICS", Client::connect(addr).and_then(|mut c| c.metrics()));
    if let Err(e) = live.running.stop() {
        report.fail(format!("stopping server: {e}"));
    }
    result.peak_rss_mb = host::peak_rss_mb();
    result.peak_scoped = peak_scoped;

    let follow = registry.snapshot();
    result.polls_empty = follow.counter("client.follow.polls_empty");
    result.reconnects = follow.counter("client.follow.reconnects");
    for &(t_ack, end_frame) in &acked {
        if let Some(&(t_seen, _)) = followed.deliveries.iter().find(|(_, pos)| *pos >= end_frame) {
            result.staleness.push(signed_seconds(t_seen, t_ack));
        }
    }
    if let Some(snap) = &snap {
        result.server_append_s =
            snap.histogram("server.append.append_seconds").map_or(0.0, |h| h.sum);
        let served = snap.histogram("server.request_seconds").map_or(0, |h| h.count);
        // The follower sends INFO on every poll and a GET on every
        // non-empty one.
        let follower_requests = result.polls_empty + 2 * followed.deliveries.len() as u64;
        if result.reconnects == 0 && followed.error.is_none() {
            let expected = answered + follower_requests;
            checks.count_checked += 1;
            if served != expected {
                checks.count_mismatch.push(format!("server {served}, generator {expected}"));
            }
        }
    }

    // The follower's stream against an offline decode of the final archive.
    let bytes = std::fs::read(&live.path).map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&live.path);
    let bytes = report.op("read archive", bytes)?;
    result.raw_len = stream.raw_bytes();
    result.archive_len = bytes.len();
    let decoded = report.op("open archive", StoreReader::open(bytes)).and_then(|r| {
        let n = r.index().n_frames;
        report.op("read_frames (whole archive)", r.read_frames(0..n))
    })?;
    checks.fills += 1;
    checks.short_archive += usize::from(decoded.len() != target);
    checks.follower_mismatch += usize::from(frame_hashes(&decoded) != followed.hashes);
    match within_bound(frames, &decoded, 0, BUFFER, &stream.eps) {
        Ok(w) => checks.worst = checks.worst.max(w),
        Err(e) => checks.bound_errors.push(e),
    }
    Some(result)
}

/// Per-layer times of one in-process replay of a fill, seconds per append.
#[derive(Default)]
struct Replay {
    encode: Vec<f64>,
    scan: Vec<f64>,
    append: Vec<f64>,
    refresh: Vec<f64>,
}

fn replay(ctx: &Ctx, stream: &Stream, report: &mut Report, tracer: &mut Tracer) -> Option<Replay> {
    let path = ctx.dir.join("replay.mdz");
    let _ = std::fs::remove_file(&path);
    let mut io = report.op("replay open", FileIo::open(&path))?;
    report.op(
        "replay create",
        create_store(&mut io, &stream.frames[..BUFFER], &[], &[], &ctx.opts),
    )?;
    let reader = report.op("replay reader", io.read_all().and_then(StoreReader::open))?;
    let mut out = Replay::default();
    let start = Instant::now();
    let root = tracer.record("replay.fill", None, None, start, start);
    for (i, chunk) in stream.frames[BUFFER..].chunks(BUFFER).enumerate() {
        let req = Some(i as u64);
        let t0 = Instant::now();
        let encoded =
            ParallelTrajectoryCompressor::new(ctx.opts.cfg.clone()).compress_buffers(&[chunk]);
        let t1 = Instant::now();
        std::hint::black_box(encoded.ok());
        let Some(data) = report.op("replay read_all", io.read_all()) else { break };
        let t2 = Instant::now();
        let scanned = recover_slice(&data);
        let t3 = Instant::now();
        drop(data);
        let appended = append_store(&mut io, chunk, &ctx.opts);
        let t4 = Instant::now();
        let refreshed = io.read_all().and_then(|d| reader.refresh(d));
        let t5 = Instant::now();
        for (name, a, b) in [
            ("replay.encode", t0, t1),
            ("replay.recover_scan", t2, t3),
            ("replay.append_store", t3, t4),
            ("replay.refresh", t4, t5),
        ] {
            tracer.record(name, root, req, a, b);
        }
        if report.op("replay recover_slice", scanned).is_none()
            || report.op("replay append_store", appended).is_none()
            || report.op("replay refresh", refreshed).is_none()
        {
            break;
        }
        out.encode.push((t1 - t0).as_secs_f64());
        out.scan.push((t3 - t2).as_secs_f64());
        out.append.push((t4 - t3).as_secs_f64());
        out.refresh.push((t5 - t4).as_secs_f64());
    }
    tracer.close(root, Instant::now());
    let _ = std::fs::remove_file(&path);
    Some(out)
}

/// State carried across the fills of a run.
struct Fills {
    /// Index of the next fill in the run.
    next: u64,
    /// The set-up's fill, ready to run.
    first: Option<(Stream, Live)>,
    replays: Vec<Replay>,
    checks: Checks,
}

/// Runs fills until `seconds` have passed and at least `min_fills` have
/// completed, or until [`PHASE_LIMIT`] has passed or a fill fails; a traced
/// phase replays each fill in process after it.
fn phase(
    ctx: &Ctx,
    (seconds, min_fills): (f64, usize),
    traced: bool,
    state: &mut Fills,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<Fill> {
    let start = Instant::now();
    let mut fills = Vec::new();
    while start.elapsed() < PHASE_LIMIT
        && (fills.len() < min_fills.max(1) || start.elapsed().as_secs_f64() < seconds)
    {
        let k = state.next;
        state.next += 1;
        let (stream, live) = match state.first.take() {
            Some(ready) => ready,
            None => {
                let stream = Stream::generate(ctx, k);
                match report.op("start fill", start_live(ctx, &stream, &format!("fill-{k}.mdz"))) {
                    Some(live) => (stream, live),
                    None => break,
                }
            }
        };
        let Some(f) = fill(&stream, live, report, &mut state.checks) else { break };
        fills.push(f);
        if traced {
            if let Some(r) = replay(ctx, &stream, report, tracer) {
                state.replays.push(r);
            }
        }
    }
    fills
}

fn run(p: &Params, report: &mut Report, tracer: &mut Tracer) {
    ingest(p, report, tracer, true);
}

/// The workload, against servers that take APPENDs when `appends` is set
/// and refuse them otherwise.
fn ingest(p: &Params, report: &mut Report, tracer: &mut Tracer, appends: bool) {
    let dir = p.out_dir.join(format!("ingest-{}-{}", std::process::id(), p.seed));
    if report.op("create working dir", std::fs::create_dir_all(&dir)).is_none() {
        return;
    }
    let mut opts = StoreOptions::new(config());
    opts.buffer_size = BUFFER;
    opts.epoch_interval = EPOCH;
    report.note("ingest.filesystem", host::filesystem_of(&dir));
    report.note("ingest.sync", "FileIo::sync = File::sync_all, twice per APPEND");
    report.note("ingest.follow_poll_ms", format!("{}", POLL.as_secs_f64() * 1e3));

    let ctx = Ctx { opts, dir: dir.clone(), scale: p.scale, seed: p.seed, appends };
    let mut setup = Vec::new();
    let mut first: Option<(Stream, Live)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, live)) = first.take() {
            if let Err(e) = live.running.stop() {
                report.fail(format!("stopping server: {e}"));
            }
        }
        let t = Instant::now();
        let stream = Stream::generate(&ctx, 0);
        first = report
            .op("start fill", start_live(&ctx, &stream, "fill-0.mdz"))
            .map(|live| (stream, live));
        setup.push(t.elapsed().as_secs_f64());
    }
    report.set_setup(&setup);
    let Some((stream, _)) = &first else {
        let _ = std::fs::remove_dir_all(&dir);
        return;
    };
    report.note(
        "input",
        format!(
            "Helium-B {} frames x {} atoms per fill, a fresh trajectory each fill, from a one-block archive; {} APPENDs of {BUFFER} frames per fill; epoch {EPOCH}",
            stream.frames.len(),
            stream.frames[0].len(),
            stream.frames[BUFFER..].chunks(BUFFER).len()
        ),
    );

    let mut state = Fills { next: 0, first, replays: Vec::new(), checks: Checks::default() };
    let untraced = phase(
        &ctx,
        (p.phase_seconds(), RATIO_FILLS),
        false,
        &mut state,
        report,
        &mut Tracer::new(false),
    );
    let traced = if p.trace && state.checks.incomplete == 0 {
        phase(&ctx, (p.phase_seconds(), 1), true, &mut state, report, tracer)
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (checks, replays) = (state.checks, state.replays);

    let fills = checks.fills;
    report.check(
        "every fill's APPENDs were acked",
        checks.incomplete == 0,
        format!("{} fills cut short", checks.incomplete),
    );
    report.check(
        "follower stream equals an offline decode of the final archive, bit for bit",
        fills > 0 && checks.follower_mismatch == 0,
        format!("{} of {fills} fills differ", checks.follower_mismatch),
    );
    report.check(
        "final archive holds every acked frame",
        checks.short_archive == 0,
        format!("{} of {fills} fills short", checks.short_archive),
    );
    report.check(
        "every decoded value within eps",
        fills > 0 && checks.bound_errors.is_empty(),
        checks
            .bound_errors
            .first()
            .cloned()
            .unwrap_or_else(|| format!("max |x - x'| / eps = {:.4}", checks.worst)),
    );
    report.check(
        "server.request_seconds count equals requests answered",
        checks.count_mismatch.is_empty(),
        checks
            .count_mismatch
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{} of {fills} fills compared", checks.count_checked)),
    );

    let all = || untraced.iter().chain(&traced);
    let acks: Vec<f64> = untraced.iter().flat_map(|f| f.acks.iter().copied()).collect();
    let mut slowest: Vec<(f64, usize)> =
        untraced.iter().flat_map(|f| f.acks.iter().copied().zip(0..)).collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    report.note(
        "slowest_acks_ms@append",
        slowest
            .iter()
            .take(20)
            .map(|(t, i)| format!("{:.1}@{i}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let stale: Vec<f64> = untraced.iter().flat_map(|f| f.staleness.iter().copied()).collect();
    report.set_percentile("latency_p50_ms", &acks, 0.50, 1e3);
    report.set_percentile("append_p50_ms", &acks, 0.50, 1e3);
    // The ack tail is a per-layer row, not an end-to-end metric: a shared
    // host stalls the vCPU for milliseconds at a time, and with ~10 ms acks
    // those stalls move p95 and p99 between runs by more than the largest
    // bound allows. The traced run reports p99 over both of its halves.
    let all_acks: Vec<f64> = all().flat_map(|f| f.acks.iter().copied()).collect();
    report.set_percentile("append_p99_ms", &all_acks, 0.99, 1e3);
    report.set_percentile("staleness_p50_ms", &stale, 0.50, 1e3);
    report.set_percentile("staleness_p99_ms", &stale, 0.99, 1e3);
    let bytes: f64 = untraced.iter().map(|f| f.bytes).sum();
    if !acks.is_empty() {
        let mbps = bytes / 1e6 / acks.iter().sum::<f64>();
        report.set("throughput_mbps", mbps);
        report.set("append_mbps", mbps);
    }
    let counted = &untraced[..untraced.len().min(RATIO_FILLS)];
    report.samples("ratio", counted.len());
    report.check(
        format!("ratio covers the first {RATIO_FILLS} fills"),
        counted.len() == RATIO_FILLS,
        format!("{} fills", counted.len()),
    );
    if counted.len() == RATIO_FILLS {
        report.set(
            "ratio",
            counted.iter().map(|f| f.raw_len).sum::<usize>() as f64
                / counted.iter().map(|f| f.archive_len).sum::<usize>() as f64,
        );
    }

    // Ack p50 in the last tenth of each fill over the first tenth.
    let tenth = |last: bool| -> Vec<f64> {
        all()
            .flat_map(|f| {
                let k = (f.acks.len() / 10).max(1);
                let s = if last { &f.acks[f.acks.len() - k..] } else { &f.acks[..k] };
                s.to_vec()
            })
            .collect()
    };
    if let (Some(first), Some(last)) = (median(&tenth(false)), median(&tenth(true))) {
        report.set("append.ack_growth", last / first);
    }
    let appends: usize = all().map(|f| f.acks.len()).sum();
    report.set(
        "follow.empty_polls_per_append",
        all().map(|f| f.polls_empty).sum::<u64>() as f64 / appends.max(1) as f64,
    );
    report.set("follow.reconnects", all().map(|f| f.reconnects).sum::<u64>() as f64);

    if p.trace && !traced.is_empty() && !replays.is_empty() {
        let per_fill =
            |f: fn(&Fill) -> f64| traced.iter().map(f).sum::<f64>() / traced.len() as f64;
        let per_replay =
            |f: fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / replays.len() as f64;
        let client_s = per_fill(|f| f.acks.iter().sum());
        let server_s = per_fill(|f| f.server_append_s);
        let encode_s = per_replay(|r| r.encode.iter().sum());
        let scan_s = per_replay(|r| r.scan.iter().sum());
        let append_s = per_replay(|r| r.append.iter().sum());
        let refresh_s = per_replay(|r| r.refresh.iter().sum());
        report.set("e2e_s", client_s);
        report.set("archive.encode_s", encode_s);
        report.set("archive.recover_scan_s", scan_s);
        report.set("archive.io_s", append_s - encode_s - scan_s);
        report.set("reader.refresh_s", refresh_s);
        report.set("server.other_s", server_s - append_s - refresh_s);
        report.set("unattributed_s", client_s - server_s);
        report.samples("e2e_s", traced.len());
        let pooled = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
            replays.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        report.set_percentile("archive.append_store_p50_ms", &pooled(|r| &r.append), 0.50, 1e3);
        report.set_percentile("archive.recover_scan_ms", &pooled(|r| &r.scan), 0.50, 1e3);
        report.set_percentile("reader.refresh_ms", &pooled(|r| &r.refresh), 0.50, 1e3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced_acks: Vec<f64> = traced.iter().flat_map(|f| f.acks.iter().copied()).collect();
        report.set("trace.overhead_share", mean(&traced_acks) / mean(&acks) - 1.0);
    }
    report.set("success_rate", report.success_rate());
    let peaks: Vec<f64> = untraced.iter().filter_map(|f| f.peak_rss_mb).collect();
    report.note(
        "peak_rss.scope",
        if untraced.iter().all(|f| f.peak_scoped) {
            "largest over the untraced fills of the peak from server start to server stop: server, AppendSink, client, follower and the fill's input"
        } else {
            "the whole process (/proc/self/clear_refs not writable)"
        },
    );
    if let Some(rss) = peaks.into_iter().reduce(f64::max) {
        report.set("peak_rss_mb", rss);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that refuses every APPEND ends the run promptly, with the
    /// failure counted and reported and the run marked incorrect.
    #[test]
    fn refused_appends_end_the_run_with_a_report() {
        let dir = crate::out_dir().join(format!("test-refused-{}", std::process::id()));
        let p = Params { seed: 3, seconds: 1.0, trace: false, scale: Scale::Small, out_dir: dir };
        let mut report = Report::new(crate::E2E, crate::LAYERS);
        let start = Instant::now();
        ingest(&p, &mut report, &mut Tracer::new(false), false);
        assert!(start.elapsed() < Duration::from_secs(30), "took {:?}", start.elapsed());
        assert!(report.failed() > 0);
        assert!(!report.correct());
        assert!(report.result_line().starts_with("{\"correct\": false,"));
        let lines = report.summary_lines();
        assert!(lines.iter().any(|l| l.starts_with("failed op: APPEND")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("FAIL: every fill's APPENDs were acked")));
        std::fs::remove_dir_all(&p.out_dir).unwrap();
    }
}
