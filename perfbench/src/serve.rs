//! `serve-get`: random GETs through the public `Client` against `mdzd`'s
//! default configuration serving the Copper-B archive.
//!
//! Two closed-loop clients each wait for a reply before sending the next
//! request, as callers of `Client::get` do. Most requests fall in a hot
//! window that fits the reader's cache; the rest are uniform over the
//! archive and mostly miss. Spans are 1, 10 and 80 frames. Nothing here
//! encodes, so an encode-side change should leave this workload unchanged.
//!
//! No access trace of MD analysis is available to derive the traffic mix
//! from, so it rests on stated assumptions, which every run record repeats:
//! the hot window is the default cache size minus one epoch per client (the
//! epoch a client's uniform miss may bring in), so the window stays
//! resident under LRU; the 80 % hot share is the Pareto rule of thumb; the
//! three spans (one frame, one buffer, one epoch) are equally likely. All
//! three are unverified.
//!
//! The benchmark sets no socket option on the client: its GET latency is
//! what a user of `Client` sees. The traced half splits each GET into the
//! server's time (from the METRICS verb), an in-process replay of the same
//! sequence on a reader with the same cache (`read_frames`), frame encoding
//! and parsing, and the transport remainder.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mdz_core::Frame;
use mdz_obs::MetricsSnapshot;
use mdz_sim::rng::Rng;
use mdz_sim::DatasetKind;
use mdz_store::protocol::{encode_frames, parse_frames};
use mdz_store::{
    write_store, Client, ClientError, ReaderOptions, Server, ServerConfig, ServerHandle,
    StoreOptions, StoreReader,
};

use crate::check::{buffer_eps, frame_hash, frame_hashes, frames_of, within_bound};
use crate::compress::{config, BUFFER, SETUP_REPS};
use crate::report::{decl, percentile, samples_for, Decl, Report};
use crate::trace::Tracer;
use crate::{host, Params, Workload, PHASE_LIMIT};

pub const WORKLOAD: Workload = Workload { name: "serve-get", layers: LAYERS, run };

const LAYERS: &[Decl] = &[
    decl("e2e_s", "s"),
    decl("unattributed_s", "s"),
    decl("trace.overhead_share", "ratio"),
    decl("get_p50_ms", "ms"),
    decl("get_p99_ms", "ms"),
    decl("get_rps", "req/s"),
    decl("reader.read_frames_s", "s"),
    decl("protocol.encode_frames_s", "s"),
    decl("protocol.parse_frames_s", "s"),
    decl("server.other_s", "s"),
    decl("reader.read_frames_p50_ms", "ms"),
    decl("reader.read_frames_p99_ms", "ms"),
    decl("store.cache.hit_ratio", "ratio"),
    decl("store.buffers_decoded_per_get", "count"),
    decl("protocol.encode_frames_p50_ms", "ms"),
    decl("protocol.parse_frames_p50_ms", "ms"),
    decl("server.request_p50_ms", "ms"),
    decl("server.request_p99_ms", "ms"),
    decl("net.transport_p50_ms", "ms"),
];

/// Buffers per epoch: the `mdz store` default.
const EPOCH: usize = 8;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Share of GETs aimed at the hot window: the Pareto rule of thumb, an
/// unverified assumption.
const HOT_SHARE: f64 = 0.8;
/// GET spans in frames, equally likely (an unverified assumption): one
/// frame, one buffer, one epoch.
const SPANS: [usize; 3] = [1, BUFFER, EPOCH * BUFFER];

/// Epochs in the hot window: the server's default cache size minus one
/// epoch per client, the room the clients' concurrent uniform misses take.
fn hot_epochs() -> usize {
    ReaderOptions::default().cache_epochs.saturating_sub(CLIENTS).max(1)
}

/// A server running on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    pub fn start(server: Server) -> std::io::Result<Running> {
        let addr = server.local_addr()?;
        let handle = server.handle()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Running { addr, handle, thread })
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One GET as the client saw it.
struct Sample {
    id: u64,
    range: Range<usize>,
    start: Instant,
    end: Instant,
    /// Combined fingerprint of the returned frames.
    hash: u64,
    traced: bool,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    failures: Vec<String>,
    /// Requests the server answered (OK or a typed error).
    answered: u64,
}

fn combine(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0x84222325u64, |h, x| (h.rotate_left(5) ^ x).wrapping_mul(0x100_0000_01b3))
}

/// Picks a GET range: hot window or uniform, span from [`SPANS`].
fn next_range(rng: &mut Rng, n_frames: usize, hot: &Range<usize>) -> Range<usize> {
    let span = SPANS[rng.index(SPANS.len())].min(n_frames);
    let (lo, hi) = if rng.f64() < HOT_SHARE { (hot.start, hot.end) } else { (0, n_frames) };
    let start = lo + rng.index((hi - lo).saturating_sub(span) + 1);
    start..start + span
}

/// When a phase's clients stop: at `deadline` once `min_gets` GETs have
/// completed between them, and at `limit` regardless.
struct Stop {
    deadline: Instant,
    limit: Instant,
    min_gets: usize,
    done: AtomicUsize,
}

impl Stop {
    fn reached(&self) -> bool {
        let now = Instant::now();
        now >= self.limit
            || (now >= self.deadline && self.done.load(Ordering::Relaxed) >= self.min_gets)
    }
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    client: u64,
    n_frames: usize,
    hot: Range<usize>,
    stop: &Stop,
    traced: bool,
) -> ClientRun {
    let mut rng = Rng::seed_from_u64(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = ClientRun::default();
    let mut conn: Option<Client> = None;
    let mut k = 0u64;
    while !stop.reached() {
        let c = match conn.as_mut() {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    out.failures.push(format!("connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let range = next_range(&mut rng, n_frames, &hot);
        let start = Instant::now();
        let reply = c.get(range.clone());
        let end = Instant::now();
        let id = (client << 32) | k;
        k += 1;
        match reply {
            Ok(frames) => {
                out.answered += 1;
                stop.done.fetch_add(1, Ordering::Relaxed);
                let hash = combine(frames.iter().map(frame_hash));
                out.samples.push(Sample { id, range, start, end, hash, traced });
            }
            Err(e) => {
                if matches!(e, ClientError::Server { .. }) {
                    out.answered += 1;
                } else {
                    conn = None;
                }
                out.failures.push(format!("GET {range:?}: {e}"));
            }
        }
    }
    out
}

/// Runs the closed loop for `seconds`, and on until `min_gets` GETs have
/// completed or [`PHASE_LIMIT`] has passed; returns every client's samples.
fn drive(
    addr: SocketAddr,
    seed: u64,
    n_frames: usize,
    hot: &Range<usize>,
    (seconds, min_gets): (f64, usize),
    traced: bool,
) -> (Vec<ClientRun>, f64) {
    let start = Instant::now();
    let stop = Stop {
        deadline: start + Duration::from_secs_f64(seconds),
        limit: start + PHASE_LIMIT,
        min_gets,
        done: AtomicUsize::new(0),
    };
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let (hot, stop) = (hot.clone(), &stop);
                s.spawn(move || {
                    client_loop(addr, seed, c + 2 * traced as u64, n_frames, hot, stop, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientRun {
                    failures: vec!["client thread panicked".into()],
                    ..Default::default()
                })
            })
            .collect::<Vec<_>>()
    });
    (runs, start.elapsed().as_secs_f64())
}

fn metrics(report: &mut Report, addr: SocketAddr) -> Option<MetricsSnapshot> {
    let snap = Client::connect(addr).and_then(|mut c| c.metrics());
    report.op("METRICS", snap)
}

fn run(p: &Params, report: &mut Report, tracer: &mut Tracer) {
    let mut opts = StoreOptions::new(config());
    opts.buffer_size = BUFFER;
    opts.epoch_interval = EPOCH;
    let mut setup = Vec::new();
    let mut served: Option<(Vec<Frame>, Vec<u8>, Running)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, running)) = served.take() {
            if let Err(e) = running.stop() {
                report.fail(format!("stopping server: {e}"));
            }
        }
        let t = Instant::now();
        let frames = frames_of(mdz_sim::datasets::generate(DatasetKind::CopperB, p.scale, p.seed));
        let Some(archive) = report.op("write_store", write_store(&frames, &[], &[], &opts)) else {
            return;
        };
        let Some(reader) = report.op("open archive", StoreReader::open(archive.clone())) else {
            return;
        };
        let server = Server::bind(reader, "127.0.0.1:0", ServerConfig::default());
        let Some(running) = report.op("server boot", server.and_then(Running::start)) else {
            return;
        };
        setup.push(t.elapsed().as_secs_f64());
        served = Some((frames, archive, running));
    }
    report.set_setup(&setup);
    let Some((frames, archive, running)) = served else { return };
    let n_frames = frames.len();
    let n_atoms = frames[0].len();
    let raw_bytes = (n_frames * n_atoms * 24) as f64;
    let epoch_frames = EPOCH * BUFFER;
    let n_epochs = n_frames.div_ceil(epoch_frames);
    let hot_epochs = hot_epochs();
    let mut rng = Rng::seed_from_u64(p.seed);
    let hot_start = rng.index(n_epochs.saturating_sub(hot_epochs) + 1) * epoch_frames;
    let hot = hot_start..(hot_start + hot_epochs * epoch_frames).min(n_frames);
    report.note(
        "input",
        format!(
            "Copper-B {n_frames} frames x {n_atoms} atoms, archive {} bytes, buffer {BUFFER}, epoch {EPOCH} ({n_epochs} epochs)",
            archive.len()
        ),
    );
    report.note(
        "traffic",
        format!(
            "{CLIENTS} closed-loop Client connections; {:.0}% of GETs in frames {hot:?} ({hot_epochs} epochs), the rest uniform; spans {SPANS:?} equally likely",
            HOT_SHARE * 100.0
        ),
    );
    report.note(
        "traffic.assumptions",
        format!(
            "unverified, no access trace available: hot window = default cache ({} epochs) minus one epoch per client; hot share = Pareto 80/20; equal span weights",
            ReaderOptions::default().cache_epochs
        ),
    );
    report
        .note("server", "ServerConfig::default(), reader cache 4 epochs; no client socket options");

    // The archive against the input, and the reference every GET is
    // compared with, before the measured phase, so that neither the check
    // nor the input it needs sets the phase's peak memory.
    let Some(hashes) = reference_hashes(report, &frames, &archive) else {
        if let Err(e) = running.stop() {
            report.fail(format!("stopping server: {e}"));
        }
        return;
    };
    drop(frames);
    let scoped = host::reset_peak_rss();
    let (untraced, untraced_s) =
        drive(running.addr, p.seed, n_frames, &hot, (p.phase_seconds(), samples_for(0.99)), false);
    let peak_rss = host::peak_rss_mb();
    report.note(
        "peak_rss.scope",
        if scoped {
            "the untraced GET phase: server, reader cache, clients, plus the archive and hashes held for checks"
        } else {
            "the whole process (/proc/self/clear_refs not writable)"
        },
    );
    let mut runs = untraced;
    let mut before_traced = None;
    let mut metrics_calls = 0u64;
    if p.trace {
        before_traced = metrics(report, running.addr);
        metrics_calls += u64::from(before_traced.is_some());
        let (traced, _) = drive(running.addr, p.seed, n_frames, &hot, (p.phase_seconds(), 0), true);
        runs.extend(traced);
    }
    let after = metrics(report, running.addr);
    if let Err(e) = running.stop() {
        report.fail(format!("stopping server: {e}"));
    }

    let mut samples = Vec::new();
    let mut answered = 0;
    for r in runs {
        report.ops_ok(r.samples.len() as u64);
        for f in r.failures {
            report.fail(f);
        }
        answered += r.answered;
        samples.extend(r.samples);
    }
    samples.sort_by_key(|s| s.end);

    let bad = samples
        .iter()
        .filter(|s| {
            hashes.get(s.range.clone()).is_none_or(|h| s.hash != combine(h.iter().copied()))
        })
        .count();
    report.check(
        "every GET equals a local read_frames of the archive, bit for bit",
        bad == 0,
        format!("{bad} of {} GETs differ", samples.len()),
    );
    if let Some(snap) = &after {
        let served = snap.histogram("server.request_seconds").map_or(0, |h| h.count);
        let expected = answered + metrics_calls;
        report.check(
            "server.request_seconds count equals requests answered",
            served == expected,
            format!("server {served}, generator {expected}"),
        );
    }

    let latencies = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .collect()
    };
    let base = latencies(false);
    report.set_percentile("latency_p50_ms", &base, 0.50, 1e3);
    report.set_percentile("get_p50_ms", &base, 0.50, 1e3);
    report.set_percentile("get_p99_ms", &base, 0.99, 1e3);
    report.set("get_rps", base.len() as f64 / untraced_s);
    let frames_served: usize = samples.iter().filter(|s| !s.traced).map(|s| s.range.len()).sum();
    report.set("throughput_mbps", (frames_served * n_atoms * 24) as f64 / 1e6 / untraced_s);
    report.set("ratio", raw_bytes / archive.len() as f64);
    if p.trace {
        if let (Some(before), Some(after)) = (&before_traced, &after) {
            layer_rows(report, tracer, &archive, &samples, before, after, n_atoms);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (a, b) = (mean(&base), mean(&latencies(true)));
        report.set("trace.overhead_share", (b - a) / a);
    }
    report.set("success_rate", report.success_rate());
    if let Some(rss) = peak_rss {
        report.set("peak_rss_mb", rss);
    }
}

/// Decodes the whole archive one epoch at a time, checks every value
/// against the input, and returns each frame's fingerprint.
fn reference_hashes(report: &mut Report, frames: &[Frame], archive: &[u8]) -> Option<Vec<u64>> {
    let verifier = report.op("open archive", StoreReader::open(archive.to_vec()))?;
    let n_frames = frames.len();
    let eps = buffer_eps(frames, BUFFER, config().bound);
    let mut hashes = Vec::with_capacity(n_frames);
    let mut bound = Ok(0.0f64);
    for start in (0..n_frames).step_by(EPOCH * BUFFER) {
        let range = start..(start + EPOCH * BUFFER).min(n_frames);
        let part = report.op("read_frames (one epoch)", verifier.read_frames(range))?;
        bound =
            bound.and_then(|w| within_bound(frames, &part, start, BUFFER, &eps).map(|v| w.max(v)));
        hashes.extend(frame_hashes(&part));
    }
    report.check(
        "every decoded value within eps",
        bound.is_ok(),
        bound.map_or_else(|e| e, |w| format!("max |x - x'| / eps = {w:.4}")),
    );
    Some(hashes)
}

/// Replays every GET in completion order on a fresh reader with the
/// server's cache size, timing `read_frames`, `encode_frames` and
/// `parse_frames`, and splits the traced half's mean GET time.
fn layer_rows(
    report: &mut Report,
    tracer: &mut Tracer,
    archive: &[u8],
    samples: &[Sample],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    n_atoms: usize,
) {
    let Some(reader) = report.op("open archive", StoreReader::open(archive.to_vec())) else {
        return;
    };
    let mut read = Vec::new();
    let mut encode = Vec::new();
    let mut parse = Vec::new();
    let mut traced_sums = [0.0f64; 3];
    let mut mismatched = 0usize;
    for s in samples {
        let t0 = Instant::now();
        let Some(frames) = report.op("replay read_frames", reader.read_frames(s.range.clone()))
        else {
            continue;
        };
        let t1 = Instant::now();
        let body = encode_frames(s.range.start as u64, n_atoms, &frames);
        let t2 = Instant::now();
        let parsed = parse_frames(&body);
        let t3 = Instant::now();
        let client = tracer.record("client.get", None, Some(s.id), s.start, s.end);
        tracer.record("replay.read_frames", client, Some(s.id), t0, t1);
        tracer.record("replay.encode_frames", client, Some(s.id), t1, t2);
        tracer.record("replay.parse_frames", client, Some(s.id), t2, t3);
        let same = parsed.is_ok_and(|(_, back): (u64, Vec<Frame>)| back == frames)
            && combine(frames.iter().map(frame_hash)) == s.hash;
        mismatched += usize::from(!same);
        let d = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
        read.push(d[0]);
        encode.push(d[1]);
        parse.push(d[2]);
        if s.traced {
            for (sum, v) in traced_sums.iter_mut().zip(d) {
                *sum += v;
            }
        }
    }
    report.check(
        "replayed read_frames and protocol round trip equal every GET",
        mismatched == 0,
        format!("{mismatched} of {} differ", samples.len()),
    );
    report.set_percentile("reader.read_frames_p50_ms", &read, 0.50, 1e3);
    report.set_percentile("reader.read_frames_p99_ms", &read, 0.99, 1e3);
    report.set_percentile("protocol.encode_frames_p50_ms", &encode, 0.50, 1e3);
    report.set_percentile("protocol.parse_frames_p50_ms", &parse, 0.50, 1e3);

    let hits = after.counter("store.cache.hits") as f64;
    let misses = after.counter("store.cache.misses") as f64;
    report.set("store.cache.hit_ratio", hits / (hits + misses).max(1.0));
    let gets = after.counter("server.requests.get").max(1) as f64;
    report
        .set("store.buffers_decoded_per_get", after.counter("store.buffers_decoded") as f64 / gets);
    if let Some(h) = after.histogram("server.request_seconds") {
        report.set_estimated_percentile(
            "server.request_p50_ms",
            h.count as usize,
            0.50,
            h.p50 * 1e3,
        );
        report.set_estimated_percentile(
            "server.request_p99_ms",
            h.count as usize,
            0.99,
            h.p99 * 1e3,
        );
    }

    // The traced half, per GET: client time = server time + parse + transport.
    let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
    let n = traced.len().max(1) as f64;
    let client_s: f64 = traced.iter().map(|s| s.end.duration_since(s.start).as_secs_f64()).sum();
    let server_sum =
        |m: &MetricsSnapshot| m.histogram("server.request_seconds").map_or(0.0, |h| h.sum);
    let server_s = server_sum(after) - server_sum(before);
    let [read_s, encode_s, parse_s] = traced_sums;
    report.set("e2e_s", client_s / n);
    report.set("reader.read_frames_s", read_s / n);
    report.set("protocol.encode_frames_s", encode_s / n);
    report.set("server.other_s", (server_s - read_s - encode_s) / n);
    report.set("protocol.parse_frames_s", parse_s / n);
    report.set("unattributed_s", (client_s - server_s - parse_s) / n);
    report.samples("e2e_s", traced.len());

    let p50 = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.50)
    };
    let client = traced.iter().map(|s| s.end.duration_since(s.start).as_secs_f64()).collect();
    let server_p50 = after.histogram("server.get_seconds").map_or(0.0, |h| h.p50);
    match (p50(client), p50(parse)) {
        (Some(c), Some(pp)) => report.set("net.transport_p50_ms", (c - server_p50 - pp) * 1e3),
        _ => report.withhold("net.transport_p50_ms", 0.50, traced.len()),
    }
}
