//! `compress-copper`: the whole Copper-B trajectory compressed and
//! decompressed through the three-axis parallel engine, at 1 worker and at
//! one worker per hardware thread.
//!
//! Crystal data is where level detection succeeds, so k-means, VQ and the
//! full encode pipeline are on the path; the store, cache and server are
//! not, so serving changes should leave this workload unchanged.
//!
//! The traced half repeats the same rounds inside spans, and after each
//! round compresses and decodes every axis on its own with a per-axis
//! `Compressor`/`Decompressor` that records the pipeline's stage spans into
//! a registry. The three-axis time minus the per-axis codec time is the
//! container layer; the per-axis time minus the recorded stages and the
//! level-detection calls is the codec's unattributed remainder.

use std::sync::Arc;
use std::time::Instant;

use mdz_core::traj::split_container;
use mdz_core::{
    Compressor, Decompressor, ErrorBound, Frame, MdzConfig, Obs, ParallelOptions,
    ParallelTrajectoryCompressor, ParallelTrajectoryDecompressor,
};
use mdz_kmeans::SelectConfig;
use mdz_obs::Registry;
use mdz_sim::DatasetKind;

use crate::check::{buffer_eps, frame_hashes, frames_of, within_bound};
use crate::report::{decl, median, samples_for, Decl, Report};
use crate::trace::{SpanId, Tracer};
use crate::{host, Params, Workload, PHASE_LIMIT};

pub const WORKLOAD: Workload = Workload { name: "compress-copper", layers: LAYERS, run };

const LAYERS: &[Decl] = &[
    decl("e2e_s", "s"),
    decl("unattributed_s", "s"),
    decl("trace.overhead_share", "ratio"),
    decl("compress_mbps", "MB/s"),
    decl("decompress_mbps", "MB/s"),
    decl("compress_mbps_par", "MB/s"),
    decl("decompress_mbps_par", "MB/s"),
    decl("kmeans.detect_s", "s"),
    decl("kmeans.detect_runs", "count"),
    decl("kmeans.detected", "count"),
    decl("adp.trials", "count"),
    decl("encode.escape_share", "ratio"),
    decl("encode.predict_quantize_s", "s"),
    decl("encode.entropy_s", "s"),
    decl("encode.lossless_s", "s"),
    decl("encode.unattributed_s", "s"),
    decl("container_s", "s"),
    decl("decode.lossless_s", "s"),
    decl("decode.reconstruct_s", "s"),
    decl("decode.unattributed_s", "s"),
    decl("par.compress_s", "s"),
    decl("par.decompress_s", "s"),
    decl("par.compress_scaling", "x"),
    decl("par.decompress_scaling", "x"),
];

/// Frames per buffer.
pub const BUFFER: usize = 10;
/// Value-range-relative error bound.
pub const EPS: f64 = 1e-3;
/// Set-up is repeated this many times and its median reported.
pub const SETUP_REPS: usize = 5;

pub fn config() -> MdzConfig {
    MdzConfig::new(ErrorBound::ValueRangeRelative(EPS))
}

/// The wall time of each timed call in one round, seconds.
#[derive(Clone, Copy)]
struct Times {
    c1: f64,
    d1: f64,
    cn: f64,
    dn: f64,
    /// The whole round, glue between the calls included.
    round: f64,
    /// The round's span in a traced run.
    span: Option<SpanId>,
}

struct Outputs {
    c1: Vec<Vec<u8>>,
    d1: Vec<Vec<Frame>>,
    cn: Vec<Vec<u8>>,
    dn: Vec<Vec<Frame>>,
}

/// Output checks accumulated over every round.
#[derive(Default)]
struct Checks {
    /// 1-worker containers of the first round: the reference bytes.
    reference: Option<Vec<Vec<u8>>>,
    /// Per-frame fingerprints of the first 1-worker decode.
    decoded: Vec<u64>,
    /// Largest |x − x̂| / ε of the first decode.
    worst: f64,
    bound_error: Option<String>,
    rounds: usize,
    repeat_mismatch: usize,
    par_bytes_mismatch: usize,
    decode_mismatch: usize,
    /// Per-axis passes compared against the containers' axis blocks.
    axis_passes: usize,
    axis_mismatch: usize,
}

struct Ctx<'a> {
    frames: &'a [Frame],
    workers: usize,
    eps: Vec<[f64; 3]>,
}

fn run(p: &Params, report: &mut Report, tracer: &mut Tracer) {
    let mut setup = Vec::new();
    let mut frames = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        drop(std::mem::take(&mut frames));
        frames = frames_of(mdz_sim::datasets::generate(DatasetKind::CopperB, p.scale, p.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    report.set_setup(&setup);
    let n_atoms = frames[0].len();
    let raw_bytes = (frames.len() * n_atoms * 24) as f64;
    let ctx = Ctx {
        frames: &frames,
        workers: host::threads(),
        eps: buffer_eps(&frames, BUFFER, config().bound),
    };
    report.note(
        "input",
        format!(
            "Copper-B {} frames x {n_atoms} atoms ({:.1} MB f64), ADP, eps {EPS} value-range-relative, buffer {BUFFER}",
            frames.len(),
            raw_bytes / 1e6
        ),
    );
    report.note("workers", format!("1 and {}", ctx.workers));

    let mut checks = Checks::default();
    let scoped = host::reset_peak_rss();
    let untraced = phase(
        &ctx,
        (p.phase_seconds(), samples_for(0.50)),
        report,
        &mut Tracer::new(false),
        &mut checks,
        None,
    );
    let peak_rss = host::peak_rss_mb();
    report.note(
        "peak_rss.scope",
        if scoped {
            "the untraced rounds: the input, the codecs and their outputs"
        } else {
            "the whole process (/proc/self/clear_refs not writable)"
        },
    );
    let mut attribution = Attribution::default();
    let traced_rounds = if p.trace {
        let axes = axis_buffers(&frames);
        let budget = (p.phase_seconds(), 1);
        phase(&ctx, budget, report, tracer, &mut checks, Some((&axes, &mut attribution)))
    } else {
        Vec::new()
    };
    report_checks(report, &checks, ctx.workers);

    let list = |f: fn(&Times) -> f64| -> String {
        untraced.iter().map(|t| format!("{:.1}", f(t) * 1e3)).collect::<Vec<_>>().join(" ")
    };
    report.note("rounds_ms.compress_w1", list(|t| t.c1));
    report.note("rounds_ms.decompress_w1", list(|t| t.d1));
    report.note("rounds_ms.compress_wN", list(|t| t.cn));
    report.note("rounds_ms.decompress_wN", list(|t| t.dn));
    // Throughput over the whole phase (every round's bytes over every
    // round's time): the host's speed swings between rounds, and the
    // aggregate is steadier across runs than a per-round median.
    let total = |f: fn(&Times) -> f64| untraced.iter().map(f).sum::<f64>();
    let (c1, d1, cn, dn) = (total(|t| t.c1), total(|t| t.d1), total(|t| t.cn), total(|t| t.dn));
    let mb = raw_bytes / 1e6 * untraced.len() as f64;
    report.samples("throughput_mbps", untraced.len());
    report.set("throughput_mbps", 4.0 * mb / (c1 + d1 + cn + dn));
    let calls: Vec<f64> = untraced.iter().map(|t| t.c1 + t.d1 + t.cn + t.dn).collect();
    report.set_percentile("latency_p50_ms", &calls, 0.50, 1e3);
    report.samples("compress_mbps", untraced.len());
    report.set("compress_mbps", mb / c1);
    report.set("decompress_mbps", mb / d1);
    report.set("compress_mbps_par", mb / cn);
    report.set("decompress_mbps_par", mb / dn);
    report.set("par.compress_scaling", c1 / cn);
    report.set("par.decompress_scaling", d1 / dn);
    if let Some(reference) = &checks.reference {
        report.set("ratio", raw_bytes / reference.iter().map(Vec::len).sum::<usize>() as f64);
    }
    if !traced_rounds.is_empty() {
        layer_rows(report, tracer, &untraced, &traced_rounds, &attribution);
    }
    report.set("success_rate", report.success_rate());
    if let Some(rss) = peak_rss {
        report.set("peak_rss_mb", rss);
    }
}

/// Runs rounds until `seconds` have passed and at least `min_rounds` have
/// completed (at least one), or until [`PHASE_LIMIT`] has passed, checking
/// each round's outputs and, when given per-axis inputs, following each
/// round with an attribution pass.
fn phase(
    ctx: &Ctx,
    (seconds, min_rounds): (f64, usize),
    report: &mut Report,
    tracer: &mut Tracer,
    checks: &mut Checks,
    mut attribution: Option<(&AxisBuffers, &mut Attribution)>,
) -> Vec<Times> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty()
        || (start.elapsed() < PHASE_LIMIT
            && (rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds))
    {
        let Some((out, times)) = timed_round(ctx, report, tracer) else { break };
        verify(ctx, out, checks);
        rounds.push(times);
        if let Some((axes, acc)) = attribution.as_mut() {
            attribute(axes, checks, report, tracer, acc);
        }
    }
    rounds
}

fn timed_round(ctx: &Ctx, report: &mut Report, tracer: &mut Tracer) -> Option<(Outputs, Times)> {
    let buffers: Vec<&[Frame]> = ctx.frames.chunks(BUFFER).collect();
    let start = Instant::now();
    let round = tracer.record("round", None, None, start, start);
    let mut compress = |workers: usize, name| {
        let par = ParallelOptions::with_workers(workers);
        let t = Instant::now();
        let out = ParallelTrajectoryCompressor::new(config())
            .with_parallelism(par)
            .compress_buffers(&buffers);
        let end = Instant::now();
        tracer.record(name, round, None, t, end);
        (out, end.duration_since(t).as_secs_f64())
    };
    let (c1, t_c1) = compress(1, "traj.compress.w1");
    let (cn, t_cn) = compress(ctx.workers, "traj.compress.wN");
    let c1 = report.op("compress (1 worker)", c1)?;
    let cn = report.op("compress (N workers)", cn)?;
    let refs: Vec<&[u8]> = c1.iter().map(Vec::as_slice).collect();
    let mut decompress = |workers: usize, name| {
        let par = ParallelOptions::with_workers(workers);
        let t = Instant::now();
        let out =
            ParallelTrajectoryDecompressor::new().with_parallelism(par).decompress_buffers(&refs);
        let end = Instant::now();
        tracer.record(name, round, None, t, end);
        (out, end.duration_since(t).as_secs_f64())
    };
    let (d1, t_d1) = decompress(1, "traj.decompress.w1");
    let (dn, t_dn) = decompress(ctx.workers, "traj.decompress.wN");
    let end = Instant::now();
    tracer.close(round, end);
    let d1 = report.op("decompress (1 worker)", d1)?;
    let dn = report.op("decompress (N workers)", dn)?;
    let round_s = end.duration_since(start).as_secs_f64();
    let times = Times { c1: t_c1, d1: t_d1, cn: t_cn, dn: t_dn, round: round_s, span: round };
    Some((Outputs { c1, d1, cn, dn }, times))
}

fn verify(ctx: &Ctx, out: Outputs, checks: &mut Checks) {
    checks.rounds += 1;
    if checks.reference.is_none() {
        let decoded: Vec<Frame> = out.d1.iter().flatten().cloned().collect();
        match within_bound(ctx.frames, &decoded, 0, BUFFER, &ctx.eps) {
            Ok(w) => checks.worst = w,
            Err(e) => checks.bound_error = Some(e),
        }
        if decoded.len() != ctx.frames.len() {
            checks.bound_error =
                Some(format!("{} frames decoded of {}", decoded.len(), ctx.frames.len()));
        }
        checks.decoded = frame_hashes(&decoded);
        checks.reference = Some(out.c1.clone());
    }
    let reference = checks.reference.as_ref().expect("set above");
    checks.repeat_mismatch += usize::from(&out.c1 != reference);
    checks.par_bytes_mismatch += usize::from(&out.cn != reference);
    for decoded in [&out.d1, &out.dn] {
        let hashes: Vec<u64> = decoded.iter().flat_map(|b| frame_hashes(b)).collect();
        checks.decode_mismatch += usize::from(hashes != checks.decoded);
    }
}

fn report_checks(report: &mut Report, c: &Checks, workers: usize) {
    let rounds = c.rounds;
    report.check(
        "every decoded value within eps",
        c.reference.is_some() && c.bound_error.is_none(),
        c.bound_error.clone().unwrap_or_else(|| format!("max |x - x'| / eps = {:.4}", c.worst)),
    );
    report.check(
        format!("compressed bytes identical at 1 and {workers} workers"),
        c.par_bytes_mismatch == 0,
        format!("{} of {rounds} rounds differ", c.par_bytes_mismatch),
    );
    report.check(
        "compressed bytes identical across rounds",
        c.repeat_mismatch == 0,
        format!("{} of {rounds} rounds differ", c.repeat_mismatch),
    );
    report.check(
        format!("decoded frames identical at 1 and {workers} workers, every round"),
        c.decode_mismatch == 0,
        format!("{} of {} decodes differ", c.decode_mismatch, 2 * rounds),
    );
    if c.axis_passes > 0 {
        report.check(
            "per-axis codec bytes equal the container's axis blocks",
            c.axis_mismatch == 0,
            format!("{} of {} axis passes differ", c.axis_mismatch, c.axis_passes),
        );
    }
}

/// axis → buffer → snapshots, the per-axis codec's input.
type AxisBuffers = [Vec<Vec<Vec<f64>>>; 3];

fn axis_buffers(frames: &[Frame]) -> AxisBuffers {
    let pick = |a: usize| -> Vec<Vec<Vec<f64>>> {
        frames
            .chunks(BUFFER)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|f| match a {
                        0 => f.x.clone(),
                        1 => f.y.clone(),
                        _ => f.z.clone(),
                    })
                    .collect()
            })
            .collect()
    };
    [pick(0), pick(1), pick(2)]
}

/// Totals of the attribution passes.
#[derive(Default)]
struct Attribution {
    passes: usize,
    axis_compress_s: f64,
    axis_decompress_s: f64,
    detect_calls: Vec<f64>,
    registry: Option<Arc<Registry>>,
}

/// Compresses and decodes every axis on its own, recording the pipeline's
/// stage spans, and times level detection on the snapshots ADP trials
/// start from.
fn attribute(
    axes: &AxisBuffers,
    checks: &mut Checks,
    report: &mut Report,
    tracer: &mut Tracer,
    acc: &mut Attribution,
) {
    let registry = Arc::clone(acc.registry.get_or_insert_with(|| Arc::new(Registry::new())));
    let obs = Obs::new(registry);
    let cfg = config();
    let start = Instant::now();
    let pass = tracer.record("attribution", None, None, start, start);
    for (a, buffers) in axes.iter().enumerate() {
        let mut comp = Compressor::new(cfg.clone());
        comp.set_obs(obs.clone());
        let t = Instant::now();
        let blocks: Result<Vec<Vec<u8>>, _> =
            buffers.iter().map(|b| comp.compress_buffer(b)).collect();
        let end = Instant::now();
        tracer.record("axis.compress", pass, None, t, end);
        acc.axis_compress_s += end.duration_since(t).as_secs_f64();
        let Some(blocks) = report.op("per-axis compress", blocks) else { continue };
        if let Some(reference) = &checks.reference {
            let same = reference
                .iter()
                .zip(&blocks)
                .all(|(c, b)| split_container(c).is_ok_and(|s| s[a] == b.as_slice()));
            checks.axis_passes += 1;
            checks.axis_mismatch += usize::from(!same || reference.len() != blocks.len());
        }
        let mut dec = Decompressor::new();
        dec.set_obs(obs.clone());
        let t = Instant::now();
        let decoded: Result<Vec<Vec<Vec<f64>>>, _> =
            blocks.iter().map(|b| dec.decompress_block(b)).collect();
        let end = Instant::now();
        tracer.record("axis.decompress", pass, None, t, end);
        acc.axis_decompress_s += end.duration_since(t).as_secs_f64();
        report.op("per-axis decompress", decoded);

        let sel = SelectConfig {
            max_k: cfg.max_levels,
            sample_fraction: cfg.level_sample_fraction,
            ..Default::default()
        };
        for buffer in buffers.iter().step_by(cfg.adapt_interval as usize) {
            let t = Instant::now();
            std::hint::black_box(mdz_kmeans::detect_levels(std::hint::black_box(&buffer[0]), &sel));
            let end = Instant::now();
            tracer.record("kmeans.detect_levels", pass, None, t, end);
            acc.detect_calls.push(end.duration_since(t).as_secs_f64());
        }
    }
    tracer.close(pass, Instant::now());
    acc.passes += 1;
}

fn layer_rows(
    report: &mut Report,
    tracer: &Tracer,
    untraced: &[Times],
    traced: &[Times],
    acc: &Attribution,
) {
    let n = traced.len() as f64;
    let mean = |f: fn(&Times) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let (round, c1, d1, cn, dn) =
        (mean(|t| t.round), mean(|t| t.c1), mean(|t| t.d1), mean(|t| t.cn), mean(|t| t.dn));
    let passes = acc.passes.max(1) as f64;
    let snap = acc.registry.as_ref().map(|r| r.snapshot()).unwrap_or_default();
    let hist = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum) / passes;
    let count = |name: &str| snap.counter(name) as f64 / passes;

    let detect_runs = count("core.grid.detect_runs");
    let detect_call = median(&acc.detect_calls).unwrap_or_default();
    let detect_s = detect_runs * detect_call;
    let (pq, ent, ll) = (
        hist("core.encode.predict_quantize_seconds"),
        hist("core.encode.entropy_seconds"),
        hist("core.encode.lossless_seconds"),
    );
    let (dll, drec) =
        (hist("core.decode.lossless_seconds"), hist("core.decode.reconstruct_seconds"));
    let (axis_c, axis_d) = (acc.axis_compress_s / passes, acc.axis_decompress_s / passes);

    report.set("e2e_s", round);
    report.set("kmeans.detect_s", detect_s);
    report.set("kmeans.detect_runs", detect_runs);
    report.set("kmeans.detected", count("core.grid.detected"));
    report.set("adp.trials", count("core.adp.trials"));
    let values = count("core.encode.values");
    report.set(
        "encode.escape_share",
        if values > 0.0 { count("core.encode.escapes") / values } else { 0.0 },
    );
    report.set("encode.predict_quantize_s", pq);
    report.set("encode.entropy_s", ent);
    report.set("encode.lossless_s", ll);
    report.set("encode.unattributed_s", axis_c - pq - ent - ll - detect_s);
    report.set("container_s", (c1 - axis_c) + (d1 - axis_d));
    report.set("decode.lossless_s", dll);
    report.set("decode.reconstruct_s", drec);
    report.set("decode.unattributed_s", axis_d - dll - drec);
    report.set("par.compress_s", cn);
    report.set("par.decompress_s", dn);
    // The round's self time: what its four timed calls do not cover.
    report.set(
        "unattributed_s",
        traced.iter().filter_map(|t| t.span).map(|id| tracer.self_seconds(id)).sum::<f64>() / n,
    );
    report.samples("e2e_s", traced.len());
    report.samples("kmeans.detect_s", acc.detect_calls.len());
    if let Some(base) = median(&untraced.iter().map(|t| t.round).collect::<Vec<_>>()) {
        let traced_round =
            median(&traced.iter().map(|t| t.round).collect::<Vec<_>>()).unwrap_or(base);
        report.set("trace.overhead_share", (traced_round - base) / base);
    }
}
