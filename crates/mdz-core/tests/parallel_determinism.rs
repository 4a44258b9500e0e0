//! Cross-cutting determinism guarantees for the parallel trajectory
//! types.
//!
//! The contract under test: for every method and every worker count, the
//! batch entry points emit streams **byte-identical** to a serial
//! [`TrajectoryCompressor`] loop and decode exactly as a serial
//! [`TrajectoryDecompressor`] loop, first error included — parallelism is
//! an encoder implementation detail, never a format variable. The
//! corruption tests additionally pin the error behaviour to the serial
//! path's, replaying hostile inputs from the repository `corpus/`.

use std::path::{Path, PathBuf};

use mdz_core::traj::{assemble_container, split_container, TrajectoryDecompressor};
use mdz_core::{
    ErrorBound, Frame, MdzConfig, MdzError, Method, ParallelOptions, ParallelTrajectoryCompressor,
    ParallelTrajectoryDecompressor, TrajReader, TrajWriter, TrajectoryCompressor,
};

const METHODS: &[(&str, Method)] =
    &[("ADP", Method::Adaptive), ("VQ", Method::Vq), ("VQT", Method::Vqt), ("MT", Method::Mt)];

const WORKERS: [usize; 3] = [1, 2, 4];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("corpus")
}

fn corpus_seed(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "corpus seed {} unreadable ({e}); regenerate with \
             MDZ_BLESS_CORPUS=1 cargo test -p mdz-fuzz --test corpus_regressions",
            path.display()
        )
    })
}

/// Deterministic lattice-plus-noise snapshots, distinct per buffer index.
fn snapshots(buffer: usize, m: usize, n: usize) -> Vec<Vec<f64>> {
    let mut s = 0x5eed ^ (buffer as u64).wrapping_mul(0x9e3779b97f4a7c15);
    (0..m)
        .map(|t| {
            (0..n)
                .map(|i| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (i % 11) as f64 * 2.5 + u * 0.02 + (t + buffer) as f64 * 1e-4
                })
                .collect()
        })
        .collect()
}

/// A config with a short adaptive interval so an 8-buffer batch crosses
/// several trial boundaries.
fn config(method: Method) -> MdzConfig {
    let mut cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(method);
    cfg.adapt_interval = 2;
    cfg
}

fn frames(buffer: usize, n: usize, t: usize) -> Vec<Frame> {
    let axes = snapshots(buffer, 3 * t, n);
    (0..t)
        .map(|s| Frame::new(axes[3 * s].clone(), axes[3 * s + 1].clone(), axes[3 * s + 2].clone()))
        .collect()
}

/// Eight buffers whose atom count drops mid-batch and comes back, so each
/// axis re-establishes its MT reference twice inside one batch.
fn batch() -> Vec<Vec<Frame>> {
    [160, 160, 160, 96, 96, 160, 160, 160]
        .iter()
        .enumerate()
        .map(|(k, &n)| frames(k, n, 5))
        .collect()
}

fn serial_compress(method: Method, buffers: &[Vec<Frame>]) -> Result<Vec<Vec<u8>>, MdzError> {
    let mut comp = TrajectoryCompressor::new(config(method));
    buffers.iter().map(|b| comp.compress_buffer(b)).collect()
}

fn serial_decompress(containers: &[&[u8]]) -> Result<Vec<Vec<Frame>>, MdzError> {
    let mut dec = TrajectoryDecompressor::new();
    containers.iter().map(|c| dec.decompress_buffer(c)).collect()
}

fn parallel_compress(
    method: Method,
    buffers: &[Vec<Frame>],
    workers: usize,
) -> Result<Vec<Vec<u8>>, MdzError> {
    let refs: Vec<&[Frame]> = buffers.iter().map(Vec::as_slice).collect();
    ParallelTrajectoryCompressor::new(config(method))
        .with_parallelism(ParallelOptions::with_workers(workers))
        .compress_buffers(&refs)
}

fn parallel_decompress(containers: &[&[u8]], workers: usize) -> Result<Vec<Vec<Frame>>, MdzError> {
    ParallelTrajectoryDecompressor::new()
        .with_parallelism(ParallelOptions::with_workers(workers))
        .decompress_buffers(containers)
}

#[test]
fn workers_byte_identical_to_serial_trajectory() {
    let buffers = batch();
    for &(name, method) in METHODS {
        let expected = serial_compress(method, &buffers).unwrap();
        let containers: Vec<&[u8]> = expected.iter().map(Vec::as_slice).collect();
        let decoded = serial_decompress(&containers).unwrap();
        for workers in WORKERS {
            let got = parallel_compress(method, &buffers, workers).unwrap();
            assert_eq!(got, expected, "{name}: {workers}-worker stream diverged from serial");
            let frames = parallel_decompress(&containers, workers).unwrap();
            assert_eq!(frames, decoded, "{name}: {workers}-worker decode diverged from serial");
        }
    }
}

/// The first error surfaces in buffer order, then in axis order, exactly
/// as a serial loop stops on it.
#[test]
fn first_error_matches_serial_trajectory_loop() {
    let good = batch();
    // Buffer 1: y ragged ("ragged snapshots") and z empty ("snapshots are
    // empty"); buffer 2: x empty; buffer 3: no frames at all.
    let mut bad = good[..3].to_vec();
    bad[1][2].y.pop();
    for f in &mut bad[1] {
        f.z.clear();
    }
    for f in &mut bad[2] {
        f.x.clear();
    }
    bad.push(Vec::new());
    let no_frames_first = vec![good[0].clone(), Vec::new(), bad[1].clone()];
    for (inputs, want) in [
        (&bad, MdzError::BadInput("ragged snapshots in buffer")),
        (&no_frames_first, MdzError::BadInput("buffer has no frames")),
    ] {
        for &(name, method) in METHODS {
            assert_eq!(serial_compress(method, inputs).unwrap_err(), want, "{name}");
            for workers in WORKERS {
                let got = parallel_compress(method, inputs, workers).unwrap_err();
                assert_eq!(got, want, "{name}: {workers}-worker compress error");
            }
        }
    }

    let encoded = serial_compress(Method::Mt, &good).unwrap();
    let [x, y, z] = split_container(&encoded[1]).unwrap();
    let mut bad_magic = y.to_vec();
    bad_magic[0] ^= 0xFF;
    let truncated = &z[..z.len() / 2];
    // Container 1 fails on y and z; container 2 does not split.
    let damaged = assemble_container(&[x.to_vec(), bad_magic, truncated.to_vec()]);
    let containers: Vec<&[u8]> = vec![&encoded[0], &damaged, &encoded[2][..3], &encoded[3]];
    // z alone would fail with "truncated payload", container 2 alone with
    // "truncated container".
    let want = MdzError::BadHeader("not an MDZ block");
    assert_eq!(serial_decompress(&containers).unwrap_err(), want);
    let unsplit_first: Vec<&[u8]> = vec![&encoded[0], &encoded[2][..3], &damaged];
    let want_unsplit = MdzError::BadHeader("truncated container");
    assert_eq!(serial_decompress(&unsplit_first).unwrap_err(), want_unsplit);
    for workers in WORKERS {
        assert_eq!(parallel_decompress(&containers, workers).unwrap_err(), want, "{workers}");
        let got = parallel_decompress(&unsplit_first, workers).unwrap_err();
        assert_eq!(got, want_unsplit, "{workers} workers");
    }
}

/// A framed stream with corpus-crafted garbage spliced between valid
/// frames must decode concurrently exactly as it does serially: the
/// reader skips the damage, and every intact buffer round-trips.
#[test]
fn concurrent_reader_recovers_around_corpus_garbage() {
    let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Vq);
    let buffers: Vec<Vec<Frame>> = (0..4).map(|k| frames(k, 90, 4)).collect();

    let mut writer =
        TrajWriter::new(Vec::new(), cfg).with_parallelism(ParallelOptions::with_workers(4));
    let mut ends = Vec::new();
    let mut offset = 0;
    for buf in &buffers {
        offset += writer.write_buffer(buf).unwrap();
        ends.push(offset);
    }
    let bytes = writer.into_inner();

    // frame_bad_crc.bin is a complete frame whose checksum is broken; the
    // reader must reject it and resynchronise on the next magic.
    let bad_crc = corpus_seed("frame_bad_crc.bin");
    let mut stream = Vec::new();
    stream.extend_from_slice(&bytes[..ends[1]]);
    stream.extend_from_slice(&bad_crc);
    stream.extend_from_slice(&bytes[ends[1]..]);
    stream.extend_from_slice(&bad_crc);

    let mut reader = TrajReader::new(&stream);
    let mut dec =
        ParallelTrajectoryDecompressor::new().with_parallelism(ParallelOptions::with_workers(4));
    let decoded = reader.decode_all_parallel(&mut dec).unwrap();

    assert!(reader.skipped() >= 1, "corrupt frame was not flagged as skipped");
    assert_eq!(decoded.len(), buffers.len(), "intact buffer lost during recovery");
    for (got, want) in decoded.iter().zip(&buffers) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            for (a, b) in g.x.iter().zip(&w.x) {
                assert!((a - b).abs() <= 1e-4);
            }
        }
    }
}

/// A hostile container from the corpus must be rejected by the parallel
/// batch decoder exactly like the serial decoder — typed error, no panic.
#[test]
fn parallel_decode_rejects_corpus_container_like_serial() {
    let hostile = corpus_seed("traj_truncated_axis.bin");

    let serial = TrajectoryDecompressor::new().decompress_buffer(&hostile);
    assert!(serial.is_err(), "corpus container unexpectedly decoded serially");

    let mut dec =
        ParallelTrajectoryDecompressor::new().with_parallelism(ParallelOptions::with_workers(4));
    let parallel = dec.decompress_buffers(&[hostile.as_slice()]);
    assert!(parallel.is_err(), "parallel decoder accepted a container the serial path rejects");
}
