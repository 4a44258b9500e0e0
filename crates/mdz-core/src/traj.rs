//! Three-axis trajectory convenience layer.
//!
//! MD positions are `(x, y, z)` triples, but the paper compresses each axis
//! as an independent stream (each axis may even pick a different method —
//! Table VI shows ADP choosing VQ for x/y and MT for z on Copper-B). This
//! module wraps three per-axis [`Codec`]s behind one call and frames the
//! three blocks in a tiny container. The axes are MDZ by default but any
//! [`Codec`] mix works ([`TrajectoryCompressor::from_codecs`]).

use crate::codec::{Codec, MdzCodec};
use crate::format::{read_frame, write_frame, FRAME_MAGIC};
use crate::{Compressor, DecodeLimits, Decompressor, ErrorBound, MdzConfig, MdzError, Result};
use mdz_entropy::{read_uvarint, write_uvarint};

/// Container magic for a three-axis block group.
const TRAJ_MAGIC: [u8; 4] = *b"MDZT";

/// One snapshot of particle positions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Frame {
    /// Per-particle x coordinates.
    pub x: Vec<f64>,
    /// Per-particle y coordinates.
    pub y: Vec<f64>,
    /// Per-particle z coordinates.
    pub z: Vec<f64>,
}

impl Frame {
    /// Creates a frame from per-axis vectors (must be equally long).
    pub fn new(x: Vec<f64>, y: Vec<f64>, z: Vec<f64>) -> Self {
        assert!(x.len() == y.len() && y.len() == z.len(), "axes must be equally long");
        Self { x, y, z }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the frame holds no particles.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The coordinates of axis 0 (x), 1 (y) or 2 (z).
    fn axis(&self, axis: usize) -> &Vec<f64> {
        [&self.x, &self.y, &self.z][axis]
    }
}

/// Stateful three-axis compressor.
pub struct TrajectoryCompressor {
    axes: [Box<dyn Codec>; 3],
    bound: ErrorBound,
}

impl TrajectoryCompressor {
    /// Creates one MDZ codec per axis from a shared configuration.
    pub fn new(cfg: MdzConfig) -> Self {
        let bound = cfg.bound;
        let axes: [Box<dyn Codec>; 3] =
            std::array::from_fn(|_| Box::new(MdzCodec::from_config(cfg.clone())) as Box<dyn Codec>);
        Self { axes, bound }
    }

    /// Builds a trajectory compressor from three arbitrary per-axis codecs.
    pub fn from_codecs(axes: [Box<dyn Codec>; 3], bound: ErrorBound) -> Self {
        Self { axes, bound }
    }

    /// Compresses a buffer of frames into one container blob.
    pub fn compress_buffer(&mut self, frames: &[Frame]) -> Result<Vec<u8>> {
        if frames.is_empty() {
            return Err(MdzError::BadInput("buffer has no frames"));
        }
        let xs: Vec<Vec<f64>> = frames.iter().map(|f| f.x.clone()).collect();
        let ys: Vec<Vec<f64>> = frames.iter().map(|f| f.y.clone()).collect();
        let zs: Vec<Vec<f64>> = frames.iter().map(|f| f.z.clone()).collect();
        let blocks = [
            self.axes[0].compress_buffer(&xs, self.bound)?,
            self.axes[1].compress_buffer(&ys, self.bound)?,
            self.axes[2].compress_buffer(&zs, self.bound)?,
        ];
        Ok(assemble(&blocks))
    }

    /// Like [`Self::compress_buffer`] but wraps the container in a
    /// checksummed [`crate::format::FRAME_MAGIC`] frame, so an archival
    /// stream of buffers can be scanned with [`TrajReader`] and survives
    /// localized corruption by dropping only the damaged buffer.
    pub fn compress_buffer_framed(&mut self, frames: &[Frame]) -> Result<Vec<u8>> {
        let container = self.compress_buffer(frames)?;
        let mut out = Vec::with_capacity(container.len() + crate::format::FRAME_HEADER_LEN);
        write_frame(&container, &mut out)?;
        Ok(out)
    }
}

/// Scanning reader over a stream of checksummed frames.
///
/// Yields each frame's verified payload in order. When a frame fails its
/// checksum — or the stream contains garbage between frames — the reader
/// *resynchronizes*: it scans forward for the next [`FRAME_MAGIC`] marker
/// and continues from there, so one damaged buffer costs exactly that
/// buffer, not the rest of the stream. [`TrajReader::skipped`] reports how
/// many damaged regions were skipped.
pub struct TrajReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Contiguous damaged regions skipped so far (one region may span
    /// several false magic hits).
    skipped: usize,
    /// Whether the scanner is currently inside a damaged region (so a chain
    /// of failed resync candidates counts as one skip).
    resyncing: bool,
}

impl<'a> TrajReader<'a> {
    /// Starts scanning `data` from the beginning.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0, skipped: 0, resyncing: false }
    }

    /// Number of damaged regions skipped so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Byte offset the scanner will read next.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for TrajReader<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        while self.pos < self.data.len() {
            match read_frame(self.data, &mut self.pos) {
                Ok(payload) => {
                    self.resyncing = false;
                    return Some(payload);
                }
                Err(_) => {
                    if !self.resyncing {
                        self.resyncing = true;
                        self.skipped += 1;
                    }
                    // Scan forward for the next magic marker, starting one
                    // byte past the failed position so a corrupt frame whose
                    // magic is intact doesn't loop forever.
                    match self.data[self.pos + 1..]
                        .windows(FRAME_MAGIC.len())
                        .position(|w| w == FRAME_MAGIC)
                    {
                        Some(off) => self.pos += 1 + off,
                        None => {
                            self.pos = self.data.len();
                            return None;
                        }
                    }
                }
            }
        }
        None
    }
}

/// Splits a trajectory container into its three per-axis blocks.
///
/// Public for layers that address axis blocks individually (the `mdz-store`
/// epoch decoder); most callers want [`TrajectoryDecompressor`] instead.
pub fn split_container(data: &[u8]) -> Result<[&[u8]; 3]> {
    let magic = data.get(..4).ok_or(MdzError::BadHeader("truncated container"))?;
    if magic != TRAJ_MAGIC {
        return Err(MdzError::BadHeader("not an MDZ trajectory container"));
    }
    let mut pos = 4;
    let mut blocks = [&data[0..0]; 3];
    for slot in &mut blocks {
        let len = read_uvarint(data, &mut pos)? as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or(MdzError::BadHeader("truncated axis block"))?;
        *slot = &data[pos..end];
        pos = end;
    }
    Ok(blocks)
}

/// Zips three per-axis snapshot lists back into frames, checking that the
/// axes agree on snapshot and particle counts.
fn zip_frames(x: Vec<Vec<f64>>, y: Vec<Vec<f64>>, z: Vec<Vec<f64>>) -> Result<Vec<Frame>> {
    if x.len() != y.len() || y.len() != z.len() {
        return Err(MdzError::BadHeader("axis snapshot counts disagree"));
    }
    let mut frames = Vec::with_capacity(x.len());
    for ((x, y), z) in x.into_iter().zip(y).zip(z) {
        if x.len() != y.len() || y.len() != z.len() {
            return Err(MdzError::BadHeader("axis particle counts disagree"));
        }
        frames.push(Frame { x, y, z });
    }
    Ok(frames)
}

/// Frames three per-axis blocks into the trajectory container.
///
/// Inverse of [`split_container`]; public for layers that produce axis
/// blocks through [`crate::Compressor`] directly (the `mdz-store` epoch
/// writer) yet must stay byte-compatible with [`TrajectoryCompressor`].
pub fn assemble_container(blocks: &[Vec<u8>; 3]) -> Vec<u8> {
    assemble(blocks)
}

fn assemble(blocks: &[Vec<u8>; 3]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.iter().map(Vec::len).sum::<usize>() + 16);
    out.extend_from_slice(&TRAJ_MAGIC);
    for b in blocks {
        write_uvarint(&mut out, b.len() as u64);
        out.extend_from_slice(b);
    }
    out
}

/// Stateful three-axis decompressor.
pub struct TrajectoryDecompressor {
    axes: [Box<dyn Codec>; 3],
}

impl Default for TrajectoryDecompressor {
    fn default() -> Self {
        Self { axes: std::array::from_fn(|_| Box::new(MdzCodec::default()) as Box<dyn Codec>) }
    }
}

impl TrajectoryDecompressor {
    /// Creates an MDZ decompressor with empty stream state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trajectory decompressor from three arbitrary per-axis
    /// codecs (must match the codecs that produced the container).
    pub fn from_codecs(axes: [Box<dyn Codec>; 3]) -> Self {
        Self { axes }
    }

    /// Decompresses one container blob back into frames.
    pub fn decompress_buffer(&mut self, data: &[u8]) -> Result<Vec<Frame>> {
        let blocks = split_container(data)?;
        let x = self.axes[0].decompress_buffer(blocks[0])?;
        let y = self.axes[1].decompress_buffer(blocks[1])?;
        let z = self.axes[2].decompress_buffer(blocks[2])?;
        zip_frames(x, y, z)
    }
}

/// Worker configuration for [`ParallelTrajectoryCompressor`],
/// [`ParallelTrajectoryDecompressor`] and [`TrajWriter`].
///
/// `workers <= 1` (the default) runs the three axis streams one after
/// another on the caller thread. Any `workers > 1` runs them on three
/// scoped threads, one per axis, whatever the count: x, y and z are
/// independent streams (paper §III–IV), so a batch holds three units of
/// work. Capping the threads at two would bound the speedup at 1.5×; three
/// threads on a two-core host measured above that on compression
/// (DESIGN.md §9). Output is byte-identical for every worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelOptions {
    /// `0` and `1` both mean serial; anything larger means one thread
    /// per axis.
    pub workers: usize,
}

impl Default for ParallelOptions {
    /// Serial execution on the caller thread.
    fn default() -> Self {
        Self::serial()
    }
}

impl ParallelOptions {
    /// Serial execution on the caller thread.
    pub const fn serial() -> Self {
        Self { workers: 1 }
    }

    /// An explicit worker count (`0` is treated as `1`).
    pub const fn with_workers(workers: usize) -> Self {
        Self { workers: if workers == 0 { 1 } else { workers } }
    }
}

/// Runs `run(axis, state)` for axes 0, 1 and 2: in order on the caller
/// thread when `workers <= 1`, otherwise on one scoped thread per axis.
/// A panic on an axis thread resumes on the caller.
fn on_axes<S: Send, R: Send>(
    workers: usize,
    axes: &mut [S; 3],
    run: impl Fn(usize, &mut S) -> R + Sync,
) -> [R; 3] {
    let [x, y, z] = axes.each_mut();
    let jobs = [(0, x), (1, y), (2, z)];
    if workers <= 1 {
        return jobs.map(|(axis, state)| run(axis, state));
    }
    let run = &run;
    std::thread::scope(|scope| {
        jobs.map(|(axis, state)| scope.spawn(move || run(axis, state)))
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
    })
}

/// Three-axis compressor for batches of buffers.
///
/// Each axis runs the ordinary serial [`Compressor`] loop over the batch;
/// [`ParallelOptions`] decides whether the three loops share the caller
/// thread or get one thread each. Output is **byte-identical** to
/// [`TrajectoryCompressor::compress_buffer`] called in order, for every
/// worker count. The axes are always MDZ codecs.
pub struct ParallelTrajectoryCompressor {
    axes: [Compressor; 3],
    par: ParallelOptions,
}

impl ParallelTrajectoryCompressor {
    /// Creates one MDZ compressor per axis from a shared configuration,
    /// initially serial — set workers with
    /// [`ParallelTrajectoryCompressor::with_parallelism`].
    pub fn new(cfg: MdzConfig) -> Self {
        Self {
            axes: std::array::from_fn(|_| Compressor::new(cfg.clone())),
            par: ParallelOptions::serial(),
        }
    }

    /// Installs a worker configuration for subsequent calls.
    pub fn with_parallelism(mut self, par: ParallelOptions) -> Self {
        self.par = par;
        self
    }

    /// Replaces the worker configuration applied to subsequent calls.
    pub fn set_parallelism(&mut self, par: ParallelOptions) {
        self.par = par;
    }

    /// Compresses an ordered batch of frame buffers into one container
    /// blob per buffer, byte-identical to
    /// [`TrajectoryCompressor::compress_buffer`] called in order.
    ///
    /// The first error surfaces in buffer order, then in axis order. On
    /// error the stream state is unspecified; rebuild before reuse.
    pub fn compress_buffers(&mut self, buffers: &[&[Frame]]) -> Result<Vec<Vec<u8>>> {
        let [xs, ys, zs] = on_axes(self.par.workers, &mut self.axes, |axis, comp| {
            // One axis's snapshots, refilled per buffer.
            let mut snapshots: Vec<Vec<f64>> = Vec::new();
            let mut blocks = Vec::with_capacity(buffers.len());
            for frames in buffers {
                snapshots.resize_with(frames.len(), Vec::new);
                for (s, f) in snapshots.iter_mut().zip(frames.iter()) {
                    s.clone_from(f.axis(axis));
                }
                blocks.push(comp.compress_buffer(&snapshots));
            }
            blocks
        });
        let mut out = Vec::with_capacity(buffers.len());
        for (frames, ((x, y), z)) in buffers.iter().zip(xs.into_iter().zip(ys).zip(zs)) {
            // Every axis rejected this buffer before touching its state;
            // report it the way the serial path does.
            if frames.is_empty() {
                return Err(MdzError::BadInput("buffer has no frames"));
            }
            out.push(assemble(&[x?, y?, z?]));
        }
        Ok(out)
    }

    /// [`ParallelTrajectoryCompressor::compress_buffers`] with each
    /// container wrapped in a checksummed frame, ready for a
    /// [`TrajReader`]-scannable archival stream.
    pub fn compress_buffers_framed(&mut self, buffers: &[&[Frame]]) -> Result<Vec<Vec<u8>>> {
        let containers = self.compress_buffers(buffers)?;
        containers
            .into_iter()
            .map(|c| {
                let mut framed = Vec::with_capacity(c.len() + crate::format::FRAME_HEADER_LEN);
                write_frame(&c, &mut framed)?;
                Ok(framed)
            })
            .collect()
    }
}

/// Three-axis decompressor for batches of containers.
///
/// The decode mirror of [`ParallelTrajectoryCompressor`]: each axis runs
/// the ordinary serial [`Decompressor`] loop over its blocks. Results
/// match [`TrajectoryDecompressor::decompress_buffer`] called in order.
pub struct ParallelTrajectoryDecompressor {
    axes: [Decompressor; 3],
    par: ParallelOptions,
}

impl Default for ParallelTrajectoryDecompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelTrajectoryDecompressor {
    /// Creates an MDZ decompressor with empty stream state, initially
    /// serial.
    pub fn new() -> Self {
        Self { axes: std::array::from_fn(|_| Decompressor::new()), par: ParallelOptions::serial() }
    }

    /// Installs a worker configuration for subsequent calls.
    pub fn with_parallelism(mut self, par: ParallelOptions) -> Self {
        self.par = par;
        self
    }

    /// Replaces the worker configuration applied to subsequent calls.
    pub fn set_parallelism(&mut self, par: ParallelOptions) {
        self.par = par;
    }

    /// Installs a decode budget on all three axis decompressors.
    pub fn with_decode_limits(mut self, limits: DecodeLimits) -> Self {
        for axis in &mut self.axes {
            axis.set_limits(limits);
        }
        self
    }

    /// Decompresses an ordered batch of container blobs back into frame
    /// buffers.
    ///
    /// The first error surfaces in buffer order, then in axis order, as
    /// in a serial [`TrajectoryDecompressor`] loop. On error the stream
    /// state is unspecified; rebuild before reuse.
    pub fn decompress_buffers(&mut self, containers: &[&[u8]]) -> Result<Vec<Vec<Frame>>> {
        // Decode only up to the first container that does not split; its
        // error comes after any error in the buffers before it.
        let mut split = Vec::with_capacity(containers.len());
        let mut unsplit = Ok(());
        for c in containers {
            match split_container(c) {
                Ok(blocks) => split.push(blocks),
                Err(e) => {
                    unsplit = Err(e);
                    break;
                }
            }
        }
        let [xs, ys, zs] = on_axes(self.par.workers, &mut self.axes, |axis, dec| {
            split.iter().map(|blocks| dec.decompress_block(blocks[axis])).collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(containers.len());
        for ((x, y), z) in xs.into_iter().zip(ys).zip(zs) {
            out.push(zip_frames(x?, y?, z?)?);
        }
        unsplit?;
        Ok(out)
    }
}

impl<'a> TrajReader<'a> {
    /// Collects every intact frame payload remaining in the stream and
    /// decodes them concurrently through `dec`.
    ///
    /// Corrupted regions are skipped exactly as in iteration (check
    /// [`TrajReader::skipped`] afterwards); the surviving buffers decode
    /// with the same results, in the same order, as a serial loop over
    /// [`TrajectoryDecompressor::decompress_buffer`].
    pub fn decode_all_parallel(
        &mut self,
        dec: &mut ParallelTrajectoryDecompressor,
    ) -> Result<Vec<Vec<Frame>>> {
        let payloads: Vec<&[u8]> = self.by_ref().collect();
        dec.decompress_buffers(&payloads)
    }
}

/// Streaming writer producing a [`TrajReader`]-compatible framed stream.
///
/// Wraps any [`std::io::Write`] sink and a [`ParallelTrajectoryCompressor`]:
/// each buffer of frames is compressed (one thread per axis when the
/// configured workers exceed one), wrapped in a checksummed frame, and
/// appended to the sink. The byte stream is identical for every worker count.
pub struct TrajWriter<W: std::io::Write> {
    sink: W,
    comp: ParallelTrajectoryCompressor,
}

impl<W: std::io::Write> TrajWriter<W> {
    /// Creates a writer compressing with one MDZ codec per axis.
    pub fn new(sink: W, cfg: MdzConfig) -> Self {
        Self { sink, comp: ParallelTrajectoryCompressor::new(cfg) }
    }

    /// Installs a worker configuration for subsequent writes.
    pub fn with_parallelism(mut self, par: ParallelOptions) -> Self {
        self.comp.set_parallelism(par);
        self
    }

    /// Compresses one buffer of frames and appends its frame to the sink.
    /// Returns the number of bytes written.
    pub fn write_buffer(&mut self, frames: &[Frame]) -> Result<usize> {
        self.write_buffers(&[frames])
    }

    /// Compresses an ordered batch of buffers and appends their frames to
    /// the sink in order.
    /// Returns the total number of bytes written.
    pub fn write_buffers(&mut self, buffers: &[&[Frame]]) -> Result<usize> {
        let framed = self.comp.compress_buffers_framed(buffers)?;
        let mut written = 0;
        for f in &framed {
            self.sink.write_all(f)?;
            written += f.len();
        }
        Ok(written)
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> Result<()> {
        Ok(self.sink.flush()?)
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// One-shot frame-buffer compression with a fresh compressor.
pub fn compress_frames(frames: &[Frame], cfg: MdzConfig) -> Result<Vec<u8>> {
    TrajectoryCompressor::new(cfg).compress_buffer(frames)
}

/// One-shot frame-buffer decompression with a fresh decompressor.
pub fn decompress_frames(data: &[u8]) -> Result<Vec<Frame>> {
    TrajectoryDecompressor::new().decompress_buffer(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorBound, Method};

    fn frames(m: usize, n: usize) -> Vec<Frame> {
        (0..m)
            .map(|t| {
                let mk = |off: f64| -> Vec<f64> {
                    (0..n).map(|i| (i % 8) as f64 * 2.0 + off + t as f64 * 1e-4).collect()
                };
                Frame::new(mk(0.0), mk(0.3), mk(0.7))
            })
            .collect()
    }

    #[test]
    fn frame_round_trip() {
        let fs = frames(6, 120);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let blob = compress_frames(&fs, cfg).unwrap();
        let out = decompress_frames(&blob).unwrap();
        assert_eq!(out.len(), fs.len());
        for (a, b) in fs.iter().zip(out.iter()) {
            for axis in [(&a.x, &b.x), (&a.y, &b.y), (&a.z, &b.z)] {
                for (v, w) in axis.0.iter().zip(axis.1.iter()) {
                    assert!((v - w).abs() <= 1e-3);
                }
            }
        }
    }

    #[test]
    fn stateful_multi_buffer_stream() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut c = TrajectoryCompressor::new(cfg);
        let mut d = TrajectoryDecompressor::new();
        for _ in 0..3 {
            let fs = frames(4, 80);
            let blob = c.compress_buffer(&fs).unwrap();
            let out = d.decompress_buffer(&blob).unwrap();
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn empty_buffer_rejected() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        assert!(compress_frames(&[], cfg).is_err());
    }

    #[test]
    fn corrupted_container_errors() {
        let fs = frames(2, 40);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let blob = compress_frames(&fs, cfg).unwrap();
        assert!(decompress_frames(&blob[..3]).is_err());
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(decompress_frames(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn ragged_frame_panics() {
        let _ = Frame::new(vec![1.0], vec![1.0, 2.0], vec![1.0]);
    }

    #[test]
    fn framed_buffer_round_trip() {
        let fs = frames(4, 60);
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut c = TrajectoryCompressor::new(cfg);
        let framed = c.compress_buffer_framed(&fs).unwrap();
        let mut reader = TrajReader::new(&framed);
        let payload = reader.next().unwrap();
        assert!(reader.next().is_none());
        assert_eq!(reader.skipped(), 0);
        let out = TrajectoryDecompressor::new().decompress_buffer(payload).unwrap();
        assert_eq!(out.len(), fs.len());
    }

    #[test]
    fn reader_recovers_all_intact_frames_around_a_corrupted_buffer() {
        // Acceptance scenario: a stream of five framed buffers with the
        // middle one damaged must yield the other four intact.
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = TrajectoryCompressor::new(cfg);
        let mut stream = Vec::new();
        let mut offsets = Vec::new();
        for t in 0..5 {
            let fs = frames(3, 50 + t); // distinct sizes per buffer
            offsets.push(stream.len());
            stream.extend(c.compress_buffer_framed(&fs).unwrap());
        }
        offsets.push(stream.len());
        // Smash bytes in the middle of buffer 2's payload.
        let mid = (offsets[2] + offsets[3]) / 2;
        for b in &mut stream[mid..mid + 8] {
            *b ^= 0x5A;
        }
        let mut d = TrajectoryDecompressor::new();
        let mut reader = TrajReader::new(&stream);
        let mut recovered = Vec::new();
        for payload in reader.by_ref() {
            recovered.push(d.decompress_buffer(payload).unwrap().len());
        }
        assert_eq!(reader.skipped(), 1, "one damaged region");
        assert_eq!(recovered, vec![3, 3, 3, 3], "four intact buffers recovered");
    }

    #[test]
    fn reader_skips_leading_garbage_and_resynchronizes() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut c = TrajectoryCompressor::new(cfg);
        let fs = frames(2, 40);
        let mut stream = vec![0xDEu8; 37]; // garbage prefix
        stream.extend(c.compress_buffer_framed(&fs).unwrap());
        let mut reader = TrajReader::new(&stream);
        assert!(reader.next().is_some());
        assert!(reader.next().is_none());
        assert_eq!(reader.skipped(), 1);
    }

    #[test]
    fn reader_on_pure_garbage_yields_nothing() {
        let garbage: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut reader = TrajReader::new(&garbage);
        assert!(reader.next().is_none());
        assert!(reader.skipped() <= 1);
    }

    /// Buffers of four frames with the given atom counts, each drifted by
    /// its index so no two buffers are alike.
    fn batch(atoms: &[usize]) -> Vec<Vec<Frame>> {
        atoms
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let mut fs = frames(4, n);
                for f in &mut fs {
                    for v in f.x.iter_mut().chain(&mut f.y).chain(&mut f.z) {
                        *v += k as f64 * 3e-4;
                    }
                }
                fs
            })
            .collect()
    }

    #[test]
    fn parallel_batch_matches_serial_trajectory_bytes() {
        let mut adp = MdzConfig::new(ErrorBound::Absolute(1e-3));
        adp.adapt_interval = 2; // several ADP trials inside one batch
        let mut cfgs: Vec<MdzConfig> = [Method::Vq, Method::Vqt, Method::Mt, Method::Mt2]
            .iter()
            .map(|&m| MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(m))
            .collect();
        cfgs.push(adp);
        // Steady atom count, a mid-batch change that re-establishes the MT
        // reference, a new count every buffer, a short last buffer, one
        // buffer, no buffers.
        let mut short_tail = batch(&[80; 3]);
        short_tail[2].truncate(1);
        let batches = [
            batch(&[80; 6]),
            batch(&[80, 80, 60, 60, 80, 80]),
            batch(&[80, 81, 82, 83, 84]),
            short_tail,
            batch(&[50]),
            Vec::new(),
        ];
        let next = batch(&[80]).remove(0);
        for cfg in &cfgs {
            for buffers in &batches {
                let refs: Vec<&[Frame]> = buffers.iter().map(Vec::as_slice).collect();
                let mut serial = TrajectoryCompressor::new(cfg.clone());
                let want: Vec<Vec<u8>> =
                    refs.iter().map(|b| serial.compress_buffer(b).unwrap()).collect();
                let want_next = serial.compress_buffer(&next).unwrap();
                let mut serial_dec = TrajectoryDecompressor::new();
                let decoded: Vec<Vec<Frame>> =
                    want.iter().map(|c| serial_dec.decompress_buffer(c).unwrap()).collect();
                let containers: Vec<&[u8]> = want.iter().map(Vec::as_slice).collect();
                for workers in [1, 2, 4] {
                    let par = ParallelOptions::with_workers(workers);
                    let what = format!("{}, {} buffers, {workers} workers", cfg.method, refs.len());
                    let mut comp =
                        ParallelTrajectoryCompressor::new(cfg.clone()).with_parallelism(par);
                    assert_eq!(comp.compress_buffers(&refs).unwrap(), want, "{what}");
                    // The stream state after the batch is the serial path's.
                    let after = comp.compress_buffers(&[&next]).unwrap();
                    assert_eq!(after, std::slice::from_ref(&want_next), "{what}");
                    let mut dec = ParallelTrajectoryDecompressor::new().with_parallelism(par);
                    assert_eq!(dec.decompress_buffers(&containers).unwrap(), decoded, "{what}");
                }
            }
        }
    }

    #[test]
    fn options_constructors() {
        assert_eq!(ParallelOptions::default(), ParallelOptions::serial());
        assert_eq!(ParallelOptions::with_workers(0), ParallelOptions::serial());
        assert_eq!(ParallelOptions::with_workers(4).workers, 4);
    }

    #[test]
    fn parallel_trajectory_decompressor_round_trips() {
        let buffers: Vec<Vec<Frame>> = (0..4).map(|_| frames(4, 70)).collect();
        let refs: Vec<&[Frame]> = buffers.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-4)).with_method(Method::Mt);
        let mut c = ParallelTrajectoryCompressor::new(cfg)
            .with_parallelism(ParallelOptions::with_workers(4));
        let containers = c.compress_buffers(&refs).unwrap();
        let container_refs: Vec<&[u8]> = containers.iter().map(Vec::as_slice).collect();
        let mut d = ParallelTrajectoryDecompressor::new()
            .with_parallelism(ParallelOptions::with_workers(4));
        let out = d.decompress_buffers(&container_refs).unwrap();
        assert_eq!(out.len(), 4);
        for (got, want) in out.iter().zip(buffers.iter()) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                for (a, b) in g.x.iter().zip(w.x.iter()) {
                    assert!((a - b).abs() <= 1e-4);
                }
            }
        }
    }

    #[test]
    fn traj_writer_stream_is_reader_compatible_and_worker_invariant() {
        let buffers: Vec<Vec<Frame>> = (0..3).map(|_| frames(3, 60)).collect();
        let refs: Vec<&[Frame]> = buffers.iter().map(Vec::as_slice).collect();
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let stream_for = |workers: usize| -> Vec<u8> {
            let mut w = TrajWriter::new(Vec::new(), cfg.clone())
                .with_parallelism(ParallelOptions::with_workers(workers));
            let n = w.write_buffers(&refs).unwrap();
            w.flush().unwrap();
            let out = w.into_inner();
            assert_eq!(n, out.len());
            out
        };
        let serial = stream_for(1);
        assert_eq!(stream_for(4), serial);
        let mut reader = TrajReader::new(&serial);
        let mut dec = ParallelTrajectoryDecompressor::new()
            .with_parallelism(ParallelOptions::with_workers(4));
        let decoded = reader.decode_all_parallel(&mut dec).unwrap();
        assert_eq!(reader.skipped(), 0);
        assert_eq!(decoded.len(), 3);
    }

    #[test]
    fn decode_all_parallel_skips_damaged_buffers() {
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3)).with_method(Method::Vq);
        let mut w =
            TrajWriter::new(Vec::new(), cfg).with_parallelism(ParallelOptions::with_workers(2));
        let mut offsets = vec![0usize];
        for t in 0..5 {
            let n = w.write_buffer(&frames(3, 50 + t)).unwrap();
            offsets.push(offsets.last().unwrap() + n);
        }
        let mut stream = w.into_inner();
        let mid = (offsets[2] + offsets[3]) / 2;
        for b in &mut stream[mid..mid + 8] {
            *b ^= 0x5A;
        }
        let mut reader = TrajReader::new(&stream);
        let mut dec = ParallelTrajectoryDecompressor::new()
            .with_parallelism(ParallelOptions::with_workers(4));
        let decoded = reader.decode_all_parallel(&mut dec).unwrap();
        assert_eq!(reader.skipped(), 1);
        assert_eq!(decoded.len(), 4, "four intact buffers recovered");
    }

    #[test]
    fn writer_surfaces_io_errors() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cfg = MdzConfig::new(ErrorBound::Absolute(1e-3));
        let mut w = TrajWriter::new(Failing, cfg);
        assert!(matches!(w.write_buffer(&frames(2, 30)), Err(MdzError::Io { .. })));
    }
}
