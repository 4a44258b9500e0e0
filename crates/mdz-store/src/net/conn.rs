//! Per-connection state for the event engine: a non-blocking socket, the
//! incremental [`FrameDecoder`], a bounded write queue, and the timestamps
//! the deadline sweep runs against.
//!
//! A `Conn` is owned by exactly one shard at a time. The only way it moves
//! is APPEND migration, where the whole struct (decoder backlog, write
//! queue, deadlines) is boxed and handed to shard 0 through its inbox, so
//! ownership stays single-threaded by construction.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Instant;

use crate::protocol::FrameDecoder;

use super::sys::Poller;

/// Per-read scratch cap: one `read` call per slot, bounded so a firehose
/// peer cannot monopolize a shard tick (level-triggered polling re-arms).
const MAX_READS_PER_TICK: usize = 16;

/// Most slices one flush pass hands to `write_vectored` (two per queued
/// response), well under every platform's `IOV_MAX`.
const MAX_FLUSH_SLICES: usize = 64;

/// What a read pass against the socket produced.
pub(crate) enum ReadOutcome {
    /// Bytes arrived (frames may now be decodable).
    Progress,
    /// The peer half-closed; no more input will ever arrive.
    Eof,
    /// The socket had nothing for us.
    Blocked,
}

/// One live connection on a shard.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Reassembles length-prefixed requests from arbitrary read chunks.
    pub(crate) decoder: FrameDecoder,
    /// Framed responses waiting for the socket.
    queue: WriteQueue,
    /// Whether this connection holds an admission slot (shed connections
    /// do not; they only exist to deliver a BUSY response).
    pub(crate) admitted: bool,
    /// Shed at accept time: answer BUSY to the first request, then close.
    pub(crate) shed: bool,
    /// Close once the write queue drains (BUSY shed, malformed framing).
    pub(crate) close_after_flush: bool,
    /// Input is read and discarded instead of decoded — the bounded drain
    /// that lets an error response reach a peer mid-send without an RST.
    pub(crate) discard_input: bool,
    /// The peer sent EOF; flush what is queued, then close.
    pub(crate) peer_eof: bool,
    /// Backpressure: reads are suspended until the queue drains below half
    /// of `max_write_buffer`.
    pub(crate) reading_paused: bool,
    /// The APPEND body travelling with a migration handoff.
    pub(crate) migrated_frame: Option<Vec<u8>>,
    /// When the connection was accepted (shed-reply deadline).
    pub(crate) opened_at: Instant,
    /// Last time bytes arrived (idle deadline).
    pub(crate) last_activity: Instant,
    /// Since when the decoder has held an incomplete frame (read deadline).
    pub(crate) partial_since: Option<Instant>,
    /// Since when a flush has made no progress (write deadline).
    pub(crate) write_blocked_since: Option<Instant>,
    /// Since when the connection has been lingering after `shutdown(Write)`
    /// waiting for the peer's EOF (bounded by the read deadline).
    pub(crate) dying_since: Option<Instant>,
    registered_read: bool,
    registered_write: bool,
}

impl Conn {
    /// Wraps an accepted stream; the socket is switched to non-blocking.
    /// New connections are registered read-only, matching
    /// (`registered_read`, `registered_write`) = (true, false).
    pub(crate) fn new(stream: TcpStream, max_body: usize, admitted: bool) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Responses are written whole; Nagle + delayed ACK would park small
        // replies for ~40 ms under pipelining. Best-effort like the
        // threaded engine's socket tuning.
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(max_body),
            queue: WriteQueue::default(),
            admitted,
            shed: !admitted,
            close_after_flush: false,
            discard_input: false,
            peer_eof: false,
            reading_paused: false,
            migrated_frame: None,
            opened_at: now,
            last_activity: now,
            partial_since: None,
            write_blocked_since: None,
            dying_since: None,
            registered_read: true,
            registered_write: false,
        })
    }

    /// The socket's fd — the poller token for this connection.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// True when nothing is waiting to be written.
    pub(crate) fn queue_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total unsent bytes (the backpressure quantity).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queue.bytes
    }

    /// Queues one framed response without copying the body.
    pub(crate) fn enqueue(&mut self, body: Vec<u8>) {
        self.queue.push(body);
    }

    /// Half-closes the write side and starts the bounded EOF linger.
    pub(crate) fn start_dying(&mut self) {
        if self.dying_since.is_none() {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.dying_since = Some(Instant::now());
        }
    }

    /// Writes queued responses until the socket blocks or the queue
    /// empties. Each pass is one `write_vectored` over up to
    /// [`MAX_FLUSH_SLICES`] slices, so a flush that drains the queue (the
    /// common case, pipelined responses included) costs one syscall.
    /// Progress clears the write-blocked clock; a block with bytes still
    /// queued starts it (the shard's sweep kills stalled readers from it).
    /// `Err` means the socket is dead.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        while !self.queue.is_empty() {
            match self.queue.write_to(&mut self.stream) {
                Ok(_) => self.write_blocked_since = None,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.write_blocked_since.is_none() {
                        self.write_blocked_since = Some(Instant::now());
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_blocked_since = None;
        Ok(())
    }

    /// Pulls available bytes off the socket into the decoder (or the void,
    /// under `discard_input`), bounded per tick. `Err` means the socket is
    /// dead; `Eof` may still leave decodable frames behind.
    pub(crate) fn read_some(&mut self, scratch: &mut [u8]) -> std::io::Result<ReadOutcome> {
        let mut any = false;
        for _ in 0..MAX_READS_PER_TICK {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    any = true;
                    self.last_activity = Instant::now();
                    if !self.discard_input {
                        self.decoder.push(&scratch[..n]);
                    }
                    if n < scratch.len() {
                        break; // short read: the kernel buffer is drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(if any { ReadOutcome::Progress } else { ReadOutcome::Blocked })
    }

    /// The interest set this connection currently needs.
    pub(crate) fn wanted_interest(&self) -> (bool, bool) {
        (!self.reading_paused, !self.queue.is_empty())
    }

    /// Reconciles the poller registration with the wanted interest set
    /// (no-op when unchanged — the common case).
    pub(crate) fn sync_interest(&mut self, poller: &Poller) {
        let (read, write) = self.wanted_interest();
        if (read != self.registered_read || write != self.registered_write)
            && poller.modify(self.fd(), read, write).is_ok()
        {
            self.registered_read = read;
            self.registered_write = write;
        }
    }

    /// Records the interest set a fresh `poller.add` registered (used when
    /// a migrated connection is re-registered on its new shard).
    pub(crate) fn set_registered(&mut self, read: bool, write: bool) {
        self.registered_read = read;
        self.registered_write = write;
    }
}

/// One queued response: the length prefix inline, the body as built.
struct Framed {
    prefix: [u8; 4],
    body: Vec<u8>,
}

/// Framed responses in send order, with the count of bytes of the front
/// one already written.
#[derive(Default)]
struct WriteQueue {
    frames: VecDeque<Framed>,
    front_written: usize,
    /// Unsent bytes across `frames`.
    bytes: usize,
}

impl WriteQueue {
    fn push(&mut self, body: Vec<u8>) {
        self.bytes += 4 + body.len();
        self.frames.push_back(Framed { prefix: (body.len() as u32).to_le_bytes(), body });
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Offers the unsent bytes to `w` in one bounded `write_vectored` call
    /// and drops what it accepted; returns the count accepted. `Ok(0)`
    /// becomes `WriteZero`.
    fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_FLUSH_SLICES];
        let mut used = 0;
        let mut skip = self.front_written;
        'fill: for frame in &self.frames {
            for part in [&frame.prefix[..], &frame.body[..]] {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                if used == MAX_FLUSH_SLICES {
                    break 'fill;
                }
                slices[used] = IoSlice::new(&part[skip..]);
                used += 1;
                skip = 0;
            }
        }
        let n = w.write_vectored(&slices[..used])?;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        self.bytes -= n;
        self.front_written += n;
        while let Some(front) = self.frames.front() {
            let len = front.prefix.len() + front.body.len();
            if self.front_written < len {
                break;
            }
            self.front_written -= len;
            self.frames.pop_front();
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn enqueue_and_flush_frame_a_response() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        conn.enqueue(vec![7u8; 10]);
        conn.enqueue(vec![8u8; 2]);
        assert_eq!(conn.queued_bytes(), 14 + 6);
        conn.flush().unwrap();
        assert!(conn.queue_empty());
        assert_eq!(conn.queued_bytes(), 0);
        let mut got = [0u8; 20];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got[..4], &10u32.to_le_bytes());
        assert_eq!(&got[4..14], &[7u8; 10]);
        assert_eq!(&got[14..18], &2u32.to_le_bytes());
        assert_eq!(&got[18..], &[8u8; 2]);
    }

    /// A sink that accepts at most `per_call` bytes of each
    /// `write_vectored` call, gathering across slices like `writev`, and
    /// records how many slices each call was offered.
    struct ShortSink {
        per_call: usize,
        out: Vec<u8>,
        offered_slices: Vec<usize>,
    }

    impl ShortSink {
        fn new(per_call: usize) -> Self {
            ShortSink { per_call, out: Vec::new(), offered_slices: Vec::new() }
        }
    }

    impl Write for ShortSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.offered_slices.push(bufs.len());
            let before = self.out.len();
            for buf in bufs {
                let room = self.per_call - (self.out.len() - before);
                self.out.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for body in bodies {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(body);
        }
        wire
    }

    #[test]
    fn partial_writes_resume_mid_prefix_and_mid_body() {
        let a: Vec<u8> = (1..=10).collect();
        let b = vec![0xEE; 3];
        let mut queue = WriteQueue::default();
        queue.push(a.clone());
        queue.push(b.clone());
        assert_eq!(queue.bytes, 21);

        // Stops two bytes into A's prefix.
        let mut sink = ShortSink::new(2);
        assert_eq!(queue.write_to(&mut sink).unwrap(), 2);
        assert_eq!((queue.frames.len(), queue.front_written, queue.bytes), (2, 2, 19));
        // Resumes mid-prefix and stops three bytes into A's body.
        sink.per_call = 5;
        assert_eq!(queue.write_to(&mut sink).unwrap(), 5);
        assert_eq!((queue.frames.len(), queue.front_written, queue.bytes), (2, 7, 14));
        // Finishes A and stops one byte into B's prefix.
        sink.per_call = 8;
        assert_eq!(queue.write_to(&mut sink).unwrap(), 8);
        assert_eq!((queue.frames.len(), queue.front_written, queue.bytes), (1, 1, 6));
        // Resumes mid-prefix and stops one byte into B's body.
        sink.per_call = 4;
        assert_eq!(queue.write_to(&mut sink).unwrap(), 4);
        assert_eq!((queue.frames.len(), queue.front_written, queue.bytes), (1, 5, 2));
        sink.per_call = usize::MAX;
        assert_eq!(queue.write_to(&mut sink).unwrap(), 2);
        assert!(queue.is_empty());
        assert_eq!((queue.front_written, queue.bytes), (0, 0));

        assert_eq!(sink.out, framed(&[&a, &b]));
        // Every pass offered everything unsent (no slice for a written part).
        assert_eq!(sink.offered_slices, vec![4, 4, 3, 2, 1]);
    }

    #[test]
    fn pipelined_responses_drain_in_one_vectored_write() {
        let bodies: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; usize::from(i) + 1]).collect();
        let mut queue = WriteQueue::default();
        for body in &bodies {
            queue.push(body.clone());
        }
        let mut sink = ShortSink::new(usize::MAX);
        queue.write_to(&mut sink).unwrap();
        assert!(queue.is_empty());
        assert_eq!(sink.offered_slices, vec![10]);
        let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
        assert_eq!(sink.out, framed(&refs));
    }

    #[test]
    fn one_pass_offers_a_bounded_number_of_slices() {
        let mut queue = WriteQueue::default();
        for i in 0..40u8 {
            queue.push(vec![i]);
        }
        let mut sink = ShortSink::new(usize::MAX);
        assert_eq!(queue.write_to(&mut sink).unwrap(), 32 * 5);
        assert_eq!(queue.frames.len(), 8);
        queue.write_to(&mut sink).unwrap();
        assert!(queue.is_empty());
        assert_eq!(sink.offered_slices, vec![MAX_FLUSH_SLICES, 16]);
        let bodies: Vec<[u8; 1]> = (0..40u8).map(|i| [i]).collect();
        let refs: Vec<&[u8]> = bodies.iter().map(|b| &b[..]).collect();
        assert_eq!(sink.out, framed(&refs));
    }

    #[test]
    fn a_sink_that_takes_nothing_is_write_zero() {
        let mut queue = WriteQueue::default();
        queue.push(vec![1, 2, 3]);
        let err = queue.write_to(&mut ShortSink::new(0)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!((queue.frames.len(), queue.front_written, queue.bytes), (1, 0, 7));
    }

    #[test]
    fn blocked_write_starts_the_stall_clock_and_progress_clears_it() {
        let (client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        // Overwhelm the kernel buffers: the peer never reads.
        for _ in 0..64 {
            conn.enqueue(vec![0u8; 1 << 20]);
        }
        conn.flush().unwrap();
        assert!(conn.write_blocked_since.is_some(), "full socket must block");
        assert!(!conn.queue_empty());
        // Drain the peer side; the next flush makes progress again.
        drop(std::thread::spawn(move || {
            let mut sink = std::io::sink();
            let mut client = client;
            let _ = std::io::copy(&mut client, &mut sink);
        }));
        loop {
            conn.flush().unwrap();
            if conn.queue_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(conn.write_blocked_since.is_none());
    }

    #[test]
    fn discard_input_reads_without_feeding_the_decoder() {
        let (mut client, server) = pair();
        let mut conn = Conn::new(server, 1 << 20, true).unwrap();
        conn.discard_input = true;
        client.write_all(&[1u8; 256]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut scratch = vec![0u8; 64];
        assert!(matches!(conn.read_some(&mut scratch), Ok(ReadOutcome::Progress)));
        assert_eq!(conn.decoder.buffered(), 0);
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(conn.read_some(&mut scratch), Ok(ReadOutcome::Eof)));
    }
}
