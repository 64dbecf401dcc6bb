//! Event-driven networking substrate for the serve tier.
//!
//! Three layers, all dependency-free:
//!
//! * [`poll`] — the readiness poller ([`poll::Poller`], [`poll::Waker`]):
//!   level-triggered `epoll` on Linux, `poll(2)` elsewhere.
//! * [`FrameConn`] — a non-blocking connection speaking the
//!   length-prefixed, checksummed framing of [`crate::proto`]. It owns
//!   the partial-frame reassembly buffer on the read side and a pending
//!   byte queue on the write side: readable events feed
//!   [`FrameConn::read_frames`], writable events drain
//!   [`FrameConn::flush`], and neither ever blocks.
//! * The reactor (crate-private) — the one event-loop core: poller,
//!   waker, listener and a token table of [`FrameConn`]s, with accept,
//!   the read pass, typed framing-violation goodbyes, per-wake flushing
//!   and interest bookkeeping. One thread services thousands of
//!   connections with it.
//!
//! The single-engine [`crate::Server`] and the cluster
//! [`crate::Router`] each run one reactor and keep only their protocol
//! state (ordered replies, pending-request maps, failover).

pub mod poll;
mod reactor;

pub(crate) use reactor::{Burst, Reactor};

use crate::proto::{checksum, ProtoError, HEADER_LEN, MAX_FRAME};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};

/// Cap on bytes consumed from one connection per readable event, so a
/// firehose sender cannot starve its neighbours on the same loop
/// (level-triggered polling re-delivers the event while data remains).
const READ_BUDGET: usize = 256 * 1024;

/// Framing violations a [`FrameConn`] can detect while reassembling.
/// Both desynchronise the stream, so the connection must close after
/// any typed reply; the variants let the owner say *why* first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameViolation {
    /// The header declared a body longer than [`MAX_FRAME`].
    TooLarge(u64),
    /// A fully-received body failed its CRC-32C checksum.
    BadChecksum,
}

impl From<FrameViolation> for ProtoError {
    fn from(violation: FrameViolation) -> ProtoError {
        match violation {
            FrameViolation::TooLarge(len) => ProtoError::FrameTooLarge(len),
            FrameViolation::BadChecksum => ProtoError::ChecksumMismatch,
        }
    }
}

/// What a read pass produced (besides the delivered frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Connection still healthy; all currently-available bytes consumed
    /// or the per-event budget was reached.
    Open,
    /// Peer closed or the socket errored; no more frames will arrive.
    Closed,
    /// The byte stream violated framing; see [`FrameViolation`].
    Violation(FrameViolation),
}

/// What a flush pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// The out-queue is empty; write interest can be dropped.
    Drained,
    /// The socket refused more bytes; keep write interest registered.
    Blocked,
    /// The peer is gone; the owner should drop the connection.
    Closed,
}

/// A non-blocking framed connection (see module docs).
pub struct FrameConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    out: VecDeque<u8>,
}

impl FrameConn {
    /// Wraps a connected stream, switching it to non-blocking mode with
    /// Nagle disabled.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn new(stream: TcpStream) -> io::Result<FrameConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(FrameConn {
            stream,
            inbuf: Vec::new(),
            out: VecDeque::new(),
        })
    }

    /// The fd to register with a [`poll::Poller`].
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads whatever the socket has (bounded by an internal budget),
    /// reassembles frames, and hands each verified body to `sink`.
    /// Returns how the pass ended; on a violation the owner sends its
    /// typed goodbye and closes (the stream position is unrecoverable).
    pub fn read_frames(&mut self, mut sink: impl FnMut(Vec<u8>)) -> ReadOutcome {
        let mut taken = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Err(violation) = self.deliver(&mut sink) {
                return ReadOutcome::Violation(violation);
            }
            if taken >= READ_BUDGET {
                return ReadOutcome::Open;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    taken += n;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }

    /// Hands every complete frame buffered in `inbuf` to `sink`, then
    /// drops the consumed prefix in one move, so a read holding many
    /// frames costs time linear in its bytes rather than in frames ×
    /// bytes. A frame that fails its checksum is consumed before the
    /// violation is returned.
    fn deliver(&mut self, sink: &mut impl FnMut(Vec<u8>)) -> Result<(), FrameViolation> {
        let mut at = 0usize;
        let outcome = loop {
            let rest = &self.inbuf[at..];
            if rest.len() < HEADER_LEN {
                break Ok(());
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let expected = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            if len > MAX_FRAME {
                break Err(FrameViolation::TooLarge(len as u64));
            }
            if rest.len() < HEADER_LEN + len {
                break Ok(());
            }
            let body = &rest[HEADER_LEN..HEADER_LEN + len];
            at += HEADER_LEN + len;
            if checksum(body) != expected {
                break Err(FrameViolation::BadChecksum);
            }
            sink(body.to_vec());
        };
        self.inbuf.drain(..at);
        outcome
    }

    /// Queues already-framed wire bytes (header + body) for sending.
    /// Frames from many completions coalesce here and go out in as few
    /// `write` syscalls as the socket allows.
    pub fn queue_wire(&mut self, wire: &[u8]) {
        self.out.extend(wire);
    }

    /// Whether bytes are waiting to be written (the owner keeps write
    /// interest registered while true).
    pub fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Writes as much of the out-queue as the socket accepts.
    pub fn flush(&mut self) -> FlushOutcome {
        while !self.out.is_empty() {
            let (front, _) = self.out.as_slices();
            match self.stream.write(front) {
                Ok(0) => return FlushOutcome::Closed,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushOutcome::Closed,
            }
        }
        FlushOutcome::Drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::frame_bytes;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, FrameConn::new(server).unwrap())
    }

    #[test]
    fn reassembles_partial_frames_across_reads() {
        let (mut client, mut conn) = pair();
        let wire = frame_bytes(b"hello frames");
        // Dribble the frame one byte at a time — a slow sender must
        // never desync the reader or produce a partial body.
        let mut got: Vec<Vec<u8>> = Vec::new();
        for byte in &wire {
            client.write_all(std::slice::from_ref(byte)).unwrap();
            client.flush().unwrap();
            // Give the kernel a moment to move the byte.
            std::thread::sleep(std::time::Duration::from_millis(1));
            match conn.read_frames(|body| got.push(body)) {
                ReadOutcome::Open => {}
                other => panic!("healthy dribble must stay open, got {other:?}"),
            }
        }
        assert_eq!(got, vec![b"hello frames".to_vec()]);
    }

    #[test]
    fn delivers_multiple_frames_from_one_read() {
        let (mut client, mut conn) = pair();
        let mut burst = Vec::new();
        for i in 0..5u8 {
            burst.extend_from_slice(&frame_bytes(&[i; 9]));
        }
        client.write_all(&burst).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut got = Vec::new();
        assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], vec![4u8; 9]);
    }

    #[test]
    fn many_frames_in_one_burst_arrive_in_order_and_a_partial_tail_waits() {
        let (mut client, mut conn) = pair();
        // Request-sized bodies, each tagged with its index.
        let bodies: Vec<Vec<u8>> = (0..512u32)
            .map(|i| {
                let mut body = i.to_le_bytes().to_vec();
                body.resize(332, (i % 251) as u8);
                body
            })
            .collect();
        let tail = frame_bytes(b"the frame after the burst");
        let mut burst: Vec<u8> = bodies.iter().flat_map(|b| frame_bytes(b)).collect();
        let split = tail.len() / 2;
        burst.extend_from_slice(&tail[..split]);
        // ~174 KB can exceed the socket buffers: write from another
        // thread while this one reads.
        let writer = std::thread::spawn(move || {
            client.write_all(&burst).unwrap();
            client
        });
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while got.len() < bodies.len() {
            assert!(std::time::Instant::now() < deadline, "burst never arrived");
            assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        }
        let mut client = writer.join().unwrap();
        // The half-sent tail stays buffered across passes.
        for _ in 0..3 {
            assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        }
        assert_eq!(got, bodies, "every frame, in order, and no partial one");
        client.write_all(&tail[split..]).unwrap();
        while got.len() == bodies.len() {
            assert!(std::time::Instant::now() < deadline, "tail never arrived");
            assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Open);
        }
        assert_eq!(got.last().unwrap(), b"the frame after the burst");
        assert_eq!(got.len(), bodies.len() + 1);
    }

    #[test]
    fn oversized_declared_frame_is_a_violation() {
        let (mut client, mut conn) = pair();
        let mut header = Vec::new();
        header.extend_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        client.write_all(&header).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            conn.read_frames(|_| panic!("no frame should be delivered")),
            ReadOutcome::Violation(FrameViolation::TooLarge(MAX_FRAME as u64 + 1))
        );
    }

    #[test]
    fn corrupted_body_is_a_checksum_violation() {
        let (mut client, mut conn) = pair();
        let mut wire = frame_bytes(b"soon to be damaged");
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        client.write_all(&wire).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(
            conn.read_frames(|_| panic!("corrupt frame must not be delivered")),
            ReadOutcome::Violation(FrameViolation::BadChecksum)
        );
    }

    #[test]
    fn peer_close_reports_closed_after_final_frames() {
        let (mut client, mut conn) = pair();
        client.write_all(&frame_bytes(b"last words")).unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let mut got = Vec::new();
        assert_eq!(conn.read_frames(|b| got.push(b)), ReadOutcome::Closed);
        assert_eq!(got, vec![b"last words".to_vec()]);
    }

    #[test]
    fn flush_blocks_against_a_slow_reader_then_drains() {
        let (mut client, mut conn) = pair();
        // Queue far more than the socket buffers will take.
        let wire = frame_bytes(&vec![7u8; 64 * 1024]);
        for _ in 0..64 {
            conn.queue_wire(&wire);
        }
        let mut saw_blocked = false;
        for _ in 0..10_000 {
            match conn.flush() {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => {
                    saw_blocked = true;
                    // Slow reader catches up a little.
                    let mut sink = [0u8; 32 * 1024];
                    client.read_exact(&mut sink).unwrap();
                }
                FlushOutcome::Closed => panic!("peer is alive"),
            }
        }
        assert!(saw_blocked, "64 queued 64KiB frames must backpressure");
        assert_eq!(conn.flush(), FlushOutcome::Drained);
        assert!(!conn.wants_write());
    }
}
