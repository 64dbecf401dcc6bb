//! The benchmark's own load generator.
//!
//! It speaks the wire protocol through the public `proto` codec over a
//! plain `std::net::TcpStream`, so no change to the program's own load
//! generator can move the benchmark's numbers. Two shapes:
//!
//! * **Closed loop** — each client sends its next request when the
//!   previous reply arrives; latency runs from send to reply.
//! * **Open loop** — one thread sends on a fixed schedule (a ladder of
//!   rates) while a second thread reads replies as they arrive on the
//!   same connection. Latency runs from when a request was *due*, so a
//!   stall anywhere — server, socket or generator — counts against every
//!   request it delays. How late the sends ran is reported as lag.
//!
//! A request that is refused or fails counts as failed; callers treat
//! it as missing any latency limit.

use crate::trace;
use roboshape_serve::proto::{
    decode_response, encode_request, read_frame, write_frame, RequestFrame,
};
use roboshape_serve::{Engine, ServePayload, ServeRequest, ServeResult};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answered (or failed) request, kept small: a run stores one per
/// request, and the benchmark's own memory must not swamp the program's
/// in `peak_rss_mb`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Completion time, seconds since the phase started.
    pub done_s: f32,
    /// Latency in microseconds (closed: from send; open: from due time).
    pub latency_us: f32,
    /// Answered with a payload.
    pub ok: bool,
    /// Ladder rung (open loop), 0 for a closed loop.
    pub rung: u8,
}

/// What a load phase observed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every request, in completion order.
    pub samples: Vec<Sample>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Per-request send lateness in microseconds (open loop only).
    pub lag_us: Vec<f64>,
    /// Per-rung outstanding requests at the moment the rung's last
    /// request was sent (open loop only).
    pub backlog: Vec<u64>,
    /// Sampled payloads `(pool index, payload)` for correctness checks.
    pub kept: Vec<(usize, ServePayload)>,
    /// Requests sent and never answered.
    pub lost: u64,
}

impl Outcome {
    /// Requests answered with a payload.
    pub fn ok(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }

    /// Requests that ended without a payload, plus lost ones.
    pub fn failed(&self) -> u64 {
        self.samples.len() as u64 - self.ok() + self.lost
    }

    /// Latencies of the answered requests of `rung`, in completion order.
    pub fn latencies(&self, rung: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| usize::from(s.rung) == rung)
            .map(|s| {
                if s.ok {
                    f64::from(s.latency_us)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// OK replies per second in each of `windows` equal slices of the
    /// phase.
    pub fn window_rates(&self, windows: usize) -> Vec<f64> {
        let span = self.elapsed.as_secs_f64() / windows as f64;
        let mut counts = vec![0u64; windows];
        for s in self.samples.iter().filter(|s| s.ok) {
            counts[((f64::from(s.done_s) / span) as usize).min(windows - 1)] += 1;
        }
        counts.into_iter().map(|c| c as f64 / span).collect()
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After each client has sent this many requests.
    Count(usize),
}

/// Request `i` of client `c`, as an index into the request pool.
pub type Order<'a> = &'a (dyn Fn(usize, usize) -> usize + Sync);

/// Whether to keep the payload of request id `id` for checking.
pub type Keep<'a> = &'a (dyn Fn(u64) -> bool + Sync);

/// Payloads kept for checking, per client (or per open loop).
const KEEP_MAX: usize = 128;

/// One closed-loop client's samples and kept payloads.
type ClientLog = (Vec<Sample>, Vec<(usize, ServePayload)>);

/// Per-request `(due, sent)` offsets in nanoseconds, and per-rung
/// backlog, of a paced ladder.
type Paced = (Vec<(u64, u64)>, Vec<u64>);

/// Samples per chunk of a client's log.
const CHUNK: usize = 1 << 14;

/// A buffer of `n` copies of `fill` with every page already faulted in,
/// so filling it during a measurement never stalls the generator.
fn prefaulted<T: Copy>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, std::hint::black_box(fill));
    v
}

/// An append-only log that grows by whole prefaulted chunks, never by
/// copying what it holds.
struct Log<T> {
    chunks: Vec<Vec<T>>,
}

impl<T: Copy + Default> Log<T> {
    fn new() -> Log<T> {
        Log { chunks: Vec::new() }
    }

    fn push(&mut self, item: T) {
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            let mut chunk = prefaulted(CHUNK, T::default());
            chunk.clear();
            self.chunks.push(chunk);
        }
        self.chunks.last_mut().expect("a chunk").push(item);
    }

    fn into_vec(self) -> Vec<T> {
        self.chunks.concat()
    }
}

fn frames_of(pool: &[ServeRequest]) -> Vec<RequestFrame> {
    pool.iter()
        .map(|req| RequestFrame {
            id: 0,
            req: req.clone(),
        })
        .collect()
}

fn request_id(client: usize, i: usize) -> u64 {
    ((client as u64) << 40) | i as u64
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn call(stream: &mut TcpStream, frame: &RequestFrame) -> io::Result<ServeResult> {
    let body = {
        let _s = trace::span("serve.proto", "encode", 0);
        encode_request(frame)
    };
    write_frame(stream, &body)?;
    let reply = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
    })?;
    let _s = trace::span("serve.proto", "decode", 0);
    let frame = decode_response(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(frame.result)
}

/// Runs `clients` closed-loop clients against `addr`, one connection
/// and one thread each.
///
/// # Errors
///
/// The first connection or socket error of any client.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[ServeRequest],
    order: Order<'_>,
    clients: usize,
    stop: Stop,
    keep: Keep<'_>,
) -> io::Result<Outcome> {
    closed_with(pool, order, clients, stop, keep, || {
        let mut stream = connect(addr)?;
        Ok(move |frame: &RequestFrame| call(&mut stream, frame))
    })
}

/// The same closed loop against an in-process engine:
/// `Engine::submit` then `Ticket::wait`, no sockets.
///
/// # Errors
///
/// Never fails; the signature matches [`closed_loop`].
pub fn closed_loop_engine(
    engine: &Engine,
    pool: &[ServeRequest],
    order: Order<'_>,
    clients: usize,
    stop: Stop,
) -> io::Result<Outcome> {
    closed_with(pool, order, clients, stop, &|_| false, || {
        Ok(|frame: &RequestFrame| {
            let _s = trace::span("serve.engine", "submit_wait", frame.id + 1);
            Ok(engine
                .submit(frame.req.clone())
                .and_then(|ticket| ticket.wait()))
        })
    })
}

fn closed_with<C>(
    pool: &[ServeRequest],
    order: Order<'_>,
    clients: usize,
    stop: Stop,
    keep: Keep<'_>,
    open: impl Fn() -> io::Result<C> + Sync,
) -> io::Result<Outcome>
where
    C: FnMut(&RequestFrame) -> io::Result<ServeResult>,
{
    let start = Instant::now();
    let per_client: Vec<io::Result<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let open = &open;
                scope.spawn(move || {
                    let mut call = open()?;
                    // Each client owns its frames, so a request costs no
                    // copy of its inputs.
                    let mut frames = frames_of(pool);
                    let mut samples = Log::new();
                    let mut kept = Vec::new();
                    for i in 0.. {
                        let done = match stop {
                            Stop::After(d) => start.elapsed() >= d,
                            Stop::Count(n) => i >= n,
                        };
                        if done {
                            break;
                        }
                        let idx = order(c, i);
                        let frame = &mut frames[idx];
                        frame.id = request_id(c, i);
                        let sent = Instant::now();
                        let result = {
                            let _s = trace::span("serve.server", "round_trip", frame.id + 1);
                            call(frame)?
                        };
                        let done_at = Instant::now();
                        samples.push(Sample {
                            done_s: (done_at - start).as_secs_f32(),
                            latency_us: (done_at - sent).as_secs_f32() * 1e6,
                            ok: result.is_ok(),
                            rung: 0,
                        });
                        if let Ok(payload) = result {
                            if kept.len() < KEEP_MAX && keep(frame.id) {
                                kept.push((idx, payload));
                            }
                        }
                    }
                    Ok((samples.into_vec(), kept))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut out = Outcome {
        elapsed,
        ..Outcome::default()
    };
    for client in per_client {
        let (samples, kept) = client?;
        out.samples.extend(samples);
        out.kept.extend(kept);
    }
    out.samples
        .sort_unstable_by(|a, b| a.done_s.total_cmp(&b.done_s));
    Ok(out)
}

/// One step of an open-loop rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Aggregate offered rate, requests per second.
    pub rate: f64,
    /// How long the rung offers load.
    pub seconds: f64,
    /// `Some(w)`: ignore the schedule and send whenever fewer than `w`
    /// requests are outstanding — a saturating pipelined loop that
    /// measures capacity without an unbounded backlog. The rung still
    /// sends `rate × seconds` requests, each due when it is sent.
    pub window: Option<u64>,
}

impl Rung {
    /// Requests the rung sends.
    pub fn count(&self) -> usize {
        (self.rate * self.seconds).round().max(1.0) as usize
    }
}

/// The longest the generator waits for a rung's replies before it
/// counts the rest as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Asks the kernel to end this thread's sleeps within a microsecond of
/// their deadline instead of the default 50 µs timer slack, so paced
/// sends run on time.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument by
    // value and changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, std::ffi::c_ulong::from(1_000u32));
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Sends `ids` on schedule, writing each with `send`, and waits for
/// `received` to catch up after each rung. Returns per-request
/// `(due, sent)` offsets in nanoseconds and the per-rung backlog.
fn pace(
    ladder: &[Rung],
    start: Instant,
    received: &AtomicU64,
    mut send: impl FnMut(u64) -> io::Result<()>,
) -> io::Result<Paced> {
    tight_timer_slack();
    let total = ladder.iter().map(Rung::count).sum();
    let mut times = prefaulted(total, (0, 0));
    times.clear();
    let mut backlog = Vec::new();
    let mut id = 0u64;
    for rung in ladder {
        let rung_start = start.elapsed();
        let interval = Duration::from_secs_f64(1.0 / rung.rate);
        for i in 0..rung.count() as u32 {
            let due = if let Some(window) = rung.window {
                while id - received.load(Ordering::Acquire) >= window {
                    std::thread::sleep(Duration::from_micros(20));
                }
                start.elapsed()
            } else {
                rung_start + interval * i
            };
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = start.elapsed();
            send(id)?;
            times.push((due.as_nanos() as u64, sent.as_nanos() as u64));
            id += 1;
        }
        backlog.push(id - received.load(Ordering::Acquire));
        let drain_start = Instant::now();
        while received.load(Ordering::Acquire) < id && drain_start.elapsed() < DRAIN_LIMIT {
            std::thread::sleep(Duration::from_micros(200));
        }
        if received.load(Ordering::Acquire) < id {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok((times, backlog))
}

/// Assembles an open-loop outcome from send times and per-id
/// completion `(done_ns, ok)` (done 0 = never answered).
fn assemble(
    ladder: &[Rung],
    times: &[(u64, u64)],
    done: &[(u64, bool)],
    backlog: Vec<u64>,
    elapsed: Duration,
) -> Outcome {
    let mut out = Outcome {
        elapsed,
        backlog,
        ..Outcome::default()
    };
    let mut rung_end = 0usize;
    let mut rung = 0usize;
    for (id, &(due, sent)) in times.iter().enumerate() {
        while id >= rung_end + ladder[rung].count() {
            rung_end += ladder[rung].count();
            rung += 1;
        }
        out.lag_us.push(sent.saturating_sub(due) as f64 / 1e3);
        match done.get(id) {
            Some(&(t, ok)) if t != 0 => out.samples.push(Sample {
                done_s: (t as f64 / 1e9) as f32,
                latency_us: (t.saturating_sub(due) as f64 / 1e3) as f32,
                ok,
                rung: u8::try_from(rung).expect("ladders have few rungs"),
            }),
            _ => out.lost += 1,
        }
    }
    out.samples
        .sort_unstable_by(|a, b| a.done_s.total_cmp(&b.done_s));
    out
}

/// Open loop over one connection: a sender thread paces `ladder` and a
/// reader thread takes replies as they arrive. Request `id` carries
/// `pool[order(0, id)]`.
///
/// # Errors
///
/// Connection or socket errors; a reply that does not decode.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[ServeRequest],
    order: Order<'_>,
    ladder: &[Rung],
    keep: Keep<'_>,
) -> io::Result<Outcome> {
    let mut writer = connect(addr)?;
    let mut reader = io::BufReader::with_capacity(1 << 16, writer.try_clone()?);
    let total: usize = ladder.iter().map(Rung::count).sum();
    let received = AtomicU64::new(0);
    let start = Instant::now();
    let (sent, read) = std::thread::scope(|scope| {
        let received = &received;
        let read = scope.spawn(move || -> io::Result<_> {
            let mut done = prefaulted(total, (0u64, false));
            let mut kept = Vec::new();
            for _ in 0..total {
                let Some(body) = read_frame(&mut reader)? else {
                    break;
                };
                let at = start.elapsed().as_nanos() as u64;
                let frame = {
                    let _s = trace::span("serve.proto", "decode", 0);
                    decode_response(&body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                };
                let id = frame.id as usize;
                if id < total {
                    done[id] = (at.max(1), frame.result.is_ok());
                    if let Ok(payload) = frame.result {
                        if kept.len() < KEEP_MAX && keep(frame.id) {
                            kept.push((order(0, id), payload));
                        }
                    }
                }
                received.fetch_add(1, Ordering::Release);
            }
            Ok((done, kept))
        });
        let mut frames = frames_of(pool);
        let sent = pace(ladder, start, received, |id| {
            let frame = &mut frames[order(0, id as usize)];
            frame.id = id;
            let body = {
                let _s = trace::span("serve.proto", "encode", id + 1);
                encode_request(frame)
            };
            write_frame(&mut writer, &body)
        });
        // Unblocks the reader if replies went missing.
        let _ = writer.shutdown(Shutdown::Both);
        (sent, read.join().expect("reader panicked"))
    });
    let (times, backlog) = sent?;
    let (done, kept) = read?;
    let mut out = assemble(ladder, &times, &done, backlog, start.elapsed());
    out.kept = kept;
    Ok(out)
}

/// The same open loop against an in-process engine: tickets record
/// their completion time through `Ticket::watch`, so no thread waits in
/// submission order.
pub fn open_loop_engine(
    engine: &Engine,
    pool: &[ServeRequest],
    order: Order<'_>,
    ladder: &[Rung],
) -> Outcome {
    let total: usize = ladder.iter().map(Rung::count).sum();
    let received = Arc::new(AtomicU64::new(0));
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
    for d in done.iter() {
        d.store(std::hint::black_box(0), Ordering::Relaxed);
    }
    let ok: Arc<Vec<AtomicBool>> = Arc::new((0..total).map(|_| AtomicBool::new(false)).collect());
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(total);
    let paced = pace(ladder, start, &received, |id| {
        let idx = id as usize;
        let _s = trace::span("serve.engine", "submit", id + 1);
        match engine.submit(pool[order(0, idx)].clone()) {
            Ok(ticket) => {
                let (received, done) = (Arc::clone(&received), Arc::clone(&done));
                ticket.watch(move || {
                    let at = start.elapsed().as_nanos() as u64;
                    done[idx].store(at.max(1), Ordering::Relaxed);
                    received.fetch_add(1, Ordering::Release);
                });
                tickets.push((idx, ticket));
            }
            Err(_) => {
                done[idx].store(
                    (start.elapsed().as_nanos() as u64).max(1),
                    Ordering::Relaxed,
                );
                received.fetch_add(1, Ordering::Release);
            }
        }
        Ok(())
    });
    let (times, backlog) = paced.expect("engine submission does not fail with an I/O error");
    for (idx, ticket) in tickets {
        ok[idx].store(ticket.wait().is_ok(), Ordering::Relaxed);
    }
    let done: Vec<(u64, bool)> = done
        .iter()
        .zip(ok.iter())
        .map(|(d, ok)| (d.load(Ordering::Relaxed), ok.load(Ordering::Relaxed)))
        .collect();
    assemble(ladder, &times, &done, backlog, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_serve::proto::{decode_request, encode_response, ResponseFrame};
    use std::net::TcpListener;

    /// A loopback peer that answers every request in order, but stops
    /// reading for `stall` just before request `stall_at`.
    fn stalling_peer(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            while let Ok(Some(body)) = read_frame(&mut conn) {
                let id = decode_request(&body).unwrap().id;
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = ResponseFrame::direct(
                    id,
                    Ok(ServePayload::InverseDynamics {
                        tau: vec![0.0],
                        cycles: 1,
                    }),
                );
                if write_frame(&mut conn, &encode_response(&reply)).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn due_time_latency_counts_a_stalling_peer() {
        let stall = Duration::from_millis(40);
        let (addr, peer) = stalling_peer(100, stall);
        let pool = [ServeRequest::kinematics("r", vec![0.0])];
        let ladder = [Rung {
            rate: 2_000.0,
            seconds: 0.15,
            window: None,
        }];
        let out = open_loop(addr, &pool, &|_, _| 0, &ladder, &|_| false).unwrap();
        peer.join().unwrap();
        assert_eq!((out.samples.len(), out.lost, out.failed()), (300, 0, 0));
        let by_due: Vec<f64> = {
            let mut v: Vec<(f64, f64)> = out
                .samples
                .iter()
                .map(|s| {
                    (
                        f64::from(s.done_s) * 1e6 - f64::from(s.latency_us),
                        f64::from(s.latency_us),
                    )
                })
                .collect();
            v.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            v.into_iter().map(|(_, l)| l).collect()
        };
        // Request 100 waits out the whole stall; the ten due after it
        // (0.5 ms apart) queue behind it and are charged the rest.
        assert!(
            by_due[100] >= 38_000.0,
            "stalled request: {} µs",
            by_due[100]
        );
        for k in 1..=10 {
            let floor = 39_000.0 - 500.0 * k as f64 - 1_000.0;
            assert!(
                by_due[100 + k] >= floor,
                "request {}: {} µs",
                100 + k,
                by_due[100 + k]
            );
        }
        // The sender kept to its schedule while the peer stalled: the
        // stall shows in latency, not as generator lag.
        let worst_lag = out.lag_us.iter().copied().fold(0.0, f64::max);
        assert!(worst_lag < 20_000.0, "sender blocked for {worst_lag} µs");
    }
}
