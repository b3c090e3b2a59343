//! The multiplexed socket front-end: one event-loop thread drives every
//! connection over nonblocking sockets, with explicit backpressure and
//! graceful drain.
//!
//! # Shape
//!
//! The loop owns a nonblocking listener and a vector of per-connection
//! state machines ([`Conn`]): a read buffer accumulating bytes until a
//! `\n` completes a frame, an ordered reply queue (one slot per
//! received frame, so responses always return in request order even
//! when jobs finish out of order), and a partially written outbox.
//! Completed frames dispatch to the existing worker pool through
//! [`ServeHandle::submit`]; the loop polls each [`Pending`] with
//! [`Pending::try_wait`] — readiness-style multiplexing built entirely
//! on `std` (`set_nonblocking` + `WouldBlock`; the workspace vendors no
//! `libc`, so there is no `poll(2)` to call). A tick with no progress
//! sleeps briefly instead of spinning.
//!
//! # Backpressure
//!
//! Two explicit bounds, both answered with a structured
//! `{"ok": false, "error": "overloaded"}` frame — never a silent drop:
//!
//! * **Connections** ([`crate::ServeOptions::max_concurrent`]): a
//!   connection accepted at the bound gets the frame and a
//!   close-after-flush.
//! * **In-flight requests** ([`crate::ServeOptions::max_inflight`]):
//!   a request frame arriving with the job queue full gets the frame
//!   in its reply slot; pipelined neighbors are unaffected.
//!
//! # Drain
//!
//! A `{"cmd": "shutdown"}` frame is the one trigger of a graceful
//! drain: stop accepting, keep serving already-open connections, flush
//! every in-flight reply, and exit once every connection has closed —
//! or when the drain grace period
//! ([`crate::ServeOptions::drain_grace`]) expires, whichever comes
//! first. Every accepted request gets exactly one reply.

use crate::request::{ControlCommand, SampleRequest, WireFrame};
use crate::service::{error_frame, Pending, ServeHandle, ServeOptions};
use crate::wire::MAX_FRAME_LEN;
use cct_json::Json;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// The exact error string of a backpressure refusal — clients match on
/// it to retry with a backoff.
pub(crate) const OVERLOADED: &str = "overloaded";

/// How long the loop sleeps when a full tick made no progress.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Read chunk size, and the per-connection per-tick read budget (in
/// chunks) that keeps one firehose client from starving the rest.
const READ_CHUNK: usize = 4096;
const READ_BUDGET: usize = 16;

pub(crate) fn overloaded_frame() -> Json {
    error_frame(OVERLOADED)
}

fn draining_frame() -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("draining".into(), Json::Bool(true)),
    ])
}

fn oversized_frame() -> Json {
    error_frame(&format!("request frame exceeds {MAX_FRAME_LEN} bytes"))
}

/// What the line classifier decides about one received frame.
enum LineOutcome {
    /// Blank line: ignore.
    Skip,
    /// An immediately answerable frame (an error).
    Frame(Json),
    /// A stats or snapshot command, answered by the function once
    /// every earlier reply on the connection has gone out.
    Control(fn(&ServeHandle) -> Json),
    /// A parsed sampling request for the worker pool.
    Submit(SampleRequest),
    /// A shutdown command: answer with the frame, then begin draining.
    Shutdown(Json),
}

fn classify_line(handle: &ServeHandle, bytes: &[u8]) -> LineOutcome {
    let text = match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(_) => {
            handle.shared().stats.record_protocol_error();
            return LineOutcome::Frame(error_frame("request line is not valid UTF-8"));
        }
    };
    if text.trim().is_empty() {
        return LineOutcome::Skip;
    }
    match WireFrame::parse_line(text.trim_end_matches(['\n', '\r'])) {
        Err(e) => {
            handle.shared().stats.record_protocol_error();
            LineOutcome::Frame(error_frame(&e.to_string()))
        }
        Ok(WireFrame::Control(ControlCommand::Stats)) => {
            LineOutcome::Control(ServeHandle::stats_frame)
        }
        Ok(WireFrame::Control(ControlCommand::Snapshot)) => {
            LineOutcome::Control(ServeHandle::snapshot_frame)
        }
        Ok(WireFrame::Control(ControlCommand::Shutdown)) => LineOutcome::Shutdown(draining_frame()),
        Ok(WireFrame::Sample(request)) => LineOutcome::Submit(request),
    }
}

/// The minimal stream surface the loop needs, implemented for TCP and
/// Unix streams (the only transports the wire layer binds); a
/// [`crate::Client`] holds one too.
pub(crate) trait MuxStream: Read + Write {
    fn set_nonblocking_stream(&self) -> io::Result<()>;
    fn shutdown_stream(&self);
}

impl MuxStream for std::net::TcpStream {
    fn set_nonblocking_stream(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn shutdown_stream(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(unix)]
impl MuxStream for std::os::unix::net::UnixStream {
    fn set_nonblocking_stream(&self) -> io::Result<()> {
        self.set_nonblocking(true)
    }

    fn shutdown_stream(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }
}

/// One reply slot: already renderable, a control frame rendered when it
/// reaches the head of the queue (so a pipelined `stats` counts the
/// requests before it), or still in the worker pool. The queue
/// preserves request order per connection.
enum ReplySlot {
    Ready(Json),
    Control(fn(&ServeHandle) -> Json),
    Waiting(Pending),
}

/// One connection's state machine.
struct Conn<S: MuxStream> {
    stream: S,
    rbuf: Vec<u8>,
    outbox: Vec<u8>,
    written: usize,
    replies: VecDeque<ReplySlot>,
    last_activity: Instant,
    /// Discarding the tail of an oversized frame until its newline.
    skipping: bool,
    eof: bool,
    close_after_flush: bool,
    dead: bool,
}

impl<S: MuxStream> Conn<S> {
    fn new(stream: S) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            outbox: Vec::new(),
            written: 0,
            replies: VecDeque::new(),
            last_activity: Instant::now(),
            skipping: false,
            eof: false,
            close_after_flush: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.written == self.outbox.len()
    }

    fn push_frame(&mut self, frame: &Json) {
        self.outbox.extend_from_slice(frame.compact().as_bytes());
        self.outbox.push(b'\n');
    }

    fn waiting(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| matches!(r, ReplySlot::Waiting(_)))
            .count()
    }
}

struct LoopState {
    inflight: usize,
    stop_accepting: bool,
    drain_deadline: Option<Instant>,
    progress: bool,
}

/// Runs the multiplexed front-end until drained: `accept` yields
/// `Ok(None)` when no connection is pending (`WouldBlock`). Returns
/// once the loop has stopped accepting **and** every connection has
/// closed (or the drain deadline expired).
///
/// `accept_limit` is the test-only total-accept valve: after that many
/// accepted connections the loop stops accepting and exits once every
/// open connection closes. The deterministic wire tests and CI smoke
/// scripts rely on it; production servers pass `None`.
pub(crate) fn mux_loop<S: MuxStream>(
    mut accept: impl FnMut() -> io::Result<Option<S>>,
    handle: &ServeHandle,
    accept_limit: Option<u64>,
) {
    let options = &handle.shared().options;
    let mut conns: Vec<Conn<S>> = Vec::new();
    let mut state = LoopState {
        inflight: 0,
        stop_accepting: false,
        drain_deadline: None,
        progress: false,
    };
    let mut accepted = 0u64;
    let mut consecutive_errors = 0u32;
    loop {
        state.progress = false;
        // ---- accept ------------------------------------------------
        while !state.stop_accepting {
            if accept_limit.is_some_and(|limit| accepted >= limit) {
                state.stop_accepting = true;
                break;
            }
            match accept() {
                Ok(None) => break,
                Ok(Some(stream)) => {
                    consecutive_errors = 0;
                    accepted += 1;
                    state.progress = true;
                    let mut conn = Conn::new(stream);
                    if conn.stream.set_nonblocking_stream().is_err() {
                        continue; // the stream is unusable; drop it
                    }
                    if conns.len() >= options.max_concurrent {
                        // Over the connection bound: one structured
                        // refusal frame, then close — never a silent
                        // drop.
                        handle.shared().stats.record_overload();
                        conn.push_frame(&overloaded_frame());
                        conn.close_after_flush = true;
                    }
                    conns.push(conn);
                }
                Err(e) => {
                    // Transient errors (a client aborting mid-handshake)
                    // deserve a retry; a persistently failing listener
                    // (fd exhaustion, closed socket) would spin this
                    // loop at 100% CPU — drain instead.
                    consecutive_errors += 1;
                    if consecutive_errors >= 16 {
                        eprintln!("accept failing persistently, draining: {e}");
                        begin_drain(&mut state, options);
                        break;
                    }
                    eprintln!("accept error: {e}");
                    std::thread::sleep(Duration::from_millis(1 << consecutive_errors.min(6)));
                    break;
                }
            }
        }
        // ---- per-connection read / dispatch / complete / write -----
        for conn in &mut conns {
            read_conn(conn, handle, &mut state);
            complete_replies(conn, handle, &mut state);
            write_conn(conn, &mut state);
            enforce_timeouts(conn, options);
        }
        // ---- reap closed connections -------------------------------
        conns.retain_mut(|conn| {
            let done = conn.dead
                || ((conn.eof || conn.close_after_flush)
                    && conn.replies.is_empty()
                    && conn.flushed());
            if done {
                // Jobs still in the pool for a vanished client keep
                // the global in-flight count until reaped here.
                state.inflight -= conn.waiting();
                conn.stream.shutdown_stream();
                state.progress = true;
            }
            !done
        });
        // ---- exit --------------------------------------------------
        if state.stop_accepting && conns.is_empty() {
            return;
        }
        if let Some(deadline) = state.drain_deadline {
            if Instant::now() >= deadline {
                // Grace expired: abandon stragglers. Their in-pool jobs
                // complete harmlessly into dropped channels.
                for conn in &conns {
                    conn.stream.shutdown_stream();
                }
                return;
            }
        }
        if !state.progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

fn begin_drain(state: &mut LoopState, options: &ServeOptions) {
    state.stop_accepting = true;
    if state.drain_deadline.is_none() {
        state.drain_deadline = Some(Instant::now() + options.drain_grace);
    }
}

/// Reads whatever the socket has (bounded per tick), slicing completed
/// lines out of the buffer and dispatching each.
fn read_conn<S: MuxStream>(conn: &mut Conn<S>, handle: &ServeHandle, state: &mut LoopState) {
    if conn.eof || conn.dead || conn.close_after_flush {
        return;
    }
    let mut chunk = [0u8; READ_CHUNK];
    for _ in 0..READ_BUDGET {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                state.progress = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                state.progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // Slice out completed lines.
    while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
        if conn.skipping {
            // The tail of an already-answered oversized frame.
            conn.skipping = false;
            continue;
        }
        if line.len() > MAX_FRAME_LEN + 1 {
            // An oversized frame whose newline arrived within one tick.
            handle.shared().stats.record_protocol_error();
            conn.replies.push_back(ReplySlot::Ready(oversized_frame()));
            state.progress = true;
            continue;
        }
        dispatch_line(conn, handle, state, &line);
    }
    if conn.skipping {
        // Still inside an oversized frame: discard what arrived.
        conn.rbuf.clear();
    } else if conn.rbuf.len() > MAX_FRAME_LEN {
        // A frame with no newline in sight has outgrown the cap:
        // answer it now, discard until its newline eventually passes.
        handle.shared().stats.record_protocol_error();
        conn.replies.push_back(ReplySlot::Ready(oversized_frame()));
        conn.rbuf.clear();
        conn.skipping = true;
        state.progress = true;
    }
}

fn dispatch_line<S: MuxStream>(
    conn: &mut Conn<S>,
    handle: &ServeHandle,
    state: &mut LoopState,
    line: &[u8],
) {
    match classify_line(handle, line) {
        LineOutcome::Skip => {}
        LineOutcome::Frame(frame) => {
            conn.replies.push_back(ReplySlot::Ready(frame));
            state.progress = true;
        }
        LineOutcome::Control(render) => {
            conn.replies.push_back(ReplySlot::Control(render));
            state.progress = true;
        }
        LineOutcome::Shutdown(frame) => {
            conn.replies.push_back(ReplySlot::Ready(frame));
            begin_drain(state, &handle.shared().options);
            state.progress = true;
        }
        LineOutcome::Submit(request) => {
            if state.inflight >= handle.shared().options.inflight_limit() {
                // The job queue is full: structured refusal in this
                // request's reply slot, pipeline order preserved.
                handle.shared().stats.record_overload();
                conn.replies.push_back(ReplySlot::Ready(overloaded_frame()));
            } else {
                state.inflight += 1;
                conn.replies
                    .push_back(ReplySlot::Waiting(handle.submit(request)));
            }
            state.progress = true;
        }
    }
}

/// Moves finished jobs from the head of the reply queue into the
/// outbox. Only the head can move — replies leave in request order.
fn complete_replies<S: MuxStream>(conn: &mut Conn<S>, handle: &ServeHandle, state: &mut LoopState) {
    while let Some(slot) = conn.replies.front_mut() {
        let frame = match slot {
            ReplySlot::Ready(frame) => frame.clone(),
            ReplySlot::Control(render) => render(handle),
            ReplySlot::Waiting(pending) => match pending.try_wait() {
                None => break,
                Some(result) => {
                    state.inflight -= 1;
                    match result {
                        Ok(response) => response.to_json(),
                        Err(e) => error_frame(&e.to_string()),
                    }
                }
            },
        };
        conn.replies.pop_front();
        conn.push_frame(&frame);
        state.progress = true;
    }
}

fn write_conn<S: MuxStream>(conn: &mut Conn<S>, state: &mut LoopState) {
    if conn.dead {
        return;
    }
    while conn.written < conn.outbox.len() {
        match conn.stream.write(&conn.outbox[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
                state.progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.flushed() && !conn.outbox.is_empty() {
        conn.outbox.clear();
        conn.written = 0;
    }
}

/// Closes idle and stuck connections: a client that has sent nothing
/// for the read timeout (with nothing owed to it) is closed cleanly; a
/// refused connection that never reads its `overloaded` frame is cut
/// after the drain grace.
fn enforce_timeouts<S: MuxStream>(conn: &mut Conn<S>, options: &ServeOptions) {
    let idle = conn.last_activity.elapsed();
    if conn.close_after_flush && !conn.flushed() && idle > options.drain_grace {
        conn.dead = true;
        return;
    }
    if let Some(timeout) = options.read_timeout {
        if conn.replies.is_empty() && conn.flushed() && idle > timeout {
            conn.eof = true;
        }
    }
}
