//! The wire layer: line-delimited JSON over a Unix or TCP socket.
//!
//! Framing is one JSON value per `\n`-terminated line, both directions.
//! Each request line gets exactly one response line: `{"ok": true, …}`
//! (see [`crate::SampleResponse::to_json`]) or
//! `{"ok": false, "error": …}`.
//! Malformed frames produce an error response on the same connection —
//! never a disconnect or a panic — so a client can pipeline requests
//! and recover from its own bad input. Blank lines are ignored.
//!
//! Request frames are capped at [`MAX_FRAME_LEN`] bytes: an oversized
//! frame is answered with a structured error and its remaining bytes
//! are discarded up to the terminating newline, after which the
//! connection keeps serving.
//!
//! Besides sampling requests, a connection accepts control frames
//! ([`crate::ControlCommand`]): `{"cmd": "stats"}`,
//! `{"cmd": "snapshot"}`, and `{"cmd": "shutdown"}` (which starts a
//! graceful drain of the whole endpoint — see [`crate::mux`]'s
//! module docs via [`serve_endpoint`]).
//!
//! [`serve_endpoint`] drives every connection from one multiplexed
//! nonblocking event loop with explicit backpressure
//! ([`crate::ServeOptions::max_concurrent`],
//! [`crate::ServeOptions::max_inflight`]) and idle-connection timeouts
//! ([`crate::ServeOptions::read_timeout`]).

use crate::mux::{self, MuxConfig};
use crate::request::SampleRequest;
use crate::service::{serve, ServeHandle, ServeOptions};
use cct_json::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

use crate::service::ServeError;

/// Hard cap on the length of one request frame, in bytes. A line that
/// exceeds it is answered with `{"ok": false, "error": …}` and
/// discarded; the connection stays usable. Response frames are not
/// capped (a large `count` legitimately produces a large reply).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Where a service listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address (`host:port`; port 0 binds an ephemeral port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `unix:PATH` or a TCP `host:port`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for an empty address.
    ///
    /// # Examples
    ///
    /// ```
    /// use cct_serve::Endpoint;
    ///
    /// assert!(matches!(Endpoint::parse("unix:/tmp/cct.sock"), Ok(Endpoint::Unix(_))));
    /// assert!(matches!(Endpoint::parse("127.0.0.1:0"), Ok(Endpoint::Tcp(_))));
    /// ```
    pub fn parse(s: &str) -> Result<Endpoint, ServeError> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(ServeError::new("unix endpoint needs a path after 'unix:'"));
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        } else if s.is_empty() {
            Err(ServeError::new("empty endpoint address"))
        } else {
            Ok(Endpoint::Tcp(s.to_string()))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Client half of one frame exchange on an established stream: writes
/// `frame` as one line, reads one response line, and interprets its
/// `"ok"` field.
///
/// # Errors
///
/// [`ServeError`] for I/O failures, unparseable response frames, and
/// `{"ok": false}` responses (carrying the server's error message).
pub fn exchange_frame<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    frame: &Json,
) -> Result<Json, ServeError> {
    let io_err = |e: io::Error| ServeError::new(format!("connection error: {e}"));
    writer
        .write_all(frame.compact().as_bytes())
        .map_err(io_err)?;
    writer.write_all(b"\n").map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    let mut line = String::new();
    let n = reader.read_line(&mut line).map_err(io_err)?;
    if n == 0 {
        return Err(ServeError::new("server closed the connection"));
    }
    let reply = Json::parse(line.trim_end())
        .map_err(|e| ServeError::new(format!("unparseable response frame: {e}")))?;
    match reply.get("ok") {
        Some(Json::Bool(true)) => Ok(reply),
        Some(Json::Bool(false)) => Err(ServeError::new(
            reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified server error"),
        )),
        _ => Err(ServeError::new("response frame missing 'ok' field")),
    }
}

/// Client half of one request/response exchange on an established
/// stream.
///
/// # Errors
///
/// [`ServeError`] for I/O failures, unparseable response frames, and
/// `{"ok": false}` responses (carrying the server's error message).
pub fn exchange<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    request: &SampleRequest,
) -> Result<Json, ServeError> {
    exchange_frame(reader, writer, &request.to_json())
}

/// Binds `endpoint`, runs a service, and drives every connection from
/// one multiplexed nonblocking event loop (see [`crate::ServeOptions`]
/// for the backpressure and timeout knobs: `max_concurrent` bounds
/// *concurrent* connections, `max_inflight` bounds queued jobs,
/// `read_timeout` closes idle connections). `on_ready` runs once with
/// the bound address — for TCP with port 0, the *resolved* address —
/// before the first accept, so callers can print it or connect from
/// another thread.
///
/// `accept_limit` is a **test-only shutdown valve**: after that many
/// *lifetime* accepted connections (including empty ones, e.g. another
/// instance's liveness probe of a Unix path) the server stops
/// accepting and exits once every open connection closes. Production
/// servers pass `None` and bound load with
/// [`crate::ServeOptions::max_concurrent`] instead, which refuses
/// excess connections with `{"ok": false, "error": "overloaded"}`
/// without ever self-terminating.
///
/// # Errors
///
/// [`ServeError`] for bind failures. Per-connection I/O errors only end
/// that connection.
pub fn serve_endpoint(
    endpoint: &Endpoint,
    options: ServeOptions,
    accept_limit: Option<u64>,
    on_ready: impl FnOnce(&str),
) -> Result<(), ServeError> {
    serve_endpoint_with_shutdown(
        endpoint,
        options,
        accept_limit,
        &AtomicBool::new(false),
        on_ready,
    )
}

/// [`serve_endpoint`] with an external shutdown flag: setting
/// `shutdown` to `true` starts the same graceful drain a
/// `{"cmd": "shutdown"}` frame does — stop accepting, flush every
/// in-flight reply, exit once all connections close (bounded by
/// [`crate::ServeOptions::drain_grace`]). If a snapshot path is
/// configured, the cache is snapshotted on the way out.
///
/// # Errors
///
/// [`ServeError`] for bind failures.
pub fn serve_endpoint_with_shutdown(
    endpoint: &Endpoint,
    options: ServeOptions,
    accept_limit: Option<u64>,
    shutdown: &AtomicBool,
    on_ready: impl FnOnce(&str),
) -> Result<(), ServeError> {
    let cfg = MuxConfig::from_options(&options, accept_limit);
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)
                .map_err(|e| ServeError::new(format!("bind {addr}: {e}")))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| ServeError::new(format!("set_nonblocking: {e}")))?;
            let local = listener
                .local_addr()
                .map_err(|e| ServeError::new(format!("local_addr: {e}")))?;
            serve(options, |handle| {
                on_ready(&local.to_string());
                mux::mux_loop(
                    || nonblocking_accept(listener.accept().map(|(s, _)| s)),
                    &handle,
                    &cfg,
                    shutdown,
                );
                final_snapshot(&handle);
            });
            Ok(())
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            // A dead server's leftover socket file would make bind fail
            // with AddrInUse — but only reclaim the path if nothing is
            // actually listening, so a second instance errors out
            // instead of silently hijacking a live server's address.
            if path.exists() {
                if UnixStream::connect(path).is_ok() {
                    return Err(ServeError::new(format!(
                        "{} already has a live server listening",
                        path.display()
                    )));
                }
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)
                .map_err(|e| ServeError::new(format!("bind {}: {e}", path.display())))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| ServeError::new(format!("set_nonblocking: {e}")))?;
            serve(options, |handle| {
                on_ready(&format!("unix:{}", path.display()));
                mux::mux_loop(
                    || nonblocking_accept(listener.accept().map(|(s, _)| s)),
                    &handle,
                    &cfg,
                    shutdown,
                );
                final_snapshot(&handle);
            });
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(ServeError::new(
            "unix endpoints are not supported on this platform",
        )),
    }
}

fn nonblocking_accept<S>(result: io::Result<S>) -> io::Result<Option<S>> {
    match result {
        Ok(stream) => Ok(Some(stream)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

/// Writes a final cache snapshot on graceful exit, if a path is
/// configured. Best-effort: a failure is reported, not fatal.
fn final_snapshot(handle: &ServeHandle) {
    if let Some(path) = handle.snapshot_path().map(Path::to_path_buf) {
        if let Err(e) = handle.write_snapshot(&path) {
            eprintln!("snapshot write failed: {e}");
        }
    }
}

fn tcp_split(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    Ok((BufReader::new(stream.try_clone()?), stream))
}

#[cfg(unix)]
fn unix_split(stream: UnixStream) -> io::Result<(BufReader<UnixStream>, UnixStream)> {
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Connects to a served endpoint, performs one request/response
/// exchange, and returns the parsed `{"ok": true}` frame.
///
/// # Errors
///
/// [`ServeError`] for connect/I-O failures and error responses.
pub fn request_endpoint(endpoint: &Endpoint, request: &SampleRequest) -> Result<Json, ServeError> {
    request_endpoint_frame(endpoint, &request.to_json())
}

/// Connects to a served endpoint, sends one arbitrary frame (e.g. a
/// [`crate::ControlCommand`]'s `to_json`), and returns the parsed
/// `{"ok": true}` reply.
///
/// # Errors
///
/// [`ServeError`] for connect/I-O failures and error responses.
pub fn request_endpoint_frame(endpoint: &Endpoint, frame: &Json) -> Result<Json, ServeError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let stream = TcpStream::connect(addr)
                .map_err(|e| ServeError::new(format!("connect {addr}: {e}")))?;
            let (mut reader, mut writer) =
                tcp_split(stream).map_err(|e| ServeError::new(format!("connection error: {e}")))?;
            exchange_frame(&mut reader, &mut writer, frame)
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let stream = UnixStream::connect(path)
                .map_err(|e| ServeError::new(format!("connect {}: {e}", path.display())))?;
            let (mut reader, mut writer) = unix_split(stream)
                .map_err(|e| ServeError::new(format!("connection error: {e}")))?;
            exchange_frame(&mut reader, &mut writer, frame)
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(ServeError::new(
            "unix endpoints are not supported on this platform",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Algorithm, ControlCommand};
    use cct_core::{EngineChoice, SamplerConfig, WalkLength};

    fn quick_options() -> ServeOptions {
        let config = SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost);
        ServeOptions::new()
            .workers(2)
            .config(Algorithm::Thm1, config.clone())
            .config(Algorithm::Exact, config)
    }

    /// Writes `input` to one connection of a fresh server on TCP
    /// loopback — the multiplexed loop production runs — half-closes
    /// it, and parses every response line sent before the server hangs
    /// up: each non-blank input line must yield exactly one.
    fn roundtrip_lines(input: &[u8]) -> Vec<Json> {
        use std::io::Read;
        let endpoint = Endpoint::parse("127.0.0.1:0").unwrap();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_endpoint(&endpoint, quick_options(), Some(1), move |addr| {
                    addr_tx.send(addr.to_string()).unwrap();
                })
                .unwrap();
            });
            let mut stream = TcpStream::connect(addr_rx.recv().unwrap()).unwrap();
            stream.write_all(input).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut text = String::new();
            stream.read_to_string(&mut text).unwrap();
            text.lines().map(|l| Json::parse(l).unwrap()).collect()
        })
    }

    #[test]
    fn one_response_line_per_request_line() {
        let frames = roundtrip_lines(
            b"{\"graph\": \"petersen\", \"seed\": 7, \"count\": 2}\n\
             \n\
             not json at all\n\
             {\"graph\": \"complete:8\"}\n",
        );
        assert_eq!(frames.len(), 3, "blank line ignored, bad line answered");
        assert_eq!(frames[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(frames[0].get("draws").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(frames[1].get("ok"), Some(&Json::Bool(false)));
        assert!(frames[1].get("error").unwrap().as_str().is_some());
        assert_eq!(frames[2].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn oversized_frames_get_an_error_and_the_connection_survives() {
        // One giant junk line (over the cap, no newline until the end),
        // then a valid request: both answered, in order.
        let mut input = vec![b'x'; MAX_FRAME_LEN + 100];
        input.push(b'\n');
        input.extend_from_slice(
            SampleRequest::new("complete:4")
                .to_json()
                .compact()
                .as_bytes(),
        );
        input.push(b'\n');
        let frames = roundtrip_lines(&input);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].get("ok"), Some(&Json::Bool(false)));
        assert!(
            frames[0]
                .get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("exceeds"),
            "{:?}",
            frames[0]
        );
        assert_eq!(frames[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn exactly_max_len_frames_still_parse() {
        // A valid request padded with trailing spaces to exactly the
        // cap must still be served (the limit is exclusive).
        let mut line = SampleRequest::new("complete:4").to_json().compact();
        let pad = MAX_FRAME_LEN - line.len();
        line.extend(std::iter::repeat_n(' ', pad));
        assert_eq!(line.len(), MAX_FRAME_LEN);
        line.push('\n');
        let frames = roundtrip_lines(line.as_bytes());
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn control_frames_answer_inline() {
        let input = format!(
            "{}\n{}\n",
            SampleRequest::new("petersen").to_json().compact(),
            ControlCommand::Stats.to_json().compact()
        );
        let frames = roundtrip_lines(input.as_bytes());
        assert_eq!(frames.len(), 2);
        let stats = frames[1].get("stats").expect("stats frame");
        let requests = stats.get("requests").unwrap();
        assert_eq!(requests.get("thm1").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn tcp_endpoint_serves_and_replays_identically() {
        let endpoint = Endpoint::parse("127.0.0.1:0").unwrap();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_endpoint(&endpoint, quick_options(), Some(2), move |addr| {
                    addr_tx.send(addr.to_string()).unwrap();
                })
                .unwrap();
            });
            let bound = Endpoint::Tcp(addr_rx.recv().unwrap());
            let request = SampleRequest::new("petersen").seed(42).count(2);
            let a = request_endpoint(&bound, &request).unwrap();
            let b = request_endpoint(&bound, &request).unwrap();
            // The determinism contract covers the draws; cache metadata
            // legitimately differs between the two connections.
            assert_eq!(a.get("draws"), b.get("draws"));
            assert_eq!(a.get("cache").unwrap().get("hit"), Some(&Json::Bool(false)));
            assert_eq!(b.get("cache").unwrap().get("hit"), Some(&Json::Bool(true)));
        });
    }

    #[test]
    fn invalid_utf8_lines_get_an_error_frame_not_a_disconnect() {
        // A bogus-bytes line followed by a valid request: both answered
        // on the same connection.
        let mut input: Vec<u8> = vec![0xFF, 0xFE, 0x01, b'\n'];
        input.extend_from_slice(
            SampleRequest::new("complete:4")
                .to_json()
                .compact()
                .as_bytes(),
        );
        input.push(b'\n');
        let frames = roundtrip_lines(&input);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].get("ok"), Some(&Json::Bool(false)));
        assert!(frames[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("UTF-8"));
        assert_eq!(frames[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_refuses_live_sockets_but_reclaims_stale_files() {
        let path =
            std::env::temp_dir().join(format!("cct-serve-bind-test-{}.sock", std::process::id()));
        // Live listener on the path: a second server must refuse.
        let live = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let err = serve_endpoint(
            &Endpoint::Unix(path.clone()),
            quick_options(),
            Some(0),
            |_| {},
        )
        .unwrap_err();
        assert!(err.to_string().contains("live server"), "{err}");
        assert!(path.exists(), "the live socket must be left alone");
        // Dead listener, stale file: the next server reclaims it.
        drop(live);
        assert!(path.exists(), "dropping the listener leaves the file");
        serve_endpoint(
            &Endpoint::Unix(path.clone()),
            quick_options(),
            Some(0),
            |_| {},
        )
        .unwrap();
        assert!(!path.exists(), "served and cleaned up");
    }

    #[cfg(unix)]
    #[test]
    fn unix_endpoint_serves_and_cleans_up() {
        let path = std::env::temp_dir().join(format!("cct-serve-test-{}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path.clone());
        std::thread::scope(|s| {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
            let ep = endpoint.clone();
            s.spawn(move || {
                serve_endpoint(&ep, quick_options(), Some(1), move |_| {
                    ready_tx.send(()).unwrap();
                })
                .unwrap();
            });
            ready_rx.recv().unwrap();
            let frame =
                request_endpoint(&endpoint, &SampleRequest::new("complete:8").seed(3)).unwrap();
            assert_eq!(frame.get("ok"), Some(&Json::Bool(true)));
        });
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn error_responses_carry_the_server_message() {
        let endpoint = Endpoint::parse("127.0.0.1:0").unwrap();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        std::thread::scope(|s| {
            s.spawn(|| {
                serve_endpoint(&endpoint, quick_options(), Some(1), move |addr| {
                    addr_tx.send(addr.to_string()).unwrap();
                })
                .unwrap();
            });
            let bound = Endpoint::Tcp(addr_rx.recv().unwrap());
            let err =
                request_endpoint(&bound, &SampleRequest::new("no-such-family:9")).unwrap_err();
            assert!(err.to_string().contains("bad graph spec"), "{err}");
        });
    }
}
