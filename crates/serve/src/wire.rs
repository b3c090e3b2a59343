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
//! `{"cmd": "snapshot"}`, and `{"cmd": "shutdown"}` — the one trigger
//! of a graceful drain of the whole endpoint (see [`serve_endpoint`]).
//!
//! Two halves, one per side of the socket:
//!
//! * [`serve_endpoint`] binds either transport and drives every
//!   connection from one multiplexed nonblocking event loop with
//!   explicit backpressure ([`crate::ServeOptions::max_concurrent`],
//!   [`crate::ServeOptions::max_inflight`]) and idle-connection
//!   timeouts ([`crate::ServeOptions::read_timeout`]);
//! * [`Client`] connects to either transport and speaks whole frames:
//!   [`Client::exchange`] for one round trip, [`Client::send`] /
//!   [`Client::recv`] to pipeline.

use crate::mux::{self, MuxStream};
use crate::service::{serve, ServeError, ServeOptions};
use cct_json::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

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

/// A client connection to a served endpoint, over either transport:
/// whole request frames out, whole reply frames back.
///
/// [`Client::exchange`] is one request/response round trip;
/// [`Client::send`] and [`Client::recv`] split it, so a client can
/// pipeline several frames before reading any reply — replies come
/// back in request order, one per frame.
pub struct Client {
    stream: BufReader<Box<dyn MuxStream + Send>>,
}

impl Client {
    /// Connects to `endpoint`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] naming the endpoint when the connection fails.
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ServeError> {
        let failed = |e: io::Error| ServeError::new(format!("connect {endpoint}: {e}"));
        let stream: Box<dyn MuxStream + Send> = match endpoint {
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr).map_err(failed)?),
            #[cfg(unix)]
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path).map_err(failed)?),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => return Err(unix_unsupported()),
        };
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Writes `frame` as one line without waiting for its reply.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for I/O failures.
    pub fn send(&mut self, frame: &Json) -> Result<(), ServeError> {
        let mut line = frame.compact();
        line.push('\n');
        self.stream
            .get_mut()
            .write_all(line.as_bytes())
            .map_err(connection_error)
    }

    /// Reads the next reply line and interprets its `"ok"` field.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for I/O failures, a closed connection,
    /// unparseable reply frames, and `{"ok": false}` replies (carrying
    /// the server's error message).
    pub fn recv(&mut self) -> Result<Json, ServeError> {
        let mut line = String::new();
        if self.stream.read_line(&mut line).map_err(connection_error)? == 0 {
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

    /// One round trip: [`Client::send`], then [`Client::recv`].
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn exchange(&mut self, frame: &Json) -> Result<Json, ServeError> {
        self.send(frame)?;
        self.recv()
    }
}

fn connection_error(e: io::Error) -> ServeError {
    ServeError::new(format!("connection error: {e}"))
}

#[cfg(not(unix))]
fn unix_unsupported() -> ServeError {
    ServeError::new("unix endpoints are not supported on this platform")
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
/// The server runs until a `{"cmd": "shutdown"}` frame drains it: it
/// stops accepting, flushes every in-flight reply, and exits once all
/// connections close (bounded by [`crate::ServeOptions::drain_grace`]).
/// If a snapshot path is configured, the cache is snapshotted on the
/// way out.
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
    let bind_failed = |e: io::Error| ServeError::new(format!("bind {endpoint}: {e}"));
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr).map_err(bind_failed)?;
            let local = listener.local_addr().map_err(bind_failed)?;
            listener.set_nonblocking(true).map_err(bind_failed)?;
            serve_listener(
                || listener.accept().map(|(s, _)| s),
                options,
                accept_limit,
                || on_ready(&local.to_string()),
            );
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
            let listener = UnixListener::bind(path).map_err(bind_failed)?;
            listener.set_nonblocking(true).map_err(bind_failed)?;
            serve_listener(
                || listener.accept().map(|(s, _)| s),
                options,
                accept_limit,
                || on_ready(&endpoint.to_string()),
            );
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(unix_unsupported()),
    }
}

/// The listener body both transports share: run the service, drive the
/// multiplexed loop over a nonblocking listener's `accept` until it
/// drains, then write the final snapshot.
fn serve_listener<S: MuxStream>(
    mut accept: impl FnMut() -> io::Result<S>,
    options: ServeOptions,
    accept_limit: Option<u64>,
    on_ready: impl FnOnce(),
) {
    serve(options, |handle| {
        on_ready();
        mux::mux_loop(
            || match accept() {
                Ok(stream) => Ok(Some(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            &handle,
            accept_limit,
        );
        // Best-effort: a failed snapshot is reported, not fatal.
        if let Some(path) = handle.snapshot_path() {
            if let Err(e) = handle.write_snapshot(path) {
                eprintln!("snapshot write failed: {e}");
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Algorithm, ControlCommand, SampleRequest};
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
            let a = Client::connect(&bound)
                .unwrap()
                .exchange(&request.to_json())
                .unwrap();
            let b = Client::connect(&bound)
                .unwrap()
                .exchange(&request.to_json())
                .unwrap();
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
            let frame = Client::connect(&endpoint)
                .unwrap()
                .exchange(&SampleRequest::new("complete:8").seed(3).to_json())
                .unwrap();
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
            let err = Client::connect(&bound)
                .unwrap()
                .exchange(&SampleRequest::new("no-such-family:9").to_json())
                .unwrap_err();
            assert!(err.to_string().contains("bad graph spec"), "{err}");
        });
    }

    #[test]
    fn client_pipelines_frames_and_reads_replies_in_order() {
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
            let mut client = Client::connect(&bound).unwrap();
            // Three frames out before any reply is read.
            for frame in [
                SampleRequest::new("petersen").seed(5).to_json(),
                SampleRequest::new("no-such-family:9").to_json(),
                ControlCommand::Stats.to_json(),
            ] {
                client.send(&frame).unwrap();
            }
            let draw = client.recv().unwrap();
            assert_eq!(draw.get("draws").unwrap().as_arr().unwrap().len(), 1);
            let err = client.recv().unwrap_err();
            assert!(err.to_string().contains("bad graph spec"), "{err}");
            // The stats frame renders only after both replies ahead of
            // it, so it counts both requests and the one error.
            let stats = client.recv().unwrap();
            let stats = stats.get("stats").expect("stats frame");
            let thm1 = stats.get("requests").unwrap().get("thm1");
            assert_eq!(thm1.and_then(Json::as_u64), Some(2));
            assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(1));
        });
        // Nothing listens on a port just released: the error names the
        // endpoint.
        let closed = TcpListener::bind("127.0.0.1:0").unwrap();
        let bound = Endpoint::Tcp(closed.local_addr().unwrap().to_string());
        drop(closed);
        let err = Client::connect(&bound).err().expect("connect must fail");
        assert!(
            err.to_string().starts_with(&format!("connect {bound}: ")),
            "{err}"
        );
    }
}
