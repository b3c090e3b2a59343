//! End-to-end smoke of the `cct serve` / `cct request` subcommands:
//! start a real service process on a Unix socket, issue requests from
//! separate client processes, and check the protocol's replay and
//! cold-replay guarantees at the process boundary.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Kills the server on drop so a failing assertion can't leak the
/// child process.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cct-serve-cli-{tag}-{}.sock", std::process::id()))
}

fn spawn_server_with(socket: &Path, extra: &[&str]) -> ServerGuard {
    let mut args = vec![
        "serve".to_string(),
        "--listen".to_string(),
        format!("unix:{}", socket.display()),
        "--workers".to_string(),
        "2".to_string(),
        "--cache".to_string(),
        "4".to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let child = Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cct serve");
    // The server prints 'serving on …' after binding; the socket file
    // appearing is the cross-process readiness signal.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound {socket:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    ServerGuard(child)
}

fn spawn_server(socket: &Path, accept_limit: u32) -> ServerGuard {
    spawn_server_with(socket, &["--accept-limit", &accept_limit.to_string()])
}

fn request(socket: &Path, args: &[&str]) -> Output {
    let mut full = vec![
        "request".to_string(),
        "--connect".to_string(),
        format!("unix:{}", socket.display()),
    ];
    full.extend(args.iter().map(|s| s.to_string()));
    Command::new(env!("CARGO_BIN_EXE_cct"))
        .args(&full)
        .output()
        .expect("spawn cct request")
}

#[test]
fn served_requests_replay_bit_identically() {
    let socket = socket_path("replay");
    let mut server = spawn_server(&socket, 3);
    let args = ["--graph", "petersen", "--seed", "7", "--count", "2"];
    let a = request(&socket, &args);
    let b = request(&socket, &args);
    let c = request(&socket, &["--graph", "complete:9", "--seed", "9"]);
    for (label, out) in [("a", &a), ("b", &b), ("c", &c)] {
        assert!(
            out.status.success(),
            "request {label} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // stdout (the trees) is the determinism contract: byte-identical
    // replays. stderr carries cache metadata and legitimately differs
    // (the second request is a cache hit).
    assert_eq!(a.stdout, b.stdout, "replay diverged");
    assert_eq!(
        String::from_utf8_lossy(&a.stdout).lines().count(),
        2,
        "two draws, two tree lines"
    );
    assert!(String::from_utf8_lossy(&a.stderr).contains("hit = false"));
    assert!(String::from_utf8_lossy(&b.stderr).contains("hit = true"));
    assert_ne!(a.stdout, c.stdout, "different graphs, different trees");
    // --accept-limit 3 reached: the server exits on its own.
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "server exited non-zero");
    assert!(!socket.exists(), "socket file cleaned up");
}

#[test]
fn served_draw_equals_the_cli_at_the_derived_seed() {
    // The documented cold-replay recipe, executed across real process
    // boundaries: draw 0 of master seed 7 must equal
    // `cct thm1 --graph petersen --seed machine_seed(7, 0)`.
    let socket = socket_path("derived");
    let _server = spawn_server(&socket, 1);
    let served = request(&socket, &["--graph", "petersen", "--seed", "7"]);
    assert!(served.status.success());
    let derived = cct::serve::machine_seed(7, 0);
    let cold = Command::new(env!("CARGO_BIN_EXE_cct"))
        .args([
            "thm1",
            "--graph",
            "petersen",
            "--seed",
            &derived.to_string(),
        ])
        .output()
        .expect("spawn cct thm1");
    assert!(cold.status.success());
    assert_eq!(
        served.stdout, cold.stdout,
        "served draw and cold CLI run disagree at the derived seed"
    );
}

#[test]
fn stats_and_shutdown_control_the_server() {
    // No accept limit: the server runs until asked to drain, so the
    // shutdown frame — not connection exhaustion — is what stops it.
    let socket = socket_path("control");
    let mut server = spawn_server_with(&socket, &[]);
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
    let stats = request(&socket, &["--stats"]);
    assert!(
        stats.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("\"thm1\""), "stats frame: {text}");
    assert!(text.contains("\"latency_us\""), "stats frame: {text}");
    let down = request(&socket, &["--shutdown"]);
    assert!(
        down.status.success(),
        "shutdown failed: {}",
        String::from_utf8_lossy(&down.stderr)
    );
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "server exited non-zero after drain");
    assert!(!socket.exists(), "socket file cleaned up after drain");
}

#[test]
fn bad_requests_exit_nonzero_with_the_server_message() {
    let socket = socket_path("errors");
    let _server = spawn_server(&socket, 3);
    // One edge naming vertex 10^11: refused by the size cap before the
    // graph would allocate adjacency for every vertex up to that id.
    let huge = std::env::temp_dir().join(format!("cct-serve-cli-huge-{}.el", std::process::id()));
    std::fs::write(&huge, "0 100000000000\n").unwrap();
    let huge_spec = format!("file:{}", huge.display());
    for spec in ["no-such-family:4", huge_spec.as_str()] {
        let bad_spec = request(&socket, &["--graph", spec]);
        assert!(!bad_spec.status.success());
        assert!(
            String::from_utf8_lossy(&bad_spec.stderr).contains("bad graph spec"),
            "stderr: {}",
            String::from_utf8_lossy(&bad_spec.stderr)
        );
    }
    std::fs::remove_file(&huge).unwrap();
    // The service survives the bad request and keeps serving.
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
}

#[test]
fn deeply_nested_frames_get_an_error_and_the_connection_keeps_serving() {
    use cct::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket = socket_path("deep");
    let mut server = spawn_server(&socket, 1);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut exchange = move |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        Json::parse(reply.trim_end()).expect("the server answered with a frame")
    };
    // One line of 200,000 nested arrays, a fifth of the frame cap: the
    // parser refuses it at its depth cap instead of recursing until the
    // server's stack overflows.
    let deep = exchange(&"[".repeat(200_000));
    assert_eq!(deep.get("ok"), Some(&Json::Bool(false)), "{deep:?}");
    let error = deep.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("nesting"), "error frame: {deep:?}");
    // The same connection still serves a valid request.
    let ok = exchange(r#"{"graph": "petersen", "seed": 7}"#);
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok:?}");
    drop(exchange); // closes the connection, the server's last
    let status = server.0.wait().expect("server exit");
    assert!(status.success(), "server exited non-zero");
}
