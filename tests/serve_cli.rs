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
fn snapshot_restart_serves_the_same_trees_without_preparing() {
    // Two server processes on one snapshot file: the first serves a
    // key, then exits at its accept limit and writes the snapshot; the
    // second restores it and answers the same request from the cache.
    let socket = socket_path("snapshot");
    let snapshot =
        std::env::temp_dir().join(format!("cct-serve-cli-{}.snapshot", std::process::id()));
    let _ = std::fs::remove_file(&snapshot);
    let args = ["--graph", "er:64:0.2", "--seed", "7", "--count", "2"];
    let serve_once = || {
        let snapshot = snapshot.to_str().unwrap();
        let mut server =
            spawn_server_with(&socket, &["--snapshot", snapshot, "--accept-limit", "1"]);
        let out = request(&socket, &args);
        assert!(
            out.status.success(),
            "request failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let status = server.0.wait().expect("server exit");
        assert!(status.success(), "server exited non-zero");
        out
    };
    let cold = serve_once();
    assert!(String::from_utf8_lossy(&cold.stderr).contains("prepares = 1"));
    // The snapshot holds the key, not its matrices.
    let size = std::fs::metadata(&snapshot)
        .expect("snapshot written")
        .len();
    assert!(size < 1024, "snapshot is {size} bytes");
    let warm = serve_once();
    assert_eq!(warm.stdout, cold.stdout, "restored server drew other trees");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(
        stderr.contains("hit = true, prepares = 0"),
        "stderr: {stderr}"
    );
    std::fs::remove_file(&snapshot).unwrap();
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
    // One worker: a request that killed it would leave the final
    // petersen request without a reply.
    let _server = spawn_server_with(&socket, &["--accept-limit", "4", "--workers", "1"]);
    // One edge naming vertex 10^11, and a weight 10^300 times its
    // neighbour's: the service refuses `file:` specs before it opens
    // the file, so neither reaches the graph builder or the sampler.
    let huge = std::env::temp_dir().join(format!("cct-serve-cli-huge-{}.el", std::process::id()));
    std::fs::write(&huge, "0 100000000000\n").unwrap();
    let heavy = std::env::temp_dir().join(format!("cct-serve-cli-heavy-{}.el", std::process::id()));
    std::fs::write(&heavy, "0 1 1e300\n1 2 1\n").unwrap();
    let huge_spec = format!("file:{}", huge.display());
    let heavy_spec = format!("file:{}", heavy.display());
    for spec in ["no-such-family:4", &huge_spec, &heavy_spec] {
        let bad_spec = request(&socket, &["--graph", spec]);
        assert!(!bad_spec.status.success());
        assert!(
            String::from_utf8_lossy(&bad_spec.stderr).contains("bad graph spec"),
            "stderr: {}",
            String::from_utf8_lossy(&bad_spec.stderr)
        );
    }
    std::fs::remove_file(&huge).unwrap();
    std::fs::remove_file(&heavy).unwrap();
    // The service survives the bad requests and keeps serving.
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
}

#[test]
fn file_specs_are_refused_without_reading_the_file() {
    let socket = socket_path("file");
    let _server = spawn_server_with(&socket, &["--accept-limit", "2", "--workers", "1"]);
    // A server that parsed this file would quote its first token back
    // in the edge-list error.
    let secret = std::env::temp_dir().join(format!("cct-serve-cli-secret-{}", std::process::id()));
    std::fs::write(&secret, "secret-token-123 is not an edge\n").unwrap();
    let out = request(&socket, &["--graph", &format!("file:{}", secret.display())]);
    std::fs::remove_file(&secret).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("bad graph spec"), "stderr: {stderr}");
    assert!(!stderr.contains("secret-token-123"), "stderr: {stderr}");
    // The same worker then serves a generator spec.
    let ok = request(&socket, &["--graph", "petersen"]);
    assert!(ok.status.success());
}

#[test]
fn caps_follow_the_algorithm_and_the_worker_survives() {
    let socket = socket_path("caps");
    let _server = spawn_server_with(&socket, &["--accept-limit", "3", "--workers", "1"]);
    // MST replicates an n-word label array on each of n machines, so it
    // keeps the dense cap: cycle:20000 is an error frame, not 3.2 GB.
    let mst = request(&socket, &["--graph", "cycle:20000", "--algorithm", "mst"]);
    let stderr = String::from_utf8_lossy(&mst.stderr);
    assert!(!mst.status.success());
    assert!(stderr.contains("too large"), "stderr: {stderr}");
    // thm1 keeps a sparse input sparse, past the dense cap.
    let path = request(&socket, &["--graph", "path:20000", "--seed", "7"]);
    assert!(
        path.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&path.stderr)
    );
    let tree = String::from_utf8_lossy(&path.stdout);
    assert_eq!(tree.lines().count(), 1, "one draw, one tree line");
    assert_eq!(tree.split_whitespace().count(), 1 + 19_999, "n - 1 edges");
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
