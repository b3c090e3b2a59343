//! The service's request type and its wire encoding.
//!
//! A [`SampleRequest`] names a graph (by spec string), a phase sampler,
//! a master seed, and a draw count. On the wire it is one line of JSON:
//!
//! ```json
//! {"graph": "petersen", "algorithm": "thm1", "seed": 7, "count": 2}
//! ```
//!
//! `algorithm`, `seed`, and `count` are optional (defaults `thm1`, `0`,
//! `1`); `graph` is required; unknown fields are rejected so typos fail
//! loudly instead of silently falling back to defaults. Seeds round-trip
//! at full `u64` range: numbers up to `2^53`, decimal strings above
//! (see [`cct_json::Json::from_u64`]).
//!
//! # Determinism contract
//!
//! A request denotes a *pure computation*: the graph is built from the
//! spec with an RNG seeded by [`spec_seed`] (a function of the spec
//! string alone), and draw `i` samples with a fresh RNG seeded by
//! [`SampleRequest::draw_seed`]`(i)` = `machine_seed(seed, i)`. Neither
//! depends on worker interleaving, cache state, or arrival order, so the
//! served trees and ledgers are byte-identical to a cold
//! single-threaded `CliqueTreeSampler` run at the same derived seeds.

use cct_json::Json;
use cct_sim::machine_seed;

/// Largest `count` a single request may ask for; bigger batches should
/// be split so one job cannot monopolize a worker forever.
pub const MAX_COUNT: u32 = 4096;

/// Longest accepted `graph` spec string (bounds the cache key size).
pub const MAX_SPEC_LEN: usize = 256;

/// Domain separator for [`spec_seed`] (distinct from every per-draw
/// stream, which hashes the request's master seed instead).
const SPEC_STREAM: u64 = 0x6363_745f_7370_6563; // b"cct_spec"

/// Which engine serves the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    /// Theorem 1's `Õ(n^{1/2+α})`-round Monte Carlo sampler (default).
    Thm1,
    /// The Appendix's exact `Õ(n^{2/3+α})` Las Vegas variant.
    Exact,
    /// The deterministic Borůvka minimum-spanning-tree engine: `seed`
    /// is ignored, every draw is the same tree.
    Mst,
}

impl Algorithm {
    /// All algorithms, for iteration.
    pub const ALL: [Algorithm; 3] = [Algorithm::Thm1, Algorithm::Exact, Algorithm::Mst];

    /// The wire name (`thm1` / `exact` / `mst`).
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Thm1 => "thm1",
            Algorithm::Exact => "exact",
            Algorithm::Mst => "mst",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "thm1" => Some(Algorithm::Thm1),
            "exact" => Some(Algorithm::Exact),
            "mst" => Some(Algorithm::Mst),
            _ => None,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A malformed request frame (bad JSON, wrong types, unknown fields,
/// out-of-range values). Carried back to the client as a structured
/// `{"ok": false, "error": …}` response, never as a disconnect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    message: String,
}

impl ProtocolError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One batched sampling job: `count` spanning-tree draws of the graph
/// `graph_spec` describes, under `algorithm`, with per-draw RNG streams
/// derived from `seed`.
///
/// # Examples
///
/// ```
/// use cct_serve::SampleRequest;
///
/// let req = SampleRequest::new("petersen").seed(7).count(2);
/// let line = req.to_json().compact();
/// assert_eq!(SampleRequest::parse_line(&line), Ok(req));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SampleRequest {
    /// The graph, as a [`cct_graph::spec`] string (`petersen`,
    /// `er:64:0.2`, …). Randomized families denote one fixed graph: the
    /// generator RNG is seeded by [`spec_seed`] of this string.
    pub graph_spec: String,
    /// Which phase sampler to run.
    pub algorithm: Algorithm,
    /// Master seed; draw `i` uses the derived stream
    /// [`SampleRequest::draw_seed`]`(i)`.
    pub seed: u64,
    /// How many trees to draw (1 ..= [`MAX_COUNT`]).
    pub count: u32,
}

impl SampleRequest {
    /// A one-draw `thm1` request at seed 0 for the given graph spec.
    pub fn new(graph_spec: impl Into<String>) -> Self {
        SampleRequest {
            graph_spec: graph_spec.into(),
            algorithm: Algorithm::Thm1,
            seed: 0,
            count: 1,
        }
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the draw count.
    pub fn count(mut self, count: u32) -> Self {
        self.count = count;
        self
    }

    /// The derived RNG seed of draw `draw` (0-based): the SplitMix64
    /// hash `machine_seed(seed, draw)`. Seeding `StdRng` with this and
    /// running a cold [`cct_core::CliqueTreeSampler`] on the request's
    /// graph reproduces the served draw bit for bit.
    pub fn draw_seed(&self, draw: u32) -> u64 {
        machine_seed(self.seed, u64::from(draw))
    }

    /// Checks the request's value ranges (spec length, count bounds) —
    /// run by the service on every path, including in-process requests
    /// that never touched JSON.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] describing the first violated bound.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if self.graph_spec.is_empty() {
            return Err(ProtocolError::new("'graph' must not be empty"));
        }
        if self.graph_spec.len() > MAX_SPEC_LEN {
            return Err(ProtocolError::new(format!(
                "'graph' spec is {} bytes, max {MAX_SPEC_LEN}",
                self.graph_spec.len()
            )));
        }
        if self.count == 0 || self.count > MAX_COUNT {
            return Err(ProtocolError::new(format!(
                "'count' must be in 1..={MAX_COUNT}, got {}",
                self.count
            )));
        }
        Ok(())
    }

    /// The request's wire value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("graph".into(), Json::Str(self.graph_spec.clone())),
            (
                "algorithm".into(),
                Json::Str(self.algorithm.as_str().into()),
            ),
            ("seed".into(), Json::from_u64(self.seed)),
            ("count".into(), Json::Num(f64::from(self.count))),
        ])
    }

    /// Decodes and validates a wire value.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for non-objects, unknown or mistyped fields, a
    /// missing `graph`, and out-of-range `seed`/`count`.
    pub fn from_json(value: &Json) -> Result<Self, ProtocolError> {
        let fields = match value {
            Json::Obj(fields) => fields,
            other => {
                return Err(ProtocolError::new(format!(
                    "request must be a JSON object, got {}",
                    kind(other)
                )))
            }
        };
        let mut graph: Option<String> = None;
        let mut algorithm = Algorithm::Thm1;
        let mut seed = 0u64;
        let mut count = 1u32;
        for (key, v) in fields {
            match key.as_str() {
                "graph" => {
                    graph = Some(
                        v.as_str()
                            .ok_or_else(|| ProtocolError::new("'graph' must be a string"))?
                            .to_string(),
                    );
                }
                "algorithm" => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| ProtocolError::new("'algorithm' must be a string"))?;
                    algorithm = Algorithm::parse(name).ok_or_else(|| {
                        ProtocolError::new(format!(
                            "unknown algorithm '{name}' (expected thm1, exact, or mst)"
                        ))
                    })?;
                }
                "seed" => {
                    seed = v.as_u64().ok_or_else(|| {
                        ProtocolError::new(
                            "'seed' must be a non-negative integer \
                             (≤ 2^53 as a number, or a decimal string)",
                        )
                    })?;
                }
                "count" => {
                    let c = v
                        .as_u64()
                        .ok_or_else(|| ProtocolError::new("'count' must be a positive integer"))?;
                    count = u32::try_from(c).map_err(|_| {
                        ProtocolError::new(format!("'count' must be in 1..={MAX_COUNT}, got {c}"))
                    })?;
                }
                other => {
                    return Err(ProtocolError::new(format!(
                        "unknown request field '{other}'"
                    )))
                }
            }
        }
        let graph = graph.ok_or_else(|| ProtocolError::new("missing required field 'graph'"))?;
        let built = SampleRequest {
            graph_spec: graph,
            algorithm,
            seed,
            count,
        };
        built.validate()?;
        Ok(built)
    }

    /// Parses one wire line (strict JSON; trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for syntax errors and everything
    /// [`SampleRequest::from_json`] rejects.
    pub fn parse_line(line: &str) -> Result<Self, ProtocolError> {
        let value = Json::parse(line).map_err(ProtocolError::new)?;
        SampleRequest::from_json(&value)
    }
}

/// An operational command frame — `{"cmd": "stats"}` and friends —
/// dispatched before [`SampleRequest`] parsing (which rejects unknown
/// fields) so control traffic shares the sampling connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlCommand {
    /// Return the service's observability counters
    /// ([`crate::ServeStats`] rendered as one frame).
    Stats,
    /// Write the prepared-cache snapshot to the server's configured
    /// snapshot path now.
    Snapshot,
    /// Begin a graceful drain: stop accepting connections, flush every
    /// in-flight reply, then exit.
    Shutdown,
}

impl ControlCommand {
    /// The wire name (`stats` / `snapshot` / `shutdown`).
    pub fn as_str(self) -> &'static str {
        match self {
            ControlCommand::Stats => "stats",
            ControlCommand::Snapshot => "snapshot",
            ControlCommand::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<ControlCommand> {
        match s {
            "stats" => Some(ControlCommand::Stats),
            "snapshot" => Some(ControlCommand::Snapshot),
            "shutdown" => Some(ControlCommand::Shutdown),
            _ => None,
        }
    }

    /// The command's wire value: `{"cmd": <name>}`.
    pub fn to_json(self) -> Json {
        Json::Obj(vec![("cmd".into(), Json::Str(self.as_str().into()))])
    }
}

impl std::fmt::Display for ControlCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Any frame a client may send: a sampling request or a control
/// command. An object carrying a `cmd` field is a command (and must
/// carry nothing else); everything else parses as a [`SampleRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// A batched sampling job.
    Sample(SampleRequest),
    /// An operational command.
    Control(ControlCommand),
}

impl WireFrame {
    /// Decodes a wire value.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for unknown commands, commands with extra
    /// fields, and everything [`SampleRequest::from_json`] rejects.
    pub fn from_json(value: &Json) -> Result<Self, ProtocolError> {
        if let Json::Obj(fields) = value {
            if let Some((_, cmd)) = fields.iter().find(|(k, _)| k == "cmd") {
                let name = cmd
                    .as_str()
                    .ok_or_else(|| ProtocolError::new("'cmd' must be a string"))?;
                let command = ControlCommand::parse(name).ok_or_else(|| {
                    ProtocolError::new(format!(
                        "unknown command '{name}' (expected stats, snapshot, or shutdown)"
                    ))
                })?;
                if fields.len() > 1 {
                    return Err(ProtocolError::new(
                        "command frames carry only the 'cmd' field",
                    ));
                }
                return Ok(WireFrame::Control(command));
            }
        }
        SampleRequest::from_json(value).map(WireFrame::Sample)
    }

    /// Parses one wire line (strict JSON; trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// As [`WireFrame::from_json`], plus JSON syntax errors.
    pub fn parse_line(line: &str) -> Result<Self, ProtocolError> {
        let value = Json::parse(line).map_err(ProtocolError::new)?;
        WireFrame::from_json(&value)
    }
}

/// The seed of the generator RNG behind a graph spec: FNV-1a over the
/// spec bytes, finalized through the workspace's SplitMix64
/// [`machine_seed`] hash. A pure function of the string, so a spec
/// denotes one fixed graph — the invariant the service's cache key
/// (algorithm, spec) relies on, and what clients replay for cold
/// verification.
///
/// # Examples
///
/// ```
/// use cct_serve::spec_seed;
///
/// assert_eq!(spec_seed("er:64:0.2"), spec_seed("er:64:0.2"));
/// assert_ne!(spec_seed("er:64:0.2"), spec_seed("er:64:0.3"));
/// ```
pub fn spec_seed(spec: &str) -> u64 {
    machine_seed(SPEC_STREAM, fnv64(spec.as_bytes()))
}

/// FNV-1a over a byte slice — behind [`spec_seed`], and the snapshot
/// file's checksum.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn kind(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let r = SampleRequest::new("petersen");
        assert_eq!(r.algorithm, Algorithm::Thm1);
        assert_eq!(r.seed, 0);
        assert_eq!(r.count, 1);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn wire_roundtrip_all_fields() {
        let r = SampleRequest::new("er:64:0.2")
            .algorithm(Algorithm::Exact)
            .seed(u64::MAX)
            .count(17);
        let parsed = SampleRequest::parse_line(&r.to_json().compact()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn mst_parses_and_roundtrips() {
        let r = SampleRequest::new("grid-w:3x3")
            .algorithm(Algorithm::Mst)
            .count(3);
        let parsed = SampleRequest::parse_line(&r.to_json().compact()).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(Algorithm::parse("mst"), Some(Algorithm::Mst));
        assert_eq!(Algorithm::Mst.as_str(), "mst");
        assert_eq!(Algorithm::ALL.len(), 3);
    }

    #[test]
    fn optional_fields_default() {
        let r = SampleRequest::parse_line(r#"{"graph": "petersen"}"#).unwrap();
        assert_eq!(r, SampleRequest::new("petersen"));
    }

    #[test]
    fn malformed_frames_rejected_with_messages() {
        for (line, needle) in [
            ("", "unexpected end"),
            ("[1]", "must be a JSON object"),
            (r#"{"algorithm": "thm1"}"#, "missing required field 'graph'"),
            (r#"{"graph": 3}"#, "'graph' must be a string"),
            (r#"{"graph": "k", "alg": "thm1"}"#, "unknown request field"),
            (
                r#"{"graph": "k", "precision": "f64"}"#,
                "unknown request field",
            ),
            (
                r#"{"graph": "k", "backend": "sparse"}"#,
                "unknown request field",
            ),
            (
                r#"{"graph": "k", "algorithm": "dijkstra"}"#,
                "unknown algorithm",
            ),
            (r#"{"graph": "k", "seed": -1}"#, "'seed'"),
            (r#"{"graph": "k", "seed": 1.5}"#, "'seed'"),
            (r#"{"graph": "k", "count": 0}"#, "'count'"),
            (r#"{"graph": "k", "count": 1e12}"#, "'count'"),
            (r#"{"graph": ""}"#, "must not be empty"),
            (r#"{"graph": "k"} extra"#, "trailing garbage"),
        ] {
            let err = SampleRequest::parse_line(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{line:?}: got {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn overlong_spec_rejected() {
        let r = SampleRequest::new("x".repeat(MAX_SPEC_LEN + 1));
        assert!(r.validate().is_err());
    }

    #[test]
    fn control_frames_parse_and_reject() {
        for (line, want) in [
            (r#"{"cmd": "stats"}"#, ControlCommand::Stats),
            (r#"{"cmd": "snapshot"}"#, ControlCommand::Snapshot),
            (r#"{"cmd": "shutdown"}"#, ControlCommand::Shutdown),
        ] {
            assert_eq!(
                WireFrame::parse_line(line),
                Ok(WireFrame::Control(want)),
                "{line}"
            );
            assert_eq!(
                WireFrame::parse_line(&want.to_json().compact()),
                Ok(WireFrame::Control(want))
            );
        }
        // Non-command objects still parse as sampling requests.
        assert_eq!(
            WireFrame::parse_line(r#"{"graph": "petersen"}"#),
            Ok(WireFrame::Sample(SampleRequest::new("petersen")))
        );
        for (line, needle) in [
            (r#"{"cmd": "reboot"}"#, "unknown command"),
            (r#"{"cmd": 7}"#, "'cmd' must be a string"),
            (r#"{"cmd": "stats", "x": 1}"#, "only the 'cmd' field"),
        ] {
            let err = WireFrame::parse_line(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn draw_seeds_are_machine_seed_streams() {
        let r = SampleRequest::new("petersen").seed(7);
        assert_eq!(r.draw_seed(0), machine_seed(7, 0));
        assert_eq!(r.draw_seed(3), machine_seed(7, 3));
        assert_ne!(r.draw_seed(0), r.draw_seed(1));
    }
}
