//! Property tests of the wire protocol.
//!
//! * Round-trip: any valid [`SampleRequest`] survives
//!   serialize → parse → serialize as a fixed point (both compact and
//!   pretty framing), at full `u64` seed range and through hostile
//!   spec strings (quotes, backslashes, control characters, unicode).
//! * Robustness: arbitrary malformed frames — byte soup, valid JSON of
//!   the wrong shape, valid requests with trailing garbage, arrays or
//!   objects nested far past the parser's depth cap — produce a
//!   structured `{"ok": false, "error": …}` response on the same
//!   connection, never a disconnect, a panic or a stack overflow, and
//!   the connection keeps serving afterwards.

use cct_core::{EngineChoice, SamplerConfig, WalkLength};
use cct_json::Json;
use cct_serve::{serve, serve_connection, Algorithm, SampleRequest, ServeOptions, MAX_COUNT};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters deliberately chosen to stress JSON escaping and the
/// spec parser's error paths.
const SPEC_CHARS: [char; 20] = [
    'a', 'z', 'A', '0', '9', ':', '.', '-', 'x', '_', ' ', '"', '\\', '\n', '\t', '\u{1}', 'π',
    '∅', '{', '[',
];

fn arb_spec() -> impl Strategy<Value = String> {
    vec(0usize..SPEC_CHARS.len(), 1..32)
        .prop_map(|idx| idx.into_iter().map(|i| SPEC_CHARS[i]).collect())
}

fn arb_request() -> impl Strategy<Value = SampleRequest> {
    (arb_spec(), 0usize..2, any::<u64>(), 1u32..=MAX_COUNT).prop_map(
        |(graph_spec, alg, seed, count)| {
            SampleRequest::new(graph_spec)
                .algorithm(Algorithm::ALL[alg])
                .seed(seed)
                .count(count)
        },
    )
}

/// A line of near-arbitrary bytes (newlines remapped so the value
/// stays a single frame).
fn arb_junk_line() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..64).prop_map(|bytes| {
        let cleaned: Vec<u8> = bytes
            .into_iter()
            .map(|b| if b == b'\n' || b == b'\r' { b'.' } else { b })
            .collect();
        String::from_utf8_lossy(&cleaned).into_owned()
    })
}

/// A line that opens 129 to 200,000 arrays or objects: past the JSON
/// parser's 128-level cap, and at the top still within `MAX_FRAME_LEN`.
fn arb_deep_line() -> impl Strategy<Value = String> {
    (prop_oneof![Just("["), Just(r#"{"a":"#)], 129usize..=200_000)
        .prop_map(|(open, depth)| open.repeat(depth))
}

/// Either kind of malformed frame.
fn arb_malformed_line() -> impl Strategy<Value = String> {
    prop_oneof![arb_junk_line(), arb_deep_line()]
}

fn tiny_service_options() -> ServeOptions {
    ServeOptions::new().workers(1).cache_capacity(2).config(
        Algorithm::Thm1,
        SamplerConfig::new()
            .walk_length(WalkLength::ScaledCubic { factor: 4.0 })
            .engine(EngineChoice::UnitCost),
    )
}

/// Feeds `lines` to one connection of a fresh single-worker service and
/// returns the parsed response frames (one per non-blank line, or the
/// test fails).
fn answers_for(lines: &[String]) -> Vec<Json> {
    let input = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let mut out: Vec<u8> = Vec::new();
    serve(tiny_service_options(), |handle| {
        serve_connection(input.as_bytes(), &mut out, &handle).expect("in-memory I/O");
    });
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(|l| Json::parse(l).expect("every response line is valid JSON"))
        .collect()
}

proptest! {
    #[test]
    fn request_roundtrip_is_a_fixed_point(request in arb_request()) {
        let line = request.to_json().compact();
        let parsed = SampleRequest::parse_line(&line).expect("own output parses");
        prop_assert_eq!(&parsed, &request);
        // Fixed point at the byte level: parse → serialize is stable.
        prop_assert_eq!(parsed.to_json().compact(), line);
        // Pretty framing parses to the same request too.
        let pretty = request.to_json().pretty();
        prop_assert_eq!(SampleRequest::parse_line(pretty.trim_end()).unwrap(), request);
    }

    #[test]
    fn trailing_garbage_is_rejected(request in arb_request(), junk in arb_junk_line()) {
        let line = format!("{} {}", request.to_json().compact(), junk.trim());
        if !junk.trim().is_empty() {
            prop_assert!(SampleRequest::parse_line(&line).is_err());
        }
    }

    #[test]
    fn junk_frames_never_panic_the_parser(line in arb_malformed_line()) {
        // Either outcome is fine; panicking or hanging is not.
        let _ = SampleRequest::parse_line(&line);
    }

    #[test]
    fn connections_survive_malformed_frames(junk in arb_malformed_line()) {
        // junk frame, then a valid-but-unservable request, then a
        // serveable one: three structured answers on one connection.
        let valid = SampleRequest::new("complete:4").seed(1).to_json().compact();
        let unservable = r#"{"graph": "complete:0"}"#.to_string();
        let lines = vec![junk.clone(), unservable, valid];
        let answers = answers_for(&lines);
        let junk_is_blank = junk.trim().is_empty();
        prop_assert_eq!(answers.len(), if junk_is_blank { 2 } else { 3 });
        let mut it = answers.into_iter();
        if !junk_is_blank {
            let first = it.next().unwrap();
            // Almost always an error; on the astronomically unlikely
            // chance the junk parsed as a request, it must still be a
            // structured frame with "ok".
            prop_assert!(matches!(first.get("ok"), Some(Json::Bool(_))));
            if first.get("ok") == Some(&Json::Bool(false)) {
                prop_assert!(first.get("error").unwrap().as_str().is_some());
            }
        }
        let second = it.next().unwrap();
        prop_assert_eq!(second.get("ok"), Some(&Json::Bool(false)));
        prop_assert!(second
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bad graph spec"));
        let third = it.next().unwrap();
        prop_assert_eq!(third.get("ok"), Some(&Json::Bool(true)));
        prop_assert_eq!(third.get("draws").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn response_frames_reparse_to_themselves(seed in any::<u64>(), count in 1u32..4) {
        // The response side of the fixed-point property: the served
        // frame reparses to the identical Json value, compact and
        // pretty.
        let request = SampleRequest::new("complete:4").seed(seed).count(count);
        let frame = serve(tiny_service_options(), |handle| {
            handle.request(request).unwrap().to_json()
        });
        prop_assert_eq!(Json::parse(&frame.compact()).unwrap(), frame.clone());
        prop_assert_eq!(Json::parse(&frame.pretty()).unwrap(), frame);
    }
}
