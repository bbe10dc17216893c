//! The `minobs/rpc/v1` wire protocol: length-prefixed JSON frames.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON. Requests and responses share one versioned envelope:
//!
//! ```json
//! {"rpc": "minobs/rpc/v1", "id": 7, "method": "check_horizon", "params": {...}}
//! {"rpc": "minobs/rpc/v1", "id": 7, "ok": true, "result": {...}}
//! {"rpc": "minobs/rpc/v1", "id": 7, "ok": false,
//!  "error": {"code": "bad_params", "message": "..."}}
//! ```
//!
//! The `id` is chosen by the client and echoed verbatim; the daemon
//! answers frames on one connection in the order it received them.

use minobs_obs::TraceContext;
use serde_json::{Map, Value};
use std::io::{self, Read, Write};

/// Version tag carried by every request and response envelope.
pub const RPC_VERSION: &str = "minobs/rpc/v1";

/// Hard cap on one frame's JSON body, in bytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure (includes truncated frames at EOF).
    Io(io::Error),
    /// A length prefix read, or a body about to be sent, exceeds
    /// [`MAX_FRAME`].
    TooLarge(usize),
    /// The body is not valid JSON, or a value could not be encoded.
    BadJson(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::BadJson(e) => write!(f, "frame body is not JSON: {e}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Encodes one frame: the length prefix followed by the JSON body. A body
/// over [`MAX_FRAME`] is refused with [`FrameError::TooLarge`].
pub fn encode_frame(value: &Value) -> Result<Vec<u8>, FrameError> {
    let body = serde_json::to_string(value).map_err(|e| FrameError::BadJson(format!("{e:?}")))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(bytes.len()));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Writes one frame and flushes the transport. The length prefix and the
/// body go out as one buffer, so an unbuffered socket sees one `write`.
pub fn write_frame<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    let frame = encode_frame(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame from a blocking transport. Returns `Ok(None)` on a
/// clean EOF at a frame boundary; EOF mid-frame is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Value>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame body",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let text = String::from_utf8(body).map_err(|e| FrameError::BadJson(e.to_string()))?;
    let value = serde_json::from_str(&text).map_err(|e| FrameError::BadJson(format!("{e:?}")))?;
    Ok(Some(value))
}

/// Attempts to split one complete frame off the front of `buf`. Returns
/// the decoded value and the number of bytes consumed, or `None` when the
/// buffer does not yet hold a whole frame.
pub fn try_parse_frame(buf: &[u8]) -> Result<Option<(Value, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let text =
        std::str::from_utf8(&buf[4..4 + len]).map_err(|e| FrameError::BadJson(e.to_string()))?;
    let value = serde_json::from_str(text).map_err(|e| FrameError::BadJson(format!("{e:?}")))?;
    Ok(Some((value, 4 + len)))
}

/// A decoded request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Method name.
    pub method: String,
    /// Method parameters (an object, or `Null` when omitted).
    pub params: Value,
    /// Distributed trace context, when the caller sent the additive
    /// optional `ctx` envelope field. Malformed contexts read as `None`
    /// rather than failing the request.
    pub ctx: Option<TraceContext>,
}

/// Validates and decodes a request envelope.
pub fn parse_request(value: &Value) -> Result<Request, String> {
    let rpc = value
        .get("rpc")
        .and_then(Value::as_str)
        .ok_or("missing \"rpc\" version field")?;
    if rpc != RPC_VERSION {
        return Err(format!(
            "unsupported rpc version {rpc:?}, expected {RPC_VERSION:?}"
        ));
    }
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("missing or non-integer \"id\"")?;
    let method = value
        .get("method")
        .and_then(Value::as_str)
        .ok_or("missing \"method\"")?
        .to_string();
    let params = value.get("params").cloned().unwrap_or(Value::Null);
    let ctx = value.get("ctx").and_then(TraceContext::from_json);
    Ok(Request {
        id,
        method,
        params,
        ctx,
    })
}

/// Builds a request envelope.
pub fn request(id: u64, method: &str, params: Value) -> Value {
    let mut map = Map::new();
    map.insert("rpc".to_string(), Value::from(RPC_VERSION));
    map.insert("id".to_string(), Value::from(id));
    map.insert("method".to_string(), Value::from(method));
    map.insert("params".to_string(), params);
    Value::Object(map)
}

/// Builds a request envelope carrying a distributed trace context.
pub fn request_with_ctx(id: u64, method: &str, params: Value, ctx: &TraceContext) -> Value {
    let mut value = request(id, method, params);
    if let Value::Object(map) = &mut value {
        map.insert("ctx".to_string(), ctx.to_json());
    }
    value
}

/// Builds a success response envelope.
pub fn ok_response(id: u64, result: Value) -> Value {
    let mut map = Map::new();
    map.insert("rpc".to_string(), Value::from(RPC_VERSION));
    map.insert("id".to_string(), Value::from(id));
    map.insert("ok".to_string(), Value::from(true));
    map.insert("result".to_string(), result);
    Value::Object(map)
}

/// Builds an error response envelope.
pub fn err_response(id: u64, code: &str, message: &str) -> Value {
    let mut error = Map::new();
    error.insert("code".to_string(), Value::from(code));
    error.insert("message".to_string(), Value::from(message));
    let mut map = Map::new();
    map.insert("rpc".to_string(), Value::from(RPC_VERSION));
    map.insert("id".to_string(), Value::from(id));
    map.insert("ok".to_string(), Value::from(false));
    map.insert("error".to_string(), Value::Object(error));
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let value = request(3, "stats", Value::Null);
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(serde_json::to_string(&back), serde_json::to_string(&value));
        // Clean EOF after a complete frame.
        let mut two = buf.clone();
        two.extend(&buf);
        let mut cursor = two.as_slice();
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_some());
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn try_parse_waits_for_a_complete_frame() {
        let value = ok_response(1, Value::from(true));
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        for cut in 0..buf.len() {
            assert!(try_parse_frame(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (parsed, consumed) = try_parse_frame(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(parsed.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn truncated_frames_and_oversize_prefixes_error() {
        let value = request(1, "stats", Value::Null);
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let cut = &buf[..buf.len() - 1];
        assert!(matches!(read_frame(&mut &cut[..]), Err(FrameError::Io(_))));
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(FrameError::TooLarge(_))
        ));
        assert!(matches!(
            try_parse_frame(&huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn request_envelope_validation() {
        let good = request(9, "solvable", Value::Null);
        let parsed = parse_request(&good).unwrap();
        assert_eq!(parsed.id, 9);
        assert_eq!(parsed.method, "solvable");
        assert!(parsed.params.is_null());
        assert_eq!(parsed.ctx, None);

        let mut bad = Map::new();
        bad.insert("rpc".to_string(), Value::from("minobs/rpc/v0"));
        bad.insert("id".to_string(), Value::from(1u64));
        bad.insert("method".to_string(), Value::from("stats"));
        assert!(parse_request(&Value::Object(bad)).is_err());
    }

    #[test]
    fn ctx_round_trips_through_the_envelope() {
        let ctx = TraceContext {
            trace_id: 0xdead_beef,
            parent_span: Some(11),
        };
        let framed = request_with_ctx(3, "check_horizon", Value::Null, &ctx);
        let parsed = parse_request(&framed).unwrap();
        assert_eq!(parsed.ctx, Some(ctx));
        assert_eq!(parsed.method, "check_horizon");
    }

    #[test]
    fn malformed_ctx_is_ignored_not_fatal() {
        let mut value = request(5, "stats", Value::Null);
        if let Value::Object(map) = &mut value {
            map.insert("ctx".to_string(), Value::from("not-an-object"));
        }
        let parsed = parse_request(&value).unwrap();
        assert_eq!(parsed.id, 5);
        assert_eq!(parsed.ctx, None, "bad ctx must not fail the request");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestRng;

        const CHARS: &[char] = &['a', 's', '1', ' ', '"', '\\', '\n', '\u{0}', 'é', '😀'];
        const KEYS: &[&str] = &[
            "rpc", "id", "method", "params", "ctx", "scheme", "horizon", "trace_id", "",
        ];
        const WORDS: &[&str] = &[
            RPC_VERSION,
            "minobs/rpc/v0",
            "check_horizon",
            "stats",
            "s1",
            "r1",
            "0af7651916cd43dd8448eb211c80319c",
            "00000000000000000000000000000000",
            "",
        ];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.below(from.len() as u64) as usize]
        }

        fn draw_value(rng: &mut TestRng, depth: u32) -> Value {
            match rng.below(if depth == 0 { 7 } else { 9 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::from(rng.next_u64() >> rng.below(64)),
                3 => Value::from(-(rng.below(1 << 40) as i64) - 1),
                4 => Value::from(rng.below(1 << 20) as f64 / 8.0),
                5 => Value::from(pick(rng, WORDS)),
                6 => Value::String((0..rng.below(6)).map(|_| pick(rng, CHARS)).collect()),
                7 => Value::Array(
                    (0..rng.below(4))
                        .map(|_| draw_value(rng, depth - 1))
                        .collect(),
                ),
                _ => Value::Object(draw_object(rng, depth - 1)),
            }
        }

        fn draw_object(rng: &mut TestRng, depth: u32) -> Map {
            let mut map = Map::new();
            for _ in 0..rng.below(6) {
                map.insert(pick(rng, KEYS).to_string(), draw_value(rng, depth));
            }
            map
        }

        /// Envelope-shaped values: each envelope field usually present
        /// and well typed, sometimes missing or arbitrary.
        struct EnvelopeShaped;

        impl Strategy for EnvelopeShaped {
            type Value = Value;
            fn generate(&self, rng: &mut TestRng) -> Value {
                if rng.below(16) == 0 {
                    return draw_value(rng, 2);
                }
                let mut map = draw_object(rng, 2);
                let fields: [(&str, Value); 5] = [
                    ("rpc", Value::from(RPC_VERSION)),
                    ("id", Value::from(rng.next_u64() >> rng.below(64))),
                    ("method", Value::from(pick(rng, WORDS))),
                    ("params", draw_value(rng, 2)),
                    ("ctx", TraceContext::root().child(rng.next_u64()).to_json()),
                ];
                for (key, value) in fields {
                    match rng.below(6) {
                        0 => {}
                        1 => map.insert(key.to_string(), draw_value(rng, 1)),
                        _ => map.insert(key.to_string(), value),
                    }
                }
                Value::Object(map)
            }
        }

        /// Byte streams: a few valid request frames, concatenated and
        /// then damaged; or raw bytes behind a plausible length prefix.
        struct FrameBytes;

        impl Strategy for FrameBytes {
            type Value = Vec<u8>;
            fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
                let mut bytes = Vec::new();
                if rng.below(4) == 0 {
                    let len = rng.below(48);
                    if rng.below(2) == 1 {
                        bytes.extend_from_slice(&(len as u32).to_be_bytes());
                    }
                    bytes.extend((0..len).map(|_| rng.next_u64() as u8));
                    return bytes;
                }
                for _ in 0..1 + rng.below(3) {
                    let value = EnvelopeShaped.generate(rng);
                    bytes.extend(encode_frame(&value).unwrap());
                }
                for _ in 0..rng.below(3) {
                    damage(&mut bytes, rng);
                }
                bytes
            }
        }

        /// Truncates, flips a byte, inserts bytes, deletes a span or
        /// rewrites a length prefix.
        fn damage(bytes: &mut Vec<u8>, rng: &mut TestRng) {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            match rng.below(5) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                2 => {
                    let noise: Vec<u8> = (0..1 + rng.below(4))
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    bytes.splice(at..at, noise);
                }
                3 => {
                    let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
                    bytes.drain(at..end);
                }
                _ if bytes.len() >= 4 => {
                    let len = rng.below(bytes.len() as u64 + 8) as u32;
                    bytes[..4].copy_from_slice(&len.to_be_bytes());
                }
                _ => {}
            }
        }

        /// Splits frames off `bytes` as a connection does: every step
        /// waits for more input, or consumes a frame it then parses as
        /// a request, or ends in a typed error. Nothing panics.
        fn frames_split_cleanly(bytes: &[u8]) {
            let mut rest = bytes;
            loop {
                match try_parse_frame(rest) {
                    Ok(None) => break,
                    Ok(Some((value, consumed))) => {
                        prop_assert!((4..=rest.len()).contains(&consumed));
                        requests_parse_cleanly(&value);
                        rest = &rest[consumed..];
                    }
                    Err(err) => {
                        prop_assert!(!err.to_string().is_empty());
                        break;
                    }
                }
            }
        }

        /// `parse_request` accepts exactly the values with the current
        /// version, an integer id and a string method, and echoes them.
        fn requests_parse_cleanly(value: &Value) {
            let well_formed = value.get("rpc").and_then(Value::as_str) == Some(RPC_VERSION)
                && value.get("id").and_then(Value::as_u64).is_some()
                && value.get("method").and_then(Value::as_str).is_some();
            match parse_request(value) {
                Ok(request) => {
                    prop_assert!(well_formed, "accepted {value:?}");
                    prop_assert_eq!(Some(request.id), value.get("id").and_then(Value::as_u64));
                    prop_assert_eq!(
                        Some(request.method.as_str()),
                        value.get("method").and_then(Value::as_str)
                    );
                    prop_assert_eq!(
                        request.ctx,
                        value.get("ctx").and_then(TraceContext::from_json)
                    );
                }
                Err(message) => prop_assert!(!well_formed && !message.is_empty(), "{message}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn damaged_and_cut_frame_streams_split_or_error(bytes in FrameBytes, cut in any::<u64>()) {
                frames_split_cleanly(&bytes);
                frames_split_cleanly(&bytes[..(cut % (bytes.len() as u64 + 1)) as usize]);
            }

            #[test]
            fn envelope_shaped_values_parse_or_error(value in EnvelopeShaped) {
                requests_parse_cleanly(&value);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(100_000))]

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_damaged_frame_streams(bytes in FrameBytes, cut in any::<u64>()) {
                frames_split_cleanly(&bytes);
                frames_split_cleanly(&bytes[..(cut % (bytes.len() as u64 + 1)) as usize]);
            }

            #[test]
            #[ignore = "long sweep; run with -- --ignored"]
            fn sweep_envelope_shaped_values(value in EnvelopeShaped) {
                requests_parse_cleanly(&value);
            }
        }
    }
}
