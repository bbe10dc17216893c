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
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The body is not valid JSON.
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

/// Writes one frame and flushes the transport. The length prefix and the
/// body go out as one buffer, so an unbuffered socket sees one `write`.
pub fn write_frame<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    let body = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    let bytes = body.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("refusing to send a {}-byte frame", bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
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
    let text = std::str::from_utf8(&buf[4..4 + len])
        .map_err(|e| FrameError::BadJson(e.to_string()))?;
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
        return Err(format!("unsupported rpc version {rpc:?}, expected {RPC_VERSION:?}"));
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
        assert!(matches!(
            read_frame(&mut &cut[..]),
            Err(FrameError::Io(_))
        ));
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
}
