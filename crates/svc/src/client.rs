//! A blocking client for the daemon's wire protocol.
//!
//! One [`SvcClient`] owns one TCP connection; calls are synchronous and
//! the daemon answers a connection's requests in order, so a client is
//! safe to use from one thread at a time (clone-per-thread for load).
//!
//! Every daemon method is idempotent — verdicts are immutable theorems,
//! so asking twice cannot change an answer — which makes blind retry
//! safe. [`SvcClient::call_with`] exploits that: transport
//! failures and `busy` rejections reconnect and retry under exponential
//! backoff with deterministic jitter, capped by a [`RetryPolicy`]
//! budget. Definitive RPC errors (`bad_params`, `unsupported`, …) are
//! never retried.

use crate::wire::{self, FrameError, RPC_VERSION};
use minobs_obs::TraceContext;
use serde_json::Value;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a call failed.
#[derive(Debug)]
pub enum SvcError {
    /// Transport failure (including a connection closed mid-response).
    Io(io::Error),
    /// The daemon refused the connection at its concurrency cap; safe to
    /// retry after a backoff.
    Busy(String),
    /// The daemon answered with something that is not a valid response.
    Protocol(String),
    /// The daemon answered with a method-level error.
    Rpc {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable explanation.
        message: String,
    },
}

impl SvcError {
    /// Whether retrying the same call can help: transport failures and
    /// `busy` rejections are transient, everything else is definitive.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SvcError::Io(_) | SvcError::Busy(_))
    }
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Io(e) => write!(f, "i/o error: {e}"),
            SvcError::Busy(m) => write!(f, "daemon busy: {m}"),
            SvcError::Protocol(m) => write!(f, "protocol error: {m}"),
            SvcError::Rpc { code, message } => write!(f, "rpc error [{code}]: {message}"),
        }
    }
}

impl From<io::Error> for SvcError {
    fn from(e: io::Error) -> SvcError {
        SvcError::Io(e)
    }
}

impl From<FrameError> for SvcError {
    fn from(e: FrameError) -> SvcError {
        match e {
            FrameError::Io(e) => SvcError::Io(e),
            other => SvcError::Protocol(other.to_string()),
        }
    }
}

/// How [`SvcClient::call_with`] behaves between attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt; 0 makes exactly one attempt.
    pub budget: u32,
    /// Backoff before the first retry; doubles each retry after.
    pub base: Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: Duration,
    /// Jitter seed; the same seed and call sequence sleeps the same
    /// schedule, keeping retry tests and recorded runs deterministic.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x6d69_6e6f_6273, // "minobs"
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based) of the call
    /// whose first request id was `id`: exponential from `base`, capped
    /// at `cap`, jittered into the upper half of the window so
    /// simultaneous clients at the same attempt spread out.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        // xorshift64 over (seed, id, attempt): deterministic jitter with
        // no rand dependency.
        let mut x = self.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt) << 32;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Duration::from_nanos(nanos / 2 + x % (nanos / 2 + 1))
    }
}

/// A connected client.
pub struct SvcClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// The resolved peer, kept for reconnect-on-retry.
    addr: SocketAddr,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
}

impl SvcClient {
    /// Connects to a daemon, blocking indefinitely. Prefer
    /// [`SvcClient::connect_with_timeout`] anywhere a hung peer should
    /// not hang the caller.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SvcClient, SvcError> {
        SvcClient::connect_with_timeout(addr, None)
    }

    /// Connects to a daemon, failing any single address attempt after
    /// `timeout`. Addresses the name resolves to are tried in order.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<SvcClient, SvcError> {
        let mut last: Option<io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match open_stream(resolved, timeout) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(SvcClient {
                        reader,
                        writer: BufWriter::new(stream),
                        next_id: 1,
                        addr: resolved,
                        connect_timeout: timeout,
                        read_timeout: None,
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(SvcError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })))
    }

    /// Sets a read timeout for responses; `None` blocks forever. The
    /// timeout survives reconnects.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), SvcError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Drops the connection and dials the same peer again, reapplying
    /// timeouts. Request ids keep counting up, so a response straggling
    /// in from before the reconnect can never match a new request.
    pub fn reconnect(&mut self) -> Result<(), SvcError> {
        let stream = open_stream(self.addr, self.connect_timeout)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = BufWriter::new(stream);
        Ok(())
    }

    /// Calls `method` once and returns the `result` payload, under a
    /// fresh root [`TraceContext`] so every request is traceable
    /// end-to-end by default; use [`SvcClient::call_with`] to retry or to
    /// thread an existing context through instead.
    pub fn call(&mut self, method: &str, params: Value) -> Result<Value, SvcError> {
        let ctx = TraceContext::root();
        self.attempt(method, params, &ctx)
    }

    /// Calls `method` under `ctx`, retrying transient failures (transport
    /// errors, `busy` rejections) under `policy`: reconnect, back off
    /// exponentially with jitter, try again, up to `policy.budget`
    /// retries (`budget: 0` makes exactly one attempt). Safe because
    /// every daemon method is idempotent. Every attempt carries the same
    /// `ctx`, so the daemon parents its `rpc.{method}` span under
    /// `ctx.parent_span` within `ctx.trace_id` and a retried request
    /// stays one trace.
    pub fn call_with(
        &mut self,
        method: &str,
        params: Value,
        policy: &RetryPolicy,
        ctx: &TraceContext,
    ) -> Result<Value, SvcError> {
        let first_id = self.next_id;
        let mut attempt = 0u32;
        while attempt < policy.budget {
            match self.attempt(method, params.clone(), ctx) {
                Err(e) if e.is_retryable() => {
                    std::thread::sleep(policy.backoff(first_id, attempt));
                    attempt += 1;
                    // A failed attempt leaves the connection in an
                    // unknown state (half-written frame, unread busy
                    // hangup); always start the retry on a fresh one.
                    // A failed reconnect just burns this attempt.
                    let _ = self.reconnect();
                }
                done => return done,
            }
        }
        // The last attempt moves `params`, so a `budget: 0` call never
        // clones them.
        self.attempt(method, params, ctx)
    }

    /// One request/response round trip on the current connection.
    fn attempt(
        &mut self,
        method: &str,
        params: Value,
        ctx: &TraceContext,
    ) -> Result<Value, SvcError> {
        let id = self.next_id;
        self.next_id += 1;
        wire::write_frame(
            &mut self.writer,
            &wire::request_with_ctx(id, method, params, ctx),
        )?;
        self.writer.flush()?;
        let response = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            SvcError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ))
        })?;
        decode_response(&response, id)
    }
}

fn open_stream(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true).ok();
    Ok(stream)
}

fn decode_response(response: &Value, id: u64) -> Result<Value, SvcError> {
    let rpc = response.get("rpc").and_then(Value::as_str);
    if rpc != Some(RPC_VERSION) {
        return Err(SvcError::Protocol(format!(
            "unexpected rpc version {rpc:?}"
        )));
    }
    // The acceptor's at-cap rejection is not a reply to any request —
    // it carries id 0 — so busy detection must run before the id check.
    if let Some(error) = response.get("error") {
        if error.get("code").and_then(Value::as_str) == Some("busy") {
            let message = error
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            return Err(SvcError::Busy(message));
        }
    }
    let got = response.get("id").and_then(Value::as_u64);
    if got != Some(id) {
        return Err(SvcError::Protocol(format!(
            "response id {got:?} does not match request id {id}"
        )));
    }
    match response.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(response.get("result").cloned().unwrap_or(Value::Null)),
        Some(false) => {
            let error = response.get("error");
            let code = error
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let message = error
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Err(SvcError::Rpc { code, message })
        }
        None => Err(SvcError::Protocol("response missing \"ok\"".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{err_response, ok_response, read_frame, write_frame};
    use std::net::TcpListener;

    #[test]
    fn responses_decode() {
        let ok = ok_response(4, Value::from(7u64));
        assert_eq!(decode_response(&ok, 4).unwrap(), Value::from(7u64));
        assert!(matches!(
            decode_response(&ok, 5),
            Err(SvcError::Protocol(_))
        ));
        let err = err_response(4, "bad_params", "nope");
        match decode_response(&err, 4) {
            Err(SvcError::Rpc { code, message }) => {
                assert_eq!(code, "bad_params");
                assert_eq!(message, "nope");
            }
            other => panic!("expected rpc error, got {other:?}"),
        }
    }

    #[test]
    fn busy_decodes_despite_the_unmatched_id() {
        let busy = err_response(0, "busy", "connection limit reached");
        match decode_response(&busy, 41) {
            Err(SvcError::Busy(message)) => assert_eq!(message, "connection limit reached"),
            other => panic!("expected busy, got {other:?}"),
        }
        assert!(SvcError::Busy(String::new()).is_retryable());
        assert!(SvcError::Io(io::Error::other("x")).is_retryable());
        assert!(!SvcError::Rpc {
            code: "bad_params".into(),
            message: String::new()
        }
        .is_retryable());
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            budget: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 7,
        };
        for attempt in 0..8 {
            let a = policy.backoff(3, attempt);
            assert_eq!(
                a,
                policy.backoff(3, attempt),
                "jitter must be deterministic"
            );
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(100));
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} vs {exp:?}"
            );
        }
        // Different ids jitter differently (with overwhelming likelihood).
        assert_ne!(policy.backoff(3, 4), policy.backoff(4, 4));
    }

    #[test]
    fn retry_survives_a_busy_hangup_then_succeeds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: at-cap rejection, exactly as the
            // acceptor sends it — id 0, then hang up.
            let (stream, _) = listener.accept().unwrap();
            let mut writer = &stream;
            write_frame(
                &mut writer,
                &err_response(0, "busy", "connection limit reached"),
            )
            .unwrap();
            drop(stream);
            // Second connection: answer properly.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let request = read_frame(&mut reader).unwrap().unwrap();
            let id = request.get("id").and_then(Value::as_u64).unwrap();
            // Every client call carries a fresh root trace context.
            let trace_id = request
                .get("ctx")
                .and_then(|ctx| ctx.get("trace_id"))
                .and_then(Value::as_str)
                .expect("retried calls still carry a ctx")
                .to_string();
            assert_eq!(trace_id.len(), 32);
            let mut writer = &stream;
            write_frame(&mut writer, &ok_response(id, Value::from(42u64))).unwrap();
        });

        let mut client =
            SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5))).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let policy = RetryPolicy {
            budget: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 1,
        };
        let value = client
            .call_with("stats", Value::Null, &policy, &TraceContext::root())
            .unwrap();
        assert_eq!(value, Value::from(42u64));
        server.join().unwrap();
    }

    #[test]
    fn exhausted_budget_returns_the_last_error() {
        // A listener that always rejects busy.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                let mut writer = &stream;
                let _ = write_frame(&mut writer, &err_response(0, "busy", "still full"));
            }
        });
        let mut client =
            SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5))).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let policy = RetryPolicy {
            budget: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        match client.call_with("stats", Value::Null, &policy, &TraceContext::root()) {
            Err(SvcError::Busy(_)) | Err(SvcError::Io(_)) => {}
            other => panic!("expected exhausted retries, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn call_with_keeps_one_trace_id_across_retries_and_stops_at_definitive_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let trace_id = |request: &Value| {
            request
                .get("ctx")
                .and_then(|ctx| ctx.get("trace_id"))
                .and_then(Value::as_str)
                .expect("every attempt carries a ctx")
                .to_string()
        };
        let server = std::thread::spawn(move || {
            let mut seen = Vec::new();
            // First connection: read the request, then reject it busy
            // the way the acceptor does (id 0) and hang up.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            seen.push(trace_id(&read_frame(&mut reader).unwrap().unwrap()));
            let mut writer = &stream;
            write_frame(&mut writer, &err_response(0, "busy", "at capacity")).unwrap();
            drop(stream);
            // Second connection: answer the retry, then answer the next
            // call with a definitive error.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let mut writer = &stream;
            let retried = read_frame(&mut reader).unwrap().unwrap();
            seen.push(trace_id(&retried));
            let id = retried.get("id").and_then(Value::as_u64).unwrap();
            write_frame(&mut writer, &ok_response(id, Value::from("ok"))).unwrap();
            let refused = read_frame(&mut reader).unwrap().unwrap();
            seen.push(trace_id(&refused));
            let id = refused.get("id").and_then(Value::as_u64).unwrap();
            write_frame(&mut writer, &err_response(id, "bad_params", "nope")).unwrap();
            // The client hangs up without another request or dial.
            assert!(read_frame(&mut reader).unwrap().is_none());
            listener.set_nonblocking(true).unwrap();
            assert!(listener.accept().is_err(), "a definitive error was retried");
            seen
        });

        let mut client =
            SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5))).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let policy = RetryPolicy {
            budget: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 1,
        };
        let ctx = TraceContext::root();
        let value = client
            .call_with("stats", Value::Null, &policy, &ctx)
            .unwrap();
        assert_eq!(value, Value::from("ok"));
        let other = TraceContext::root();
        match client.call_with("stats", Value::Null, &policy, &other) {
            Err(SvcError::Rpc { code, .. }) => assert_eq!(code, "bad_params"),
            other => panic!("expected the rpc error straight back, got {other:?}"),
        }
        drop(client);

        let seen = server.join().unwrap();
        let busy_then_ok = ctx.trace_id_hex();
        assert_eq!(busy_then_ok.len(), 32, "trace id is 32 hex digits");
        assert_eq!(
            seen,
            [busy_then_ok.clone(), busy_then_ok, other.trace_id_hex()],
            "a retry re-sends its call's trace_id instead of minting a new root"
        );
    }

    fn fast_policy(budget: u32) -> RetryPolicy {
        RetryPolicy {
            budget,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 1,
        }
    }

    fn connect_local(addr: SocketAddr) -> SvcClient {
        let mut client =
            SvcClient::connect_with_timeout(addr, Some(Duration::from_secs(5))).unwrap();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        client
    }

    /// An address nothing listens on: bind an ephemeral port, then close it.
    fn refused_addr() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    fn request_field<'a>(request: &'a Value, field: &str) -> &'a Value {
        request
            .get(field)
            .unwrap_or_else(|| panic!("request lacks {field:?}"))
    }

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn budget_zero_makes_exactly_one_attempt() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            read_frame(&mut reader).unwrap().unwrap();
            let mut writer = &stream;
            write_frame(&mut writer, &err_response(0, "busy", "at capacity")).unwrap();
            // The client must neither re-send on this connection nor dial
            // again.
            assert!(read_frame(&mut reader).unwrap().is_none());
            listener.set_nonblocking(true).unwrap();
            assert!(listener.accept().is_err(), "budget 0 retried");
        });
        let mut client = connect_local(addr);
        match client.call_with("stats", Value::Null, &fast_policy(0), &TraceContext::root()) {
            Err(SvcError::Busy(message)) => assert_eq!(message, "at capacity"),
            other => panic!("expected the busy rejection, got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn plain_call_makes_one_attempt_and_reports_an_unanswered_request_as_io() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            read_frame(&mut reader).unwrap().unwrap();
            drop(stream);
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            assert!(listener.accept().is_err(), "`call` redialled");
        });
        let mut client = connect_local(addr);
        match client.call("stats", Value::Null) {
            Err(err @ SvcError::Io(_)) => assert!(err.is_retryable()),
            other => panic!("expected a transport error, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn a_hangup_without_an_answer_reconnects_and_resends_the_same_ctx() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: read the request and hang up unanswered.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let dropped = read_frame(&mut reader).unwrap().unwrap();
            drop(stream);
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let retried = read_frame(&mut reader).unwrap().unwrap();
            let id = retried.get("id").and_then(Value::as_u64).unwrap();
            let mut writer = &stream;
            write_frame(&mut writer, &ok_response(id, Value::from("second"))).unwrap();
            (dropped, retried)
        });
        let mut client = connect_local(addr);
        let ctx = TraceContext::root().child(9);
        let value = client
            .call_with("stats", Value::from("p"), &fast_policy(2), &ctx)
            .unwrap();
        assert_eq!(value, Value::from("second"));
        let (dropped, retried) = server.join().unwrap();
        assert_eq!(request_field(&dropped, "ctx"), &ctx.to_json());
        assert_eq!(request_field(&retried, "ctx"), &ctx.to_json());
        assert_eq!(request_field(&retried, "method"), &Value::from("stats"));
        assert_eq!(request_field(&retried, "params"), &Value::from("p"));
        let first = request_field(&dropped, "id").as_u64().unwrap();
        let second = request_field(&retried, "id").as_u64().unwrap();
        assert!(second > first, "a retry takes a fresh request id");
    }

    #[test]
    fn plain_calls_each_mint_a_fresh_root_ctx() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let mut writer = &stream;
            let mut ctxs = Vec::new();
            while let Ok(Some(request)) = read_frame(&mut reader) {
                ctxs.push(request_field(&request, "ctx").clone());
                let id = request.get("id").and_then(Value::as_u64).unwrap();
                write_frame(&mut writer, &ok_response(id, Value::Null)).unwrap();
            }
            ctxs
        });
        let mut client = connect_local(addr);
        for _ in 0..3 {
            assert_eq!(client.call("stats", Value::Null).unwrap(), Value::Null);
        }
        drop(client);
        let ctxs = server.join().unwrap();
        assert_eq!(ctxs.len(), 3);
        let roots: Vec<TraceContext> = ctxs
            .iter()
            .map(|ctx| TraceContext::from_json(ctx).expect("a well-formed ctx"))
            .collect();
        for (i, a) in roots.iter().enumerate() {
            assert_eq!(a.trace_id_hex().len(), 32);
            for b in &roots[i + 1..] {
                assert_ne!(a.trace_id, b.trace_id, "two calls shared a trace");
            }
        }
    }

    #[test]
    fn request_ids_keep_counting_across_a_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut ids = Vec::new();
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = &stream;
                let request = read_frame(&mut reader).unwrap().unwrap();
                let id = request.get("id").and_then(Value::as_u64).unwrap();
                ids.push(id);
                let mut writer = &stream;
                write_frame(&mut writer, &ok_response(id, Value::from(id))).unwrap();
            }
            ids
        });
        let mut client = connect_local(addr);
        assert_eq!(
            client.call("stats", Value::Null).unwrap(),
            Value::from(1u64)
        );
        client.reconnect().unwrap();
        assert_eq!(
            client.call("stats", Value::Null).unwrap(),
            Value::from(2u64)
        );
        assert_eq!(server.join().unwrap(), [1, 2]);
    }

    #[test]
    fn the_read_timeout_survives_a_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            let (second, _) = listener.accept().unwrap();
            let mut reader = &second;
            read_frame(&mut reader).unwrap().unwrap();
            // Never answer; hold both connections until the client gave up.
            done_rx.recv().unwrap();
            drop((first, second));
        });
        let mut client = SvcClient::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_millis(50))).unwrap();
        client.reconnect().unwrap();
        let started = std::time::Instant::now();
        match client.call("stats", Value::Null) {
            Err(SvcError::Io(e)) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "expected a read timeout, got {e:?}"
            ),
            other => panic!("expected a read timeout, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(5));
        done_tx.send(()).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn an_address_list_that_resolves_to_nothing_fails_without_dialing() {
        let none: &[SocketAddr] = &[];
        match SvcClient::connect(none) {
            Err(SvcError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            Err(other) => panic!("expected an invalid-input error, got {other:?}"),
            Ok(_) => panic!("connected to no address"),
        }
    }

    #[test]
    fn connect_falls_through_refused_addresses_in_order() {
        let dead = refused_addr();
        match SvcClient::connect_with_timeout(dead, Some(Duration::from_secs(5))) {
            Err(err @ SvcError::Io(_)) => assert!(err.is_retryable()),
            Err(other) => panic!("expected a transport error, got {other:?}"),
            Ok(_) => panic!("connected to a closed port"),
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = &stream;
            let request = read_frame(&mut reader).unwrap().unwrap();
            let id = request.get("id").and_then(Value::as_u64).unwrap();
            let mut writer = &stream;
            write_frame(&mut writer, &ok_response(id, Value::from("live"))).unwrap();
        });
        let mut client = SvcClient::connect(&[dead, live][..]).unwrap();
        assert_eq!(
            client.call("stats", Value::Null).unwrap(),
            Value::from("live")
        );
        server.join().unwrap();
    }

    #[test]
    fn malformed_envelopes_are_protocol_errors() {
        assert_eq!(RPC_VERSION, "minobs/rpc/v1");
        for (text, why) in [
            (
                r#"{"rpc":"other/v9","id":1,"ok":true,"result":1}"#,
                "foreign version",
            ),
            (r#"{"id":1,"ok":true,"result":1}"#, "no version"),
            (r#"{"rpc":"minobs/rpc/v1","id":1,"result":1}"#, "no ok flag"),
            (r#"{"rpc":"minobs/rpc/v1","ok":true,"result":1}"#, "no id"),
            (
                r#"{"rpc":"minobs/rpc/v1","id":"1","ok":true,"result":1}"#,
                "string id",
            ),
        ] {
            match decode_response(&parse(text), 1) {
                Err(SvcError::Protocol(_)) => {}
                other => panic!("{why}: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sparse_envelopes_decode_with_defaults() {
        let no_result = parse(r#"{"rpc":"minobs/rpc/v1","id":3,"ok":true}"#);
        assert_eq!(decode_response(&no_result, 3).unwrap(), Value::Null);
        let bare_error = parse(r#"{"rpc":"minobs/rpc/v1","id":3,"ok":false}"#);
        match decode_response(&bare_error, 3) {
            Err(SvcError::Rpc { code, message }) => {
                assert_eq!(code, "unknown");
                assert_eq!(message, "");
            }
            other => panic!("expected an rpc error, got {other:?}"),
        }
        // A busy rejection without a message is still busy, whatever its id.
        let terse_busy = parse(r#"{"rpc":"minobs/rpc/v1","ok":false,"error":{"code":"busy"}}"#);
        match decode_response(&terse_busy, 3) {
            Err(SvcError::Busy(message)) => assert_eq!(message, ""),
            other => panic!("expected busy, got {other:?}"),
        }
    }

    #[test]
    fn frame_errors_map_transport_to_io_and_the_rest_to_protocol() {
        let io_err: SvcError = FrameError::Io(io::Error::other("reset")).into();
        assert!(matches!(io_err, SvcError::Io(_)) && io_err.is_retryable());
        for frame_err in [
            FrameError::TooLarge(usize::MAX),
            FrameError::BadJson("x".into()),
        ] {
            let err: SvcError = frame_err.into();
            assert!(matches!(err, SvcError::Protocol(_)), "{err:?}");
            assert!(!err.is_retryable(), "a malformed frame is definitive");
        }
    }

    #[test]
    fn backoff_saturates_at_the_cap_and_vanishes_with_a_zero_base() {
        let policy = RetryPolicy {
            budget: u32::MAX,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 5,
        };
        for attempt in [31, 32, 63, u32::MAX] {
            let sleep = policy.backoff(1, attempt);
            assert!(
                sleep >= policy.cap / 2 && sleep <= policy.cap,
                "attempt {attempt}: {sleep:?}"
            );
        }
        let zero = RetryPolicy {
            base: Duration::ZERO,
            ..policy
        };
        for attempt in [0, 1, u32::MAX] {
            assert_eq!(zero.backoff(1, attempt), Duration::ZERO);
        }
    }

    #[test]
    fn errors_display_their_kind() {
        let cases = [
            (SvcError::Io(io::Error::other("reset")), "i/o error: reset"),
            (SvcError::Busy("full".into()), "daemon busy: full"),
            (
                SvcError::Protocol("bad id".into()),
                "protocol error: bad id",
            ),
            (
                SvcError::Rpc {
                    code: "bad_params".into(),
                    message: "nope".into(),
                },
                "rpc error [bad_params]: nope",
            ),
        ];
        for (err, shown) in cases {
            assert_eq!(err.to_string(), shown);
        }
    }
}
