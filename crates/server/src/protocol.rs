//! The length-prefixed binary wire protocol.
//!
//! Every frame is `u32 LE payload length` followed by the payload; the
//! payload's first byte is a tag. Requests carry a [`QueryRequest`]
//! (SQL text or a serialized [`QuerySpec`]) plus its options, a stats
//! probe, or an admin shutdown; responses carry result rows with
//! telemetry, a typed error (stable [`Error::code`] + transience flag,
//! reconstructed client-side via [`Error::from_wire`]), or a stats
//! snapshot. Integers are little-endian throughout; strings are
//! `u32` length + UTF-8 bytes.
//!
//! The request payload serializes exactly the in-process
//! [`QueryRequest`] surface — a remote query is the same object as a
//! local one, minus the (process-local) cancel handle, which the server
//! re-arms from the deadline.

use recache_core::{AdmissionStats, QueryResponse};
use recache_core::{CacheOutcome, QueryBody, QueryRequest, QueryTelemetry};
use recache_engine::exec::ExecOptions;
use recache_engine::expr::CmpOp;
use recache_engine::plan::AggFunc;
use recache_engine::sql::{PredClause, QuerySpec};
use recache_types::{Error, FieldPath, Result, Value};
use std::io::{Read, Write};
use std::time::Duration;

/// Request frame tags.
pub const REQ_QUERY: u8 = 0x01;
pub const REQ_STATS: u8 = 0x02;
pub const REQ_SHUTDOWN: u8 = 0x03;

/// Response frame tags.
pub const RESP_RESULT: u8 = 0x81;
pub const RESP_ERROR: u8 = 0x82;
pub const RESP_STATS: u8 = 0x83;
pub const RESP_OK: u8 = 0x84;

/// Upper bound on a single frame; anything larger is a protocol error,
/// not a buffer to allocate (a garbage length prefix must not OOM the
/// server).
pub const MAX_FRAME: usize = 16 << 20;

/// One decoded request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a query. The embedded request carries no cancel token (it
    /// does not cross the wire); the server arms one from the deadline.
    Query(QueryRequest),
    /// Snapshot server statistics.
    Stats,
    /// Drain in-flight queries and stop the server.
    Shutdown,
}

/// A successful query reply.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// One value per aggregate in SELECT order.
    pub rows: Vec<Value>,
    /// Rows that reached the aggregation.
    pub rows_aggregated: u64,
    pub telemetry: QueryTelemetry,
}

impl QueryReply {
    /// Projects the wire reply out of an executed response.
    pub fn from_response(response: &QueryResponse) -> Self {
        QueryReply {
            rows: response.rows.clone(),
            rows_aggregated: response.rows_aggregated as u64,
            telemetry: response.telemetry.clone(),
        }
    }
}

/// A stats snapshot reply.
#[derive(Debug, Clone)]
pub struct StatsReply {
    /// Queries executed since boot.
    pub queries_run: u64,
    /// Named registry counters (`RegistryCounters`), name → value. Sent
    /// as pairs so the protocol survives counters being added.
    pub counters: Vec<(String, u64)>,
    /// Admission gate occupancy and shed/admit totals.
    pub admission: AdmissionStats,
    /// Server-side query latency histogram: `(bucket upper bound ns,
    /// count)` for non-empty power-of-two buckets.
    pub latency_buckets: Vec<(u64, u64)>,
}

/// One decoded response.
#[derive(Debug, Clone)]
pub enum Response {
    Result(QueryReply),
    /// A typed error: stable code, transience, human-readable message.
    Error {
        code: u16,
        transient: bool,
        message: String,
    },
    Stats(StatsReply),
    /// Bare acknowledgement (shutdown).
    Ok,
}

impl Response {
    /// Wraps an execution error for the wire.
    pub fn from_error(err: &Error) -> Self {
        Response::Error {
            code: err.code(),
            transient: err.is_transient(),
            message: err.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Framing

/// Writes one frame: `u32 LE` length then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF *at a frame boundary*
/// (peer closed between requests); EOF mid-frame is an error. Read
/// timeouts surface as `WouldBlock`/`TimedOut` io errors for the caller
/// to treat as "no frame yet".
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_exact_or_eof(r, &mut len)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Like `read_exact`, but distinguishes EOF-before-any-byte (`false`)
/// from success (`true`); EOF after a partial read is an error.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // A timeout after partial progress keeps what we have: the
            // caller's next read resumes... except it can't — we'd lose
            // `filled`. Propagate only when nothing was read; otherwise
            // block until the frame completes by retrying.
            Err(e)
                if filled > 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Marker payload of the error [`read_frame_bounded`] returns when a
/// frame fails to complete within its deadline; detect it with
/// [`is_frame_deadline`].
#[derive(Debug)]
pub struct FrameDeadlineExceeded;

impl std::fmt::Display for FrameDeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame read deadline exceeded")
    }
}

impl std::error::Error for FrameDeadlineExceeded {}

/// Whether an I/O error is a frame-deadline kill from
/// [`read_frame_bounded`] (as opposed to an ordinary timeout between
/// frames, which surfaces as a bare `WouldBlock`/`TimedOut`).
pub fn is_frame_deadline(e: &std::io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<FrameDeadlineExceeded>())
}

/// [`read_frame`] with a per-frame completion deadline.
///
/// The deadline clock starts when the **first byte** of a frame (its
/// length prefix) arrives, and covers the whole frame. Timeouts *between*
/// frames still surface as bare `WouldBlock`/`TimedOut` (the caller's
/// idle/shutdown poll); once a frame has started, timeouts retry until
/// the deadline, then fail with a [`FrameDeadlineExceeded`]-carrying
/// `TimedOut` error — so a peer that sends one byte and stalls (a
/// slowloris) costs one deadline, not a wedged reader thread. The reader
/// should have a finite read timeout installed; that timeout is the
/// poll granularity of the deadline.
pub fn read_frame_bounded(
    r: &mut impl Read,
    frame_deadline: Duration,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut deadline: Option<std::time::Instant> = None;
    let mut len = [0u8; 4];
    if !read_exact_or_deadline(r, &mut len, &mut deadline, frame_deadline)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_exact_or_deadline(r, &mut payload, &mut deadline, frame_deadline)?;
    Ok(Some(payload))
}

/// [`read_exact_or_eof`] with the frame deadline threaded through:
/// `deadline` is armed on the first byte of the frame and shared by the
/// prefix and payload reads, so the whole frame gets one budget.
fn read_exact_or_deadline(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: &mut Option<std::time::Instant>,
    frame_deadline: Duration,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if let Some(at) = *deadline {
            // Checked on every iteration, not only on timeouts: a peer
            // dripping one byte per poll interval never times out a
            // single read but still exhausts the frame budget.
            if std::time::Instant::now() >= at {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    FrameDeadlineExceeded,
                ));
            }
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && deadline.is_none() => return Ok(false),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => {
                filled += n;
                if deadline.is_none() {
                    // `checked_add` so a huge configured deadline means
                    // "never" instead of a panic.
                    *deadline = std::time::Instant::now().checked_add(frame_deadline);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle between frames: hand control back to the caller's
                // poll loop. Mid-frame: keep retrying until the deadline
                // check above fires.
                if deadline.is_none() {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Byte-level encode/decode

/// Bounds-checked reader over a decoded payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| Error::exec("truncated frame"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| Error::exec("non-UTF-8 string in frame"))
    }

    /// Bounded element count for a following sequence: each element
    /// needs at least one byte, so a count beyond the remaining bytes is
    /// a malformed frame, not an allocation size.
    fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(Error::exec("sequence count exceeds frame size"));
        }
        Ok(n)
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::exec("trailing bytes after frame payload"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_string(out, s);
        }
        Value::List(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            items.iter().for_each(|v| put_value(out, v));
        }
        Value::Struct(fields) => {
            out.push(6);
            put_u32(out, fields.len() as u32);
            fields.iter().for_each(|v| put_value(out, v));
        }
    }
}

fn get_value(cur: &mut Cursor<'_>) -> Result<Value> {
    Ok(match cur.u8()? {
        0 => Value::Null,
        1 => Value::Bool(cur.u8()? != 0),
        2 => Value::Int(cur.i64()?),
        3 => Value::Float(cur.f64()?),
        4 => Value::Str(cur.string()?),
        tag @ (5 | 6) => {
            let n = cur.count()?;
            let items = (0..n).map(|_| get_value(cur)).collect::<Result<_>>()?;
            if tag == 5 {
                Value::List(items)
            } else {
                Value::Struct(items)
            }
        }
        other => return Err(Error::exec(format!("unknown value tag {other}"))),
    })
}

fn put_path(out: &mut Vec<u8>, path: &FieldPath) {
    put_u32(out, path.steps().len() as u32);
    path.steps().iter().for_each(|s| put_string(out, s));
}

fn get_path(cur: &mut Cursor<'_>) -> Result<FieldPath> {
    let n = cur.count()?;
    let steps = (0..n).map(|_| cur.string()).collect::<Result<_>>()?;
    Ok(FieldPath::from_steps(steps))
}

fn put_spec(out: &mut Vec<u8>, spec: &QuerySpec) {
    put_u32(out, spec.aggregates.len() as u32);
    for (func, path) in &spec.aggregates {
        out.push(match func {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        });
        match path {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                put_path(out, p);
            }
        }
    }
    put_u32(out, spec.tables.len() as u32);
    spec.tables.iter().for_each(|t| put_string(out, t));
    put_u32(out, spec.predicates.len() as u32);
    for pred in &spec.predicates {
        match pred {
            PredClause::Cmp { path, op, value } => {
                out.push(0);
                put_path(out, path);
                out.push(match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                });
                put_value(out, value);
            }
            PredClause::Between { path, lo, hi } => {
                out.push(1);
                put_path(out, path);
                put_value(out, lo);
                put_value(out, hi);
            }
        }
    }
    put_u32(out, spec.joins.len() as u32);
    for (a, b) in &spec.joins {
        put_path(out, a);
        put_path(out, b);
    }
}

fn get_spec(cur: &mut Cursor<'_>) -> Result<QuerySpec> {
    let n = cur.count()?;
    let aggregates = (0..n)
        .map(|_| {
            let func = match cur.u8()? {
                0 => AggFunc::Count,
                1 => AggFunc::Sum,
                2 => AggFunc::Avg,
                3 => AggFunc::Min,
                4 => AggFunc::Max,
                other => return Err(Error::exec(format!("unknown aggregate tag {other}"))),
            };
            let path = match cur.u8()? {
                0 => None,
                _ => Some(get_path(cur)?),
            };
            Ok((func, path))
        })
        .collect::<Result<_>>()?;
    let n = cur.count()?;
    let tables = (0..n).map(|_| cur.string()).collect::<Result<_>>()?;
    let n = cur.count()?;
    let predicates = (0..n)
        .map(|_| {
            Ok(match cur.u8()? {
                0 => {
                    let path = get_path(cur)?;
                    let op = match cur.u8()? {
                        0 => CmpOp::Eq,
                        1 => CmpOp::Ne,
                        2 => CmpOp::Lt,
                        3 => CmpOp::Le,
                        4 => CmpOp::Gt,
                        5 => CmpOp::Ge,
                        other => {
                            return Err(Error::exec(format!("unknown comparison tag {other}")))
                        }
                    };
                    PredClause::Cmp {
                        path,
                        op,
                        value: get_value(cur)?,
                    }
                }
                1 => PredClause::Between {
                    path: get_path(cur)?,
                    lo: get_value(cur)?,
                    hi: get_value(cur)?,
                },
                other => return Err(Error::exec(format!("unknown predicate tag {other}"))),
            })
        })
        .collect::<Result<_>>()?;
    let n = cur.count()?;
    let joins = (0..n)
        .map(|_| Ok((get_path(cur)?, get_path(cur)?)))
        .collect::<Result<_>>()?;
    Ok(QuerySpec {
        aggregates,
        tables,
        predicates,
        joins,
    })
}

// ---------------------------------------------------------------------
// Request / response payloads

/// Encodes a request payload (framing is the transport's job).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match request {
        Request::Stats => out.push(REQ_STATS),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
        Request::Query(query) => {
            out.push(REQ_QUERY);
            match query.body() {
                QueryBody::Sql(text) => {
                    out.push(0);
                    put_string(&mut out, text);
                }
                QueryBody::Spec(spec) => {
                    out.push(1);
                    put_spec(&mut out, spec);
                }
            }
            let options = query.exec_options();
            out.push(u8::from(options.vectorized));
            put_u64(&mut out, options.threads as u64);
            match query.get_deadline() {
                None => out.push(0),
                Some(deadline) => {
                    out.push(1);
                    put_u64(
                        &mut out,
                        deadline.as_nanos().min(u128::from(u64::MAX)) as u64,
                    );
                }
            }
            match query.get_tag() {
                None => out.push(0),
                Some(tag) => {
                    out.push(1);
                    put_string(&mut out, tag);
                }
            }
            // Result-cache override: one mandatory byte (0 = follow the
            // server session's default, 1 = force on, 2 = force off).
            out.push(match query.get_result_cache() {
                None => 0,
                Some(true) => 1,
                Some(false) => 2,
            });
        }
    }
    out
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut cur = Cursor::new(payload);
    let request = match cur.u8()? {
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_QUERY => {
            let body = match cur.u8()? {
                0 => QueryBody::Sql(cur.string()?),
                1 => QueryBody::Spec(get_spec(&mut cur)?),
                other => return Err(Error::exec(format!("unknown body tag {other}"))),
            };
            let vectorized = cur.u8()? != 0;
            let threads = cur.u64()? as usize;
            let mut query = QueryRequest::new(body).options(ExecOptions {
                vectorized,
                threads,
                cancel: None,
            });
            if cur.u8()? != 0 {
                query = query.deadline(Duration::from_nanos(cur.u64()?));
            }
            if cur.u8()? != 0 {
                query = query.tag(cur.string()?);
            }
            match cur.u8()? {
                0 => {}
                1 => query = query.result_cache(true),
                2 => query = query.result_cache(false),
                other => return Err(Error::exec(format!("unknown result-cache flag {other}"))),
            }
            Request::Query(query)
        }
        other => return Err(Error::exec(format!("unknown request tag {other}"))),
    };
    cur.finish()?;
    Ok(request)
}

/// Encodes a response payload.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Ok => out.push(RESP_OK),
        Response::Error {
            code,
            transient,
            message,
        } => {
            out.push(RESP_ERROR);
            out.extend_from_slice(&code.to_le_bytes());
            out.push(u8::from(*transient));
            put_string(&mut out, message);
        }
        Response::Result(reply) => {
            out.push(RESP_RESULT);
            put_u32(&mut out, reply.rows.len() as u32);
            reply.rows.iter().for_each(|v| put_value(&mut out, v));
            put_u64(&mut out, reply.rows_aggregated);
            let t = &reply.telemetry;
            match &t.tag {
                None => out.push(0),
                Some(tag) => {
                    out.push(1);
                    put_string(&mut out, tag);
                }
            }
            put_u64(&mut out, t.threads_granted as u64);
            out.push(match t.outcome {
                CacheOutcome::Miss => 0,
                CacheOutcome::Hit => 1,
                CacheOutcome::Coalesced => 2,
                CacheOutcome::ResultHit => 3,
            });
            put_u64(&mut out, t.data_ns);
            put_u64(&mut out, t.compute_ns);
            put_u64(&mut out, t.exec_ns);
            put_u64(&mut out, t.total_ns);
        }
        Response::Stats(stats) => {
            out.push(RESP_STATS);
            put_u64(&mut out, stats.queries_run);
            put_u32(&mut out, stats.counters.len() as u32);
            for (name, value) in &stats.counters {
                put_string(&mut out, name);
                put_u64(&mut out, *value);
            }
            put_u64(&mut out, stats.admission.admitted);
            put_u64(&mut out, stats.admission.shed);
            put_u64(&mut out, stats.admission.running as u64);
            put_u64(&mut out, stats.admission.queued as u64);
            put_u32(&mut out, stats.latency_buckets.len() as u32);
            for (bound, count) in &stats.latency_buckets {
                put_u64(&mut out, *bound);
                put_u64(&mut out, *count);
            }
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut cur = Cursor::new(payload);
    let response = match cur.u8()? {
        RESP_OK => Response::Ok,
        RESP_ERROR => Response::Error {
            code: cur.u16()?,
            transient: cur.u8()? != 0,
            message: cur.string()?,
        },
        RESP_RESULT => {
            let n = cur.count()?;
            let rows = (0..n).map(|_| get_value(&mut cur)).collect::<Result<_>>()?;
            let rows_aggregated = cur.u64()?;
            let tag = match cur.u8()? {
                0 => None,
                _ => Some(cur.string()?),
            };
            let threads_granted = cur.u64()? as usize;
            let outcome = match cur.u8()? {
                0 => CacheOutcome::Miss,
                1 => CacheOutcome::Hit,
                2 => CacheOutcome::Coalesced,
                3 => CacheOutcome::ResultHit,
                other => return Err(Error::exec(format!("unknown outcome tag {other}"))),
            };
            Response::Result(QueryReply {
                rows,
                rows_aggregated,
                telemetry: QueryTelemetry {
                    tag,
                    threads_granted,
                    outcome,
                    data_ns: cur.u64()?,
                    compute_ns: cur.u64()?,
                    exec_ns: cur.u64()?,
                    total_ns: cur.u64()?,
                },
            })
        }
        RESP_STATS => {
            let queries_run = cur.u64()?;
            let n = cur.count()?;
            let counters = (0..n)
                .map(|_| Ok((cur.string()?, cur.u64()?)))
                .collect::<Result<_>>()?;
            let admission = AdmissionStats {
                admitted: cur.u64()?,
                shed: cur.u64()?,
                running: cur.u64()? as usize,
                queued: cur.u64()? as usize,
            };
            let n = cur.count()?;
            let latency_buckets = (0..n)
                .map(|_| Ok((cur.u64()?, cur.u64()?)))
                .collect::<Result<_>>()?;
            Response::Stats(StatsReply {
                queries_run,
                counters,
                admission,
                latency_buckets,
            })
        }
        other => return Err(Error::exec(format!("unknown response tag {other}"))),
    };
    cur.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_engine::sql::parse_query;

    #[test]
    fn query_request_round_trips_bodies_and_options() {
        let spec = parse_query(
            "SELECT count(*), sum(l_extendedprice) FROM lineitem \
             WHERE l_quantity BETWEEN 5 AND 45 AND l_tax >= 0.02",
        )
        .unwrap();
        for request in [
            QueryRequest::sql("SELECT count(*) FROM t WHERE a >= 3")
                .threads(4)
                .vectorized(false)
                .deadline(Duration::from_millis(750))
                .tag("req-9")
                .result_cache(true),
            QueryRequest::spec(spec.clone()).result_cache(false),
            QueryRequest::spec(spec),
        ] {
            let bytes = encode_request(&Request::Query(request.clone()));
            let Request::Query(decoded) = decode_request(&bytes).unwrap() else {
                panic!("query frame expected");
            };
            match (request.body(), decoded.body()) {
                (QueryBody::Sql(a), QueryBody::Sql(b)) => assert_eq!(a, b),
                (QueryBody::Spec(a), QueryBody::Spec(b)) => assert_eq!(a, b),
                _ => panic!("body kind changed across the wire"),
            }
            assert_eq!(
                request.exec_options().threads,
                decoded.exec_options().threads
            );
            assert_eq!(
                request.exec_options().vectorized,
                decoded.exec_options().vectorized
            );
            assert_eq!(request.get_deadline(), decoded.get_deadline());
            assert_eq!(request.get_tag(), decoded.get_tag());
            assert_eq!(request.get_result_cache(), decoded.get_result_cache());
        }
        // An out-of-range result-cache flag is a typed error.
        let mut bytes =
            encode_request(&Request::Query(QueryRequest::sql("SELECT count(*) FROM t")));
        *bytes.last_mut().unwrap() = 9;
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn control_frames_round_trip() {
        for request in [Request::Stats, Request::Shutdown] {
            let bytes = encode_request(&request);
            let decoded = decode_request(&bytes).unwrap();
            assert_eq!(
                std::mem::discriminant(&request),
                std::mem::discriminant(&decoded)
            );
        }
        let bytes = encode_response(&Response::Ok);
        assert!(matches!(decode_response(&bytes).unwrap(), Response::Ok));
    }

    #[test]
    fn error_frames_carry_code_and_transience() {
        let err = Error::Overloaded;
        let bytes = encode_response(&Response::from_error(&err));
        let Response::Error {
            code,
            transient,
            message,
        } = decode_response(&bytes).unwrap()
        else {
            panic!("error frame expected");
        };
        assert_eq!(code, err.code());
        assert!(transient);
        let rebuilt = Error::from_wire(code, transient, &message);
        assert!(matches!(rebuilt, Error::Overloaded));
        assert!(rebuilt.is_transient());
    }

    #[test]
    fn result_frames_round_trip_values_and_telemetry() {
        let reply = QueryReply {
            rows: vec![
                Value::Int(42),
                Value::Float(3.5),
                Value::Null,
                Value::Str("x".into()),
                Value::List(vec![Value::Bool(true), Value::Int(-1)]),
            ],
            rows_aggregated: 137,
            telemetry: QueryTelemetry {
                tag: Some("q1".into()),
                threads_granted: 3,
                outcome: CacheOutcome::Coalesced,
                data_ns: 10,
                compute_ns: 20,
                exec_ns: 30,
                total_ns: 40,
            },
        };
        let bytes = encode_response(&Response::Result(reply.clone()));
        let Response::Result(decoded) = decode_response(&bytes).unwrap() else {
            panic!("result frame expected");
        };
        assert_eq!(decoded.rows, reply.rows);
        assert_eq!(decoded.rows_aggregated, reply.rows_aggregated);
        assert_eq!(decoded.telemetry.tag, reply.telemetry.tag);
        assert_eq!(decoded.telemetry.outcome, CacheOutcome::Coalesced);
        assert_eq!(decoded.telemetry.total_ns, 40);
        // The result-cache outcome survives the wire with its zero
        // executor timings.
        let mut hit = reply;
        hit.telemetry.outcome = CacheOutcome::ResultHit;
        hit.telemetry.data_ns = 0;
        hit.telemetry.compute_ns = 0;
        hit.telemetry.exec_ns = 0;
        let bytes = encode_response(&Response::Result(hit));
        let Response::Result(decoded) = decode_response(&bytes).unwrap() else {
            panic!("result frame expected");
        };
        assert_eq!(decoded.telemetry.outcome, CacheOutcome::ResultHit);
        assert_eq!(decoded.telemetry.exec_ns, 0);
    }

    #[test]
    fn malformed_frames_are_typed_errors_not_panics() {
        // Truncations and garbage tags at every prefix length.
        let spec = parse_query("SELECT count(*) FROM t WHERE a >= 3").unwrap();
        let good = encode_request(&Request::Query(QueryRequest::spec(spec).tag("t")));
        for cut in 0..good.len() {
            assert!(
                decode_request(&good[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        assert!(decode_request(&[0xEE]).is_err());
        // Trailing bytes are rejected too.
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
        // A count field larger than the frame must not allocate.
        let mut bomb = vec![REQ_QUERY, 1];
        bomb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_request(&bomb).is_err());
    }

    /// Scripted reader: a sequence of byte chunks, `WouldBlock`s, and a
    /// final behavior (endless blocking or EOF).
    struct ScriptedReader {
        events: std::collections::VecDeque<Option<Vec<u8>>>,
        then_eof: bool,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.events.pop_front() {
                Some(Some(bytes)) => {
                    assert!(buf.len() >= bytes.len(), "script chunk larger than ask");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(None) => Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "scripted timeout",
                )),
                None if self.then_eof => Ok(0),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "scripted idle",
                )),
            }
        }
    }

    #[test]
    fn bounded_read_passes_idle_timeouts_through() {
        let mut r = ScriptedReader {
            events: [None].into(),
            then_eof: false,
        };
        let err = read_frame_bounded(&mut r, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(
            !is_frame_deadline(&err),
            "an idle timeout is not a deadline kill"
        );
    }

    #[test]
    fn bounded_read_kills_a_stalled_frame() {
        // One byte of the length prefix arrives, then nothing: the
        // canonical slowloris. The frame deadline must fire.
        let mut r = ScriptedReader {
            events: [Some(vec![7u8])].into(),
            then_eof: false,
        };
        let err = read_frame_bounded(&mut r, Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(is_frame_deadline(&err), "expected a frame-deadline kill");
    }

    #[test]
    fn bounded_read_assembles_dripped_frames_within_deadline() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"chunks").unwrap();
        // Frame dribbles in byte by byte with timeouts in between but
        // finishes well inside the deadline.
        let mut events = std::collections::VecDeque::new();
        for byte in framed {
            events.push_back(Some(vec![byte]));
            events.push_back(None);
        }
        let mut r = ScriptedReader {
            events,
            then_eof: false,
        };
        let payload = read_frame_bounded(&mut r, Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(payload, b"chunks");
    }

    #[test]
    fn bounded_read_reports_eof_and_boundaries_like_read_frame() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"hello").unwrap();
        let mut r = ScriptedReader {
            events: [Some(framed[..4].to_vec()), Some(framed[4..].to_vec())].into(),
            then_eof: true,
        };
        assert_eq!(
            read_frame_bounded(&mut r, Duration::from_secs(5))
                .unwrap()
                .unwrap(),
            b"hello"
        );
        assert!(
            read_frame_bounded(&mut r, Duration::from_secs(5))
                .unwrap()
                .is_none(),
            "clean EOF at a frame boundary"
        );
        // EOF mid-frame is an error even before the deadline.
        let mut r = ScriptedReader {
            events: [Some(framed[..3].to_vec())].into(),
            then_eof: true,
        };
        let err = read_frame_bounded(&mut r, Duration::from_secs(5)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_io_handles_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
        // EOF mid-frame is an error, not a silent None.
        let mut truncated = &buf[..3];
        assert!(read_frame(&mut truncated).is_err());
        // A garbage length prefix larger than the cap is rejected.
        let mut garbage = &(u32::MAX.to_le_bytes())[..];
        assert!(read_frame(&mut garbage).is_err());
    }
}
