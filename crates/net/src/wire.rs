//! The length-prefixed wire protocol between loadgen/raw clients and
//! the TCP front end.
//!
//! A connection is a byte stream of **frames**: a 4-byte big-endian
//! payload length followed by exactly that many payload bytes. The
//! first payload byte is a tag — [`REQ_TAG`] for client→server request
//! frames, [`RESP_TAG`] for server→client responses — so either side
//! can reject a frame sent in the wrong direction instead of
//! misparsing it. All integers are big-endian; strings are a u32
//! length followed by UTF-8 bytes.
//!
//! ```text
//! request payload:   'Q' id:u64 class:u8 priority:u8
//!                    deadline?:u8 [deadline_budget_ms:u64]
//!                    op:u8 fields…
//!     op 0 Grade     submission:str
//!     op 1 Homework  generator:str seed:u64
//!     op 2 Reproduce id:str
//!     op 3 Stats     (no fields)
//!     op 4 StatsFull (no fields)
//!     op 5 Life      w:u32 h:u32 steps:u32 seed:u64
//!     op 6 MemTrace  pattern:str accesses:u32 seed:u64
//!     op 7 CtlJoin   token:str addr:str
//!     op 8 CtlDrain  token:str backend:u32
//!     op 9 CtlRemove token:str backend:u32
//!     op 10 CtlView  token:str
//! response payload:  'R' id:u64 status:u8 retry_after_ms:u64
//!                    backend:u32 body:str
//! ```
//!
//! Op 3 (`Stats`) is the observability peephole: it shares the request
//! header (the class/priority/deadline bytes are carried but ignored)
//! and asks the server for its rendered metrics snapshot. The front
//! end answers it synchronously from the registry — it never enters
//! admission, never touches the result cache, and works even while the
//! job server itself is saturated, which is exactly when you want to
//! read the queue-depth gauge.
//!
//! Op 4 (`StatsFull`) is the machine-readable sibling: the body is
//! `obs::Snapshot::encode_text()` instead of the human rendering, so a
//! router can `Snapshot::parse_text` each backend's reply and merge the
//! histograms bucket-for-bucket. Percentiles of a rendered snapshot
//! don't add across processes; sparse bucket counts do.
//!
//! Ops 7–10 are the **control plane**: fleet-membership commands a
//! router accepts from an operator (`crates/ctl` holds the state
//! machine). Each carries a shared admin token — compared against the
//! router's `router::RouterConfig::ctl_token` — so a loadgen typo cannot
//! drain a backend; a missing or wrong token gets an `Error` response,
//! never a state change. `CtlView` returns the encoded
//! `ctl::MembershipEpoch` so polling clients can watch a join be
//! admitted or a drain complete. Plain backends (`net::server`) answer
//! all four with an `Error` body pointing at the router: membership is
//! a proxy-tier concept.
//!
//! Every response carries a `backend` id — the serving process's
//! [`crate::server::NetConfig::backend_id`] (0 for a single-process
//! deployment). Frames a router synthesizes itself (sheds, re-route
//! fallbacks) use [`ROUTER_BACKEND_ID`] so tests and loadgen can tell
//! "a backend answered" from "the router answered for it".
//!
//! The request carries the whole [`JobMeta`] story on the wire: class
//! selects the admission budget and the priority lane, priority can
//! jump the lane, and the deadline travels as a *budget* ("useful for
//! another N ms") rather than an instant, because clocks on two ends
//! of a socket don't agree. [`RequestFrame::meta`] pins the budget to
//! the server's clock at decode time.
//!
//! Responses are matched to requests **by id, not by order**: the
//! server completes pipelined requests out of order, so clients must
//! treat the id as the correlation key. Status distinguishes a
//! computed result ([`RespStatus::Ok`]/[`RespStatus::OkCached`]) from
//! the three backpressure shapes — [`RespStatus::Retry`] (rejected at
//! admission, hint in `retry_after_ms`), [`RespStatus::Shed`]
//! (admitted, then displaced by higher-class work; also hinted) and
//! [`RespStatus::GoAway`] (the server is full of connections or
//! shutting down; this connection is done).
//!
//! Decoding is a single pass over the payload slice — strings are
//! validated in place and copied exactly once into the frame — and
//! **total**: any truncated, oversized, or corrupt input returns a
//! typed [`WireError`]; nothing panics (the round-trip and
//! never-panic properties are proptested in `tests/wire_props.rs`).

use serve::pool::{JobClass, JobMeta};
use serve::server::Request;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Hard cap on a frame's payload length. Oversized length prefixes are
/// rejected before any allocation, so a hostile client cannot make the
/// server reserve gigabytes with 4 bytes.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Payload tag of a client→server request frame (`b'Q'`).
pub const REQ_TAG: u8 = b'Q';

/// Payload tag of a server→client response frame (`b'R'`).
pub const RESP_TAG: u8 = b'R';

/// `backend` id stamped on responses the router synthesizes itself
/// (sheds when no backend is live, accept-time GoAway) rather than
/// forwarding from a backend. Real backends use small ids from 0.
pub const ROUTER_BACKEND_ID: u32 = u32::MAX;

/// Why a payload failed to decode. Every malformed input maps to one
/// of these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field did.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes the payload had left.
        have: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge {
        /// The claimed length.
        len: usize,
    },
    /// The payload's first byte is neither [`REQ_TAG`] nor [`RESP_TAG`].
    BadTag(u8),
    /// An unknown [`JobClass`] code.
    BadClass(u8),
    /// An unknown request-op code.
    BadOp(u8),
    /// An unknown response-status code.
    BadStatus(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the frame's last field — a framing bug on
    /// the sender, not silently ignored.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: field needs {needed} bytes, {have} left"
                )
            }
            WireError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::BadTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            WireError::BadClass(c) => write!(f, "unknown job class code {c}"),
            WireError::BadOp(o) => write!(f, "unknown request op code {o}"),
            WireError::BadStatus(s) => write!(f, "unknown response status code {s}"),
            WireError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded client→server request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen correlation id; the response echoes it. Ids need
    /// only be unique among a connection's in-flight requests.
    pub id: u64,
    /// Scheduling class for admission budgets and the pool's claim order.
    pub class: JobClass,
    /// Fine-grained urgency within the class.
    pub priority: u8,
    /// Deadline budget: "this response is useful for another N ms".
    /// `None` = no deadline. Sent as a duration, not an instant —
    /// client and server clocks don't agree.
    pub deadline_budget_ms: Option<u64>,
    /// The course workload to run.
    pub req: Request,
}

impl RequestFrame {
    /// The [`JobMeta`] this frame asks for, with the deadline budget
    /// pinned to *this* machine's clock at call time.
    pub fn meta(&self) -> JobMeta {
        let mut meta = JobMeta::for_class(self.class).with_priority(self.priority);
        if let Some(ms) = self.deadline_budget_ms {
            meta = meta.with_deadline(Instant::now() + Duration::from_millis(ms));
        }
        meta
    }
}

/// What a response frame means. See the module docs for the protocol
/// contract of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespStatus {
    /// The request ran (or failed honestly inside its handler with an
    /// explanatory body — mirroring `Response::ok = false`).
    Ok,
    /// Like `Ok`, but answered from the result cache.
    OkCached,
    /// The handler failed (unknown generator/experiment, panic). The
    /// body says why; retrying the identical request will fail again.
    Error,
    /// Rejected at admission (queue or class budget full). Not run.
    /// `retry_after_ms` carries the deadline-aware backoff hint; 0
    /// means the deadline already passed and retrying is pointless.
    Retry,
    /// Admitted, then displaced while queued by higher-class
    /// admission. Not run. `retry_after_ms` hints when to retry.
    Shed,
    /// The server will not serve this connection (further): connection
    /// cap at accept time, or shutdown. `retry_after_ms` hints when a
    /// fresh connection might fare better.
    GoAway,
}

impl RespStatus {
    /// Wire code of this status.
    pub fn code(self) -> u8 {
        match self {
            RespStatus::Ok => 0,
            RespStatus::OkCached => 1,
            RespStatus::Error => 2,
            RespStatus::Retry => 3,
            RespStatus::Shed => 4,
            RespStatus::GoAway => 5,
        }
    }

    /// Inverse of [`RespStatus::code`].
    pub fn from_code(code: u8) -> Result<RespStatus, WireError> {
        Ok(match code {
            0 => RespStatus::Ok,
            1 => RespStatus::OkCached,
            2 => RespStatus::Error,
            3 => RespStatus::Retry,
            4 => RespStatus::Shed,
            5 => RespStatus::GoAway,
            other => return Err(WireError::BadStatus(other)),
        })
    }
}

/// A decoded server→client response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id (0 for connection-level
    /// frames like accept-time [`RespStatus::GoAway`]).
    pub id: u64,
    /// What happened to the request.
    pub status: RespStatus,
    /// Backoff hint for `Retry`/`Shed`/`GoAway`; 0 otherwise (or when
    /// retrying is already pointless).
    pub retry_after_ms: u64,
    /// Which process answered: the serving backend's id, or
    /// [`ROUTER_BACKEND_ID`] for router-synthesized frames. Lets
    /// clients and tests observe routing spread without parsing bodies.
    pub backend: u32,
    /// Rendered result or error/backpressure explanation.
    pub body: String,
}

/// Either frame direction, as [`decode_payload`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client→server request.
    Request(RequestFrame),
    /// A server→client response.
    Response(ResponseFrame),
    /// A client→server metrics-snapshot request (op 3), answered
    /// synchronously by the front end without entering admission.
    Stats {
        /// Correlation id, echoed on the snapshot response.
        id: u64,
    },
    /// A client→server machine-readable snapshot request (op 4): the
    /// response body is `Snapshot::encode_text()`, mergeable by a
    /// router. Answered synchronously like op 3.
    StatsFull {
        /// Correlation id, echoed on the snapshot response.
        id: u64,
    },
    /// Admin op 7: announce a new backend to the router's fleet.
    CtlJoin {
        /// Correlation id, echoed on the response.
        id: u64,
        /// Shared admin token; must match the router's
        /// `RouterConfig::ctl_token`.
        token: String,
        /// Address the new backend listens on, e.g. `127.0.0.1:7411`.
        addr: String,
    },
    /// Admin op 8: stop assigning new keys to a backend; in-flight
    /// work keeps draining.
    CtlDrain {
        /// Correlation id, echoed on the response.
        id: u64,
        /// Shared admin token; must match the router's
        /// `RouterConfig::ctl_token`.
        token: String,
        /// The backend id to drain.
        backend: u32,
    },
    /// Admin op 9: remove a backend from the fleet (normally after a
    /// drain; legal anytime — remaining in-flight entries fail over).
    CtlRemove {
        /// Correlation id, echoed on the response.
        id: u64,
        /// Shared admin token; must match the router's
        /// `RouterConfig::ctl_token`.
        token: String,
        /// The backend id to remove.
        backend: u32,
    },
    /// Admin op 10: fetch the current membership view. The response
    /// body is `ctl::MembershipEpoch::encode_text()` plus per-backend
    /// health/outstanding diagnostics.
    CtlView {
        /// Correlation id, echoed on the response.
        id: u64,
        /// Shared admin token; must match the router's
        /// `RouterConfig::ctl_token`.
        token: String,
    },
}

fn class_code(class: JobClass) -> u8 {
    class.band() as u8
}

fn class_from_code(code: u8) -> Result<JobClass, WireError> {
    if (code as usize) < JobClass::COUNT {
        Ok(JobClass::from_band(code as usize))
    } else {
        Err(WireError::BadClass(code))
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Encodes a request frame into complete on-wire bytes (length prefix
/// included).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.push(REQ_TAG);
    payload.extend_from_slice(&frame.id.to_be_bytes());
    payload.push(class_code(frame.class));
    payload.push(frame.priority);
    match frame.deadline_budget_ms {
        None => payload.push(0),
        Some(ms) => {
            payload.push(1);
            payload.extend_from_slice(&ms.to_be_bytes());
        }
    }
    match &frame.req {
        Request::Grade { submission } => {
            payload.push(0);
            put_str(&mut payload, submission);
        }
        Request::Homework { generator, seed } => {
            payload.push(1);
            put_str(&mut payload, generator);
            payload.extend_from_slice(&seed.to_be_bytes());
        }
        Request::Reproduce { id } => {
            payload.push(2);
            put_str(&mut payload, id);
        }
        Request::Life { w, h, steps, seed } => {
            payload.push(5);
            payload.extend_from_slice(&w.to_be_bytes());
            payload.extend_from_slice(&h.to_be_bytes());
            payload.extend_from_slice(&steps.to_be_bytes());
            payload.extend_from_slice(&seed.to_be_bytes());
        }
        Request::MemTrace {
            pattern,
            accesses,
            seed,
        } => {
            payload.push(6);
            put_str(&mut payload, pattern);
            payload.extend_from_slice(&accesses.to_be_bytes());
            payload.extend_from_slice(&seed.to_be_bytes());
        }
    }
    finish_frame(payload)
}

/// Encodes an admin op (7–10) into complete on-wire bytes. Like the
/// stats ops, the header's class/priority/deadline bytes are zeros —
/// control frames never enter admission.
fn encode_ctl_op(id: u64, op: u8, token: &str, rest: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + token.len());
    payload.push(REQ_TAG);
    payload.extend_from_slice(&id.to_be_bytes());
    payload.push(0); // class (ignored)
    payload.push(0); // priority (ignored)
    payload.push(0); // no deadline
    payload.push(op);
    put_str(&mut payload, token);
    rest(&mut payload);
    finish_frame(payload)
}

/// Encodes a `CtlJoin` (op 7) request into complete on-wire bytes.
pub fn encode_ctl_join(id: u64, token: &str, addr: &str) -> Vec<u8> {
    encode_ctl_op(id, 7, token, |p| put_str(p, addr))
}

/// Encodes a `CtlDrain` (op 8) request into complete on-wire bytes.
pub fn encode_ctl_drain(id: u64, token: &str, backend: u32) -> Vec<u8> {
    encode_ctl_op(id, 8, token, |p| {
        p.extend_from_slice(&backend.to_be_bytes())
    })
}

/// Encodes a `CtlRemove` (op 9) request into complete on-wire bytes.
pub fn encode_ctl_remove(id: u64, token: &str, backend: u32) -> Vec<u8> {
    encode_ctl_op(id, 9, token, |p| {
        p.extend_from_slice(&backend.to_be_bytes())
    })
}

/// Encodes a `CtlView` (op 10) request into complete on-wire bytes.
pub fn encode_ctl_view(id: u64, token: &str) -> Vec<u8> {
    encode_ctl_op(id, 10, token, |_| {})
}

/// Encodes a stats (op 3) request into complete on-wire bytes. The
/// header's class/priority/deadline bytes are sent as zeros; the
/// server ignores them for this op.
pub fn encode_stats_request(id: u64) -> Vec<u8> {
    encode_stats_op(id, 3)
}

/// Encodes a machine-readable stats (op 4, `StatsFull`) request into
/// complete on-wire bytes. Same header shape as op 3.
pub fn encode_stats_full_request(id: u64) -> Vec<u8> {
    encode_stats_op(id, 4)
}

fn encode_stats_op(id: u64, op: u8) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    payload.push(REQ_TAG);
    payload.extend_from_slice(&id.to_be_bytes());
    payload.push(0); // class (ignored)
    payload.push(0); // priority (ignored)
    payload.push(0); // no deadline
    payload.push(op);
    finish_frame(payload)
}

/// Encodes a response frame into complete on-wire bytes (length prefix
/// included).
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32 + frame.body.len());
    payload.push(RESP_TAG);
    payload.extend_from_slice(&frame.id.to_be_bytes());
    payload.push(frame.status.code());
    payload.extend_from_slice(&frame.retry_after_ms.to_be_bytes());
    payload.extend_from_slice(&frame.backend.to_be_bytes());
    put_str(&mut payload, &frame.body);
    finish_frame(payload)
}

fn finish_frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// One-pass reader over a payload slice: every accessor checks bounds
/// and returns [`WireError::Truncated`] instead of slicing past the
/// end, and strings borrow straight from the input until the single
/// final copy into the frame.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::TooLarge { len });
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

/// Decodes one payload (the bytes after the length prefix) into a
/// [`Frame`]. Total: malformed input of any shape returns a typed
/// error, never panics, never over-reads.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cur = Cursor {
        buf: payload,
        pos: 0,
    };
    match cur.u8()? {
        REQ_TAG => {
            let id = cur.u64()?;
            let class = class_from_code(cur.u8()?)?;
            let priority = cur.u8()?;
            let deadline_budget_ms = match cur.u8()? {
                0 => None,
                _ => Some(cur.u64()?),
            };
            let req = match cur.u8()? {
                0 => Request::Grade {
                    submission: cur.str()?.to_owned(),
                },
                1 => {
                    let generator = cur.str()?.to_owned();
                    let seed = cur.u64()?;
                    Request::Homework { generator, seed }
                }
                2 => Request::Reproduce {
                    id: cur.str()?.to_owned(),
                },
                3 => {
                    // Stats carries no fields; class/priority/deadline
                    // were parsed (and are ignored) above.
                    cur.finish()?;
                    return Ok(Frame::Stats { id });
                }
                4 => {
                    cur.finish()?;
                    return Ok(Frame::StatsFull { id });
                }
                5 => {
                    let w = cur.u32()?;
                    let h = cur.u32()?;
                    let steps = cur.u32()?;
                    let seed = cur.u64()?;
                    Request::Life { w, h, steps, seed }
                }
                6 => {
                    let pattern = cur.str()?.to_owned();
                    let accesses = cur.u32()?;
                    let seed = cur.u64()?;
                    Request::MemTrace {
                        pattern,
                        accesses,
                        seed,
                    }
                }
                7 => {
                    let token = cur.str()?.to_owned();
                    let addr = cur.str()?.to_owned();
                    cur.finish()?;
                    return Ok(Frame::CtlJoin { id, token, addr });
                }
                8 => {
                    let token = cur.str()?.to_owned();
                    let backend = cur.u32()?;
                    cur.finish()?;
                    return Ok(Frame::CtlDrain { id, token, backend });
                }
                9 => {
                    let token = cur.str()?.to_owned();
                    let backend = cur.u32()?;
                    cur.finish()?;
                    return Ok(Frame::CtlRemove { id, token, backend });
                }
                10 => {
                    let token = cur.str()?.to_owned();
                    cur.finish()?;
                    return Ok(Frame::CtlView { id, token });
                }
                other => return Err(WireError::BadOp(other)),
            };
            cur.finish()?;
            Ok(Frame::Request(RequestFrame {
                id,
                class,
                priority,
                deadline_budget_ms,
                req,
            }))
        }
        RESP_TAG => {
            let id = cur.u64()?;
            let status = RespStatus::from_code(cur.u8()?)?;
            let retry_after_ms = cur.u64()?;
            let backend = cur.u32()?;
            let body = cur.str()?.to_owned();
            cur.finish()?;
            Ok(Frame::Response(ResponseFrame {
                id,
                status,
                retry_after_ms,
                backend,
                body,
            }))
        }
        other => Err(WireError::BadTag(other)),
    }
}

/// Reads one frame's payload from `r`. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; EOF mid-frame is an
/// [`io::ErrorKind::UnexpectedEof`] error, and a length prefix above
/// [`MAX_FRAME_LEN`] is [`io::ErrorKind::InvalidData`] — rejected
/// before any buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut len_buf[1..])?,
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge { len },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes pre-encoded frame bytes to `w` and flushes.
pub fn write_frame(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(bytes)?;
    w.flush()
}

/// Incremental frame reassembly for nonblocking readers: the reactor
/// feeds whatever bytes `read` returned — a 1-byte trickle or a dozen
/// coalesced frames — and pulls out complete payloads as they form.
/// The streaming sibling of [`read_frame`], with the same contract:
/// an oversized length prefix is rejected *before* any payload
/// allocation, and decoding is total (proptested against the one-shot
/// path in `tests/wire_props.rs`).
///
/// ```
/// use net::wire::{encode_stats_request, FrameAssembler};
///
/// let bytes = encode_stats_request(7);
/// let mut asm = FrameAssembler::new();
/// for b in &bytes {
///     asm.feed(std::slice::from_ref(b)); // 1-byte trickle
/// }
/// assert_eq!(asm.next_frame().unwrap(), Some(bytes[4..].to_vec()));
/// assert_eq!(asm.next_frame().unwrap(), None);
/// assert!(asm.at_boundary(), "no partial frame buffered");
/// ```
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Unconsumed stream bytes: a possibly-incomplete run of frames.
    buf: Vec<u8>,
    /// Start of the first unconsumed byte within `buf`; consumed bytes
    /// are compacted away in [`FrameAssembler::next_frame`] so `buf`
    /// never grows past one frame plus one read's worth of trailing
    /// bytes.
    pos: usize,
    /// Set once a feed-side error (an oversized length prefix) has been
    /// reported; the stream is desynchronized beyond repair, so every
    /// later call re-reports rather than misparsing from a wrong offset.
    poisoned: Option<WireError>,
}

impl FrameAssembler {
    /// An empty assembler at a frame boundary.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends freshly read stream bytes. Cheap; parsing happens in
    /// [`FrameAssembler::next_frame`].
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, if one has fully
    /// arrived. `Ok(None)` means "need more bytes". An oversized
    /// length prefix returns [`WireError::TooLarge`] before any
    /// payload allocation — and poisons the assembler, because after a
    /// framing error the byte offset of the next real frame is
    /// unknowable.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("4 bytes");
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            let err = WireError::TooLarge { len };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let payload = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        self.compact();
        Ok(Some(payload))
    }

    /// True when no partial frame is buffered — the state in which a
    /// peer's EOF is a *clean* close rather than a truncation. The
    /// reactor uses this to tell "client finished and hung up" from
    /// "connection died mid-frame".
    pub fn at_boundary(&self) -> bool {
        self.poisoned.is_none() && self.pos == self.buf.len()
    }

    /// Bytes currently buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drops consumed bytes once they dominate the buffer, keeping
    /// memory proportional to the unconsumed tail instead of the
    /// connection's lifetime byte count.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestFrame {
        RequestFrame {
            id: 7,
            class: JobClass::Interactive,
            priority: 160,
            deadline_budget_ms: Some(500),
            req: Request::Grade {
                submission: "main:\n  hlt\n".to_string(),
            },
        }
    }

    #[test]
    fn request_round_trips_through_the_codec() {
        let frame = sample_request();
        let bytes = encode_request(&frame);
        let (len_prefix, payload) = bytes.split_at(4);
        assert_eq!(
            u32::from_be_bytes(len_prefix.try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(decode_payload(payload), Ok(Frame::Request(frame)));
    }

    #[test]
    fn response_round_trips_through_the_codec() {
        let frame = ResponseFrame {
            id: 9,
            status: RespStatus::Shed,
            retry_after_ms: 12,
            backend: 2,
            body: "shed under load: retry later".to_string(),
        };
        let bytes = encode_response(&frame);
        assert_eq!(decode_payload(&bytes[4..]), Ok(Frame::Response(frame)));
    }

    #[test]
    fn stats_full_request_round_trips_through_the_codec() {
        let bytes = encode_stats_full_request(77);
        assert_eq!(decode_payload(&bytes[4..]), Ok(Frame::StatsFull { id: 77 }));
        // Op 4 shares the op-3 header; only the op byte differs.
        let op3 = encode_stats_request(77);
        assert_eq!(bytes.len(), op3.len());
        assert_eq!(&bytes[..bytes.len() - 1], &op3[..op3.len() - 1]);
    }

    #[test]
    fn memtrace_request_round_trips_through_the_codec() {
        let frame = RequestFrame {
            id: 12,
            class: JobClass::Batch,
            priority: 120,
            deadline_budget_ms: None,
            req: Request::MemTrace {
                pattern: "stride".to_string(),
                accesses: 4096,
                seed: 99,
            },
        };
        let bytes = encode_request(&frame);
        assert_eq!(decode_payload(&bytes[4..]), Ok(Frame::Request(frame)));
    }

    #[test]
    fn ctl_ops_round_trip_through_the_codec() {
        let cases: Vec<(Vec<u8>, Frame)> = vec![
            (
                encode_ctl_join(3, "hunter2", "127.0.0.1:7411"),
                Frame::CtlJoin {
                    id: 3,
                    token: "hunter2".to_string(),
                    addr: "127.0.0.1:7411".to_string(),
                },
            ),
            (
                encode_ctl_drain(4, "hunter2", 2),
                Frame::CtlDrain {
                    id: 4,
                    token: "hunter2".to_string(),
                    backend: 2,
                },
            ),
            (
                encode_ctl_remove(5, "", 7),
                Frame::CtlRemove {
                    id: 5,
                    token: String::new(),
                    backend: 7,
                },
            ),
            (
                encode_ctl_view(6, "hunter2"),
                Frame::CtlView {
                    id: 6,
                    token: "hunter2".to_string(),
                },
            ),
        ];
        for (bytes, want) in cases {
            assert_eq!(decode_payload(&bytes[4..]), Ok(want));
        }
        // Truncations of a ctl frame are typed errors, never panics.
        let bytes = encode_ctl_join(3, "tok", "127.0.0.1:1");
        for cut in 0..bytes.len() - 4 {
            assert!(decode_payload(&bytes[4..4 + cut]).is_err());
        }
    }

    #[test]
    fn stats_request_round_trips_through_the_codec() {
        let bytes = encode_stats_request(41);
        let (len_prefix, payload) = bytes.split_at(4);
        assert_eq!(
            u32::from_be_bytes(len_prefix.try_into().unwrap()) as usize,
            payload.len()
        );
        assert_eq!(decode_payload(payload), Ok(Frame::Stats { id: 41 }));
    }

    #[test]
    fn every_truncation_of_a_stats_frame_is_a_typed_error() {
        let bytes = encode_stats_request(41);
        let payload = &bytes[4..];
        for cut in 0..payload.len() {
            let err = decode_payload(&payload[..cut]).expect_err("truncation must not decode");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
        // Fields after the op byte are a framing bug, not silently eaten.
        let mut extra = bytes.clone();
        extra.push(0x00);
        let payload_len = (extra.len() - 4) as u32;
        extra[..4].copy_from_slice(&payload_len.to_be_bytes());
        assert_eq!(
            decode_payload(&extra[4..]),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_a_typed_error() {
        let bytes = encode_request(&sample_request());
        let payload = &bytes[4..];
        for cut in 0..payload.len() {
            let err = decode_payload(&payload[..cut]).expect_err("truncation must not decode");
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. } | WireError::TooLarge { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_response(&ResponseFrame {
            id: 1,
            status: RespStatus::Ok,
            retry_after_ms: 0,
            backend: 0,
            body: "done".to_string(),
        });
        bytes.push(0xFF);
        assert_eq!(
            decode_payload(&bytes[4..]),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tag_class_op_and_status_are_typed() {
        assert_eq!(decode_payload(&[0x00]), Err(WireError::BadTag(0x00)));
        // Request with class code 9.
        let mut bytes = encode_request(&sample_request());
        bytes[4 + 1 + 8] = 9;
        assert_eq!(decode_payload(&bytes[4..]), Err(WireError::BadClass(9)));
        // Response with status code 200.
        let mut bytes = encode_response(&ResponseFrame {
            id: 0,
            status: RespStatus::Ok,
            retry_after_ms: 0,
            backend: 0,
            body: String::new(),
        });
        bytes[4 + 1 + 8] = 200;
        assert_eq!(decode_payload(&bytes[4..]), Err(WireError::BadStatus(200)));
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_midframe_eof() {
        let bytes = encode_request(&sample_request());
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let mut r = &two[..];
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(
            read_frame(&mut r).unwrap().is_none(),
            "clean EOF is Ok(None)"
        );
        let mut cut = &bytes[..bytes.len() - 3];
        let first = read_frame(&mut cut).expect_err("mid-frame EOF must error");
        assert_eq!(first.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0xFF];
        bytes.extend_from_slice(b"junk");
        let mut r = &bytes[..];
        let err = read_frame(&mut r).expect_err("4 GiB claim must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn assembler_reassembles_coalesced_and_trickled_frames() {
        let a = encode_request(&sample_request());
        let b = encode_stats_request(41);
        // Both frames in one feed: two pulls, then boundary.
        let mut asm = FrameAssembler::new();
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        asm.feed(&joined);
        assert_eq!(asm.next_frame().unwrap().as_deref(), Some(&a[4..]));
        assert_eq!(asm.next_frame().unwrap().as_deref(), Some(&b[4..]));
        assert_eq!(asm.next_frame().unwrap(), None);
        assert!(asm.at_boundary());
        // Byte at a time: exactly one frame appears, at the last byte.
        let mut asm = FrameAssembler::new();
        let mut seen = 0;
        for byte in &a {
            asm.feed(std::slice::from_ref(byte));
            while asm.next_frame().unwrap().is_some() {
                seen += 1;
            }
        }
        assert_eq!(seen, 1);
        assert!(asm.at_boundary());
    }

    #[test]
    fn assembler_mid_frame_stop_is_not_a_boundary() {
        let a = encode_request(&sample_request());
        let mut asm = FrameAssembler::new();
        asm.feed(&a[..a.len() - 1]);
        assert_eq!(asm.next_frame().unwrap(), None);
        assert!(!asm.at_boundary(), "partial frame buffered");
        assert_eq!(asm.buffered(), a.len() - 1);
    }

    #[test]
    fn assembler_rejects_oversized_prefix_and_stays_poisoned() {
        let mut asm = FrameAssembler::new();
        asm.feed(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]);
        assert!(matches!(asm.next_frame(), Err(WireError::TooLarge { .. })));
        // The stream offset is unknowable now; later pulls re-report
        // instead of misparsing, and EOF here is not a clean boundary.
        asm.feed(&encode_stats_request(1));
        assert!(matches!(asm.next_frame(), Err(WireError::TooLarge { .. })));
        assert!(!asm.at_boundary());
    }

    #[test]
    fn meta_pins_the_budget_to_the_local_clock() {
        let frame = sample_request();
        let before = Instant::now();
        let meta = frame.meta();
        let deadline = meta.deadline.expect("budget present");
        let budget = deadline.duration_since(before);
        assert!(budget <= Duration::from_millis(501));
        assert!(budget >= Duration::from_millis(400));
        assert_eq!(meta.class, JobClass::Interactive);
        assert_eq!(meta.priority, 160);
    }
}
