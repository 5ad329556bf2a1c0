//! The benchmark's own load generator: a closed loop from one thread
//! over one connection per phase. It speaks `net::wire` directly and
//! times each request itself, so `net::loadgen` (code under test) is
//! never on the measuring path.

use crate::gen::{Kind, Spec};
use crate::host;
use crate::trace::{Span, Spans};
use net::wire::{decode_payload, encode_request, read_frame, Frame, RespStatus, ResponseFrame};
use serve::pool::JobClass;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A response that takes longer than this means the server lost it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// FNV-1a over a response body, to compare bodies across levels
/// without keeping them.
pub fn body_hash(body: &str) -> u64 {
    body.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("configure socket: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("connection broken on send: {e}"))
    }

    fn recv(&mut self) -> Result<Vec<u8>, String> {
        match read_frame(&mut self.reader) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err("connection closed".to_string()),
            Err(e) => Err(format!("connection broken: {e}")),
        }
    }
}

fn decode_response(payload: &[u8]) -> Result<ResponseFrame, String> {
    match decode_payload(payload) {
        Ok(Frame::Response(r)) => Ok(r),
        Ok(other) => Err(format!("expected a response frame, got {other:?}")),
        Err(e) => Err(format!("undecodable response: {e}")),
    }
}

/// One request of a closed loop. `tag` is the caller's index for it;
/// `expect_hash`, when set, is the body every answer must hash to.
pub struct Item {
    pub tag: u32,
    pub spec: Spec,
    pub expect_hash: Option<u64>,
}

/// One answered request.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub tag: u32,
    pub kind: Kind,
    pub class: JobClass,
    pub status: RespStatus,
    /// Answered this many ns after it was sent.
    pub latency_ns: u64,
    /// Answered this many ns after the phase began.
    pub end_ns: u64,
    pub body_hash: u64,
    pub backend: u32,
    pub req_bytes: u32,
    pub resp_bytes: u32,
}

/// The result of one closed-loop phase; its answers went to the sink.
pub struct Closed {
    pub elapsed: Duration,
    /// CPU the generating thread used during the phase.
    pub client_cpu_us: u64,
}

/// Checks an answered request: it must be OK (computed or cached), its
/// body must match its request and, when known, the body every other
/// level returned for it. No workload here loads a server past what it
/// admits, so an error, retry, shed or go-away answer is a violation.
fn check_answer(spec: &Spec, resp: &ResponseFrame, expect_hash: Option<u64>) -> Result<(), String> {
    if !matches!(resp.status, RespStatus::Ok | RespStatus::OkCached) {
        return Err(format!(
            "{} answered {:?}, not OK: {:?}",
            spec.kind.label(),
            resp.status,
            resp.body
        ));
    }
    spec.check_body(&resp.body)?;
    if let Some(want) = expect_hash {
        if body_hash(&resp.body) != want {
            return Err(format!(
                "{} body differs from the one another level returned: {:?}",
                spec.kind.label(),
                resp.body
            ));
        }
    }
    Ok(())
}

/// Keeps `window` requests outstanding on `conn` until `next` runs dry
/// or `stop_at` passes, then waits for every answer, handing each to
/// `sink`. An answer that fails [`check_answer`] (after the sink has
/// seen it), or a connection that breaks, ends the phase with an error.
pub fn closed_loop(
    conn: &mut Conn,
    window: usize,
    stop_at: Option<Instant>,
    mut next: impl FnMut() -> Option<Item>,
    mut sink: impl FnMut(Record),
    mut spans: Option<&mut Spans>,
) -> Result<Closed, String> {
    struct InFlight {
        id: u64,
        item: Item,
        sent_ns: u64,
        req_bytes: u32,
    }
    let cpu0 = host::thread_cpu_us();
    let t0 = Instant::now();
    let mut in_flight: Vec<InFlight> = Vec::with_capacity(window);
    let mut next_id = 0u64;
    let mut exhausted = false;
    loop {
        while !exhausted && in_flight.len() < window {
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                exhausted = true;
                break;
            }
            let Some(item) = next() else {
                exhausted = true;
                break;
            };
            next_id += 1;
            let sent_ns = ns_since(t0);
            let bytes = encode_request(&item.spec.frame(next_id));
            if let Some(spans) = spans.as_deref_mut() {
                spans.child(next_id, "encode_request", sent_ns, ns_since(t0));
            }
            conn.send(&bytes)?;
            in_flight.push(InFlight {
                id: next_id,
                item,
                sent_ns,
                req_bytes: bytes.len() as u32,
            });
        }
        if in_flight.is_empty() {
            break;
        }
        let payload = conn
            .recv()
            .map_err(|e| format!("{e} with {} requests unanswered", in_flight.len()))?;
        let decode_start = ns_since(t0);
        let resp = decode_response(&payload)?;
        let end_ns = ns_since(t0);
        let pos = in_flight
            .iter()
            .position(|f| f.id == resp.id)
            .ok_or_else(|| format!("response for unknown request id {}", resp.id))?;
        let done = in_flight.swap_remove(pos);
        if let Some(spans) = spans.as_deref_mut() {
            spans.child(done.id, "decode_payload", decode_start, end_ns);
            spans.root(Span::request(
                done.id,
                &done.item.spec,
                done.sent_ns,
                end_ns,
                resp.status,
            ));
        }
        sink(Record {
            tag: done.item.tag,
            kind: done.item.spec.kind,
            class: done.item.spec.class,
            status: resp.status,
            latency_ns: end_ns - done.sent_ns,
            end_ns,
            body_hash: body_hash(&resp.body),
            backend: resp.backend,
            req_bytes: done.req_bytes,
            resp_bytes: payload.len() as u32 + 4,
        });
        check_answer(&done.item.spec, &resp, done.item.expect_hash)?;
    }
    Ok(Closed {
        elapsed: t0.elapsed(),
        client_cpu_us: host::thread_cpu_us() - cpu0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(status: RespStatus, body: &str) -> ResponseFrame {
        ResponseFrame {
            id: 1,
            status,
            retry_after_ms: 0,
            backend: 0,
            body: body.to_string(),
        }
    }

    #[test]
    fn only_an_ok_answer_with_the_expected_body_passes() {
        let spec = crate::gen::life(Kind::Life, 16, 8, 3);
        let body = "life 16x16 seed 3: 8 steps, population 40\n";
        for status in [RespStatus::Ok, RespStatus::OkCached] {
            assert_eq!(check_answer(&spec, &answer(status, body), None), Ok(()));
        }
        let hash = body_hash(body);
        assert_eq!(
            check_answer(&spec, &answer(RespStatus::Ok, body), Some(hash)),
            Ok(())
        );
        assert!(check_answer(&spec, &answer(RespStatus::Ok, body), Some(hash ^ 1)).is_err());
        let wrong = "life 16x16 seed 4: 8 steps, population 40\n";
        assert!(check_answer(&spec, &answer(RespStatus::Ok, wrong), None).is_err());
        for status in [
            RespStatus::Error,
            RespStatus::Retry,
            RespStatus::Shed,
            RespStatus::GoAway,
        ] {
            assert!(
                check_answer(&spec, &answer(status, body), None).is_err(),
                "{status:?} must fail the gate"
            );
        }
    }
}
