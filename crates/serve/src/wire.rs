//! The `PLNRQRY1` compact binary protocol.
//!
//! A connection opens with the 8-byte magic `PLNRQRY1` (the server uses
//! it to tell binary clients from HTTP ones on the same port), then
//! carries a sequence of frames in each direction:
//!
//! ```text
//! | body_len u32 | kind u8 | body | crc64 u64 |      (integers LE)
//! ```
//!
//! The CRC-64/XZ seals everything before it (header + body) with the
//! shared [`planar_core::frame`] helpers — the same trailer the WAL
//! frames, snapshot sections, and replication messages use, so in-flight
//! corruption is detected the same way everywhere. `body_len` is bounded
//! by [`MAX_BODY`] before any allocation, so a corrupt length can neither
//! OOM the peer nor index past a buffer.
//!
//! Each frame is one buffer end to end. The encoders write a length
//! placeholder, the kind and the body into one `Vec`, patch the length
//! and append the seal; [`read_frame`] reads body and seal into one
//! `Vec`, checks the CRC over the stack header and that buffer, and
//! returns it truncated to the body. Nothing is zero-filled or copied a
//! second time. The read buffer starts at `min(body_len + 8, 64 KiB)` and
//! grows only as bytes arrive, so a header claiming [`MAX_BODY`] followed
//! by a stall or a hang-up costs the reader one chunk, not 16 MiB.
//! Counted arrays (`Matches` ids, `Neighbors` pairs, query coefficients)
//! decode in bulk from one length-checked slice.
//!
//! Requests carry the tenant (for admission control) and an optional
//! deadline budget in microseconds, measured from server receipt; the
//! deadline propagates into
//! [`planar_core::ExecutionConfig::with_deadline`], and answers the
//! engine could not start in time come back flagged `partial` — the
//! client-visible face of [`planar_core::ServedBy::Partial`].

use planar_core::frame::{seal_vec, Crc64, CRC_LEN};
use planar_core::{Cmp, ServedBy};
use std::io::{self, Read, Write};

/// Connection preamble identifying the binary protocol.
pub const MAGIC: &[u8; 8] = b"PLNRQRY1";

/// Frame header: body length + kind tag.
const FRAME_HEADER: usize = 4 + 1;
/// Hard bound on a frame body. Large enough for a 100k-id answer, small
/// enough that a corrupt length field cannot provoke a huge allocation.
pub const MAX_BODY: usize = 16 << 20;
/// Initial read buffer for a frame body: [`read_frame`] allocates at most
/// this much before any body byte arrives, then grows with the data.
const READ_CHUNK: usize = 64 << 10;

/// Request kinds.
const REQ_QUERY: u8 = 0x01;
const REQ_TOPK: u8 = 0x02;
const REQ_METRICS: u8 = 0x03;

/// Response kinds.
const RESP_MATCHES: u8 = 0x81;
const RESP_NEIGHBORS: u8 = 0x82;
const RESP_RETRY: u8 = 0x83;
const RESP_OVERLOAD: u8 = 0x84;
const RESP_ERROR: u8 = 0x85;
const RESP_METRICS: u8 = 0x86;

/// Provenance flag bits on answer responses.
const FLAG_PARTIAL: u8 = 0x1;
const FLAG_DEGRADED: u8 = 0x2;

/// Typed error codes on [`Response::Error`].
pub mod error_code {
    /// The request was malformed at the wire level (bad lengths, unknown
    /// comparison tag, …).
    pub const MALFORMED: u8 = 1;
    /// The query failed the engine's typed validation
    /// (`PlanarError::InvalidQuery` and friends) — a client error.
    pub const INVALID_QUERY: u8 = 2;
    /// The engine failed internally (worker panic, poisoned state).
    pub const INTERNAL: u8 = 3;
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// An inequality query: all points with `⟨a, φ(x)⟩ cmp b`.
    Query {
        /// Tenant for per-tenant admission quotas (0 = anonymous).
        tenant: u32,
        /// Deadline budget in µs from server receipt (0 = none).
        deadline_us: u32,
        /// Query coefficients.
        a: Vec<f64>,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold.
        b: f64,
    },
    /// A top-k query over the same predicate.
    TopK {
        /// Tenant for per-tenant admission quotas (0 = anonymous).
        tenant: u32,
        /// Deadline budget in µs from server receipt (0 = none).
        deadline_us: u32,
        /// Query coefficients.
        a: Vec<f64>,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold.
        b: f64,
        /// Neighbors requested.
        k: u32,
    },
    /// Fetch the metrics document (same payload as `GET /metrics`).
    Metrics,
}

/// Serving provenance summarized per response, as flag bits + a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Some shard's slot was a deadline placeholder: the answer is
    /// missing that shard's contribution (empty matches for fully
    /// skipped queries).
    pub partial: bool,
    /// Some shard served degraded (exact scan, every index quarantined).
    pub degraded: bool,
    /// Batch slots that completed before the deadline (meaningful when
    /// `partial`; equals the coalesced batch size otherwise).
    pub completed: u32,
}

impl Provenance {
    /// Summarize per-shard provenance into the wire form.
    pub fn from_served_by(served_by: &[ServedBy]) -> Self {
        let mut p = Provenance {
            partial: false,
            degraded: false,
            completed: 0,
        };
        for sb in served_by {
            match sb {
                ServedBy::Partial { completed, .. } => {
                    p.partial = true;
                    p.completed = *completed as u32;
                }
                ServedBy::Degraded => p.degraded = true,
                _ => {}
            }
        }
        p
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Inequality answer: matching global ids in the engine's canonical
    /// order (ascending shard, interval order within) — byte-identical
    /// to a direct `query_batch` call's `matches`.
    Matches {
        /// Matching ids.
        ids: Vec<u32>,
        /// Serving provenance.
        provenance: Provenance,
    },
    /// Top-k answer: `(id, distance)` ascending by `(distance, id)`,
    /// distances bit-exact (encoded via `f64::to_le_bytes`).
    Neighbors {
        /// Neighbors.
        neighbors: Vec<(u32, f64)>,
        /// Serving provenance.
        provenance: Provenance,
    },
    /// Admission control: the tenant's quota is exhausted — retry after
    /// the given backoff. Typed, not an error: overload degrades to
    /// explicit rejections, never to hangs.
    Retry {
        /// Suggested backoff before retrying, µs.
        retry_after_us: u32,
    },
    /// Admission control: the request queue is full — shed load.
    Overload {
        /// Queue depth observed at rejection.
        queue_depth: u32,
    },
    /// A typed per-request error (see [`error_code`]); the connection
    /// stays usable.
    Error {
        /// One of [`error_code`].
        code: u8,
        /// Human-readable message.
        message: String,
    },
    /// The metrics document (JSON text).
    Metrics {
        /// JSON payload.
        json: String,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `items` as fixed-width little-endian records of `W` bytes each:
/// one resize, then a straight copy loop the compiler can vectorize.
fn put_records<T: Copy, const W: usize>(buf: &mut Vec<u8>, items: &[T], le: impl Fn(T) -> [u8; W]) {
    let start = buf.len();
    buf.resize(start + items.len() * W, 0);
    for (dst, &item) in buf[start..].as_chunks_mut::<W>().0.iter_mut().zip(items) {
        *dst = le(item);
    }
}

fn cmp_tag(cmp: Cmp) -> u8 {
    match cmp {
        Cmp::Leq => 0,
        Cmp::Geq => 1,
    }
}

fn encode_predicate(buf: &mut Vec<u8>, tenant: u32, deadline_us: u32, a: &[f64], cmp: Cmp, b: f64) {
    put_u32(buf, tenant);
    put_u32(buf, deadline_us);
    buf.push(cmp_tag(cmp));
    put_f64(buf, b);
    put_u32(buf, a.len() as u32);
    put_records(buf, a, f64::to_le_bytes);
}

/// Start a frame: a length placeholder and the kind tag, with room for a
/// `body_cap`-byte body and the seal. The body is appended in place and
/// [`finish_frame`] patches the length, so the body is never copied.
fn begin_frame(kind: u8, body_cap: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + body_cap + CRC_LEN);
    out.extend_from_slice(&[0; 4]);
    out.push(kind);
    out
}

/// Patch the body length into a frame begun by [`begin_frame`] and seal it.
fn finish_frame(mut out: Vec<u8>) -> Vec<u8> {
    let body_len = out.len() - FRAME_HEADER;
    debug_assert!(body_len <= MAX_BODY);
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    seal_vec(&mut out);
    out
}

/// Encode a request into one sealed frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let out = match req {
        Request::Query {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
        } => {
            let mut out = begin_frame(REQ_QUERY, 21 + a.len() * 8);
            encode_predicate(&mut out, *tenant, *deadline_us, a, *cmp, *b);
            out
        }
        Request::TopK {
            tenant,
            deadline_us,
            a,
            cmp,
            b,
            k,
        } => {
            let mut out = begin_frame(REQ_TOPK, 25 + a.len() * 8);
            encode_predicate(&mut out, *tenant, *deadline_us, a, *cmp, *b);
            put_u32(&mut out, *k);
            out
        }
        Request::Metrics => begin_frame(REQ_METRICS, 0),
    };
    finish_frame(out)
}

/// Encode a response into one sealed frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let out = match resp {
        Response::Matches { ids, provenance } => {
            let mut out = begin_frame(RESP_MATCHES, 9 + ids.len() * 4);
            put_provenance(&mut out, provenance);
            put_u32(&mut out, ids.len() as u32);
            put_records(&mut out, ids, u32::to_le_bytes);
            out
        }
        Response::Neighbors {
            neighbors,
            provenance,
        } => {
            let mut out = begin_frame(RESP_NEIGHBORS, 9 + neighbors.len() * 12);
            put_provenance(&mut out, provenance);
            put_u32(&mut out, neighbors.len() as u32);
            put_records(&mut out, neighbors, |(id, dist): (u32, f64)| {
                let mut rec = [0; 12];
                rec[..4].copy_from_slice(&id.to_le_bytes());
                rec[4..].copy_from_slice(&dist.to_le_bytes());
                rec
            });
            out
        }
        Response::Retry { retry_after_us } => {
            let mut out = begin_frame(RESP_RETRY, 4);
            put_u32(&mut out, *retry_after_us);
            out
        }
        Response::Overload { queue_depth } => {
            let mut out = begin_frame(RESP_OVERLOAD, 4);
            put_u32(&mut out, *queue_depth);
            out
        }
        Response::Error { code, message } => {
            let mut out = begin_frame(RESP_ERROR, 5 + message.len());
            out.push(*code);
            put_u32(&mut out, message.len() as u32);
            out.extend_from_slice(message.as_bytes());
            out
        }
        Response::Metrics { json } => {
            let mut out = begin_frame(RESP_METRICS, 4 + json.len());
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
            out
        }
    };
    finish_frame(out)
}

fn put_provenance(buf: &mut Vec<u8>, p: &Provenance) {
    let mut flags = 0u8;
    if p.partial {
        flags |= FLAG_PARTIAL;
    }
    if p.degraded {
        flags |= FLAG_DEGRADED;
    }
    buf.push(flags);
    put_u32(buf, p.completed);
}

/// A cursor over a frame body with length-bounded reads.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.take(8)
            .map(|s| f64::from_le_bytes(s.try_into().unwrap()))
    }

    /// `n` fixed-width records of `W` bytes each, decoded in bulk by `f`.
    /// `None` when fewer than `n * W` bytes remain; the multiply is
    /// checked, so a corrupt count can neither wrap nor allocate before
    /// the bound is checked.
    fn records<T, const W: usize>(&mut self, n: usize, f: impl Fn([u8; W]) -> T) -> Option<Vec<T>> {
        let raw = self.take(n.checked_mul(W)?)?;
        Some(raw.as_chunks::<W>().0.iter().map(|&r| f(r)).collect())
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn parse_cmp(tag: u8) -> Option<Cmp> {
    match tag {
        0 => Some(Cmp::Leq),
        1 => Some(Cmp::Geq),
        _ => None,
    }
}

fn parse_predicate(c: &mut Cursor) -> Option<(u32, u32, Vec<f64>, Cmp, f64)> {
    let tenant = c.u32()?;
    let deadline_us = c.u32()?;
    let cmp = parse_cmp(c.u8()?)?;
    let b = c.f64()?;
    let dim = c.u32()? as usize;
    let a = c.records(dim, f64::from_le_bytes)?;
    Some((tenant, deadline_us, a, cmp, b))
}

/// Decode a request frame body. `None` means malformed.
pub fn decode_request(kind: u8, body: &[u8]) -> Option<Request> {
    let mut c = Cursor::new(body);
    let req = match kind {
        REQ_QUERY => {
            let (tenant, deadline_us, a, cmp, b) = parse_predicate(&mut c)?;
            Request::Query {
                tenant,
                deadline_us,
                a,
                cmp,
                b,
            }
        }
        REQ_TOPK => {
            let (tenant, deadline_us, a, cmp, b) = parse_predicate(&mut c)?;
            let k = c.u32()?;
            Request::TopK {
                tenant,
                deadline_us,
                a,
                cmp,
                b,
                k,
            }
        }
        REQ_METRICS => Request::Metrics,
        _ => return None,
    };
    c.done().then_some(req)
}

fn parse_provenance(c: &mut Cursor) -> Option<Provenance> {
    let flags = c.u8()?;
    let completed = c.u32()?;
    Some(Provenance {
        partial: flags & FLAG_PARTIAL != 0,
        degraded: flags & FLAG_DEGRADED != 0,
        completed,
    })
}

/// Decode a response frame body. `None` means malformed.
pub fn decode_response(kind: u8, body: &[u8]) -> Option<Response> {
    let mut c = Cursor::new(body);
    let resp = match kind {
        RESP_MATCHES => {
            let provenance = parse_provenance(&mut c)?;
            let n = c.u32()? as usize;
            let ids = c.records(n, u32::from_le_bytes)?;
            Response::Matches { ids, provenance }
        }
        RESP_NEIGHBORS => {
            let provenance = parse_provenance(&mut c)?;
            let n = c.u32()? as usize;
            let neighbors = c.records(n, |r: [u8; 12]| {
                let (id, dist) = r.split_at(4);
                (
                    u32::from_le_bytes(id.try_into().expect("4-byte id")),
                    f64::from_le_bytes(dist.try_into().expect("8-byte distance")),
                )
            })?;
            Response::Neighbors {
                neighbors,
                provenance,
            }
        }
        RESP_RETRY => Response::Retry {
            retry_after_us: c.u32()?,
        },
        RESP_OVERLOAD => Response::Overload {
            queue_depth: c.u32()?,
        },
        RESP_ERROR => {
            let code = c.u8()?;
            let len = c.u32()? as usize;
            let message = String::from_utf8(c.take(len)?.to_vec()).ok()?;
            Response::Error { code, message }
        }
        RESP_METRICS => {
            let len = c.u32()? as usize;
            let json = String::from_utf8(c.take(len)?.to_vec()).ok()?;
            Response::Metrics { json }
        }
        _ => return None,
    };
    c.done().then_some(resp)
}

/// Read one frame off a stream: `Ok(Some((kind, body)))` on a sealed,
/// length-bounded frame; `Ok(None)` on clean EOF at a frame boundary;
/// `Err` on I/O failure, an oversized length, a stream that ends inside
/// the frame (`UnexpectedEof`), or a CRC mismatch (the connection is then
/// unusable — framing is lost).
///
/// Single copy: body and seal are read into one buffer, the CRC runs over
/// the stack header and then that buffer, and the buffer is truncated to
/// the body and returned. The buffer starts at no more than one 64 KiB
/// read chunk and grows only as bytes actually arrive, so a
/// header that claims [`MAX_BODY`] and then stalls or hangs up costs the
/// peer at most about a chunk of memory, not 16 MiB.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let body_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let kind = header[4];
    if body_len > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body_len} bytes exceeds the {MAX_BODY} bound"),
        ));
    }
    let want = body_len + CRC_LEN;
    let mut buf = Vec::with_capacity(want.min(READ_CHUNK));
    r.take(want as u64).read_to_end(&mut buf)?;
    if buf.len() < want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF inside a frame body",
        ));
    }
    let stored = u64::from_le_bytes(
        buf[body_len..]
            .try_into()
            .expect("take() bounds the buffer to body + seal"),
    );
    let mut crc = Crc64::new();
    crc.update(&header);
    crc.update(&buf[..body_len]);
    if crc.finish() != stored {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame failed its CRC",
        ));
    }
    buf.truncate(body_len);
    Ok(Some((kind, buf)))
}

/// Write one pre-encoded frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip_request(req: Request) {
        let frame = encode_request(&req);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(decode_request(kind, &body), Some(req));
    }

    fn round_trip_response(resp: Response) {
        let frame = encode_response(&resp);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(decode_response(kind, &body), Some(resp));
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            tenant: 7,
            deadline_us: 250,
            a: vec![1.0, -2.5, f64::MIN_POSITIVE],
            cmp: Cmp::Leq,
            b: 9.25,
        });
        round_trip_request(Request::TopK {
            tenant: 0,
            deadline_us: 0,
            a: vec![0.5; 16],
            cmp: Cmp::Geq,
            b: -3.0,
            k: 12,
        });
        round_trip_request(Request::Metrics);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Matches {
            ids: vec![3, 1, 4, 1_000_000],
            provenance: Provenance {
                partial: true,
                degraded: false,
                completed: 17,
            },
        });
        round_trip_response(Response::Neighbors {
            neighbors: vec![(9, 0.125), (2, f64::MAX)],
            provenance: Provenance::default(),
        });
        round_trip_response(Response::Retry { retry_after_us: 42 });
        round_trip_response(Response::Overload { queue_depth: 512 });
        round_trip_response(Response::Error {
            code: error_code::INVALID_QUERY,
            message: "zero coefficient on axis 2".into(),
        });
        round_trip_response(Response::Metrics {
            json: "{\"count\":0}".into(),
        });
    }

    #[test]
    fn distances_are_bit_exact() {
        let vals = [0.1 + 0.2, f64::MIN_POSITIVE, 1e-300, 1.0 / 3.0];
        let resp = Response::Neighbors {
            neighbors: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u32, v))
                .collect(),
            provenance: Provenance::default(),
        };
        let frame = encode_response(&resp);
        let mut r = io::Cursor::new(frame);
        let (kind, body) = read_frame(&mut r).unwrap().unwrap();
        let Some(Response::Neighbors { neighbors, .. }) = decode_response(kind, &body) else {
            panic!("wrong variant");
        };
        for (got, want) in neighbors.iter().zip(&vals) {
            assert_eq!(got.1.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let frame = encode_request(&Request::Metrics);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            let mut r = io::Cursor::new(bad);
            match read_frame(&mut r) {
                Err(_) => {}
                Ok(Some((kind, body))) => {
                    // A flip inside the length header can still parse as a
                    // longer/shorter frame only if the CRC also matched —
                    // impossible for a single flip, so anything that
                    // decodes must be a *different* frame. Reject it at
                    // the decode layer instead.
                    assert!(
                        decode_request(kind, &body).is_none(),
                        "flip at {i} produced a valid frame"
                    );
                }
                Ok(None) => {}
            }
        }
    }

    #[test]
    fn truncated_stream_is_eof_not_a_frame() {
        let frame = encode_request(&Request::Metrics);
        let mut r = io::Cursor::new(frame[..frame.len() - 1].to_vec());
        assert!(read_frame(&mut r).is_err());
        let mut empty = io::Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_bounded() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        bad.push(REQ_QUERY);
        let mut r = io::Cursor::new(bad);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Frames recorded from the per-element encoder that the single-buffer
    /// one replaced. They pin the protocol: any byte that moves here breaks
    /// every deployed client or server.
    fn golden_frames() -> Vec<(&'static str, Vec<u8>, &'static str)> {
        vec![
            (
                "matches",
                encode_response(&Response::Matches {
                    ids: vec![3, 1, 4, 1_000_000, u32::MAX],
                    provenance: Provenance {
                        partial: true,
                        degraded: false,
                        completed: 17,
                    },
                }),
                "1d0000008101110000000500000003000000010000000400000040420f00\
                 ffffffff5ab1497b209d152e",
            ),
            (
                "neighbors",
                encode_response(&Response::Neighbors {
                    neighbors: vec![
                        (9, 0.125),
                        (2, -0.0),
                        (7, f64::from_bits(0x7ff8_0000_0000_0001)),
                        (0, f64::from_bits(1)),
                    ],
                    provenance: Provenance {
                        partial: false,
                        degraded: true,
                        completed: 3,
                    },
                }),
                "390000008202030000000400000009000000000000000000c03f02000000\
                 000000000000008007000000010000000000f87f00000000010000000000\
                 00000afd89ba58e88b79",
            ),
            (
                "topk",
                encode_request(&Request::TopK {
                    tenant: 7,
                    deadline_us: 250,
                    a: vec![1.0, -2.5],
                    cmp: Cmp::Geq,
                    b: 9.25,
                    k: 12,
                }),
                "290000000207000000fa00000001000000000080224002000000000000\
                 000000f03f00000000000004c00c000000757113e00ae33280",
            ),
        ]
    }

    #[test]
    fn encoders_emit_the_pinned_bytes() {
        for (name, frame, hex) in golden_frames() {
            assert_eq!(frame, unhex(hex), "{name} frame drifted");
        }
    }

    /// Every strict prefix of a valid body, and the body plus one byte,
    /// must decode to `None` — never a value, never a panic.
    fn assert_exact_length(kind: u8, body: &[u8], decodes: impl Fn(u8, &[u8]) -> bool) {
        assert!(decodes(kind, body), "the full body decodes");
        for cut in 0..body.len() {
            assert!(
                !decodes(kind, &body[..cut]),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = body.to_vec();
        long.push(0);
        assert!(!decodes(kind, &long), "body one byte long decoded");
    }

    fn body_of(frame: &[u8]) -> (u8, Vec<u8>) {
        read_frame(&mut &frame[..]).unwrap().unwrap()
    }

    #[test]
    fn every_kind_rejects_a_body_one_byte_short_or_long() {
        let is_resp = |kind: u8, body: &[u8]| decode_response(kind, body).is_some();
        let is_req = |kind: u8, body: &[u8]| decode_request(kind, body).is_some();
        for (_, frame, _) in golden_frames() {
            let (kind, body) = body_of(&frame);
            if kind & 0x80 != 0 {
                assert_exact_length(kind, &body, is_resp);
            } else {
                assert_exact_length(kind, &body, is_req);
            }
        }
        for resp in [
            Response::Retry { retry_after_us: 9 },
            Response::Overload { queue_depth: 3 },
            Response::Error {
                code: error_code::MALFORMED,
                message: "bad".into(),
            },
            Response::Metrics { json: "{}".into() },
        ] {
            let (kind, body) = body_of(&encode_response(&resp));
            assert_exact_length(kind, &body, is_resp);
        }
        let (kind, body) = body_of(&encode_request(&Request::Query {
            tenant: 1,
            deadline_us: 2,
            a: vec![0.5, 4.0, -1.0],
            cmp: Cmp::Leq,
            b: 3.0,
        }));
        assert_exact_length(kind, &body, is_req);
    }

    /// `f64`s weighted toward the values a lossy codec would mangle.
    fn tricky_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => any::<u64>().prop_map(f64::from_bits),
            1 => Just(-0.0),
            1 => (1..(1u64 << 52)).prop_map(|m| f64::from_bits(0x7ff0_0000_0000_0000 | m)),
            1 => (1..(1u64 << 52)).prop_map(|m| f64::from_bits((1 << 63) | m)),
            1 => (1..(1u64 << 52)).prop_map(f64::from_bits),
        ]
    }

    fn provenance() -> impl Strategy<Value = Provenance> {
        (any::<bool>(), any::<bool>(), any::<u32>()).prop_map(|(partial, degraded, completed)| {
            Provenance {
                partial,
                degraded,
                completed,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_round_trip(
            ids in prop::collection::vec(any::<u32>(), 0..=100_000),
            provenance in provenance(),
        ) {
            let resp = Response::Matches { ids, provenance };
            let (kind, body) = body_of(&encode_response(&resp));
            prop_assert_eq!(decode_response(kind, &body), Some(resp));
            prop_assert!(decode_response(kind, &body[..body.len() - 1]).is_none());
        }

        #[test]
        fn neighbors_round_trip_bit_exact(
            neighbors in prop::collection::vec((any::<u32>(), tricky_f64()), 0..=2_000),
            provenance in provenance(),
        ) {
            let resp = Response::Neighbors { neighbors: neighbors.clone(), provenance };
            let (kind, body) = body_of(&encode_response(&resp));
            let Some(Response::Neighbors { neighbors: got, provenance: p }) =
                decode_response(kind, &body)
            else {
                panic!("neighbors frame did not decode");
            };
            prop_assert_eq!(p, provenance);
            let bits = |v: &[(u32, f64)]| v.iter().map(|&(id, d)| (id, d.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&neighbors));
            let mut long = body.clone();
            long.push(0);
            prop_assert!(decode_response(kind, &long).is_none());
        }
    }

    #[test]
    fn predicate_dim_is_length_bounded() {
        // A body claiming 2^29 coefficients with no bytes behind it must
        // fail before allocating.
        let mut body = Vec::new();
        put_u32(&mut body, 0);
        put_u32(&mut body, 0);
        body.push(0);
        put_f64(&mut body, 1.0);
        put_u32(&mut body, 1 << 29);
        assert_eq!(decode_request(REQ_QUERY, &body), None);
    }
}
