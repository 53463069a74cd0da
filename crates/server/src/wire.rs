//! The wire protocol shared by `ld-server` and `ld-client`.
//!
//! Everything is little-endian and length-prefixed (see
//! docs/PROTOCOL.md for the full specification):
//!
//! ```text
//! frame    := len:u32 payload[len]
//! request  := opcode:u8 body
//! response := status:u8 body          status 0 = ok, 1 = error
//! ```
//!
//! An error response's body is one UTF-8 string (`str32`: u32 length +
//! bytes) carrying the server-side error rendering. The protocol is
//! deliberately dumb: no negotiation, no compression, no pipelining —
//! one outstanding request per connection, which keeps the session
//! state machine (and its crash-reconciliation story) checkable.
//!
//! A transaction is one request, [`op::COMMIT`]: its program travels in
//! the frame and the server runs it in one ARU as it reads it. No ARU
//! outlives its request. Every other request has a fixed shape, and
//! bytes left over after a request's fields are an error.

use std::io::{self, Read, Write};

/// Upper bound on a frame's payload: every response, and every request
/// but [`op::COMMIT`], which is read as it runs and bounded by its `u32`
/// length only. Large enough for a `READ` answer at the biggest
/// supported block size; small enough that a corrupt length prefix
/// cannot make a peer allocate gigabytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// Protocol opcodes (request payloads are documented in
/// docs/PROTOCOL.md). Numbers 2, 7 and 12 are retired: the server
/// answers them, like any opcode it does not serve, with an error, and
/// no new opcode may reuse them.
pub mod op {
    /// `client_id:u64 generation:u64` — must be the session's first
    /// request (except [`STATS`]); registers the client incarnation.
    /// Answers `floor:u64`, the highest write id applied under
    /// `generation` (0 for a new client or a raised generation).
    pub const HELLO: u8 = 1;
    /// A [`COMMIT`] program op with no fields: the new list takes the
    /// next slot.
    pub const NEW_LIST: u8 = 3;
    /// A [`COMMIT`] program op, `list:ref pred:ref` (see
    /// [`reference`](super::reference); pred id 0 = front): the new
    /// block takes the next slot.
    pub const NEW_BLOCK: u8 = 4;
    /// A [`COMMIT`] program op, `block:ref len:u32 data[len]`.
    pub const WRITE: u8 = 5;
    /// `block:u64` — simple-context read of one block.
    pub const READ: u8 = 6;
    /// Retired: ended an ARU that a session held open across requests.
    /// The server does not serve it; the number stays reserved, and
    /// `benchmark/src/report.rs` still encodes it.
    pub const END_ARU: u8 = 7;
    /// no body — group-committed durability barrier.
    pub const FLUSH: u8 = 8;
    /// no body — returns the observability snapshot as JSON. Allowed
    /// before `HELLO` so monitoring needs no client identity.
    pub const STATS: u8 = 9;
    /// `write_id:u64` — settles `write_id` against the session client's
    /// row (the reconnect reconciliation step). Answers
    /// `answer:u8 generation:u64 stamp:u64` ([`answer`](super::answer)).
    pub const LOOKUP: u8 = 10;
    /// `list:u64` — block ids of a committed list, in list order.
    pub const LIST_BLOCKS: u8 = 11;
    /// `flags:u8 write_id:u64 n:u32` then a program of `n` ops, each a
    /// [`NEW_LIST`], [`NEW_BLOCK`] or [`WRITE`] tag and its fields. The
    /// server runs the program in one fresh ARU as it reads it and
    /// commits the ARU under `flags` ([`flag`](super::flag)) and
    /// `write_id` (meaningful only when tagged); on any error it aborts
    /// the ARU and drains the frame. A tagged program runs only as the
    /// client's next write id: any other is settled before an ARU
    /// begins, and its frame drained unread. Answers `answer:u8
    /// generation:u64 stamp:u64 n:u32 id:u64 × n`
    /// ([`answer`](super::answer)): the identifiers minted, in slot
    /// order (none unless it ran).
    pub const COMMIT: u8 = 13;
}

/// How a [`op::COMMIT`] program names a list or block: `kind:u8` and
/// then the kind's field.
pub mod reference {
    /// `id:u64` — an identifier that exists before the program.
    pub const ID: u8 = 0;
    /// `slot:u32` — the identifier minted by the program's allocation
    /// number `slot` (counted from 0), which must come earlier and be
    /// of the kind wanted.
    pub const SLOT: u8 = 1;
}

/// `COMMIT` flag bits.
pub mod flag {
    /// Follow the commit with a group-committed flush (durable ack).
    pub const SYNC: u8 = 1;
    /// The commit carries a `(client, generation, write_id)`
    /// idempotency tag; the server settles it against the client's row
    /// ([`answer`](super::answer)).
    pub const TAGGED: u8 = 2;
}

/// How a tagged `COMMIT`'s or a `LOOKUP`'s write id `w` settled against
/// the client's row: the answer's first byte, before `generation:u64
/// stamp:u64` (docs/PROTOCOL.md, "Exactly-once tagged commits").
pub mod answer {
    /// `w == floor + 1`: a `COMMIT` ran it (`stamp`: its commit
    /// timestamp), a `LOOKUP` finds it not applied (`stamp`: the floor).
    pub const NEXT: u8 = 0;
    /// `w == floor`: applied; `stamp` is its commit timestamp.
    pub const APPLIED: u8 = 1;
    /// `w < floor`: applied, its outcome superseded; `stamp`: the floor.
    pub const SUPERSEDED: u8 = 2;
    /// `w > floor + 1`: not applied, and refused; `stamp`: the floor.
    pub const OUT_OF_SEQUENCE: u8 = 3;
}

/// Response status bytes.
pub mod status {
    /// Request succeeded; body is the op-specific response.
    pub const OK: u8 = 0;
    /// Request failed; body is a `str32` error message.
    pub const ERR: u8 = 1;
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// I/O errors; `InvalidData` if `payload` exceeds [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the connection between requests).
///
/// # Errors
///
/// I/O errors (including `UnexpectedEof` mid-frame); `InvalidData` for
/// a length prefix above [`MAX_FRAME`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Appends a `str32` (u32 length + UTF-8 bytes) to `buf`.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor-style reader over a frame's payload.
#[derive(Debug)]
pub struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    /// Wraps `buf` for sequential decoding.
    pub fn new(buf: &'a [u8]) -> Body<'a> {
        Body { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated message body",
            )),
        }
    }

    /// Decodes one `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decodes one little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Decodes one little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Returns everything not yet decoded (e.g. a write's data).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Decodes a `str32`.
    pub fn str32(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn body_decoding() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&99u64.to_le_bytes());
        put_str(&mut buf, "xy");
        buf.extend_from_slice(b"tail");
        let mut b = Body::new(&buf);
        assert_eq!(b.u8().unwrap(), 7);
        assert_eq!(b.u32().unwrap(), 3);
        assert_eq!(b.u64().unwrap(), 99);
        assert_eq!(b.str32().unwrap(), "xy");
        assert_eq!(b.rest(), b"tail");
        assert!(b.u8().is_err());
    }
}
