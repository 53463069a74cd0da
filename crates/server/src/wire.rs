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
//! the frame and the server runs it as it reads it. The interactive
//! opcodes ([`op::BEGIN_ARU`] … [`op::END_ARU`]) drive an ARU one
//! request per operation; `ld-client` does not send them.

use std::io::{self, Read, Write};

/// Upper bound on the payload of a frame that is held whole: every
/// response, and every request but [`op::COMMIT`], which is read as it
/// runs and bounded by its `u32` length only. Large enough for a block
/// write at the biggest supported block size plus headers; small enough
/// that a corrupt length prefix cannot make a peer allocate gigabytes.
pub const MAX_FRAME: u32 = 1 << 20;

/// Protocol opcodes (request payloads are documented in
/// docs/PROTOCOL.md).
pub mod op {
    /// `client_id:u64 generation:u64` — must be the session's first
    /// request (except [`STATS`]); registers the client incarnation.
    pub const HELLO: u8 = 1;
    /// no body — opens an ARU owned by this session (interactive).
    pub const BEGIN_ARU: u8 = 2;
    /// `aru:u64` (0 = simple context). In a [`COMMIT`] program: no
    /// fields, and the new list takes the next slot.
    pub const NEW_LIST: u8 = 3;
    /// `aru:u64 list:u64 pred:u64` (pred 0 = front of the list). In a
    /// [`COMMIT`] program: `list:ref pred:ref` (see
    /// [`reference`](super::reference); pred id 0 = front), and the new
    /// block takes the next slot.
    pub const NEW_BLOCK: u8 = 4;
    /// `aru:u64 block:u64 data:[u8]` (data runs to the frame end). In a
    /// [`COMMIT`] program: `block:ref len:u32 data[len]`.
    pub const WRITE: u8 = 5;
    /// `block:u64` — simple-context read of one block.
    pub const READ: u8 = 6;
    /// `aru:u64 flags:u8 write_id:u64` (flags: [`flag::SYNC`],
    /// [`flag::TAGGED`]; write_id meaningful only when tagged) —
    /// commits an interactive ARU.
    ///
    /// [`flag::SYNC`]: super::flag::SYNC
    /// [`flag::TAGGED`]: super::flag::TAGGED
    pub const END_ARU: u8 = 7;
    /// no body — group-committed durability barrier.
    pub const FLUSH: u8 = 8;
    /// no body — returns the observability snapshot as JSON. Allowed
    /// before `HELLO` so monitoring needs no client identity.
    pub const STATS: u8 = 9;
    /// `write_id:u64` — looks up the session client's recorded commit
    /// outcome (the reconnect reconciliation step).
    pub const LOOKUP: u8 = 10;
    /// `aru:u64 list:u64` — block ids of `list`, in list order.
    pub const LIST_BLOCKS: u8 = 11;
    /// `aru:u64` — aborts an ARU owned by this session.
    pub const ABORT_ARU: u8 = 12;
    /// `flags:u8 write_id:u64 n:u32` then a program of `n` ops, each a
    /// [`NEW_LIST`], [`NEW_BLOCK`] or [`WRITE`] tag and its fields. The
    /// server runs the program in one fresh ARU as it reads it and ends
    /// the ARU as [`END_ARU`] does; on any error it aborts the ARU and
    /// drains the frame. Answers `deduped:u8 generation:u64
    /// commit_ts:u64 n:u32 id:u64 × n`: the identifiers minted, in slot
    /// order (none when deduped).
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

/// `END_ARU` and `COMMIT` flag bits.
pub mod flag {
    /// Follow the commit with a group-committed flush (durable ack).
    pub const SYNC: u8 = 1;
    /// The commit carries a `(client, generation, write_id)`
    /// idempotency tag; the server answers retries from the dedup
    /// cache.
    pub const TAGGED: u8 = 2;
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

/// Cursor-style reader over a request/response body.
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
