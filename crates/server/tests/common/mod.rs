//! Raw wire helpers for the tests that speak the protocol without
//! `ld-client`: a handshake, a request/response exchange, and a
//! `COMMIT` encoder that can also write what no client writes.

#![allow(dead_code)]

use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

use ld_server::wire::{self, op, reference, status};

/// A list or block as a program names it. `Kind` writes an arbitrary
/// kind byte in front of an 8-byte field.
#[derive(Debug, Clone, Copy)]
pub enum Ref {
    Id(u64),
    Slot(u32),
    Kind(u8, u64),
}

/// One op of a `COMMIT` program. `Raw` writes its bytes as they are.
#[derive(Debug, Clone)]
pub enum Op {
    NewList,
    NewBlock(Ref, Ref),
    Write(Ref, Vec<u8>),
    Raw(Vec<u8>),
}

fn put_ref(out: &mut Vec<u8>, r: Ref) {
    match r {
        Ref::Id(id) => {
            out.push(reference::ID);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Ref::Slot(slot) => {
            out.push(reference::SLOT);
            out.extend_from_slice(&slot.to_le_bytes());
        }
        Ref::Kind(kind, v) => {
            out.push(kind);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// The payload of a `COMMIT` that declares `n` ops and carries `ops`.
pub fn commit_payload(flags: u8, write_id: u64, n: u32, ops: &[Op]) -> Vec<u8> {
    let mut out = vec![op::COMMIT, flags];
    out.extend_from_slice(&write_id.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    for o in ops {
        match o {
            Op::NewList => out.push(op::NEW_LIST),
            Op::NewBlock(list, pred) => {
                out.push(op::NEW_BLOCK);
                put_ref(&mut out, *list);
                put_ref(&mut out, *pred);
            }
            Op::Write(block, data) => {
                out.push(op::WRITE);
                put_ref(&mut out, *block);
                out.extend_from_slice(&(data.len() as u32).to_le_bytes());
                out.extend_from_slice(data);
            }
            Op::Raw(bytes) => out.extend_from_slice(bytes),
        }
    }
    out
}

/// `payload` behind its length prefix, with no `MAX_FRAME` check.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// Connects and says `HELLO` as `(client, 1)`.
pub fn connect_raw(addr: &str, client: u64) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut hello = vec![op::HELLO];
    hello.extend_from_slice(&client.to_le_bytes());
    hello.extend_from_slice(&1u64.to_le_bytes());
    let resp = exchange(&mut s, &frame(&hello)).unwrap();
    assert_eq!(resp[0], status::OK, "hello refused");
    s
}

/// Sends `bytes` (whole frames) and reads one response frame; `None`
/// if the connection is closed or fails.
pub fn exchange(s: &mut TcpStream, bytes: &[u8]) -> Option<Vec<u8>> {
    s.write_all(bytes).ok()?;
    s.flush().ok()?;
    wire::read_frame(s).ok()?
}

/// `LOOKUP write_id` on a raw connection: `Some(found)`, or `None` if
/// the connection is closed or fails.
pub fn lookup_raw(s: &mut TcpStream, write_id: u64) -> Option<bool> {
    let mut req = vec![op::LOOKUP];
    req.extend_from_slice(&write_id.to_le_bytes());
    let resp = exchange(s, &frame(&req))?;
    assert_eq!(resp[0], status::OK, "lookup refused");
    Some(resp[1] == 1)
}
