//! A seeded fuzzer for hostile requests (docs/PROTOCOL.md, "Limits and
//! errors").
//!
//! Most cases build a valid `COMMIT` program of 1–8 ops — new lists,
//! new blocks on them or on a list committed before the cases, writes
//! to its own blocks or to a block committed before — and give it one
//! defect: a cut anywhere in the frame (mid-op or mid-header, the
//! frame's length cut with it), an unknown op tag, a reference kind
//! other than id or slot, a slot not minted yet, a list's slot used as
//! a block (or a block's as a list), write data longer than a block,
//! bytes left over after the program, or an `n` larger than the frame
//! holds. The other kinds cover every other request: a fixed-shape
//! request (`HELLO`, `READ`, `FLUSH`, `STATS`, `LOOKUP`, `LIST_BLOCKS`)
//! cut short or with bytes left over, an opcode the server does not
//! serve (among them the retired 2, 7 and 12 and the bare program tags
//! 3, 4 and 5), and a request sent before `HELLO`. One kind in
//! thirteen is a valid `COMMIT`, which checks the encoder against the
//! server.
//!
//! A defective request must get a typed `ERR` response, leave no ARU
//! open (`arus_begun == arus_committed + arus_aborted`), commit nothing
//! (`LOOKUP` of its write-id finds nothing, and the block committed
//! before still holds its data), and the next request on the connection
//! is answered correctly or the connection is closed. No session
//! thread panics.
//!
//! About 200 cases in tier-1; `WIRE_FUZZ_CASES=n` runs more (CI: 5,000
//! in release mode). A failure prints `WIRE_SEED=n`, and that variable
//! re-runs the one case.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{
    commit_payload, connect_raw, connect_silent, exchange, frame, hello, lookup_raw, Op, Ref,
};
use ld_client::{BlockRef, Client, ClientConfig, Durability, ListRef, Txn};
use ld_core::{BlockId, Ctx, Lld, LldConfig};
use ld_disk::{MemDisk, SmallRng};
use ld_server::wire::{flag, op, status, Body};
use ld_server::Server;

const BS: usize = 512;
const CLIENT: u64 = 41;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Truncated,
    UnknownOp,
    UnknownReference,
    UnmintedSlot,
    WrongKindSlot,
    LongWrite,
    LeftOver,
    NTooLarge,
    RequestCut,
    RequestLeftOver,
    Unserved,
    BeforeHello,
    Valid,
}

const KINDS: [Kind; 13] = [
    Kind::Truncated,
    Kind::UnknownOp,
    Kind::UnknownReference,
    Kind::UnmintedSlot,
    Kind::WrongKindSlot,
    Kind::LongWrite,
    Kind::LeftOver,
    Kind::NTooLarge,
    Kind::RequestCut,
    Kind::RequestLeftOver,
    Kind::Unserved,
    Kind::BeforeHello,
    Kind::Valid,
];

/// What the cases share: the list and block committed before them, and
/// the data that block holds now.
struct Base {
    list: u64,
    block: u64,
    data: Vec<u8>,
}

fn data(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The defect `kind` puts into a program at one op, given the slots
/// minted so far (`lists`, `blocks`); nothing for the kinds that are
/// applied to the whole frame.
fn defect(
    rng: &mut SmallRng,
    kind: Kind,
    minted: u32,
    lists: &[u32],
    blocks: &[u32],
    base: &Base,
) -> Vec<Op> {
    match kind {
        Kind::UnknownOp => {
            let tag = loop {
                let t = rng.next_u64() as u8;
                if !matches!(t, op::NEW_LIST | op::NEW_BLOCK | op::WRITE) {
                    break t;
                }
            };
            vec![Op::Raw(vec![tag])]
        }
        Kind::UnknownReference => {
            let r = Ref::Kind(2 + rng.gen_index(254) as u8, base.block);
            if rng.gen_bool(0.5) {
                vec![Op::Write(r, data(rng, BS))]
            } else {
                vec![Op::NewBlock(r, Ref::Id(0))]
            }
        }
        Kind::UnmintedSlot => {
            let slot = Ref::Slot(minted + rng.gen_index(4) as u32);
            vec![Op::Write(slot, data(rng, BS))]
        }
        Kind::WrongKindSlot => match (lists.first(), blocks.first()) {
            (Some(&l), _) if rng.gen_bool(0.5) => vec![Op::Write(Ref::Slot(l), data(rng, BS))],
            (_, Some(&b)) => vec![Op::NewBlock(Ref::Slot(b), Ref::Id(0))],
            _ => vec![Op::NewList, Op::Write(Ref::Slot(minted), data(rng, BS))],
        },
        Kind::LongWrite => {
            let len = BS + 1 + rng.gen_index(BS);
            vec![Op::Write(Ref::Id(base.block), data(rng, len))]
        }
        _ => Vec::new(),
    }
}

/// A case's `COMMIT` payload, and the data a valid one leaves in the
/// base block.
fn program(rng: &mut SmallRng, kind: Kind, write_id: u64, base: &Base) -> (Vec<u8>, Vec<u8>) {
    let len = 1 + rng.gen_index(8);
    let at = rng.gen_index(len + 1);
    let mut ops = Vec::new();
    let (mut lists, mut blocks, mut minted) = (Vec::new(), Vec::new(), 0u32);
    let mut base_data = base.data.clone();
    for i in 0..=len {
        if i == at {
            ops.extend(defect(rng, kind, minted, &lists, &blocks, base));
        }
        if i == len {
            break;
        }
        match rng.gen_index(3) {
            0 => {
                ops.push(Op::NewList);
                lists.push(minted);
                minted += 1;
            }
            1 => {
                let list = match lists.len() {
                    0 => Ref::Id(base.list),
                    n => Ref::Slot(lists[rng.gen_index(n)]),
                };
                ops.push(Op::NewBlock(list, Ref::Id(0)));
                blocks.push(minted);
                minted += 1;
            }
            _ => {
                let d = data(rng, BS);
                match blocks.len() {
                    0 => {
                        base_data.clone_from(&d);
                        ops.push(Op::Write(Ref::Id(base.block), d));
                    }
                    n => ops.push(Op::Write(Ref::Slot(blocks[rng.gen_index(n)]), d)),
                }
            }
        }
    }
    let mut n = ops.len() as u32;
    if kind == Kind::NTooLarge {
        n += 1 + rng.gen_index(1000) as u32;
    }
    let flags = flag::TAGGED | if rng.gen_bool(0.5) { flag::SYNC } else { 0 };
    let mut payload = commit_payload(flags, write_id, n, &ops);
    match kind {
        Kind::Truncated => payload.truncate(1 + rng.gen_index(payload.len() - 1)),
        Kind::LeftOver => {
            let extra = 1 + rng.gen_index(16);
            payload.extend(data(rng, extra));
        }
        _ => {}
    }
    (payload, base_data)
}

/// A well-formed request of a fixed shape, its opcode one of `ops`.
fn fixed_request(rng: &mut SmallRng, ops: &[u8], write_id: u64, base: &Base) -> Vec<u8> {
    let opcode = ops[rng.gen_index(ops.len())];
    if opcode == op::HELLO {
        return hello(CLIENT);
    }
    let mut out = vec![opcode];
    match opcode {
        op::READ => out.extend_from_slice(&base.block.to_le_bytes()),
        op::LOOKUP => out.extend_from_slice(&write_id.to_le_bytes()),
        op::LIST_BLOCKS => out.extend_from_slice(&base.list.to_le_bytes()),
        _ => {}
    }
    out
}

/// A request with an opcode the server does not serve, and 0–24 bytes
/// of body: half the time a whole number of `u64` fields, the shape of
/// every fixed request.
fn unserved(rng: &mut SmallRng) -> Vec<u8> {
    // Unassigned, retired (2, 7, 12) or a bare program op tag (3, 4, 5).
    const NAMED: [u8; 7] = [0, 2, 3, 4, 5, 7, 12];
    let opcode = if rng.gen_bool(0.5) {
        NAMED[rng.gen_index(NAMED.len())]
    } else {
        op::COMMIT + 1 + rng.gen_index(usize::from(u8::MAX - op::COMMIT)) as u8
    };
    let len = if rng.gen_bool(0.5) {
        8 * rng.gen_index(4)
    } else {
        rng.gen_index(25)
    };
    let mut out = vec![opcode];
    out.extend(data(rng, len));
    out
}

/// A case's request payload, and the data a valid one leaves in the
/// base block.
fn request(rng: &mut SmallRng, kind: Kind, write_id: u64, base: &Base) -> (Vec<u8>, Vec<u8>) {
    let with_fields = [op::HELLO, op::READ, op::LOOKUP, op::LIST_BLOCKS];
    let payload = match kind {
        Kind::RequestCut => {
            let mut p = fixed_request(rng, &with_fields, write_id, base);
            let cut = rng.gen_index(p.len());
            p.truncate(cut);
            p
        }
        Kind::RequestLeftOver => {
            let all = [with_fields.as_slice(), &[op::FLUSH, op::STATS]].concat();
            let mut p = fixed_request(rng, &all, write_id, base);
            let extra = 1 + rng.gen_index(16);
            p.extend(data(rng, extra));
            p
        }
        Kind::Unserved => unserved(rng),
        Kind::BeforeHello => match rng.gen_index(3) {
            0 => {
                let ops = [op::READ, op::FLUSH, op::LOOKUP, op::LIST_BLOCKS];
                fixed_request(rng, &ops, write_id, base)
            }
            1 => program(rng, Kind::Valid, write_id, base).0,
            _ => unserved(rng),
        },
        _ => return program(rng, kind, write_id, base),
    };
    (payload, base.data.clone())
}

fn run_case(addr: &str, ld: &Lld<MemDisk>, base: &mut Base, seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let kind = KINDS[seed as usize % KINDS.len()];
    let write_id = seed + 1;
    let (payload, base_data) = request(&mut rng, kind, write_id, base);
    let mut s = match kind {
        Kind::BeforeHello => connect_silent(addr),
        _ => connect_raw(addr, CLIENT),
    };
    let resp = exchange(&mut s, &frame(&payload)).ok_or(format!("{kind:?}: no answer"))?;
    let valid = kind == Kind::Valid;
    match (resp[0], valid) {
        (status::OK, true) => base.data = base_data,
        (status::ERR, false) => {
            let msg = Body::new(&resp[1..])
                .str32()
                .map_err(|e| format!("{kind:?}: unreadable error: {e}"))?;
            if msg.is_empty() {
                return Err(format!("{kind:?}: empty error message"));
            }
        }
        (st, _) => return Err(format!("{kind:?}: status {st}")),
    }
    let st = ld.stats();
    if st.arus_begun != st.arus_committed + st.arus_aborted {
        return Err(format!(
            "{kind:?}: {} ARUs begun, {} committed, {} aborted",
            st.arus_begun, st.arus_committed, st.arus_aborted
        ));
    }
    // The next request: answered correctly, or the connection is closed.
    if kind == Kind::BeforeHello {
        match exchange(&mut s, &frame(&hello(CLIENT))) {
            Some(resp) if resp[0] != status::OK => return Err(format!("{kind:?}: hello refused")),
            _ => {}
        }
    }
    if let Some(found) = lookup_raw(&mut s, write_id) {
        if found != valid {
            return Err(format!("{kind:?}: lookup found {found}"));
        }
    }
    let mut buf = vec![0u8; BS];
    ld.read(Ctx::Simple, BlockId::new(base.block), &mut buf)
        .map_err(|e| format!("{kind:?}: base block: {e}"))?;
    if buf != base.data {
        return Err(format!("{kind:?}: the base block changed"));
    }
    Ok(())
}

static SESSION_PANICS: AtomicU64 = AtomicU64::new(0);

#[test]
fn hostile_commit_frames_get_typed_errors() {
    let var = |name: &str| {
        std::env::var(name)
            .ok()
            .map(|v| v.parse::<u64>().unwrap_or_else(|_| panic!("{name}={v}")))
    };
    let seeds = match var("WIRE_SEED") {
        Some(seed) => seed..seed + 1,
        None => 0..var("WIRE_FUZZ_CASES").unwrap_or(200),
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("ld-server-session") {
            SESSION_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        hook(info);
    }));

    let config = LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        ..LldConfig::default()
    };
    let ld = Arc::new(Lld::format(MemDisk::new(32 << 20), &config).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let retries = ClientConfig {
        io_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    let mut c = Client::connect(&addr, CLIENT + 1, 1, retries).unwrap();
    let mut txn = Txn::new();
    let l = txn.new_list();
    let b = txn.new_block(ListRef::Slot(l), None);
    let first = vec![0xB5u8; BS];
    txn.write(BlockRef::Slot(b), &first);
    let out = c.commit(&txn, 1, Durability::Sync).unwrap();
    let mut base = Base {
        list: out.ids[0],
        block: out.ids[1],
        data: first,
    };

    let failed: Vec<String> = seeds
        .filter_map(|seed| {
            run_case(&addr, &ld, &mut base, seed)
                .err()
                .map(|e| format!("WIRE_SEED={seed} {e}"))
        })
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));

    // The server still commits for a well-behaved client.
    let mut txn = Txn::new();
    txn.write(BlockRef::Id(base.block), &vec![0x5Bu8; BS]);
    assert!(!c.commit(&txn, 2, Durability::Sync).unwrap().deduped);
    assert_eq!(c.read(base.block).unwrap(), vec![0x5Bu8; BS]);
    drop(c);
    server.shutdown().1.unwrap();
    assert_eq!(
        SESSION_PANICS.load(Ordering::SeqCst),
        0,
        "a session panicked"
    );
}
