//! End-to-end server tests over real TCP sockets: protocol round
//! trips, exactly-once tagged commits, graceful shutdown under load,
//! group commit across connections, and the in-process crash harness
//! (fault-injected device under a live server, recovery, and
//! serial-oracle reconciliation).

mod common;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ld_client::{BlockRef, Client, ClientConfig, ClientError, Durability, ListRef, Txn};
use ld_core::{Ctx, Lld, LldConfig, Position, Timestamp};
use ld_disk::{BlockDevice, DiskModel, FaultPlan, LatencyDisk, MemDisk, SimDisk};
use ld_server::Server;

const BS: usize = 512;

/// The map shards of a point of the mode matrix. The tests that put a
/// server under load run at every point; the protocol tests at the
/// default one.
type Mode = usize;

const DEFAULT: Mode = 8;

fn config(shards: Mode) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(4096),
        max_lists: Some(256),
        map_shards: shards,
        ..LldConfig::default()
    }
}

/// Runs `test` at every point; a failure's captured output names it.
fn each_mode(test: fn(Mode)) {
    for mode in [DEFAULT, 1] {
        eprintln!("shards = {mode}");
        test(mode);
    }
}

fn quick_retries() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Duration::from_secs(10),
        max_retries: 4,
        retry_backoff: Duration::from_millis(20),
    }
}

/// Block payload encoding `(client, write_id)`, so reconciliation can
/// check *which* transaction produced a block.
fn payload(client: u64, write_id: u64) -> Vec<u8> {
    let mut data = vec![0u8; BS];
    data[..8].copy_from_slice(&client.to_le_bytes());
    data[8..16].copy_from_slice(&write_id.to_le_bytes());
    data
}

#[test]
fn round_trip_commit_read_and_stats() {
    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, 7, 1, quick_retries()).unwrap();
    let mut txn = Txn::new();
    let list = txn.new_list();
    let b1 = txn.new_block(ListRef::Slot(list), None);
    let b2 = txn.new_block(ListRef::Slot(list), Some(BlockRef::Slot(b1)));
    txn.write(BlockRef::Slot(b1), &payload(7, 1));
    txn.write(BlockRef::Slot(b2), &payload(7, 2));
    let out = c.commit(&txn, 1, Durability::Sync).unwrap();
    assert!(!out.deduped);
    assert_eq!(out.generation, 1);
    assert_eq!(out.ids.len(), 3);

    let (list_id, b1_id, b2_id) = (out.ids[0], out.ids[1], out.ids[2]);
    assert_eq!(c.list_blocks(list_id).unwrap(), vec![b1_id, b2_id]);
    assert_eq!(c.read(b1_id).unwrap(), payload(7, 1));
    assert_eq!(c.read(b2_id).unwrap(), payload(7, 2));

    // The observability snapshot includes the server section and it
    // parses back through the core's JSON reader.
    let json = c.stats_json().unwrap();
    let snap = ld_core::ObsSnapshot::from_json(&json).expect("stats json parses");
    assert_eq!(snap.server.sessions_opened, 1);
    assert!(snap.server.ops_served >= 5);
    assert!(snap.server.bytes_in > 0 && snap.server.bytes_out > 0);

    drop(c);
    let (ld_back, flushed) = server.shutdown();
    flushed.unwrap();
    drop(ld);
    assert!(
        Arc::try_unwrap(ld_back).is_ok(),
        "shutdown released all refs"
    );
}

#[test]
fn duplicate_write_id_returns_recorded_outcome() {
    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, 3, 1, quick_retries()).unwrap();
    let mut txn = Txn::new();
    let list = txn.new_list();
    let b = txn.new_block(ListRef::Slot(list), None);
    txn.write(BlockRef::Slot(b), &payload(3, 1));

    let first = c.commit(&txn, 1, Durability::Sync).unwrap();
    assert!(!first.deduped);
    // A client-level retry of the same write_id sends the program
    // again; the server answers the floor's outcome and runs nothing.
    let second = c.commit(&txn, 1, Durability::Sync).unwrap();
    assert!(second.deduped);
    assert_eq!(second.generation, first.generation);
    assert_eq!(second.commit_ts, first.commit_ts);
    assert!(second.ids.is_empty());

    assert_eq!(server.stats().retries_deduped, 1);
    // Only the first attempt's effects exist.
    assert_eq!(c.list_blocks(first.ids[0]).unwrap(), vec![first.ids[1]]);
    assert_eq!(
        c.lookup(1).unwrap(),
        Some((first.generation, first.commit_ts))
    );
    assert_eq!(c.lookup(2).unwrap(), None);
    assert!(matches!(
        c.lookup(3),
        Err(ClientError::OutOfSequence {
            write_id: 3,
            floor: 1
        })
    ));

    drop(c);
    server.shutdown().1.unwrap();
}

/// A retry never runs its program: the server settles a tagged
/// `COMMIT`'s write id before it begins an ARU, so three retries of an
/// acknowledged commit that mints a list mint nothing, and a commit past
/// the next id is refused, typed, and runs nothing either.
#[test]
fn a_retry_never_runs_its_program() {
    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 2, 1, quick_retries()).unwrap();
    let mut txn = Txn::new();
    txn.new_list();
    let first = c.commit(&txn, 1, Durability::Sync).unwrap();
    let (lists, begun) = (ld.allocated_list_count(), ld.stats().arus_begun);
    for _ in 0..3 {
        let again = c.commit(&txn, 1, Durability::Sync).unwrap();
        assert!(again.deduped && again.ids.is_empty());
        assert_eq!(again.commit_ts, first.commit_ts);
    }
    assert!(matches!(
        c.commit(&txn, 3, Durability::Sync),
        Err(ClientError::OutOfSequence {
            write_id: 3,
            floor: 1
        })
    ));
    assert_eq!(ld.allocated_list_count(), lists, "a retry minted a list");
    assert_eq!(ld.stats().arus_begun, begun, "a retry began an ARU");
    assert_eq!(server.stats().retries_deduped, 4);
    // A new connection of the same incarnation is told the floor.
    assert_eq!(
        Client::connect(&addr, 2, 1, quick_retries())
            .unwrap()
            .floor(),
        1
    );

    drop(c);
    server.shutdown().1.unwrap();
}

/// Exactly-once across a `COMMIT` cut in half. A raw connection sends
/// the first half of a tagged frame and drops: the server has begun the
/// ARU and run the ops it read, and the hang-up aborts it (no ARU
/// outlives its request, so this is all a hang-up can cut). Nothing of it
/// is visible and its write-id is not recorded, so `Client::commit`
/// under the same write-id lands once, and a repeat answers `deduped`.
#[test]
fn a_commit_cut_in_half_leaves_nothing_and_lands_once() {
    use common::{commit_payload, connect_raw, frame, Op, Ref};
    use ld_server::wire::flag;

    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 6, 1, quick_retries()).unwrap();
    let mut setup = Txn::new();
    let l = setup.new_list();
    let b = setup.new_block(ListRef::Slot(l), None);
    setup.write(BlockRef::Slot(b), &payload(6, 1));
    let base = c.commit(&setup, 1, Durability::Sync).unwrap();
    let (list, block) = (base.ids[0], base.ids[1]);

    // Overwrite the committed block, then add a block to its list.
    let ops = [
        Op::Write(Ref::Id(block), payload(6, 2)),
        Op::NewBlock(Ref::Id(list), Ref::Id(block)),
        Op::Write(Ref::Slot(0), payload(6, 2)),
    ];
    let whole = frame(&commit_payload(flag::TAGGED | flag::SYNC, 2, 3, &ops));
    {
        let mut s = connect_raw(&addr, 6);
        s.write_all(&whole[..whole.len() / 2]).unwrap();
        s.flush().unwrap();
    } // dropped mid-frame
    let open = |s: &ld_core::LldStats| s.arus_begun - s.arus_committed - s.arus_aborted;
    let deadline = Instant::now() + Duration::from_secs(5);
    while (ld.stats().arus_begun < 2 || open(&ld.stats()) > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = ld.stats();
    assert_eq!(stats.arus_begun, 2, "the half frame began its ARU");
    assert_eq!(open(&stats), 0, "the half frame's ARU was aborted");
    assert_eq!(c.read(block).unwrap(), payload(6, 1));
    assert_eq!(c.list_blocks(list).unwrap(), vec![block]);
    assert_eq!(c.lookup(2).unwrap(), None);

    let mut txn = Txn::new();
    txn.write(BlockRef::Id(block), &payload(6, 2));
    let added = txn.new_block(ListRef::Id(list), Some(BlockRef::Id(block)));
    txn.write(BlockRef::Slot(added), &payload(6, 2));
    let out = c.commit(&txn, 2, Durability::Sync).unwrap();
    assert!(!out.deduped);
    let again = c.commit(&txn, 2, Durability::Sync).unwrap();
    assert!(again.deduped);
    assert_eq!(again.commit_ts, out.commit_ts);
    assert_eq!(c.list_blocks(list).unwrap(), vec![block, out.ids[0]]);
    assert_eq!(c.read(block).unwrap(), payload(6, 2));
    assert_eq!(c.read(out.ids[0]).unwrap(), payload(6, 2));

    drop(c);
    server.shutdown().1.unwrap();
}

/// A retired opcode is refused like any other the server does not
/// serve, and bytes left over after a request's fields are refused
/// before the request acts: a `FLUSH` that carries them flushes
/// nothing. Each gets a typed `ERR`, and the session goes on to serve a
/// `COMMIT`.
#[test]
fn a_retired_opcode_or_bytes_left_over_get_an_error_and_the_session_goes_on() {
    use common::{commit_payload, connect_raw, exchange, frame, Op, Ref};
    use ld_server::wire::{flag, op, status};

    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 4, 1, quick_retries()).unwrap();
    let mut setup = Txn::new();
    let l = setup.new_list();
    let b = setup.new_block(ListRef::Slot(l), None);
    setup.write(BlockRef::Slot(b), &payload(4, 1));
    let block = c.commit(&setup, 1, Durability::Sync).unwrap().ids[1];

    let mut s = connect_raw(&addr, 4);
    for retired in [2u8, 7, 12] {
        for len in [0, 8] {
            let mut req = vec![retired];
            req.extend_from_slice(&1u64.to_le_bytes()[..len]);
            let resp = exchange(&mut s, &frame(&req)).unwrap();
            assert_eq!(resp[0], status::ERR, "opcode {retired} was served");
        }
    }
    let flushes = || ld.stats().flush_batch_callers;
    let before = flushes();
    let resp = exchange(&mut s, &frame(&[op::FLUSH, 0xAB, 0xCD])).unwrap();
    assert_eq!(resp[0], status::ERR);
    assert_eq!(flushes(), before, "a refused FLUSH flushed");
    let resp = exchange(&mut s, &frame(&[op::FLUSH])).unwrap();
    assert_eq!(resp[0], status::OK);
    assert_eq!(flushes(), before + 1);

    let ops = [Op::Write(Ref::Id(block), payload(4, 2))];
    let resp = exchange(&mut s, &frame(&commit_payload(flag::TAGGED, 2, 1, &ops))).unwrap();
    assert_eq!(resp[0], status::OK);
    assert_eq!(c.read(block).unwrap(), payload(4, 2));
    assert!(c.lookup(2).unwrap().is_some());
    assert_eq!(server.stats().conn_errors, 0);

    drop((c, s));
    server.shutdown().1.unwrap();
}

/// A `LIST_BLOCKS` answer is one frame. A list of (`MAX_FRAME` − 5) / 8
/// blocks comes back whole; one block more is a typed error on a
/// session that goes on, not a frame the client must refuse and retry.
#[test]
fn list_blocks_answers_at_most_one_frame() {
    const MAX_LISTED: usize = (ld_server::wire::MAX_FRAME as usize - 5) / 8;
    let cfg = LldConfig {
        block_size: 4096,
        segment_bytes: 64 * 4096,
        max_blocks: Some(1 << 18),
        ..config(DEFAULT)
    };
    let ld = Arc::new(Lld::format(MemDisk::new(64 << 20), &cfg).unwrap());
    let list = ld.new_list(Ctx::Simple).unwrap();
    let mut expect = Vec::with_capacity(MAX_LISTED);
    for _ in 0..MAX_LISTED {
        let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
        expect.push(b.get());
    }
    expect.reverse();
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 5, 1, quick_retries()).unwrap();
    assert_eq!(c.list_blocks(list.get()).unwrap(), expect);

    ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    match c.list_blocks(list.get()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("at most"), "{msg}"),
        other => panic!("{} blocks answered {other:?}", MAX_LISTED + 1),
    }
    let stats = server.stats();
    assert_eq!(stats.conn_errors, 0);
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(c.lookup(1).unwrap(), None);

    drop(c);
    server.shutdown().1.unwrap();
}

/// `Client::commit` is one request, whatever its program holds (four
/// round trips for a two-write `Txn` when each op was one).
#[test]
fn a_commit_is_one_request() {
    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 8, 1, quick_retries()).unwrap();

    let mut setup = Txn::new();
    let l = setup.new_list();
    let b1 = setup.new_block(ListRef::Slot(l), None);
    let b2 = setup.new_block(ListRef::Slot(l), Some(BlockRef::Slot(b1)));
    setup.write(BlockRef::Slot(b1), &payload(8, 1));
    setup.write(BlockRef::Slot(b2), &payload(8, 1));
    let before = server.stats().ops_served;
    let out = c.commit(&setup, 1, Durability::Sync).unwrap();
    assert_eq!(server.stats().ops_served - before, 1);

    let durabilities = [Durability::Lazy, Durability::Sync].into_iter().cycle();
    for (wid, durability) in (2..8).zip(durabilities) {
        let mut txn = Txn::new();
        txn.write(BlockRef::Id(out.ids[1]), &payload(8, wid));
        txn.write(BlockRef::Id(out.ids[2]), &payload(8, wid));
        let before = server.stats().ops_served;
        c.commit(&txn, wid, durability).unwrap();
        assert_eq!(server.stats().ops_served - before, 1, "write_id {wid}");
    }

    drop(c);
    server.shutdown().1.unwrap();
}

/// A program larger than `MAX_FRAME` commits: a `COMMIT` is run as it
/// is read and never held whole, so only its `u32` length bounds it.
#[test]
fn a_commit_larger_than_max_frame_commits_and_reads_back() {
    const BIG: usize = 4096;
    const BLOCKS: u64 = 300;
    let cfg = LldConfig {
        block_size: BIG,
        segment_bytes: 16 * BIG,
        ..config(DEFAULT)
    };
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &cfg).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr, 9, 1, quick_retries()).unwrap();

    let data = |i: u64| {
        let mut d = vec![0u8; BIG];
        d[..8].copy_from_slice(&i.to_le_bytes());
        d[BIG - 8..].copy_from_slice(&(!i).to_le_bytes());
        d
    };
    let mut txn = Txn::new();
    let list = txn.new_list();
    let mut pred = None;
    for i in 0..BLOCKS {
        let b = txn.new_block(ListRef::Slot(list), pred);
        txn.write(BlockRef::Slot(b), &data(i));
        pred = Some(BlockRef::Slot(b));
    }
    let before = server.stats();
    let out = c.commit(&txn, 1, Durability::Sync).unwrap();
    let after = server.stats();
    assert_eq!(after.ops_served - before.ops_served, 1);
    assert!(
        after.bytes_in - before.bytes_in > u64::from(ld_server::wire::MAX_FRAME),
        "the program fit one frame held whole"
    );

    let blocks = c.list_blocks(out.ids[0]).unwrap();
    assert_eq!(blocks, out.ids[1..]);
    for (i, b) in (0..BLOCKS).zip(blocks) {
        assert_eq!(c.read(b).unwrap(), data(i), "block {i}");
    }

    drop(c);
    server.shutdown().1.unwrap();
}

/// Graceful shutdown under load: clients hammer tagged lazy commits
/// while the server shuts down mid-stream. Every commit that was
/// *acknowledged* must exist (with its data) on the recovered image —
/// the drain + final flush ordering is exactly what guarantees it.
#[test]
fn shutdown_under_load_loses_no_acknowledged_commit() {
    each_mode(shutdown_under_load_loses_no_acknowledged_commit_at);
}

fn shutdown_under_load_loses_no_acknowledged_commit_at(mode: Mode) {
    const CLIENTS: u64 = 4;
    let ld = Arc::new(Lld::format(MemDisk::new(16 << 20), &config(mode)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (1..=CLIENTS)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut acked: Vec<(u64, Vec<u64>)> = Vec::new();
                let Ok(mut c) = Client::connect(&addr, client, 1, quick_retries()) else {
                    return acked;
                };
                for wid in 1..u64::MAX {
                    let mut txn = Txn::new();
                    let l = txn.new_list();
                    let b = txn.new_block(ListRef::Slot(l), None);
                    txn.write(BlockRef::Slot(b), &payload(client, wid));
                    match c.commit(&txn, wid, Durability::Lazy) {
                        Ok(out) => acked.push((wid, out.ids)),
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();

    // Let the load build, then pull the rug.
    std::thread::sleep(Duration::from_millis(300));
    let (ld_back, flushed) = server.shutdown();
    flushed.unwrap();
    let acked: Vec<Vec<(u64, Vec<u64>)>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(
        acked.iter().any(|a| !a.is_empty()),
        "load generator never got a commit through"
    );

    drop(ld);
    let lld = Arc::try_unwrap(ld_back).unwrap_or_else(|_| panic!("unique after shutdown"));
    let image = lld.into_device().into_image();
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &config(mode)).unwrap();

    for (i, client_acks) in acked.iter().enumerate() {
        let client = i as u64 + 1;
        let floor = ld2.write_id_floor(client).map_or(0, |(_, floor)| floor);
        for (wid, ids) in client_acks {
            assert!(
                *wid <= floor,
                "client {client} acked write_id {wid} missing after shutdown+recovery"
            );
            let mut buf = vec![0u8; BS];
            ld2.read(Ctx::Simple, ld_core::BlockId::new(ids[1]), &mut buf)
                .unwrap();
            assert_eq!(buf, payload(client, *wid), "client {client} wid {wid} data");
        }
    }
}

/// Synchronous commits from different connections share barriers. The
/// server adds no batching of its own: each session's `COMMIT` ends in
/// an `end_aru_sync` on the shared disk, and while one group-commit
/// leader's barrier is in the device the other sessions' commits queue
/// behind it, so the next leader covers them all with one barrier. A
/// 20 ms barrier makes that overlap certain; a leader that retired only
/// itself would issue a barrier per commit.
#[test]
fn sync_commits_from_different_connections_share_barriers() {
    each_mode(sync_commits_from_different_connections_share_barriers_at);
}

fn sync_commits_from_different_connections_share_barriers_at(mode: Mode) {
    const CLIENTS: u64 = 8;
    const COMMITS: u64 = 6;
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let disk = LatencyDisk::new(sim, Duration::from_millis(20));
    let ld = Arc::new(Lld::format(disk, &config(mode)).unwrap());
    let flushes = || ld.device().stats_snapshot().unwrap().flushes;
    let before = flushes();
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (1..=CLIENTS)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, client, 1, quick_retries()).unwrap();
                let mut acked = Vec::new();
                for wid in 1..=COMMITS {
                    let mut txn = Txn::new();
                    let l = txn.new_list();
                    let b = txn.new_block(ListRef::Slot(l), None);
                    txn.write(BlockRef::Slot(b), &payload(client, wid));
                    let out = c.commit(&txn, wid, Durability::Sync).unwrap();
                    assert!(!out.deduped, "client {client} wid {wid} deduped");
                    acked.push((wid, out.ids[1]));
                }
                for (wid, block) in acked {
                    assert_eq!(
                        c.read(block).unwrap(),
                        payload(client, wid),
                        "client {client} wid {wid} data"
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let barriers = flushes() - before;
    let commits = CLIENTS * COMMITS;
    assert!(
        barriers < commits,
        "{commits} sync commits from {CLIENTS} connections took {barriers} barriers"
    );
    for client in 1..=CLIENTS {
        assert_eq!(ld.write_id_floor(client), Some((1, COMMITS)));
    }
    server.shutdown().1.unwrap();
}

/// The in-process crash harness: a fault-injected device dies under a
/// live server while clients run sync tagged commits. After recovery
/// and a server restart, each client reconciles through `lookup` and
/// replays what was lost; a serial oracle (one list per client, one
/// block per write_id, payload encoding `(client, write_id)`) then
/// proves every transaction took effect exactly once.
#[test]
fn crash_recovery_reconciles_exactly_once() {
    each_mode(crash_recovery_reconciles_exactly_once_at);
}

fn crash_recovery_reconciles_exactly_once_at(mode: Mode) {
    const CLIENTS: u64 = 3;
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let ld = Arc::new(Lld::format(sim, &config(mode)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Setup, before faults are armed: one committed, durable list per
    // client.
    let mut lists: BTreeMap<u64, u64> = BTreeMap::new();
    for client in 1..=CLIENTS {
        let mut c = Client::connect(&addr, client, 1, quick_retries()).unwrap();
        let mut txn = Txn::new();
        txn.new_list();
        let out = c.commit(&txn, 1, Durability::Sync).unwrap();
        lists.insert(client, out.ids[0]);
    }

    // Arm the crash point under the running server: the device dies
    // partway through the workload's log writes.
    server
        .disk()
        .device()
        .set_faults(FaultPlan::new().crash_after_bytes(200_000));

    let workers: Vec<_> = (1..=CLIENTS)
        .map(|client| {
            let addr = addr.clone();
            let list = lists[&client];
            std::thread::spawn(move || {
                let mut acked: Vec<u64> = Vec::new();
                let mut attempted: u64 = 1; // write_id 1 was the setup commit
                let Ok(mut c) = Client::connect(&addr, client, 1, quick_retries()) else {
                    return (acked, attempted);
                };
                for wid in 2..200u64 {
                    let mut txn = Txn::new();
                    let b = txn.new_block(ListRef::Id(list), None);
                    txn.write(BlockRef::Slot(b), &payload(client, wid));
                    attempted = wid;
                    match c.commit(&txn, wid, Durability::Sync) {
                        Ok(_) => acked.push(wid),
                        Err(_) => break, // the disk is gone
                    }
                }
                (acked, attempted)
            })
        })
        .collect();
    let oracle: Vec<(Vec<u64>, u64)> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert!(
        oracle.iter().any(|(acked, _)| !acked.is_empty()),
        "crash fired before any commit was acknowledged"
    );
    assert!(
        server.disk().device().is_crashed(),
        "workload finished without tripping the crash point"
    );

    // "Power off": tear the server down (the final flush fails on the
    // dead device — that is the crash being simulated) and salvage the
    // surviving image.
    let (ld_back, flushed) = server.shutdown();
    assert!(flushed.is_err(), "flush cannot succeed on a crashed disk");
    drop(ld);
    let sim = Arc::try_unwrap(ld_back)
        .unwrap_or_else(|_| panic!("unique after shutdown"))
        .into_device();
    // The cut: the last barrier's image and a subset of the writes
    // since, drawn from the crash point.
    let (image, cut) = sim.crash_image();
    eprintln!("{cut}");

    // Recover and restart the server on the healed device.
    let (ld2, _) = Lld::recover_with(MemDisk::from_image(image), &config(mode))
        .unwrap_or_else(|e| panic!("{cut}: {e}"));
    let ld2 = Arc::new(ld2);
    let server2 = Server::start(Arc::clone(&ld2), "127.0.0.1:0").unwrap();
    let addr2 = server2.local_addr().to_string();

    for (i, (acked, attempted)) in oracle.iter().enumerate() {
        let client = i as u64 + 1;
        let list = lists[&client];
        let mut c = Client::connect(&addr2, client, 1, quick_retries()).unwrap();

        // Invariant 1: every sync-acknowledged commit survived the
        // crash (the ack implies durability): the floor the handshake
        // answered is at or past it, and a lookup reads it applied.
        let floor = c.floor();
        for wid in acked {
            assert!(
                *wid <= floor,
                "{cut}: client {client}: acked write_id {wid} lost by the crash"
            );
        }
        assert!(c.lookup(floor).unwrap().is_some());
        // Reconciliation: replay every write_id past the floor, in
        // sequence. The first is in doubt only to the client: the
        // server settled it with the floor.
        for wid in floor + 1..=*attempted {
            assert_eq!(c.lookup(wid).unwrap(), None);
            let mut txn = Txn::new();
            let b = txn.new_block(ListRef::Id(list), None);
            txn.write(BlockRef::Slot(b), &payload(client, wid));
            let out = c.commit(&txn, wid, Durability::Sync).unwrap();
            assert!(!out.deduped, "lookup said missing, commit said duplicate");
        }

        // Serial oracle: exactly one block per write_id, no extras, no
        // duplicates, each carrying its transaction's payload.
        let blocks = c.list_blocks(list).unwrap();
        assert_eq!(
            blocks.len() as u64,
            *attempted - 1,
            "client {client}: block count != write_ids committed"
        );
        let mut seen: Vec<u64> = Vec::new();
        for b in blocks {
            let data = c.read(b).unwrap();
            let owner = u64::from_le_bytes(data[..8].try_into().unwrap());
            let wid = u64::from_le_bytes(data[8..16].try_into().unwrap());
            assert_eq!(owner, client, "foreign block on client {client}'s list");
            seen.push(wid);
        }
        seen.sort_unstable();
        let expect: Vec<u64> = (2..=*attempted).collect();
        assert_eq!(seen, expect, "client {client}: effects not exactly-once");
    }

    server2.shutdown().1.unwrap();
}

/// Generation handling across incarnations: a restarted client that
/// bumps its generation starts its write ids again from 1 (the
/// handshake answers floor 0); announcing an older generation is
/// rejected.
#[test]
fn generation_bump_and_regression() {
    let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
    let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let mut txn = Txn::new();
    let l = txn.new_list();
    let b = txn.new_block(ListRef::Slot(l), None);
    txn.write(BlockRef::Slot(b), &payload(5, 1));

    let mut c1 = Client::connect(&addr, 5, 3, quick_retries()).unwrap();
    let first = c1.commit(&txn, 1, Durability::Sync).unwrap();
    drop(c1);

    // New incarnation: same write_id is a fresh transaction.
    let mut c2 = Client::connect(&addr, 5, 4, quick_retries()).unwrap();
    assert_eq!(c2.floor(), 0);
    let again = c2.commit(&txn, 1, Durability::Sync).unwrap();
    assert!(!again.deduped);
    assert!(Timestamp::new(again.commit_ts) > Timestamp::new(first.commit_ts));

    // Stale incarnation: the handshake itself is refused.
    match Client::connect(&addr, 5, 3, quick_retries()) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("generation"), "unexpected message: {msg}")
        }
        other => panic!("stale generation accepted: {other:?}"),
    }

    drop(c2);
    server.shutdown().1.unwrap();
}

/// The accept thread blocks in `accept()`: a client that connects once
/// the thread has got there is served at once. A loop that polls and
/// sleeps 5 ms makes such a connect wait out the rest of a sleep: the
/// rounds connect at twenty phases of that period, a quarter of a
/// millisecond apart, so on that loop more than half of them wait over
/// 2 ms whatever the host does. The median is what is bounded: the host
/// is shared, and a round that loses the processor for a scheduler tick
/// says nothing about the loop.
#[test]
fn a_connect_is_served_without_waiting_out_a_poll() {
    const ROUNDS: usize = 20;
    let mut took = Vec::new();
    for round in 0..ROUNDS as u32 {
        let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
        let server = Server::start(ld, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        std::thread::sleep(Duration::from_millis(20) + Duration::from_micros(250) * round);
        let t0 = Instant::now();
        let mut c = Client::connect(&addr, 9, 1, quick_retries()).unwrap();
        assert_eq!(c.lookup(1).unwrap(), None);
        took.push(t0.elapsed());
        drop(c);
        server.shutdown().1.unwrap();
    }
    let mut sorted = took.clone();
    sorted.sort_unstable();
    assert!(
        sorted[ROUNDS / 2] < Duration::from_millis(2),
        "connect + lookup, {ROUNDS} rounds: {took:?}"
    );
}

/// `shutdown` wakes the blocked accept thread itself: it returns
/// promptly with nobody connected, and with an idle client connected
/// (whose session sees the flag at its next read timeout).
#[test]
fn shutdown_returns_promptly_with_no_client_and_with_an_idle_one() {
    for idle_client in [false, true] {
        let ld = Arc::new(Lld::format(MemDisk::new(4 << 20), &config(DEFAULT)).unwrap());
        let server = Server::start(ld, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let client = idle_client.then(|| Client::connect(&addr, 9, 1, quick_retries()).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        let (ld, flushed) = server.shutdown();
        let took = t0.elapsed();
        flushed.unwrap();
        assert!(
            took < Duration::from_secs(1),
            "shutdown took {took:?} (idle client: {idle_client})"
        );
        assert_eq!(
            Arc::strong_count(&ld),
            1,
            "a server thread outlived shutdown"
        );
        drop(client);
    }
}
