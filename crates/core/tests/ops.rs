//! Basic LD interface behaviour: allocation, lists, reads and writes,
//! flushing — all outside ARUs.

use ld_core::{Ctx, Lld, LldConfig, LldError, Position};
use ld_disk::{DiskModel, MemDisk, SimDisk};

mod common;

const BS: usize = 512;

fn config() -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(256),
        max_lists: Some(64),
        ..LldConfig::default()
    }
}

fn fresh() -> Lld<MemDisk> {
    Lld::format(MemDisk::new(2 << 20), &config()).unwrap()
}

fn block(byte: u8) -> Vec<u8> {
    vec![byte; BS]
}

#[test]
fn format_and_accessors() {
    let ld = fresh();
    assert_eq!(ld.block_size(), BS);
    assert_eq!(ld.segment_bytes(), 16 * BS);
    assert!(ld.n_segments() >= 4);
    assert_eq!(ld.allocated_block_count(), 0);
    assert_eq!(ld.allocated_list_count(), 0);
    assert!(ld.active_arus().is_empty());
    assert_eq!(ld.checkpoint_seq(), 0);
}

#[test]
fn write_read_round_trip() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(0xAB)).unwrap();
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(0xAB));
}

#[test]
fn unwritten_block_reads_as_zeroes() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let mut buf = block(0xFF);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(0));
}

#[test]
fn read_spans_segment_seal() {
    // Data written into an earlier, sealed segment must still be
    // readable (from the device rather than the open buffer).
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(0x77)).unwrap();
    // Force many segment rolls.
    let mut prev = b;
    for i in 0..40u8 {
        let nb = ld
            .new_block(Ctx::Simple, list, Position::After(prev))
            .unwrap();
        ld.write(Ctx::Simple, nb, &block(i)).unwrap();
        prev = nb;
    }
    assert!(ld.stats().segments_sealed > 0);
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(0x77));
}

#[test]
fn list_order_first_and_after() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b1 = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let b2 = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let b3 = ld
        .new_block(Ctx::Simple, list, Position::After(b1))
        .unwrap();
    // b2 at front, then b1, then b3 (inserted after b1).
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap(), vec![b2, b1, b3]);
    // last pointer: appending after b3 keeps order.
    let b4 = ld
        .new_block(Ctx::Simple, list, Position::After(b3))
        .unwrap();
    assert_eq!(
        ld.list_blocks(Ctx::Simple, list).unwrap(),
        vec![b2, b1, b3, b4]
    );
}

#[test]
fn delete_block_relinks_list() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b1 = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let b2 = ld
        .new_block(Ctx::Simple, list, Position::After(b1))
        .unwrap();
    let b3 = ld
        .new_block(Ctx::Simple, list, Position::After(b2))
        .unwrap();
    // Delete the middle block.
    ld.delete_block(Ctx::Simple, b2).unwrap();
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap(), vec![b1, b3]);
    // Delete the head.
    ld.delete_block(Ctx::Simple, b1).unwrap();
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap(), vec![b3]);
    // Delete the only remaining block.
    ld.delete_block(Ctx::Simple, b3).unwrap();
    assert_eq!(ld.list_blocks(Ctx::Simple, list).unwrap(), Vec::new());
    // Deleted blocks are unreadable.
    let mut buf = block(0);
    assert!(matches!(
        ld.read(Ctx::Simple, b2, &mut buf),
        Err(LldError::BlockNotAllocated(_))
    ));
}

#[test]
fn delete_list_reclaims_members() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let mut prev = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let first = prev;
    for _ in 0..5 {
        prev = ld
            .new_block(Ctx::Simple, list, Position::After(prev))
            .unwrap();
    }
    assert_eq!(ld.allocated_block_count(), 6);
    ld.delete_list(Ctx::Simple, list).unwrap();
    assert_eq!(ld.allocated_block_count(), 0);
    assert_eq!(ld.allocated_list_count(), 0);
    let mut buf = block(0);
    assert!(ld.read(Ctx::Simple, first, &mut buf).is_err());
    assert!(ld.list_blocks(Ctx::Simple, list).is_err());
}

#[test]
fn freed_identifiers_are_reused() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.delete_block(Ctx::Simple, b).unwrap();
    let b2 = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    assert_eq!(b, b2, "the lowest freed identifier is reused");
}

#[test]
fn wrong_block_length_rejected() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    assert!(matches!(
        ld.write(Ctx::Simple, b, &[0u8; 100]),
        Err(LldError::WrongBlockLength { got: 100, .. })
    ));
    let mut small = [0u8; 17];
    assert!(matches!(
        ld.read(Ctx::Simple, b, &mut small),
        Err(LldError::WrongBlockLength { .. })
    ));
}

#[test]
fn predecessor_must_be_on_the_list() {
    let ld = fresh();
    let l1 = ld.new_list(Ctx::Simple).unwrap();
    let l2 = ld.new_list(Ctx::Simple).unwrap();
    let b1 = ld.new_block(Ctx::Simple, l1, Position::First).unwrap();
    assert!(matches!(
        ld.new_block(Ctx::Simple, l2, Position::After(b1)),
        Err(LldError::PredecessorNotOnList { .. })
    ));
}

#[test]
fn operations_on_missing_objects_fail() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.delete_list(Ctx::Simple, list).unwrap();
    assert!(ld.delete_list(Ctx::Simple, list).is_err());
    assert!(ld.delete_block(Ctx::Simple, b).is_err());
    assert!(ld.write(Ctx::Simple, b, &block(0)).is_err());
    assert!(ld.new_block(Ctx::Simple, list, Position::First).is_err());
}

#[test]
fn allocation_limit_enforced() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let mut n = 0;
    loop {
        match ld.new_block(Ctx::Simple, list, Position::First) {
            Ok(_) => n += 1,
            Err(LldError::DiskFull) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(n <= 256, "limit not enforced");
    }
    assert_eq!(n, 256);
}

#[test]
fn overwrite_returns_latest_data() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    for i in 0..10u8 {
        ld.write(Ctx::Simple, b, &block(i)).unwrap();
    }
    let mut buf = block(0xFF);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    assert_eq!(buf, block(9));
}

#[test]
fn flush_writes_partial_segment() {
    let device = SimDisk::new(MemDisk::new(2 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(device, &config()).unwrap();
    let before = ld.device().stats().snapshot().writes;
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    ld.flush().unwrap();
    let after = ld.device().stats().snapshot();
    assert!(after.writes > before);
    assert!(after.flushes >= 1);
}

#[test]
fn stats_count_operations() {
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, b, &block(1)).unwrap();
    let mut buf = block(0);
    ld.read(Ctx::Simple, b, &mut buf).unwrap();
    ld.delete_block(Ctx::Simple, b).unwrap();
    ld.delete_list(Ctx::Simple, list).unwrap();
    let s = ld.stats();
    assert_eq!(s.new_lists, 1);
    assert_eq!(s.new_blocks, 1);
    assert_eq!(s.writes, 1);
    assert_eq!(s.reads, 1);
    assert_eq!(s.delete_blocks, 1);
    assert_eq!(s.delete_lists, 1);
    assert!(s.records_emitted >= 4);
    let ld = ld;
    ld.reset_stats();
    assert_eq!(ld.stats().reads, 0);
}

#[test]
fn data_survives_many_overwrites_of_other_blocks() {
    // Regression guard for address accounting: block 1's data must not
    // be disturbed by churn on other blocks across segment boundaries.
    let ld = fresh();
    let list = ld.new_list(Ctx::Simple).unwrap();
    let stable = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    ld.write(Ctx::Simple, stable, &block(0x5A)).unwrap();
    let churn = common::churn_ring(&ld, list, Some(stable));
    for i in 0..100u8 {
        let b = churn[usize::from(i) % churn.len()];
        ld.write(Ctx::Simple, b, &block(i)).unwrap();
    }
    assert!(ld.stats().segments_sealed >= 4, "segment boundaries");
    let mut buf = block(0);
    ld.read(Ctx::Simple, stable, &mut buf).unwrap();
    assert_eq!(buf, block(0x5A));
}
