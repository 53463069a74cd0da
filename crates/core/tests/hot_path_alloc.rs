//! Heap allocations on the hot path, counted by a global allocator.
//!
//! A cached read and an empty ARU allocate nothing once the disk is
//! warm: the guard sets of a session are held inline, the block cache
//! reuses its frames, and an ARU's span counters live in the ARU. A
//! create-shaped unit (the Fig. 5 client's create: begin, a new list,
//! two read+write pairs, end) and the deletion of its list allocate for
//! the data they buffer and the records they copy, not per lock.
//!
//! The allocator counts only on the thread that asked it to, so the
//! background cleaner and other tests running in parallel add nothing.

use ld_core::{BlockId, Ctx, Lld, LldConfig, Position};
use ld_disk::MemDisk;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counts one allocation if the calling thread is counting. `try_with`:
/// the allocator also runs while thread-locals are torn down.
fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

const BS: usize = 4096;

fn disk() -> Lld<MemDisk> {
    Lld::format(MemDisk::new(16 << 20), &LldConfig::default()).unwrap()
}

/// A 1 KiB file's block: a one-sector-or-so extent in a 4 KiB block.
fn data(tag: u8) -> Vec<u8> {
    let mut d = vec![0u8; BS];
    d[..1000].fill(tag);
    d
}

/// Two written, flushed blocks on a fresh list: the inode and directory
/// blocks a create reads and rewrites.
fn setup(ld: &Lld<MemDisk>) -> (BlockId, BlockId) {
    let list = ld.new_list(Ctx::Simple).unwrap();
    let a = ld.new_block(Ctx::Simple, list, Position::First).unwrap();
    let b = ld.new_block(Ctx::Simple, list, Position::After(a)).unwrap();
    ld.write(Ctx::Simple, a, &data(1)).unwrap();
    ld.write(Ctx::Simple, b, &data(2)).unwrap();
    ld.flush().unwrap();
    (a, b)
}

#[test]
fn a_cached_read_allocates_nothing() {
    let ld = disk();
    let (a, _) = setup(&ld);
    let mut buf = vec![0u8; BS];
    // Warm-up: the first read fills the cache.
    for _ in 0..10 {
        ld.read(Ctx::Simple, a, &mut buf).unwrap();
    }
    let hits = ld.stats().cache_hits;
    let n = allocations(|| {
        for _ in 0..1_000 {
            ld.read(Ctx::Simple, a, &mut buf).unwrap();
        }
    });
    assert_eq!(ld.stats().cache_hits - hits, 1_000, "every read hits");
    assert_eq!(buf, data(1));
    assert_eq!(n, 0, "1,000 cached reads allocated {n} times");
}

#[test]
fn an_empty_aru_allocates_nothing() {
    let ld = disk();
    // Warm-up: enough ARUs to fill the trace ring and the table of
    // finished spans, which then stop growing.
    for _ in 0..2_000 {
        let aru = ld.begin_aru().unwrap();
        ld.end_aru(aru).unwrap();
    }
    let committed = ld.stats().arus_committed;
    let n = allocations(|| {
        for _ in 0..1_000 {
            let aru = ld.begin_aru().unwrap();
            ld.end_aru(aru).unwrap();
        }
    });
    assert_eq!(ld.stats().arus_committed - committed, 1_000);
    assert_eq!(n, 0, "1,000 empty ARUs allocated {n} times");
}

/// Allocations of one create-shaped unit and the deletion of its list.
fn create_unit(ld: &Lld<MemDisk>, (a, b): (BlockId, BlockId), tag: u8) -> u64 {
    let mut buf = vec![0u8; BS];
    let block = data(tag);
    allocations(|| {
        let aru = ld.begin_aru().unwrap();
        let ctx = Ctx::Aru(aru);
        let list = ld.new_list(ctx).unwrap();
        for blk in [a, b] {
            ld.read(ctx, blk, &mut buf).unwrap();
            ld.write(ctx, blk, &block).unwrap();
        }
        ld.end_aru(aru).unwrap();
        ld.delete_list(Ctx::Simple, list).unwrap();
    })
}

#[test]
fn a_create_shaped_unit_allocates_for_its_data_only() {
    let ld = disk();
    let blocks = setup(&ld);
    for i in 0..10 {
        create_unit(&ld, blocks, 10 + i);
    }
    let worst = (0..50).map(|i| create_unit(&ld, blocks, 30 + i)).max();
    let worst = worst.unwrap();
    // The bound: half the 24 this unit costs with a vector per lock set
    // and an allocation per cache entry.
    assert!(worst <= 11, "a create-shaped unit allocated {worst} times");
}
