//! A CLOCK cache of data blocks, keyed by physical address.
//!
//! An entry holds the block's extent, the bytes its address names; a hit
//! zero-fills the rest of the caller's block, as a device read does.
//!
//! The paper's Minix file system sits on a buffer cache; without one,
//! every inode or directory read-modify-write would pay a disk read.
//! Keying by *physical* address makes consistency trivial in a
//! log-structured disk: a block on the device is never overwritten in
//! place, so an entry can only go stale when the cleaner frees its
//! segment — [`BlockCache::invalidate_segment`] handles that single
//! case. (Sectors of the *open* segment may be rewritten: by a write
//! that then [`insert`](BlockCache::insert)s the new contents under the
//! same address, or, once a version there is superseded and its sectors
//! freed for the next extent, after [`remove`](BlockCache::remove) has
//! dropped that version's entry; reads of the open segment are served
//! from its buffer anyway.)
//!
//! The replacement policy is CLOCK (second chance). Entries live in
//! frames, allocated as the cache fills and reused after it is full; an
//! index maps each address to its frame. A hit or an insert sets the
//! frame's referenced bit and moves nothing. An insert into a full
//! cache advances a hand over the frames, clearing the bits it finds
//! set, and takes the first frame not referenced since the hand last
//! passed it. An insert counts as a reference: replayed against the
//! cache trace of the Fig. 5 client, a new entry that the hand could
//! take on its first pass lost 1.5 % of the hits LRU keeps, and one
//! that counts as referenced loses none.
//!
//! A frame keeps its buffer for the next entry when that entry's extent
//! fits it and fills at least half of it, so a hit never allocates and
//! an entry holds at most twice its extent, never more than a block.

use crate::segment::{zero_past_extent, SECTOR};
use crate::state::IdMap;
use crate::types::{PhysAddr, SegmentId};

/// One cached entry's place: its address (`None` while the frame is
/// free), the referenced bit, and the extent's bytes.
#[derive(Debug, Default)]
struct Frame {
    addr: Option<PhysAddr>,
    referenced: bool,
    data: Vec<u8>,
}

#[derive(Debug)]
pub(crate) struct BlockCache {
    capacity: usize,
    /// Address → index of the frame that holds it.
    index: IdMap<PhysAddr, usize>,
    /// At most `capacity` frames, pushed as the cache fills.
    frames: Vec<Frame>,
    /// Frames whose entry was removed, taken before the hand evicts.
    free: Vec<usize>,
    /// The next frame the hand looks at.
    hand: usize,
}

impl BlockCache {
    pub(crate) fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            index: IdMap::default(),
            frames: Vec::new(),
            free: Vec::new(),
            hand: 0,
        }
    }

    /// Copies the cached block into `buf`, zero-filled past its extent,
    /// and marks it referenced. Returns `false` on a miss.
    pub(crate) fn get(&mut self, addr: PhysAddr, buf: &mut [u8]) -> bool {
        let Some(&f) = self.index.get(&addr) else {
            return false;
        };
        let frame = &mut self.frames[f];
        frame.referenced = true;
        zero_past_extent(buf, addr.sectors).copy_from_slice(&frame.data);
        true
    }

    /// Inserts (or refreshes) the block at `addr`, marked referenced:
    /// `data` is the block or a prefix of it that holds its extent, and
    /// the entry keeps the extent the address names, zero-padded. A new
    /// entry takes a free frame, a new one while the cache fills, or the
    /// hand's victim.
    pub(crate) fn insert(&mut self, addr: PhysAddr, data: &[u8]) {
        if self.capacity == 0 {
            return;
        }
        let f = match self.index.get(&addr) {
            Some(&f) => f,
            None => {
                let f = self.vacant();
                self.frames[f].addr = Some(addr);
                self.index.insert(addr, f);
                f
            }
        };
        let frame = &mut self.frames[f];
        frame.referenced = true;
        let len = addr.sectors as usize * SECTOR;
        let buf = &mut frame.data;
        if buf.capacity() < len || buf.capacity() / 2 > len {
            *buf = Vec::with_capacity(len);
        }
        buf.clear();
        buf.extend_from_slice(&data[..data.len().min(len)]);
        buf.resize(len, 0);
    }

    /// A frame for a new entry, holding no address.
    fn vacant(&mut self) -> usize {
        let f = if let Some(f) = self.free.pop() {
            f
        } else if self.frames.len() < self.capacity {
            self.frames.push(Frame::default());
            self.frames.len() - 1
        } else {
            // Every frame holds an entry: one sweep clears every bit,
            // so the hand stops within two.
            loop {
                let f = self.hand;
                self.hand = (f + 1) % self.frames.len();
                if !std::mem::take(&mut self.frames[f].referenced) {
                    break f;
                }
            }
        };
        if let Some(victim) = self.frames[f].addr.take() {
            self.index.remove(&victim);
        }
        f
    }

    /// Frees frame `f`: its entry leaves the index.
    fn release(&mut self, f: usize) {
        if let Some(addr) = self.frames[f].addr.take() {
            self.index.remove(&addr);
            self.free.push(f);
        }
    }

    /// Drops the entry at `addr`, if there is one (its sectors are free
    /// for another extent).
    pub(crate) fn remove(&mut self, addr: PhysAddr) {
        if let Some(&f) = self.index.get(&addr) {
            self.release(f);
        }
    }

    /// Drops every entry whose address lies in `segment` (called when a
    /// cleaned segment slot is reused): one pass over the frames.
    pub(crate) fn invalidate_segment(&mut self, segment: SegmentId) {
        for f in 0..self.frames.len() {
            if self.frames[f].addr.is_some_and(|a| a.segment == segment) {
                self.release(f);
            }
        }
    }

    #[allow(dead_code)] // used by tests
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-sector extent at sector `sector` of slot `seg`.
    fn addr(seg: u32, sector: u32) -> PhysAddr {
        PhysAddr {
            segment: SegmentId::new(seg),
            sector,
            sectors: 1,
        }
    }

    /// A 1 KiB block whose first byte is `b` and whose extent is that
    /// sector alone.
    fn block(b: u8) -> [u8; 1024] {
        let mut d = [0u8; 1024];
        d[0] = b;
        d
    }

    /// The bytes the entry at `a` holds.
    fn held(c: &BlockCache, a: PhysAddr) -> &Vec<u8> {
        &c.frames[c.index[&a]].data
    }

    /// Every frame the index names holds that address, each once, and
    /// every other frame is free.
    fn assert_consistent(c: &BlockCache) {
        for (a, &f) in &c.index {
            assert_eq!(c.frames[f].addr, Some(*a));
        }
        let holding = c.frames.iter().filter(|f| f.addr.is_some()).count();
        assert_eq!(holding, c.index.len());
        assert_eq!(c.free.len(), c.frames.len() - holding);
        assert!(c.free.iter().all(|&f| c.frames[f].addr.is_none()));
        assert!(c.frames.len() <= c.capacity);
    }

    #[test]
    fn hit_and_miss() {
        let mut c = BlockCache::new(4);
        let mut buf = [0xEEu8; 1024];
        assert!(!c.get(addr(0, 0), &mut buf));
        c.insert(addr(0, 0), &block(1));
        assert!(c.get(addr(0, 0), &mut buf));
        // The extent, zero-filled: an entry keeps one sector.
        assert_eq!(buf, block(1));
        assert_eq!(held(&c, addr(0, 0)).len(), 512);
        // An all-zero block keeps nothing.
        let zero = PhysAddr {
            sectors: 0,
            ..addr(0, 1)
        };
        c.insert(zero, &block(0));
        assert!(c.get(zero, &mut buf));
        assert_eq!(buf, block(0));
    }

    #[test]
    fn a_read_frame_survives_one_sweep() {
        let mut c = BlockCache::new(3);
        for s in 0..3 {
            c.insert(addr(0, s), &block(s as u8));
        }
        // Every entry went in referenced: the first eviction sweeps the
        // whole clock, clearing each bit, and takes the first frame.
        c.insert(addr(0, 3), &block(3));
        assert!(!c.index.contains_key(&addr(0, 0)));
        // Read entry 1: the hand passes it once more, clearing its bit,
        // and takes entry 2, which nobody read since the sweep.
        let mut buf = [0u8; 1024];
        assert!(c.get(addr(0, 1), &mut buf));
        c.insert(addr(0, 4), &block(4));
        assert_eq!(c.len(), 3);
        assert!(!c.index.contains_key(&addr(0, 2)));
        assert!(c.index.contains_key(&addr(0, 1)));
        // Entry 1's second chance is spent: unread since, it goes next,
        // behind entry 3, which the hand clears.
        c.insert(addr(0, 5), &block(5));
        assert!(!c.index.contains_key(&addr(0, 1)));
        for s in [3, 4, 5] {
            assert!(c.get(addr(0, s), &mut buf));
            assert_eq!(buf, block(s as u8));
        }
        assert_consistent(&c);
    }

    #[test]
    fn reinsert_updates_data() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1, 0), &block(9));
        c.insert(addr(1, 0), &block(7));
        assert_eq!(c.len(), 1);
        let mut buf = [0u8; 1024];
        assert!(c.get(addr(1, 0), &mut buf));
        assert_eq!(buf, block(7));
    }

    #[test]
    fn segment_invalidation() {
        let mut c = BlockCache::new(8);
        c.insert(addr(3, 0), &block(1));
        c.insert(addr(3, 1), &block(2));
        c.insert(addr(4, 0), &block(3));
        c.invalidate_segment(SegmentId::new(3));
        let mut buf = [0u8; 1024];
        assert!(!c.get(addr(3, 0), &mut buf));
        assert!(!c.get(addr(3, 1), &mut buf));
        assert!(c.get(addr(4, 0), &mut buf));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn interleaved_insert_evict_invalidate_keeps_index_consistent() {
        let mut c = BlockCache::new(2);
        let mut buf = [0u8; 1024];
        // Fill, then evict the hand's first victim (seg 3 slot 0) by
        // inserting a third address: the index must forget it.
        c.insert(addr(3, 0), &block(1));
        c.insert(addr(3, 1), &block(2));
        c.insert(addr(4, 0), &block(3));
        assert_eq!(c.len(), 2);
        assert!(!c.index.contains_key(&addr(3, 0)));
        assert_consistent(&c);
        // Invalidating seg 3 must drop exactly the surviving seg-3
        // entry, not resurrect or double-free the evicted one.
        c.invalidate_segment(SegmentId::new(3));
        assert_eq!(c.len(), 1);
        assert!(!c.get(addr(3, 0), &mut buf));
        assert!(!c.get(addr(3, 1), &mut buf));
        assert!(c.index.contains_key(&addr(4, 0)));
        assert_consistent(&c);
        // Reuse the invalidated segment: a new entry takes the freed
        // frame, the next one the hand's victim (after a sweep, the
        // frame under the hand), and each invalidation sees only its own
        // segment.
        c.insert(addr(3, 0), &block(7));
        assert_eq!((c.frames.len(), c.free.len()), (2, 0));
        c.insert(addr(3, 1), &block(8));
        assert!(!c.index.contains_key(&addr(3, 0)));
        assert!(c.get(addr(4, 0), &mut buf));
        assert!(c.get(addr(3, 1), &mut buf));
        assert_eq!(buf, block(8));
        assert_consistent(&c);
        c.invalidate_segment(SegmentId::new(4));
        assert_eq!(c.len(), 1);
        c.invalidate_segment(SegmentId::new(3));
        assert_eq!(c.len(), 0);
        assert!(c.index.is_empty());
        assert_eq!(c.free.len(), c.frames.len());
        assert_consistent(&c);
    }

    #[test]
    fn remove_drops_one_entry() {
        let mut c = BlockCache::new(4);
        c.insert(addr(3, 0), &block(1));
        c.insert(addr(3, 1), &block(2));
        c.remove(addr(3, 0));
        c.remove(addr(5, 0)); // nothing there
        let mut buf = [0u8; 1024];
        assert!(!c.get(addr(3, 0), &mut buf));
        assert!(c.get(addr(3, 1), &mut buf));
        assert_eq!(c.len(), 1);
        assert_eq!(c.free.len(), 1);
        assert_consistent(&c);
        // The freed frame takes the next entry.
        c.insert(addr(3, 2), &block(3));
        assert_eq!((c.len(), c.frames.len()), (2, 2));
        assert_consistent(&c);
    }

    #[test]
    fn an_entry_holds_its_extent_and_the_cache_at_most_a_block_a_frame() {
        const BS: usize = 4096;
        let bytes = |c: &BlockCache| c.frames.iter().map(|f| f.data.capacity()).sum::<usize>();
        let sized = |seg: u32, sector: u32, sectors: u32| PhysAddr {
            segment: SegmentId::new(seg),
            sector,
            sectors,
        };
        let full = [0x5Au8; BS];
        let mut c = BlockCache::new(4);
        // A one-sector entry holds one sector, not a block.
        c.insert(sized(0, 0, 1), &full);
        assert_eq!(held(&c, sized(0, 0, 1)).capacity(), SECTOR);
        // Churn extents of every length through the frames: a frame
        // keeps its buffer only while the extent fills half of it.
        for i in 0..200u32 {
            let a = sized(1 + i % 7, i, 1 + (i * 5) % 8);
            c.insert(a, &full);
            let cap = held(&c, a).capacity();
            let len = a.sectors as usize * SECTOR;
            assert!(cap >= len && cap <= 2 * len, "{len} bytes in {cap}");
            assert!(bytes(&c) <= c.capacity * BS);
            assert_consistent(&c);
        }
        // A one-sector entry in a frame that held a block drops it.
        c.insert(sized(9, 0, 8), &full);
        c.insert(sized(9, 0, 8), &full[..SECTOR]);
        assert_eq!(held(&c, sized(9, 0, 8)).capacity(), BS);
        c.remove(sized(9, 0, 8));
        c.insert(sized(9, 8, 1), &full);
        assert_eq!(held(&c, sized(9, 8, 1)).capacity(), SECTOR);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = BlockCache::new(0);
        c.insert(addr(0, 0), &block(1));
        let mut buf = [0u8; 1024];
        assert!(!c.get(addr(0, 0), &mut buf));
        assert_eq!(c.len(), 0);
    }
}
