//! An LRU cache of data blocks, keyed by physical address.
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

use crate::segment::{zero_past_extent, SECTOR};
use crate::types::{PhysAddr, SegmentId};
use std::collections::{BTreeMap, HashMap, HashSet};

#[derive(Debug)]
pub(crate) struct BlockCache {
    capacity: usize,
    map: HashMap<PhysAddr, (u64, Vec<u8>)>,
    order: BTreeMap<u64, PhysAddr>,
    /// Reverse index: the cached addresses living in each segment, so
    /// invalidating a reused segment costs O(entries in that segment),
    /// not a scan of the whole cache.
    by_segment: HashMap<SegmentId, HashSet<PhysAddr>>,
    tick: u64,
}

impl BlockCache {
    pub(crate) fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            map: HashMap::new(),
            order: BTreeMap::new(),
            by_segment: HashMap::new(),
            tick: 0,
        }
    }

    /// Removes `addr` from the reverse index, dropping the segment's
    /// set when it empties (so the index never outgrows the cache).
    fn unindex(&mut self, addr: PhysAddr) {
        if let Some(set) = self.by_segment.get_mut(&addr.segment) {
            set.remove(&addr);
            if set.is_empty() {
                self.by_segment.remove(&addr.segment);
            }
        }
    }

    /// Copies the cached block into `buf`, zero-filled past its extent,
    /// and refreshes its recency. Returns `false` on a miss.
    pub(crate) fn get(&mut self, addr: PhysAddr, buf: &mut [u8]) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let Some((stamp, data)) = self.map.get_mut(&addr) else {
            return false;
        };
        zero_past_extent(buf, addr.sectors).copy_from_slice(data);
        let old = *stamp;
        self.tick += 1;
        *stamp = self.tick;
        self.order.remove(&old);
        self.order.insert(self.tick, addr);
        true
    }

    /// Inserts (or refreshes) the block `data` at `addr`, keeping the
    /// extent the address names, and evicting the least recently used
    /// entry if full.
    pub(crate) fn insert(&mut self, addr: PhysAddr, data: &[u8]) {
        if self.capacity == 0 {
            return;
        }
        let data = &data[..addr.sectors as usize * SECTOR];
        self.tick += 1;
        if let Some((old, existing)) = self.map.get_mut(&addr) {
            self.order.remove(&{ *old });
            *old = self.tick;
            existing.clear();
            existing.extend_from_slice(data);
            self.order.insert(self.tick, addr);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some((&oldest, &victim)) = self.order.iter().next() {
                self.order.remove(&oldest);
                self.map.remove(&victim);
                self.unindex(victim);
            }
        }
        self.map.insert(addr, (self.tick, data.to_vec()));
        self.order.insert(self.tick, addr);
        self.by_segment
            .entry(addr.segment)
            .or_default()
            .insert(addr);
    }

    /// Drops the entry at `addr`, if there is one (its sectors are free
    /// for another extent).
    pub(crate) fn remove(&mut self, addr: PhysAddr) {
        if let Some((stamp, _)) = self.map.remove(&addr) {
            self.order.remove(&stamp);
            self.unindex(addr);
        }
    }

    /// Drops every entry whose address lies in `segment` (called when a
    /// cleaned segment slot is reused). O(entries in that segment) via
    /// the reverse index.
    pub(crate) fn invalidate_segment(&mut self, segment: SegmentId) {
        let Some(stale) = self.by_segment.remove(&segment) else {
            return;
        };
        for addr in stale {
            if let Some((stamp, _)) = self.map.remove(&addr) {
                self.order.remove(&stamp);
            }
        }
    }

    #[allow(dead_code)] // used by tests
    pub(crate) fn len(&self) -> usize {
        self.map.len()
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

    #[test]
    fn hit_and_miss() {
        let mut c = BlockCache::new(4);
        let mut buf = [0xEEu8; 1024];
        assert!(!c.get(addr(0, 0), &mut buf));
        c.insert(addr(0, 0), &block(1));
        assert!(c.get(addr(0, 0), &mut buf));
        // The extent, zero-filled: an entry keeps one sector.
        assert_eq!(buf, block(1));
        assert_eq!(c.map[&addr(0, 0)].1.len(), 512);
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
    fn lru_eviction_order() {
        let mut c = BlockCache::new(2);
        c.insert(addr(0, 0), &block(0));
        c.insert(addr(0, 1), &block(1));
        // Touch entry 0 so entry 1 becomes the victim.
        let mut buf = [0u8; 1024];
        assert!(c.get(addr(0, 0), &mut buf));
        c.insert(addr(0, 2), &block(2));
        assert_eq!(c.len(), 2);
        assert!(c.get(addr(0, 0), &mut buf));
        assert!(!c.get(addr(0, 1), &mut buf));
        assert!(c.get(addr(0, 2), &mut buf));
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
        // Fill, then evict the LRU entry (seg 3 slot 0) by inserting a
        // third address: the reverse index must forget the victim.
        c.insert(addr(3, 0), &block(1));
        c.insert(addr(3, 1), &block(2));
        c.insert(addr(4, 0), &block(3));
        assert_eq!(c.len(), 2);
        // Invalidating seg 3 must drop exactly the surviving seg-3
        // entry, not resurrect or double-free the evicted one.
        c.invalidate_segment(SegmentId::new(3));
        assert_eq!(c.len(), 1);
        assert!(!c.get(addr(3, 0), &mut buf));
        assert!(!c.get(addr(3, 1), &mut buf));
        assert!(c.get(addr(4, 0), &mut buf));
        // Reuse the invalidated segment: new entries index cleanly and
        // a second invalidation sees only them.
        c.insert(addr(3, 0), &block(7));
        c.insert(addr(3, 1), &block(8)); // evicts seg 4 slot 0
        assert!(!c.get(addr(4, 0), &mut buf));
        c.invalidate_segment(SegmentId::new(4)); // nothing left there
        assert_eq!(c.len(), 2);
        c.invalidate_segment(SegmentId::new(3));
        assert_eq!(c.len(), 0);
        assert!(c.order.is_empty());
        assert!(c.by_segment.is_empty());
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
        assert_eq!((c.len(), c.order.len()), (1, 1));
        assert_eq!(c.by_segment[&SegmentId::new(3)].len(), 1);
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
