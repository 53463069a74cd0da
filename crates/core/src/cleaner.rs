//! The cleaning policy and the reserve pass.
//!
//! "If LLD runs out of disk space it uses a segment cleaner to reclaim
//! unused disk space" (§2). There is one cleaning pass,
//! [`crate::cleanerd`]'s, run between sessions by whoever is free: the
//! `cleanerd` thread, or the caller's thread where there is none. This
//! module holds the policy that pass shares with the reserve pass, and
//! the reserve pass itself.
//!
//! The unit of cleaning is the *slot*, which holds one full segment or
//! several sealed early by flushes (see `segment.rs`); per-slot
//! liveness (`residents`) does not care which. The policy is greedy
//! lowest-utilisation, *packing*: victims are the sealed slots with the
//! fewest live sectors (`live_sectors`, what their blocks' extents
//! take), taken together as long as their combined live sectors fit in
//! one output segment. Packing pays where overwrites and deletions
//! leave many slots with a handful of live blocks each.
//!
//! Correctness constraint: a slot may be reused only when every
//! segment in it is covered by a checkpoint — otherwise a later
//! recovery scan would miss operations that used to live there. Hence
//! `slot_seq` holds the *newest* segment of each slot, and the slot the
//! log is being written into is nobody's victim
//! ([`LogState::open_slot`]).
//!
//! The reserve pass ([`Mutation::compact`]) is the one cleaning done
//! inside a session: a roll that finds no slot to open runs it before
//! it reports `DiskFull`. It relocates blocks of arbitrary identifiers,
//! so it runs only in a *full* session (all shards write-locked), and
//! it takes covered victims only: a checkpoint inside a session could
//! hold part of an ARU (docs/INVARIANTS.md I6).

use crate::error::Result;
use crate::layout::Layout;
use crate::lld::{LogState, Mutation};
use crate::segment::extent;
use crate::types::BlockId;
use ld_disk::BlockDevice;

/// Whether cleaning `slots` slots holding `live` sectors gives room
/// back: not where those, a block more a slot, fill their data areas
/// less the summary's block, as full as segments get.
pub(crate) fn cleaning_gains(layout: &Layout, slots: u64, live: u64) -> bool {
    live + slots * u64::from(2 * layout.sectors_per_block())
        <= slots * u64::from(layout.data_sectors_per_slot())
}

/// The policy the pass and the reserve pass share.
impl LogState {
    /// Slots holding sealed segments only — not the one the log is
    /// being written into — with the sequence number of the newest.
    fn sealed_slots(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let current = self.open_slot();
        (0..self.slot_seq.len() as u32)
            .map(|slot| (slot, self.slot_seq[slot as usize]))
            .filter(move |&(slot, seq)| {
                seq != 0 && Some(slot) != current && !self.free_slots.contains(&slot)
            })
    }

    /// The victims of a pass, and whether the checkpoint covers them:
    /// covered slots first, which come back as soon as they are empty;
    /// only when no sealed slot is covered, those below the written
    /// watermark (the cleaner reads victims from the device), which
    /// the pass relocates before it writes the checkpoint that lets
    /// them go. The reserve pass takes covered victims only.
    pub(crate) fn pick_victims(
        &self,
        pack_cap: u32,
        max_victims: usize,
    ) -> (Vec<(u32, u64)>, bool) {
        let written = self.watermark() - 1;
        let covered = self.pack_victims(self.checkpoint_seq.min(written), pack_cap, max_victims);
        if !covered.is_empty() || self.sealed_slots().next().is_none() {
            return (covered, true);
        }
        (self.pack_victims(written, pack_cap, max_victims), false)
    }

    /// Sealed segments no newer than `max_seq`, fewest live sectors
    /// first, taken together while their combined live sectors fit in
    /// one output segment (`pack_cap` sectors) and there are fewer than
    /// `max_victims` of them. Returns `(slot, seq)`.
    fn pack_victims(&self, max_seq: u64, pack_cap: u32, max_victims: usize) -> Vec<(u32, u64)> {
        let mut cands: Vec<(u64, u32, u64)> = self
            .sealed_slots()
            .filter(|&(_, seq)| seq <= max_seq)
            .map(|(slot, seq)| (self.live_sectors[slot as usize], slot, seq))
            .collect();
        cands.sort_unstable();
        let mut victims = Vec::new();
        let mut total_live = 0u64;
        for (live, slot, seq) in cands {
            if !victims.is_empty()
                && (total_live + live > u64::from(pack_cap) || victims.len() >= max_victims)
            {
                break;
            }
            victims.push((slot, seq));
            total_live += live;
        }
        victims
    }

    /// Whether the last checkpoint covers the sealed slot with the
    /// fewest live sectors (one of them, if several tie): the victim a
    /// pass that takes covered slots only wants first.
    pub(crate) fn covers_the_emptiest_slot(&self) -> bool {
        let covered = |seq: u64| seq <= self.checkpoint_seq;
        self.sealed_slots()
            .min_by_key(|&(slot, seq)| (self.live_sectors[slot as usize], !covered(seq)))
            .is_none_or(|(_, seq)| covered(seq))
    }

    /// Frees every sealed slot that the last checkpoint covers and that
    /// holds no live block — reclaimable with no relocation and no
    /// I/O. Returns how many.
    pub(crate) fn release_covered_empty(&mut self) -> u32 {
        let dead: Vec<u32> = self
            .sealed_slots()
            .filter(|&(slot, seq)| {
                seq <= self.checkpoint_seq && self.residents[slot as usize].is_empty()
            })
            .map(|(slot, _)| slot)
            .collect();
        for &slot in &dead {
            self.release_slot(slot);
        }
        dead.len() as u32
    }
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// The reserve pass of a roll that finds no slot to open
    /// ([`open_under`](Mutation::open_under)), in the roll's full
    /// session: covered victims only, emptiest first, each released as
    /// it empties and nothing sealed between two (the release stamp
    /// covers the open segment), so that part-full slots pack together
    /// and one free slot is room to start. It stops once `target` slots
    /// are free, no victim is covered, or the emptiest is as full as a
    /// segment gets. The `cleaning` flag keeps the rolls of its own
    /// relocations from starting another.
    pub(crate) fn compact(&mut self, target: usize) -> Result<()> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.log().cleaning {
            return Ok(());
        }
        self.log().cleaning = true;
        let compacted = self.compact_to(target);
        self.log().cleaning = false;
        compacted
    }

    fn compact_to(&mut self, target: usize) -> Result<()> {
        self.lld.stats.cleaner_runs.inc();
        let relocated_before = self.lld.stats.blocks_relocated.get();
        self.log().release_covered_empty();
        self.sync_free_hint();
        let pack_cap = self.lld.layout.data_sectors_per_slot();
        let mut buf = vec![0u8; self.lld.layout.block_size];
        // Bounded by the number of segments: each iteration frees at
        // least one victim or stops.
        for _ in 0..self.lld.layout.n_segments {
            if self.log().free_slots.len() >= target {
                break;
            }
            let (victims, covered) = self.log().pick_victims(pack_cap, usize::MAX);
            // Emptiest first: where that one is as full as a segment
            // gets, nothing is left to gain.
            let full = match victims[..] {
                [(slot, _)] => {
                    !cleaning_gains(&self.lld.layout, 1, self.log().live_sectors[slot as usize])
                }
                _ => false,
            };
            if !covered || victims.is_empty() || full {
                break;
            }
            for &(victim, _) in &victims {
                let mut residents: Vec<BlockId> = self.log().residents[victim as usize]
                    .iter()
                    .copied()
                    .collect();
                residents.sort_unstable();
                for id in residents {
                    let rec = self
                        .map
                        .committed_view(id)
                        .cloned()
                        .expect("resident block has a committed record");
                    let addr = rec.addr.expect("resident block has an address");
                    debug_assert_eq!(addr.segment.get(), victim);
                    // The victim is checkpoint-covered, so its data is on
                    // the device (W2).
                    self.lld.read_extent(addr, &mut buf)?;
                    // Re-enter the block with its original timestamp: the
                    // relocation is not a logical write.
                    self.place_block_data(id, extent(&buf), rec.ts, None, 0)?;
                    self.lld.stats.blocks_relocated.inc();
                }
                debug_assert!(self.log().residents[victim as usize].is_empty());
                self.log().release_slot(victim);
            }
            self.sync_free_hint();
        }
        self.lld.obs.event(
            self.lld.now(),
            crate::obs::TraceEvent::CleanerPass {
                free_segments: self.log().free_slots.len() as u32,
                blocks_relocated: self.lld.stats.blocks_relocated.get() - relocated_before,
            },
        );
        Ok(())
    }
}
