//! The inline segment cleaner: reclaims space by copying live blocks
//! forward.
//!
//! "If LLD runs out of disk space it uses a segment cleaner to reclaim
//! unused disk space" (§2). The unit of cleaning is the *slot*, which
//! holds one full segment or several sealed early by flushes (see
//! `segment.rs`); per-slot liveness (`residents`) does not care which.
//! The policy is greedy lowest-utilisation, *packing*: victims are the
//! sealed slots with the fewest live sectors (`live_sectors`, what their
//! blocks' extents take), taken together as long as their combined live
//! sectors fit in one output segment. Live blocks are copied into the current segment (with fresh
//! `Write` records preserving their logical timestamps), and the victim
//! slots are released together with the seal of the relocation records:
//! no segment is opened in a victim before that seal is written.
//! Packing pays where overwrites and deletions leave many slots with a
//! handful of live blocks each: one batch, one seal and one checkpoint
//! test hand back all of them, where cleaning them one at a time seals
//! (header, summary, barrier on the next flush) once per slot freed.
//!
//! Correctness constraint: a slot may be reused only when every
//! segment in it is covered by a checkpoint — otherwise a later
//! recovery scan would miss operations that used to live there. Hence
//! `slot_seq` holds the *newest* segment of each slot, the slot the log
//! is being written into is nobody's victim
//! ([`LogState::open_slot`]), and the inline pass takes covered victims
//! only. It runs inside a session, maybe halfway through a commit, where
//! a checkpoint would hold part of an ARU (docs/INVARIANTS.md I6): where
//! none is covered it stops, and the housekeeping step after the session
//! writes the checkpoint and resumes it ([`LldInner::after_session`]).
//!
//! The cleaner relocates blocks of arbitrary identifiers, so it only
//! ever runs inside a *full* mutation session (all shards write-locked).
//! Scoped sessions that notice space pressure kick the background
//! cleaner ([`crate::cleanerd`]) or set a flag for the owning operation
//! to clean right after releasing its locks.

use crate::error::Result;
use crate::layout::Layout;
use crate::lld::{LldInner, LogState, Mutation};
use crate::segment::extent;
use crate::types::BlockId;
use ld_disk::BlockDevice;
use std::sync::atomic::Ordering;

/// Whether cleaning `slots` slots holding `live` sectors gives room
/// back: not where those, a block more a slot, fill their data areas
/// less the summary's block, as full as segments get.
pub(crate) fn cleaning_gains(layout: &Layout, slots: u64, live: u64) -> bool {
    live + slots * u64::from(2 * layout.sectors_per_block())
        <= slots * u64::from(layout.data_sectors_per_slot())
}

/// The policy both cleaners share (this one and [`crate::cleanerd`]).
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
    /// `cleanerd` relocates before it writes the checkpoint that lets
    /// them go. The inline pass takes covered victims only.
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

impl<D: BlockDevice> LldInner<D> {
    /// Runs the cleaner until `target_free_segments` slots are free or
    /// no further segment can be cleaned. Invoked automatically when
    /// free slots drop below `min_free_segments`; may also be called
    /// explicitly. Where no sealed slot is covered by a checkpoint, the
    /// checkpoint is written once the pass's session has let go of its
    /// locks, and the pass resumes.
    ///
    /// # Errors
    ///
    /// Device errors; [`LldError::DiskFull`](crate::LldError::DiskFull)
    /// if relocation itself runs out of space (the device is genuinely
    /// full).
    pub fn run_cleaner(&self) -> Result<()> {
        self.with_mutation(|m| m.run_cleaner_inner())
    }
}

/// Clears the `cleaning` re-entry flag when the borrowed session leaves
/// the cleaner, however it leaves — an early `?` inside the cleaning
/// loop must never wedge future cleaner runs with the flag stuck set.
struct CleaningGuard<'g, 'a, D: BlockDevice>(&'g mut Mutation<'a, D>);

impl<D: BlockDevice> Drop for CleaningGuard<'_, '_, D> {
    fn drop(&mut self) {
        self.0.log().cleaning = false;
    }
}

impl<D: BlockDevice> Mutation<'_, D> {
    /// Cleaner entry point, also called from
    /// [`roll_segment`](Mutation::roll_segment) when free slots are
    /// scarce.
    pub(crate) fn run_cleaner_inner(&mut self) -> Result<()> {
        let target = self.lld.cleaner_cfg.target_free_segments.max(1) as usize;
        self.clean_until(target, false)
    }

    /// Cleans until `target` slots are free, in a full session; the
    /// `cleaning` flag keeps the rolls of a pass from starting another
    /// (a guard resets it on every exit path). Covered victims only:
    /// where none is left the pass asks for a checkpoint and for its own
    /// resumption, and stops ([`LldInner::after_session`] resumes it);
    /// a resumed pass that finds none left ends there.
    /// `compact` is the reserve pass ([`Mutation::open_under`]): each
    /// victim is released as it empties and nothing is sealed between
    /// two, so that part-full slots pack together (two of four live
    /// blocks are two batches) and one free slot is room to start.
    pub(crate) fn clean_until(&mut self, target: usize, compact: bool) -> Result<()> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.log().cleaning {
            return Ok(());
        }
        self.log().cleaning = true;
        let guard = CleaningGuard(self);
        guard.0.clean_loop(target, compact)
    }

    fn clean_loop(&mut self, target: usize, compact: bool) -> Result<()> {
        // A pass resumed once its checkpoint is written is the pass that
        // stopped for it, counted once.
        let resumed = std::mem::take(&mut self.log().clean_stopped);
        if !resumed {
            self.lld.stats.cleaner_runs.inc();
        }
        let relocated_before = self.lld.stats.blocks_relocated.get();
        // Fast pass first, regardless of the target.
        self.log().release_covered_empty();
        self.sync_free_hint();
        let pack_cap = self.lld.layout.data_sectors_per_slot();
        // Bounded by the number of segments: each iteration frees at
        // least one victim or stops.
        for _ in 0..self.lld.layout.n_segments {
            if self.log().free_slots.len() >= target {
                break;
            }
            let (victims, covered) = self.log().pick_victims(pack_cap, usize::MAX);
            if !covered && !resumed {
                self.log().clean_stopped = true;
                self.lld.needs_checkpoint.store(true, Ordering::Relaxed);
                self.lld.needs_clean.store(true, Ordering::Relaxed);
                return Ok(());
            }
            // Emptiest first: where that one is as full as a segment
            // gets, nothing is left to gain.
            let packed = match victims[..] {
                [(slot, _)] => {
                    !cleaning_gains(&self.lld.layout, 1, self.log().live_sectors[slot as usize])
                }
                _ => false,
            };
            if !covered || victims.is_empty() || compact && packed {
                break;
            }
            self.clean_batch(&victims, compact)?;
        }
        let free_segments = self.log().free_slots.len() as u32;
        self.log().clean_fell_short = (free_segments as usize) < target;
        self.lld.obs.event(
            self.lld.now(),
            crate::obs::TraceEvent::CleanerPass {
                free_segments,
                blocks_relocated: self.lld.stats.blocks_relocated.get() - relocated_before,
            },
        );
        Ok(())
    }

    /// Relocates every live block out of the `victims`, seals the
    /// relocation records *once* for the whole batch, and frees the
    /// slots; `compact` frees each as it empties and seals nothing.
    fn clean_batch(&mut self, victims: &[(u32, u64)], compact: bool) -> Result<()> {
        let mut buf = vec![0u8; self.lld.layout.block_size];
        for &(victim, _) in victims {
            let residents: Vec<BlockId> = {
                let mut v: Vec<BlockId> = self.log().residents[victim as usize]
                    .iter()
                    .copied()
                    .collect();
                v.sort_unstable();
                v
            };
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
            if compact {
                self.log().release_slot(victim);
            }
        }
        // Release the victims *before* sealing the relocation records:
        // the seal chooses the next segment's slot, and the freed slots
        // may be the only ones left. The session holds the log from
        // here through the seal and its write, and nothing is written
        // into a victim before every segment sealed by now, or open, is
        // on the device (the release stamp, W3).
        if !compact {
            for &(victim, _) in victims {
                self.log().release_slot(victim);
            }
            self.seal_current()?;
        }
        self.sync_free_hint();
        Ok(())
    }
}
