//! The inline segment cleaner: reclaims space by copying live blocks
//! forward.
//!
//! "If LLD runs out of disk space it uses a segment cleaner to reclaim
//! unused disk space" (§2). The policy here is greedy
//! lowest-utilisation, *packing*: victims are the sealed segments with
//! the fewest live blocks, taken together as long as their combined
//! live blocks fit in one output segment. Live blocks are copied into
//! the current segment (with fresh `Write` records preserving their
//! logical timestamps), and the victim slots are released together
//! with the seal of the relocation records: no segment is opened in a
//! victim before that seal is written.
//! Packing matters for workloads that seal small segments (e.g. a sync
//! after every tiny commit): cleaning such victims one at a time frees
//! one slot per sealed output — zero net progress — while packing
//! compacts many of them into a single output segment.
//!
//! Correctness constraint: a slot may be reused only when its old
//! records are covered by a checkpoint — otherwise a later recovery scan
//! would miss operations that used to live there. The cleaner writes a
//! checkpoint automatically when its candidates are not yet covered.
//!
//! The cleaner relocates blocks of arbitrary identifiers, so it only
//! ever runs inside a *full* mutation session (all shards write-locked).
//! Scoped sessions that notice space pressure kick the background
//! cleaner ([`crate::cleanerd`]) or set a flag for the owning operation
//! to clean right after releasing its locks (see
//! [`LldInner::after_scoped`]).

use crate::error::Result;
use crate::lld::{LldInner, Mutation};
use crate::types::{BlockId, SegmentId};
use ld_disk::BlockDevice;

impl<D: BlockDevice> LldInner<D> {
    /// Runs the cleaner until `target_free_segments` slots are free or
    /// no further segment can be cleaned. Invoked automatically when
    /// free slots drop below `min_free_segments`; may also be called
    /// explicitly.
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
    /// scarce. Requires a full session. The `cleaning` flag guards
    /// against re-entry through the segment rolls cleaning itself
    /// performs; a guard type resets it on every exit path.
    pub(crate) fn run_cleaner_inner(&mut self) -> Result<()> {
        debug_assert!(self.map.holds_all_shards_write());
        if self.log().cleaning {
            return Ok(());
        }
        self.log().cleaning = true;
        let guard = CleaningGuard(self);
        guard.0.clean_until_target()
    }

    fn clean_until_target(&mut self) -> Result<()> {
        self.lld.stats.cleaner_runs.inc();
        let relocated_before = self.lld.stats.blocks_relocated.get();
        // Fast pass: checkpoint-covered segments with zero live blocks
        // are free for the taking (no relocation, no extra I/O), so
        // reclaim them all regardless of the target.
        let current = self.log().builder.as_ref().map(|b| b.slot().get());
        for slot in 0..self.lld.layout.n_segments {
            if Some(slot) == current || self.log().free_slots.contains(&slot) {
                continue;
            }
            let seq = self.log().slot_seq[slot as usize];
            if seq != 0
                && seq <= self.log().checkpoint_seq
                && self.log().live_count[slot as usize] == 0
            {
                self.log().slot_seq[slot as usize] = 0;
                self.log().free_slots.insert(slot);
            }
        }
        self.sync_free_hint();
        let target = self.lld.cleaner_cfg.target_free_segments.max(1) as usize;
        // Bounded by the number of segments: each iteration frees at
        // least one victim or stops.
        for _ in 0..self.lld.layout.n_segments {
            if self.log().free_slots.len() >= target {
                break;
            }
            let victims = self.pick_victims()?;
            if victims.is_empty() {
                break;
            }
            self.clean_batch(&victims)?;
        }
        let free_segments = self.log().free_slots.len() as u32;
        self.lld.obs.event(
            self.lld.now(),
            crate::obs::TraceEvent::CleanerPass {
                free_segments,
                blocks_relocated: self.lld.stats.blocks_relocated.get() - relocated_before,
            },
        );
        Ok(())
    }

    /// Chooses a batch of sealed victims — lowest utilisation first,
    /// packed while their combined live blocks fit in one output
    /// segment — writing a checkpoint first if no candidate is covered
    /// by one.
    fn pick_victims(&mut self) -> Result<Vec<SegmentId>> {
        let pack_cap = self.lld.layout.slots_per_segment();
        for attempt in 0..2 {
            let current = self.log().builder.as_ref().map(|b| b.slot().get());
            let mut cands: Vec<(u32, u32)> = Vec::new(); // (live, slot)
            let mut uncovered = false;
            for slot in 0..self.lld.layout.n_segments {
                if Some(slot) == current || self.log().free_slots.contains(&slot) {
                    continue;
                }
                let seq = self.log().slot_seq[slot as usize];
                if seq == 0 {
                    // Holds no sealed segment and is not free: cannot
                    // happen in a consistent state, but skip defensively.
                    continue;
                }
                if seq > self.log().checkpoint_seq {
                    uncovered = true;
                    continue;
                }
                cands.push((self.log().live_count[slot as usize], slot));
            }
            if !cands.is_empty() {
                cands.sort_unstable();
                let mut victims = Vec::new();
                let mut total_live = 0u32;
                for (live, slot) in cands {
                    if !victims.is_empty() && total_live + live > pack_cap {
                        break;
                    }
                    victims.push(SegmentId::new(slot));
                    total_live += live;
                }
                return Ok(victims);
            }
            if uncovered && attempt == 0 {
                // All candidates are newer than the last checkpoint:
                // take one now and retry.
                self.checkpoint_inner()?;
                continue;
            }
            break;
        }
        Ok(Vec::new())
    }

    /// Relocates every live block out of the `victims`, seals the
    /// relocation records *once* for the whole batch, and frees the
    /// slots.
    fn clean_batch(&mut self, victims: &[SegmentId]) -> Result<()> {
        let mut buf = vec![0u8; self.lld.layout.block_size];
        for &victim in victims {
            let residents: Vec<BlockId> = {
                let mut v: Vec<BlockId> = self.log().residents[victim.get() as usize]
                    .iter()
                    .copied()
                    .collect();
                v.sort_unstable();
                v
            };
            for id in residents {
                let rec = self
                    .map
                    .committed_view_block(id)
                    .cloned()
                    .expect("resident block has a committed record");
                let addr = rec.addr.expect("resident block has an address");
                debug_assert_eq!(addr.segment, victim);
                // The victim is sealed, so its data is on the device.
                self.lld
                    .device
                    .read_at(self.lld.layout.block_offset(addr), &mut buf)?;
                // Re-enter the block with its original timestamp: the
                // relocation is not a logical write.
                self.place_block_data(id, &buf, rec.ts, None, 0)?;
                self.lld.stats.blocks_relocated.inc();
            }
            debug_assert!(self.log().residents[victim.get() as usize].is_empty());
        }
        // Release the victims *before* sealing the relocation records:
        // the seal chooses the next segment's slot, and the freed slots
        // may be the only ones left. The session holds the log from
        // here through the seal, and nothing is written into a victim
        // until a segment is opened in it, after that seal.
        for &victim in victims {
            self.log().slot_seq[victim.get() as usize] = 0;
            self.log().free_slots.insert(victim.get());
        }
        self.seal_current()?;
        self.sync_free_hint();
        if self.log().builder.is_none() {
            self.open_segment(0)?;
        }
        Ok(())
    }
}
