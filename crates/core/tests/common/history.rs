//! A history on a [`StopDisk`] through the reference model (`model.rs`):
//! every state a cut during a call could leave, recovered and checked.

#![allow(dead_code)] // each suite uses its own subset

use crate::enumerate::StopDisk;
use crate::model::Model;
use ld_core::{AruId, BlockId, CleanerConfig, Ctx, ListId, Lld, LldConfig, LldStats, Position};
use ld_disk::MemDisk;

/// `per_slot` blocks of `bs` bytes to a slot, at most 64 blocks, 16 lists
/// and 32 outcomes, the pass on the caller's thread, 8 shards or 1.
pub fn config(seed: u64, bs: usize, per_slot: usize) -> LldConfig {
    LldConfig {
        block_size: bs,
        segment_bytes: per_slot * bs,
        max_blocks: Some(64),
        max_lists: Some(16),
        dedup_capacity: 32,
        map_shards: [8, 1][seed as usize % 2],
        cleaner: CleanerConfig {
            background: false,
            ..CleanerConfig::default()
        },
        ..LldConfig::default()
    }
}

/// A history on a `StopDisk`, its model, and the seed that names it.
pub struct Run {
    pub ld: Lld<StopDisk>,
    pub m: Model,
    pub cfg: LldConfig,
    pub seed: u64,
}

impl Run {
    /// A disk of `slots` slots, its medium stale bytes, formatted with
    /// `cfg` and stopping from its first operation on.
    pub fn new(seed: u64, cfg: LldConfig, slots: u32) -> Run {
        let image = vec![0xA5; crate::common::capacity_for(&cfg, slots) as usize];
        let ld = Lld::format(StopDisk::new(image), &cfg).unwrap();
        Run::on(ld, Model::default(), cfg, seed)
    }

    pub fn on(ld: Lld<StopDisk>, m: Model, cfg: LldConfig, seed: u64) -> Run {
        ld.device().arm();
        Run { ld, m, cfg, seed }
    }

    /// One call through the model, then every state its stops reached
    /// that no earlier stop did, recovered and checked.
    pub fn call<T>(&mut self, f: impl FnOnce(&mut Model, &Lld<StopDisk>) -> T) -> T {
        let durable = self.m.durable();
        let out = f(&mut self.m, &self.ld);
        let (m, cfg) = (&self.m, &self.cfg);
        let res = self.ld.device().each_new_state(self.seed, |at, image| {
            let (ld, _) = Lld::recover_with(MemDisk::from_image(image), cfg)
                .map_err(|e| format!("{at}: recovery failed: {e}"))?;
            m.verdict(&ld, at, durable).map(drop)
        });
        res.unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// `n` blocks on `list`, each behind the last.
    pub fn chain(&mut self, ctx: Ctx, list: ListId, n: usize) -> Vec<BlockId> {
        let mut pos = Position::First;
        let mut chain = Vec::new();
        for _ in 0..n {
            let b = self.call(|m, ld| m.new_block(ld, ctx, list, pos)).unwrap();
            chain.push(b);
            pos = Position::After(b);
        }
        chain
    }

    pub fn write(&mut self, ctx: Ctx, b: BlockId, data: &[u8]) {
        self.call(|m, ld| m.write(ld, ctx, b, data)).unwrap();
    }

    /// An ARU that writes `data(k)` to the `k`th of `blocks`, committed.
    pub fn aru(&mut self, blocks: &[BlockId], data: impl Fn(usize) -> Vec<u8>, tag: Option<u64>) {
        let aru = self.ld.begin_aru().unwrap();
        for (k, &b) in blocks.iter().enumerate() {
            self.write(Ctx::Aru(aru), b, &data(k));
        }
        self.commit(aru, tag);
    }

    /// Commits `aru`, tagged with client 7's write id `tag` if it has one.
    pub fn commit(&mut self, aru: AruId, tag: Option<u64>) {
        let res = match tag {
            Some(wid) => self.call(|m, ld| m.end_aru_tagged(ld, aru, 7, 1, wid).map(drop)),
            None => self.call(|m, ld| m.end_aru(ld, aru)),
        };
        res.unwrap();
    }

    /// ARU `tag`: a list of three blocks, committed (with write id `tag`
    /// where `tagged`), then flushed. Five units: the list, the blocks,
    /// the commit.
    pub fn three_block_aru(&mut self, tag: u8, tagged: bool) {
        let aru = self.ld.begin_aru().unwrap();
        let list = self.call(|m, ld| m.new_list(ld, Ctx::Aru(aru))).unwrap();
        for (k, b) in self.chain(Ctx::Aru(aru), list, 3).into_iter().enumerate() {
            let data = vec![tag ^ (k as u8) << 6; self.cfg.block_size];
            self.write(Ctx::Aru(aru), b, &data);
        }
        self.commit(aru, tagged.then_some(u64::from(tag)));
        self.flush();
    }

    pub fn flush(&mut self) {
        self.call(|m, ld| m.flush(ld)).unwrap();
    }

    pub fn checkpoint(&mut self) {
        self.call(|_, ld| ld.checkpoint()).unwrap();
        self.m.synced();
    }

    /// A stop behind the last write, its states checked, and what the
    /// enumerator did, printed.
    pub fn finish(&mut self, what: &str) -> LldStats {
        self.ld.device().stop();
        self.call(|_, _| ());
        let (seed, tally) = (self.seed, self.ld.device().tally());
        eprintln!("{what}, ENUM_SEED={seed}: {tally:?}");
        self.ld.stats()
    }
}
