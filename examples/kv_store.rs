//! A transactional key-value store built directly on the Logical Disk.
//!
//! §3 of the paper motivates ARUs partly by transaction systems that
//! today "bypass the file system altogether and utilize the raw disk
//! interface", paying for atomicity with synchronous writes. This
//! example is that client: a small KV store whose multi-key transactions
//! are exactly one ARU each — no write-ahead log of its own, no
//! synchronous write ordering, yet crash-atomic.
//!
//! Run with: `cargo run --example kv_store`

use ld_core::{BlockId, Ctx, ListId, Lld, LldConfig, LogicalDisk, Position};
use ld_disk::{DiskModel, FaultPlan, MemDisk, SimDisk};
use std::collections::HashMap;

const BS: usize = 4096;

/// Index entries staged by a transaction: (key, bucket, block).
type StagedEntries = Vec<(String, usize, BlockId)>;

/// One bucket per key hash; each bucket is an LD list of record blocks.
struct KvStore<L: LogicalDisk> {
    ld: L,
    buckets: Vec<ListId>,
    /// key -> (bucket, block) index, rebuilt on open.
    index: HashMap<String, (usize, BlockId)>,
}

impl<L: LogicalDisk> KvStore<L> {
    fn format(ld: L, n_buckets: usize) -> Result<Self, Box<dyn std::error::Error>> {
        let buckets = (0..n_buckets)
            .map(|_| ld.new_list(Ctx::Simple))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(KvStore {
            ld,
            buckets,
            index: HashMap::new(),
        })
    }

    fn open(ld: L, n_buckets: usize) -> Result<Self, Box<dyn std::error::Error>> {
        // Buckets are the first n lists handed out by a fresh disk.
        let buckets: Vec<ListId> = (1..=n_buckets as u64).map(ListId::new).collect();
        let mut index = HashMap::new();
        let mut buf = vec![0u8; BS];
        for (bi, &bucket) in buckets.iter().enumerate() {
            for block in ld.list_blocks(Ctx::Simple, bucket)? {
                ld.read(Ctx::Simple, block, &mut buf)?;
                if let Some((k, _)) = decode(&buf) {
                    index.insert(k, (bi, block));
                }
            }
        }
        Ok(KvStore { ld, buckets, index })
    }

    fn bucket_of(&self, key: &str) -> usize {
        let mut h = 5381u64;
        for b in key.bytes() {
            h = h.wrapping_mul(33) ^ u64::from(b);
        }
        (h % self.buckets.len() as u64) as usize
    }

    /// Atomically applies a batch of puts and deletes: one ARU.
    fn transact(
        &mut self,
        puts: &[(&str, &str)],
        deletes: &[&str],
    ) -> Result<(), Box<dyn std::error::Error>> {
        let aru = self.ld.begin_aru()?;
        let ctx = Ctx::Aru(aru);
        let result = (|| -> Result<StagedEntries, Box<dyn std::error::Error>> {
            let mut new_index = Vec::new();
            for &(k, v) in puts {
                // Upsert: delete the old record block, add a new one.
                if let Some(&(_, old)) = self.index.get(k) {
                    self.ld.delete_block(ctx, old)?;
                }
                let bi = self.bucket_of(k);
                let block = self.ld.new_block(ctx, self.buckets[bi], Position::First)?;
                self.ld.write(ctx, block, &encode(k, v))?;
                new_index.push((k.to_string(), bi, block));
            }
            for &k in deletes {
                if let Some(&(_, old)) = self.index.get(k) {
                    self.ld.delete_block(ctx, old)?;
                }
            }
            Ok(new_index)
        })();
        match result {
            Ok(new_index) => {
                self.ld.end_aru(aru)?;
                for &k in deletes {
                    self.index.remove(k);
                }
                for (k, bi, block) in new_index {
                    self.index.insert(k, (bi, block));
                }
                Ok(())
            }
            Err(e) => {
                let _ = self.ld.abort_aru(aru);
                Err(e)
            }
        }
    }

    fn get(&mut self, key: &str) -> Result<Option<String>, Box<dyn std::error::Error>> {
        let Some(&(_, block)) = self.index.get(key) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; BS];
        self.ld.read(Ctx::Simple, block, &mut buf)?;
        Ok(decode(&buf).map(|(_, v)| v))
    }

    fn flush(&mut self) -> Result<(), Box<dyn std::error::Error>> {
        self.ld.flush()?;
        Ok(())
    }
}

fn encode(key: &str, value: &str) -> Vec<u8> {
    let mut buf = vec![0u8; BS];
    buf[0..2].copy_from_slice(&(key.len() as u16).to_le_bytes());
    buf[2..4].copy_from_slice(&(value.len() as u16).to_le_bytes());
    buf[4..4 + key.len()].copy_from_slice(key.as_bytes());
    buf[4 + key.len()..4 + key.len() + value.len()].copy_from_slice(value.as_bytes());
    buf
}

fn decode(buf: &[u8]) -> Option<(String, String)> {
    let klen = u16::from_le_bytes(buf[0..2].try_into().ok()?) as usize;
    let vlen = u16::from_le_bytes(buf[2..4].try_into().ok()?) as usize;
    if klen == 0 || 4 + klen + vlen > buf.len() {
        return None;
    }
    Some((
        String::from_utf8(buf[4..4 + klen].to_vec()).ok()?,
        String::from_utf8(buf[4 + klen..4 + klen + vlen].to_vec()).ok()?,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ld_cfg = LldConfig {
        segment_bytes: 128 * 1024,
        ..LldConfig::default()
    };

    // Normal operation: transactions are atomic batches.
    let sim = SimDisk::new(MemDisk::new(16 << 20), DiskModel::hp_c3010());
    let ld = Lld::format(sim, &ld_cfg)?;
    let mut kv = KvStore::format(ld, 8)?;
    kv.transact(&[("alice", "100"), ("bob", "250")], &[])?;
    kv.transact(&[("alice", "75"), ("bob", "275")], &[])?; // a transfer
    kv.flush()?;
    println!("alice = {:?}, bob = {:?}", kv.get("alice")?, kv.get("bob")?);
    assert_eq!(kv.get("alice")?.as_deref(), Some("75"));

    // Crash in the middle of a transaction: arm a crash point, run a
    // big transfer, and power-fail before it can be flushed.
    kv.ld
        .device()
        .set_faults(FaultPlan::new().crash_after_bytes(1));
    let _ = kv.transact(&[("alice", "0"), ("bob", "350")], &[]);
    let _ = kv.flush(); // dies

    // The cut keeps what the last flush made durable and a seeded
    // subset of the writes since.
    let (image, cut) = kv.ld.into_device().crash_image();
    println!("power cut: {cut}");
    let (ld2, _) = Lld::recover(MemDisk::from_image(image))?;
    let mut kv2 = KvStore::open(ld2, 8)?;
    println!(
        "after crash mid-transaction: alice = {:?}, bob = {:?}",
        kv2.get("alice")?,
        kv2.get("bob")?
    );
    // The half-done transfer never happened: both keys hold the old,
    // mutually consistent values.
    assert_eq!(kv2.get("alice")?.as_deref(), Some("75"));
    assert_eq!(kv2.get("bob")?.as_deref(), Some("275"));
    println!("the interrupted transaction disappeared atomically");
    Ok(())
}
