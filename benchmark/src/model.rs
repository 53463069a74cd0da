//! The harness's model of what the disk must hold, and the checks
//! that compare a (recovered) disk against it.
//!
//! Every block the workloads write is self-describing: a header of
//! `(magic, owner, key, version)` and a body that repeats one word
//! derived from them. A reader can therefore tell *which* write it is
//! looking at, which is what the crash checks need: versions are
//! transaction sequence numbers, so the highest version found is the
//! last transaction that survived, and everything else must agree
//! with that prefix.

pub const BLOCK: usize = 4096;
const MAGIC: u64 = 0x4C44_4245_4E43_4831; // "LDBENCH1"
const HEADER_WORDS: usize = 4;

fn body_word(owner: u64, key: u64, version: u64) -> u64 {
    let mut z = owner
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(version.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 29;
    z | 1
}

/// Fills `buf` (a multiple of 8 bytes, at least the header) with the
/// payload of `(owner, key, version)`.
pub fn fill(buf: &mut [u8], owner: u64, key: u64, version: u64) {
    let (header, body) = buf.split_at_mut(HEADER_WORDS * 8);
    for (chunk, w) in header.chunks_exact_mut(8).zip([MAGIC, owner, key, version]) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    let word = body_word(owner, key, version).to_le_bytes();
    for chunk in body.chunks_exact_mut(8) {
        chunk.copy_from_slice(&word);
    }
}

/// The `(owner, key, version)` a payload carries, if every word of it
/// is intact.
pub fn decode(buf: &[u8]) -> Option<(u64, u64, u64)> {
    let word = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    if buf.len() < HEADER_WORDS * 8 || word(0) != MAGIC {
        return None;
    }
    let (owner, key, version) = (word(1), word(2), word(3));
    let body = body_word(owner, key, version).to_le_bytes();
    buf[HEADER_WORDS * 8..]
        .chunks_exact(8)
        .all(|c| c == body)
        .then_some((owner, key, version))
}

/// Whether `buf` is exactly the payload of `(owner, key, version)`.
pub fn matches(buf: &[u8], owner: u64, key: u64, version: u64) -> bool {
    decode(buf) == Some((owner, key, version))
}

/// Flips one body byte of the payload `(owner, key, version)` inside a
/// raw device image. Returns whether the payload was found.
pub fn flip_in_image(image: &mut [u8], owner: u64, key: u64, version: u64) -> bool {
    let mut header = Vec::with_capacity(HEADER_WORDS * 8);
    for w in [MAGIC, owner, key, version] {
        header.extend_from_slice(&w.to_le_bytes());
    }
    let mut at = 0;
    let mut found = false;
    while at + header.len() + 8 <= image.len() {
        if image[at..at + header.len()] == header[..] {
            image[at + header.len() + 3] ^= 0x40;
            found = true;
        }
        at += 512;
    }
    found
}

/// One logged transaction of an overwrite workload: it wrote `version`
/// to each of `keys`.
#[derive(Debug, Clone)]
pub struct Overwrite {
    pub version: u64,
    pub keys: Vec<usize>,
}

/// Model of a set of blocks that transactions overwrite in place.
/// Versions count the owner's transactions from 1; 0 is the preload.
#[derive(Debug, Clone)]
pub struct OverwriteModel {
    pub owner: u64,
    pub versions: Vec<u64>,
    pub next_version: u64,
}

impl OverwriteModel {
    pub fn new(owner: u64, keys: usize) -> Self {
        OverwriteModel {
            owner,
            versions: vec![0; keys],
            next_version: 1,
        }
    }

    /// Records a committed transaction that overwrote `keys`.
    pub fn commit(&mut self, keys: &[usize]) -> Overwrite {
        let version = self.next_version;
        self.next_version += 1;
        for &k in keys {
            self.versions[k] = version;
        }
        Overwrite {
            version,
            keys: keys.to_vec(),
        }
    }

    pub fn holds(&self, key: usize, buf: &[u8]) -> bool {
        matches(buf, self.owner, key as u64, self.versions[key])
    }

    /// Checks the blocks of a disk recovered after a crash during
    /// `log` (transactions committed after `self` was last exact).
    /// `found[key]` is the version read back (`None`: unreadable or
    /// damaged). The disk must equal the model after some prefix of
    /// `log` that includes the first `acked` transactions. Returns
    /// the number of failed checks.
    pub fn check_recovered(&self, log: &[Overwrite], acked: usize, found: &[Option<u64>]) -> u64 {
        let newest = found.iter().flatten().copied().max().unwrap_or(0);
        let survived = log.iter().take_while(|t| t.version <= newest).count();
        let mut failed = acked.saturating_sub(survived) as u64;
        let mut expect = self.versions.clone();
        for t in &log[..survived] {
            for &k in &t.keys {
                expect[k] = t.version;
            }
        }
        failed += expect
            .iter()
            .zip(found)
            .filter(|(e, f)| Some(**e) != **f)
            .count() as u64;
        failed
    }
}

/// How one logged append transaction looks on a recovered disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Everything it created is there with the right content.
    Whole,
    /// Nothing it created is there.
    Absent,
    /// Some of it is there: the ARU was not atomic.
    Partial,
}

/// Checks append transactions of one thread, in commit order: whole
/// up to some point at or after `acked`, absent afterwards, never
/// partial. Returns the number of failed checks.
pub fn check_append_prefix(seen: &[Presence], acked: usize) -> u64 {
    let survived = seen
        .iter()
        .rposition(|p| *p != Presence::Absent)
        .map_or(0, |i| i + 1);
    let mut failed = acked.saturating_sub(survived) as u64;
    failed += seen[..survived]
        .iter()
        .filter(|p| **p != Presence::Whole)
        .count() as u64;
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_describe_themselves() {
        let mut b = vec![0u8; BLOCK];
        fill(&mut b, 3, 77, 9);
        assert_eq!(decode(&b), Some((3, 77, 9)));
        assert!(matches(&b, 3, 77, 9) && !matches(&b, 3, 77, 8));
        b[2000] ^= 1;
        assert_eq!(decode(&b), None, "a damaged body is not a payload");
        assert_eq!(decode(&[0u8; 1024]), None);
    }

    #[test]
    fn flip_finds_the_payload_in_an_image() {
        let mut image = vec![0u8; 64 * BLOCK];
        fill(&mut image[5 * BLOCK..6 * BLOCK], 1, 2, 3);
        fill(&mut image[9 * BLOCK..10 * BLOCK], 1, 2, 4);
        assert!(flip_in_image(&mut image, 1, 2, 3));
        assert_eq!(decode(&image[5 * BLOCK..6 * BLOCK]), None);
        assert_eq!(decode(&image[9 * BLOCK..10 * BLOCK]), Some((1, 2, 4)));
        assert!(!flip_in_image(&mut image, 1, 2, 5));
    }

    #[test]
    fn recovered_overwrites_must_be_a_prefix_past_the_acked_point() {
        let mut m = OverwriteModel::new(1, 4);
        m.commit(&[0, 1]); // version 1, before the log starts
        let base = m.clone();
        let log = vec![m.commit(&[1, 2]), m.commit(&[2, 3]), m.commit(&[0])];
        let state = |v: [u64; 4]| v.iter().map(|&x| Some(x)).collect::<Vec<_>>();

        // All three survived, or only the acked first two, or one more.
        assert_eq!(base.check_recovered(&log, 2, &state([4, 2, 3, 3])), 0);
        assert_eq!(base.check_recovered(&log, 2, &state([1, 2, 3, 3])), 0);
        assert_eq!(base.check_recovered(&log, 0, &state([1, 1, 0, 0])), 0);
        // An acked transaction is missing.
        assert!(base.check_recovered(&log, 2, &state([1, 2, 2, 0])) > 0);
        // Transaction 3 applied to one of its two blocks only.
        assert!(base.check_recovered(&log, 0, &state([1, 2, 3, 0])) > 0);
        // A damaged block.
        let mut dmg = state([4, 2, 3, 3]);
        dmg[1] = None;
        assert_eq!(base.check_recovered(&log, 2, &dmg), 1);
    }

    #[test]
    fn recovered_appends_must_be_whole_then_absent() {
        use Presence::*;
        assert_eq!(check_append_prefix(&[Whole, Whole, Absent], 2), 0);
        assert_eq!(check_append_prefix(&[Whole, Whole, Whole], 2), 0);
        assert_eq!(check_append_prefix(&[Whole, Absent, Absent], 2), 1);
        assert_eq!(check_append_prefix(&[Whole, Partial, Absent], 1), 1);
        assert_eq!(check_append_prefix(&[Whole, Absent, Whole], 0), 1);
        assert_eq!(check_append_prefix(&[], 0), 0);
    }
}
