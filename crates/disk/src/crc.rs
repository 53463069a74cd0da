//! CRC-32 (IEEE 802.3 polynomial) for on-disk integrity checks.

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // `tables[k][i]`: the CRC of byte `i` followed by `k` zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Computes the CRC-32 (IEEE) checksum of `data`.
///
/// Used by the logical disk for segment-summary and checkpoint integrity:
/// a torn segment write leaves a checksum mismatch, which recovery treats
/// as "this segment was never written".
///
/// Slicing-by-8: eight bytes per step through eight tables, the tail a
/// byte at a time through the first. The values are the bytewise
/// algorithm's.
///
/// # Example
///
/// ```
/// // Standard test vector.
/// assert_eq!(ld_disk::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise algorithm, one table lookup per byte: the reference
    /// the sliced one must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// `n` bytes of a fixed xorshift stream.
    fn seeded(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = seeded(8 + 300);
        for start in 0..8 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "offset {start}, length {len}");
            }
        }
        let big = seeded(1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let a = crc32(b"segment summary");
        let mut data = b"segment summary".to_vec();
        data[3] ^= 0x01;
        assert_ne!(a, crc32(&data));
    }

    #[test]
    fn distinct_for_permutations() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
