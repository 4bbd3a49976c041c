//! Key choice and self-checking record payloads.

use ox_sim::Prng;

/// YCSB's zipfian generator (Gray's algorithm): rank 0 is the hottest.
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A generator over `items` ranks with skew `theta` (YCSB: 0.99).
    pub fn new(items: u64, theta: f64) -> Zipfian {
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        Zipfian {
            items,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// A key id in `[0, items)`: a zipfian rank, hash-scrambled so the hot
    /// set is spread over the key space (YCSB's scrambled zipfian).
    pub fn next_id(&self, rng: &mut Prng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.items - 1)
        };
        let mut z = rank.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.items
    }
}

/// Bytes of the self-identifying record header: key id, version.
const HEADER: usize = 12;

/// Reference tail for the zero check (slice comparison is a `memcmp`).
static ZEROS: [u8; 4096] = [0; 4096];

/// A record of `len` bytes naming key `id` at version `ver`, zero tail.
pub fn record(id: u64, ver: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..8].copy_from_slice(&id.to_le_bytes());
    v[8..HEADER].copy_from_slice(&ver.to_le_bytes());
    v
}

/// Checks a record read back for key `id` against the acknowledged version
/// `ver`; `Err` describes the mismatch.
pub fn check_record(id: u64, ver: u32, got: &[u8]) -> Result<(), String> {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&got[..8]);
    let got_id = u64::from_le_bytes(raw);
    let mut rawv = [0u8; 4];
    rawv.copy_from_slice(&got[8..HEADER]);
    let got_ver = u32::from_le_bytes(rawv);
    let tail_clean = got[HEADER..]
        .chunks(ZEROS.len())
        .all(|c| c == &ZEROS[..c.len()]);
    if got_id != id || got_ver != ver || !tail_clean {
        return Err(format!(
            "key {id}: expected version {ver}, read key {got_id} version {got_ver}"
        ));
    }
    Ok(())
}
