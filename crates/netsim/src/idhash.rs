//! One hasher for the tables keyed by ids this stack mints.
//!
//! Host pairs, endpoint ids, binding ids and request ids are small integers
//! that the simulator and the ORB hand out themselves, and the hot paths
//! look them up several times per frame. SipHash, the standard library's
//! default, spends more on such a key than the table spends on the probe.
//! [`IdBuild`] folds each integer word of the key into its state with one
//! full-width multiply, whose high and low halves are xored together, and
//! avalanches the state once at the end.
//!
//! The state starts from a seed drawn once per process from the standard
//! library's random keys, so iteration order stays as unpredictable from
//! run to run as with the default hasher, and which keys collide depends
//! on the seed. This is a guard against accidental clustering, not the
//! keyed hash SipHash is: keep the default hasher for keys made of text
//! from outside the program.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by ids, hashed with [`IdBuild`].
pub type IdMap<K, V> = HashMap<K, V, IdBuild>;

/// A `HashSet` of ids, hashed with [`IdBuild`].
pub type IdSet<K> = HashSet<K, IdBuild>;

/// Builds [`IdHasher`]s from the process's seed.
#[derive(Debug, Clone, Copy)]
pub struct IdBuild {
    seed: u64,
}

impl Default for IdBuild {
    fn default() -> IdBuild {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdBuild { seed: *SEED.get_or_init(|| RandomState::new().hash_one(0x1d5_u64)) }
    }
}

impl BuildHasher for IdBuild {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

/// A folded multiply over the key's integer words, finished with the
/// MurmurHash3 avalanche so the table's bucket and tag bits both mix.
#[derive(Debug, Clone)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        // Folding the high half back in makes each state bit depend on many
        // input bits, so a difference in one word is not undone by a chosen
        // difference in the next (through a plain multiply, a flip of bit 63
        // flips bit 63 alone).
        let full = u128::from(self.state ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.state = (full as u64) ^ (full >> 64) as u64;
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        let mut x = self.state;
        x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}
