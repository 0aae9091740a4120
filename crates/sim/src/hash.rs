//! A fast, deterministic hasher for the engine's internal maps.
//!
//! The engine consults `active_index` once per delivered cell, and the
//! failure set's link table once per degraded circuit visit, so the
//! default SipHash (keyed, DoS-resistant) is measurable overhead on
//! the hot path. Keys here are [`FlowId`](crate::FlowId)s the
//! simulation itself assigns and `src << 32 | dst` ids of the fabric's
//! own links — never attacker-controlled — so a single-multiply mix
//! (the FxHash construction) is safe and several times cheaper. The
//! hasher is unkeyed, so it is also deterministic across runs; nothing
//! that reaches results depends on bucket order (the failure set sorts
//! what it lists).

use std::hash::{BuildHasher, Hasher};

/// Multiplier from the FxHash construction (Firefox / rustc): an odd
/// constant with well-mixed bits, applied once per written word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// `BuildHasher` producing [`FastHasher`]s; zero-sized and unkeyed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastHashBuilder;

impl BuildHasher for FastHashBuilder {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

/// One-multiply-per-word hasher (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(SEED);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;
    use std::collections::HashMap;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let hash = |x: u64| {
            let mut h = FastHashBuilder.build_hasher();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        // Sequential ids (the common FlowId pattern) must not collide.
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(hash(id)));
        }
    }

    #[test]
    fn works_as_a_flow_index() {
        let mut m: HashMap<FlowId, usize, FastHashBuilder> = HashMap::default();
        for i in 0..1000 {
            m.insert(FlowId(i * 7 + 3), i as usize);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&FlowId(i * 7 + 3)), Some(&(i as usize)));
        }
        assert_eq!(m.remove(&FlowId(3)), Some(0));
        assert!(!m.contains_key(&FlowId(3)));
    }
}
