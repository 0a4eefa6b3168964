//! Hierarchy and distance specifications.
//!
//! A homogeneous communication topology is described by two strings
//! (§2.1 of the paper):
//!
//! * `S = a1:a2:…:aℓ` — each processor has `a1` cores, each node `a2`
//!   processors, each rack `a3` nodes, … The total number of PEs is
//!   `k = Π aᵢ`.
//! * `D = d1:d2:…:dℓ` — two cores in the same processor communicate at cost
//!   `d1`, in the same node but different processors at `d2`, and so on.
//!
//! The paper's default configuration is `S = 4:16:r`, `D = 1:10:100`.

use crate::{BlockId, PartitionError, Result};

/// A homogeneous hierarchy `S = a1:a2:…:aℓ`.
///
/// `a1` is the *lowest* (cheapest) level. All factors must be ≥ 2, matching
/// the paper's assumption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchySpec {
    factors: Vec<u32>,
}

impl HierarchySpec {
    /// Creates a hierarchy from its factors, `a1` first.
    pub fn new(factors: Vec<u32>) -> Result<Self> {
        if factors.is_empty() {
            return Err(PartitionError::InvalidSpec(
                "hierarchy needs at least one level".into(),
            ));
        }
        if factors.iter().any(|&a| a < 2) {
            return Err(PartitionError::InvalidSpec(
                "every hierarchy factor must be at least 2".into(),
            ));
        }
        // Checked: four factors of 65536 already overflow a u64 product.
        let k = factors.iter().try_fold(1u32, |k, &a| k.checked_mul(a));
        if k.is_none() {
            return Err(PartitionError::InvalidSpec(format!(
                "hierarchy produces more than {} blocks, which exceeds the supported maximum",
                u32::MAX
            )));
        }
        Ok(HierarchySpec { factors })
    }

    /// Parses a colon-separated string such as `"4:16:8"`.
    pub fn parse(s: &str) -> Result<Self> {
        let factors: std::result::Result<Vec<u32>, _> = s
            .split(':')
            .map(|part| part.trim().parse::<u32>())
            .collect();
        match factors {
            Ok(f) => HierarchySpec::new(f),
            Err(_) => Err(PartitionError::InvalidSpec(format!(
                "cannot parse hierarchy string '{s}'"
            ))),
        }
    }

    /// The factors `a1, …, aℓ` (lowest level first).
    pub fn factors(&self) -> &[u32] {
        &self.factors
    }

    /// Number of hierarchy levels `ℓ`.
    pub fn num_levels(&self) -> usize {
        self.factors.len()
    }

    /// Total number of PEs / leaf blocks `k = Π aᵢ`.
    pub fn total_blocks(&self) -> u32 {
        self.factors.iter().product()
    }

    /// Decomposes a PE id into its per-level coordinates
    /// `(x1, …, xℓ)` with `id = x1 + a1·(x2 + a2·(x3 + …))`.
    pub fn coordinates(&self, pe: BlockId) -> Vec<u32> {
        let mut rest = pe;
        self.factors
            .iter()
            .map(|&a| {
                let coord = rest % a;
                rest /= a;
                coord
            })
            .collect()
    }

    /// The lowest hierarchy level shared by two PEs: `0` if they are the same
    /// PE, `1` if they share a processor, …, `ℓ` if they only share the
    /// topmost level.
    ///
    /// The communication cost between the PEs is `d_level` (and `0` for the
    /// same PE).
    pub fn shared_level(&self, a: BlockId, b: BlockId) -> usize {
        if a == b {
            return 0;
        }
        let mut ra = a;
        let mut rb = b;
        for (i, &f) in self.factors.iter().enumerate() {
            ra /= f;
            rb /= f;
            if ra == rb {
                return i + 1;
            }
        }
        self.num_levels()
    }

    /// The codes behind the measurement walk's `J`: PE `b`'s per-level
    /// coordinates `(x1, …, xℓ)` packed into one `u64`, `x1` lowest, each in
    /// a field of `⌈log₂ aᵢ⌉` bits. Two PEs first differ in the coordinate
    /// of their shared level, so [`HierarchySpec::shared_level`] is the field
    /// that holds the highest bit of the two codes' XOR — one XOR, one
    /// leading-zero count and one lookup in place of up to 2ℓ divisions per
    /// edge entry. Every factor is at least 2, so the fields take at most
    /// `2·log₂ k ≤ 64` bits.
    pub(crate) fn level_codes(&self) -> LevelCodes {
        let widths: Vec<u32> = self
            .factors
            .iter()
            .map(|&a| a.next_power_of_two().trailing_zeros())
            .collect();
        let codes = (0..self.total_blocks())
            .map(|pe| {
                let fields = self.coordinates(pe).into_iter().zip(&widths).rev();
                fields.fold(0u64, |code, (coord, &width)| {
                    code << width | u64::from(coord)
                })
            })
            .collect();
        // `levels[z]`: the level whose field holds bit `63 − z`; `z = 64` is
        // an XOR of 0, the same PE.
        let mut levels = [0u8; 65];
        let mut low = 0;
        for (level, &width) in widths.iter().enumerate() {
            for bit in low..low + width {
                levels[63 - bit as usize] = level as u8 + 1;
            }
            low += width;
        }
        LevelCodes { codes, levels }
    }

    /// Human-readable `a1:a2:…:aℓ` form.
    pub fn to_string_spec(&self) -> String {
        self.factors
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(":")
    }
}

/// [`HierarchySpec::level_codes`]: one code per PE and the level of each
/// leading-zero count of an XOR of two codes.
pub(crate) struct LevelCodes {
    codes: Vec<u64>,
    levels: [u8; 65],
}

impl LevelCodes {
    /// No codes: every id takes [`HierarchySpec::shared_level`].
    pub(crate) const NONE: LevelCodes = LevelCodes {
        codes: Vec::new(),
        levels: [0; 65],
    };

    /// The code of `block`, or `None` for an id that is not a PE.
    #[inline]
    pub(crate) fn code(&self, block: BlockId) -> Option<u64> {
        self.codes.get(block as usize).copied()
    }

    /// The shared level of the two PEs with these codes.
    #[inline]
    pub(crate) fn shared_level(&self, a: u64, b: u64) -> usize {
        self.levels[(a ^ b).leading_zeros() as usize] as usize
    }
}

/// Distances `D = d1:d2:…:dℓ` between PEs per shared hierarchy level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceSpec {
    distances: Vec<u64>,
}

impl DistanceSpec {
    /// Creates a distance specification, `d1` first.
    pub fn new(distances: Vec<u64>) -> Result<Self> {
        if distances.is_empty() {
            return Err(PartitionError::InvalidSpec(
                "distance specification needs at least one level".into(),
            ));
        }
        Ok(DistanceSpec { distances })
    }

    /// Parses a colon-separated string such as `"1:10:100"`.
    pub fn parse(s: &str) -> Result<Self> {
        let distances: std::result::Result<Vec<u64>, _> = s
            .split(':')
            .map(|part| part.trim().parse::<u64>())
            .collect();
        match distances {
            Ok(d) => DistanceSpec::new(d),
            Err(_) => Err(PartitionError::InvalidSpec(format!(
                "cannot parse distance string '{s}'"
            ))),
        }
    }

    /// The paper's default `D = 1:10:100` for three-level hierarchies.
    pub fn paper_default() -> Self {
        DistanceSpec {
            distances: vec![1, 10, 100],
        }
    }

    /// Distance values `d1, …, dℓ`.
    pub fn distances(&self) -> &[u64] {
        &self.distances
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.distances.len()
    }

    /// Distance between two PEs given the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy has more levels than this distance spec.
    pub fn distance(&self, hierarchy: &HierarchySpec, a: BlockId, b: BlockId) -> u64 {
        assert!(
            hierarchy.num_levels() <= self.num_levels(),
            "distance spec has fewer levels than the hierarchy"
        );
        let level = hierarchy.shared_level(a, b);
        if level == 0 {
            0
        } else {
            self.distances[level - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_hierarchy() {
        let h = HierarchySpec::parse("4:16:8").unwrap();
        assert_eq!(h.factors(), &[4, 16, 8]);
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.total_blocks(), 512);
        assert_eq!(h.to_string_spec(), "4:16:8");
    }

    #[test]
    fn invalid_hierarchies_are_rejected() {
        assert!(HierarchySpec::parse("").is_err());
        assert!(HierarchySpec::parse("4:x").is_err());
        assert!(HierarchySpec::parse("4:1:8").is_err());
        assert!(HierarchySpec::new(vec![]).is_err());
    }

    #[test]
    fn coordinates_roundtrip() {
        let h = HierarchySpec::parse("4:16:8").unwrap();
        for pe in [0u32, 1, 5, 63, 64, 200, 511] {
            let c = h.coordinates(pe);
            assert_eq!(c.len(), 3);
            let rebuilt = c[0] + 4 * (c[1] + 16 * c[2]);
            assert_eq!(rebuilt, pe);
        }
    }

    #[test]
    fn shared_level_matches_topology_semantics() {
        // S = 2:2 → 4 PEs. PEs {0,1} share a processor, {2,3} share one too;
        // all four share the node.
        let h = HierarchySpec::parse("2:2").unwrap();
        assert_eq!(h.shared_level(0, 0), 0);
        assert_eq!(h.shared_level(0, 1), 1);
        assert_eq!(h.shared_level(2, 3), 1);
        assert_eq!(h.shared_level(0, 2), 2);
        assert_eq!(h.shared_level(1, 3), 2);
    }

    /// The XOR of two PEs' level codes names their shared level, for every
    /// pair of PEs: on fixed hierarchies and on seeded random ones with
    /// factors 2..=9 (non-powers of two included), up to six levels and
    /// `k ≤ 4096`. An id beyond the PEs has no code.
    #[test]
    fn level_codes_give_the_shared_level_of_every_pair() {
        let mut hierarchies: Vec<HierarchySpec> = ["2:2", "4:16:2", "3:5:2", "7", "4:16:16"]
            .into_iter()
            .map(|spec| HierarchySpec::parse(spec).unwrap())
            .collect();
        let mut state = 5u64;
        let mut draw = |below: u64| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            crate::scorer::mix64(state) % below
        };
        while hierarchies.len() < 17 {
            let levels = 1 + draw(6) as usize;
            let factors: Vec<u32> = (0..levels).map(|_| 2 + draw(8) as u32).collect();
            if factors.iter().product::<u32>() <= 4096 {
                hierarchies.push(HierarchySpec::new(factors).unwrap());
            }
        }
        for h in hierarchies {
            let codes = h.level_codes();
            let k = h.total_blocks();
            for a in 0..k {
                let code_a = codes.code(a).unwrap();
                for b in 0..k {
                    let level = codes.shared_level(code_a, codes.code(b).unwrap());
                    assert_eq!(level, h.shared_level(a, b), "{h:?}: {a} vs {b}");
                }
            }
            assert_eq!(codes.code(k), None, "{h:?}");
            assert_eq!(codes.code(crate::partition::UNASSIGNED), None, "{h:?}");
        }
    }

    #[test]
    fn distance_lookup_uses_shared_level() {
        let h = HierarchySpec::parse("4:16:2").unwrap();
        let d = DistanceSpec::paper_default();
        assert_eq!(d.distance(&h, 7, 7), 0);
        assert_eq!(d.distance(&h, 0, 1), 1); // same processor
        assert_eq!(d.distance(&h, 0, 4), 10); // same node, different processor
        assert_eq!(d.distance(&h, 0, 64), 100); // different node
    }

    #[test]
    fn parse_distance_spec() {
        let d = DistanceSpec::parse("1:10:100").unwrap();
        assert_eq!(d.distances(), &[1, 10, 100]);
        assert!(DistanceSpec::parse("1:oops").is_err());
        assert!(DistanceSpec::parse("").is_err());
    }

    #[test]
    #[should_panic]
    fn distance_with_too_few_levels_panics() {
        let h = HierarchySpec::parse("2:2:2:2").unwrap();
        let d = DistanceSpec::paper_default();
        d.distance(&h, 0, 15);
    }

    #[test]
    fn huge_hierarchy_is_rejected() {
        assert!(HierarchySpec::new(vec![65536, 65536, 4]).is_err());
        // 2^64 wraps a u64 product to 0: it must be the same typed error,
        // not an overflow panic (debug) or k = 0 (release).
        let Err(err) = HierarchySpec::parse("65536:65536:65536:65536") else {
            panic!("an overflowing hierarchy must not parse");
        };
        assert!(matches!(err, PartitionError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("exceeds the supported maximum"));
    }
}
