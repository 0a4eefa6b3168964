//! Scoring primitives shared by every partitioner: the deterministic node
//! hash of the Hashing scorer, Fennel's global `α` and exponent `γ`, and
//! [`FlatObjective`] — the single definition of the Fennel and LDG
//! objectives, which the one scoring kernel (`oms`) evaluates through its
//! pre-computed per-tree-node penalty arena for all of its drivers.

use oms_graph::{NodeId, NodeWeight};

/// SplitMix64's finaliser: a bijective 64-bit mixer.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic node hash used by the Hashing scorer. Splitmix64 over the
/// node id and the seed: cheap, uniform, reproducible.
#[inline]
pub fn hash_node(node: NodeId, seed: u64) -> u64 {
    mix64(
        (node as u64)
            .wrapping_add(seed)
            .wrapping_add(0x9E3779B97F4A7C15),
    )
}

/// Picks a candidate uniformly by hashing the node id.
pub fn select_hashing(num_candidates: usize, node: NodeId, seed: u64) -> usize {
    debug_assert!(num_candidates > 0);
    (hash_node(node, seed) % num_candidates as u64) as usize
}

/// The global Fennel parameter `α = √k · m / n^{3/2}` of a `k`-way
/// partitioning problem on a graph with `n` nodes and `m` edges.
pub fn fennel_alpha(k: u32, m: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (k as f64).sqrt() * m as f64 / (n as f64).powf(1.5)
}

/// Fennel's exponent γ; the paper (following Tsourakakis et al.) uses 1.5
/// and so does every job.
pub(crate) const FENNEL_GAMMA: f64 = 1.5;

/// The scoring rule of a scored layer, as a value.
///
/// The `fennel` and `ldg` jobs and the scored layers of the `oms` and
/// `nh-oms` jobs run one kernel and differ only in how a candidate block is
/// scored; this enum names the rule, so dynamic maintenance
/// ([`RepairSink`](crate::RepairSink)) and refinement
/// ([`refine_partition`](crate::refine_partition)) can be constructed for
/// whichever flat job was selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlatObjective {
    /// Fennel's additive objective `conn − α·γ·c(Vᵢ)^{γ−1}`.
    Fennel,
    /// LDG's multiplicative objective `conn · (1 − c(Vᵢ)/L_max)`.
    Ldg,
}

impl FlatObjective {
    /// The registry name of the flat algorithm scoring with this rule.
    pub fn name(&self) -> &'static str {
        match self {
            FlatObjective::Fennel => "fennel",
            FlatObjective::Ldg => "ldg",
        }
    }

    /// The objective of the *canonical* algorithm name (aliases must be
    /// resolved first, e.g. through the registry), or `None` when the
    /// algorithm is not a flat one-pass scorer and therefore supports no
    /// incremental repair.
    pub fn for_algorithm(name: &str) -> Option<FlatObjective> {
        [FlatObjective::Fennel, FlatObjective::Ldg]
            .into_iter()
            .find(|objective| objective.name() == name)
    }

    /// Scores one candidate block: `conn` is the connectivity towards the
    /// block, `weight` its current load, `capacity` the balance limit
    /// `L_max` and `alpha`/`gamma` the Fennel parameters.
    pub fn score(
        &self,
        conn: u64,
        weight: NodeWeight,
        capacity: NodeWeight,
        alpha: f64,
        gamma: f64,
    ) -> f64 {
        self.combine(conn as f64, self.base(weight, capacity, alpha, gamma))
    }

    /// The pre-evaluated per-block penalty term of the objective: a pure
    /// function of the block's current load `weight` (and the fixed
    /// parameters), so callers only need to recompute it when that load
    /// changes. Combining it with a connectivity via
    /// [`FlatObjective::combine`] reproduces the direct objective bit for
    /// bit:
    ///
    /// * Fennel: `base = −(α·γ·c(Vᵢ)^{γ−1})`, score `= conn + base`
    ///   (IEEE 754 guarantees `a − b ≡ a + (−b)`);
    /// * LDG: `base = 1 − c(Vᵢ)/L_max`, score `= conn · base`
    ///   (the same operations in the same order as the direct form).
    ///
    /// This is the single definition of both objectives; the kernel's
    /// per-tree-node penalty arena evaluates it.
    /// It factors into `load_term` (the only part that costs a `powf`) and
    /// `base_of_term`.
    #[inline]
    pub fn base(&self, weight: NodeWeight, capacity: NodeWeight, alpha: f64, gamma: f64) -> f64 {
        self.base_of_term(self.load_term(weight, gamma), capacity, alpha, gamma)
    }

    /// The part of [`FlatObjective::base`] that depends on the block's load
    /// and `γ` alone — `c(Vᵢ)^{γ−1}` for Fennel, `c(Vᵢ)` for LDG — so it
    /// survives a change of `α` or `L_max`.
    #[inline]
    pub(crate) fn load_term(&self, weight: NodeWeight, gamma: f64) -> f64 {
        match self {
            FlatObjective::Fennel => (weight as f64).powf(gamma - 1.0),
            FlatObjective::Ldg => weight as f64,
        }
    }

    /// [`FlatObjective::base`] from a `load_term`: the same operations in
    /// the same order as the undivided form (`α·γ·term` associates to the
    /// left), so the result has the same bits.
    #[inline]
    pub(crate) fn base_of_term(
        &self,
        term: f64,
        capacity: NodeWeight,
        alpha: f64,
        gamma: f64,
    ) -> f64 {
        match self {
            FlatObjective::Fennel => -(alpha * gamma * term),
            FlatObjective::Ldg => 1.0 - term / capacity.max(1) as f64,
        }
    }

    /// Combines a connectivity with a penalty base pre-evaluated by
    /// [`FlatObjective::base`].
    #[inline]
    pub fn combine(&self, conn: f64, base: f64) -> f64 {
        match self {
            FlatObjective::Fennel => conn + base,
            FlatObjective::Ldg => conn * base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_in_range() {
        for node in 0..1000u32 {
            let a = select_hashing(7, node, 42);
            let b = select_hashing(7, node, 42);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hashing_spreads_nodes_roughly_uniformly() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for node in 0..8000u32 {
            counts[select_hashing(k, node, 1)] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn alpha_formula() {
        // α = sqrt(k) * m / n^1.5
        let alpha = fennel_alpha(4, 1000, 100);
        assert!((alpha - 2.0 * 1000.0 / 1000.0).abs() < 1e-12);
        assert_eq!(fennel_alpha(4, 10, 0), 0.0);
    }
}
