//! Size-constrained label-propagation refinement.
//!
//! Given a `k`-way assignment, nodes greedily move to the adjacent block with
//! the highest connectivity gain as long as the balance constraint stays
//! satisfied. This is the refinement used by KaMinPar-style partitioners; a
//! few rounds per level are enough to clean up the projected partition.

use oms_core::{BlockId, Partition};
use oms_graph::CsrGraph;

/// Options for the refinement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RefineConfig {
    /// Allowed imbalance ε.
    pub(crate) epsilon: f64,
    /// Number of refinement rounds.
    pub(crate) rounds: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            epsilon: 0.03,
            rounds: 3,
        }
    }
}

/// Refines `assignment` in place; returns the number of nodes moved.
pub(crate) fn refine(
    graph: &CsrGraph,
    assignment: &mut [BlockId],
    k: u32,
    config: &RefineConfig,
) -> usize {
    assert_eq!(assignment.len(), graph.num_nodes());
    let capacity = Partition::capacity(graph.total_node_weight(), k, config.epsilon);
    let mut block_weights = vec![0u64; k as usize];
    for v in graph.nodes() {
        block_weights[assignment[v as usize] as usize] += graph.node_weight(v);
    }

    // Dense connectivity scratchpad with a touched list: deterministic
    // iteration (ascending block id breaks gain ties) and no hashing on the
    // hot path.
    let mut conn: Vec<u64> = vec![0; k as usize];
    let mut touched: Vec<BlockId> = Vec::new();
    let mut proposals: Vec<(u32, BlockId)> = Vec::new();
    let mut total_moves = 0usize;
    for _ in 0..config.rounds {
        // Phase 1: every node proposes a move against the assignment and the
        // block weights the round started with.
        for v in graph.nodes() {
            if graph.degree(v) == 0 {
                continue;
            }
            let current = assignment[v as usize];
            for (u, w) in graph.neighbors_weighted(v) {
                let b = assignment[u as usize];
                if conn[b as usize] == 0 {
                    touched.push(b);
                }
                conn[b as usize] += w;
            }
            let current_conn = conn[current as usize];
            let v_weight = graph.node_weight(v);
            let mut best = current;
            let mut best_gain = 0i64;
            touched.sort_unstable();
            for &target in &touched {
                if target == current {
                    continue;
                }
                let gain = conn[target as usize] as i64 - current_conn as i64;
                if gain > best_gain && block_weights[target as usize] + v_weight <= capacity {
                    best = target;
                    best_gain = gain;
                }
            }
            if best != current {
                proposals.push((v, best));
            }
            for &b in &touched {
                conn[b as usize] = 0;
            }
            touched.clear();
        }

        // Phase 2: apply the proposals in node order, re-checking capacity
        // so the moves of one round cannot overfill a block together.
        let mut moves = 0usize;
        for (v, target) in proposals.drain(..) {
            let current = assignment[v as usize];
            let v_weight = graph.node_weight(v);
            if block_weights[target as usize] + v_weight > capacity {
                continue;
            }
            block_weights[current as usize] -= v_weight;
            block_weights[target as usize] += v_weight;
            assignment[v as usize] = target;
            moves += 1;
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(graph: &CsrGraph, assignment: &[BlockId]) -> u64 {
        graph
            .edges()
            .filter(|&(u, v, _)| assignment[u as usize] != assignment[v as usize])
            .map(|(_, _, w)| w)
            .sum()
    }

    #[test]
    fn refinement_fixes_an_obviously_bad_assignment() {
        // Two cliques; start with an interleaved assignment and let the
        // refinement sort it out.
        let mut edges = Vec::new();
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
                edges.push((u + 8, v + 8));
            }
        }
        edges.push((0, 8));
        let g = CsrGraph::from_edges(16, &edges).unwrap();
        let mut assignment: Vec<BlockId> = (0..16).map(|v| (v % 2) as BlockId).collect();
        let before = cut(&g, &assignment);
        let moves = refine(&g, &mut assignment, 2, &RefineConfig::default());
        let after = cut(&g, &assignment);
        assert!(moves > 0);
        assert!(
            after < before,
            "refinement must reduce the cut: {before} → {after}"
        );
        let p = Partition::from_assignments(2, assignment, &[1; 16]);
        assert!(p.is_balanced(0.04));
    }

    #[test]
    fn refinement_respects_balance() {
        let g = oms_gen::planted_partition(200, 4, 0.15, 0.01, 3);
        // Start from a balanced random-ish assignment.
        let mut assignment: Vec<BlockId> = (0..200).map(|v| (v % 4) as BlockId).collect();
        refine(&g, &mut assignment, 4, &RefineConfig::default());
        let p = Partition::from_assignments(4, assignment, &vec![1; 200]);
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn refinement_never_increases_cut_substantially() {
        let g = oms_gen::erdos_renyi_gnm(300, 1500, 7);
        let mut assignment: Vec<BlockId> = (0..300).map(|v| (v % 8) as BlockId).collect();
        let before = cut(&g, &assignment);
        refine(&g, &mut assignment, 8, &RefineConfig::default());
        let after = cut(&g, &assignment);
        assert!(after <= before);
    }

    #[test]
    fn zero_rounds_do_nothing() {
        let g = oms_gen::erdos_renyi_gnm(50, 100, 1);
        let mut assignment: Vec<BlockId> = (0..50).map(|v| (v % 2) as BlockId).collect();
        let original = assignment.clone();
        let cfg = RefineConfig {
            rounds: 0,
            ..RefineConfig::default()
        };
        assert_eq!(refine(&g, &mut assignment, 2, &cfg), 0);
        assert_eq!(assignment, original);
    }
}
