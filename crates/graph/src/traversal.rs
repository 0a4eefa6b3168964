//! Graph traversals: BFS, DFS, connected components.
//!
//! These are used for stream orderings, for sanity checks on generated
//! graphs (connectivity of meshes and roads-like instances), and by the
//! multilevel baseline.

use crate::{CsrGraph, NodeId};
use std::collections::VecDeque;

/// Breadth-first order of all nodes, starting new searches from the smallest
/// unvisited node id so that disconnected graphs are fully covered.
pub(crate) fn bfs_order(graph: &CsrGraph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    for start in graph.nodes() {
        if visited[start as usize] {
            continue;
        }
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

/// Depth-first (pre-)order of all nodes, restarting from the smallest
/// unvisited node id for disconnected graphs. Iterative to avoid stack
/// overflows on path-like graphs.
pub(crate) fn dfs_order(graph: &CsrGraph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for start in graph.nodes() {
        if visited[start as usize] {
            continue;
        }
        stack.push(start);
        while let Some(v) = stack.pop() {
            if visited[v as usize] {
                continue;
            }
            visited[v as usize] = true;
            order.push(v);
            // Push in reverse so that smaller neighbor ids are visited first.
            for &u in graph.neighbors(v).iter().rev() {
                if !visited[u as usize] {
                    stack.push(u);
                }
            }
        }
    }
    order
}

/// Labels each node with the id of its connected component (0-based,
/// numbered by discovery order) and returns `(labels, component_count)`.
pub fn connected_components(graph: &CsrGraph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in graph.nodes() {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = count;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// `true` if the graph has exactly one connected component (or no nodes).
pub fn is_connected(graph: &CsrGraph) -> bool {
    graph.num_nodes() == 0 || connected_components(graph).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .map(|i| (i, (i + 1) % n as NodeId))
            .collect();
        CsrGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_visits_every_node_once() {
        let g = cycle(10);
        let order = bfs_order(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dfs_visits_every_node_once() {
        let g = cycle(10);
        let order = dfs_order(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bfs_starts_at_zero_and_expands_by_level() {
        // Star graph centered at 0.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let order = bfs_order(&g);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn cycle_is_connected() {
        assert!(is_connected(&cycle(17)));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&CsrGraph::empty(0)));
    }

    #[test]
    fn dfs_on_path_is_monotone() {
        let edges: Vec<(NodeId, NodeId)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_edges(10, &edges).unwrap();
        assert_eq!(dfs_order(&g), (0..10).collect::<Vec<_>>());
    }
}
