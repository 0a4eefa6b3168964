//! Plain edge-list I/O.
//!
//! Most SNAP graphs ship as whitespace-separated `u v` pairs with `#`
//! comments. Node ids are 0-based; the number of nodes is either given by the
//! caller or inferred as `max id + 1`. Directions, self loops and parallel
//! edges are removed, matching the paper's preprocessing: `0 1`, `1 0` and a
//! repeated `0 1` are one edge of weight 1, so the graph read is unweighted.

use crate::{CsrGraph, GraphBuilder, GraphError, NodeId, Result};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads an edge list from `path`.
///
/// If `num_nodes` is `None` the node count is inferred from the largest id
/// seen (a self loop's id counts). Lines starting with `#` or `%` are
/// treated as comments. Every edge of the result has weight 1, however often
/// and in whichever direction its pair is listed.
pub fn read_edge_list<P: AsRef<Path>>(path: P, num_nodes: Option<usize>) -> Result<CsrGraph> {
    let file = File::open(path)?;
    read_edge_list_from(BufReader::new(file), num_nodes)
}

fn read_edge_list_from<R: BufRead>(reader: R, num_nodes: Option<usize>) -> Result<CsrGraph> {
    // Canonical pairs `u < v`; self loops are dropped here, and repeats
    // after the sort, so the builder sums no weights.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: Option<u64> = None;
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u64 = parse_id(parts.next(), trimmed)?;
        let v: u64 = parse_id(parts.next(), trimmed)?;
        max_id = max_id.max(Some(u.max(v)));
        if u > u32::MAX as u64 || v > u32::MAX as u64 {
            return Err(GraphError::Parse(format!(
                "node id too large for u32 on line '{trimmed}'"
            )));
        }
        if u != v {
            edges.push((u.min(v) as NodeId, u.max(v) as NodeId));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let n = num_nodes.unwrap_or_else(|| max_id.map_or(0, |id| id as usize + 1));
    let mut builder = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        builder.add_edge(u, v)?;
    }
    Ok(builder.build())
}

fn parse_id(tok: Option<&str>, line: &str) -> Result<u64> {
    let tok =
        tok.ok_or_else(|| GraphError::Parse(format!("expected two node ids on line '{line}'")))?;
    tok.parse()
        .map_err(|_| GraphError::Parse(format!("invalid node id '{tok}' on line '{line}'")))
}

/// Writes the graph as a `u v` edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writeln!(
        writer,
        "# nodes {} edges {}",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v, _) in graph.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_edge_list() {
        let text = "# comment\n0 1\n1 2\n2 0\n";
        let g = read_edge_list_from(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn infers_node_count_from_max_id() {
        let g = read_edge_list_from("0 9\n".as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn explicit_node_count_allows_isolated_nodes() {
        let g = read_edge_list_from("0 1\n".as_bytes(), Some(5)).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn removes_directions_and_duplicates() {
        let g = read_edge_list_from("0 1\n1 0\n0 1\n1 1\n".as_bytes(), None).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert!(g.is_unweighted());
    }

    #[test]
    fn a_self_loop_counts_towards_the_inferred_node_count() {
        let g = read_edge_list_from("0 1\n4 4\n".as_bytes(), None).unwrap();
        assert_eq!((g.num_nodes(), g.num_edges()), (5, 1));
    }

    #[test]
    fn malformed_line_is_error() {
        assert!(read_edge_list_from("0\n".as_bytes(), None).is_err());
        assert!(read_edge_list_from("0 x\n".as_bytes(), None).is_err());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list_from("".as_bytes(), None).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dir = std::env::temp_dir().join("oms-graph-test-edgelist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.txt");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path, Some(4)).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }
}
