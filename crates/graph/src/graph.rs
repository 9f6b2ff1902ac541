//! The paper's graph model `G = (V, E)` (Section 2, Figure 1).

use std::fmt::Write as _;

use raco_ir::AccessPattern;

use crate::distance::DistanceModel;

/// The access graph of a pattern: one node per access, an intra-iteration
/// edge `(a_i, a_j)` (`i < j`) whenever the address distance is within the
/// auto-modify range `M`, and an inter-iteration edge `(a_i, a_j)`
/// whenever stepping from `a_i` at the end of iteration `t` to `a_j` at
/// the start of iteration `t+1` is free.
///
/// Every path of intra-iteration edges is an opportunity to serve several
/// accesses from a single address register at zero cost; covering the graph
/// with `K` node-disjoint (wrap-closable) paths is a zero-cost allocation
/// to `K` registers (Section 2 of the paper).
///
/// # Examples
///
/// Reproducing Figure 1:
///
/// ```
/// use raco_graph::AccessGraph;
/// use raco_ir::examples;
///
/// let spec = examples::paper_loop();
/// let g = AccessGraph::build(&spec.patterns()[0], 1);
/// assert_eq!(g.node_count(), 7);
/// assert_eq!(g.intra_edges().len(), 11);
/// println!("{}", g.to_dot());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessGraph {
    dm: DistanceModel,
    intra: Vec<(usize, usize)>,
    inter: Vec<(usize, usize)>,
}

impl AccessGraph {
    /// Builds the access graph of `pattern` under auto-modify range
    /// `modify_range`.
    pub fn build(pattern: &AccessPattern, modify_range: u32) -> Self {
        Self::from_distance_model(DistanceModel::new(pattern, modify_range))
    }

    /// Builds the access graph from an existing distance model.
    pub fn from_distance_model(dm: DistanceModel) -> Self {
        let n = dm.len();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if dm.free_intra(i, j) {
                    intra.push((i, j));
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                if dm.free_wrap(i, j) {
                    inter.push((i, j));
                }
            }
        }
        AccessGraph { dm, intra, inter }
    }

    /// The underlying distance model.
    pub fn distance_model(&self) -> &DistanceModel {
        &self.dm
    }

    /// Number of nodes (accesses).
    pub fn node_count(&self) -> usize {
        self.dm.len()
    }

    /// All intra-iteration zero-cost edges `(i, j)` with `i < j`, in
    /// lexicographic order.
    pub fn intra_edges(&self) -> &[(usize, usize)] {
        &self.intra
    }

    /// All inter-iteration zero-cost edges `(from, to)` — `from` served
    /// last in iteration `t`, `to` served first in iteration `t+1`
    /// (self-loops included).
    pub fn inter_edges(&self) -> &[(usize, usize)] {
        &self.inter
    }

    /// `true` if `(i, j)` is a zero-cost intra-iteration edge.
    pub fn has_intra_edge(&self, i: usize, j: usize) -> bool {
        i < j && i < self.node_count() && j < self.node_count() && self.dm.free_intra(i, j)
    }

    /// Renders the graph in Graphviz DOT format: solid arcs for
    /// intra-iteration edges, dashed arcs for inter-iteration edges, nodes
    /// labelled `a_k` with their offsets (compare Figure 1 of the paper).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph access_pattern {\n");
        out.push_str("  rankdir=LR;\n  node [shape=circle];\n");
        for i in 0..self.node_count() {
            let _ = writeln!(
                out,
                "  a{} [label=\"a_{}\\noff {}\"];",
                i + 1,
                i + 1,
                self.dm.offset(i)
            );
        }
        for &(i, j) in &self.intra {
            let _ = writeln!(out, "  a{} -> a{};", i + 1, j + 1);
        }
        for &(i, j) in &self.inter {
            let _ = writeln!(
                out,
                "  a{} -> a{} [style=dashed, constraint=false];",
                i + 1,
                j + 1
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> AccessGraph {
        AccessGraph::from_distance_model(DistanceModel::from_offsets(
            &[1, 0, 2, -1, 1, 0, -2],
            1,
            1,
        ))
    }

    #[test]
    fn figure1_intra_edge_set_is_exact() {
        let g = figure1();
        let expected: Vec<(usize, usize)> = vec![
            (0, 1),
            (0, 2),
            (0, 4),
            (0, 5),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 5),
            (3, 6),
            (4, 5),
        ];
        assert_eq!(g.intra_edges(), expected.as_slice());
    }

    #[test]
    fn paper_example_path_is_a_graph_path() {
        let g = figure1();
        // (a_1, a_3, a_5, a_6) — each hop must be an intra edge.
        for w in [0usize, 2, 4, 5].windows(2) {
            assert!(g.has_intra_edge(w[0], w[1]), "missing edge {w:?}");
        }
    }

    fn has_inter_edge(g: &AccessGraph, from: usize, to: usize) -> bool {
        g.inter_edges().contains(&(from, to))
    }

    #[test]
    fn inter_edges_include_wraps_used_by_singletons() {
        let g = figure1();
        // Self wrap: offset o → o + stride, distance 1 → free for all 7.
        for i in 0..7 {
            assert!(has_inter_edge(&g, i, i));
        }
        // a_3 (offset 2) closes onto a_1 (offset 1): 1 + 1 - 2 = 0 → free.
        assert!(has_inter_edge(&g, 2, 0));
        // a_7 (offset -2) to a_1 (offset 1): 4 → not free.
        assert!(!has_inter_edge(&g, 6, 0));
    }

    #[test]
    fn has_edge_bounds_checks() {
        let g = figure1();
        assert!(!g.has_intra_edge(5, 5));
        assert!(!g.has_intra_edge(3, 99));
    }

    #[test]
    fn dot_output_contains_nodes_and_both_edge_styles() {
        let g = figure1();
        let dot = g.to_dot();
        assert!(dot.contains("digraph access_pattern"));
        assert!(dot.contains("a1 [label=\"a_1\\noff 1\"];"));
        assert!(dot.contains("a1 -> a2;"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn larger_modify_range_adds_edges() {
        let g1 = figure1();
        let g2 = AccessGraph::from_distance_model(DistanceModel::from_offsets(
            &[1, 0, 2, -1, 1, 0, -2],
            1,
            2,
        ));
        assert!(g2.intra_edges().len() > g1.intra_edges().len());
        assert!(g2.has_intra_edge(1, 2)); // distance 2, free with M = 2
    }

    #[test]
    fn build_from_pattern_equals_build_from_model() {
        let pattern = raco_ir::AccessPattern::from_offsets(&[1, 0, 2], 1);
        let a = AccessGraph::build(&pattern, 1);
        let b = AccessGraph::from_distance_model(DistanceModel::from_offsets(&[1, 0, 2], 1, 1));
        assert_eq!(a, b);
    }
}
