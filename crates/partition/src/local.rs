//! One machine's view of the partitioned data graph.

use std::sync::OnceLock;

use rads_graph::{Graph, GraphBuilder, VertexId, VertexMap};

use crate::partitioning::{MachineId, Partitioning};

/// The data stored on one machine `M_t`:
///
/// * the adjacency list of every vertex **owned** by `M_t` (global vertex
///   ids, sorted) — this is the partition `G_t` of the paper, which owns an
///   edge iff at least one endpoint is owned;
/// * the set of **border vertices** `V^b_{G_t}` (owned vertices with at least
///   one neighbour owned elsewhere);
/// * the **border distance** of every owned vertex (Definition 1), computed
///   with a multi-source BFS from the border vertices restricted to owned
///   vertices.
#[derive(Debug, Clone)]
pub struct LocalPartition {
    machine: MachineId,
    /// Owned vertices in increasing global id order.
    owned: Vec<VertexId>,
    /// Global id -> index into `owned` / `offsets`.
    local_index: VertexMap<u32>,
    /// CSR over the owned vertices; neighbour ids are global.
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    /// `true` for owned vertices with at least one foreign neighbour.
    is_border: Vec<bool>,
    /// Border distance per owned vertex (`u32::MAX` if the vertex cannot
    /// reach any border vertex inside the partition).
    border_distance: Vec<u32>,
    /// Number of edges owned by this machine (at least one endpoint owned).
    owned_edge_count: usize,
    /// The induced subgraph over the owned vertices, built on first use
    /// ([`owned_graph`](Self::owned_graph)).
    owned_graph: OnceLock<Graph>,
}

impl LocalPartition {
    /// Builds machine `machine`'s partition of `graph` under `partitioning`.
    pub fn build(graph: &Graph, partitioning: &Partitioning, machine: MachineId) -> Self {
        let owned = partitioning.owned_vertices(machine);
        let mut local_index = VertexMap::with_capacity_and_hasher(owned.len(), Default::default());
        for (i, &v) in owned.iter().enumerate() {
            local_index.insert(v, i as u32);
        }
        let mut offsets = Vec::with_capacity(owned.len() + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        let mut is_border = vec![false; owned.len()];
        let mut owned_edges = 0usize;
        for (i, &v) in owned.iter().enumerate() {
            let adj = graph.neighbors(v);
            neighbors.extend_from_slice(adj);
            offsets.push(neighbors.len());
            for &w in adj {
                if partitioning.owner(w) != machine {
                    is_border[i] = true;
                    owned_edges += 1; // cross edge owned once by this side
                } else if w > v {
                    owned_edges += 1; // internal edge counted once
                }
            }
        }
        let border_distance = Self::compute_border_distance(&owned, &local_index, &offsets, &neighbors, &is_border);
        LocalPartition {
            machine,
            owned,
            local_index,
            offsets,
            neighbors,
            is_border,
            border_distance,
            owned_edge_count: owned_edges,
            owned_graph: OnceLock::new(),
        }
    }

    fn compute_border_distance(
        owned: &[VertexId],
        local_index: &VertexMap<u32>,
        offsets: &[usize],
        neighbors: &[VertexId],
        is_border: &[bool],
    ) -> Vec<u32> {
        let mut dist = vec![u32::MAX; owned.len()];
        let mut queue = std::collections::VecDeque::new();
        for (i, &b) in is_border.iter().enumerate() {
            if b {
                dist[i] = 0;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            let d = dist[i];
            for &w in &neighbors[offsets[i]..offsets[i + 1]] {
                if let Some(&j) = local_index.get(&w) {
                    let j = j as usize;
                    if dist[j] == u32::MAX {
                        dist[j] = d + 1;
                        queue.push_back(j);
                    }
                }
            }
        }
        // Vertices that cannot reach any border vertex are effectively
        // infinitely far from the border: leave them at MAX.
        let _ = owned;
        dist
    }

    /// The machine id this partition belongs to.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of owned vertices.
    pub fn owned_count(&self) -> usize {
        self.owned.len()
    }

    /// Number of edges owned by this machine (each counted once per machine;
    /// cross edges are owned by both machines, as in the paper).
    pub fn owned_edge_count(&self) -> usize {
        self.owned_edge_count
    }

    /// The owned vertices, sorted by global id.
    pub fn owned_vertices(&self) -> &[VertexId] {
        &self.owned
    }

    /// The dense id of an owned vertex: its position in
    /// [`owned_vertices`](Self::owned_vertices), so dense ids are monotone in
    /// global ids. `None` for a foreign vertex.
    pub fn dense_id(&self, v: VertexId) -> Option<VertexId> {
        self.local_index.get(&v).copied()
    }

    /// The induced subgraph over the owned vertices, relabelled by
    /// [`dense_id`](Self::dense_id). Built once, on first use, and kept for
    /// as long as the partition is: SM-E enumerates on it, and the engine
    /// samples its descent order on it. Since dense ids keep the order of
    /// global ids, symmetry-breaking comparisons agree on both labellings.
    pub fn owned_graph(&self) -> &Graph {
        self.owned_graph.get_or_init(|| {
            let mut builder = GraphBuilder::new(self.owned.len());
            for (i, &v) in self.owned.iter().enumerate() {
                for &w in &self.neighbors[self.offsets[i]..self.offsets[i + 1]] {
                    if let Some(&j) = self.local_index.get(&w).filter(|_| w > v) {
                        builder.add_edge(i as VertexId, j);
                    }
                }
            }
            builder.build()
        })
    }

    /// Whether this machine owns `v`.
    pub fn owns(&self, v: VertexId) -> bool {
        self.local_index.contains_key(&v)
    }

    /// The adjacency list of an owned vertex (global ids), or `None` if the
    /// vertex is foreign.
    pub fn neighbors(&self, v: VertexId) -> Option<&[VertexId]> {
        self.local_index.get(&v).map(|&i| {
            let i = i as usize;
            &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
        })
    }

    /// Degree of an owned vertex.
    pub fn degree(&self, v: VertexId) -> Option<usize> {
        self.neighbors(v).map(|n| n.len())
    }

    /// Whether an owned vertex is a border vertex.
    pub fn is_border(&self, v: VertexId) -> Option<bool> {
        self.local_index.get(&v).map(|&i| self.is_border[i as usize])
    }

    /// All border vertices of this partition.
    pub fn border_vertices(&self) -> Vec<VertexId> {
        self.owned
            .iter()
            .zip(&self.is_border)
            .filter(|(_, &b)| b)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Border distance of an owned vertex (Definition 1); `None` for foreign
    /// vertices, `u32::MAX` when the vertex cannot reach the border at all
    /// (then every embedding through it is local, so SM-E may process it).
    pub fn border_distance(&self, v: VertexId) -> Option<u32> {
        self.local_index.get(&v).map(|&i| self.border_distance[i as usize])
    }

    /// Verifies the existence of the data edge `(u, v)`.
    ///
    /// Returns `Some(true/false)` when at least one endpoint is owned (the
    /// machine can answer authoritatively, as in the paper's `verifyE`), and
    /// `None` when neither endpoint is owned (an *undetermined* edge for this
    /// machine).
    pub fn verify_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        if u == v {
            return Some(false);
        }
        if let Some(adj) = self.neighbors(u) {
            return Some(adj.binary_search(&v).is_ok());
        }
        if let Some(adj) = self.neighbors(v) {
            return Some(adj.binary_search(&u).is_ok());
        }
        None
    }

    /// Approximate memory footprint of this partition in bytes (CSR arrays +
    /// index + flags), used by memory-budget accounting.
    pub fn memory_bytes(&self) -> usize {
        self.owned.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<VertexId>()
            + self.is_border.len()
            + self.border_distance.len() * std::mem::size_of::<u32>()
            + self.local_index.len() * (std::mem::size_of::<VertexId>() + std::mem::size_of::<u32>())
    }

    /// The candidate vertices of a starting query vertex among the owned
    /// vertices: owned vertices whose degree is at least `min_degree`.
    /// (The usual degree-filter candidates used by all engines.)
    pub fn candidates_with_min_degree(&self, min_degree: usize) -> Vec<VertexId> {
        self.owned
            .iter()
            .enumerate()
            .filter(|(i, _)| self.offsets[*i + 1] - self.offsets[*i] >= min_degree)
            .map(|(_, &v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::grid_2d;
    use rads_graph::GraphBuilder;

    /// 6-vertex path split in the middle: 0-1-2 | 3-4-5.
    fn split_path() -> (Graph, Partitioning) {
        let edges: Vec<(VertexId, VertexId)> = (0..5).map(|i| (i, i + 1)).collect();
        let g = GraphBuilder::from_edges(6, &edges);
        let p = Partitioning::new(vec![0, 0, 0, 1, 1, 1], 2);
        (g, p)
    }

    #[test]
    fn ownership_and_neighbors() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        let l1 = LocalPartition::build(&g, &p, 1);
        assert_eq!(l0.owned_count(), 3);
        assert_eq!(l1.owned_count(), 3);
        assert!(l0.owns(2));
        assert!(!l0.owns(3));
        assert_eq!(l0.neighbors(2).unwrap(), &[1, 3]);
        assert!(l0.neighbors(4).is_none());
        assert_eq!(l0.degree(0), Some(1));
    }

    #[test]
    fn border_vertices_and_distances() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        assert_eq!(l0.border_vertices(), vec![2]);
        assert_eq!(l0.border_distance(2), Some(0));
        assert_eq!(l0.border_distance(1), Some(1));
        assert_eq!(l0.border_distance(0), Some(2));
        assert_eq!(l0.border_distance(5), None);
        let l1 = LocalPartition::build(&g, &p, 1);
        assert_eq!(l1.border_vertices(), vec![3]);
        assert_eq!(l1.border_distance(5), Some(2));
    }

    #[test]
    fn edge_verification() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        assert_eq!(l0.verify_edge(0, 1), Some(true));
        assert_eq!(l0.verify_edge(2, 3), Some(true)); // cross edge, owned endpoint 2
        assert_eq!(l0.verify_edge(0, 2), Some(false));
        assert_eq!(l0.verify_edge(4, 5), None); // both foreign: undetermined
        assert_eq!(l0.verify_edge(3, 3), Some(false));
    }

    #[test]
    fn owned_edges_count_cross_edges_on_both_sides() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        let l1 = LocalPartition::build(&g, &p, 1);
        // 0-1, 1-2 internal to M0, plus the cross edge 2-3
        assert_eq!(l0.owned_edge_count(), 3);
        assert_eq!(l1.owned_edge_count(), 3);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn grid_interior_has_large_border_distance() {
        let g = grid_2d(6, 6);
        // left half machine 0, right half machine 1
        let assignment: Vec<MachineId> = (0..36).map(|v| if v % 6 < 3 { 0 } else { 1 }).collect();
        let p = Partitioning::new(assignment, 2);
        let l0 = LocalPartition::build(&g, &p, 0);
        // column 2 touches column 3 (foreign): border
        assert_eq!(l0.border_distance(2), Some(0));
        // column 0 is two hops from the border inside the partition
        assert_eq!(l0.border_distance(0), Some(2));
        assert!(l0.border_vertices().len() >= 6);
    }

    #[test]
    fn candidates_with_min_degree_filters() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        assert_eq!(l0.candidates_with_min_degree(2), vec![1, 2]);
        assert_eq!(l0.candidates_with_min_degree(1).len(), 3);
        assert!(l0.candidates_with_min_degree(3).is_empty());
    }

    #[test]
    fn memory_accounting_positive() {
        let (g, p) = split_path();
        let l0 = LocalPartition::build(&g, &p, 0);
        assert!(l0.memory_bytes() > 0);
    }
}
