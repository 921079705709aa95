//! Region grouping (Section 6, Algorithm 3).
//!
//! The candidate vertices of the start query vertex are divided into disjoint
//! *region groups*, each processed independently so that the cached
//! intermediate results never exceed the memory budget. Groups are grown
//! greedily by *proximity* — the fraction of a candidate's neighbours that
//! are already neighbours of the group — so candidates in one group share
//! verification edges and foreign-vertex fetches.
//!
//! Grouping runs before any expansion on every machine of every query, and
//! the governor re-runs it on every spill, so it is built to cost
//! O(Σ d² log n) rather than the O(n² d) of rescanning every waiting
//! candidate per member added, while returning the same groups in the same
//! order (see [`find_region_groups`] for the exact tie rule;
//! `tests/region_grouping.rs` keeps the rescan as the oracle).

use std::collections::{BinaryHeap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rads_graph::{VertexId, VertexMap};
use rads_partition::LocalPartition;

use crate::memory::{MemoryBudget, SpaceEstimator};

/// How the candidate set is split into region groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// Algorithm 3: grow each group by maximum proximity to the group.
    Proximity,
    /// Ablation baseline: random assignment respecting only the size cap.
    Random,
}

/// The proximity of `v` to the group whose united neighbourhood is
/// `group_neighborhood` (equation 5): `|adj(v) ∩ N(rg)| / |adj(v)|`.
pub fn proximity(adjacency: &[VertexId], group_neighborhood: &HashSet<VertexId>) -> f64 {
    if adjacency.is_empty() {
        return 0.0;
    }
    let shared = adjacency.iter().filter(|v| group_neighborhood.contains(v)).count();
    shared as f64 / adjacency.len() as f64
}

/// The members of `group` whose adjacency is *foreign*: not owned by this
/// machine and not already covered per `cached`. This is the round-0
/// `fetchV` set of a region group, computed when the group starts its first
/// round. A machine forms its groups from its own start candidates, so the
/// set is non-empty only for a group stolen from another machine. Order is
/// the group's member order; callers sort/dedup as part of batching.
pub fn foreign_members(
    local: &LocalPartition,
    group: &[VertexId],
    cached: impl Fn(VertexId) -> bool,
) -> Vec<VertexId> {
    group.iter().copied().filter(|&v| !local.owns(v) && !cached(v)).collect()
}

/// Splits `candidates` (start-vertex candidates owned by this machine) into
/// region groups.
///
/// * With [`GroupingStrategy::Proximity`], groups are grown as in Algorithm 3:
///   start from a random candidate, repeatedly add the candidate with the
///   highest proximity to the group, and stop when the estimated memory cost
///   `φ(rg)` would exceed the budget `Φ`.
/// * With [`GroupingStrategy::Random`], candidates are shuffled and chopped
///   into chunks of the same maximum size.
///
/// Every candidate appears in exactly one group and every group is non-empty.
///
/// **Tie rule.** The candidates are shuffled by `seed` into a waiting list.
/// A group starts with the list's *last* entry (`pop`); each further member
/// is the entry of maximum [`proximity`] to the group's united
/// neighbourhood — the `f64` value `shared / degree` — with ties going to
/// the **highest position** in the list, and it leaves the list by
/// `swap_remove` (the tail entry moves into its hole). That is exactly a
/// rescan with `Iterator::max_by`, which returns the last maximum.
///
/// **Cost.** O(Σ d² log n) rather than the rescan's O(n² d): every
/// candidate's adjacency is looked up once and renamed to dense neighbour
/// ids, and a reverse index maps each neighbour to the candidates adjacent
/// to it. Per candidate the loop keeps the count of its neighbours already
/// in the group's neighbourhood; when a neighbour first enters it, only the
/// waiting candidates on that neighbour's reverse list are bumped, and each
/// bump pushes a `(proximity, position)` entry on a max-heap. Stale entries
/// (a later bump, a moved or departed slot) are dropped when they surface.
/// A candidate sharing no neighbour has proximity 0, below every heap
/// entry, so an empty heap means the tie rule's pick: the last waiting
/// entry. Only the touched counts are reset when a group ends.
pub fn find_region_groups(
    local: &LocalPartition,
    candidates: &[VertexId],
    estimator: &SpaceEstimator,
    budget: &MemoryBudget,
    strategy: GroupingStrategy,
    seed: u64,
) -> Vec<Vec<VertexId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_size = estimator.max_group_size(budget);
    let mut shuffled: Vec<VertexId> = candidates.to_vec();
    shuffled.shuffle(&mut rng);
    match strategy {
        GroupingStrategy::Random => shuffled.chunks(max_size).map(<[VertexId]>::to_vec).collect(),
        GroupingStrategy::Proximity => {
            let fits = |size: usize| {
                size <= max_size
                    && estimator.estimate_group_bytes(size) <= budget.region_group_bytes.max(1)
            };
            proximity_groups(local, &shuffled, fits)
        }
    }
}

/// Marks a slot that has left the waiting list.
const GONE: u32 = u32::MAX;

/// The proximity arm of [`find_region_groups`] over the already shuffled
/// waiting list `order`, growing each group while `fits(size + 1)` holds.
fn proximity_groups(
    local: &LocalPartition,
    order: &[VertexId],
    fits: impl Fn(usize) -> bool,
) -> Vec<Vec<VertexId>> {
    let n = order.len();
    // slot i is order[i]; its neighbours as dense ids in `nbrs[start[i]..start[i + 1]]`
    let mut dense: VertexMap<u32> = VertexMap::default();
    let mut start = Vec::with_capacity(n + 1);
    let mut nbrs: Vec<u32> = Vec::new();
    start.push(0);
    for &v in order {
        for &x in local.neighbors(v).unwrap_or(&[]) {
            let next = dense.len() as u32;
            nbrs.push(*dense.entry(x).or_insert(next));
        }
        start.push(nbrs.len());
    }
    // reverse index, CSR over dense ids: the slots adjacent to each neighbour
    let mut rev_start = vec![0usize; dense.len() + 1];
    for &x in &nbrs {
        rev_start[x as usize + 1] += 1;
    }
    for i in 1..rev_start.len() {
        rev_start[i] += rev_start[i - 1];
    }
    let mut fill = rev_start.clone();
    let mut rev = vec![0u32; nbrs.len()];
    for slot in 0..n {
        for &x in &nbrs[start[slot]..start[slot + 1]] {
            rev[fill[x as usize]] = slot as u32;
            fill[x as usize] += 1;
        }
    }

    let degree = |slot: usize| start[slot + 1] - start[slot];
    // equation 5 as `proximity` computes it, so ties compare exactly as in a rescan
    let proximity_of = |shared: u32, slot: usize| shared as f64 / degree(slot) as f64;
    let mut waiting: Vec<u32> = (0..n as u32).collect();
    let mut position: Vec<u32> = (0..n as u32).collect();
    let mut shared = vec![0u32; n];
    let mut in_neighborhood = vec![false; dense.len()];
    let mut touched_neighbors: Vec<u32> = Vec::new();
    let mut touched_slots: Vec<u32> = Vec::new();
    // (proximity bits, position, slot): a positive finite f64 orders as its bits
    let mut heap: BinaryHeap<(u64, u32, u32)> = BinaryHeap::new();

    let mut groups = Vec::new();
    while let Some(first) = waiting.pop() {
        let mut member = first as usize;
        position[member] = GONE;
        let mut group = vec![order[member]];
        while !waiting.is_empty() && fits(group.len() + 1) {
            // the last member's neighbours join the group's neighbourhood
            for &x in &nbrs[start[member]..start[member + 1]] {
                if std::mem::replace(&mut in_neighborhood[x as usize], true) {
                    continue;
                }
                touched_neighbors.push(x);
                for &s in &rev[rev_start[x as usize]..rev_start[x as usize + 1]] {
                    let slot = s as usize;
                    if position[slot] == GONE {
                        continue;
                    }
                    if shared[slot] == 0 {
                        touched_slots.push(s);
                    }
                    shared[slot] += 1;
                    let key = proximity_of(shared[slot], slot).to_bits();
                    heap.push((key, position[slot], s));
                }
            }
            let best = loop {
                match heap.peek() {
                    Some(&(key, pos, s)) => {
                        let slot = s as usize;
                        if position[slot] == pos && proximity_of(shared[slot], slot).to_bits() == key
                        {
                            break pos as usize;
                        }
                        heap.pop();
                    }
                    None => break waiting.len() - 1,
                }
            };
            member = waiting.swap_remove(best) as usize;
            position[member] = GONE;
            if let Some(&moved) = waiting.get(best) {
                position[moved as usize] = best as u32;
                if shared[moved as usize] > 0 {
                    let key = proximity_of(shared[moved as usize], moved as usize).to_bits();
                    heap.push((key, best as u32, moved));
                }
            }
            group.push(order[member]);
        }
        groups.push(group);
        heap.clear();
        for x in touched_neighbors.drain(..) {
            in_neighborhood[x as usize] = false;
        }
        for s in touched_slots.drain(..) {
            shared[s as usize] = 0;
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::generators::community_graph;
    use rads_graph::GraphBuilder;
    use rads_partition::{Partitioning, PartitionedGraph};

    fn single_machine_partition(graph: &rads_graph::Graph) -> PartitionedGraph {
        PartitionedGraph::build(graph, Partitioning::single_machine(graph.vertex_count()))
    }

    #[test]
    fn proximity_definition() {
        let nbh: HashSet<VertexId> = [1, 2, 3].into_iter().collect();
        assert!((proximity(&[1, 2, 9, 10], &nbh) - 0.5).abs() < 1e-9);
        assert_eq!(proximity(&[], &nbh), 0.0);
        assert_eq!(proximity(&[7], &nbh), 0.0);
        assert_eq!(proximity(&[1], &nbh), 1.0);
    }

    #[test]
    fn groups_partition_the_candidates() {
        let g = community_graph(4, 10, 0.5, 0.02, 1);
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(400, 40); // 10 nodes per candidate
        let budget = MemoryBudget { region_group_bytes: 10 * crate::trie::EmbeddingTrie::NODE_BYTES * 8, ..Default::default() };
        for strategy in [GroupingStrategy::Proximity, GroupingStrategy::Random] {
            let groups =
                find_region_groups(local, &candidates, &estimator, &budget, strategy, 7);
            let mut seen: Vec<VertexId> = groups.iter().flatten().copied().collect();
            seen.sort_unstable();
            let mut expected = candidates.clone();
            expected.sort_unstable();
            assert_eq!(seen, expected, "{strategy:?} lost or duplicated candidates");
            assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= 8), "{strategy:?}");
        }
    }

    #[test]
    fn proximity_grouping_keeps_communities_together() {
        // Two well-separated cliques; with a group capacity equal to the
        // clique size, proximity grouping should produce groups that stay
        // within one clique, while random grouping usually mixes them.
        let mut b = GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6u32 {
                for j in i + 1..6 {
                    b.add_edge(base + i, base + j);
                }
            }
        }
        // one weak link between the cliques
        b.add_edge(0, 6);
        let g = b.build();
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(120, 12); // 10 nodes/candidate
        let budget = MemoryBudget { region_group_bytes: 10 * crate::trie::EmbeddingTrie::NODE_BYTES * 6, ..Default::default() };
        let groups = find_region_groups(
            local,
            &candidates,
            &estimator,
            &budget,
            GroupingStrategy::Proximity,
            3,
        );
        assert_eq!(groups.len(), 2);
        for group in &groups {
            let left = group.iter().filter(|&&v| v < 6).count();
            let right = group.len() - left;
            assert!(
                left == 0 || right == 0 || left == 1 || right == 1,
                "group {group:?} mixes the two cliques"
            );
        }
    }

    #[test]
    fn tiny_budget_yields_singleton_groups() {
        let g = community_graph(2, 5, 0.6, 0.1, 2);
        let pg = single_machine_partition(&g);
        let local = pg.local(0);
        let candidates: Vec<VertexId> = g.vertices().collect();
        let estimator = SpaceEstimator::from_sme(1000, 10);
        let budget = MemoryBudget { region_group_bytes: 1, ..Default::default() };
        let groups = find_region_groups(
            local,
            &candidates,
            &estimator,
            &budget,
            GroupingStrategy::Proximity,
            0,
        );
        assert_eq!(groups.len(), candidates.len());
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn empty_candidate_set_gives_no_groups() {
        let g = community_graph(1, 5, 0.5, 0.0, 2);
        let pg = single_machine_partition(&g);
        let groups = find_region_groups(
            pg.local(0),
            &[],
            &SpaceEstimator::from_sme(10, 1),
            &MemoryBudget::default(),
            GroupingStrategy::Proximity,
            0,
        );
        assert!(groups.is_empty());
    }
}
