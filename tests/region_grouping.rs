//! Region grouping (Algorithm 3) against its quadratic reference.
//!
//! `find_region_groups` grows proximity groups with a reverse neighbour
//! index, incremental shared-neighbour counts and a lazily pruned max-heap.
//! The reference below is the direct reading of Algorithm 3 it replaced:
//! rescan every waiting candidate for each member added, recomputing its
//! proximity from the group's neighbourhood set. The two must return the
//! same groups in the same order — the groups decide which machine fetches
//! what, so every per-machine statistic depends on them, not just counts.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rads::prelude::*;
use rads_core::memory::{MemoryBudget, SpaceEstimator};
use rads_core::region::{find_region_groups, GroupingStrategy};
use rads_core::sme::run_sme;
use rads_exec::ExecConfig;
use rads_graph::queries;
use rads_partition::LocalPartition;

/// Algorithm 3 as a rescan: O(n² d) per call. Ties go to the last maximum
/// (`Iterator::max_by`), and the chosen entry leaves by `swap_remove`.
fn reference_groups(
    local: &LocalPartition,
    candidates: &[VertexId],
    estimator: &SpaceEstimator,
    budget: &MemoryBudget,
    seed: u64,
) -> Vec<Vec<VertexId>> {
    let max_size = estimator.max_group_size(budget);
    let mut remaining = candidates.to_vec();
    remaining.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut groups = Vec::new();
    while let Some(first) = remaining.pop() {
        let mut group = vec![first];
        let mut neighborhood: HashSet<VertexId> =
            local.neighbors(first).unwrap_or(&[]).iter().copied().collect();
        while !remaining.is_empty()
            && group.len() < max_size
            && estimator.estimate_group_bytes(group.len() + 1) <= budget.region_group_bytes.max(1)
        {
            let proximity = |v: VertexId| {
                let adj = local.neighbors(v).unwrap_or(&[]);
                let shared = adj.iter().filter(|x| neighborhood.contains(x)).count();
                if adj.is_empty() { 0.0 } else { shared as f64 / adj.len() as f64 }
            };
            let (best, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, proximity(v)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("remaining is non-empty");
            let v = remaining.swap_remove(best);
            neighborhood.extend(local.neighbors(v).unwrap_or(&[]).iter().copied());
            group.push(v);
        }
        groups.push(group);
    }
    groups
}

/// The budgets the engine groups under: the default, two tight ones, and
/// for each the governor's `Φ/2` re-split budget.
fn budgets() -> Vec<MemoryBudget> {
    [MemoryBudget::default(), MemoryBudget::from_bytes(64 * 1024), MemoryBudget::from_bytes(4 * 1024)]
        .into_iter()
        .flat_map(|b| {
            let half = MemoryBudget { region_group_bytes: (b.region_group_bytes / 2).max(1), ..b };
            [b, half]
        })
        .collect()
}

#[test]
fn proximity_groups_match_the_quadratic_reference() {
    let exec = ExecConfig { workers: 1, ..ExecConfig::default() };
    let mut compared = 0usize;
    let mut multi_member_groups = 0usize;
    for kind in DatasetKind::all() {
        // the golden-count stand-ins, partitioned as `rads-node` does
        let graph = generate(kind, Scale(0.05), 42).graph;
        let partitioned = PartitionedGraph::build(
            &graph,
            LabelPropagationPartitioner::default().partition(&graph, 3),
        );
        for nq in queries::standard_query_set().into_iter().chain(queries::clique_query_set()) {
            let plan = best_plan(&nq.pattern, &PlannerConfig::default());
            for machine in 0..3 {
                let local = partitioned.local(machine);
                let sme = run_sme(local, &nq.pattern, &plan, true, &exec);
                for budget in budgets() {
                    for seed in [0x5AD5 ^ machine as u64, 7] {
                        let expected = reference_groups(
                            local, &sme.remaining_candidates, &sme.estimator, &budget, seed,
                        );
                        let actual = find_region_groups(
                            local,
                            &sme.remaining_candidates,
                            &sme.estimator,
                            &budget,
                            GroupingStrategy::Proximity,
                            seed,
                        );
                        assert_eq!(
                            actual, expected,
                            "{} {} machine {machine} budget {} seed {seed}",
                            kind.name(), nq.name, budget.region_group_bytes,
                        );
                        compared += 1;
                        multi_member_groups += actual.iter().filter(|g| g.len() > 1).count();
                    }
                }
            }
        }
    }
    assert_eq!(compared, 4 * 12 * 3 * 6 * 2);
    // the sweep must exercise the greedy choice, not just singleton groups
    assert!(multi_member_groups > 100, "only {multi_member_groups} groups with a choice made");
}

#[test]
fn proximity_groups_match_the_reference_on_a_whole_graph() {
    // one machine owning a road network: long chains of equal proximities
    // stress the tie rule and the positions `swap_remove` moves
    let graph = generate(DatasetKind::RoadNet, Scale(0.05), 7).graph;
    let partitioned = PartitionedGraph::build(&graph, Partitioning::single_machine(graph.vertex_count()));
    let local = partitioned.local(0);
    let candidates: Vec<VertexId> = graph.vertices().collect();
    let estimator = SpaceEstimator::from_sme(40 * candidates.len() as u64, candidates.len());
    for budget in budgets() {
        for seed in [1, 2] {
            assert_eq!(
                find_region_groups(
                    local, &candidates, &estimator, &budget, GroupingStrategy::Proximity, seed
                ),
                reference_groups(local, &candidates, &estimator, &budget, seed),
                "budget {} seed {seed}",
                budget.region_group_bytes,
            );
        }
    }
}
