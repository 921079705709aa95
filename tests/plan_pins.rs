//! The chosen plans, as data: for every query class the benchmark runs, on
//! the graph it runs it on, the plan's units and the order machine 0's
//! depth-first descent and SM-E match in
//! ([`rads_core::sme::choose_descent_order`]). A change to the planner, to
//! the order sampler or to the data sets shows up here as a diff of one
//! readable line per class.
//!
//! The graphs are the benchmark's: LiveJournal at scale 0.25 over 4
//! machines and RoadNet at scale 5.0 over 2, graph seed 42, label
//! propagation partitioning, planner `rho` 1.0.

use rads_core::sme::choose_descent_order;
use rads_datasets::{generate, DatasetKind, Scale};
use rads_graph::queries;
use rads_partition::{LabelPropagationPartitioner, PartitionedGraph, Partitioner};
use rads_plan::{best_plan, PlannerConfig};

const GRAPH_SEED: u64 = 42;

/// `(dataset, scale, machines, classes)` of the benchmark's workloads.
const WORKLOADS: [(DatasetKind, f64, usize, &[&str]); 2] = [
    (
        DatasetKind::LiveJournal,
        0.25,
        4,
        &["triangle", "c1", "q1", "c4", "q8", "c3", "q3", "q2", "q4", "q5"],
    ),
    (DatasetKind::RoadNet, 5.0, 2, &["q1", "q7", "q6"]),
];

/// One line per class: `dataset class: plan | machine 0 descent order`.
const PINNED: &str = "\
LiveJournal triangle: start 2; units 2>[0, 1]; order [2, 0, 1] | descent [2, 0, 1]
LiveJournal c1: start 3; units 3>[0, 1, 2]; order [3, 0, 1, 2] | descent [3, 0, 1, 2]
LiveJournal q1: start 3; units 3>[0, 2], 2>[1]; order [3, 2, 0, 1] | descent [3, 2, 0, 1]
LiveJournal c4: start 2; units 2>[0, 1, 3, 4]; order [2, 0, 1, 3, 4] | descent [2, 0, 1, 3, 4]
LiveJournal q8: start 5; units 5>[0, 1, 2], 2>[3, 4]; order [5, 2, 0, 1, 3, 4] | descent [5, 0, 1, 3, 2, 4]
LiveJournal c3: start 2; units 2>[0, 1, 3], 0>[5], 5>[4]; order [2, 0, 1, 3, 5, 4] | descent [2, 0, 1, 3, 4, 5]
LiveJournal q3: start 4; units 4>[0, 3], 3>[2], 2>[1]; order [4, 3, 0, 2, 1] | descent [4, 3, 0, 2, 1]
LiveJournal q2: start 0; units 0>[1, 2, 3]; order [0, 1, 2, 3] | descent [0, 1, 2, 3]
LiveJournal q4: start 1; units 1>[0, 2, 4], 0>[3]; order [1, 0, 2, 4, 3] | descent [1, 0, 4, 2, 3]
LiveJournal q5: start 1; units 1>[0, 2, 4], 0>[3], 4>[5]; order [1, 0, 4, 2, 3, 5] | descent [1, 0, 4, 2, 3, 5]
RoadNet q1: start 3; units 3>[0, 2], 2>[1]; order [3, 2, 0, 1] | descent [3, 0, 1, 2]
RoadNet q7: start 3; units 3>[0, 2, 5], 2>[1, 4]; order [3, 2, 0, 5, 1, 4] | descent [3, 2, 0, 1, 4, 5]
RoadNet q6: start 5; units 5>[0, 4], 4>[3], 3>[2], 2>[1]; order [5, 4, 0, 3, 2, 1] | descent [5, 0, 1, 2, 3, 4]
";

#[test]
fn the_benchmark_classes_keep_their_plans_and_descent_orders() {
    let mut actual = String::new();
    for (dataset, scale, machines, classes) in WORKLOADS {
        let graph = generate(dataset, Scale(scale), GRAPH_SEED).graph;
        let partitioning = LabelPropagationPartitioner::default().partition(&graph, machines);
        let partitioned = PartitionedGraph::build(&graph, partitioning);
        for &class in classes {
            let pattern = queries::query_by_name(class).expect("a benchmark class");
            let plan = best_plan(&pattern, &PlannerConfig { rho: 1.0 });
            let order = choose_descent_order(partitioned.local(0), &pattern, &plan);
            actual.push_str(&format!(
                "{dataset:?} {class}: {plan} | descent {:?}\n",
                order.order()
            ));
        }
    }
    assert_eq!(actual, PINNED, "a plan or descent order moved; the new table:\n{actual}");
}
