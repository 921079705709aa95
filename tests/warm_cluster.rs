//! Warm-cluster equivalence: the cluster-reuse contract of [`run_rads`]
//! (see its doc) says a resident `Cluster` answering a stream of queries
//! behaves *per query* exactly like a fresh cluster answering one. This is
//! the property serving mode (`rads-node serve`) is built on, and the suite
//! pins it across both transports and both round drivers:
//!
//! * one warm cluster answering q1 → q5 → q1 is bit-identical (total,
//!   per-machine counts, embedding digest) to three fresh clusters,
//! * the two q1 answers of the warm stream are identical to each other —
//!   nothing the q5 run left behind (daemons, queues, caches, stats,
//!   traffic counters) leaks into the second q1.
//!
//! The second half pins the one thing a resident machine *does* keep — the
//! foreign adjacency in its `ForeignStore` ([`run_rads_resident`]): counts
//! never move, a warm store sends fewer requests, and the per-query cache
//! counters stay per query.

use std::sync::Arc;

use rads::prelude::*;
use rads_core::{run_rads_resident, ForeignStore, MemoryBudget, RoundDriver};
use rads_graph::queries;

const MACHINES: usize = 3;

/// FNV-1a over the sorted embedding list — a stable fingerprint that two
/// runs share iff they produced exactly the same embeddings.
fn digest(mut embeddings: Vec<Vec<VertexId>>) -> u64 {
    embeddings.sort();
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut mix = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    };
    for embedding in &embeddings {
        for &v in embedding {
            for byte in v.to_le_bytes() {
                mix(byte);
            }
        }
        mix(0xff); // embedding separator
    }
    hash
}

/// Everything one answer must reproduce bit-identically.
#[derive(Debug, PartialEq)]
struct Answer {
    total: u64,
    per_machine: Vec<u64>,
    digest: u64,
}

fn answer(cluster: &Cluster, query: &str, driver: RoundDriver) -> Answer {
    let pattern = queries::query_by_name(query).expect("known query");
    let config = RadsConfig {
        collect_embeddings: true,
        round_driver: driver,
        ..RadsConfig::default()
    };
    let outcome = run_rads(cluster, &pattern, &config);
    Answer {
        total: outcome.total_embeddings,
        per_machine: outcome.per_machine.iter().map(|m| m.count).collect(),
        digest: digest(outcome.all_embeddings()),
    }
}

fn graph() -> Graph {
    generate(DatasetKind::Dblp, Scale(0.05), 7).graph
}

fn partitioned() -> Arc<PartitionedGraph> {
    let graph = graph();
    let partitioning = LabelPropagationPartitioner::default().partition(&graph, MACHINES);
    Arc::new(PartitionedGraph::build(&graph, partitioning))
}

fn transports() -> &'static [TransportKind] {
    if cfg!(unix) {
        &[TransportKind::InProcess, TransportKind::Uds]
    } else {
        &[TransportKind::InProcess, TransportKind::Tcp]
    }
}

#[test]
fn warm_cluster_matches_fresh_clusters_across_transports_and_drivers() {
    const STREAM: [&str; 3] = ["q1", "q5", "q1"];
    let pg = partitioned();
    for &transport in transports() {
        for driver in [RoundDriver::Serial, RoundDriver::Async] {
            let fresh: Vec<Answer> = STREAM
                .iter()
                .map(|query| {
                    let cluster = Cluster::with_transport(pg.clone(), transport);
                    answer(&cluster, query, driver)
                })
                .collect();
            let warm_cluster = Cluster::with_transport(pg.clone(), transport);
            let warm: Vec<Answer> =
                STREAM.iter().map(|query| answer(&warm_cluster, query, driver)).collect();
            assert_eq!(
                warm, fresh,
                "warm {STREAM:?} stream deviates from fresh clusters over {transport:?}/{driver:?}"
            );
            assert_eq!(
                warm[0], warm[2],
                "q5 bled state into the repeated q1 over {transport:?}/{driver:?}"
            );
        }
    }
}

#[test]
fn repeated_runs_do_not_accumulate_stats_or_traffic() {
    let pg = partitioned();
    let cluster = Cluster::new(pg);
    let pattern = queries::query_by_name("q1").expect("known query");
    // serial driver, one worker, no stealing: every statistic — including
    // the communication-volume ones — is deterministic, so the second run
    // must reproduce the first *exactly*, not doubled
    let config = RadsConfig {
        enable_load_sharing: false,
        round_driver: RoundDriver::Serial,
        workers: 1,
        ..RadsConfig::default()
    };
    let first = run_rads(&cluster, &pattern, &config);
    let second = run_rads(&cluster, &pattern, &config);
    assert_eq!(first.total_embeddings, second.total_embeddings);
    assert_eq!(
        first.traffic, second.traffic,
        "traffic counters carried over from the first run"
    );
    for (machine, (a, b)) in first.per_machine.iter().zip(&second.per_machine).enumerate() {
        assert_eq!(a.count, b.count, "machine {machine} count drifted");
        assert_eq!(a.stats, b.stats, "machine {machine} EngineStats carried state over");
    }
}

/// q1–q8 and the clique set c1–c4: every standard query of the paper.
fn all_queries() -> Vec<queries::NamedQuery> {
    let mut all = queries::standard_query_set();
    all.extend(queries::clique_query_set());
    all
}

/// A configuration with everything the environment could flip pinned, `Φ`
/// at its default and the cache allowance at `allowance`. Load sharing is
/// off because which machine steals a group is a race, and the tests below
/// compare *per-machine* figures between runs.
fn resident_config(allowance: usize, workers: usize, driver: RoundDriver) -> RadsConfig {
    RadsConfig {
        enable_load_sharing: false,
        memory_budget: MemoryBudget { cache_bytes: allowance, ..MemoryBudget::default() },
        workers,
        round_driver: driver,
        ..RadsConfig::default()
    }
}

fn stores(allowance: usize) -> Vec<ForeignStore> {
    (0..MACHINES).map(|_| ForeignStore::new(allowance)).collect()
}

fn counts(outcome: &RadsOutcome) -> (u64, Vec<u64>) {
    (outcome.total_embeddings, outcome.per_machine.iter().map(|m| m.count).collect())
}

#[test]
fn a_resident_store_never_changes_a_count() {
    let cluster = Cluster::new(partitioned());
    let queries = all_queries();
    let default_allowance = MemoryBudget::default().cache_bytes;
    // 4 KiB holds a fraction of what the queries fetch, so the second
    // allowance runs every query against a cache that is evicting what
    // earlier queries left in it
    for allowance in [default_allowance, 4096] {
        for workers in [1, 4] {
            for driver in [RoundDriver::Serial, RoundDriver::Async] {
                let config = resident_config(allowance, workers, driver);
                let leg = format!("allowance {allowance}, {workers} worker(s), {driver:?}");
                let fresh: Vec<(u64, Vec<u64>)> = queries
                    .iter()
                    .map(|query| counts(&run_rads(&cluster, &query.pattern, &config)))
                    .collect();
                let stores = stores(allowance);
                let mut evictions = [0u64; 2];
                for (pass, pass_evictions) in evictions.iter_mut().enumerate() {
                    for (query, expected) in queries.iter().zip(&fresh) {
                        let outcome =
                            run_rads_resident(&cluster, &query.pattern, &config, &stores);
                        assert_eq!(
                            &counts(&outcome),
                            expected,
                            "{}, pass {pass}: resident counts deviate from a fresh store ({leg})",
                            query.name
                        );
                        *pass_evictions += outcome.cache_evictions();
                        for (machine, store) in stores.iter().enumerate() {
                            assert!(
                                store.idle_caches() <= workers,
                                "machine {machine} pools {} caches ({leg})",
                                store.idle_caches()
                            );
                            assert!(
                                store.resident_bytes() <= store.idle_caches() * allowance,
                                "machine {machine} holds {} B in {} caches ({leg})",
                                store.resident_bytes(),
                                store.idle_caches()
                            );
                        }
                    }
                }
                if allowance == 4096 {
                    assert!(
                        evictions[1] > 0,
                        "the small allowance never evicted across queries ({leg})"
                    );
                }
            }
        }
    }
}

#[test]
fn a_warm_store_sends_fewer_requests_and_reports_only_its_own_lookups() {
    // One worker and no eviction: each machine has a single cache that only
    // grows, so the request counts are deterministic and the second pass is
    // comparable with the first machine by machine. (With several workers,
    // which of a machine's caches serves a group is a race; at a small
    // allowance a later query may find less than an earlier one left.)
    let allowance = MemoryBudget::default().cache_bytes;
    let cluster = Cluster::new(partitioned());
    let queries = all_queries();
    for driver in [RoundDriver::Serial, RoundDriver::Async] {
        let config = resident_config(allowance, 1, driver);
        let stores = stores(allowance);
        let requests = |outcome: &RadsOutcome| -> Vec<u64> {
            outcome
                .per_machine
                .iter()
                .map(|m| m.stats.fetch_requests + m.stats.verify_requests)
                .collect()
        };
        let lookups = |outcome: &RadsOutcome| -> Vec<u64> {
            outcome.per_machine.iter().map(|m| m.stats.cache_hits + m.stats.cache_misses).collect()
        };
        let first: Vec<Vec<u64>> = queries
            .iter()
            .map(|query| requests(&run_rads_resident(&cluster, &query.pattern, &config, &stores)))
            .collect();
        assert!(
            first.iter().flatten().any(|&n| n > 0),
            "the first pass never went to the network: nothing to compare ({driver:?})"
        );
        let mut looked_up = 0;
        for (query, first) in queries.iter().zip(&first) {
            let name = query.name;
            let cold = run_rads(&cluster, &query.pattern, &config);
            let warm = run_rads_resident(&cluster, &query.pattern, &config, &stores);
            for (machine, (&before, &after)) in first.iter().zip(&requests(&warm)).enumerate() {
                assert!(
                    after < before || (before == 0 && after == 0),
                    "{name}, machine {machine}: {after} requests warm after {before} ({driver:?})"
                );
            }
            // A pivot lookup is recorded per expanded parent, and a warm
            // cache only ever prunes parents earlier (the degree filter), so
            // a query's own lookups are bounded by a cold run's; a cache
            // reporting its lifetime totals would be far past that by now.
            for (machine, (&cold, &warm)) in lookups(&cold).iter().zip(&lookups(&warm)).enumerate() {
                assert!(
                    warm <= cold,
                    "{name}, machine {machine}: {warm} lookups reported, a cold run has {cold} \
                     — counters of earlier queries leaked in ({driver:?})"
                );
                looked_up += warm;
            }
            assert_eq!(warm.cache_evictions(), 0, "{name}: the default allowance evicted");
        }
        assert!(looked_up > 0, "no query looked anything up: the bound above is vacuous");
    }
}

#[test]
fn the_mixed_depth_first_and_batched_path_finds_every_embedding_once() {
    // Warm stores make the descent depth-first wherever a machine knows the
    // adjacency; a 4 KiB cache allowance keeps evicting what it knows, so
    // parents fall back to deposits and the batched rounds; a 4 KiB `Φ`
    // makes the governor shed candidates while their deposits wait.
    let graph = graph();
    let cluster = Cluster::new(partitioned());
    let warm_up = queries::query_by_name("q1").expect("known query");
    let (mut depth_first, mut deposits, mut splits) = (0, 0, 0);
    for workers in [1, 4] {
        for driver in [RoundDriver::Serial, RoundDriver::Async] {
            let config = RadsConfig {
                memory_budget: MemoryBudget::from_bytes(4096),
                workers,
                round_driver: driver,
                collect_embeddings: true,
                ..RadsConfig::default()
            };
            let leg = format!("{workers} worker(s), {driver:?}");
            let stores = stores(4096);
            run_rads_resident(&cluster, &warm_up, &config, &stores);
            for name in ["q4", "q5", "c3"] {
                let pattern = queries::query_by_name(name).expect("known query");
                let outcome = run_rads_resident(&cluster, &pattern, &config, &stores);
                assert_eq!(
                    outcome.total_embeddings,
                    count_embeddings(&graph, &pattern),
                    "{name}: count ({leg})"
                );
                assert_eq!(
                    digest(outcome.all_embeddings()),
                    digest(collect_embeddings(&graph, &pattern)),
                    "{name}: embeddings ({leg})"
                );
                for machine in &outcome.per_machine {
                    depth_first += machine.stats.depth_first_embeddings;
                    deposits += machine.stats.depth_first_deposits;
                    splits += machine.stats.governor_splits;
                }
            }
        }
    }
    assert!(depth_first > 0, "nothing was found depth-first");
    assert!(deposits > 0, "the descent never deposited for a batched round");
    assert!(splits > 0, "the governor never shed a candidate");
}

#[test]
fn abandoned_whole_rest_attempts_fall_back_without_losing_or_doubling_an_embedding() {
    // After the light classes warm the stores, most parents match the whole
    // rest of q8, q3 and c3 depth-first in their machine's descent order. A
    // 4 KiB cache allowance keeps evicting what the machines know, so some
    // attempts give up half-way and their parents take the unit path; a
    // 4 KiB `Φ` makes the governor shed candidates meanwhile. Counts and
    // embeddings must still come out exactly once each.
    let graph = graph();
    let cluster = Cluster::new(partitioned());
    let warm_up = ["triangle", "c1", "q1", "c4", "q8"];
    let (mut abandoned, mut depth_first, mut splits) = (0, 0, 0);
    for workers in [1, 4] {
        for driver in [RoundDriver::Serial, RoundDriver::Async] {
            let config = RadsConfig {
                memory_budget: MemoryBudget::from_bytes(4096),
                workers,
                round_driver: driver,
                collect_embeddings: true,
                ..RadsConfig::default()
            };
            let leg = format!("{workers} worker(s), {driver:?}");
            let stores = stores(4096);
            for name in warm_up {
                let pattern = queries::query_by_name(name).expect("known query");
                run_rads_resident(&cluster, &pattern, &config, &stores);
            }
            for name in ["q8", "q3", "c3"] {
                let pattern = queries::query_by_name(name).expect("known query");
                let outcome = run_rads_resident(&cluster, &pattern, &config, &stores);
                assert_eq!(
                    outcome.total_embeddings,
                    count_embeddings(&graph, &pattern),
                    "{name}: count ({leg})"
                );
                assert_eq!(
                    digest(outcome.all_embeddings()),
                    digest(collect_embeddings(&graph, &pattern)),
                    "{name}: embeddings ({leg})"
                );
                for machine in &outcome.per_machine {
                    abandoned += machine.stats.depth_first_abandoned;
                    depth_first += machine.stats.depth_first_embeddings;
                    splits += machine.stats.governor_splits;
                }
            }
        }
    }
    assert!(abandoned > 0, "no whole-rest attempt gave up");
    assert!(depth_first > 0, "nothing was found depth-first");
    assert!(splits > 0, "the governor never shed a candidate");
}
