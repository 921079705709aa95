//! The four workloads and the seeded query lists they run.

/// The data graph every workload's cluster loads. It is the benchmark's
/// fixed data set, not a seeded input: metrics are compared across seeds,
/// and a stand-in regenerated per seed moves bytes per query by ±8 % while
/// repeats on one graph agree within 1 %.
pub const DEFAULT_GRAPH_SEED: u64 = 42;

/// A measured list runs whole blocks until the run's seconds have passed
/// and at least this many queries were issued, so `latency_p90_ms` always
/// has ten samples beyond it.
pub const MIN_MEASURED_QUERIES: usize = 100;

const LIGHT: [&str; 5] = ["triangle", "c1", "q1", "c4", "q8"];
const HEAVY: [&str; 5] = ["c3", "q3", "q2", "q4", "q5"];

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    pub machines: usize,
    /// Intra-machine pool size (`rads-node --workers`).
    pub workers: usize,
    /// `rads-node --max-concurrent-queries`, and the number of closed-loop
    /// client threads.
    pub concurrency: usize,
    /// Query classes with their weight: how often each occurs in one block
    /// of the list. The class sets have an odd number of latency-separated
    /// classes, so `p50` falls inside a class and not on a gap between two.
    pub classes: Vec<(&'static str, usize)>,
}

fn weighted(groups: &[(&[&'static str], usize)]) -> Vec<(&'static str, usize)> {
    groups
        .iter()
        .flat_map(|(names, weight)| names.iter().map(|name| (*name, *weight)))
        .collect()
}

pub fn workloads() -> Vec<Workload> {
    let lj = |name, concurrency, classes| Workload {
        name,
        dataset: "LiveJournal",
        scale: 0.25,
        machines: 4,
        workers: 1,
        concurrency,
        classes,
    };
    vec![
        lj("lj-light", 1, weighted(&[(&LIGHT, 1)])),
        lj("lj-heavy", 1, weighted(&[(&HEAVY, 1)])),
        Workload {
            name: "road-local",
            dataset: "RoadNet",
            scale: 5.0,
            machines: 2,
            workers: 2,
            concurrency: 1,
            classes: weighted(&[(&["q1", "q7", "q6"], 1)]),
        },
        lj("lj-mix-c2", 2, weighted(&[(&LIGHT, 4), (&HEAVY, 1)])),
    ]
}

pub fn workload_by_name(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// SplitMix64: the harness's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The query list of one run: an endless sequence of blocks, each a seeded
/// shuffle of every class repeated by its weight. Class shares are exact at
/// every block boundary, whatever the seed.
pub struct QueryList {
    weights: Vec<usize>,
    rng: Rng,
}

impl QueryList {
    pub fn new(workload: &Workload, seed: u64) -> QueryList {
        QueryList {
            weights: workload.classes.iter().map(|(_, weight)| *weight).collect(),
            rng: Rng::new(seed),
        }
    }

    /// The next block, as indices into the workload's classes.
    pub fn next_block(&mut self) -> Vec<usize> {
        let mut block: Vec<usize> = self
            .weights
            .iter()
            .enumerate()
            .flat_map(|(class, weight)| std::iter::repeat_n(class, *weight))
            .collect();
        self.rng.shuffle(&mut block);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(workload: &Workload, seed: u64, n: usize) -> Vec<Vec<usize>> {
        let mut list = QueryList::new(workload, seed);
        (0..n).map(|_| list.next_block()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_list() {
        for workload in workloads() {
            assert_eq!(blocks(&workload, 7, 6), blocks(&workload, 7, 6));
            assert_ne!(
                blocks(&workload, 7, 6),
                blocks(&workload, 8, 6),
                "{}",
                workload.name
            );
        }
    }

    #[test]
    fn class_shares_are_exact_in_every_block() {
        for workload in workloads() {
            for block in blocks(&workload, 42, 4) {
                assert_eq!(
                    block.len(),
                    workload.classes.iter().map(|(_, w)| w).sum::<usize>()
                );
                for (class, (_, weight)) in workload.classes.iter().enumerate() {
                    assert_eq!(block.iter().filter(|&&c| c == class).count(), *weight);
                }
            }
        }
    }

    #[test]
    fn the_mix_is_four_light_to_one_heavy() {
        let mix = workload_by_name("lj-mix-c2").unwrap();
        assert_eq!(QueryList::new(&mix, 1).next_block().len(), 25);
        assert_eq!(mix.classes.iter().filter(|(_, w)| *w == 4).count(), 5);
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn class_sets_are_odd() {
        for name in ["lj-light", "lj-heavy", "road-local"] {
            assert_eq!(workload_by_name(name).unwrap().classes.len() % 2, 1);
        }
    }
}
