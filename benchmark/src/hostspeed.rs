//! How fast the host is right now, from a fixed piece of work that belongs
//! to the benchmark and that no change to the program can touch.
//!
//! The sandbox this benchmark runs in slows down by 10–50 % for seconds to
//! minutes at a time, for reasons outside the guest: a plain loop slows
//! with the cluster. A run is shorter than such a phase, so no statistic
//! inside a run can remove it, and the run-to-run spread of raw times
//! reaches 12–24 %. Every end-to-end time is therefore reported **at
//! nominal host speed**: multiplied by the median of the speeds sampled
//! while it was taken (between blocks, with the cluster idle). On a quiet
//! host that changes nothing; in a disturbed hour it cut the spread of
//! `lj-light` from 12–16 % to 2–6 % and of `road-local` from 10–12 % to
//! 5–8 % (the README has the table). The raw values and the speed are
//! printed next to the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass over the lists takes on the host class this benchmark
/// was written on, with every core busy and nothing else disturbing it. It
/// only fixes the scale: on a faster host every scaled time grows by the
/// same factor.
const NOMINAL_ROUND_S: f64 = 0.00105;
const LISTS: usize = 400;
const LIST_LEN: usize = 200;
/// Passes per speed sample: about 25 ms.
const ROUNDS: usize = 24;

/// The calibration work: merge-intersections of sorted lists of a few
/// hundred ids, the instruction mix of the engine's own hot loop (a
/// latency-bound pointer chase slows far less than the cluster does when
/// the host is disturbed, and so under-corrects).
pub struct Calibrator {
    lists: Vec<Vec<u32>>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let lists = (0..LISTS)
            .map(|_| {
                let mut list: Vec<u32> = (0..LIST_LEN)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % (10 * LIST_LEN as u64)) as u32
                    })
                    .collect();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        Calibrator { lists }
    }

    fn pass(&self) -> usize {
        let mut common = 0;
        for pair in self.lists.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        common
    }

    fn timed_rounds(&self) -> f64 {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            black_box(black_box(self).pass());
        }
        NOMINAL_ROUND_S * ROUNDS as f64 / start.elapsed().as_secs_f64()
    }

    /// The host's current speed relative to nominal (below 1: slower), from
    /// about 25 ms of work on every core at once: the cluster keeps all of
    /// them busy, and a disturbance often hits one core only (on a disturbed
    /// host the scaled spread was 4.9 % with all cores, 6.6 % with one).
    pub fn speed(&self) -> f64 {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..cores)
                .map(|_| scope.spawn(|| self.timed_rounds()))
                .collect();
            let mut total = self.timed_rounds();
            for other in others {
                total += other.join().expect("a calibration thread panicked");
            }
            total / cores as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_a_plausible_positive_ratio() {
        let speed = Calibrator::new().speed();
        assert!(
            speed.is_finite() && speed > 0.01 && speed < 100.0,
            "{speed}"
        );
    }
}
