//! The resident foreign-adjacency store: one per machine, for as long as the
//! machine's partition of the graph is loaded.
//!
//! "We do not re-fetch any foreign vertex if it is already cached
//! previously" (Appendix B) — and on a machine that answers one query after
//! another over a graph that cannot change while it is resident,
//! "previously" includes every earlier query. A [`ForeignStore`] owns the
//! machine's [`ForeignVertexCache`]s between engine runs: each drain loop of
//! [`crate::engine::run_machine`] *checks one out*, works against it exactly
//! as it would against a cache of its own, and *checks it back in* when it
//! is done, contents and all.
//!
//! **Why check-out / check-in and not one shared map.** While a cache is
//! checked out no other thread can reach it, so the expansion oracle keeps
//! borrowing plain slices from it: no lock, atomic or `Arc` sits on the
//! per-lookup path, which is all a warm query does. The price is that
//! concurrent drains (intra-machine workers, overlapping queries) each warm
//! their own cache; the store therefore holds at most as many caches as
//! there were ever drains running at once, each bounded by the store's
//! allowance.
//!
//! **Soundness.** Entries are whole adjacency lists as their owner served
//! them, and the owner's partition is immutable while the cluster is up, so
//! a cached list never goes stale and there is nothing to invalidate. A
//! cache whose drain unwinds is simply never checked back in.
//!
//! **Descent orders.** The store also keeps what the machine measured on
//! its own partition for each pattern it has run: the order its SM-E and
//! depth-first descent match in ([`ForeignStore::descent_order`]). Unlike a
//! plan, which is a function of the pattern alone, that choice is derived
//! from the data, and stays valid for exactly as long as the store does:
//! while the partition is resident.

use std::collections::HashMap;

use parking_lot::Mutex;
use rads_graph::{Pattern, PatternVertex};
use rads_partition::LocalPartition;
use rads_plan::ExecutionPlan;
use rads_single::MatchingOrder;

use crate::cache::ForeignVertexCache;
use crate::sme::choose_descent_order;

/// What a descent order is chosen for: the pattern's edges and the plan's
/// matching order (which fixes the start vertex).
type OrderKey = (Vec<(PatternVertex, PatternVertex)>, Vec<PatternVertex>);

/// The foreign-vertex caches of one machine that are not in use right now.
#[derive(Debug)]
pub struct ForeignStore {
    /// Byte capacity of every cache this store creates.
    cache_bytes: usize,
    /// Checked-in caches, the most recently returned last.
    idle: Mutex<Vec<ForeignVertexCache>>,
    /// The descent order chosen per (pattern, plan).
    orders: Mutex<HashMap<OrderKey, MatchingOrder>>,
}

impl ForeignStore {
    /// An empty store whose caches are each held to `cache_bytes`
    /// ([`crate::memory::MemoryBudget::cache_bytes`] of the budget the
    /// machine started with).
    pub fn new(cache_bytes: usize) -> ForeignStore {
        ForeignStore {
            cache_bytes,
            idle: Mutex::new(Vec::new()),
            orders: Mutex::new(HashMap::new()),
        }
    }

    /// Takes the most recently returned cache (the warmest: it served the
    /// latest drain to finish), or a new empty one when none is idle.
    pub fn check_out(&self) -> ForeignVertexCache {
        let idle = self.idle.lock().pop();
        idle.unwrap_or_else(|| ForeignVertexCache::with_capacity(self.cache_bytes))
    }

    /// Returns a cache taken with [`check_out`](Self::check_out), keeping
    /// what it holds for the next drain.
    pub fn check_in(&self, cache: ForeignVertexCache) {
        self.idle.lock().push(cache);
    }

    /// Number of idle caches — with nothing checked out, the most drains
    /// that ever ran at once against this store.
    pub fn idle_caches(&self) -> usize {
        self.idle.lock().len()
    }

    /// The order this machine matches `pattern` in under `plan`, chosen by
    /// [`choose_descent_order`] on `local` the first time it is asked for
    /// and kept from then on. `local` must be the partition the store serves.
    pub fn descent_order(
        &self,
        local: &LocalPartition,
        pattern: &Pattern,
        plan: &ExecutionPlan,
    ) -> MatchingOrder {
        let key = (pattern.edges(), plan.matching_order().to_vec());
        if let Some(order) = self.orders.lock().get(&key) {
            return order.clone();
        }
        // measured outside the lock: a query of another pattern need not wait
        let order = choose_descent_order(local, pattern, plan);
        self.orders.lock().entry(key).or_insert(order).clone()
    }

    /// Accounted bytes of adjacency held by the idle caches; never more than
    /// [`idle_caches`](Self::idle_caches) × the store's allowance.
    pub fn resident_bytes(&self) -> usize {
        self.idle.lock().iter().map(ForeignVertexCache::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_checked_in_cache_comes_back_with_its_contents() {
        let store = ForeignStore::new(1024);
        let mut cache = store.check_out();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity_bytes(), 1024);
        cache.insert(7, vec![1, 2, 3]);
        store.check_in(cache);
        assert_eq!(store.idle_caches(), 1);
        assert_eq!(store.resident_bytes(), ForeignVertexCache::entry_bytes(3));
        let cache = store.check_out();
        assert_eq!(cache.peek(7), Some(&[1, 2, 3][..]));
        assert_eq!(store.idle_caches(), 0);
    }

    #[test]
    fn a_full_resident_cache_comes_back_whole_and_still_hits() {
        let entry = ForeignVertexCache::entry_bytes(3);
        let store = ForeignStore::new(8 * entry);
        let mut cache = store.check_out();
        for v in 0..8 {
            cache.insert(v, vec![1, 2, 3]);
        }
        store.check_in(cache);
        let mut cache = store.check_out();
        assert_eq!(cache.len(), 8);
        assert!(cache.get(3).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn the_most_recently_returned_cache_is_handed_out_first() {
        let store = ForeignStore::new(1024);
        let (mut a, mut b) = (store.check_out(), store.check_out());
        a.insert(1, vec![10]);
        b.insert(2, vec![20]);
        store.check_in(a);
        store.check_in(b);
        assert!(store.check_out().contains(2));
        assert!(store.check_out().contains(1));
        // both out: the next drain starts cold rather than waiting
        assert!(store.check_out().is_empty());
    }

    #[test]
    fn a_cache_that_is_never_returned_leaves_no_trace() {
        let store = ForeignStore::new(1024);
        let mut cache = store.check_out();
        cache.insert(1, vec![10]);
        drop(cache); // what an unwinding drain does
        assert_eq!(store.idle_caches(), 0);
        assert!(store.check_out().is_empty());
    }
}
