//! The foreign-vertex cache.
//!
//! "If a foreign vertex is already cached in the local machine, for the
//! undetermined edges attached to this vertex, we can verify them locally
//! without sending requests to other machines. Also we do not re-fetch any
//! foreign vertex if it is already cached previously." (Appendix B)
//!
//! The paper gives fetched foreign vertices a *separate, evictable*
//! allowance: they are not part of a region group's intermediate results, so
//! they are excluded from the group estimate `φ(rg)`, and may be dropped at
//! any time without affecting correctness (a dropped vertex is simply
//! re-fetched on next use). This cache enforces that allowance with a
//! byte-bounded LRU policy: entries form an intrusive recency list (O(1)
//! touch and evict), every insert evicts least-recently-used entries until
//! the new adjacency list fits, and the hit/miss/eviction counters are
//! surfaced through `EngineStats` so experiments can report cache pressure.
//!
//! A cache is sound for as long as the graph it was filled from does not
//! change: every entry is a whole adjacency list exactly as its owner served
//! it. On a resident machine that is the life of the process, so caches are
//! kept between queries by a [`crate::store::ForeignStore`].

use rads_graph::{VertexId, VertexMap};

/// Hit/miss/eviction counters of a [`ForeignVertexCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the vertex already cached.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// The counters accumulated since `baseline` was read off the same
    /// cache — what one query did to a cache that outlives it.
    pub fn since(self, baseline: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - baseline.hits,
            misses: self.misses - baseline.misses,
            evictions: self.evictions - baseline.evictions,
        }
    }
}

/// "No slot": the end of the recency list, or an empty list.
const NIL: u32 = u32::MAX;

/// One cached adjacency list, living in a slot of [`ForeignVertexCache::slots`].
/// The recency list is threaded through the slots by *slot index*, so
/// relinking an entry is plain array indexing — the hash map is consulted
/// once per lookup, to find the slot.
#[derive(Debug, Clone)]
struct Entry {
    vertex: VertexId,
    adjacency: Vec<VertexId>,
    /// More recently used neighbour in the recency list ([`NIL`] = newest).
    prev: u32,
    /// Less recently used neighbour ([`NIL`] = oldest, next to evict).
    next: u32,
}

/// Per-machine cache of foreign adjacency lists fetched with `fetchV`,
/// bounded to `capacity_bytes` with LRU eviction.
#[derive(Debug, Clone)]
pub struct ForeignVertexCache {
    /// Vertex → slot of its entry.
    index: VertexMap<u32>,
    /// Entry storage; slots named by `free` are vacant.
    slots: Vec<Entry>,
    free: Vec<u32>,
    /// Slot of the most recently used entry.
    head: u32,
    /// Slot of the least recently used entry (evicted first).
    tail: u32,
    /// Current accounted bytes of every cached adjacency list.
    bytes: usize,
    /// Highest `bytes` ever observed.
    peak_bytes: usize,
    /// Byte capacity; inserts evict until the new entry fits.
    capacity_bytes: usize,
    stats: CacheStats,
    /// Whether caching is enabled; when disabled (ablation), inserts are
    /// dropped so every use re-fetches — misses are still counted, so the
    /// ablation run reports the full fetch pressure it causes.
    enabled: bool,
}

impl Default for ForeignVertexCache {
    fn default() -> Self {
        ForeignVertexCache::new()
    }
}

impl ForeignVertexCache {
    /// An enabled cache with no byte bound (legacy behaviour; the engine uses
    /// [`ForeignVertexCache::with_capacity`]).
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// An enabled, empty cache that evicts LRU entries to keep its accounted
    /// bytes at or below `capacity_bytes`.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        ForeignVertexCache {
            index: VertexMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            peak_bytes: 0,
            capacity_bytes,
            stats: CacheStats::default(),
            enabled: true,
        }
    }

    /// A cache that never retains anything (the `ablation_cache` setting).
    pub fn disabled() -> Self {
        ForeignVertexCache { enabled: false, ..Self::new() }
    }

    /// Whether caching is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of cached adjacency lists.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The byte capacity inserts are held to.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes the accounting model charges for caching `adjacency` under one
    /// vertex key (the key plus its list entries).
    pub fn entry_bytes(adjacency_len: usize) -> usize {
        std::mem::size_of::<VertexId>() * (adjacency_len + 1)
    }

    /// Unlinks the entry in `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Entry { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links the entry in `slot` as the most recently used.
    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.slots[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Removes the entry in `slot` altogether: off the recency list, out of
    /// the index, its bytes released and its slot vacated.
    fn remove_slot(&mut self, slot: u32) {
        self.unlink(slot);
        let entry = &mut self.slots[slot as usize];
        let adjacency = std::mem::take(&mut entry.adjacency);
        self.index.remove(&entry.vertex);
        self.bytes -= Self::entry_bytes(adjacency.len());
        self.free.push(slot);
    }

    /// Inserts a fetched adjacency list. A no-op when disabled. The owner's
    /// CSR serves lists sorted, so the sort only runs for a caller that
    /// hands in an unsorted one. Evicts LRU entries until the new list fits
    /// the capacity; a list that cannot fit even in an empty cache is not
    /// retained at all (it would only displace everything else for a single
    /// use).
    pub fn insert(&mut self, vertex: VertexId, mut adjacency: Vec<VertexId>) {
        if !self.enabled {
            return;
        }
        let new_bytes = Self::entry_bytes(adjacency.len());
        if new_bytes > self.capacity_bytes {
            return;
        }
        if !adjacency.is_sorted() {
            adjacency.sort_unstable();
        }
        if let Some(&slot) = self.index.get(&vertex) {
            // re-fetch of a cached vertex: replace the payload and refresh
            self.remove_slot(slot);
        }
        while self.bytes + new_bytes > self.capacity_bytes && self.tail != NIL {
            self.remove_slot(self.tail);
            self.stats.evictions += 1;
        }
        let entry = Entry { vertex, adjacency, prev: NIL, next: NIL };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 cached vertices");
                self.slots.push(entry);
                slot
            }
        };
        self.index.insert(vertex, slot);
        self.bytes += new_bytes;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.link_front(slot);
    }

    /// Bulk [`insert`](Self::insert) of a harvested `fetchV` response: the
    /// lists land in response order, so the harvest order of the async
    /// driver (its deterministic issue order) is also the LRU recency order.
    pub fn insert_all(&mut self, lists: Vec<(VertexId, Vec<VertexId>)>) {
        for (vertex, adjacency) in lists {
            self.insert(vertex, adjacency);
        }
    }

    /// Looks up the adjacency list of `vertex`, recording hit/miss statistics
    /// and refreshing its recency on a hit. One hash probe either way: the
    /// recency list is relinked through slot indices.
    pub fn get(&mut self, vertex: VertexId) -> Option<&[VertexId]> {
        let Some(&slot) = self.index.get(&vertex) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        Some(&self.slots[slot as usize].adjacency)
    }

    /// Non-recording lookup (used by read-only verification paths). Does not
    /// refresh recency.
    pub fn peek(&self, vertex: VertexId) -> Option<&[VertexId]> {
        self.index.get(&vertex).map(|&slot| self.slots[slot as usize].adjacency.as_slice())
    }

    /// `true` if `vertex` is cached.
    pub fn contains(&self, vertex: VertexId) -> bool {
        self.index.contains_key(&vertex)
    }

    /// Checks whether the cached adjacency of either endpoint decides the
    /// existence of the edge `(u, v)`. Returns `None` when neither endpoint
    /// is cached.
    pub fn verify_edge(&self, u: VertexId, v: VertexId) -> Option<bool> {
        if let Some(adjacency) = self.peek(u) {
            return Some(adjacency.binary_search(&v).is_ok());
        }
        self.peek(v).map(|adjacency| adjacency.binary_search(&u).is_ok())
    }

    /// Hit/miss/eviction counters over the cache's whole life (a resident
    /// cache outlives queries; see [`CacheStats::since`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accounted heap footprint in bytes of the cached adjacency lists.
    pub fn memory_bytes(&self) -> usize {
        self.bytes
    }

    /// Highest accounted footprint ever observed.
    pub fn peak_memory_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// The cached vertices from most to least recently used (tests and
    /// diagnostics).
    pub fn recency_order(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            let entry = &self.slots[cur as usize];
            out.push(entry.vertex);
            cur = entry.next;
        }
        out
    }

    /// Drops every cached entry (used between region groups when the memory
    /// budget requires it). Not counted as evictions.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_stats() {
        let mut cache = ForeignVertexCache::new();
        assert!(cache.get(5).is_none());
        cache.insert(5, vec![3, 1, 2]);
        assert_eq!(cache.get(5).unwrap(), &[1, 2, 3]);
        assert!(cache.contains(5));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(cache.len(), 1);
        assert!(cache.memory_bytes() > 0);
    }

    #[test]
    fn edge_verification_from_cache() {
        let mut cache = ForeignVertexCache::new();
        cache.insert(10, vec![11, 12]);
        assert_eq!(cache.verify_edge(10, 11), Some(true));
        assert_eq!(cache.verify_edge(12, 10), Some(true));
        assert_eq!(cache.verify_edge(10, 99), Some(false));
        assert_eq!(cache.verify_edge(1, 2), None);
    }

    #[test]
    fn disabled_cache_never_stores_but_still_counts_misses() {
        let mut cache = ForeignVertexCache::disabled();
        cache.insert(5, vec![1]);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
        assert!(cache.get(5).is_none());
        assert!(cache.get(5).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        assert_eq!(cache.memory_bytes(), 0);
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = ForeignVertexCache::new();
        cache.insert(1, vec![2]);
        cache.insert(3, vec![4]);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.memory_bytes(), 0);
        assert_eq!(cache.stats().evictions, 0);
        // still usable after clearing
        cache.insert(9, vec![1, 2]);
        assert_eq!(cache.recency_order(), vec![9]);
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_evictions() {
        // capacity for exactly two 2-neighbour entries
        let entry = ForeignVertexCache::entry_bytes(2);
        let mut cache = ForeignVertexCache::with_capacity(2 * entry);
        cache.insert(1, vec![10, 11]);
        cache.insert(2, vec![20, 21]);
        assert_eq!(cache.memory_bytes(), 2 * entry);
        assert_eq!(cache.peak_memory_bytes(), 2 * entry);
        // the third insert must evict the least recently used (vertex 1)
        cache.insert(3, vec![30, 31]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.memory_bytes(), 2 * entry);
        assert!(!cache.contains(1));
        assert!(cache.contains(2) && cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_order_follows_recorded_use() {
        let entry = ForeignVertexCache::entry_bytes(1);
        let mut cache = ForeignVertexCache::with_capacity(3 * entry);
        cache.insert(1, vec![9]);
        cache.insert(2, vec![9]);
        cache.insert(3, vec![9]);
        assert_eq!(cache.recency_order(), vec![3, 2, 1]);
        // touching 1 moves it to the front, so 2 is now the LRU victim
        assert!(cache.get(1).is_some());
        assert_eq!(cache.recency_order(), vec![1, 3, 2]);
        cache.insert(4, vec![9]);
        assert!(!cache.contains(2), "the LRU entry (2) must be the one evicted");
        assert_eq!(cache.recency_order(), vec![4, 1, 3]);
        // peek must NOT refresh recency: 3 stays the victim
        assert!(cache.peek(3).is_some());
        assert!(cache.peek(3).is_some());
        cache.insert(5, vec![9]);
        assert!(!cache.contains(3));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn oversized_entries_are_not_retained() {
        let mut cache = ForeignVertexCache::with_capacity(ForeignVertexCache::entry_bytes(2));
        cache.insert(1, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(cache.is_empty(), "an entry larger than the whole capacity is not cached");
        assert_eq!(cache.stats().evictions, 0);
        // a fitting entry is unaffected
        cache.insert(2, vec![1, 2]);
        assert!(cache.contains(2));
    }

    #[test]
    fn reinserting_a_vertex_replaces_its_payload_and_bytes() {
        let entry1 = ForeignVertexCache::entry_bytes(1);
        let entry3 = ForeignVertexCache::entry_bytes(3);
        let mut cache = ForeignVertexCache::with_capacity(1024);
        cache.insert(7, vec![1]);
        assert_eq!(cache.memory_bytes(), entry1);
        cache.insert(7, vec![3, 2, 1]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.memory_bytes(), entry3);
        assert_eq!(cache.get(7).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut cache = ForeignVertexCache::new();
        for v in 0..100u32 {
            cache.insert(v, vec![v + 1, v + 2]);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.peak_memory_bytes(), cache.memory_bytes());
    }
}
