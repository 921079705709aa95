//! Automorphism-based symmetry breaking (Grochow & Kellis), applied by every
//! enumeration engine in the workspace so that each subgraph occurrence is
//! reported exactly once.

use crate::pattern::Pattern;
use crate::types::{PatternVertex, VertexId};

/// Symmetry-breaking constraints for a pattern: a set of ordered query-vertex
/// pairs `(a, b)` meaning that any reported embedding `f` must satisfy
/// `f(a) < f(b)` (comparing data-vertex ids).
///
/// The constraints are computed with the standard Grochow–Kellis procedure:
/// repeatedly pick a vertex with a non-trivial orbit under the remaining
/// automorphism group, force it to take the smallest data vertex among its
/// orbit, then restrict the group to automorphisms fixing that vertex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryBreaking {
    n: usize,
    /// `constraints[a]` holds every `b` with the requirement `f(a) < f(b)`.
    constraints: Vec<Vec<PatternVertex>>,
    /// The reverse lists: `below[b]` holds every `a` with `f(a) < f(b)`.
    below: Vec<Vec<PatternVertex>>,
    /// Number of automorphisms of the pattern (the reduction factor).
    automorphism_count: usize,
}

impl SymmetryBreaking {
    /// Computes symmetry-breaking constraints for `pattern`.
    pub fn new(pattern: &Pattern) -> Self {
        let autos = automorphisms(pattern);
        let automorphism_count = autos.len();
        let n = pattern.vertex_count();
        let mut constraints: Vec<Vec<PatternVertex>> = vec![Vec::new(); n];
        let mut group = autos;
        loop {
            // Find the smallest vertex with a non-trivial orbit.
            let mut chosen: Option<(PatternVertex, Vec<PatternVertex>)> = None;
            for v in 0..n {
                let mut orbit: Vec<PatternVertex> = group.iter().map(|perm| perm[v]).collect();
                orbit.sort_unstable();
                orbit.dedup();
                if orbit.len() > 1 {
                    chosen = Some((v, orbit));
                    break;
                }
            }
            let Some((v, orbit)) = chosen else { break };
            for &w in &orbit {
                if w != v {
                    constraints[v].push(w);
                }
            }
            group.retain(|perm| perm[v] == v);
            if group.len() <= 1 {
                break;
            }
        }
        for list in constraints.iter_mut() {
            list.sort_unstable();
            list.dedup();
        }
        let mut below: Vec<Vec<PatternVertex>> = vec![Vec::new(); n];
        for (a, list) in constraints.iter().enumerate() {
            for &b in list {
                below[b].push(a);
            }
        }
        SymmetryBreaking { n, constraints, below, automorphism_count }
    }

    /// A no-op symmetry breaking (used when an engine wants to disable it,
    /// e.g. to cross-check counts in tests).
    pub fn disabled(pattern: &Pattern) -> Self {
        SymmetryBreaking {
            n: pattern.vertex_count(),
            constraints: vec![Vec::new(); pattern.vertex_count()],
            below: vec![Vec::new(); pattern.vertex_count()],
            automorphism_count: 1,
        }
    }

    /// Number of automorphisms of the pattern.
    pub fn automorphism_count(&self) -> usize {
        self.automorphism_count
    }

    /// All `(a, b)` pairs with the requirement `f(a) < f(b)`.
    pub fn pairs(&self) -> Vec<(PatternVertex, PatternVertex)> {
        let mut out = Vec::new();
        for (a, list) in self.constraints.iter().enumerate() {
            for &b in list {
                out.push((a, b));
            }
        }
        out
    }

    /// Checks a complete assignment `f(u) = mapping[u]`.
    pub fn check_full(&self, mapping: &[VertexId]) -> bool {
        debug_assert_eq!(mapping.len(), self.n);
        self.constraints.iter().enumerate().all(|(a, list)| {
            list.iter().all(|&b| mapping[a] < mapping[b])
        })
    }

    /// Checks the constraints that involve `u` against a *partial* assignment
    /// in which `assigned[w]` is `Some(v)` for already-matched query vertices.
    /// Unmatched endpoints are ignored (they will be checked when they are
    /// matched).
    pub fn check_partial(&self, u: PatternVertex, v: VertexId, assigned: &[Option<VertexId>]) -> bool {
        // constraints u < b
        for &b in &self.constraints[u] {
            if let Some(vb) = assigned[b] {
                if v >= vb {
                    return false;
                }
            }
        }
        // constraints a < u
        for &a in &self.below[u] {
            if let Some(va) = assigned[a] {
                if va >= v {
                    return false;
                }
            }
        }
        true
    }

    /// The open interval `(lo, hi)` of data vertices that the constraints
    /// involving `u` allow it, given the partial assignment `assigned`:
    /// `lo` is the largest `f(a)` over matched `a` with `f(a) < f(u)`, `hi`
    /// the smallest `f(b)` over matched `b` with `f(u) < f(b)`, and either is
    /// `None` when no such constraint has a matched endpoint. For every `v`,
    /// [`check_partial`](Self::check_partial)`(u, v, assigned)` holds exactly
    /// when `v` lies inside the interval, so a caller may cut a sorted
    /// candidate list to it in place of checking each candidate.
    pub fn bounds(
        &self,
        u: PatternVertex,
        assigned: &[Option<VertexId>],
    ) -> (Option<VertexId>, Option<VertexId>) {
        // constraints u < b
        let hi = self.constraints[u].iter().filter_map(|&b| assigned[b]).min();
        // constraints a < u
        let lo = self.below[u].iter().filter_map(|&a| assigned[a]).max();
        (lo, hi)
    }
}

/// All automorphisms of the pattern, each as a permutation `perm[u] = image`.
/// Backtracking with degree pruning; patterns are tiny so this is cheap.
pub fn automorphisms(pattern: &Pattern) -> Vec<Vec<PatternVertex>> {
    let n = pattern.vertex_count();
    let mut result = Vec::new();
    let mut perm = vec![usize::MAX; n];
    let mut used = vec![false; n];

    fn backtrack(
        p: &Pattern,
        u: PatternVertex,
        perm: &mut Vec<PatternVertex>,
        used: &mut Vec<bool>,
        out: &mut Vec<Vec<PatternVertex>>,
    ) {
        let n = p.vertex_count();
        if u == n {
            out.push(perm.clone());
            return;
        }
        for cand in 0..n {
            if used[cand] || p.degree(cand) != p.degree(u) {
                continue;
            }
            // adjacency consistency with already-mapped vertices
            let ok = (0..u).all(|w| p.has_edge(u, w) == p.has_edge(cand, perm[w]));
            if !ok {
                continue;
            }
            perm[u] = cand;
            used[cand] = true;
            backtrack(p, u + 1, perm, used, out);
            used[cand] = false;
            perm[u] = usize::MAX;
        }
    }

    backtrack(pattern, 0, &mut perm, &mut used, &mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use crate::queries;

    #[test]
    fn triangle_has_six_automorphisms() {
        let p = PatternBuilder::new(3).clique(&[0, 1, 2]).build();
        assert_eq!(automorphisms(&p).len(), 6);
        let sb = SymmetryBreaking::new(&p);
        assert_eq!(sb.automorphism_count(), 6);
        // constraints must enforce a strict order on all three vertices:
        // exactly one assignment order of distinct data vertices passes.
        let passes = |m: &[VertexId]| sb.check_full(m);
        let perms: Vec<Vec<VertexId>> = vec![
            vec![1, 2, 3],
            vec![1, 3, 2],
            vec![2, 1, 3],
            vec![2, 3, 1],
            vec![3, 1, 2],
            vec![3, 2, 1],
        ];
        let count = perms.iter().filter(|m| passes(m)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn square_automorphism_group() {
        let p = queries::q1();
        // dihedral group of the square
        assert_eq!(automorphisms(&p).len(), 8);
        let sb = SymmetryBreaking::new(&p);
        // the reduction factor must divide into distinct-value assignments:
        // of the 24 orderings of 4 distinct data vertices, 24 / 8 = 3 pass.
        let mut pass = 0;
        let vals: Vec<VertexId> = vec![10, 20, 30, 40];
        let mut perm = vals.clone();
        // enumerate permutations via Heap's algorithm (4! = 24)
        fn heaps(k: usize, arr: &mut Vec<VertexId>, visit: &mut dyn FnMut(&[VertexId])) {
            if k == 1 {
                visit(arr);
                return;
            }
            for i in 0..k {
                heaps(k - 1, arr, visit);
                if k.is_multiple_of(2) {
                    arr.swap(i, k - 1);
                } else {
                    arr.swap(0, k - 1);
                }
            }
        }
        heaps(4, &mut perm, &mut |m| {
            if sb.check_full(m) {
                pass += 1;
            }
        });
        assert_eq!(pass, 3);
    }

    #[test]
    fn pendant_square_has_reflection_symmetry() {
        // 4-cycle 1-2-3-4 with a pendant vertex 0 attached to 1: the only
        // non-trivial automorphism is the reflection swapping 2 and 4.
        let p = PatternBuilder::new(5).path(&[0, 1, 2, 3]).edge(1, 4).edge(3, 4).build();
        let autos = automorphisms(&p);
        assert_eq!(autos.len(), 2);
        let sb = SymmetryBreaking::new(&p);
        assert_eq!(sb.automorphism_count(), 2);
        // the single constraint must distinguish the two symmetric images
        assert_eq!(sb.pairs().len(), 1);
        let (a, b) = sb.pairs()[0];
        assert!((a, b) == (2, 4) || (a, b) == (4, 2));
    }

    #[test]
    fn asymmetric_pattern_has_no_constraints() {
        // q5 (house + end vertex) is asymmetric except for the roof-base
        // reflection; check a genuinely rigid pattern instead: the house with
        // an end vertex attached off-centre at a base corner.
        let p = PatternBuilder::new(6)
            .cycle(&[0, 1, 2, 3])
            .edge(0, 4)
            .edge(1, 4)
            .edge(2, 5)
            .build();
        assert_eq!(automorphisms(&p).len(), 1);
        let sb = SymmetryBreaking::new(&p);
        assert!(sb.pairs().is_empty());
        assert!(sb.check_full(&[5, 4, 3, 2, 1, 0]));
    }

    /// Every permutation of `0..n`, in lexicographic order.
    fn permutations(n: usize) -> Vec<Vec<VertexId>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for first in 0..n as VertexId {
            for rest in permutations(n - 1) {
                let mut perm = vec![first];
                perm.extend(rest.into_iter().map(|v| v + VertexId::from(v >= first)));
                out.push(perm);
            }
        }
        out
    }

    #[test]
    fn partial_checks_agree_with_full_checks() {
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let sb = SymmetryBreaking::new(&query.pattern);
            let n = query.pattern.vertex_count();
            let forward: Vec<usize> = (0..n).collect();
            let reverse: Vec<usize> = (0..n).rev().collect();
            let mut accepted = 0;
            for mapping in permutations(n) {
                let full = sb.check_full(&mapping);
                accepted += usize::from(full);
                for order in [&forward, &reverse] {
                    let mut assigned: Vec<Option<VertexId>> = vec![None; n];
                    let incremental = order.iter().all(|&u| {
                        let ok = sb.check_partial(u, mapping[u], &assigned);
                        assigned[u] = Some(mapping[u]);
                        ok
                    });
                    assert_eq!(incremental, full, "{}, {mapping:?}, order {order:?}", query.name);
                }
            }
            assert_eq!(accepted * sb.automorphism_count(), permutations(n).len(), "{}", query.name);
        }
    }

    /// Every injective assignment of distinct even ids to the vertices in
    /// the bit set `matched`, the rest unmatched.
    fn partial_assignments(n: usize, matched: u32) -> Vec<Vec<Option<VertexId>>> {
        let vertices: Vec<usize> = (0..n).filter(|&w| matched & (1 << w) != 0).collect();
        permutations(vertices.len())
            .into_iter()
            .map(|perm| {
                let mut assigned = vec![None; n];
                for (&w, &rank) in vertices.iter().zip(&perm) {
                    assigned[w] = Some(2 * rank);
                }
                assigned
            })
            .collect()
    }

    /// The interval of `bounds` is the only symmetry check the expansion
    /// kernel makes, so it must admit exactly what `check_partial` admits
    /// under every partial assignment the kernel can meet. Each set of
    /// matched vertices is tried, which covers every prefix of every
    /// matching order (the forward, the reverse and any plan's), with the
    /// matched ids in every relative order and the candidate in every gap
    /// between them.
    #[test]
    fn bounds_admit_exactly_what_partial_checks_admit() {
        let mut patterns = queries::standard_query_set();
        patterns.extend(queries::clique_query_set());
        for query in patterns {
            let (name, sb) = (query.name, SymmetryBreaking::new(&query.pattern));
            let n = query.pattern.vertex_count();
            let mut cut = 0;
            for matched in 0..1u32 << n {
                for assigned in partial_assignments(n, matched) {
                    for u in (0..n).filter(|&u| matched & (1 << u) == 0) {
                        let (lo, hi) = sb.bounds(u, &assigned);
                        for v in 0..=2 * n as VertexId {
                            let inside = lo.is_none_or(|lo| v > lo) && hi.is_none_or(|hi| v < hi);
                            let checked = sb.check_partial(u, v, &assigned);
                            assert_eq!(inside, checked, "{name}: u {u}, v {v}, {assigned:?}");
                            cut += usize::from(!inside);
                        }
                    }
                }
            }
            assert_eq!(cut > 0, !sb.pairs().is_empty(), "{name}");
        }
    }

    #[test]
    fn disabled_symmetry_accepts_everything() {
        let p = queries::c1();
        let sb = SymmetryBreaking::disabled(&p);
        assert!(sb.check_full(&[9, 3, 7, 1]));
        assert_eq!(sb.automorphism_count(), 1);
    }

    #[test]
    fn k33_automorphism_count() {
        let p = queries::q8();
        // Aut(K3,3) = 3! * 3! * 2 = 72
        assert_eq!(automorphisms(&p).len(), 72);
    }
}
