//! Execution-plan representation and derived information.

use rads_graph::{Pattern, PatternVertex};

/// One decomposition unit `dp_i` (Definition 6): a pivot vertex plus a
/// non-empty set of leaf vertices, all adjacent to the pivot in the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompositionUnit {
    /// The pivot vertex `dp_i.piv`.
    pub pivot: PatternVertex,
    /// The leaf vertices `dp_i.LF` (sorted).
    pub leaves: Vec<PatternVertex>,
}

impl DecompositionUnit {
    /// Creates a unit, sorting the leaves.
    pub fn new(pivot: PatternVertex, mut leaves: Vec<PatternVertex>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        DecompositionUnit { pivot, leaves }
    }
}

/// How a pattern edge is processed by a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// `(pivot, leaf)` edge of unit `round` — used to *expand* candidates.
    Expansion { round: usize },
    /// Edge between two leaves of unit `round` — verified in that round.
    Sibling { round: usize },
    /// Edge from an earlier sub-pattern vertex to a leaf of unit `round` —
    /// verified in that round.
    CrossUnit { round: usize },
}

impl EdgeClass {
    /// The round in which the edge is handled.
    pub fn round(&self) -> usize {
        match *self {
            EdgeClass::Expansion { round } | EdgeClass::Sibling { round } | EdgeClass::CrossUnit { round } => round,
        }
    }

    /// `true` for sibling and cross-unit edges (the "verification edges").
    pub fn is_verification(&self) -> bool {
        !matches!(self, EdgeClass::Expansion { .. })
    }
}

/// Errors raised when validating an execution plan against its pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A unit has no leaves.
    EmptyUnit { round: usize },
    /// A leaf is not adjacent to its unit's pivot in the pattern.
    LeafNotAdjacentToPivot { round: usize, leaf: PatternVertex },
    /// A leaf vertex already appeared in an earlier unit.
    LeafReused { round: usize, leaf: PatternVertex },
    /// The pivot of a non-initial unit is not covered by the previous
    /// sub-pattern (violates Definition 7).
    PivotNotCovered { round: usize, pivot: PatternVertex },
    /// The plan does not cover every pattern vertex.
    VerticesMissing { missing: Vec<PatternVertex> },
    /// A vertex id is out of range for the pattern.
    UnknownVertex { vertex: PatternVertex },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyUnit { round } => write!(f, "unit {round} has no leaves"),
            PlanError::LeafNotAdjacentToPivot { round, leaf } => {
                write!(f, "leaf {leaf} of unit {round} is not adjacent to the pivot")
            }
            PlanError::LeafReused { round, leaf } => {
                write!(f, "leaf {leaf} of unit {round} already appeared in an earlier unit")
            }
            PlanError::PivotNotCovered { round, pivot } => {
                write!(f, "pivot {pivot} of unit {round} is not in the previous sub-pattern")
            }
            PlanError::VerticesMissing { missing } => {
                write!(f, "plan does not cover pattern vertices {missing:?}")
            }
            PlanError::UnknownVertex { vertex } => write!(f, "vertex {vertex} is out of range"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A validated execution plan (Definition 7) with all derived data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    pattern: Pattern,
    units: Vec<DecompositionUnit>,
    /// `edge_class[k]` classifies `pattern.edges()[k]`.
    edge_classes: Vec<(PatternVertex, PatternVertex, EdgeClass)>,
    /// The matching order of Definition 10.
    matching_order: Vec<PatternVertex>,
    /// `covered_after[i]` = vertices of the sub-pattern `P_i`, sorted.
    covered_after: Vec<Vec<PatternVertex>>,
}

impl ExecutionPlan {
    /// Validates and builds a plan from its units.
    pub fn new(pattern: Pattern, units: Vec<DecompositionUnit>) -> Result<Self, PlanError> {
        let n = pattern.vertex_count();
        // --- validation -----------------------------------------------------
        let mut covered: Vec<bool> = vec![false; n];
        let mut leaf_used: Vec<bool> = vec![false; n];
        let mut covered_after: Vec<Vec<PatternVertex>> = Vec::with_capacity(units.len());
        for (round, unit) in units.iter().enumerate() {
            if unit.pivot >= n {
                return Err(PlanError::UnknownVertex { vertex: unit.pivot });
            }
            if unit.leaves.is_empty() {
                return Err(PlanError::EmptyUnit { round });
            }
            if round == 0 {
                covered[unit.pivot] = true;
            } else if !covered[unit.pivot] {
                return Err(PlanError::PivotNotCovered { round, pivot: unit.pivot });
            }
            for &leaf in &unit.leaves {
                if leaf >= n {
                    return Err(PlanError::UnknownVertex { vertex: leaf });
                }
                if !pattern.has_edge(unit.pivot, leaf) {
                    return Err(PlanError::LeafNotAdjacentToPivot { round, leaf });
                }
                if covered[leaf] || leaf_used[leaf] {
                    return Err(PlanError::LeafReused { round, leaf });
                }
            }
            for &leaf in &unit.leaves {
                covered[leaf] = true;
                leaf_used[leaf] = true;
            }
            covered_after.push(
                covered
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c)
                    .map(|(v, _)| v)
                    .collect(),
            );
        }
        let missing: Vec<PatternVertex> = covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(v, _)| v)
            .collect();
        if !missing.is_empty() {
            return Err(PlanError::VerticesMissing { missing });
        }

        // --- edge classification --------------------------------------------
        // leaf_round[v] = the round in which v appears as a leaf;
        // dp0.piv is treated as appearing "before round 0".
        let mut leaf_round: Vec<usize> = vec![usize::MAX; n];
        for (round, unit) in units.iter().enumerate() {
            for &leaf in &unit.leaves {
                leaf_round[leaf] = round;
            }
        }
        let root = units[0].pivot;
        // `appear(v)`: the root appears before round 0 (-1), every other
        // vertex appears in the round where it is a leaf.
        let appear = |v: PatternVertex| -> i64 {
            if v == root {
                -1
            } else {
                leaf_round[v] as i64
            }
        };
        let mut edge_classes = Vec::with_capacity(pattern.edge_count());
        for (a, b) in pattern.edges() {
            // the edge is handled in the round where its later endpoint appears
            let round = appear(a).max(appear(b)) as usize;
            let unit = &units[round];
            let a_leaf = unit.leaves.contains(&a);
            let b_leaf = unit.leaves.contains(&b);
            let class = if (a == unit.pivot && b_leaf) || (b == unit.pivot && a_leaf) {
                EdgeClass::Expansion { round }
            } else if a_leaf && b_leaf {
                EdgeClass::Sibling { round }
            } else {
                EdgeClass::CrossUnit { round }
            };
            edge_classes.push((a, b, class));
        }

        // --- matching order (Definition 10) ----------------------------------
        // pivot_of_unit[v] = Some(i) if v is the pivot of unit i
        let mut pivot_unit: Vec<Option<usize>> = vec![None; n];
        for (i, unit) in units.iter().enumerate() {
            // the paper notes no two units share the same pivot in minimum
            // plans; if they do (random plans), keep the first.
            if pivot_unit[unit.pivot].is_none() {
                pivot_unit[unit.pivot] = Some(i);
            }
        }
        let mut matching_order = Vec::with_capacity(n);
        matching_order.push(root);
        for unit in &units {
            let mut leaves = unit.leaves.clone();
            leaves.sort_by(|&a, &b| {
                let key = |v: PatternVertex| {
                    match pivot_unit[v] {
                        // pivot leaves first, ordered by the unit they pivot
                        Some(i) => (0usize, i, 0usize, v),
                        // then non-pivot leaves by descending degree, then id
                        None => (1usize, 0, usize::MAX - pattern.degree(v), v),
                    }
                };
                key(a).cmp(&key(b))
            });
            for leaf in leaves {
                if !matching_order.contains(&leaf) {
                    matching_order.push(leaf);
                }
            }
        }

        Ok(ExecutionPlan { pattern, units, edge_classes, matching_order, covered_after })
    }

    /// The pattern this plan decomposes.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The decomposition units in processing order.
    pub fn units(&self) -> &[DecompositionUnit] {
        &self.units
    }

    /// Number of rounds (= number of units).
    pub fn rounds(&self) -> usize {
        self.units.len()
    }

    /// The starting query vertex `dp0.piv` (`u_start` in Section 3.1).
    pub fn start_vertex(&self) -> PatternVertex {
        self.units[0].pivot
    }

    /// The matching order of Definition 10 (a permutation of the query
    /// vertices; the vertices of `P_i` form a prefix).
    pub fn matching_order(&self) -> &[PatternVertex] {
        &self.matching_order
    }

    /// The vertices of the sub-pattern `P_i` (sorted).
    pub fn sub_pattern_vertices(&self, round: usize) -> &[PatternVertex] {
        &self.covered_after[round]
    }

    /// Every pattern edge with its classification.
    pub fn edge_classes(&self) -> &[(PatternVertex, PatternVertex, EdgeClass)] {
        &self.edge_classes
    }

    /// Expansion edges of `round` (pivot → leaf).
    pub fn expansion_edges(&self, round: usize) -> Vec<(PatternVertex, PatternVertex)> {
        self.edges_of_class(round, |c| matches!(c, EdgeClass::Expansion { .. }))
    }

    /// Sibling edges of `round` (leaf ↔ leaf in the same unit).
    pub fn sibling_edges(&self, round: usize) -> Vec<(PatternVertex, PatternVertex)> {
        self.edges_of_class(round, |c| matches!(c, EdgeClass::Sibling { .. }))
    }

    /// Cross-unit edges of `round` (earlier vertex ↔ leaf).
    pub fn cross_edges(&self, round: usize) -> Vec<(PatternVertex, PatternVertex)> {
        self.edges_of_class(round, |c| matches!(c, EdgeClass::CrossUnit { .. }))
    }

    /// Verification edges of `round` (sibling ∪ cross-unit).
    pub fn verification_edges(&self, round: usize) -> Vec<(PatternVertex, PatternVertex)> {
        self.edges_of_class(round, |c| c.is_verification())
    }

    fn edges_of_class<F: Fn(&EdgeClass) -> bool>(
        &self,
        round: usize,
        pred: F,
    ) -> Vec<(PatternVertex, PatternVertex)> {
        self.edge_classes
            .iter()
            .filter(|(_, _, c)| c.round() == round && pred(c))
            .map(|&(a, b, _)| (a, b))
            .collect()
    }

    /// The scoring function of Section 4.3 (equation 4): verification edges
    /// weighted by `1 / (round + 1)^rho` plus the pivot-degree component.
    pub fn score(&self, rho: f64) -> f64 {
        self.units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let verif = self.verification_edges(i).len() as f64;
                let weight = 1.0 / ((i + 1) as f64).powf(rho);
                let degree_component = self.pattern.degree(unit.pivot) as f64 / (i + 1) as f64;
                verif * weight + degree_component
            })
            .sum()
    }

    /// The verification-edge-only score of equation 3 (used by tests that
    /// reproduce Example 5).
    pub fn verification_score(&self, rho: f64) -> f64 {
        self.units
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let verif = self.verification_edges(i).len() as f64;
                verif / ((i + 1) as f64).powf(rho)
            })
            .sum()
    }

    /// The span of the start vertex in the pattern (heuristic 2, Section 4.2).
    pub fn start_span(&self) -> usize {
        self.pattern.span(self.start_vertex())
    }

    /// Query vertices of `P_i` in matching order (a prefix of the full
    /// matching order).
    pub fn matched_prefix(&self, round: usize) -> &[PatternVertex] {
        let len = self.covered_after[round].len();
        &self.matching_order[..len]
    }
}

/// One line: the start vertex, each unit as `pivot>[leaves]`, and the
/// matching order — e.g. `start 0; units 0>[1, 2, 7, 8, 9], 1>[3, 4],
/// 2>[5, 6]; order [0, 1, 2, 8, 9, 7, 4, 3, 5, 6]`.
impl std::fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "start {}; units ", self.start_vertex())?;
        for (round, unit) in self.units.iter().enumerate() {
            let separator = if round == 0 { "" } else { ", " };
            write!(f, "{separator}{}>{:?}", unit.pivot, unit.leaves)?;
        }
        write!(f, "; order {:?}", self.matching_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rads_graph::queries;

    /// The Example 3 plan for the running example pattern.
    fn example3_plan() -> ExecutionPlan {
        let p = queries::running_example_pattern();
        ExecutionPlan::new(
            p,
            vec![
                DecompositionUnit::new(0, vec![1, 2, 7]),
                DecompositionUnit::new(1, vec![3, 4]),
                DecompositionUnit::new(2, vec![5, 6]),
                DecompositionUnit::new(0, vec![8, 9]),
            ],
        )
        .expect("example 3 is a valid execution plan")
    }

    /// The Example 4 minimum-round plan PL1.
    fn example4_pl1() -> ExecutionPlan {
        let p = queries::running_example_pattern();
        ExecutionPlan::new(
            p,
            vec![
                DecompositionUnit::new(0, vec![1, 2, 7, 8, 9]),
                DecompositionUnit::new(1, vec![3, 4]),
                DecompositionUnit::new(2, vec![5, 6]),
            ],
        )
        .expect("example 4 PL1 is valid")
    }

    /// The Example 4 plan PL2 rooted at u1.
    fn example4_pl2() -> ExecutionPlan {
        let p = queries::running_example_pattern();
        ExecutionPlan::new(
            p,
            vec![
                DecompositionUnit::new(1, vec![0, 3, 4]),
                DecompositionUnit::new(0, vec![2, 7, 8, 9]),
                DecompositionUnit::new(2, vec![5, 6]),
            ],
        )
        .expect("example 4 PL2 is valid")
    }

    #[test]
    fn example3_classification_matches_paper() {
        let plan = example3_plan();
        assert_eq!(plan.rounds(), 4);
        assert_eq!(plan.start_vertex(), 0);
        // Section 3.2: E_sib(dp0) = {(u1, u2)}, E_cro(dp0) = {}
        assert_eq!(plan.sibling_edges(0), vec![(1, 2)]);
        assert!(plan.cross_edges(0).is_empty());
        // E_sib(dp2) = {(u5, u6)}, E_cro(dp2) = {(u4, u5)}
        assert_eq!(plan.sibling_edges(2), vec![(5, 6)]);
        assert_eq!(plan.cross_edges(2), vec![(4, 5)]);
        // dp1: sibling (u3, u4), no cross edges
        assert_eq!(plan.sibling_edges(1), vec![(3, 4)]);
        assert!(plan.cross_edges(1).is_empty());
        // dp3: sibling (u8, u9)
        assert_eq!(plan.sibling_edges(3), vec![(8, 9)]);
    }

    #[test]
    fn every_edge_classified_exactly_once() {
        for plan in [example3_plan(), example4_pl1(), example4_pl2()] {
            let p = plan.pattern().clone();
            assert_eq!(plan.edge_classes().len(), p.edge_count());
            // expansion edges over all rounds form a spanning tree when the
            // plan has distinct pivots (Example 4 plans)
            let expansion_total: usize =
                (0..plan.rounds()).map(|i| plan.expansion_edges(i).len()).sum();
            let verification_total: usize =
                (0..plan.rounds()).map(|i| plan.verification_edges(i).len()).sum();
            assert_eq!(expansion_total + verification_total, p.edge_count());
        }
    }

    #[test]
    fn example4_scores_match_example5() {
        // Example 5: verification edges per round are 2,1,2 for PL1 and 1,2,2
        // for PL2; with rho = 1 the scores are ~3.2 and ~2.7.
        let pl1 = example4_pl1();
        let pl2 = example4_pl2();
        let counts1: Vec<usize> = (0..3).map(|i| pl1.verification_edges(i).len()).collect();
        let counts2: Vec<usize> = (0..3).map(|i| pl2.verification_edges(i).len()).collect();
        assert_eq!(counts1, vec![2, 1, 2]);
        assert_eq!(counts2, vec![1, 2, 2]);
        let s1 = pl1.verification_score(1.0);
        let s2 = pl2.verification_score(1.0);
        assert!((s1 - (2.0 / 1.0 + 1.0 / 2.0 + 2.0 / 3.0)).abs() < 1e-9);
        assert!((s2 - (1.0 / 1.0 + 2.0 / 2.0 + 2.0 / 3.0)).abs() < 1e-9);
        assert!(s1 > s2, "PL1 must be preferred");
    }

    #[test]
    fn matching_order_prefix_property() {
        for plan in [example3_plan(), example4_pl1(), example4_pl2()] {
            let order = plan.matching_order().to_vec();
            assert_eq!(order.len(), plan.pattern().vertex_count());
            // every sub-pattern P_i is a prefix of the order
            for round in 0..plan.rounds() {
                let covered: std::collections::HashSet<_> =
                    plan.sub_pattern_vertices(round).iter().copied().collect();
                let prefix = plan.matched_prefix(round);
                assert_eq!(prefix.len(), covered.len());
                for v in prefix {
                    assert!(covered.contains(v));
                }
            }
        }
    }

    #[test]
    fn matching_order_of_example4_pl1_matches_paper() {
        // Section 5: "the vertices in the query can be arranged as
        // (u0, u1, u2, u7, u8, u9, u3, u4, u5, u6)".
        // u7, u8, u9 all have degree 1 (u7) / 2 (u8, u9); the paper's listing
        // puts u7 before u8, u9. Degrees: deg(u7)=1, deg(u8)=deg(u9)=2, so a
        // strict by-degree order would put u8, u9 before u7; the paper orders
        // by appearance in its figure. We assert the structural properties
        // instead: pivots u1, u2 come right after u0 and before the non-pivot
        // leaves, and unit-1/unit-2 leaves come last.
        let plan = example4_pl1();
        let order = plan.matching_order();
        assert_eq!(order[0], 0);
        assert_eq!(&order[1..3], &[1, 2]);
        let tail: std::collections::HashSet<_> = order[6..].iter().copied().collect();
        assert_eq!(tail, [3, 4, 5, 6].into_iter().collect());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let p = queries::running_example_pattern();
        // pivot of later unit not covered
        let err = ExecutionPlan::new(
            p.clone(),
            vec![
                DecompositionUnit::new(0, vec![1, 2]),
                DecompositionUnit::new(5, vec![6]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::PivotNotCovered { round: 1, pivot: 5 }));
        // leaf reused
        let err = ExecutionPlan::new(
            p.clone(),
            vec![
                DecompositionUnit::new(0, vec![1, 2]),
                DecompositionUnit::new(1, vec![2, 3]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::LeafReused { round: 1, leaf: 2 }));
        // leaf not adjacent to pivot
        let err = ExecutionPlan::new(
            p.clone(),
            vec![DecompositionUnit::new(0, vec![3])],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::LeafNotAdjacentToPivot { round: 0, leaf: 3 }));
        // not all vertices covered
        let err = ExecutionPlan::new(
            p.clone(),
            vec![DecompositionUnit::new(0, vec![1, 2])],
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::VerticesMissing { .. }));
        // empty unit
        let err = ExecutionPlan::new(p, vec![DecompositionUnit::new(0, vec![])]).unwrap_err();
        assert!(matches!(err, PlanError::EmptyUnit { round: 0 }));
    }

    #[test]
    fn start_span_uses_pattern_span() {
        let plan = example4_pl1();
        assert_eq!(plan.start_span(), plan.pattern().span(0));
    }

    #[test]
    fn a_plan_prints_its_start_units_and_order() {
        assert_eq!(
            example4_pl1().to_string(),
            "start 0; units 0>[1, 2, 7, 8, 9], 1>[3, 4], 2>[5, 6]; \
             order [0, 1, 2, 8, 9, 7, 4, 3, 5, 6]"
        );
    }

    #[test]
    fn triangle_single_unit_plan() {
        let p = rads_graph::queries::query_by_name("triangle").unwrap();
        let plan = ExecutionPlan::new(p, vec![DecompositionUnit::new(0, vec![1, 2])]).unwrap();
        assert_eq!(plan.rounds(), 1);
        assert_eq!(plan.expansion_edges(0).len(), 2);
        assert_eq!(plan.sibling_edges(0), vec![(1, 2)]);
        assert_eq!(plan.matching_order(), &[0, 1, 2]);
    }
}
