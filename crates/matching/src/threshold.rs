//! Incremental threshold (bottleneck) matching: the smallest threshold
//! `τ` at which a growing sequence of left nodes still admits a
//! left-perfect capacitated matching.
//!
//! Left node `u` carries one weight per color; at threshold `τ` it may
//! take color `c` iff `weight(u, c) ≤ τ`, and `τ` ranges over the finite
//! weights seen so far (NaN and `+∞` weights are never edges). Two
//! monotonicities make one augmenting path per node enough:
//!
//! * in `τ`: raising the threshold only adds edges, so a matching stays
//!   valid;
//! * in the prefix: a perfect matching of nodes `0..j` restricts to one
//!   of `0..j-1`, so the minimal threshold `τ(j)` is at least `τ(j-1)`.
//!
//! The matcher therefore keeps one matching, perfect on the nodes added
//! so far at the current `τ`. A new node joins by a single augmenting
//! path from it (by Berge's lemma one exists iff the larger prefix is
//! perfectly matchable, since the new node is the only unmatched left
//! node); when the search fails, `τ` is raised to the next candidate
//! weight and the search repeats. A failed search changes nothing, so
//! over a whole sequence the failed searches number at most the distinct
//! candidate weights, and no adjacency is ever rebuilt.

use crate::capacitated::augment;

/// A capacitated matching of a growing node sequence at its minimal
/// threshold. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ThresholdMatcher {
    caps: Vec<usize>,
    /// Row-major weights of the matched nodes, `caps.len()` per node.
    weights: Vec<f64>,
    assigned: Vec<Option<usize>>,
    occupants: Vec<Vec<usize>>,
    /// Per-search working space: colors explored by the current search.
    visited: Vec<bool>,
    /// Per-push working space: the candidate thresholds above the current one.
    cands: Vec<f64>,
    tau: Option<f64>,
}

impl ThresholdMatcher {
    /// An empty matcher over colors with capacities `caps`.
    pub fn new(caps: &[usize]) -> Self {
        ThresholdMatcher {
            caps: caps.to_vec(),
            weights: Vec::new(),
            assigned: Vec::new(),
            occupants: vec![Vec::new(); caps.len()],
            visited: vec![false; caps.len()],
            cands: Vec::new(),
            tau: None,
        }
    }

    /// The current threshold: the smallest candidate weight at which
    /// every node added so far is matched (`None` before the first).
    pub fn tau(&self) -> Option<f64> {
        self.tau
    }

    /// Adds a node with per-color weights `row` and returns the new
    /// threshold: the smallest finite weight `τ' ≥ τ` among all added
    /// nodes and this one at which the enlarged sequence is perfectly
    /// matchable. Returns `None`, and leaves the matcher exactly as it
    /// was, when no such weight exists — then no longer sequence can be
    /// matched either.
    ///
    /// # Panics
    /// Panics if `row` does not hold one weight per color.
    pub fn push(&mut self, row: &[f64]) -> Option<f64> {
        let ncolors = self.caps.len();
        assert_eq!(row.len(), ncolors, "one weight per color");
        let u = self.assigned.len();
        self.weights.extend_from_slice(row);
        self.assigned.push(None);

        // The new node has no edge below its smallest weight (`min`
        // skips NaN), so thresholds under it need no search.
        let floor = row.iter().copied().fold(f64::INFINITY, f64::min);
        if let Some(tau) = self.tau {
            if floor <= tau && self.augment_at(u, tau) {
                return Some(tau);
            }
        }
        let above = self.tau.unwrap_or(f64::NEG_INFINITY);
        self.cands.clear();
        self.cands.extend(
            self.weights
                .iter()
                .copied()
                .filter(|&w| w.is_finite() && w > above && w >= floor),
        );
        self.cands
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        self.cands.dedup();
        for i in 0..self.cands.len() {
            let tau = self.cands[i];
            if self.augment_at(u, tau) {
                self.tau = Some(tau);
                return Some(tau);
            }
        }
        // Every failed search left the matching untouched; drop the node.
        self.weights.truncate(u * ncolors);
        self.assigned.pop();
        None
    }

    /// One augmenting-path search from node `u` over the edges of weight
    /// at most `tau`.
    fn augment_at(&mut self, u: usize, tau: f64) -> bool {
        let ncolors = self.caps.len();
        let weights = &self.weights;
        let neighbors = |w: usize| (0..ncolors).filter(move |&c| weights[w * ncolors + c] <= tau);
        self.visited.fill(false);
        augment(
            u,
            &neighbors,
            &self.caps,
            &mut self.occupants,
            &mut self.assigned,
            &mut self.visited,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_capacitated_size;
    use crate::max_capacitated_matching;
    use proptest::prelude::*;

    /// Adjacency of the first `n` rows at threshold `tau`.
    fn adj_at(weights: &[Vec<f64>], n: usize, tau: f64) -> Vec<Vec<usize>> {
        weights[..n]
            .iter()
            .map(|row| (0..row.len()).filter(|&c| row[c] <= tau).collect())
            .collect()
    }

    /// The smallest finite weight of the first `n` rows at which
    /// `max_capacitated_matching` is left-perfect, by a linear scan.
    fn min_perfect_tau(caps: &[usize], weights: &[Vec<f64>], n: usize) -> Option<f64> {
        let mut cands: Vec<f64> = weights[..n]
            .iter()
            .flatten()
            .copied()
            .filter(|w| w.is_finite())
            .collect();
        cands.sort_by(|a, b| a.partial_cmp(b).unwrap());
        cands.dedup();
        cands
            .into_iter()
            .find(|&t| max_capacitated_matching(caps, &adj_at(weights, n, t)).is_left_perfect())
    }

    /// Weight values from a small grid (ties) plus NaN and `+∞`.
    fn weight() -> impl Strategy<Value = f64> {
        (0u8..8).prop_map(|v| match v {
            6 => f64::INFINITY,
            7 => f64::NAN,
            v => f64::from(v),
        })
    }

    #[test]
    fn threshold_rises_only_when_needed() {
        // Two colors of capacity 1: a third node can never join.
        let mut m = ThresholdMatcher::new(&[1, 1]);
        assert_eq!(m.push(&[1.0, 5.0]), Some(1.0));
        // Node 1 can use color 0 at 2.0 only by pushing node 0 to color 1
        // (weight 5.0), and color 1 directly at 3.0: the minimum is 3.0.
        assert_eq!(m.push(&[2.0, 3.0]), Some(3.0));
        assert_eq!(m.assigned, &[Some(0), Some(1)]);
        let before = m.clone();
        assert_eq!(m.push(&[0.0, 0.0]), None);
        assert_eq!(m.assigned, before.assigned);
        assert_eq!(m.tau(), before.tau());
        assert_eq!(m.assigned.len(), 2);
    }

    #[test]
    fn rows_without_finite_weight_never_join() {
        let mut m = ThresholdMatcher::new(&[2]);
        assert!(m.assigned.is_empty());
        assert_eq!(m.push(&[f64::NAN]), None);
        assert_eq!(m.push(&[f64::INFINITY]), None);
        assert!(m.assigned.is_empty());
        assert_eq!(m.tau(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn failed_augment_leaves_the_matching_unchanged(
            caps in proptest::collection::vec(1usize..3, 1..4),
            rows in proptest::collection::vec(
                proptest::collection::vec(weight(), 4), 1..9),
            probe in proptest::collection::vec(weight(), 4),
        ) {
            let nc = caps.len();
            let mut m = ThresholdMatcher::new(&caps);
            for row in &rows {
                let before = (m.assigned.clone(), m.tau(), m.occupants.clone());
                if m.push(&row[..nc]).is_none() {
                    prop_assert_eq!(
                        (m.assigned.clone(), m.tau(), m.occupants.clone()),
                        before
                    );
                }
            }
            // Single searches from an extra node at every threshold,
            // including ones below the current τ: each failure must leave
            // the held matching exactly as it was.
            let u = m.assigned.len();
            m.weights.extend_from_slice(&probe[..nc]);
            m.assigned.push(None);
            let mut taus: Vec<f64> = m.weights.iter().copied().filter(|w| w.is_finite()).collect();
            taus.sort_by(|a, b| a.partial_cmp(b).unwrap());
            taus.dedup();
            for tau in taus {
                let before = (m.assigned.clone(), m.occupants.clone());
                if !m.augment_at(u, tau) {
                    prop_assert_eq!((m.assigned.clone(), m.occupants.clone()), before);
                } else {
                    break;
                }
            }
        }

        #[test]
        fn incremental_tau_is_the_smallest_perfect_threshold(
            caps in proptest::collection::vec(0usize..3, 1..4),
            rows in proptest::collection::vec(
                proptest::collection::vec(weight(), 4), 1..8),
        ) {
            let nc = caps.len();
            let weights: Vec<Vec<f64>> = rows.iter().map(|r| r[..nc].to_vec()).collect();
            let mut m = ThresholdMatcher::new(&caps);
            for j in 1..=weights.len() {
                let want = min_perfect_tau(&caps, &weights, j);
                let got = m.push(&weights[j - 1]);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "prefix {}", j);
                if got.is_none() {
                    // No longer prefix is matchable either.
                    for longer in j + 1..=weights.len() {
                        prop_assert_eq!(min_perfect_tau(&caps, &weights, longer), None);
                    }
                    break;
                }
            }
        }

        #[test]
        fn matcher_sizes_agree_with_brute_force(
            caps in proptest::collection::vec(0usize..3, 1..4),
            rows in proptest::collection::vec(
                proptest::collection::vec(weight(), 4), 1..7),
        ) {
            let nc = caps.len();
            let weights: Vec<Vec<f64>> = rows.iter().map(|r| r[..nc].to_vec()).collect();
            let mut m = ThresholdMatcher::new(&caps);
            for row in &weights {
                let Some(tau) = m.push(row) else { break };
                let n = m.assigned.len();
                // Perfect at τ, and τ is minimal: every smaller weight of
                // the prefix leaves some node unmatched.
                prop_assert_eq!(brute_force_capacitated_size(&caps, &adj_at(&weights, n, tau)), n);
                for &t in weights[..n].iter().flatten().filter(|&&t| t < tau) {
                    prop_assert!(brute_force_capacitated_size(&caps, &adj_at(&weights, n, t)) < n);
                }
                // The held matching is valid at τ.
                let mut load = vec![0usize; nc];
                for (u, a) in m.assigned.iter().enumerate() {
                    let c = a.expect("every added node is matched");
                    prop_assert!(weights[u][c] <= tau);
                    load[c] += 1;
                }
                prop_assert!(load.iter().zip(&caps).all(|(l, c)| l <= c));
            }
        }
    }
}
