//! Robust (outlier-tolerant) center selection — the paper's declared
//! future work ("the extension of our algorithms to the robust variant of
//! fair center, tolerating a fixed number of outliers").
//!
//! Two solvers:
//!
//! * [`robust_kcenter`] — unconstrained k-center with `z` outliers, the
//!   classical greedy of Charikar–Khuller–Mount–Narasimhan (SODA 2001):
//!   for a radius guess `r`, repeatedly pick the point whose `r`-ball
//!   covers the most uncovered points and mark its expanded `3r`-ball
//!   covered; after `k` picks, `r` is feasible iff at most `z` points
//!   remain. The CKMN lemma guarantees feasibility for **every**
//!   `r ≥ OPT_z`, so binary search over the pairwise distances never
//!   overshoots the first candidate above `OPT_z` and the result is a
//!   3-approximation of the optimal radius excluding the `z` worst
//!   points.
//! * [`RobustFair`] — fair center with `z` outliers, structured like the
//!   Jones algorithm so that each search stage is *monotone* (a naive
//!   joint radius search is not — the color matching can fail on a band
//!   of mid-range radii while succeeding below and above it):
//!   1. heads and outliers come from `robust_kcenter` (sound by CKMN);
//!   2. a threshold sweep finds the smallest threshold `τ` such that
//!      heads admit a perfect capacitated color matching using *inlier*
//!      witnesses within `τ` of each head — the adjacency grows with
//!      `τ`, so perfect-matching feasibility is monotone, and the
//!      [`ThresholdMatcher`] adds the heads one augmenting path at a
//!      time;
//!   3. each head is replaced by its matched witness. Inliers covered
//!      within `3r` of a head are then within `3r + τ` of a center.
//!
//! If even `τ = ∞` admits no perfect matching (a color class is absent
//! among the inliers), unmatched heads are dropped: the answer stays
//! fair and feasible, with coverage degrading gracefully. Fairness is
//! exact and at most `z` points are excluded; the radius guarantee is
//! bicriteria in the spirit of Amagata (AISTATS 2024); the
//! exact-constant LP machinery is out of scope.

use crate::{validate, FairCenterSolver, FairSolution, Instance, SolveError};
use fairsw_matching::{max_capacitated_matching, CapacitatedMatching, ThresholdMatcher};
use fairsw_metric::{Colored, CoresetView, Metric};

/// Result of a robust (outlier-tolerant) clustering call.
#[derive(Clone, Debug)]
pub struct RobustSolution<P> {
    /// The selected centers.
    pub centers: Vec<Colored<P>>,
    /// The covering radius over the *inliers* (all points except the
    /// `outliers` listed below).
    pub radius: f64,
    /// Indices (into the instance's points) the solution declares
    /// outliers; at most the requested `z`.
    pub outliers: Vec<usize>,
}

/// For a radius guess `r`: greedy max-coverage disk selection over a
/// staged view. Returns (head indices, uncovered indices) where heads
/// are chosen by `r`-ball coverage counts and coverage expands to `3r`
/// balls. Selection is identical to the pointwise scan; per round each
/// candidate's coverage count is evaluated either as one kernel row or
/// — once most points are covered — as scalar distances to just the
/// uncovered set (the batched analog of the old `!covered` short
/// circuit). `dbuf` is caller-owned working space (one slot per point).
fn greedy_disks<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    k: usize,
    r: f64,
    dbuf: &mut Vec<f64>,
) -> (Vec<usize>, Vec<usize>) {
    let n = view.len();
    let mut covered = vec![false; n];
    let mut heads = Vec::with_capacity(k);
    let mut uncovered: Vec<usize> = (0..n).collect();
    dbuf.clear();
    dbuf.resize(n, 0.0);
    for _ in 0..k {
        // Pick the point whose r-ball covers the most uncovered points.
        // A full kernel row per candidate only pays while a decent
        // fraction of points is still uncovered; past that, scalar
        // distances to the uncovered set cost strictly less.
        let dense = uncovered.len() * 4 >= n;
        let mut best = (usize::MAX, 0usize);
        for i in 0..n {
            let cnt = if dense {
                metric.dist_one_to_many(view.point(i), view, dbuf);
                uncovered.iter().filter(|&&j| dbuf[j] <= r).count()
            } else {
                let p = view.point(i);
                uncovered
                    .iter()
                    .filter(|&&j| metric.dist(p, view.point(j)) <= r)
                    .count()
            };
            if best.0 == usize::MAX || cnt > best.1 {
                best = (i, cnt);
            }
        }
        let (head, gain) = best;
        if gain == 0 {
            break; // every remaining point is isolated beyond r
        }
        heads.push(head);
        // Expanded ball: mark everything within 3r of the head covered.
        metric.dist_one_to_many(view.point(head), view, dbuf);
        uncovered.retain(|&j| {
            let keep = dbuf[j] > 3.0 * r;
            if !keep {
                covered[j] = true;
            }
            keep
        });
    }
    (heads, uncovered)
}

/// Unconstrained k-center with `z` outliers (Charikar et al. greedy,
/// 3-approximation). Returns the chosen center indices, the radius over
/// the inliers, and the declared outliers.
///
/// # Panics
/// Panics on an empty input (callers check emptiness; for the library
/// entry point use [`RobustFair`] which returns a `SolveError`).
pub fn robust_kcenter<M: Metric>(
    metric: &M,
    points: &[Colored<M::Point>],
    k: usize,
    z: usize,
) -> RobustSolution<M::Point> {
    assert!(!points.is_empty(), "robust_kcenter on empty input");
    let mut view = CoresetView::new();
    view.gather_colored(metric, points.iter());
    let (heads, outliers, _) = robust_heads(metric, &view, k, z);
    let centers: Vec<Colored<M::Point>> = heads.iter().map(|&i| points[i].clone()).collect();
    let radius = inlier_radius(metric, &view, &centers, &outliers);
    RobustSolution {
        centers,
        radius,
        outliers,
    }
}

/// The shared head-selection stage over a staged view: binary search the
/// smallest feasible radius, returning (heads, outliers, radius).
fn robust_heads<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    k: usize,
    z: usize,
) -> (Vec<usize>, Vec<usize>, f64) {
    let n = view.len();
    let mut cands = vec![0.0f64];
    let mut dbuf = vec![0.0f64; n];
    for i in 0..n {
        metric.dist_one_to_many(view.point(i), view, &mut dbuf);
        cands.extend_from_slice(&dbuf[(i + 1)..]);
    }
    cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cands.dedup();

    // The probe buffer is shared across every feasibility test.
    let mut feasible = |r: f64| -> Option<(Vec<usize>, Vec<usize>)> {
        let (heads, uncovered) = greedy_disks(metric, view, k, r, &mut dbuf);
        (uncovered.len() <= z).then_some((heads, uncovered))
    };

    let (mut lo, mut hi) = (0usize, cands.len() - 1);
    debug_assert!(feasible(cands[hi]).is_some(), "r = dmax must be feasible");
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(cands[mid]).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (heads, outliers) = feasible(cands[lo]).expect("lo feasible");
    (heads, outliers, cands[lo])
}

/// Covering radius over the staged points not listed in `outliers`: one
/// kernel call per center merged into running minima, then a maximum
/// over the inlier rows.
fn inlier_radius<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    centers: &[Colored<M::Point>],
    outliers: &[usize],
) -> f64 {
    let out: std::collections::HashSet<usize> = outliers.iter().copied().collect();
    let (mut dbuf, mut mind) = (Vec::new(), Vec::new());
    crate::min_over_centers(
        metric,
        view,
        centers.iter().map(|c| &c.point),
        &mut dbuf,
        &mut mind,
    );
    let mut r: f64 = 0.0;
    for (i, &d) in mind.iter().enumerate() {
        if out.contains(&i) {
            continue;
        }
        if d > r {
            r = d;
        }
    }
    r
}

/// Stage 2's color matching of the heads, whose per-color witness
/// distances are the rows of `mind` (`caps.len()` per head). It is
/// taken at the smallest threshold `τ` at which every head is matched
/// or, when no threshold matches them all (a color class is absent
/// among the inliers), at the largest finite distance, leaving some
/// heads unmatched.
///
/// The threshold matcher finds `τ` with one augmenting path per head
/// and per raise of `τ`; the matching returned is a fresh one at `τ`, so
/// which witness each head gets does not depend on the order in which
/// the matcher grew its own.
fn head_matching(caps: &[usize], mind: &[f64]) -> CapacitatedMatching {
    let ncolors = caps.len();
    let mut matcher = ThresholdMatcher::new(caps);
    let perfect = mind.chunks(ncolors).all(|row| matcher.push(row).is_some());
    let tau = match matcher.tau() {
        Some(tau) if perfect => tau,
        _ => mind
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .reduce(f64::max)
            .unwrap_or(0.0),
    };
    let adj: Vec<Vec<usize>> = mind
        .chunks(ncolors)
        .map(|row| (0..ncolors).filter(|&c| row[c] <= tau).collect())
        .collect();
    max_capacitated_matching(caps, &adj)
}

/// Fair center with `z` outliers (robust heads + monotone color-matching
/// threshold search).
#[derive(Clone, Copy, Debug)]
pub struct RobustFair {
    /// Number of tolerated outliers.
    pub z: usize,
}

impl RobustFair {
    /// Creates a solver tolerating `z` outliers.
    pub fn new(z: usize) -> Self {
        RobustFair { z }
    }

    /// [`solve_robust`](Self::solve_robust) over colored arena handles —
    /// the sliding-window `Query` entry point. Payloads are resolved out
    /// of the point store once, here; the returned outlier indices still
    /// index into `ids`.
    pub fn solve_robust_ids<M: Metric>(
        &self,
        metric: &M,
        res: fairsw_metric::Resolver<'_, M::Point>,
        ids: &[fairsw_metric::ColoredId],
        caps: &[usize],
    ) -> Result<RobustSolution<M::Point>, SolveError> {
        let points: Vec<Colored<M::Point>> = ids
            .iter()
            .map(|c| Colored::new(res.get(c.point).clone(), c.color))
            .collect();
        self.solve_robust(&Instance::new(metric, &points, caps))
    }

    /// Solves the robust fair instance, reporting centers, inlier radius
    /// and the declared outliers.
    pub fn solve_robust<M: Metric>(
        &self,
        inst: &Instance<'_, M>,
    ) -> Result<RobustSolution<M::Point>, SolveError> {
        validate(inst)?;
        let k = inst.k();
        let ncolors = inst.num_colors();
        // Stage the instance once; head selection, witness tables and
        // the inlier radius all run batched kernels over this view.
        let mut view = CoresetView::new();
        view.gather_colored(inst.metric, inst.points.iter());

        // Stage 1: robust heads + outliers (CKMN, sound binary search).
        let (heads, outliers, _r) = robust_heads(inst.metric, &view, k, self.z);
        if heads.is_empty() {
            // Degenerate: k = 0 or everything isolated; one center
            // (first point) is the best fair answer available here.
            return Ok(RobustSolution {
                centers: vec![inst.points[0].clone()],
                radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                outliers: Vec::new(),
            });
        }
        let out_set: std::collections::HashSet<usize> = outliers.iter().copied().collect();

        // Stage 2: nearest *inlier* witness of each color per head —
        // one kernel call per head, outliers skipped in the merge, with
        // the scalar scan's ascending-index tie-break per (head, color).
        // mind[h * ncolors + c] is that distance (+∞ when none) and
        // witness[..] the point's index, flattened row-major.
        let mut mind = vec![f64::INFINITY; heads.len() * ncolors];
        let mut witness = vec![usize::MAX; heads.len() * ncolors];
        let mut dbuf = vec![0.0f64; view.len()];
        for (hi, &h) in heads.iter().enumerate() {
            inst.metric
                .dist_one_to_many(view.point(h), &view, &mut dbuf);
            for (qi, q) in inst.points.iter().enumerate() {
                if out_set.contains(&qi) {
                    continue;
                }
                let d = dbuf[qi];
                let slot = hi * ncolors + q.color as usize;
                if d < mind[slot] {
                    mind[slot] = d;
                    witness[slot] = qi;
                }
            }
        }

        // Stage 3: replace heads by witnesses; drop unmatched heads when
        // no perfect matching exists at any threshold.
        let matching = head_matching(inst.caps, &mind);
        let mut seen = std::collections::HashSet::new();
        let centers: Vec<Colored<M::Point>> = matching
            .assigned
            .iter()
            .enumerate()
            .filter_map(|(h, a)| a.map(|c| witness[h * ncolors + c]))
            .filter(|&w| w != usize::MAX && seen.insert(w))
            .map(|w| inst.points[w].clone())
            .collect();
        if centers.is_empty() {
            // All inlier colors missing (everything is an outlier?):
            // return the first point, declaring no outliers.
            return Ok(RobustSolution {
                centers: vec![inst.points[0].clone()],
                radius: inst.radius_of(std::slice::from_ref(&inst.points[0])),
                outliers: Vec::new(),
            });
        }
        let radius = inlier_radius(inst.metric, &view, &centers, &outliers);
        Ok(RobustSolution {
            centers,
            radius,
            outliers,
        })
    }
}

impl<M: Metric> FairCenterSolver<M> for RobustFair {
    fn name(&self) -> &'static str {
        "RobustFair"
    }

    /// Solves and reports the *inlier* radius (the `FairSolution` shape
    /// has no outlier slot; use [`RobustFair::solve_robust`] for them).
    fn solve(&self, inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
        let sol = self.solve_robust(inst)?;
        Ok(FairSolution {
            centers: sol.centers,
            radius: sol.radius,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pts1d;
    use fairsw_metric::Euclidean;
    use proptest::prelude::*;

    /// The stage-2 matching as it was computed before the threshold
    /// matcher: a binary search over the sorted finite distances with a
    /// fresh adjacency and matching per probe.
    fn binary_search_head_matching(caps: &[usize], mind: &[f64]) -> CapacitatedMatching {
        let ncolors = caps.len();
        let mut taus: Vec<f64> = mind.iter().copied().filter(|d| d.is_finite()).collect();
        taus.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        taus.dedup();
        let matching_at = |tau: f64| {
            let adj: Vec<Vec<usize>> = mind
                .chunks(ncolors)
                .map(|row| (0..ncolors).filter(|&c| row[c] <= tau).collect())
                .collect();
            max_capacitated_matching(caps, &adj)
        };
        let assignment = if taus.is_empty() {
            None
        } else if matching_at(*taus.last().expect("non-empty")).is_left_perfect() {
            let (mut lo, mut hi) = (0usize, taus.len() - 1);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if matching_at(taus[mid]).is_left_perfect() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            Some(matching_at(taus[lo]))
        } else {
            None
        };
        assignment.unwrap_or_else(|| matching_at(taus.last().copied().unwrap_or(0.0)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn head_matching_equals_the_binary_search(
            caps in proptest::collection::vec(1usize..4, 1..6),
            rows in proptest::collection::vec(
                proptest::collection::vec((0u8..9, 0.0..10.0f64), 5), 1..12),
        ) {
            // Distances from a small grid (ties), uniform values, and the
            // `+∞` of a color with no inlier point; NaN from non-finite
            // coordinates.
            let nc = caps.len();
            let mind: Vec<f64> = rows
                .iter()
                .flat_map(|row| row[..nc].iter().map(|&(sel, x)| match sel {
                    0..=3 => f64::from(sel),
                    4..=5 => x,
                    6..=7 => f64::INFINITY,
                    _ => f64::NAN,
                }))
                .collect();
            prop_assert_eq!(
                head_matching(&caps, &mind),
                binary_search_head_matching(&caps, &mind),
                "caps {:?}, mind {:?}", caps, mind
            );
        }
    }

    #[test]
    fn robust_kcenter_ignores_planted_outliers() {
        // Two tight clusters plus 2 far outliers. k=2, z=2: the radius
        // must reflect the clusters (1.0), not the outliers.
        let pts = pts1d(&[
            (0.0, 0),
            (1.0, 0),
            (100.0, 0),
            (101.0, 0),
            (1e6, 0),
            (-1e6, 0),
        ]);
        let sol = robust_kcenter(&Euclidean, &pts, 2, 2);
        assert!(sol.radius <= 3.0, "radius {}", sol.radius);
        assert!(sol.outliers.len() <= 2);
        // Without outlier tolerance the radius explodes.
        let strict = robust_kcenter(&Euclidean, &pts, 2, 0);
        assert!(strict.radius > 1e5);
    }

    #[test]
    fn robust_kcenter_zero_z_equals_plain_flavor() {
        let pts = pts1d(&[(0.0, 0), (10.0, 0), (20.0, 0)]);
        let sol = robust_kcenter(&Euclidean, &pts, 3, 0);
        assert_eq!(sol.radius, 0.0);
        assert!(sol.outliers.is_empty());
    }

    #[test]
    fn robust_fair_respects_budgets_and_drops_outliers() {
        // Clusters: color 0 at ~0, color 1 at ~100; outlier far away.
        let pts = pts1d(&[
            (0.0, 0),
            (0.5, 0),
            (1.0, 1),
            (100.0, 1),
            (100.5, 1),
            (101.0, 0),
            (5e5, 0),
        ]);
        let caps = [1usize, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(1).solve_robust(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers), "unfair robust solution");
        assert!(sol.outliers.len() <= 1);
        assert!(sol.radius <= 3.5, "radius {}", sol.radius);
    }

    #[test]
    fn robust_fair_survives_mid_band_matching_failures() {
        // The regression that motivated the two-stage design: two
        // single-color sites plus a far glitch cluster whose points
        // alternate colors. A joint radius search gets stuck above the
        // glitch spacing; the two-stage solver must return the site
        // geometry (radius ≈ site spread, not ≈ glitch spacing).
        let mut pts = Vec::new();
        for i in 0..40u64 {
            let c = (i % 2) as u32;
            let base = if c == 0 { 0.0 } else { 120.0 };
            pts.push(fairsw_metric::Colored::new(
                fairsw_metric::EuclidPoint::new(vec![base + (i as f64 * 0.618).fract() * 5.0, 0.0]),
                c,
            ));
        }
        for g in 0..9u64 {
            pts.push(fairsw_metric::Colored::new(
                fairsw_metric::EuclidPoint::new(vec![9e5 + 211.0 * g as f64, -7e5]),
                (g % 2) as u32,
            ));
        }
        let caps = [2usize, 2];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(12).solve_robust(&inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        assert!(
            sol.radius <= 20.0,
            "mid-band failure: radius {} should reflect the 5-wide sites",
            sol.radius
        );
    }

    #[test]
    fn robust_fair_zero_outliers_close_to_jones() {
        let pts = crate::testutil::scatter(80, 2, 3);
        let caps = [2usize, 1, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let robust = RobustFair::new(0).solve_robust(&inst).unwrap();
        let jones = crate::Jones.solve(&inst).unwrap();
        assert!(inst.is_fair(&robust.centers));
        // Both are constant-factor approximations of the same optimum.
        assert!(robust.radius <= 4.0 * jones.radius + 1e-9);
        assert!(jones.radius <= 4.0 * robust.radius + 1e-9);
    }

    #[test]
    fn robust_fair_via_trait() {
        let pts = pts1d(&[(0.0, 0), (1.0, 1), (2.0, 0), (1e4, 1)]);
        let caps = [1usize, 1];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol =
            <RobustFair as FairCenterSolver<Euclidean>>::solve(&RobustFair::new(1), &inst).unwrap();
        assert!(inst.is_fair(&sol.centers));
        assert!(sol.radius <= 2.0, "inlier radius {}", sol.radius);
    }

    #[test]
    fn missing_color_class_degrades_gracefully() {
        // Budgets for two colors but only color 0 exists: unmatched heads
        // are dropped; the result is fair and non-empty.
        let pts = pts1d(&[(0.0, 0), (50.0, 0), (100.0, 0)]);
        let caps = [1usize, 2];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let sol = RobustFair::new(0).solve_robust(&inst).unwrap();
        assert!(!sol.centers.is_empty());
        assert!(inst.is_fair(&sol.centers));
    }

    #[test]
    fn empty_instance_errors() {
        let pts = pts1d(&[]);
        let inst = Instance::new(&Euclidean, &pts, &[1]);
        assert!(RobustFair::new(1).solve_robust(&inst).is_err());
    }
}
