//! Gonzalez's greedy farthest-point algorithm for unconstrained k-center
//! (Gonzalez, TCS 1985) — a 2-approximation in `O(nk)` time.
//!
//! Besides being the classical baseline, the full *pivot sequence* with
//! its coverage radii is the backbone of the Jones fair-center algorithm
//! (prefixes of the sequence are candidate head sets) and of the paper's
//! `Query` validation step (a greedy 2γ-packing is a Gonzalez run with an
//! early exit).

use fairsw_metric::{CoresetView, Metric};

/// Output of a Gonzalez run.
#[derive(Clone, Debug)]
pub struct GonzalezResult {
    /// Indices of the selected pivots, in selection order.
    pub pivots: Vec<usize>,
    /// `coverage[j]` = the maximum distance of any point to the first
    /// `j+1` pivots, i.e. the clustering radius of the prefix
    /// `pivots[..=j]`. Non-increasing.
    pub coverage: Vec<f64>,
    /// For each point, the index (into `pivots`) of its closest pivot.
    pub assignment: Vec<usize>,
}

impl GonzalezResult {
    /// The clustering radius of the full pivot set.
    pub fn radius(&self) -> f64 {
        self.coverage.last().copied().unwrap_or(0.0)
    }
}

/// Runs Gonzalez's algorithm for `k` centers over `points`, starting from
/// index 0 (deterministic). Returns fewer than `k` pivots when the input
/// has fewer points.
///
/// Stages `points` into a [`CoresetView`] and delegates to
/// [`gonzalez_view`]; callers that already hold a staged view (Jones,
/// Kleindessner) should call that entry point directly and reuse the
/// view for their own kernel calls.
pub fn gonzalez<M: Metric>(metric: &M, points: &[M::Point], k: usize) -> GonzalezResult {
    let mut view = CoresetView::new();
    view.gather(metric, points.iter());
    gonzalez_view(metric, &view, k)
}

/// [`gonzalez`] over a pre-staged view. Each round evaluates the new
/// pivot's distances to every point with one
/// [`dist_one_to_many`](Metric::dist_one_to_many) kernel call and merges
/// them into the running minima — decision-identical to the classical
/// pointwise loop.
///
/// The greedy invariant: after selecting `j` pivots the next pivot is the
/// point farthest from the current pivot set, so pivots are pairwise at
/// least `coverage[j-1]` apart, giving the classical 2-approximation.
pub fn gonzalez_view<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    k: usize,
) -> GonzalezResult {
    gonzalez_view_rows(metric, view, k, |_| {})
}

/// [`gonzalez_view`] that also hands each round's kernel row to
/// `on_row(row)`, where `row[i]` is the distance from that round's pivot
/// to point `i`. Callers that need per-pivot distances (Jones's
/// nearest-witness table) read them here instead of repeating the
/// kernel pass.
pub(crate) fn gonzalez_view_rows<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    k: usize,
    mut on_row: impl FnMut(&[f64]),
) -> GonzalezResult {
    if view.is_empty() || k == 0 {
        return GonzalezResult {
            pivots: Vec::new(),
            coverage: Vec::new(),
            assignment: Vec::new(),
        };
    }

    let n = view.len();
    let kk = k.min(n);
    let mut pivots = Vec::with_capacity(kk);
    let mut coverage = Vec::with_capacity(kk);
    // dist[i] = distance of point i to the closest selected pivot.
    let mut dist = vec![f64::INFINITY; n];
    let mut dbuf = vec![0.0f64; n];
    let mut assignment = vec![0usize; n];

    let mut next = 0usize;
    for round in 0..kk {
        pivots.push(next);
        metric.dist_one_to_many(view.point(next), view, &mut dbuf);
        on_row(&dbuf);
        let mut far_idx = 0usize;
        let mut far_d: f64 = -1.0;
        for i in 0..n {
            if dbuf[i] < dist[i] {
                dist[i] = dbuf[i];
                assignment[i] = round;
            }
            if dist[i] > far_d {
                far_d = dist[i];
                far_idx = i;
            }
        }
        coverage.push(far_d);
        next = far_idx;
    }

    GonzalezResult {
        pivots,
        coverage,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::exact_kcenter_radius;
    use fairsw_metric::{EuclidPoint, Euclidean};
    use proptest::prelude::*;

    fn pts(vals: &[f64]) -> Vec<EuclidPoint> {
        vals.iter().map(|&v| EuclidPoint::new(vec![v])).collect()
    }

    #[test]
    fn empty_and_zero_k() {
        let r = gonzalez(&Euclidean, &pts(&[]), 3);
        assert!(r.pivots.is_empty());
        let r = gonzalez(&Euclidean, &pts(&[1.0]), 0);
        assert!(r.pivots.is_empty());
        assert_eq!(r.radius(), 0.0);
    }

    #[test]
    fn singleton() {
        let r = gonzalez(&Euclidean, &pts(&[5.0]), 3);
        assert_eq!(r.pivots, vec![0]);
        assert_eq!(r.radius(), 0.0);
    }

    #[test]
    fn two_well_separated_clusters() {
        let p = pts(&[0.0, 0.5, 1.0, 100.0, 100.5, 101.0]);
        let r = gonzalez(&Euclidean, &p, 2);
        assert_eq!(r.pivots.len(), 2);
        // One pivot per cluster; radius = 1 (cluster spread).
        assert!(r.radius() <= 1.0 + 1e-12);
        // Assignments split by cluster.
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_ne!(r.assignment[0], r.assignment[3]);
    }

    #[test]
    fn coverage_is_non_increasing() {
        let p = crate::testutil::scatter(60, 2, 1);
        let pts: Vec<EuclidPoint> = p.into_iter().map(|c| c.point).collect();
        let r = gonzalez(&Euclidean, &pts, 10);
        for w in r.coverage.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn pivots_are_pairwise_far() {
        // Pivots selected after round j are at distance >= coverage[j-1]
        // from all earlier pivots.
        let p = crate::testutil::scatter(80, 3, 1);
        let pts: Vec<EuclidPoint> = p.into_iter().map(|c| c.point).collect();
        let r = gonzalez(&Euclidean, &pts, 8);
        for j in 1..r.pivots.len() {
            for i in 0..j {
                let d = Euclidean.dist(&pts[r.pivots[i]], &pts[r.pivots[j]]);
                assert!(d + 1e-9 >= r.coverage[j - 1], "pivot {j} too close to {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn two_approximation(
            coords in proptest::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 2..11),
            k in 1usize..4,
        ) {
            let points: Vec<EuclidPoint> = coords
                .iter()
                .map(|&(x, y)| EuclidPoint::new(vec![x, y]))
                .collect();
            let g = gonzalez(&Euclidean, &points, k);
            let opt = exact_kcenter_radius(&Euclidean, &points, k);
            prop_assert!(
                g.radius() <= 2.0 * opt + 1e-9,
                "gonzalez {} vs opt {}", g.radius(), opt
            );
        }

        #[test]
        fn radius_matches_assignment(
            coords in proptest::collection::vec(-50.0..50.0f64, 1..30),
            k in 1usize..5,
        ) {
            let points = pts(&coords);
            let g = gonzalez(&Euclidean, &points, k);
            // Recompute radius from assignment; must equal coverage.last().
            let mut r: f64 = 0.0;
            for (i, &a) in g.assignment.iter().enumerate() {
                let d = Euclidean.dist(&points[i], &points[g.pivots[a]]);
                if d > r { r = d; }
            }
            // Assignment maps to the closest pivot, so r == radius.
            prop_assert!((r - g.radius()).abs() < 1e-9);
        }
    }
}
