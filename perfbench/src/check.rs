//! Answer checks shared by every workload.

use crate::stats::ratio;
use crate::trace::{SpanId, Tracer};
use fairsw_core::Solution;
use fairsw_metric::{Colored, EuclidPoint, Euclidean};
use fairsw_sequential::{FairCenterSolver, Instance, Jones};

/// One stream element.
pub type Point = Colored<EuclidPoint>;

/// A loose bound on the approximation ratio against `Jones`: the window
/// algorithm is a `(3 + ε)`-approximation and `Jones` is never below the
/// optimum, so a mean ratio above 4 means a wrong answer, not noise.
pub const RATIO_BOUND: f64 = 4.0;

/// Whether `centers` respects the per-color capacities.
pub fn fair(centers: &[Point], caps: &[usize]) -> bool {
    let mut used = vec![0usize; caps.len()];
    centers.iter().all(|c| {
        let i = c.color as usize;
        i < caps.len() && {
            used[i] += 1;
            used[i] <= caps[i]
        }
    })
}

/// Whether two points are bit-identical.
fn same_point(a: &Point, b: &Point) -> bool {
    a.color == b.color
        && a.point.coords().len() == b.point.coords().len()
        && a.point
            .coords()
            .iter()
            .zip(b.point.coords())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two answers are bit-identical in every field a caller sees
/// (centers, guess, coreset size and coreset radius).
pub fn same_solution(a: &Solution<EuclidPoint>, b: &Solution<EuclidPoint>) -> bool {
    a.guess.to_bits() == b.guess.to_bits()
        && a.coreset_size == b.coreset_size
        && a.coreset_radius.to_bits() == b.coreset_radius.to_bits()
        && a.centers.len() == b.centers.len()
        && a.centers
            .iter()
            .zip(&b.centers)
            .all(|(x, y)| same_point(x, y))
}

/// The radius of `centers` over `window`, divided by the radius `Jones`
/// reaches on the same window. Spans `metric.radius` and
/// `sequential.jones` around the two calls. Returns the ratio (when
/// both radii are finite and `Jones` found a fair answer) and the
/// number of distances `radius_of` evaluated.
pub fn approx_ratio(
    tracer: &mut Tracer,
    window: &[Point],
    caps: &[usize],
    centers: &[Point],
    request: u64,
) -> (Option<f64>, u64) {
    let inst = Instance::new(&Euclidean, window, caps);
    let s = tracer.begin("metric.radius", request, SpanId::NONE);
    let ours = std::hint::black_box(inst.radius_of(centers));
    tracer.end(s);
    let s = tracer.begin("sequential.jones", request, SpanId::NONE);
    let base = Jones::new().solve(&inst);
    tracer.end(s);
    let dists = (window.len() * centers.len()) as u64;
    let r = base
        .ok()
        .filter(|b| fair(&b.centers, caps))
        .and_then(|b| ratio(ours, b.radius));
    (r, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_core::SolutionExtras;

    fn pt(x: f64, color: u32) -> Point {
        Colored::new(EuclidPoint::new(vec![x, 0.0]), color)
    }

    #[test]
    fn fairness_counts_each_color() {
        let caps = [1, 2];
        assert!(fair(&[pt(0.0, 0), pt(1.0, 1), pt(2.0, 1)], &caps));
        assert!(!fair(&[pt(0.0, 0), pt(1.0, 0)], &caps));
        assert!(!fair(&[pt(0.0, 2)], &caps));
        assert!(fair(&[], &caps));
    }

    #[test]
    fn solutions_compare_bitwise() {
        let a = Solution {
            centers: vec![pt(1.0, 0)],
            guess: 2.0,
            coreset_size: 5,
            coreset_radius: 0.5,
            extras: SolutionExtras::None,
        };
        assert!(same_solution(&a, &a.clone()));
        let mut b = a.clone();
        b.centers[0] = pt(-0.0, 0);
        let mut c = a.clone();
        c.centers[0] = pt(0.0, 0);
        assert!(!same_solution(&b, &c), "-0.0 and 0.0 differ in bits");
        let mut d = a.clone();
        d.coreset_size = 6;
        assert!(!same_solution(&a, &d));
    }

    #[test]
    fn ratio_of_the_baseline_to_itself_is_one() {
        let window: Vec<Point> = (0..40)
            .map(|i| pt(f64::from(i % 8) * 10.0, i % 2))
            .collect();
        let caps = [2, 2];
        let inst = Instance::new(&Euclidean, &window, &caps);
        let centers = Jones::new().solve(&inst).expect("solvable").centers;
        let mut tracer = Tracer::new(true);
        let (r, dists) = approx_ratio(&mut tracer, &window, &caps, &centers, 0);
        assert_eq!(r, Some(1.0));
        assert_eq!(dists, (window.len() * centers.len()) as u64);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["metric.radius", "sequential.jones"]);
    }
}
