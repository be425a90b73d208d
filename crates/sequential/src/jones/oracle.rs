//! Test-only oracle: the Jones solver as it was before the threshold
//! sweep — a second kernel pass per pivot for the nearest-witness table
//! and, per prefix, a binary search over the candidate thresholds with a
//! fresh adjacency and matching per probe. The differential proptest
//! below holds the production solver to this one bit for bit.

use crate::{gonzalez_view, validate, FairCenterSolver, FairSolution, Instance, SolveError};
use fairsw_matching::max_capacitated_matching;
use fairsw_metric::{Colored, CoresetView, EuclidPoint, Euclidean, Metric};
use proptest::prelude::*;

/// The pre-sweep solver on a staged instance.
fn oracle_solve<M: Metric>(inst: &Instance<'_, M>) -> Result<FairSolution<M::Point>, SolveError> {
    validate(inst)?;
    let mut view = CoresetView::new();
    view.gather_colored(inst.metric, inst.points.iter());
    solve_on_view(inst.metric, &view, inst.caps)
}

fn solve_on_view<M: Metric>(
    metric: &M,
    view: &CoresetView<M::Point>,
    caps: &[usize],
) -> Result<FairSolution<M::Point>, SolveError> {
    if view.is_empty() {
        return Err(SolveError::EmptyInstance);
    }
    if caps.is_empty() || caps.contains(&0) {
        return Err(SolveError::BadBudgets);
    }
    let k: usize = caps.iter().sum();
    let ncolors = caps.len();
    let colors = view.colors();
    debug_assert!(
        colors.iter().all(|&c| (c as usize) < ncolors),
        "point color out of range"
    );
    let g = gonzalez_view(metric, view, k);
    let npiv = g.pivots.len();

    // mind[p * ncolors + i] = (distance, witness index) of the
    // nearest point of color i to pivot p, flattened row-major into a
    // single allocation. One kernel call per pivot replaces the
    // pointwise O(nk) scan; the per-color argmin keeps the same
    // ascending-index tie-break.
    let mut mind = vec![(f64::INFINITY, usize::MAX); npiv * ncolors];
    let mut dbuf = vec![0.0f64; view.len()];
    let mut mind_buf: Vec<f64> = Vec::new();
    for (pi, &pividx) in g.pivots.iter().enumerate() {
        metric.dist_one_to_many(view.point(pividx), view, &mut dbuf);
        let row = &mut mind[pi * ncolors..(pi + 1) * ncolors];
        for (qi, &color) in colors.iter().enumerate() {
            let d = dbuf[qi];
            let slot = &mut row[color as usize];
            if d < slot.0 {
                *slot = (d, qi);
            }
        }
    }

    let mut best: Option<(f64, Vec<usize>)> = None; // (bound, witness indices)

    // Buffers hoisted out of the prefix loop: `cands` accumulates the
    // finite mind values seen so far (prefix j's candidate set is
    // prefix j-1's plus row j-1, so extend-then-sort beats
    // re-collecting), and `adj` keeps one reusable adjacency row per
    // pivot so the feasibility probes inside the binary search
    // allocate nothing in steady state.
    let mut cands: Vec<f64> = Vec::new();
    let mut adj: Vec<Vec<usize>> = Vec::new();
    adj.resize_with(npiv, Vec::new);

    for j in 1..=npiv {
        if j > k {
            break;
        }
        // Candidate thresholds: the finite mind values of the prefix.
        cands.extend(
            mind[(j - 1) * ncolors..j * ncolors]
                .iter()
                .map(|&(d, _)| d)
                .filter(|d| d.is_finite()),
        );
        cands.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        cands.dedup();
        if cands.is_empty() {
            continue;
        }

        // Perfect matching is monotone in τ: binary search the
        // smallest feasible candidate. Each probe refills the first j
        // adjacency rows in place.
        let mind = &mind;
        let feasible = |tau: f64, adj: &mut Vec<Vec<usize>>| -> bool {
            for (p, row) in adj[..j].iter_mut().enumerate() {
                row.clear();
                row.extend(
                    mind[p * ncolors..(p + 1) * ncolors]
                        .iter()
                        .enumerate()
                        .filter(|(_, &(d, _))| d <= tau)
                        .map(|(c, _)| c),
                );
            }
            max_capacitated_matching(caps, &adj[..j]).is_left_perfect()
        };

        if !feasible(*cands.last().expect("non-empty"), &mut adj) {
            // Even the loosest threshold fails (some color classes
            // absent): this prefix cannot be perfectly matched.
            continue;
        }
        let (mut lo, mut hi) = (0usize, cands.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if feasible(cands[mid], &mut adj) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let tau = cands[lo];
        let cover = g.coverage[j - 1];
        let bound = cover + tau;
        if best.as_ref().is_none_or(|(b, _)| bound < *b) {
            // Materialize the witnesses only for an improving prefix.
            assert!(feasible(tau, &mut adj), "lo is feasible");
            let m = max_capacitated_matching(caps, &adj[..j]);
            let witnesses: Vec<usize> = m
                .assigned
                .iter()
                .enumerate()
                .map(|(p, a)| mind[p * ncolors + a.expect("perfect")].1)
                .collect();
            best = Some((bound, witnesses));
        }
    }

    let (_, witnesses) = best.ok_or(SolveError::EmptyInstance)?;
    // Distinct pivots can share a witness point (the same point may be
    // the closest representative of one color to two pivots); dedup by
    // index to keep the center set a set.
    let mut seen = std::collections::HashSet::new();
    let centers: Vec<Colored<M::Point>> = witnesses
        .iter()
        .filter(|&&i| seen.insert(i))
        .map(|&i| Colored::new(view.point(i).clone(), colors[i]))
        .collect();

    // Radius over the already-staged view — no re-gather.
    crate::min_over_centers(
        metric,
        view,
        centers.iter().map(|c| &c.point),
        &mut dbuf,
        &mut mind_buf,
    );
    let mut radius: f64 = 0.0;
    for &d in &mind_buf {
        if d > radius {
            radius = d;
        }
    }
    Ok(FairSolution { centers, radius })
}

/// A solution reduced to bits: the radius, then each center's color and
/// coordinates, in output order.
type Bits = Result<(u64, Vec<(u32, Vec<u64>)>), SolveError>;

fn bits(sol: Result<FairSolution<EuclidPoint>, SolveError>) -> Bits {
    sol.map(|s| {
        let centers = s
            .centers
            .iter()
            .map(|c| {
                (
                    c.color,
                    c.point.coords().iter().map(|x| x.to_bits()).collect(),
                )
            })
            .collect();
        (s.radius.to_bits(), centers)
    })
}

/// One coordinate: two times in three a point of the integer grid
/// `-4..=4` (duplicate points and distance ties), otherwise uniform.
fn coord() -> impl Strategy<Value = f64> {
    (0u8..3, -50.0..50.0f64).prop_map(|(sel, x)| if sel < 2 { (x / 12.5).round() } else { x })
}

/// Instances with 1–7 colors, budgets 1–3 each (so `n < k` is common),
/// only the colors `0..span` present, and in half the cases one or two
/// non-finite coordinates (the pivots they land on have no finite
/// distance to any point).
fn instance() -> impl Strategy<Value = (Vec<Colored<EuclidPoint>>, Vec<usize>)> {
    (1usize..8, 1usize..4, 0usize..40).prop_flat_map(|(ncolors, dim, n)| {
        (
            proptest::collection::vec(1usize..4, ncolors),
            1usize..ncolors + 1,
            proptest::collection::vec((proptest::collection::vec(coord(), dim), 0u32..7), n),
            (0u8..8, 0usize..64, 0usize..64, 0usize..8),
        )
            .prop_map(move |(caps, span, raw, (poison, at, at2, axis))| {
                let mut pts: Vec<Colored<EuclidPoint>> = raw
                    .into_iter()
                    .map(|(coords, c)| Colored::new(EuclidPoint::new(coords), c % span as u32))
                    .collect();
                if !pts.is_empty() {
                    let mut set = |i: usize, v: f64| {
                        let p = &mut pts[i % n];
                        let mut coords = p.point.coords().to_vec();
                        coords[axis % dim] = v;
                        p.point = EuclidPoint::new(coords);
                    };
                    match poison {
                        0 => set(at, f64::NAN),
                        1 => set(at, f64::INFINITY),
                        2 => set(at, f64::NEG_INFINITY),
                        3 => {
                            set(at, f64::NAN);
                            set(at2, f64::INFINITY);
                        }
                        _ => {}
                    }
                }
                (pts, caps)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn jones_matches_the_binary_search_oracle_bit_for_bit(case in instance()) {
        let (pts, caps) = case;
        let inst = Instance::new(&Euclidean, &pts, &caps);
        let want = bits(oracle_solve(&inst));
        let got = bits(crate::Jones.solve(&inst));
        prop_assert_eq!(got, want, "caps {:?}, points {:?}", caps, pts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    // Coreset-sized instances shaped like the window benchmark's: 7-d,
    // seven colors with budget 2 each, a few hundred points.
    #[test]
    fn jones_matches_the_oracle_on_coreset_sized_instances(
        raw in proptest::collection::vec(
            (proptest::collection::vec(-1.0..1.0f64, 7), 0u32..7), 50..400),
    ) {
        let pts: Vec<Colored<EuclidPoint>> =
            raw.into_iter().map(|(x, c)| Colored::new(EuclidPoint::new(x), c)).collect();
        let caps = [2usize; 7];
        let inst = Instance::new(&Euclidean, &pts, &caps);
        prop_assert_eq!(bits(crate::Jones.solve(&inst)), bits(oracle_solve(&inst)));
    }
}
