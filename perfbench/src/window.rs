//! The two in-process workloads: one single-threaded `WindowEngine` fed
//! a seeded stand-in dataset in a closed loop, with a fresh query every
//! `query_every` arrivals, each followed by one repeat query.
//!
//! * `window_query` — fixed variant over the higgs-like stream (7-d,
//!   2 colors), window 10 000, δ = 2, a query every 10 arrivals. Most
//!   of the time goes to queries: coreset gather, packing scan, `Jones`.
//! * `window_ingest` — oblivious variant over the phones-like stream
//!   (7 colors, aspect ratio near 6·10⁵), window 20 000, δ = 1, a query
//!   every 100 arrivals. Most of the time goes to inserts: guess spawn
//!   and retire, the diameter estimator, arena interning and expiry.
//!
//! The stand-in's structure comes from a fixed dataset seed; the run's
//! seed draws this run's input from it ([`Draw`]). Structures drawn per
//! seed differ too much for one benchmark: the higgs-like mixing matrix
//! moved query time 3× between seeds, and the phones-like trajectory
//! moved insert throughput by a quarter.

use crate::check::{approx_ratio, fair, same_solution, Point, RATIO_BOUND};
use crate::run::{Loop, Run, MIN_SETUPS};
use crate::serve;
use crate::trace::SpanId;
use fairsw_core::{
    EngineBuilder, MemoryStats, ParallelismSpec, SlidingWindowClustering, WindowEngine,
};
use fairsw_datasets::rng::seeded;
use fairsw_datasets::{color_frequencies, proportional_capacities, random_rotation, Dataset};
use fairsw_metric::{sampled_extremes, EuclidPoint, Euclidean};
use fairsw_serve::protocol::{TenantConfig, WireVariant};
use std::time::Instant;

/// `Σ k_i`, split over colors by frequency (the paper's rule).
const TOTAL_K: usize = 14;
/// Query times of round 0 at which the ratio and memory are taken.
const RATIO_SAMPLES: usize = 8;
/// Points `sampled_extremes` looks at to bound the fixed lattice.
const EXTREMES_SAMPLE: usize = 256;
/// Cycles of the traced run's serving probe (see [`WindowWorkload::probe`]).
const PROBE_CYCLES: usize = 1_000;
/// Seed of the stand-in's structure (mixing matrix, trajectory).
const DATASET_SEED: u64 = 2026;

/// How the run's seed turns the fixed-structure stream into the run's
/// input.
#[derive(Clone, Copy, Debug)]
enum Draw {
    /// Shuffle the arrival order: the points are i.i.d., so every seed
    /// sees other windows drawn from the same distribution.
    Shuffle,
    /// Rotate every point by one seeded rotation: the trajectory's order
    /// and all distances are kept, the coordinates change.
    Rotate,
}

/// One in-process workload.
pub struct WindowWorkload {
    /// Stand-in dataset generator.
    data: fn(usize, u64) -> Dataset,
    draw: Draw,
    /// Oblivious variant (no scale bounds) instead of the fixed lattice.
    oblivious: bool,
    window: usize,
    delta: f64,
    /// Arrivals between fresh queries.
    query_every: usize,
    /// Timed arrivals per round, after the window is full.
    round_arrivals: usize,
}

/// `window_query`: the query path does most of the work.
pub const WINDOW_QUERY: WindowWorkload = WindowWorkload {
    data: fairsw_datasets::higgs_like,
    draw: Draw::Shuffle,
    oblivious: false,
    window: 10_000,
    delta: 2.0,
    query_every: 10,
    round_arrivals: 20_000,
};

/// `window_ingest`: the insert path does most of the work.
pub const WINDOW_INGEST: WindowWorkload = WindowWorkload {
    data: fairsw_datasets::phones_like,
    draw: Draw::Rotate,
    oblivious: true,
    window: 20_000,
    delta: 1.0,
    query_every: 100,
    round_arrivals: 100_000,
};

/// A set-up round: the stream, its capacities and a full-window engine.
struct Round {
    points: Vec<Point>,
    caps: Vec<usize>,
    variant: WireVariant,
    engine: WindowEngine<Euclidean>,
}

/// What round 0 keeps at a sampled query time.
struct Sample {
    /// Arrivals so far: the window is `points[t - window..t]`.
    t: usize,
    centers: Vec<Point>,
    memory: MemoryStats,
}

impl WindowWorkload {
    /// Runs the workload's rounds (see [`crate::run`]).
    pub fn run(&self, run: &mut Run) {
        run.rounds(|run, index, traced| {
            let mut round = self.setup(run);
            let mut samples = Vec::new();
            let keep = (index == 0).then_some(&mut samples);
            self.timed(run, &mut round, traced, keep);
            if index == 0 {
                run.tracer.set_on(run.trace);
                self.check_samples(run, &round, &samples);
                if run.trace {
                    self.probe(run, &round);
                }
            }
        });
        while run.e2e.setup_s.len() < MIN_SETUPS {
            run.place();
            self.setup(run);
        }
    }

    /// Generates the stream, builds the engine and fills the window;
    /// records the elapsed time as one `setup_s` sample.
    fn setup(&self, run: &mut Run) -> Round {
        let t0 = Instant::now();
        let req = run.request();
        let s = run.tracer.begin("datasets.generate", req, SpanId::NONE);
        let data = (self.data)(self.window + self.round_arrivals, DATASET_SEED);
        let points = draw(self.draw, &data.points, run.seed);
        run.tracer.end(s);
        let caps =
            proportional_capacities(&color_frequencies(&data.points, data.num_colors), TOTAL_K);
        let variant = if self.oblivious {
            WireVariant::Oblivious
        } else {
            let stride = (data.points.len() / EXTREMES_SAMPLE).max(1);
            let sample: Vec<EuclidPoint> = data
                .points
                .iter()
                .step_by(stride)
                .map(|p| p.point.clone())
                .collect();
            let ext = sampled_extremes(&Euclidean, &sample, EXTREMES_SAMPLE)
                .expect("the stand-in streams have distinct points");
            WireVariant::Fixed {
                dmin: ext.dmin,
                dmax: ext.dmax,
            }
        };
        let builder = EngineBuilder::new()
            .window_size(self.window)
            .capacities(caps.clone())
            .delta(self.delta)
            .parallelism(ParallelismSpec::Sequential);
        let builder = match variant {
            WireVariant::Fixed { dmin, dmax } => builder.fixed(dmin, dmax),
            _ => builder.oblivious(),
        };
        let mut engine = builder.build(Euclidean).expect("valid workload config");
        engine.insert_batch(points[..self.window].iter().cloned());
        run.e2e.setup_s.push(t0.elapsed().as_secs_f64());
        Round {
            points,
            caps,
            variant,
            engine,
        }
    }

    /// The timed closed loop over the round's arrivals.
    fn timed(
        &self,
        run: &mut Run,
        round: &mut Round,
        traced: bool,
        mut samples: Option<&mut Vec<Sample>>,
    ) {
        let queries = self.round_arrivals / self.query_every;
        let sampled =
            |q: usize| (0..RATIO_SAMPLES).any(|i| (i + 1) * queries / RATIO_SAMPLES - 1 == q);
        let Round {
            points,
            caps,
            engine,
            ..
        } = round;
        let start = Instant::now();
        for (j, p) in points[self.window..].iter().enumerate() {
            let p = p.clone();
            let req = run.request();
            let s = run.tracer.begin("core.insert", req, SpanId::NONE);
            let t0 = Instant::now();
            engine.insert(p);
            let dt = t0.elapsed();
            run.tracer.end(s);
            run.round.update_us.push(dt.as_secs_f64() * 1e6);
            run.ledger.check(true, String::new);
            if (j + 1) % self.query_every != 0 {
                continue;
            }
            let q = (j + 1) / self.query_every - 1;
            let s = run.tracer.begin("core.query", req, SpanId::NONE);
            let t0 = Instant::now();
            let fresh = engine.query();
            let dt = t0.elapsed();
            run.tracer.end(s);
            run.round.query_ms.push(dt.as_secs_f64() * 1e3);
            let s = run.tracer.begin("core.memo", req, SpanId::NONE);
            let t0 = Instant::now();
            let repeat = engine.query();
            let dt = t0.elapsed();
            run.tracer.end(s);
            run.round.repeat_us.push(dt.as_secs_f64() * 1e6);
            match (&fresh, &repeat) {
                (Ok(f), Ok(r)) => {
                    let ok = fair(&f.centers, caps);
                    run.ledger
                        .check(ok, || format!("query {q}: centers exceed the capacities"));
                    let same = same_solution(f, r);
                    run.ledger
                        .check(same, || format!("query {q}: repeat differs from fresh"));
                    if traced {
                        run.extras.coreset_pts.push(f.coreset_size as f64);
                    }
                }
                (f, r) => {
                    if traced && f.is_err() {
                        run.extras.query_errors += 1;
                    }
                    run.ledger
                        .check(f.is_ok(), || format!("query {q} failed: {f:?}"));
                    run.ledger
                        .check(r.is_ok(), || format!("repeat {q} failed: {r:?}"));
                }
            }
            if let (Some(keep), Ok(f)) = (samples.as_deref_mut(), &fresh) {
                if sampled(q) {
                    keep.push(Sample {
                        t: self.window + j + 1,
                        centers: f.centers.clone(),
                        memory: engine.memory_stats(),
                    });
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        run.end_round(Loop::Round { traced }, self.round_arrivals as u64, secs);
    }

    /// The deterministic metrics of round 0: the ratio against `Jones`
    /// on the true window and the engine's memory, at fixed query times.
    fn check_samples(&self, run: &mut Run, round: &Round, samples: &[Sample]) {
        if samples.len() != RATIO_SAMPLES {
            run.ledger.problem(format!(
                "{} of {RATIO_SAMPLES} ratio samples answered",
                samples.len()
            ));
        }
        for s in samples {
            let window = &round.points[s.t - self.window..s.t];
            let req = run.request();
            let (r, dists) = approx_ratio(&mut run.tracer, window, &round.caps, &s.centers, req);
            run.extras.radius_dists += dists;
            run.ledger
                .check(r.is_some(), || format!("t={}: no ratio against Jones", s.t));
            run.e2e.approx.extend(r);
            run.e2e.memory_points.push(s.memory.stored_points() as f64);
            run.extras.memory.push(&s.memory);
        }
        let mean = crate::stats::mean(&run.e2e.approx);
        if !mean.is_some_and(|m| m < RATIO_BOUND) {
            run.ledger
                .problem(format!("approx_ratio {mean:?} not under {RATIO_BOUND}"));
        }
        run.e2e.resident_kb =
            crate::stats::mean(&run.extras.memory.resident_bytes).map(|b| b / 1024.0);
    }

    /// The traced run's serving probe: the first [`PROBE_CYCLES`]
    /// batches of round 0's stream served through `fairsw-serve` as one
    /// tenant of the same configuration, so that the serving layer's
    /// per-layer metrics are measured on this workload's points too.
    fn probe(&self, run: &mut Run, round: &Round) {
        let mut config = TenantConfig::new(self.window, round.caps.clone(), round.variant.clone());
        config.delta = self.delta;
        let len = (self.window + PROBE_CYCLES * serve::BATCH).min(round.points.len());
        let streams = [round.points[..len].to_vec()];
        let load = serve::Load {
            config: &config,
            streams: &streams,
            period: (self.query_every / serve::BATCH).max(1),
            ratio_samples: 0,
            trace_oracle: false,
        };
        load.probe(run);
    }
}

/// This run's input: `points` redrawn by `draw` from `seed`.
fn draw(draw: Draw, points: &[Point], seed: u64) -> Vec<Point> {
    match draw {
        Draw::Shuffle => {
            let mut out = points.to_vec();
            let mut rng = seeded(seed);
            for i in (1..out.len()).rev() {
                out.swap(i, rng.random_range(0..i + 1));
            }
            out
        }
        Draw::Rotate => {
            let dim = points.first().map_or(1, |p| p.point.dim());
            let rotation = random_rotation(dim, seed);
            points
                .iter()
                .map(|p| Point::new(EuclidPoint::new(rotation.apply(p.point.coords())), p.color))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsw_metric::Metric;

    fn stream() -> Vec<Point> {
        fairsw_datasets::phones_like(300, DATASET_SEED).points
    }

    #[test]
    fn a_shuffle_keeps_the_points_and_follows_the_seed() {
        let base = stream();
        let a = draw(Draw::Shuffle, &base, 1);
        assert_eq!(a, draw(Draw::Shuffle, &base, 1));
        assert_ne!(a, draw(Draw::Shuffle, &base, 2));
        assert_ne!(a, base);
        let key = |p: &Point| {
            (
                p.color,
                p.point
                    .coords()
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let (mut x, mut y): (Vec<_>, Vec<_>) =
            (a.iter().map(key).collect(), base.iter().map(key).collect());
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }

    #[test]
    fn a_rotation_keeps_order_colors_and_distances() {
        let base = stream();
        let a = draw(Draw::Rotate, &base, 7);
        assert_eq!(a, draw(Draw::Rotate, &base, 7));
        assert_ne!(a, base);
        for (i, (p, q)) in a.iter().zip(&base).enumerate() {
            assert_eq!(p.color, q.color);
            let j = (i * 7 + 3) % base.len();
            let d_new = Euclidean.dist(&p.point, &a[j].point);
            let d_old = Euclidean.dist(&q.point, &base[j].point);
            assert!(
                (d_new - d_old).abs() <= 1e-9 * (1.0 + d_old),
                "{d_new} vs {d_old}"
            );
        }
    }
}
