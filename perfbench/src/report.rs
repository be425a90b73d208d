//! The metrics a run prints: the twelve end-to-end metrics of an
//! untraced run and the per-layer metrics of a traced run.

use crate::run::SETUP_QUANTILE;
use crate::stats::{guarded_percentile, mean, ratio, Ledger, Reading, Samples};
use crate::trace::Layer;
use std::collections::BTreeMap;

/// The latency samples of the round in progress, in the order the
/// operations ran.
#[derive(Debug, Default)]
pub struct RoundStats {
    /// Latency of one insert call, in µs.
    pub update_us: Vec<f64>,
    /// Latency of one fresh query, in ms.
    pub query_ms: Vec<f64>,
    /// Latency of one repeat query at unchanged state, in µs.
    pub repeat_us: Vec<f64>,
}

/// One latency per operation of a round: the least that operation took
/// in any untraced round of the run. Every round replays the same
/// operations in the same order, so the n-th sample of every round
/// belongs to the same operation.
#[derive(Debug, Default)]
pub struct FastestPerOp {
    values: Vec<f64>,
}

impl FastestPerOp {
    /// Adds one round's latencies, in the order its operations ran.
    pub fn add_round(&mut self, round: &[f64]) {
        for (i, &v) in round.iter().enumerate() {
            match self.values.get_mut(i) {
                Some(best) => *best = best.min(v),
                None => self.values.push(v),
            }
        }
    }

    /// The sum of the fastest latencies.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The fastest latency of every operation.
    pub fn samples(&self) -> Samples {
        Samples::from(self.values.clone())
    }
}

/// What a run measures. Every latency is, per operation, the fastest of
/// its repetitions (see [`crate::run`]), so that time the host spent
/// slowed down does not move the result.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Seconds from the start of a round to its first timed operation.
    pub setup_s: Samples,
    /// Arrivals of one untraced round.
    pub round_arrivals: u64,
    /// Insert latencies, in µs.
    pub update_us: FastestPerOp,
    /// Fresh query latencies, in ms.
    pub query_ms: FastestPerOp,
    /// Repeat query latencies, in µs.
    pub repeat_us: FastestPerOp,
    /// Per sampled query time: returned radius over the `Jones` radius,
    /// both over the true window.
    pub approx: Vec<f64>,
    /// Per sampled query time: stored points.
    pub memory_points: Vec<f64>,
    /// Resident bytes of the engines, in KiB.
    pub resident_kb: Option<f64>,
    /// The process's peak resident set after round 0, in MiB.
    pub peak_rss_mb: Option<f64>,
}

impl EndToEnd {
    /// Adds an untraced round that applied `arrivals`.
    pub fn add_round(&mut self, round: &RoundStats, arrivals: u64) {
        self.update_us.add_round(&round.update_us);
        self.query_ms.add_round(&round.query_ms);
        self.repeat_us.add_round(&round.repeat_us);
        self.round_arrivals = self.round_arrivals.max(arrivals);
    }

    /// Seconds one round's operations take, each at its fastest.
    fn round_s(&self) -> f64 {
        self.update_us.total() * 1e-6 + self.query_ms.total() * 1e-3 + self.repeat_us.total() * 1e-6
    }

    /// The end-to-end readings, in `BENCHMARK.json` order.
    pub fn readings(&mut self, ledger: &Ledger) -> Vec<Reading> {
        let mut update = self.update_us.samples();
        let mut query = self.query_ms.samples();
        let mut repeat = self.repeat_us.samples();
        let pct = |s: &mut Samples, q: f64| (s.percentile(q), s.len());
        let reading = |name, unit, (v, n): (Option<f64>, usize)| Reading::new(name, unit, v, n);
        vec![
            Reading::new(
                "setup_s",
                "s",
                self.setup_s.small_quantile(SETUP_QUANTILE),
                self.setup_s.len(),
            ),
            Reading::new(
                "ingest_pts_per_s",
                "1/s",
                ratio(self.round_arrivals as f64, self.round_s()),
                self.round_arrivals as usize,
            ),
            reading("update_p50_us", "us", pct(&mut update, 0.5)),
            reading("update_p99_us", "us", pct(&mut update, 0.99)),
            reading("query_p50_ms", "ms", pct(&mut query, 0.5)),
            reading("query_p99_ms", "ms", pct(&mut query, 0.99)),
            reading("repeat_query_p50_us", "us", pct(&mut repeat, 0.5)),
            Reading::new(
                "approx_ratio",
                "ratio",
                mean(&self.approx),
                self.approx.len(),
            ),
            Reading::new(
                "memory_points",
                "points",
                mean(&self.memory_points),
                self.memory_points.len(),
            ),
            Reading::new("resident_kb", "KiB", self.resident_kb, 1),
            Reading::new("peak_rss_mb", "MiB", self.peak_rss_mb, 1),
            Reading::new(
                "ok_frac",
                "frac",
                ledger.ok_frac(),
                ledger.attempted as usize,
            ),
        ]
    }
}

/// Engine memory at the sampled query times.
#[derive(Debug, Default)]
pub struct MemorySamples {
    /// Stored handle entries (the paper's memory metric).
    pub stored_points: Vec<f64>,
    /// Distinct live payloads in the arena.
    pub unique_points: Vec<f64>,
    /// Heap bytes of those payloads.
    pub payload_bytes: Vec<f64>,
    /// Materialized guesses.
    pub guesses: Vec<f64>,
    /// Handles plus payloads, in bytes.
    pub resident_bytes: Vec<f64>,
}

impl MemorySamples {
    /// Records one engine's memory breakdown.
    pub fn push(&mut self, m: &fairsw_core::MemoryStats) {
        self.stored_points.push(m.stored_points() as f64);
        self.unique_points.push(m.unique_points as f64);
        self.payload_bytes.push(m.payload_bytes as f64);
        self.guesses.push(m.num_guesses() as f64);
        self.resident_bytes.push(m.resident_bytes() as f64);
    }
}

/// Serving-layer observations of a traced run, read from `STATS`.
#[derive(Debug, Default)]
pub struct ServeObservations {
    /// Per tenant: the server's own query p50 (engine time), in µs.
    pub server_query_p50_us: Samples,
    /// `QUERY` replies answered from the result cache.
    pub cache_hits: u64,
    /// `QUERY` replies computed by a shard.
    pub cache_misses: u64,
    /// Live WAL bytes, summed over tenants.
    pub wal_bytes: u64,
    /// Points accepted, summed over tenants.
    pub wal_points: u64,
    /// Sampled time since each tenant's last WAL fsync, in µs.
    pub fsync_lag_us: Samples,
}

/// What a traced run observes beside its spans.
#[derive(Debug, Default)]
pub struct LayerExtras {
    /// Coreset size handed to the solver, per traced fresh query.
    pub coreset_pts: Samples,
    /// Fresh queries that returned an error.
    pub query_errors: u64,
    /// Engine memory at the sampled query times.
    pub memory: MemorySamples,
    /// Distances `radius_of` evaluated (window × centers, summed).
    pub radius_dists: u64,
    /// The serving layer's own counters.
    pub serve: ServeObservations,
    /// Untraced and traced closed-loop throughput, arrivals per second.
    pub throughput: (Option<f64>, Option<f64>),
}

/// Per-layer readings from the traced spans and the extras, in
/// `BENCHMARK.json` order.
pub fn per_layer(layers: &BTreeMap<&'static str, Layer>, x: &mut LayerExtras) -> Vec<Reading> {
    let empty = Layer::default();
    let get = |name: &str| layers.get(name).unwrap_or(&empty);
    let calls = |name: &str| get(name).calls as usize;
    let busy_s = |name: &str| {
        let l = get(name);
        (l.calls > 0).then_some(l.self_ns as f64 * 1e-9)
    };
    let p50 = |name: &str, scale: f64| {
        let mut d = get(name).durations_ns.clone();
        d.sort_by(f64::total_cmp);
        guarded_percentile(&d, 0.5).map(|v| v * scale)
    };
    let per_call = |name: &str, scale: f64| {
        let l = get(name);
        ratio(l.self_ns as f64 * scale, l.calls as f64)
    };
    let fresh_rtt_us = p50("serve.request.query", 1e-3);
    let server_us = x.serve.server_query_p50_us.small_median();
    let mem = &x.memory;
    let n_mem = mem.stored_points.len();
    let lookups = x.serve.cache_hits + x.serve.cache_misses;
    let (untraced, traced) = x.throughput;
    vec![
        Reading::new(
            "datasets.generate_s",
            "s",
            per_call("datasets.generate", 1e-9),
            calls("datasets.generate"),
        ),
        Reading::new(
            "core.insert.calls",
            "count",
            Some(get("core.insert").calls as f64),
            1,
        ),
        Reading::new(
            "core.insert.busy_s",
            "s",
            busy_s("core.insert"),
            calls("core.insert"),
        ),
        Reading::new(
            "core.insert.ns_per_pt",
            "ns",
            per_call("core.insert", 1.0),
            calls("core.insert"),
        ),
        Reading::new(
            "core.query.calls",
            "count",
            Some(get("core.query").calls as f64),
            1,
        ),
        Reading::new(
            "core.query.busy_s",
            "s",
            busy_s("core.query"),
            calls("core.query"),
        ),
        Reading::new(
            "core.query.coreset_pts",
            "points",
            x.coreset_pts.mean(),
            x.coreset_pts.len(),
        ),
        Reading::new(
            "core.query.errors",
            "count",
            Some(x.query_errors as f64),
            calls("core.query"),
        ),
        Reading::new(
            "core.memo.repeat_us",
            "us",
            p50("core.memo", 1e-3),
            calls("core.memo"),
        ),
        Reading::new(
            "core.memory.stored_points",
            "points",
            mean(&mem.stored_points),
            n_mem,
        ),
        Reading::new(
            "core.memory.unique_points",
            "points",
            mean(&mem.unique_points),
            n_mem,
        ),
        Reading::new(
            "core.memory.payload_bytes",
            "bytes",
            mean(&mem.payload_bytes),
            n_mem,
        ),
        Reading::new("core.memory.guesses", "count", mean(&mem.guesses), n_mem),
        Reading::new(
            "sequential.jones.calls",
            "count",
            Some(get("sequential.jones").calls as f64),
            1,
        ),
        Reading::new(
            "sequential.jones.ms_per_call",
            "ms",
            per_call("sequential.jones", 1e-6),
            calls("sequential.jones"),
        ),
        Reading::new(
            "metric.radius.ns_per_dist",
            "ns",
            ratio(get("metric.radius").self_ns as f64, x.radius_dists as f64),
            calls("metric.radius"),
        ),
        Reading::new(
            "serve.protocol.encode_us",
            "us",
            per_call("serve.protocol.encode", 1e-3),
            calls("serve.protocol.encode"),
        ),
        Reading::new(
            "serve.protocol.decode_us",
            "us",
            per_call("serve.protocol.decode", 1e-3),
            calls("serve.protocol.decode"),
        ),
        Reading::new(
            "serve.server.query_p50_us",
            "us",
            server_us,
            x.serve.server_query_p50_us.len(),
        ),
        Reading::new(
            "serve.net.query_overhead_us",
            "us",
            fresh_rtt_us.zip(server_us).map(|(c, s)| c - s),
            calls("serve.request.query"),
        ),
        Reading::new(
            "serve.cache.hits",
            "count",
            Some(x.serve.cache_hits as f64),
            lookups as usize,
        ),
        Reading::new(
            "serve.cache.misses",
            "count",
            Some(x.serve.cache_misses as f64),
            lookups as usize,
        ),
        Reading::new(
            "serve.cache.hit_frac",
            "frac",
            ratio(x.serve.cache_hits as f64, lookups as f64),
            lookups as usize,
        ),
        Reading::new(
            "serve.wal.bytes_per_pt",
            "bytes",
            ratio(x.serve.wal_bytes as f64, x.serve.wal_points as f64),
            x.serve.wal_points as usize,
        ),
        Reading::new(
            "serve.wal.fsync_lag_us",
            "us",
            x.serve.fsync_lag_us.small_median(),
            x.serve.fsync_lag_us.len(),
        ),
        Reading::new(
            "trace.overhead_frac",
            "frac",
            untraced.zip(traced).and_then(|(u, t)| ratio(u - t, u)),
            2,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operation_keeps_its_fastest_repetition() {
        let mut ops = FastestPerOp::default();
        for round in [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 9.0, 1.0]] {
            ops.add_round(&round);
        }
        assert_eq!(ops.values, vec![2.0, 1.0, 1.0]);
        // A shorter round leaves the later operations as they were.
        ops.add_round(&[0.5]);
        assert_eq!(ops.values, vec![0.5, 1.0, 1.0]);
        assert_eq!(ops.samples().len(), 3);
        assert_eq!(ops.total(), 2.5);
    }
}
