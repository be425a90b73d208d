//! The serving workload, `serve_tenants`: `fairsw-served` in process on
//! loopback with the WAL on. Eight tenants run the fixed variant over
//! the two-dimensional `loadgen::workload` stream, window 1 000. One
//! client connection works round-robin in a closed loop: every cycle
//! sends each tenant one `INSERT_BATCH` of 16 points, then one tenant
//! (each in turn, so every tenant every 8th cycle) gets a fresh `QUERY`
//! and 3 repeats. The engine's work per request is small, so the wire
//! codec, the reactor, the shard queue, the WAL append and the result
//! cache dominate.
//!
//! The server flushes each tenant's ingest buffer when a batch fills it
//! (`flush_batch` = batch size), so flushes follow requests rather than
//! the wall-clock tick; the tick only paces the WAL's group-commit
//! fsync. Tenant 0's fresh replies are recorded and, after the timed
//! loop, compared byte for byte with an in-process oracle engine fed the
//! same stream.

use crate::check::{approx_ratio, fair, Point};
use crate::run::{Loop, Run, MIN_SETUPS};
use crate::trace::{SpanId, Tracer};
use fairsw_core::{ParallelismSpec, SlidingWindowClustering};
use fairsw_datasets::rng::seeded;
use fairsw_serve::loadgen::{burst_config, workload, Client};
use fairsw_serve::protocol::{read_frame, write_frame, Reply, Request, TenantConfig};
use fairsw_serve::server::{ServeConfig, Server};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Points per `INSERT_BATCH` (also the server's flush threshold).
pub const BATCH: usize = 16;
/// Repeat queries after each fresh query.
const REPEATS: usize = 3;
/// Tenants of `serve_tenants`.
const TENANTS: usize = 8;
/// Window of every `serve_tenants` tenant.
const WINDOW: usize = 1_000;
/// Timed cycles per round of `serve_tenants`.
const CYCLES: usize = 2_048;
/// Shard threads: one suffices for one closed-loop connection.
const SHARDS: usize = 1;
/// The shard tick: the WAL group-commit cadence.
const TICK: Duration = Duration::from_millis(100);
/// Fresh replies of tenant 0 at which round 0 takes the ratio.
const RATIO_SAMPLES: usize = 8;

/// A closed-loop load on one server.
pub struct Load<'a> {
    /// Every tenant's configuration.
    pub config: &'a TenantConfig,
    /// Per tenant: a window to fill, then the timed arrivals.
    pub streams: &'a [Vec<Point>],
    /// Cycles between one tenant's fresh queries.
    pub period: usize,
    /// Fresh replies of tenant 0 at which round 0 takes the ratio.
    pub ratio_samples: usize,
    /// Whether the oracle's engine calls are traced as `core.*` spans.
    pub trace_oracle: bool,
}

/// Runs `serve_tenants` (see [`crate::run`]).
pub fn run(run: &mut Run) {
    let config = burst_config(WINDOW);
    let round = |run: &mut Run, kind: Epoch| {
        let setup_start = Instant::now();
        let streams = streams(run);
        let load = Load {
            config: &config,
            streams: &streams,
            period: TENANTS,
            ratio_samples: RATIO_SAMPLES,
            trace_oracle: true,
        };
        load.epoch(run, kind, setup_start);
    };
    run.rounds(|run, index, traced| {
        round(
            run,
            Epoch::Round {
                first: index == 0,
                traced,
            },
        )
    });
    while run.e2e.setup_s.len() < MIN_SETUPS {
        run.place();
        round(run, Epoch::SetupOnly);
    }
}

/// Every tenant's stream: `loadgen::workload` at a seeded offset.
fn streams(run: &mut Run) -> Vec<Vec<Point>> {
    let req = run.request();
    let s = run.tracer.begin("datasets.generate", req, SpanId::NONE);
    let mut rng = seeded(run.seed);
    let streams = (0..TENANTS)
        .map(|_| workload(WINDOW + CYCLES * BATCH, rng.next_u64() >> 40))
        .collect();
    run.tracer.end(s);
    streams
}

/// One client connection speaking the framed protocol, with spans
/// around the codec and the round trip.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// What one request returned: the raw reply frame, its decoding, and the
/// client-side latency (encode, round trip, decode).
struct Answer {
    raw: Vec<u8>,
    reply: Reply,
    latency: Duration,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `req` and waits for its reply, as `loadgen::Client::call`
    /// does, keeping the raw reply bytes.
    fn call(
        &mut self,
        req: &Request,
        kind: &'static str,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<Answer, String> {
        let t0 = Instant::now();
        let root = tracer.begin(kind, id, SpanId::NONE);
        let s = tracer.begin("serve.protocol.encode", id, root);
        let body = req.encode().map_err(|e| format!("encode: {e}"))?;
        tracer.end(s);
        let s = tracer.begin("serve.net.roundtrip", id, root);
        write_frame(&mut self.writer, &body).map_err(|e| format!("send: {e}"))?;
        let raw = read_frame(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        tracer.end(s);
        let s = tracer.begin("serve.protocol.decode", id, root);
        let reply = Reply::decode(&raw).map_err(|e| format!("decode: {e}"))?;
        tracer.end(s);
        tracer.end(root);
        Ok(Answer {
            raw,
            reply,
            latency: t0.elapsed(),
        })
    }
}

/// What one server epoch is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Epoch {
    /// A round of the workload; `first` marks round 0, whose fixed
    /// replies give the ratio and memory.
    Round {
        /// Round 0.
        first: bool,
        /// A traced round.
        traced: bool,
    },
    /// Only the set-up, so that `setup_s` has enough samples.
    SetupOnly,
    /// The traced run's serving probe of an in-process workload: per-layer
    /// metrics only.
    Probe,
}

impl Load<'_> {
    /// The traced run's serving probe: one whole pass over the streams,
    /// traced, measuring only the per-layer metrics.
    pub fn probe(&self, run: &mut Run) {
        let on = run.tracer.is_on();
        run.tracer.set_on(true);
        self.epoch(run, Epoch::Probe, Instant::now());
        run.tracer.set_on(on);
    }

    /// Starts the server, creates and fills the tenants, runs the timed
    /// loop, reads `STATS`, stops the server, and checks tenant 0
    /// against the oracle.
    fn epoch(&self, run: &mut Run, kind: Epoch, setup_start: Instant) {
        let (first, traced) = match kind {
            Epoch::Round { first, traced } => (first, traced),
            Epoch::SetupOnly => (false, false),
            Epoch::Probe => (false, true),
        };
        let window = self.config.window;
        let names: Vec<String> = (0..self.streams.len()).map(|t| format!("t{t}")).collect();
        let wal = run.scratch.join(format!("wal-{}", std::process::id()));
        // A WAL left over from an interrupted run would be replayed.
        let _ = std::fs::remove_dir_all(&wal);
        let cfg = ServeConfig {
            shards: SHARDS,
            flush_batch: BATCH,
            tick: TICK,
            wal_dir: Some(wal.clone()),
            parallelism: ParallelismSpec::Sequential,
            ..ServeConfig::default()
        };
        let handle = Server::start("127.0.0.1:0", cfg).expect("server starts on loopback");
        let addr = handle.local_addr();
        let mut admin = Client::connect(addr).expect("connect to the server");
        for (name, stream) in names.iter().zip(self.streams) {
            let created = admin.create(name, self.config);
            run.ledger.check(matches!(created, Ok(Reply::Ok)), || {
                format!("CREATE {name}: {created:?}")
            });
            let filled = admin.insert_batch(name, &stream[..window]);
            run.ledger.check(matches!(filled, Ok(Reply::Ok)), || {
                format!("fill {name}: {filled:?}")
            });
        }
        let mut wire = Wire::connect(addr).expect("connect to the server");
        if kind != Epoch::Probe {
            run.e2e.setup_s.push(setup_start.elapsed().as_secs_f64());
        }

        let fresh0 = match kind {
            Epoch::SetupOnly => Vec::new(),
            Epoch::Probe => self.timed(run, &mut wire, &names, Loop::Probe),
            Epoch::Round { traced, .. } => {
                self.timed(run, &mut wire, &names, Loop::Round { traced })
            }
        };

        if traced || first {
            let mut resident = 0u64;
            for (t, name) in names.iter().enumerate() {
                let stats = match admin.stats(name) {
                    Ok(Reply::Stats(s)) => s,
                    other => {
                        run.ledger
                            .check(false, || format!("STATS {name}: {other:?}"));
                        continue;
                    }
                };
                resident += stats.resident_bytes;
                if traced {
                    let x = &mut run.extras.serve;
                    x.server_query_p50_us.push(stats.query_p50_us);
                    x.wal_bytes += stats.wal_bytes;
                    x.wal_points += stats.points_total;
                    if t == 0 {
                        // The cache counters are server-wide.
                        x.cache_hits += stats.query_cache_hits;
                        x.cache_misses += stats.query_cache_misses;
                    }
                }
            }
            if first {
                run.e2e.resident_kb = Some(resident as f64 / 1024.0);
            }
        }
        drop(wire);
        drop(admin);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&wal);

        let trace_oracle = self.trace_oracle && traced;
        let on = run.tracer.is_on();
        run.tracer.set_on(trace_oracle);
        self.check_oracle(run, &fresh0, first, trace_oracle);
        run.tracer.set_on(on);
    }

    /// The timed closed loop. Returns tenant 0's fresh replies with the
    /// arrival count each answers for.
    fn timed(
        &self,
        run: &mut Run,
        wire: &mut Wire,
        names: &[String],
        kind: Loop,
    ) -> Vec<(usize, Vec<u8>)> {
        let traced = kind != Loop::Round { traced: false };
        let window = self.config.window;
        let cycles = (self.streams[0].len() - window) / BATCH;
        let mut fresh0 = Vec::new();
        let mut arrivals = 0u64;
        let start = Instant::now();
        'cycles: for c in 0..cycles {
            let lo = window + c * BATCH;
            for (name, stream) in names.iter().zip(self.streams) {
                let req = Request::InsertBatch {
                    tenant: name.clone(),
                    points: stream[lo..lo + BATCH].to_vec(),
                };
                let id = run.request();
                match wire.call(&req, "serve.request.insert_batch", id, &mut run.tracer) {
                    Ok(a) => {
                        run.round.update_us.push(a.latency.as_secs_f64() * 1e6);
                        let ok = matches!(a.reply, Reply::Ok);
                        run.ledger
                            .check(ok, || format!("INSERT_BATCH {name}: {:?}", a.reply));
                        arrivals += BATCH as u64;
                    }
                    Err(e) => {
                        run.ledger.check(false, || e);
                        break 'cycles;
                    }
                }
            }
            for t in (c % self.period..names.len()).step_by(self.period) {
                let name = &names[t];
                let req = Request::Query {
                    tenant: name.clone(),
                };
                let id = run.request();
                let fresh = match wire.call(&req, "serve.request.query", id, &mut run.tracer) {
                    Ok(a) => a,
                    Err(e) => {
                        run.ledger.check(false, || e);
                        break 'cycles;
                    }
                };
                run.round.query_ms.push(fresh.latency.as_secs_f64() * 1e3);
                let ok = matches!(&fresh.reply, Reply::Solution(s) if fair(&s.centers, &self.config.caps));
                run.ledger
                    .check(ok, || format!("QUERY {name}: {:?}", fresh.reply));
                for _ in 0..REPEATS {
                    let id = run.request();
                    match wire.call(&req, "serve.request.repeat", id, &mut run.tracer) {
                        Ok(a) => {
                            run.round.repeat_us.push(a.latency.as_secs_f64() * 1e6);
                            run.ledger.check(a.raw == fresh.raw, || {
                                format!(
                                    "repeat QUERY {name}: reply bytes differ from the fresh one"
                                )
                            });
                        }
                        Err(e) => {
                            run.ledger.check(false, || e);
                            break 'cycles;
                        }
                    }
                }
                if traced {
                    let req = Request::Stats {
                        tenant: name.clone(),
                    };
                    let id = run.request();
                    if let Ok(Answer {
                        reply: Reply::Stats(s),
                        ..
                    }) = wire.call(&req, "serve.request.stats", id, &mut run.tracer)
                    {
                        run.extras.serve.fsync_lag_us.push(s.wal_fsync_lag_us);
                    }
                }
                if t == 0 {
                    fresh0.push((lo + BATCH, fresh.raw));
                }
            }
        }
        run.end_round(kind, arrivals, start.elapsed().as_secs_f64());
        fresh0
    }

    /// Replays tenant 0's stream into an in-process oracle engine and
    /// checks every recorded fresh reply byte for byte. In round 0 also
    /// takes the ratio against `Jones` and the memory at fixed replies.
    fn check_oracle(&self, run: &mut Run, fresh0: &[(usize, Vec<u8>)], sample: bool, traced: bool) {
        let stream = &self.streams[0];
        let window = self.config.window;
        let caps = &self.config.caps;
        let mut oracle = self
            .config
            .build_engine()
            .expect("valid tenant config")
            .with_parallelism(ParallelismSpec::Sequential);
        oracle.insert_batch(stream[..window].iter().cloned());
        let mut fed = window;
        let n = fresh0.len();
        let picked =
            |k: usize| (0..self.ratio_samples).any(|i| (i + 1) * n / self.ratio_samples == k + 1);
        let mut samples = 0;
        for (k, (t, raw)) in fresh0.iter().enumerate() {
            while fed < *t {
                let req = run.request();
                let s = run.tracer.begin("core.insert", req, SpanId::NONE);
                oracle.insert(stream[fed].clone());
                run.tracer.end(s);
                fed += 1;
            }
            let req = run.request();
            let s = run.tracer.begin("core.query", req, SpanId::NONE);
            let result = oracle.query();
            run.tracer.end(s);
            let want = Reply::from_query(&result).encode().ok();
            run.ledger.check(want.as_ref() == Some(raw), || {
                format!("t0 at t={t}: reply differs from the in-process oracle")
            });
            if traced {
                let s = run.tracer.begin("core.memo", req, SpanId::NONE);
                let repeat = oracle.query();
                run.tracer.end(s);
                std::hint::black_box(repeat.is_ok());
                match &result {
                    Ok(sol) => run.extras.coreset_pts.push(sol.coreset_size as f64),
                    Err(_) => run.extras.query_errors += 1,
                }
            }
            if sample && picked(k) {
                samples += 1;
                let centers = match Reply::decode(raw) {
                    Ok(Reply::Solution(s)) => s.centers,
                    _ => Vec::new(),
                };
                // The ratio's spans belong to every traced run, as in
                // the in-process workloads.
                run.tracer.set_on(run.trace);
                let (r, dists) = approx_ratio(
                    &mut run.tracer,
                    &stream[t - window..*t],
                    caps,
                    &centers,
                    req,
                );
                run.tracer.set_on(traced);
                run.extras.radius_dists += dists;
                run.ledger.check(r.is_some(), || {
                    format!("t0 at t={t}: no ratio against Jones")
                });
                run.e2e.approx.extend(r);
                let memory = oracle.memory_stats();
                run.e2e.memory_points.push(memory.stored_points() as f64);
                run.extras.memory.push(&memory);
            }
        }
        if sample && samples != self.ratio_samples {
            run.ledger.problem(format!(
                "{samples} of {} ratio samples answered",
                self.ratio_samples
            ));
        }
        if sample {
            let mean = crate::stats::mean(&run.e2e.approx);
            if !mean.is_some_and(|m| m < crate::check::RATIO_BOUND) {
                run.ledger.problem(format!(
                    "approx_ratio {mean:?} not under {}",
                    crate::check::RATIO_BOUND
                ));
            }
        }
    }
}
