//! One benchmark run: its settings, what it measured, and the schedule
//! of rounds it spends its time on.
//!
//! A workload runs in **rounds**. Each round generates the workload's
//! stream from the seed, sets the system up (engine or server, tenants,
//! a full window) and then runs the timed closed loop over a fixed
//! number of arrivals. Every round of a run sees the same inputs. Rounds
//! start until the run has spent its time; a started round always runs
//! to the end of its stream. The deterministic metrics (`approx_ratio`,
//! `memory_points`) are taken at fixed query times of round 0.
//!
//! Every round replays the same operations in the same order. On the
//! test host the process's speed flips between a fast and a slow state,
//! from a fraction of a second to tens of seconds at a time, with no
//! steal time and no page faults; the slow state costs up to 1.8× per
//! operation. A median over the run then follows how long the host was
//! slow. So every latency sample is, per operation, the fastest of its
//! repetitions in the run's untraced rounds ([`crate::report`]): every
//! operation of a round, each timed at the host's best. The percentiles
//! are taken over those samples, and the throughput is a round's
//! arrivals over their sum. `setup_s` is the [`SETUP_QUANTILE`]
//! quantile of the run's set-ups for the same reason.
//!
//! An untraced run spends `seconds` of closed-loop time. A traced run
//! alternates untraced and traced rounds, `seconds / 2` each, so that
//! the tracing overhead compares like with like.

use crate::report::{EndToEnd, LayerExtras, RoundStats};
use crate::stats::{peak_rss_mb, Ledger};
use crate::trace::Tracer;
use std::path::PathBuf;

/// Set-ups a run measures at least, so that `setup_s` is a quantile of
/// several.
pub const MIN_SETUPS: usize = 10;

/// Quantile of a run's set-up times reported as `setup_s`.
pub const SETUP_QUANTILE: f64 = 0.1;

/// What a timed loop is run for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// A round of the workload, traced or not.
    Round {
        /// A traced round.
        traced: bool,
    },
    /// The traced run's serving probe: spans only, no end-to-end
    /// timings, and no share of the run's time.
    Probe,
}

/// A run's settings and everything it measured.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Closed-loop time to spend, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for files the system writes (the serving WAL).
    pub scratch: PathBuf,
    /// End-to-end measurements (untraced rounds only).
    pub e2e: EndToEnd,
    /// The latency samples of the round in progress.
    pub round: RoundStats,
    /// Per-layer observations beside the spans.
    pub extras: LayerExtras,
    /// Answer checks.
    pub ledger: Ledger,
    /// The span recorder (on during traced rounds and checks).
    pub tracer: Tracer,
    /// Closed-loop `(arrivals, seconds)` of untraced and traced rounds.
    pub phases: [(u64, f64); 2],
    /// Request identifiers for spans.
    next_request: u64,
    /// The CPUs rounds are placed on, in turn ([`crate::pin`]).
    cpus: Vec<usize>,
    /// Rounds and set-ups placed so far.
    placed: usize,
}

impl Run {
    /// A run that has measured nothing yet.
    pub fn new(seed: u64, seconds: f64, trace: bool, scratch: PathBuf, cpus: Vec<usize>) -> Self {
        Run {
            seed,
            seconds,
            trace,
            scratch,
            e2e: EndToEnd::default(),
            round: RoundStats::default(),
            extras: LayerExtras::default(),
            ledger: Ledger::default(),
            tracer: Tracer::new(false),
            phases: [(0, 0.0); 2],
            next_request: 0,
            cpus,
            placed: 0,
        }
    }

    /// Pins the calling thread, and the threads it starts, to the next
    /// CPU in turn. Called before every round and every extra set-up.
    pub fn place(&mut self) {
        if !self.cpus.is_empty() {
            let cpu = self.cpus[self.placed % self.cpus.len()];
            if !crate::pin::pin_to(cpu) {
                self.ledger.problem(format!("could not pin to CPU {cpu}"));
            }
        }
        self.placed += 1;
    }

    /// A fresh request identifier.
    #[inline]
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Closes the timed loop in progress: `arrivals` applied in `secs`
    /// seconds of closed loop. An untraced round's latencies join the
    /// end-to-end measurements; a traced round only counts toward the
    /// tracing overhead, and a probe toward nothing.
    pub fn end_round(&mut self, kind: Loop, arrivals: u64, secs: f64) {
        let round = std::mem::take(&mut self.round);
        let Loop::Round { traced } = kind else {
            return;
        };
        let phase = &mut self.phases[traced as usize];
        phase.0 += arrivals;
        phase.1 += secs;
        if !traced {
            self.e2e.add_round(&round, arrivals);
        }
    }

    /// Runs rounds until the run has spent its time; `round(run, index,
    /// traced)` runs one round.
    pub fn rounds(&mut self, mut round: impl FnMut(&mut Run, usize, bool)) {
        let phases = if self.trace { 2 } else { 1 };
        let share = self.seconds / phases as f64;
        let spent = |run: &Run, traced: bool| run.phases[traced as usize].1 >= share;
        let mut index = 0;
        loop {
            // Alternate phases in a traced run; skip one that is done.
            let mut traced = self.trace && index % 2 == 1;
            if spent(self, traced) {
                traced = self.trace && !traced;
            }
            if index > 0 && spent(self, traced) {
                break;
            }
            self.place();
            self.tracer.set_on(traced);
            round(self, index, traced);
            self.tracer.set_on(false);
            if index == 0 {
                // Later rounds only add the benchmark's own samples.
                self.e2e.peak_rss_mb = peak_rss_mb();
            }
            index += 1;
        }
    }
}
