//! Checkpoint / restore for the sliding-window state.
//!
//! A streaming operator that cannot persist its state must replay up to a
//! full window of history after every restart. Since the whole point of
//! the algorithm is that its state is *small* (`O(k² log Δ (c/ε)^D)`
//! points), serializing it is cheap — this module provides a compact,
//! versioned, self-contained binary snapshot of a
//! [`FairSlidingWindow`]:
//!
//! ```
//! use fairsw_core::{FairSWConfig, FairSlidingWindow, SlidingWindowClustering};
//! use fairsw_metric::{Colored, Euclidean, EuclidPoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = FairSWConfig::builder()
//!     .window_size(50)
//!     .capacities(vec![1, 1])
//!     .build()?;
//! let mut sw = FairSlidingWindow::new(cfg, Euclidean, 0.1, 100.0)?;
//! sw.insert(Colored::new(EuclidPoint::new(vec![1.0]), 0));
//! let bytes = sw.snapshot();
//! let restored = FairSlidingWindow::restore(Euclidean, &bytes)?;
//! assert_eq!(restored.time(), sw.time());
//! # Ok(())
//! # }
//! ```
//!
//! The format is little-endian, length-prefixed throughout, and carries
//! the full configuration, so `restore` needs only the metric (the
//! distance function itself is code, not data). Hand-rolled rather than
//! serde-derived: the state contains `Arc<[f64]>` payloads and
//! `BTreeMap`/`VecDeque` families whose derived encodings would be both
//! larger and slower, and the workspace keeps its dependency surface
//! minimal (the README's Layout lists the two vendored stand-ins).
//!
//! ## Format v2: snapshots go through the arena
//!
//! Since the interned-`PointStore` refactor, point payloads are written
//! **once**, in a store section of `(arrival time, point)` pairs; the
//! per-guess families serialize only arrival times plus metadata (a
//! point's identity *is* its arrival time). `restore` re-interns the
//! store section, rebuilds the time→handle mapping, and re-acquires one
//! arena reference per family entry — so a restored window carries
//! exactly the deduplicated payload footprint of the original.

use crate::algorithm::FairSlidingWindow;
use crate::config::FairSWConfig;
use crate::guess::{CoresetEntry, GuessState};
use crate::guess_set::GuessSet;
use fairsw_metric::{EuclidPoint, Metric, PointId, PointStore};
use fairsw_stream::Lattice;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Magic + version tag of the snapshot format (v2 = interned arena).
const MAGIC: &[u8; 4] = b"FSW2";

/// Errors raised while decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the expected magic/version tag.
    BadMagic,
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// A decoded value is structurally invalid (message attached).
    Invalid(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a fairsw snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Invalid(m) => write!(f, "invalid snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Binary encoding of a point type. Implemented for [`EuclidPoint`];
/// implement it for custom point types to make their windows
/// snapshot-able.
pub trait PointCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one point from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError>;
}

impl PointCodec for EuclidPoint {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.coords().len() as u64);
        for c in self.coords() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let n = take_count(input, 8)?;
        if n > 1 << 24 {
            return Err(SnapshotError::Invalid(format!("absurd dimension {n}")));
        }
        let mut coords = Vec::with_capacity(n);
        for _ in 0..n {
            coords.push(take_f64(input)?);
        }
        Ok(EuclidPoint::new(coords))
    }
}

// ---- primitive helpers -------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if input.len() < n {
        return Err(SnapshotError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn take_u64(input: &mut &[u8]) -> Result<u64, SnapshotError> {
    let b = take_bytes(input, 8)?;
    Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn take_u32(input: &mut &[u8]) -> Result<u32, SnapshotError> {
    let b = take_bytes(input, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn take_f64(input: &mut &[u8]) -> Result<f64, SnapshotError> {
    let b = take_bytes(input, 8)?;
    Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Reads a length prefix and sanity-checks it against the bytes left:
/// every counted item occupies at least `min_item_bytes` further input,
/// so a count the buffer cannot possibly satisfy is rejected *before*
/// any allocation is sized by it (a corrupt 30-byte snapshot must not
/// trigger a multi-GiB `with_capacity`).
fn take_count(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, SnapshotError> {
    let n = take_u64(input)?;
    if n as u128 * min_item_bytes as u128 > input.len() as u128 {
        return Err(SnapshotError::Truncated);
    }
    Ok(n as usize)
}

// ---- guess-state codec -------------------------------------------------
//
// Families reference points by arrival time only; payloads live in the
// snapshot's store section. The decoder resolves times through the
// re-interned arena and re-acquires one reference per entry.

fn encode_time_map(out: &mut Vec<u8>, map: &BTreeMap<u64, PointId>) {
    put_u64(out, map.len() as u64);
    for t in map.keys() {
        put_u64(out, *t);
    }
}

fn decode_time_map<P>(
    input: &mut &[u8],
    ids: &HashMap<u64, PointId>,
    store: &mut PointStore<P>,
) -> Result<BTreeMap<u64, PointId>, SnapshotError> {
    let n = take_count(input, 8)?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let t = take_u64(input)?;
        let id = *ids
            .get(&t)
            .ok_or_else(|| SnapshotError::Invalid(format!("entry time {t} not in store")))?;
        store.acquire_owned(id);
        map.insert(t, id);
    }
    Ok(map)
}

fn encode_guess(out: &mut Vec<u8>, g: &GuessState) {
    put_f64(out, g.gamma);
    encode_time_map(out, &g.av);
    put_u64(out, g.rep_of.len() as u64);
    for (v, rep) in &g.rep_of {
        put_u64(out, *v);
        put_u64(out, *rep);
    }
    encode_time_map(out, &g.rv);
    encode_time_map(out, &g.a);
    put_u64(out, g.reps_c.len() as u64);
    for (a, per) in &g.reps_c {
        put_u64(out, *a);
        put_u64(out, per.len() as u64);
        for dq in per {
            put_u64(out, dq.len() as u64);
            for t in dq {
                put_u64(out, *t);
            }
        }
    }
    put_u64(out, g.r.len() as u64);
    for (t, e) in &g.r {
        put_u64(out, *t);
        put_u32(out, e.color);
        put_u64(out, e.attractor);
    }
}

fn decode_guess<P>(
    input: &mut &[u8],
    ids: &HashMap<u64, PointId>,
    store: &mut PointStore<P>,
    ncolors: usize,
) -> Result<GuessState, SnapshotError> {
    let gamma = take_f64(input)?;
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(SnapshotError::Invalid(format!("bad gamma {gamma}")));
    }
    let av = decode_time_map(input, ids, store)?;
    let n = take_count(input, 16)?;
    let mut rep_of = HashMap::with_capacity(n);
    for _ in 0..n {
        let v = take_u64(input)?;
        let rep = take_u64(input)?;
        rep_of.insert(v, rep);
    }
    let rv = decode_time_map(input, ids, store)?;
    let a = decode_time_map(input, ids, store)?;
    let n = take_count(input, 16)?;
    let mut reps_c = HashMap::with_capacity(n);
    for _ in 0..n {
        let at = take_u64(input)?;
        let nc = take_count(input, 8)?;
        // The insert path indexes these tables by color: a table that
        // does not span the configuration's colors would panic later.
        if nc != ncolors {
            return Err(SnapshotError::Invalid(format!(
                "repsC table spans {nc} colors, config has {ncolors}"
            )));
        }
        let mut per = Vec::with_capacity(nc);
        for _ in 0..nc {
            let len = take_count(input, 8)?;
            let mut dq = VecDeque::with_capacity(len);
            for _ in 0..len {
                dq.push_back(take_u64(input)?);
            }
            per.push(dq);
        }
        reps_c.insert(at, per);
    }
    let n = take_count(input, 20)?;
    let mut r = BTreeMap::new();
    for _ in 0..n {
        let t = take_u64(input)?;
        let color = take_u32(input)?;
        // Colors index the capacity table and the solvers' per-color
        // structures; an out-of-range color must die here, not there.
        if color as usize >= ncolors {
            return Err(SnapshotError::Invalid(format!(
                "color {color} out of range (config has {ncolors})"
            )));
        }
        let attractor = take_u64(input)?;
        let id = *ids
            .get(&t)
            .ok_or_else(|| SnapshotError::Invalid(format!("r entry time {t} not in store")))?;
        store.acquire_owned(id);
        r.insert(
            t,
            CoresetEntry {
                id,
                color,
                attractor,
            },
        );
    }
    // Cross-table invariants the insert path relies on: every live
    // v-attractor owns a representative slot and every live c-attractor
    // owns a repsC table. A flipped key byte can desynchronize two maps
    // while each stays individually well-formed — that must surface as a
    // decode error here, not as a panic on the next arrival.
    for v in av.keys() {
        if !rep_of.contains_key(v) {
            return Err(SnapshotError::Invalid(format!(
                "live v-attractor {v} lacks a representative slot"
            )));
        }
    }
    for t in a.keys() {
        if !reps_c.contains_key(t) {
            return Err(SnapshotError::Invalid(format!(
                "live c-attractor {t} lacks a repsC table"
            )));
        }
    }
    let mut g = GuessState::new(gamma);
    g.av = av;
    g.rep_of = rep_of;
    g.rv = rv;
    g.a = a;
    g.reps_c = reps_c;
    g.r = r;
    Ok(g)
}

// ---- public API --------------------------------------------------------

impl<M: Metric> FairSlidingWindow<M>
where
    M::Point: PointCodec,
{
    /// Serializes the complete algorithm state (configuration included)
    /// into a self-contained byte buffer. Each live point payload is
    /// written once — the arena's deduplication carries over to the wire.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.cfg.window_size as u64);
        put_u64(&mut out, self.cfg.capacities.len() as u64);
        for c in &self.cfg.capacities {
            put_u64(&mut out, *c as u64);
        }
        put_f64(&mut out, self.cfg.beta);
        put_f64(&mut out, self.cfg.delta);
        put_u64(&mut out, self.t);
        // Store section: (arrival time, payload) in arrival order.
        put_u64(&mut out, self.set.store.live_points() as u64);
        for (t, _, p) in self.set.store.iter() {
            put_u64(&mut out, t);
            p.encode(&mut out);
        }
        put_u64(&mut out, self.set.guesses.len() as u64);
        for g in &self.set.guesses {
            encode_guess(&mut out, g);
        }
        out
    }

    /// Reconstructs a window from a snapshot produced by
    /// [`snapshot`](Self::snapshot). Only the metric must be re-supplied
    /// (a distance function is code, not data); everything else —
    /// configuration, arrival counter, the interned arena, every
    /// per-guess family — comes from the buffer.
    pub fn restore(metric: M, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut input = bytes;
        let magic = take_bytes(&mut input, 4)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let window_size = take_u64(&mut input)? as usize;
        let ncaps = take_count(&mut input, 8)?;
        let mut capacities = Vec::with_capacity(ncaps);
        for _ in 0..ncaps {
            capacities.push(take_u64(&mut input)? as usize);
        }
        let beta = take_f64(&mut input)?;
        let delta = take_f64(&mut input)?;
        let cfg = FairSWConfig {
            window_size,
            capacities,
            beta,
            delta,
        };
        cfg.validate()
            .map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        // `validate` bounds neither `n` nor `k`; a corrupt byte in a
        // capacity or the window must not size later allocations (the
        // query path reserves `k + 1` slots).
        let k = cfg.capacities.iter().map(|&c| c as u128).sum::<u128>();
        if k > 1 << 24 {
            return Err(SnapshotError::Invalid(format!("absurd total budget {k}")));
        }
        if window_size as u128 > 1 << 48 {
            return Err(SnapshotError::Invalid(format!(
                "absurd window size {window_size}"
            )));
        }
        let t = take_u64(&mut input)?;
        // Store section: re-intern in arrival order, building the
        // time → handle mapping the family decoders resolve through.
        // Each entry needs ≥ 16 bytes (time + point-length header), so a
        // count the buffer cannot hold is refused before allocating.
        let npoints = take_count(&mut input, 16)?;
        let mut store: PointStore<M::Point> = PointStore::new();
        let mut ids: HashMap<u64, PointId> = HashMap::with_capacity(npoints);
        let mut prev_time: Option<u64> = None;
        for _ in 0..npoints {
            let pt = take_u64(&mut input)?;
            if prev_time.is_some_and(|prev| pt <= prev) {
                return Err(SnapshotError::Invalid("store times not increasing".into()));
            }
            prev_time = Some(pt);
            let p = M::Point::decode(&mut input)?;
            ids.insert(pt, store.insert(pt, p));
        }
        // A guess encodes at minimum its γ plus six length prefixes.
        let nguesses = take_count(&mut input, 56)?;
        let mut guesses = Vec::with_capacity(nguesses);
        for _ in 0..nguesses {
            guesses.push(decode_guess(
                &mut input,
                &ids,
                &mut store,
                cfg.num_colors(),
            )?);
        }
        if !input.is_empty() {
            return Err(SnapshotError::Invalid(format!(
                "{} trailing bytes",
                input.len()
            )));
        }
        let k = cfg.k();
        let lattice = Lattice::new(cfg.beta);
        // Parallelism is an execution property, not state: a restored
        // window starts sequential; re-apply `with_parallelism` to
        // restore a pool.
        Ok(FairSlidingWindow {
            metric,
            cfg,
            k,
            lattice,
            set: GuessSet { guesses, store },
            t,
            exec: crate::parallel::Exec::default(),
            scratch: Default::default(),
            memo: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SlidingWindowClustering;
    use fairsw_metric::{Colored, Euclidean};

    fn build(n_points: u64) -> FairSlidingWindow<Euclidean> {
        let cfg = FairSWConfig::builder()
            .window_size(60)
            .capacities(vec![2, 1])
            .beta(2.0)
            .delta(1.0)
            .build()
            .unwrap();
        let mut sw = FairSlidingWindow::new(cfg, Euclidean, 0.01, 1e4).unwrap();
        for i in 0..n_points {
            let x = (i as f64 * 0.618_033_988_7).fract() * 500.0;
            sw.insert(Colored::new(EuclidPoint::new(vec![x, -x]), (i % 2) as u32));
        }
        sw
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let sw = build(150);
        let bytes = sw.snapshot();
        let restored = FairSlidingWindow::restore(Euclidean, &bytes).unwrap();
        assert_eq!(restored.time(), sw.time());
        assert_eq!(restored.stored_points(), sw.stored_points());
        assert_eq!(restored.num_guesses(), sw.num_guesses());
        // The arena's deduplicated footprint survives the roundtrip.
        let (a, b) = (sw.memory_stats(), restored.memory_stats());
        assert_eq!(a.unique_points, b.unique_points);
        assert_eq!(a.payload_bytes, b.payload_bytes);
        restored.check_invariants().unwrap();
        let a = sw.query().unwrap();
        let b = restored.query().unwrap();
        assert_eq!(a.guess, b.guess);
        assert_eq!(a.coreset_size, b.coreset_size);
        assert!((a.coreset_radius - b.coreset_radius).abs() < 1e-12);
    }

    #[test]
    fn restored_window_evolves_identically() {
        let mut original = build(100);
        let bytes = original.snapshot();
        let mut restored = FairSlidingWindow::restore(Euclidean, &bytes).unwrap();
        // Continue both with the same suffix; behavior must stay in
        // lockstep (expiry, cleanup, evictions, arena reclaim are all
        // deterministic).
        for i in 100u64..260 {
            let x = (i as f64 * 0.324_717_957_2).fract() * 500.0;
            let p = Colored::new(EuclidPoint::new(vec![x, x * 2.0]), (i % 2) as u32);
            original.insert(p.clone());
            restored.insert(p);
        }
        assert_eq!(original.stored_points(), restored.stored_points());
        assert_eq!(
            original.memory_stats().unique_points,
            restored.memory_stats().unique_points
        );
        let a = original.query().unwrap();
        let b = restored.query().unwrap();
        assert_eq!(a.guess, b.guess);
        assert!((a.coreset_radius - b.coreset_radius).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_compact() {
        let sw = build(3_000);
        let bytes = sw.snapshot();
        // Interned format: every payload once plus 8-byte times per
        // entry — far below one payload per entry, let alone the raw
        // window.
        let per_entry = bytes.len() as f64 / sw.stored_points().max(1) as f64;
        assert!(per_entry < 64.0, "snapshot too fat: {per_entry} B/entry");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"np"),
            Err(SnapshotError::Truncated)
        ));
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"nope"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"XXXXYYYYZZZZ"),
            Err(SnapshotError::BadMagic)
        ));
        // The v1 (pre-arena) tag is refused, not misparsed.
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, b"FSW1AAAABBBBCCCC"),
            Err(SnapshotError::BadMagic)
        ));
        let sw = build(50);
        let mut bytes = sw.snapshot();
        bytes.truncate(bytes.len() / 2);
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes),
            Err(SnapshotError::Truncated) | Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let sw = build(50);
        let mut bytes = sw.snapshot();
        bytes.extend_from_slice(b"extra");
        assert!(matches!(
            FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    mod decoder_robustness {
        //! Property battery over the decoder's failure surface: random
        //! truncations and random single-byte corruptions of a valid
        //! snapshot must always come back as `Err(SnapshotError::..)` —
        //! never a panic, and never an allocation sized by a corrupt
        //! length prefix (`take_count` rejects counts the buffer cannot
        //! hold *before* any `with_capacity`, so a malicious few-byte
        //! buffer cannot request gigabytes; a run that violated this
        //! would abort or time out loudly here).

        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One moderately rich snapshot, built once: multiple guesses,
        /// robust families, a slid window.
        fn valid_snapshot() -> &'static [u8] {
            static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
            BYTES.get_or_init(|| build(150).snapshot())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn any_truncation_is_an_error(frac in 0.0..1.0f64) {
                let bytes = valid_snapshot();
                // Every strict prefix, including the empty one.
                let cut = ((bytes.len() as f64) * frac) as usize % bytes.len();
                let result = FairSlidingWindow::<Euclidean>::restore(
                    Euclidean,
                    &bytes[..cut],
                );
                prop_assert!(
                    result.is_err(),
                    "truncation to {cut}/{} bytes decoded",
                    bytes.len()
                );
            }

            #[test]
            fn single_byte_corruption_never_panics_and_stays_structural(
                frac in 0.0..1.0f64,
                xor in 1u8..255,
            ) {
                let mut bytes = valid_snapshot().to_vec();
                let pos = ((bytes.len() as f64) * frac) as usize % bytes.len();
                bytes[pos] ^= xor;
                // The decode must return — corrupt magic, lengths, times,
                // gammas, colors all surface as Err; a flipped coordinate
                // bit may legitimately decode. When it does decode, the
                // restored window must be fully operational (queryable),
                // not a structure with dangling handles.
                match FairSlidingWindow::<Euclidean>::restore(Euclidean, &bytes) {
                    Err(_) => {}
                    Ok(mut sw) => {
                        prop_assert_eq!(sw.time(), 150);
                        prop_assert!(sw.query().is_ok());
                        // The window must also keep streaming: colors
                        // and per-color tables were validated against
                        // the decoded configuration.
                        for i in 0..8u64 {
                            sw.insert(Colored::new(
                                EuclidPoint::new(vec![i as f64, 1.0]),
                                (i % 2) as u32,
                            ));
                        }
                        prop_assert!(sw.query().is_ok());
                    }
                }
            }

            #[test]
            fn corrupt_store_count_is_refused_before_allocating(
                count in 0u64..u64::MAX,
            ) {
                // Surgical corruption of the store-section count (offset:
                // magic 4 + window 8 + ncaps 8 + 2 caps 16 + beta/delta 16
                // + t 8 = 60). Counts the buffer cannot hold must be
                // rejected by the pre-allocation guard.
                let bytes = valid_snapshot();
                let mut evil = bytes.to_vec();
                evil[60..68].copy_from_slice(&count.to_le_bytes());
                let result = FairSlidingWindow::<Euclidean>::restore(Euclidean, &evil);
                if count as u128 * 16 > (bytes.len() - 68) as u128 {
                    prop_assert!(result.is_err(), "absurd count {count} accepted");
                }
            }
        }
    }

    #[test]
    fn point_codec_roundtrip() {
        let p = EuclidPoint::new(vec![1.5, -2.25, 1e-300, f64::MAX]);
        let mut out = Vec::new();
        p.encode(&mut out);
        let mut input = out.as_slice();
        let q = EuclidPoint::decode(&mut input).unwrap();
        assert_eq!(p, q);
        assert!(input.is_empty());
    }
}
