//! Functional replay against the timing engine: replaying values on
//! the software inspector reaches the same digest, commit count and
//! verdict as the timing replay and the recording, and on damaged or
//! salvaged streams it returns an answer — never a panic — that agrees
//! with the timing replay whenever the timing replay verifies.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::recover::{salvage, RecoveringSource};
use delorean::{FileSink, FileSource, LogSource, Machine, Mode, ReplayError, ReplayReport};
use delorean_isa::workload::{self, WorkloadSpec};
use proptest::prelude::*;

const MODES: [Mode; 3] = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog];

fn record_bytes(m: &Machine, w: &WorkloadSpec, seed: u64) -> Vec<u8> {
    let mut sink = FileSink::with_flush_every(Vec::new(), 4);
    m.record_to(w, seed, &mut sink);
    sink.into_inner().expect("writing to a Vec cannot fail")
}

/// Replays the stream `open` yields on both replayers.
fn both<S: LogSource>(
    m: &Machine,
    open: impl Fn() -> S,
) -> (
    Result<ReplayReport, ReplayError>,
    Result<ReplayReport, ReplayError>,
) {
    (m.replay_from(open()), m.replay_functional(open()))
}

/// Whenever the timing replay verifies, the functional replay verifies
/// too and reaches the same digest.
fn agrees_when_timing_verifies(
    timing: &Result<ReplayReport, ReplayError>,
    functional: &Result<ReplayReport, ReplayError>,
) -> Result<(), String> {
    let Ok(t) = timing else { return Ok(()) };
    if !t.deterministic {
        return Ok(());
    }
    match functional {
        Ok(f) if f.deterministic && f.stats.digest == t.stats.digest => Ok(()),
        Ok(f) => Err(format!(
            "timing replay verified but functional replay reported {:?} (digest equal: {})",
            f.divergence,
            f.stats.digest == t.stats.digest
        )),
        Err(e) => Err(format!(
            "timing replay verified but functional replay failed: {e}"
        )),
    }
}

/// The full workload catalog, all three modes: the functional replay
/// of the streamed recording has the recording's digest and commit
/// count and verifies, exactly like the timing replay.
#[test]
fn golden_catalog_replays_functionally() {
    for w in workload::catalog() {
        for mode in MODES {
            let m = Machine::builder().mode(mode).procs(4).budget(4_000).build();
            let mut sink = FileSink::with_flush_every(Vec::new(), 4);
            let recorded = m.record_to(w, 2026, &mut sink);
            let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
            let (timing, functional) = both(&m, || {
                FileSource::open(&bytes[..]).expect("pristine stream decodes")
            });
            let timing = timing.unwrap();
            let functional = functional.unwrap();
            for (what, r) in [("timing", &timing), ("functional", &functional)] {
                assert!(
                    r.deterministic,
                    "{} {mode}: {what} replay diverged: {:?}",
                    w.name, r.divergence
                );
                assert_eq!(r.stats.digest, recorded.digest, "{} {mode}: {what}", w.name);
                assert_eq!(
                    r.stats.total_commits, recorded.total_commits,
                    "{} {mode}: {what}",
                    w.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Corrupt and truncated streams: the functional replay returns
    /// (an error or a report), and agrees with the timing replay
    /// whenever the timing replay verifies.
    #[test]
    fn damaged_streams_replay_functionally(
        seed in 0u64..200,
        mode_sel in 0u8..3,
        kind in 0u8..3,
        a in 0u64..1_000_000,
        b in 1u64..256,
    ) {
        let mode = MODES[mode_sel as usize];
        let m = Machine::builder()
            .mode(mode)
            .procs(2)
            .budget(2_000)
            .chunk_size(200)
            .build();
        let pristine = record_bytes(&m, workload::by_name("fft").unwrap(), seed);
        let len = pristine.len() as u64;
        let mut damaged = pristine.clone();
        match kind {
            0 => damaged[(a % len) as usize] ^= 1 << (b % 8),
            1 => damaged.truncate((a % len) as usize),
            _ => {
                let off = (a % len) as usize;
                let end = (off + b as usize).min(damaged.len());
                for (i, byte) in damaged[off..end].iter_mut().enumerate() {
                    *byte = (a ^ b).wrapping_mul(i as u64 + 1) as u8;
                }
            }
        }
        // Streams the decoder rejects outright never reach a replayer.
        // (No early `return`: the vendored proptest runs every case in
        // one loop, so a return would skip the remaining cases.)
        if FileSource::open(&damaged[..]).is_ok() {
            let (timing, functional) = both(&m, || {
                FileSource::open(&damaged[..]).expect("decoded once, decodes again")
            });
            let agreed = agrees_when_timing_verifies(&timing, &functional);
            prop_assert!(agreed.is_ok(), "{mode} damaged stream (kind {kind}): {agreed:?}");
        }
    }

    /// Salvaged prefixes of truncated streams, replayed through
    /// `RecoveringSource`, obey the same agreement.
    #[test]
    fn salvaged_streams_replay_functionally(
        seed in 0u64..200,
        mode_sel in 0u8..3,
        cut in 0.1f64..1.0,
    ) {
        let mode = MODES[mode_sel as usize];
        let m = Machine::builder()
            .mode(mode)
            .procs(2)
            .budget(2_000)
            .chunk_size(200)
            .build();
        let pristine = record_bytes(&m, workload::by_name("fft").unwrap(), seed);
        let mut damaged = pristine.clone();
        damaged.truncate((pristine.len() as f64 * cut) as usize);
        let salvaged = salvage(&damaged)
            .ok()
            .filter(|s| RecoveringSource::prefix(s).is_some());
        if let Some(s) = salvaged {
            let (timing, functional) = both(&m, || {
                RecoveringSource::prefix(&s).expect("prefix existed a moment ago")
            });
            let agreed = agrees_when_timing_verifies(&timing, &functional);
            prop_assert!(agreed.is_ok(), "{mode} salvaged stream: {agreed:?}");
        }
    }
}
