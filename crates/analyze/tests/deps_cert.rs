//! End-to-end tests over the dependence-graph pass and its
//! replay-parallelism certificate: every catalog workload × mode must
//! verify the recorded commit order as a linear extension of the exact
//! chunk dependence DAG and emit a byte-deterministic certificate; a
//! synthetically reordered log must be rejected with an error finding;
//! a truncated stream must degrade to a `partial` certificate.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use delorean::log::PiLog;
use delorean::{serialize, ArbiterConfig, FileSink, Machine, Mode, Recording};
use delorean_analyze::{deps_from_bytes, validate_certificate, DepsOptions, DepsReport, Severity};
use delorean_chunk::Committer;
use delorean_isa::workload::{self, WorkloadSpec};
use proptest::prelude::*;

fn record(
    spec: &WorkloadSpec,
    mode: Mode,
    procs: u32,
    seed: u64,
    budget: u64,
    arbiter: ArbiterConfig,
) -> Recording {
    let mut b = Machine::builder();
    b.mode(mode).procs(procs).budget(budget).arbiter(arbiter);
    b.build().record(spec, seed)
}

fn error_count(report: &DepsReport) -> usize {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Every catalog workload, in every mode: the recorded commit order is
/// a linear extension of the exact dependence DAG (no error findings,
/// info verdict present) and the emitted certificate validates against
/// the source bytes.
#[test]
fn catalog_commit_orders_are_linear_extensions() {
    for spec in workload::catalog() {
        for mode in Mode::all() {
            let rec = record(spec, mode, 4, 11, 2_000, ArbiterConfig::Global);
            let bytes = serialize::to_bytes(&rec);
            let report = deps_from_bytes(&bytes, &DepsOptions::default());
            assert!(
                report.replay_complete,
                "{}/{mode}: replay failed",
                spec.name
            );
            assert_eq!(
                error_count(&report),
                0,
                "{}/{mode}: {:?}",
                spec.name,
                report.diagnostics
            );
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code == "linear-extension" && d.severity == Severity::Info),
                "{}/{mode}: missing linear-extension verdict",
                spec.name
            );
            let cert = report.certificate().expect("complete replay emits a cert");
            let summary = validate_certificate(&cert, Some(&bytes))
                .unwrap_or_else(|e| panic!("{}/{mode}: invalid cert: {e}", spec.name));
            assert!(!summary.partial);
            assert_eq!(summary.node_count, report.nodes.len() as u64);
        }
    }
}

/// Swapping two adjacent, exactly-conflicting PI entries of different
/// processors produces a log whose commit order is *not* a linear
/// extension of the dependence DAG — the pass must flag it with a
/// [`Severity::Error`] finding (either the linear-extension verdict or
/// a replay failure), never accept it.
#[test]
fn reordered_conflicting_commits_are_rejected() {
    let spec = workload::by_name("radix").expect("radix is in the catalog");
    let rec = record(spec, Mode::OrderOnly, 4, 11, 4_000, ArbiterConfig::Global);
    let entries: Vec<Committer> = rec.logs.pi.iter().collect();
    let conflicts = |i: usize, j: usize| {
        let hit = |w: &[u64], a: &[u64]| w.iter().any(|l| a.binary_search(l).is_ok());
        hit(&rec.logs.pi_write_footprints[i], &rec.logs.pi_footprints[j])
            || hit(&rec.logs.pi_write_footprints[j], &rec.logs.pi_footprints[i])
    };
    let mut rejected = false;
    let mut tried = 0;
    for i in 0..entries.len().saturating_sub(1) {
        // Only cross-processor swaps keep each per-processor stream
        // well-formed (chunk indices are assigned in per-proc order).
        let (Committer::Proc(a), Committer::Proc(b)) = (entries[i], entries[i + 1]) else {
            continue;
        };
        if a == b || !conflicts(i, i + 1) || tried >= 8 {
            continue;
        }
        tried += 1;
        let mut reordered = rec.clone();
        let mut pi = PiLog::new(rec.n_procs);
        for k in 0..entries.len() {
            let k = match k {
                k if k == i => i + 1,
                k if k == i + 1 => i,
                k => k,
            };
            pi.push(entries[k]);
        }
        reordered.logs.pi = pi;
        reordered.logs.pi_footprints.swap(i, i + 1);
        reordered.logs.pi_write_footprints.swap(i, i + 1);
        let bytes = serialize::to_bytes(&reordered);
        let report = deps_from_bytes(&bytes, &DepsOptions::default());
        if error_count(&report) >= 1 {
            rejected = true;
            break;
        }
    }
    assert!(tried > 0, "radix must have adjacent conflicting commits");
    assert!(
        rejected,
        "no swapped conflicting pair was flagged in {tried} attempt(s)"
    );
}

/// A truncated multi-segment stream degrades gracefully: the pass
/// builds the graph over the salvaged prefix, marks the certificate
/// `partial` with the lost ranges, and the certificate still validates.
#[test]
fn truncated_streams_yield_partial_certificates() {
    let spec = workload::by_name("radix").expect("radix is in the catalog");
    let machine = Machine::builder()
        .mode(Mode::OrderOnly)
        .procs(4)
        .budget(4_000)
        .chunk_size(500)
        .build();
    let mut sink = FileSink::with_flush_every(Vec::new(), 8);
    machine.record_to(spec, 11, &mut sink);
    let bytes = sink.into_inner().expect("writing to a Vec cannot fail");
    let cut = bytes.len() * 3 / 4;
    let report = deps_from_bytes(&bytes[..cut], &DepsOptions::default());
    assert!(report.partial, "{:?}", report.diagnostics);
    assert!(!report.lost_ranges.is_empty());
    assert!(!report.nodes.is_empty(), "prefix contributes a graph");
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == "deps-partial" && d.severity == Severity::Warning));
    let cert = report.certificate().expect("partial replays still certify");
    let summary = validate_certificate(&cert, Some(&bytes[..cut])).expect("cert validates");
    assert!(summary.partial);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Across sampled workload/mode/seed/topology points: the pass
    /// accepts the recording (linear extension holds) and certificate
    /// emission is byte-identical across two independent runs.
    #[test]
    fn certificates_are_byte_deterministic(
        workload_idx in 0usize..workload::catalog().len(),
        mode_tag in 0u8..3,
        seed in 0u64..1000,
        procs in 2u32..5,
        sharded in proptest::bool::ANY,
    ) {
        let mode = [Mode::OrderSize, Mode::OrderOnly, Mode::PicoLog][mode_tag as usize];
        let arbiter = if sharded {
            ArbiterConfig::Sharded { shards: 4 }
        } else {
            ArbiterConfig::Global
        };
        let spec = &workload::catalog()[workload_idx];
        let rec = record(spec, mode, procs, seed, 2_000, arbiter);
        let bytes = serialize::to_bytes(&rec);
        let a = deps_from_bytes(&bytes, &DepsOptions::default());
        let b = deps_from_bytes(&bytes, &DepsOptions::default());
        prop_assert_eq!(error_count(&a), 0, "{:?}", a.diagnostics);
        let cert_a = a.certificate().expect("complete replay emits a cert");
        let cert_b = b.certificate().expect("complete replay emits a cert");
        prop_assert_eq!(&cert_a, &cert_b, "certificate must be byte-deterministic");
        prop_assert!(validate_certificate(&cert_a, Some(&bytes)).is_ok());
    }
}
