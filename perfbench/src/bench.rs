//! Set-up, the timed operations, the layer probes and the metrics they
//! yield.

use crate::metrics::{ensure, median, tail, Checks, Outcome, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::Workload;
use delorean::inspect::ReplayInspector;
use delorean::stream::copy_recording;
use delorean::{
    index_stream, CheckpointIndex, FileSink, FileSource, IntervalCheckpoint, LogSource, Machine,
    Recording, ReplayCursor, ReplayReport, RunStats, SegmentWalker, WalkedSegment,
};
use delorean_analyze::{
    analyze_workload, deps_from_bytes, detect_races, lint_bytes, AnalysisReport, DepsOptions,
    RaceOptions, StaticOptions,
};
use delorean_compress::lz77;
use delorean_isa::layout::AddressMap;
use delorean_isa::vm::VmState;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end operations whose traced and untraced times give the
/// tracing overhead.
const TIMED_OPS: &[&str] = &[
    "record_s",
    "replay_s",
    "replay_functional_s",
    "replay_parallel_s",
    "analyze_s",
    "checkpoint_s",
    "seek_open_s",
    "seek_s",
    "window_replay_s",
];

type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut Samples, key: &'static str, secs: f64) {
    samples.entry(key).or_default().push(secs);
}

/// Runs `workload` for about `seconds` of measurement and returns its
/// metrics: end-to-end with `trace` off, per-layer with it on. Scratch
/// files live in a per-process directory under `out_dir`, removed
/// before returning; a traced run also leaves its spans there.
///
/// # Errors
///
/// Returns a description when the scratch directory cannot be made or
/// removed, when the spans cannot be written, or when a reference
/// recording cannot be replayed in software — there is then nothing to
/// check the seeks against.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let work = out_dir.join(format!("work-{}-{}", workload.name, std::process::id()));
    fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(workload, seed, seconds, trace, &work, out_dir);
    let cleaned = fs::remove_dir_all(&work);
    let outcome = result?;
    cleaned.map_err(|e| format!("removing {}: {e}", work.display()))?;
    Ok(outcome)
}

fn run_in(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut tr = Tracer::new(trace);
    let mut benches: Vec<Bench> = (0..w.runs)
        .map(|k| Bench::new(w, w.app_seed(seed, k), work, k))
        .collect();
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| benches.iter_mut().map(|b| b.set_up(&mut tr)).sum())
        .collect();
    for b in &mut benches {
        b.expect_seeks()?;
    }

    // An untraced run measures rounds back to back. A traced run
    // alternates an untraced round with a traced one plus the layer
    // probes, so both sides of the overhead see the same conditions.
    let mut plain = Samples::new();
    let mut traced = Samples::new();
    let mut quiet = Tracer::new(false);
    // At least one round; no round that would end past `seconds`,
    // judged by the mean round so far.
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        if trace {
            round_all(&mut benches, &mut quiet, &mut plain);
            round_all(&mut benches, &mut tr, &mut traced);
            for b in &mut benches {
                b.probes(&mut tr);
            }
        } else {
            round_all(&mut benches, &mut tr, &mut plain);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(rounds) > seconds {
            break;
        }
    }

    let seeks = plain.get("seek_s").map_or(&[][..], Vec::as_slice);
    if let Some((p, _, above)) = tail(seeks) {
        eprintln!(
            "perfbench: {} seed {seed}: {rounds} round(s) of {} recording(s); seek_tail_s is p{p} of {} seeks ({above} above it)",
            w.name,
            w.runs,
            seeks.len()
        );
    }
    let mut checks = Checks::default();
    for b in &benches {
        checks.add(&b.checks);
    }
    let mut values = combine(&benches);
    let outcome = if trace {
        let path = out_dir.join(format!("trace-{}-seed{seed}.jsonl", w.name));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans -> {}",
            tr.spans().len(),
            path.display()
        );
        layer_values(&mut values, &tr, &plain, &traced, w.runs);
        Outcome::new(&checks, PER_LAYER, &values)
    } else {
        values.insert("setup_s", median(&setup).unwrap_or(f64::NAN));
        for &key in TIMED_OPS {
            let xs = plain.get(key).map_or(&[][..], Vec::as_slice);
            let name = if key == "seek_s" { "seek_p50_s" } else { key };
            values.insert(name, median(xs).unwrap_or(f64::NAN));
        }
        values.insert("seek_tail_s", tail(seeks).map_or(f64::NAN, |t| t.1));
        match peak_rss_mb() {
            Ok(mb) => {
                values.insert("peak_rss_mb", mb);
            }
            Err(e) => checks.op("peak RSS", Err(e)),
        }
        Outcome::new(&checks, END_TO_END, &values)
    };
    Ok(outcome)
}

/// One round over every recording of the workload. An operation's
/// sample is its total over the recordings; seek latencies are pooled.
fn round_all(benches: &mut [Bench], tr: &mut Tracer, samples: &mut Samples) {
    let mut one = Samples::new();
    for b in benches.iter_mut() {
        b.round(tr, &mut one);
    }
    for (key, xs) in one {
        if key == "seek_s" {
            samples.entry(key).or_default().extend(xs);
        } else {
            push(samples, key, xs.iter().sum());
        }
    }
}

/// The deterministic values of all recordings: counts, sizes and
/// cycles add up; ratios and per-instruction figures are averaged.
fn combine(benches: &[Bench]) -> BTreeMap<&'static str, f64> {
    let averaged = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|&(n, u)| n == name && matches!(u, "ratio" | "chunks" | "bit/kinst"))
    };
    let mut values = BTreeMap::new();
    for b in benches {
        for (&k, &v) in &b.values {
            *values.entry(k).or_insert(0.0) += v;
        }
    }
    for (k, v) in values.iter_mut() {
        if averaged(k) {
            *v /= benches.len() as f64;
        }
    }
    values
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The architectural state a serial inspector reaches at a seek
/// target — what `state_at` must reproduce there.
struct Expected {
    gcc: u64,
    id: u64,
    vm_states: Vec<VmState>,
    chunks_done: Vec<u64>,
}

struct Bench {
    w: Workload,
    seed: u64,
    serial: Machine,
    pair: Machine,
    log: PathBuf,
    sidecar: PathBuf,
    /// The set-up recording every operation is checked against.
    reference: Option<Recording>,
    expected: Vec<Expected>,
    checks: Checks,
    /// Latest value of every deterministic count, by metric name.
    values: BTreeMap<&'static str, f64>,
}

impl Bench {
    fn new(w: Workload, seed: u64, work: &Path, k: u32) -> Self {
        Self {
            w,
            seed,
            serial: w.machine(1),
            pair: w.machine(2),
            log: work.join(format!("run{k}.dlrn")),
            sidecar: work.join(format!("run{k}.dlrnx")),
            reference: None,
            expected: Vec::new(),
            checks: Checks::default(),
            values: BTreeMap::new(),
        }
    }

    fn programs(&self) {
        let map = AddressMap::new(self.w.procs);
        black_box(self.w.spec().programs(self.w.procs, &map, self.seed));
    }

    fn reference(&self) -> &Recording {
        self.reference
            .as_ref()
            .expect("set-up made the reference recording")
    }

    fn fingerprint(&self) -> u64 {
        self.reference().digest().fingerprint()
    }

    /// Set-up: generate the programs and record the reference run in
    /// memory. Returns the seconds it took.
    fn set_up(&mut self, tr: &mut Tracer) -> f64 {
        tr.enter("setup");
        tr.leaf("isa.programs", || self.programs());
        let rec = tr.leaf("chunk.run", || self.serial.record(self.w.spec(), self.seed));
        let secs = tr.exit();
        let result = self.engine_counts(&rec.stats);
        self.checks.op("set-up record", result);
        self.reference = Some(rec);
        secs
    }

    /// Steps a serial inspector over the reference recording to every
    /// seek target and keeps the state it reaches there.
    fn expect_seeks(&mut self) -> Result<(), String> {
        let rec = self.reference();
        let total = rec.stats.total_commits;
        let mut ins = ReplayInspector::new(rec);
        let mut expected = Vec::new();
        for i in 1..=self.w.seeks {
            let gcc = total * i / (self.w.seeks + 1);
            while ins.gcc() < gcc {
                ins.step()
                    .map_err(|e| format!("reference inspection: {e}"))?
                    .ok_or("reference inspection ended early")?;
            }
            let ck = IntervalCheckpoint {
                workload: rec.workload,
                app_seed: rec.app_seed,
                n_procs: rec.n_procs,
                gcc,
                state: ins.capture(),
            };
            expected.push(Expected {
                gcc,
                id: ck.id(),
                vm_states: ck.state.vm_states,
                chunks_done: ck.state.chunks_done,
            });
        }
        self.expected = expected;
        Ok(())
    }

    /// Records the engine's deterministic counts and checks that they
    /// repeat.
    fn engine_counts(&mut self, s: &RunStats) -> Result<(), String> {
        let retired: u64 = s.digest.retired.iter().sum();
        let truncations = s.overflow_truncations + s.collision_truncations + s.uncached_truncations;
        let stall: u64 = s.stall_cycles.iter().sum();
        let token_wait = s.token.as_ref().map_or(0, |t| t.wait_token_cycles);
        let counts: [(&'static str, u64); 11] = [
            ("chunk.commits", s.total_commits),
            ("chunk.squashes", s.squashes),
            ("chunk.squashed_insts", s.squashed_insts),
            ("chunk.retired", retired),
            ("chunk.truncations", truncations),
            ("mem.traffic_bytes", s.traffic_bytes),
            ("sim.stall_cycles", stall),
            ("arbiter.grants", s.parallel.samples),
            ("arbiter.committing_sum", s.parallel.committing_sum),
            ("arbiter.token_wait_cycles", token_wait),
            ("sim_cycles", s.cycles),
        ];
        for (key, v) in counts {
            self.checks.repeat(key, v)?;
            self.values.insert(key, v as f64);
        }
        self.checks.repeat("digest", s.digest.fingerprint())?;
        let attempts = s.total_commits + s.squashes;
        self.values.insert(
            "chunk.commit_frac",
            s.total_commits as f64 / attempts as f64,
        );
        self.values.insert(
            "chunk.squashed_inst_frac",
            s.squashed_insts as f64 / (retired + s.squashed_insts) as f64,
        );
        self.values
            .insert("arbiter.avg_committing", s.parallel.avg_actual_commit());
        Ok(())
    }

    fn count(&mut self, key: &'static str, v: u64) -> Result<(), String> {
        self.checks.repeat(key, v)?;
        self.values.insert(key, v as f64);
        Ok(())
    }

    /// A replay must reproduce the reference execution exactly.
    fn check_replay(&self, what: &str, r: &ReplayReport) -> Result<(), String> {
        ensure(r.deterministic, || {
            format!(
                "{what} diverged: {}",
                r.divergence.clone().unwrap_or_default()
            )
        })?;
        ensure(r.stats.digest.fingerprint() == self.fingerprint(), || {
            format!("{what} digest fingerprint differs from the recording's")
        })
    }

    /// One round: every end-to-end operation once, in the order a user
    /// would run them, each timed and checked.
    fn round(&mut self, tr: &mut Tracer, samples: &mut Samples) {
        tr.enter("round");
        let result = self.record(tr, samples);
        self.checks.op("record", result);
        let result = self.replay(tr, samples);
        self.checks.op("replay", result);
        for jobs in [1, 2] {
            let result = self.replay_parallel(jobs, tr, samples);
            self.checks.op("parallel replay", result);
        }
        let result = self.analyze(tr, samples);
        self.checks.op("analyze", result);
        let result = self.checkpoint(tr, samples);
        self.checks.op("checkpoint", result);
        self.seek(tr, samples);
        tr.exit();
    }

    fn open_log(&self, tr: &mut Tracer) -> Result<FileSource<BufReader<File>>, String> {
        let file = File::open(&self.log).map_err(|e| format!("opening log: {e}"))?;
        tr.leaf("stream.open", || FileSource::open(BufReader::new(file)))
            .map_err(|e| format!("decoding log header: {e}"))
    }

    /// `Machine::record_to` into a `FileSink` on disk.
    fn record(&mut self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        tr.enter("op.record");
        let out = (|| {
            let file = File::create(&self.log).map_err(|e| format!("creating log: {e}"))?;
            let mut sink = FileSink::new(BufWriter::new(file));
            let stats = tr.leaf("chunk.record", || {
                self.serial.record_to(self.w.spec(), self.seed, &mut sink)
            });
            let written = sink.bytes_written();
            let writer = sink.into_inner().map_err(|e| format!("writing log: {e}"))?;
            writer
                .into_inner()
                .map_err(|e| format!("writing log: {e}"))?;
            Ok::<_, String>((stats, written))
        })();
        push(samples, "record_s", tr.exit());
        let (stats, written) = out?;
        self.engine_counts(&stats)?;
        ensure(stats.digest == *self.reference().digest(), || {
            "the recording on disk has a different digest from the set-up recording".to_string()
        })?;
        self.checks.repeat("log_bytes", written)?;
        let kiloinsts = f64::from(self.w.procs) * self.w.budget as f64 / 1000.0;
        self.values
            .insert("log_file_bits_pki", written as f64 * 8.0 / kiloinsts);
        Ok(())
    }

    /// Timing replay from a `FileSource`.
    fn replay(&mut self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        tr.enter("op.replay");
        let out = self.open_log(tr).and_then(|src| {
            tr.leaf("chunk.replay", || self.serial.replay_from(src))
                .map_err(|e| e.to_string())
        });
        push(samples, "replay_s", tr.exit());
        let report = out?;
        self.check_replay("timing replay", &report)?;
        self.checks.repeat("replay.cycles", report.stats.cycles)
    }

    /// `replay_parallel` with `jobs` workers.
    fn replay_parallel(
        &mut self,
        jobs: u32,
        tr: &mut Tracer,
        samples: &mut Samples,
    ) -> Result<(), String> {
        let (op, span, metric, machine) = if jobs == 1 {
            (
                "op.replay_functional",
                "parallel.jobs1",
                "replay_functional_s",
                &self.serial,
            )
        } else {
            (
                "op.replay_parallel",
                "parallel.jobs2",
                "replay_parallel_s",
                &self.pair,
            )
        };
        tr.enter(op);
        let out = self.open_log(tr).and_then(|src| {
            tr.leaf(span, || machine.replay_parallel(src))
                .map_err(|e| e.to_string())
        });
        push(samples, metric, tr.exit());
        let (report, spec) = out?;
        self.check_replay(&format!("replay at jobs={jobs}"), &report)?;
        if jobs == 1 {
            return self
                .checks
                .repeat("jobs1.serial_retires", spec.serial_retires);
        }
        self.count("parallel.rounds", spec.rounds)?;
        self.count("parallel.speculated_chunks", spec.speculated_chunks)?;
        self.count("parallel.conflicts", spec.conflicts)?;
        self.count("parallel.speculative_retires", spec.speculative_retires)?;
        let retires = spec.speculative_retires + spec.serial_retires;
        self.values.insert(
            "parallel.spec_retire_frac",
            spec.speculative_retires as f64 / retires.max(1) as f64,
        );
        Ok(())
    }

    /// Every analysis pass over the log, as `analyze --deps` runs them.
    fn analyze(&mut self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        tr.enter("op.analyze");
        let out = (|| {
            let bytes = tr
                .leaf("bench.read", || fs::read(&self.log))
                .map_err(|e| format!("reading log: {e}"))?;
            let lint = tr.leaf("analyze.lint", || lint_bytes(&bytes));
            let deps = tr.leaf("analyze.deps", || {
                deps_from_bytes(&bytes, &DepsOptions::default())
            });
            let source = self.open_log(tr)?;
            let meta = source.meta().ok_or("log carries no metadata")?.clone();
            let static_pass = tr.leaf("analyze.static", || {
                analyze_workload(
                    &meta.workload,
                    meta.n_procs,
                    meta.app_seed,
                    &StaticOptions::default(),
                )
            });
            let races = tr
                .leaf("analyze.races", || {
                    detect_races(source, &RaceOptions::default())
                })
                .map_err(|e| format!("race pass: {e}"))?;
            Ok::<_, String>(AnalysisReport {
                workload: meta.workload.name.to_string(),
                mode: meta.mode.to_string(),
                n_procs: meta.n_procs,
                static_pass: Some(static_pass),
                races: Some(races),
                lint: Some(lint),
                deps: Some(deps),
            })
        })();
        push(samples, "analyze_s", tr.exit());
        let report = out?;
        ensure(report.error_count() == 0, || {
            format!("analyze reported {} error(s)", report.error_count())
        })?;
        self.checks
            .repeat("analyze.warnings", report.warning_count() as u64)
    }

    /// Index build plus sidecar write, as `checkpoint --every K` does.
    fn checkpoint(&mut self, tr: &mut Tracer, samples: &mut Samples) -> Result<(), String> {
        tr.enter("op.checkpoint");
        let out = (|| {
            let bytes = tr
                .leaf("bench.read", || fs::read(&self.log))
                .map_err(|e| format!("reading log: {e}"))?;
            let index = tr
                .leaf("checkpoint.index", || index_stream(&bytes, self.w.every))
                .map_err(|e| format!("indexing: {e}"))?;
            let encoded = tr.leaf("checkpoint.encode", || index.to_bytes());
            tr.leaf("bench.write", || fs::write(&self.sidecar, &encoded))
                .map_err(|e| format!("writing sidecar: {e}"))?;
            Ok::<_, String>((
                index.entries.len() as u64,
                index.total_commits,
                encoded.len(),
            ))
        })();
        push(samples, "checkpoint_s", tr.exit());
        let (entries, commits, sidecar_bytes) = out?;
        ensure(entries == 1 + commits / self.w.every, || {
            format!(
                "{entries} checkpoint(s) over {commits} commits at interval {}",
                self.w.every
            )
        })?;
        self.count("checkpoint.entries", entries)?;
        self.count("index_bytes", sidecar_bytes as u64)?;
        self.values
            .insert("checkpoint.sidecar_bytes", sidecar_bytes as f64);
        Ok(())
    }

    /// Loads the sidecar as `replay --from` does: decode, bind to the
    /// log, open a cursor.
    fn open_cursor(&mut self, tr: &mut Tracer) -> Result<ReplayCursor<BufReader<File>>, String> {
        let encoded = tr
            .leaf("bench.read", || fs::read(&self.sidecar))
            .map_err(|e| format!("reading sidecar: {e}"))?;
        let index = tr
            .leaf("checkpoint.decode", || {
                CheckpointIndex::from_bytes(&encoded)
            })
            .map_err(|e| format!("decoding sidecar: {e}"))?;
        drop(encoded);
        let log = tr
            .leaf("bench.read", || fs::read(&self.log))
            .map_err(|e| format!("reading log: {e}"))?;
        tr.leaf("checkpoint.validate", || index.validate_against(&log))
            .map_err(|e| format!("validating sidecar: {e}"))?;
        let file = File::open(&self.log).map_err(|e| format!("opening log: {e}"))?;
        tr.leaf("checkpoint.open", || {
            ReplayCursor::open(BufReader::new(file), index)
        })
        .map_err(|e| format!("opening cursor: {e}"))
    }

    /// `state_at` at every seek target, then one window replay from
    /// near the end of the log; each is one operation.
    fn seek(&mut self, tr: &mut Tracer, samples: &mut Samples) {
        tr.enter("op.seek_open");
        let cursor = self.open_cursor(tr);
        push(samples, "seek_open_s", tr.exit());
        let mut cursor = match cursor {
            Ok(c) => c,
            Err(e) => {
                self.checks.op("seek", Err(e));
                return;
            }
        };
        let mut rollforward = 0;
        for i in 0..self.expected.len() {
            let gcc = self.expected[i].gcc;
            tr.enter("op.seek");
            let ck = tr.leaf("checkpoint.state_at", || {
                self.serial.state_at(&mut cursor, gcc)
            });
            push(samples, "seek_s", tr.exit());
            rollforward += gcc
                - cursor
                    .index()
                    .nearest_at_or_before(gcc)
                    .map_or(0, |e| e.gcc);
            let want = &self.expected[i];
            let result = ck.map_err(|e| e.to_string()).and_then(|ck| {
                ensure(
                    ck.gcc == want.gcc
                        && ck.id() == want.id
                        && ck.state.vm_states == want.vm_states
                        && ck.state.chunks_done == want.chunks_done,
                    || format!("state at commit {gcc} differs from a serial inspector's"),
                )
            });
            self.checks.op("seek", result);
        }
        let result = self.count("checkpoint.rollforward_commits", rollforward);
        self.checks.op("seek roll-forward", result);

        let total = self.reference().stats.total_commits;
        let from = total - total / 10;
        tr.enter("op.window");
        let report = tr.leaf("checkpoint.window", || {
            self.serial.replay_window(&mut cursor, from, None)
        });
        push(samples, "window_replay_s", tr.exit());
        let result = report
            .map_err(|e| e.to_string())
            .and_then(|r| self.check_replay("window replay", &r));
        self.checks.op("window replay", result);
    }

    /// Traced runs only: calls into single layers that the end-to-end
    /// operations fuse, each timed, counted and checked.
    fn probes(&mut self, tr: &mut Tracer) {
        tr.enter("probes");
        tr.leaf("isa.programs", || self.programs());
        let rec = tr.leaf("chunk.run", || self.serial.record(self.w.spec(), self.seed));
        let result = self.engine_counts(&rec.stats);
        self.checks.op("engine probe", result);
        let result = self.stream_probe(&rec, tr);
        self.checks.op("stream probe", result);
        let result = self.inspect_probe(tr);
        self.checks.op("inspect probe", result);
        tr.exit();
    }

    /// Stream encode (into memory), segment decode and the LZ77 layer
    /// on the stream's own segment payloads.
    fn stream_probe(&mut self, rec: &Recording, tr: &mut Tracer) -> Result<(), String> {
        let bytes = tr
            .leaf("stream.encode", || {
                let mut sink = FileSink::new(Vec::new());
                copy_recording(rec, &mut sink);
                sink.into_inner()
            })
            .map_err(|e| format!("encoding: {e}"))?;
        let on_disk = fs::read(&self.log).map_err(|e| format!("reading log: {e}"))?;
        ensure(bytes == on_disk, || {
            "re-encoded stream differs from the recorded file".to_string()
        })?;
        self.count("stream.file_bytes", bytes.len() as u64)?;
        let logical = rec.memory_ordering_sizes().total().compressed_bits;
        self.count("stream.logical_log_bits", logical)?;
        self.values.insert(
            "stream.file_to_logical",
            bytes.len() as f64 * 8.0 / logical.max(1) as f64,
        );

        let segments = tr.leaf("stream.decode", || walk(&bytes))?;
        self.count("stream.segments", segments)?;

        let blocks = event_blocks(&bytes, rec.n_procs)?;
        let payloads = tr
            .leaf("compress.decode", || {
                blocks
                    .iter()
                    .map(|b| lz77::Decoder::new().decode_block(b))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("decompressing a segment: {e:?}"))?;
        let packed = tr.leaf("compress.encode", || {
            payloads
                .iter()
                .map(|p| {
                    let mut enc = lz77::Encoder::new();
                    enc.push(p);
                    enc.flush_block()
                })
                .collect::<Vec<_>>()
        });
        ensure(packed.iter().eq(blocks.iter().copied()), || {
            "re-compressed segments differ from the stream's".to_string()
        })?;
        self.count(
            "compress.bytes_in",
            payloads.iter().map(|p| p.len() as u64).sum(),
        )?;
        self.count(
            "compress.bytes_out",
            blocks.iter().map(|b| b.len() as u64).sum(),
        )
    }

    /// A serial software replay of the log file to its end.
    fn inspect_probe(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut source = self.open_log(tr)?;
        let report = tr
            .leaf("inspect.run", || {
                ReplayInspector::from_source(&mut source).and_then(|mut i| i.run_to_end())
            })
            .map_err(|e| format!("inspector: {e}"))?;
        ensure(report.matches_recording, || {
            format!(
                "inspector replay differs: {}",
                report.mismatch.clone().unwrap_or_default()
            )
        })?;
        self.count("inspect.commits", report.commits)?;
        self.count("stream.checksums_verified", source.checksums_verified())
    }
}

/// Adds the span-derived per-layer metrics of a traced run to the
/// combined deterministic `values` of its `runs` recordings.
fn layer_values(
    values: &mut BTreeMap<&'static str, f64>,
    tr: &Tracer,
    plain: &Samples,
    traced: &Samples,
    runs: u32,
) {
    // `layer.call_s` is the median duration of the span `layer.call`
    // (one call covers one recording); `self.layer_s` is the layer's
    // median self time per recording and round.
    let rounds = tr.self_times("round");
    for &(name, _) in PER_LAYER {
        let Some(stem) = name.strip_suffix("_s") else {
            continue;
        };
        let m = match stem.strip_prefix("self.") {
            Some(layer) => median(
                &rounds
                    .iter()
                    .map(|r| r.get(layer).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
            None => median(&tr.durations(stem)),
        };
        if let Some(m) = m {
            values.insert(name, m);
        }
    }
    if let (Some(run), Some(&insts)) = (values.get("chunk.run_s"), values.get("chunk.retired")) {
        values.insert(
            "chunk.host_ns_per_inst",
            run * 1e9 * f64::from(runs) / insts,
        );
    }
    let total = |s: &Samples| -> f64 {
        TIMED_OPS
            .iter()
            .filter_map(|k| s.get(k).and_then(|xs| median(xs)))
            .sum()
    };
    values.insert("trace.overhead_frac", total(traced) / total(plain) - 1.0);
}

/// Walks every segment of a `.dlrn` byte stream; returns the number of
/// event segments.
fn walk(bytes: &[u8]) -> Result<u64, String> {
    let mut walker = SegmentWalker::open(bytes).map_err(|e| format!("stream header: {e}"))?;
    let (mut segments, mut trailer) = (0, false);
    loop {
        match walker
            .next_segment()
            .map_err(|e| format!("segment walk: {e}"))?
        {
            WalkedSegment::Events(_) => segments += 1,
            WalkedSegment::Trailer(_) => trailer = true,
            WalkedSegment::End => break,
        }
    }
    ensure(trailer, || "stream has no trailer".to_string())?;
    Ok(segments)
}

/// The LZ77 block of every event segment, per the `.dlrn` wire format
/// (ARCHITECTURE.md): a header `magic u32 | version u16 | fnv u64 |
/// meta_len u64 | meta`, then frames `kind u8 | body_len u64 | fnv u64
/// | body`. An event body (kind 1) is the commit count `u64`, one
/// chunk count `u64` per processor and the event count `u32`, followed
/// by the block.
fn event_blocks(bytes: &[u8], n_procs: u32) -> Result<Vec<&[u8]>, String> {
    const SEG_EVENTS: u8 = 1;
    let u64_at = |at: usize| -> Result<u64, String> {
        bytes
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
            .ok_or_else(|| format!("stream ends inside a field at byte {at}"))
    };
    let frame = |at: usize, len: u64| -> Result<usize, String> {
        usize::try_from(len)
            .ok()
            .and_then(|l| at.checked_add(l))
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| format!("frame at byte {at} overruns the stream"))
    };
    let mut at = frame(22, u64_at(14)?)?;
    let lead = 8 + 8 * n_procs as usize + 4;
    let mut blocks = Vec::new();
    while at < bytes.len() {
        let kind = bytes[at];
        let body = at + 17;
        let end = frame(body, u64_at(at + 1)?)?;
        if kind == SEG_EVENTS {
            let block = bytes
                .get(body + lead..end)
                .ok_or_else(|| format!("event segment at byte {at} is too short"))?;
            blocks.push(block);
        }
        at = end;
    }
    Ok(blocks)
}
