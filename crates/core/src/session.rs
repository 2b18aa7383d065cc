//! The composable record/replay pipeline.
//!
//! A [`Session`] is the single run loop every [`Machine`] entry point
//! drives: it wires a mode driver (a recording [`StreamRecorder`] or a
//! log-following [`Replayer`](crate::Replayer)) into the chunk engine
//! and fans the engine's typed [`SubstrateEvent`] stream out to a stack
//! of passive [`HookStage`]s — tracers, metrics collectors, test
//! probes. Stages are observation-only by construction, so stacking any
//! number of them leaves the execution, its logs, and its determinism
//! digest bit-identical (see `tests/session_pipeline.rs`).
//!
//! ```
//! use delorean::{Machine, Mode, HookStage, SubstrateEvent};
//! use delorean_isa::workload;
//!
//! #[derive(Default)]
//! struct CommitCounter(u64);
//! impl HookStage for CommitCounter {
//!     fn on_event(&mut self, _t: u64, ev: &SubstrateEvent) {
//!         if matches!(ev, SubstrateEvent::Commit { .. }) {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let m = Machine::builder().mode(Mode::OrderOnly).procs(2).budget(4_000).build();
//! let mut counter = CommitCounter::default();
//! let recording = m
//!     .session()
//!     .with_stage(&mut counter)
//!     .record(workload::by_name("fft").unwrap(), 7);
//! assert_eq!(counter.0, recording.stats.total_commits);
//! ```

use crate::checkpoint::{IntervalCheckpoint, ReplayCursor, Snapshot, SystemCheckpoint};
use crate::error::ReplayError;
use crate::inspect::ReplayInspector;
use crate::machine::{panic_silence, Machine, Recording, ReplayReport};
use crate::replayer::Replayer;
use crate::stream::{
    FileSource, LogSink, LogSource, MemorySink, StreamMeta, StreamRecorder, StreamTrailer,
};
use delorean_chunk::{
    run, run_from, ArbiterContext, CommitRecord, Committer, EventObserver, ExecutionHooks,
    GrantPolicy, HookStack, RunStats, StartState, StateDigest, SubstrateEvent,
};
use delorean_sim::RunSpec;
use std::io::{Read, Seek};

/// A passive pipeline stage stacked on a [`Session`].
///
/// Stages observe the run — they cannot steer it: the engine ignores
/// everything about an observation callback, and no stage method
/// returns a value the pipeline consumes. `on_begin` fires before the
/// engine starts (with the stream metadata the recording or replay is
/// keyed by), `on_event` for every [`SubstrateEvent`], and `on_end`
/// once with the final statistics.
pub trait HookStage {
    /// Short stable name, for diagnostics.
    fn name(&self) -> &'static str {
        "stage"
    }

    /// The run is about to start.
    fn on_begin(&mut self, meta: &StreamMeta) {
        let _ = meta;
    }

    /// A substrate event at simulated cycle `time`.
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let _ = (time, ev);
    }

    /// The run drained; `stats` are final.
    fn on_end(&mut self, stats: &RunStats) {
        let _ = stats;
    }
}

/// A [`HookStage`] that does nothing — the disabled-tracing fast path,
/// and the proptest probe for pipeline neutrality.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopStage;

impl HookStage for NoopStage {
    fn name(&self) -> &'static str {
        "noop"
    }
}

/// Adapts a [`HookStage`] to the chunk layer's [`EventObserver`] so a
/// replay [`HookStack`] can fan events out to it.
struct StageObserver<'a, 'b>(&'a mut (dyn HookStage + 'b));

impl EventObserver for StageObserver<'_, '_> {
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        self.0.on_event(time, ev);
    }

    fn on_run_end(&mut self, stats: &RunStats) {
        self.0.on_end(stats);
    }
}

/// The recording pipeline: the [`StreamRecorder`] mode driver plus the
/// stage stack, with `SegmentFlush` events synthesized from the sink's
/// flush counters after each commit.
struct RecordPipeline<'a, 'b, 'c, S: LogSink> {
    recorder: StreamRecorder<'a, S>,
    stages: &'b mut [&'c mut dyn HookStage],
    segments_seen: u64,
    commits_seen: u64,
}

impl<S: LogSink> ExecutionHooks for RecordPipeline<'_, '_, '_, S> {
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        GrantPolicy::next_grant(&mut self.recorder, ctx)
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        EventObserver::on_commit(&mut self.recorder, rec);
    }

    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        for stage in self.stages.iter_mut() {
            stage.on_event(time, ev);
        }
        // The sink flushes inside `on_commit`; the engine's commit
        // event arrives right after, so polling here publishes the
        // flush at the cycle it happened.
        if matches!(ev, SubstrateEvent::Commit { .. }) {
            self.commits_seen += 1;
            let (segments, bytes) = self.recorder.flush_stats();
            if segments > self.segments_seen {
                self.segments_seen = segments;
                let flush = SubstrateEvent::SegmentFlush {
                    segments,
                    bytes,
                    commits: self.commits_seen,
                };
                for stage in self.stages.iter_mut() {
                    stage.on_event(time, &flush);
                }
            }
        }
    }

    fn on_run_end(&mut self, stats: &RunStats) {
        EventObserver::on_run_end(&mut self.recorder, stats);
        for stage in self.stages.iter_mut() {
            stage.on_end(stats);
        }
    }
}

/// One configured record-or-replay run: the single internal pipeline
/// behind every `Machine` record/replay entry point.
///
/// Build one with [`Machine::session`], stack [`HookStage`]s with
/// [`with_stage`](Session::with_stage), then consume it with one of the
/// run methods. The `Machine` methods (`record_to`, `replay_from`, …)
/// are thin wrappers over a stage-less `Session`.
pub struct Session<'m, 's> {
    machine: &'m Machine,
    stages: Vec<&'s mut dyn HookStage>,
}

impl std::fmt::Debug for Session<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("machine", self.machine)
            .field("stages", &self.stages.len())
            .finish()
    }
}

impl<'m, 's> Session<'m, 's> {
    pub(crate) fn new(machine: &'m Machine) -> Self {
        Session {
            machine,
            stages: Vec::new(),
        }
    }

    /// Stacks `stage` on the pipeline. Stages observe events in the
    /// order they were added.
    #[must_use]
    pub fn with_stage(mut self, stage: &'s mut dyn HookStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Records one execution of `workload` seeded by `app_seed` into an
    /// in-memory [`Recording`].
    // Infallible: `record_to` always drives the sink through begin,
    // events and trailer, after which `into_recording` is `Some`.
    #[allow(clippy::expect_used)]
    pub fn record(
        self,
        workload: &delorean_isa::workload::WorkloadSpec,
        app_seed: u64,
    ) -> Recording {
        let mut sink = MemorySink::new();
        self.record_to(workload, app_seed, &mut sink);
        sink.into_recording()
            .expect("an in-memory recording always completes")
    }

    /// Records one execution of `workload`, streaming every commit into
    /// `sink` as it is granted and fanning substrate events out to the
    /// stacked stages.
    pub fn record_to<S: LogSink>(
        self,
        workload: &delorean_isa::workload::WorkloadSpec,
        app_seed: u64,
        sink: &mut S,
    ) -> RunStats {
        let m = self.machine;
        let cfg = m.recording_config(workload);
        let checkpoint = SystemCheckpoint::initial(workload, m.procs(), app_seed);
        let meta = StreamMeta {
            mode: m.mode(),
            n_procs: m.procs(),
            chunk_size: m.chunk_size(),
            budget: m.budget(),
            workload: *workload,
            app_seed,
            devices: cfg.devices,
            initial_mem_hash: checkpoint.initial_mem_hash,
            interval: None,
            arbiter: m.arbiter(),
        };
        // The machine builder already validated procs and budget.
        #[allow(clippy::expect_used)]
        let spec = RunSpec::new(*workload, m.procs(), app_seed, m.budget())
            .expect("machine builder validated the shape");
        self.run_recording(meta, &cfg, &spec, sink)
    }

    /// Records a new interval starting from a mid-execution checkpoint,
    /// streaming into `sink` — see
    /// [`Machine::record_interval_to`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::MachineMismatch`] when the checkpoint's
    /// processor count differs from this machine's.
    ///
    /// # Panics
    ///
    /// Panics if `extra_budget` is zero.
    pub fn record_interval_to<S: LogSink>(
        self,
        ck: &IntervalCheckpoint,
        extra_budget: u64,
        sink: &mut S,
    ) -> Result<RunStats, ReplayError> {
        assert!(extra_budget > 0, "extra budget must be positive");
        let m = self.machine;
        if ck.n_procs != m.procs() {
            return Err(ReplayError::MachineMismatch {
                recorded: ck.n_procs,
                replaying: m.procs(),
            });
        }
        let budget = ck.max_retired() + extra_budget;
        let cfg = m.recording_config(&ck.workload);
        let checkpoint = SystemCheckpoint::initial(&ck.workload, m.procs(), ck.app_seed);
        let meta = StreamMeta {
            mode: m.mode(),
            n_procs: m.procs(),
            chunk_size: m.chunk_size(),
            budget,
            workload: ck.workload,
            app_seed: ck.app_seed,
            devices: cfg.devices,
            initial_mem_hash: checkpoint.initial_mem_hash,
            interval: Some(ck.state.clone()),
            arbiter: m.arbiter(),
        };
        // Budget is `max_retired + extra_budget` with `extra_budget`
        // asserted positive above; the builder validated procs.
        #[allow(clippy::expect_used)]
        let spec = RunSpec::new(ck.workload, m.procs(), ck.app_seed, budget)
            .expect("machine builder validated the shape");
        Ok(self.run_recording(meta, &cfg, &spec, sink))
    }

    /// The one recording run loop: announce the stream, drive the
    /// engine through the pipeline, let the engine's `on_run_end`
    /// deliver the trailer and close out the stages.
    fn run_recording<S: LogSink>(
        mut self,
        meta: StreamMeta,
        cfg: &delorean_chunk::EngineConfig,
        spec: &RunSpec,
        sink: &mut S,
    ) -> RunStats {
        sink.begin(&meta);
        for stage in &mut self.stages {
            stage.on_begin(&meta);
        }
        let interval = meta.interval;
        let mut pipeline = RecordPipeline {
            recorder: StreamRecorder::new(meta.mode, meta.n_procs, sink),
            stages: &mut self.stages,
            segments_seen: 0,
            commits_seen: 0,
        };
        match interval {
            Some(start) => run_from(spec, cfg, &mut pipeline, start),
            None => run(spec, cfg, &mut pipeline),
        }
    }

    /// Takes the source's recording metadata and checks it against
    /// this machine's shape and mode.
    fn checked_meta<S: LogSource>(&self, source: &mut S) -> Result<StreamMeta, ReplayError> {
        let m = self.machine;
        let Some(meta) = source.take_meta() else {
            return Err(ReplayError::Source {
                detail: "log source carries no recording metadata".to_string(),
            });
        };
        if meta.n_procs != m.procs() {
            return Err(ReplayError::MachineMismatch {
                recorded: meta.n_procs,
                replaying: m.procs(),
            });
        }
        if meta.mode != m.mode() {
            return Err(ReplayError::ModeMismatch {
                recorded: meta.mode,
                replaying: m.mode(),
            });
        }
        Ok(meta)
    }

    /// Replays from a log source with an explicit replay-side timing
    /// seed — see [`Machine::replay_from_with_seed`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the source carries no metadata, the
    /// machine shape or mode does not match, or the stream turns out to
    /// be corrupt or truncated mid-replay.
    pub fn replay_from<S: LogSource>(
        self,
        mut source: S,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        let m = self.machine;
        let meta = self.checked_meta(&mut source)?;
        let cfg = m.replay_config_for(&meta.workload, meta.chunk_size, meta.devices, timing_seed);
        // The stream decoder bounds n_procs and budget before `meta`
        // exists, and this machine's shape was checked against it.
        #[allow(clippy::expect_used)]
        let spec = RunSpec::new(meta.workload, m.procs(), meta.app_seed, meta.budget)
            .expect("stream decoder validated the shape");
        let replayer = Replayer::from_source(source);
        let (mut source, stats, divergence) = self.run_replay(meta, &cfg, &spec, replayer)?;
        if let Some(e) = source.error() {
            return Err(ReplayError::Source {
                detail: e.to_string(),
            });
        }
        let trailer: StreamTrailer = source
            .finish()
            .map_err(|detail| ReplayError::Source { detail })?;
        Ok(verified_report(&trailer.stats.digest, stats, divergence))
    }

    /// Replays values, not timing: the software [`ReplayInspector`]
    /// applies the commits in recorded order, and the stacked stages
    /// observe one [`SubstrateEvent::Commit`] per commit (with the
    /// commit slot standing in for the cycle timestamp). With
    /// `stop = None` the replay runs to the end of the stream and is
    /// verified against the trailer digest; with `stop = Some(n)` it
    /// stops after `n` commits and the report's digest is the state
    /// digest at that point. The report carries no cycle counts.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Source`] when the source carries no
    /// metadata or the stream is corrupt or truncated,
    /// [`ReplayError::Diverged`] when the logs are inconsistent with
    /// the execution, and a mismatch error when the machine shape or
    /// mode does not match.
    pub fn replay_functional<S: LogSource>(
        self,
        source: S,
        stop: Option<u64>,
    ) -> Result<ReplayReport, ReplayError> {
        self.replay_functional_checked(source, stop, None)
    }

    /// [`replay_functional`](Session::replay_functional), additionally
    /// comparing the state at `stop` with `expected`.
    fn replay_functional_checked<S: LogSource>(
        mut self,
        mut source: S,
        stop: Option<u64>,
        expected: Option<StartState>,
    ) -> Result<ReplayReport, ReplayError> {
        let meta = self.checked_meta(&mut source)?;
        for stage in &mut self.stages {
            stage.on_begin(&meta);
        }
        let mut ins = ReplayInspector::with_meta(source, meta);
        let mut stats = RunStats::default();
        let mut divergence = None;
        while stop.is_none_or(|n| ins.gcc() < n) {
            let ev = match ins.step() {
                Ok(Some(ev)) => ev,
                Ok(None) => {
                    if let Some(n) = stop {
                        divergence = Some(format!(
                            "stream ended after {} commits, before commit {n}",
                            ins.gcc()
                        ));
                    }
                    break;
                }
                Err(e) => {
                    return Err(match ins.source_mut().error() {
                        Some(s) => ReplayError::Source {
                            detail: s.to_string(),
                        },
                        None => ReplayError::Diverged { detail: e.detail },
                    })
                }
            };
            match ev.committer {
                Committer::Dma => stats.dma_commits += 1,
                Committer::Proc(_) => stats.interrupts += u64::from(ev.interrupt),
            }
            let sub = ev.to_substrate();
            for stage in &mut self.stages {
                stage.on_event(ev.gcc, &sub);
            }
        }
        if let (None, Some(exp)) = (&divergence, &expected) {
            if ins.memory_words() != exp.memory.as_slice()
                || ins.vm_states() != exp.vm_states
                || ins.chunks_done() != exp.chunks_done.as_slice()
            {
                divergence = Some(format!(
                    "state after {} replayed commits differs from the checkpoint index",
                    ins.gcc()
                ));
            }
        }
        stats.total_commits = ins.gcc();
        stats.digest = ins.digest();
        for stage in &mut self.stages {
            stage.on_end(&stats);
        }
        if stop.is_some() {
            return Ok(ReplayReport {
                deterministic: divergence.is_none(),
                divergence,
                stats,
            });
        }
        let trailer = ins
            .source_mut()
            .finish()
            .map_err(|detail| ReplayError::Source { detail })?;
        Ok(verified_report(&trailer.stats.digest, stats, divergence))
    }

    /// Replays a window of a recording through a seekable
    /// [`ReplayCursor`] — see [`Machine::replay_window`] for the
    /// contract. Windows that run to the end replay on the timing
    /// engine; bounded windows (`to = Some(_)`) replay functionally,
    /// which can stop at an exact commit.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the window bounds are outside the
    /// recording, the machine shape or mode does not match, or the
    /// stream fails mid-window — byte-identical to a full replay
    /// truncated to the same window.
    pub fn replay_window<R: Read + Seek>(
        self,
        cursor: &mut ReplayCursor<R>,
        from: u64,
        to: Option<u64>,
    ) -> Result<ReplayReport, ReplayError> {
        let total = cursor.index().total_commits;
        if from > total {
            return Err(ReplayError::Diverged {
                detail: format!(
                    "recording has only {total} commits, cannot start a window at {from}"
                ),
            });
        }
        if let Some(t) = to {
            if t < from {
                return Err(ReplayError::Diverged {
                    detail: format!("window end {t} precedes window start {from}"),
                });
            }
            if t > total {
                return Err(ReplayError::Diverged {
                    detail: format!(
                        "recording has only {total} commits, cannot end a window at {t}"
                    ),
                });
            }
        }
        // Fetch the cross-check state before mutably borrowing the
        // cursor's source.
        let index = cursor.index();
        let expected_state = to
            .and_then(|t| index.entries.iter().position(|e| e.gcc == t))
            .map(|i| index.start_state(i))
            .transpose()
            .map_err(|e| ReplayError::Source {
                detail: e.to_string(),
            })?;
        let (src, start) = cursor.source_at(from).map_err(|e| ReplayError::Source {
            detail: e.to_string(),
        })?;
        if let Some(snap) = roll_forward(src, start, from)? {
            src.rebase_window(snap);
        }
        match to {
            None => {
                let seed = self.machine.replay_seed();
                self.replay_from(src, seed)
            }
            Some(t) => self.replay_functional_checked(src, Some(t - from), expected_state),
        }
    }

    /// Replays `recording` driven by a *stratified* PI log — see
    /// [`Machine::replay_stratified`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] when the machine shape or mode does not
    /// match, or the mode has no PI log.
    pub fn replay_stratified(
        self,
        recording: &Recording,
        max_per_stratum: u32,
        timing_seed: u64,
    ) -> Result<ReplayReport, ReplayError> {
        let m = self.machine;
        m.check_shape(recording)?;
        let strat = recording.stratified_pi(max_per_stratum);
        let cfg = m.replay_config_for(
            &recording.workload,
            recording.chunk_size,
            recording.devices,
            timing_seed,
        );
        let meta = StreamMeta::of_recording(recording);
        let spec = recording.run_spec();
        let replayer = Replayer::stratified(m.mode(), m.procs(), &recording.logs, &strat);
        let (_, stats, divergence) = self.run_replay(meta, &cfg, &spec, replayer)?;
        Ok(verified_report(&recording.stats.digest, stats, divergence))
    }

    /// The one replay run loop: announce the stream to the stages,
    /// stack them as observers on the replayer driver, guard the engine
    /// against log-starvation deadlocks, and hand back the driver's
    /// source plus any divergence it latched. The interval start state
    /// in `meta` moves into the engine.
    fn run_replay<S: LogSource>(
        mut self,
        mut meta: StreamMeta,
        cfg: &delorean_chunk::EngineConfig,
        spec: &RunSpec,
        mut replayer: Replayer<S>,
    ) -> Result<(S, RunStats, Option<String>), ReplayError> {
        for stage in &mut self.stages {
            stage.on_begin(&meta);
        }
        let interval = meta.interval.take();
        // A corrupt or truncated stream can starve the engine of
        // grants, which it reports by panicking ("engine deadlock");
        // surface that as a stream error rather than crashing. The
        // default panic hook would still print a backtrace before
        // `catch_unwind` recovers, so silence it around the guarded
        // run. The guard refcounts a process-global swap, so concurrent
        // replays (e.g. a verification fan-out) stay race-free.
        let outcome = {
            let mut adapters: Vec<StageObserver<'_, '_>> = self
                .stages
                .iter_mut()
                .map(|s| StageObserver(&mut **s))
                .collect();
            let observers: Vec<&mut dyn EventObserver> = adapters
                .iter_mut()
                .map(|a| a as &mut dyn EventObserver)
                .collect();
            let mut stack = HookStack::new(&mut replayer, observers);
            let _silence = panic_silence::silence();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match interval {
                Some(start) => run_from(spec, cfg, &mut stack, start),
                None => run(spec, cfg, &mut stack),
            }))
        };
        let (source, divergence) = replayer.into_parts();
        match outcome {
            Ok(stats) => Ok((source, stats, divergence)),
            Err(_) => {
                let detail = source
                    .error()
                    .map(str::to_string)
                    .or(divergence)
                    .unwrap_or_else(|| {
                        "engine deadlocked on an inconsistent log stream".to_string()
                    });
                Err(ReplayError::Source { detail })
            }
        }
    }
}

/// Rolls a checkpoint-seeked [`FileSource`] forward from the window
/// start `start` (the checkpoint's commit count) to `target` with the
/// software inspector, returning the snapshot to rebase the window on —
/// or `None` when the window already starts exactly at the checkpoint.
fn roll_forward<R: Read + Seek>(
    src: &mut FileSource<R>,
    start: u64,
    target: u64,
) -> Result<Option<Snapshot>, ReplayError> {
    if target == start {
        return Ok(None);
    }
    let mut ins = ReplayInspector::from_source(&mut *src)
        .map_err(|e| ReplayError::Diverged { detail: e.detail })?;
    while start + ins.gcc() < target {
        match ins.step() {
            Ok(Some(_)) => {}
            Ok(None) => {
                return Err(ReplayError::Diverged {
                    detail: format!(
                        "recording has only {} commits, cannot seek to {target}",
                        start + ins.gcc()
                    ),
                })
            }
            Err(e) => return Err(ReplayError::Diverged { detail: e.detail }),
        }
    }
    Ok(Some(Snapshot {
        gcc: target,
        rr_cursor: ins.rr_phase(),
        state: ins.into_state(),
    }))
}

/// The one digest-verification body every replay path funnels through:
/// a replay is deterministic iff the driver latched no divergence *and*
/// the final state digest matches the recording's. Both the streamed
/// path (trailer digest) and the in-memory/stratified path (recording
/// digest) build their [`ReplayReport`] here, so the two can never
/// drift apart again.
pub(crate) fn verified_report(
    reference: &StateDigest,
    stats: RunStats,
    divergence: Option<String>,
) -> ReplayReport {
    let mut divergence = divergence;
    if divergence.is_none() && stats.digest != *reference {
        divergence = Some(first_digest_mismatch(reference, &stats.digest));
    }
    ReplayReport {
        deterministic: divergence.is_none(),
        divergence,
        stats,
    }
}

/// Names the first differing digest component, for divergence reports.
pub(crate) fn first_digest_mismatch(rec: &StateDigest, rep: &StateDigest) -> String {
    if rec.mem_hash != rep.mem_hash {
        return "final memory contents differ".to_string();
    }
    if rec.retired != rep.retired {
        return format!(
            "retired counts differ: {:?} vs {:?}",
            rec.retired, rep.retired
        );
    }
    if rec.committed_chunks != rep.committed_chunks {
        return format!(
            "chunk counts differ: {:?} vs {:?}",
            rec.committed_chunks, rep.committed_chunks
        );
    }
    for (i, (a, b)) in rec.stream_hashes.iter().zip(&rep.stream_hashes).enumerate() {
        if a != b {
            return format!("instruction stream of processor {i} differs");
        }
    }
    "digests differ".to_string()
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::mode::Mode;
    use delorean_isa::workload;

    #[derive(Default)]
    struct EventTally {
        begins: u32,
        ends: u32,
        commits: u64,
        chunk_starts: u64,
        flushes: u64,
    }

    impl HookStage for EventTally {
        fn name(&self) -> &'static str {
            "tally"
        }
        fn on_begin(&mut self, _meta: &StreamMeta) {
            self.begins += 1;
        }
        fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
            match ev {
                SubstrateEvent::Commit { .. } => self.commits += 1,
                SubstrateEvent::ChunkStart { .. } => self.chunk_starts += 1,
                SubstrateEvent::SegmentFlush { .. } => self.flushes += 1,
                _ => {}
            }
        }
        fn on_end(&mut self, _stats: &RunStats) {
            self.ends += 1;
        }
    }

    fn machine(mode: Mode) -> Machine {
        let mut b = Machine::builder();
        b.mode(mode).procs(2).budget(4_000);
        b.build()
    }

    #[test]
    fn record_stage_sees_every_commit_and_lifecycle_call() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let mut tally = EventTally::default();
        let recording = m.session().with_stage(&mut tally).record(w, 7);
        assert_eq!(tally.begins, 1);
        assert_eq!(tally.ends, 1);
        assert_eq!(tally.commits, recording.stats.total_commits);
        assert!(tally.chunk_starts > 0, "chunk starts must be observed");
    }

    #[test]
    fn file_sink_sessions_emit_segment_flushes() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let mut tally = EventTally::default();
        let mut sink = crate::stream::FileSink::with_flush_every(Vec::new(), 2);
        m.session()
            .with_stage(&mut tally)
            .record_to(w, 7, &mut sink);
        assert!(
            tally.flushes > 0,
            "a FileSink session must surface segment flushes"
        );
    }

    #[test]
    fn replay_stages_observe_the_replayed_commits() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let recording = m.record(w, 7);
        let mut tally = EventTally::default();
        let report = m
            .session()
            .with_stage(&mut tally)
            .replay_from(crate::stream::MemorySource::of_recording(&recording), 99)
            .unwrap();
        assert!(report.deterministic);
        assert_eq!(tally.begins, 1);
        assert_eq!(tally.ends, 1);
        assert_eq!(tally.commits, report.stats.total_commits);
    }

    #[test]
    fn functional_replay_verifies_and_stops_on_request() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let recording = m.record(w, 7);
        let source = || crate::stream::MemorySource::of_recording(&recording);
        let mut tally = EventTally::default();
        let report = m
            .session()
            .with_stage(&mut tally)
            .replay_functional(source(), None)
            .unwrap();
        assert!(report.deterministic, "{:?}", report.divergence);
        assert_eq!(report.stats.digest, recording.stats.digest);
        assert_eq!(report.stats.total_commits, recording.stats.total_commits);
        assert_eq!((tally.begins, tally.ends), (1, 1));
        assert_eq!(tally.commits, recording.stats.total_commits);

        let half = recording.stats.total_commits / 2;
        let bounded = m.session().replay_functional(source(), Some(half)).unwrap();
        let mut ins = ReplayInspector::new(&recording);
        for _ in 0..half {
            ins.step().unwrap().unwrap();
        }
        assert!(bounded.deterministic);
        assert_eq!(bounded.stats.total_commits, half);
        assert_eq!(bounded.stats.digest, ins.digest());

        let (shim, spec) = m.replay_parallel(source()).unwrap();
        assert_eq!(shim.stats.digest, report.stats.digest);
        assert_eq!(spec.serial_retires, recording.stats.total_commits);
        assert_eq!(spec.speculative_retires + spec.rounds + spec.conflicts, 0);

        let other = machine(Mode::PicoLog);
        assert!(matches!(
            other.replay_functional(source()),
            Err(ReplayError::ModeMismatch { .. })
        ));
    }

    #[test]
    fn verified_report_flags_digest_drift() {
        let m = machine(Mode::OrderOnly);
        let w = workload::by_name("fft").unwrap();
        let recording = m.record(w, 7);
        let mut tampered = recording.stats.digest.clone();
        tampered.mem_hash ^= 1;
        let report = verified_report(&tampered, recording.stats.clone(), None);
        assert!(!report.deterministic);
        assert_eq!(
            report.divergence.as_deref(),
            Some("final memory contents differ")
        );
    }
}
