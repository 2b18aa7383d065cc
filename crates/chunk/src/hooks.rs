//! The mode-extension interface between the chunk engine and the
//! DeLorean recorder/replayer.

use crate::CoreId;
use delorean_isa::{Addr, Word};

/// Who is committing: a processor chunk or the DMA engine (which "acts
/// like another processor" at the arbiter, Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Committer {
    /// A processor.
    Proc(CoreId),
    /// The DMA engine.
    Dma,
}

/// Why a committed chunk ended where it did (Table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// Reached the standard (or CS-log-forced) instruction count —
    /// deterministic.
    StandardSize,
    /// Truncated before an uncached access or special system
    /// instruction — deterministic (reappears in the replay).
    Uncached,
    /// The processor reached its retired-instruction budget —
    /// deterministic end of run.
    BudgetEnd,
    /// Attempted cache overflow — **non-deterministic**, logged in the
    /// CS log.
    Overflow,
    /// Repeated chunk collision shrank the chunk — **non-deterministic**,
    /// logged in the CS log.
    Collision,
}

impl TruncationReason {
    /// Whether the truncation reappears deterministically during replay
    /// (and therefore needs no CS-log entry in OrderOnly/PicoLog).
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            TruncationReason::Overflow | TruncationReason::Collision
        )
    }
}

/// Everything the logs need to know about one commit, delivered at the
/// arbiter's grant point (the serialization point). Squashed execution
/// attempts never reach this callback, so logging from it is inherently
/// squash-safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committer the arbiter granted.
    pub committer: Committer,
    /// Per-processor logical chunk index (1-based; 0 for DMA).
    pub chunk_index: u64,
    /// Retired instructions in the chunk (0 for DMA).
    pub size: u32,
    /// Why the chunk ended.
    pub truncation: TruncationReason,
    /// Global Commit Count *after* this commit (the PicoLog "commit
    /// slot" for DMA).
    pub global_slot: u64,
    /// Interrupt delivered at this chunk's start, if any
    /// (vector, payload) — feeds the Interrupt log.
    pub interrupt: Option<(u16, Word)>,
    /// Values returned by the chunk's uncached I/O loads, in execution
    /// order — feeds the I/O log.
    pub io_values: Vec<(u16, Word)>,
    /// DMA payload for DMA commits (empty otherwise) — feeds the DMA
    /// log.
    pub dma_data: Vec<(Addr, Word)>,
    /// Cache lines the chunk accessed (read or write) — the footprint
    /// the PI-log stratifier disambiguates on (Section 4.3).
    pub access_lines: Vec<u64>,
    /// Cache lines the chunk wrote (subset of `access_lines`); a
    /// cross-processor *conflict* requires a write on one side.
    pub write_lines: Vec<u64>,
    /// The arbiter shard that granted this commit (`None` under the
    /// global arbiter and during replay, which re-serializes through
    /// the global mechanics).
    pub shard: Option<u32>,
}

impl CommitRecord {
    /// The commit's exact footprint, with its signature-domain views —
    /// what the dependence analyses consume. The engine logs
    /// `access_lines` as *all* touched lines; the footprint's read set
    /// is that full access set, matching what a hardware read
    /// signature would accumulate.
    pub fn footprint(&self) -> crate::ChunkFootprint {
        crate::ChunkFootprint::new(self.access_lines.clone(), self.write_lines.clone())
    }
}

/// One eligible pending commit request, as the arbiter policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// Who requests.
    pub committer: Committer,
    /// Arrival order at the arbiter (monotone sequence number).
    pub arrival: u64,
}

/// Arbiter state exposed to [`ExecutionHooks::next_grant`].
#[derive(Debug)]
pub struct ArbiterContext<'a> {
    /// Eligible pending requests (each is its core's oldest uncommitted
    /// chunk, with no same-core commit in flight), in arrival order.
    pub pending: &'a [PendingView],
    /// Number of processors.
    pub n_procs: u32,
    /// Committers currently in the committing phase.
    pub committing: &'a [Committer],
    /// Global Commit Count so far.
    pub total_commits: u64,
    /// Per-core flag: `true` once a core has retired its full budget
    /// and committed its last chunk (it will never request again, so
    /// round-robin policies must skip it).
    pub finished: &'a [bool],
}

impl ArbiterContext<'_> {
    /// Whether `c` has an eligible pending request.
    pub fn has_pending(&self, c: Committer) -> bool {
        self.pending.iter().any(|p| p.committer == c)
    }
}

/// One observable occurrence inside the chunk substrate, stamped with
/// the simulated cycle at which it happened.
///
/// The engine emits these through [`ExecutionHooks::on_event`] (and,
/// for compositions, [`EventObserver::on_event`]) purely as an
/// *observation* channel: no event carries a reply, so stacking any
/// number of observers cannot perturb the execution, its logs, or its
/// determinism digest. The heavyweight per-commit payloads (footprints,
/// I/O values, DMA words) stay on [`CommitRecord`], which only the mode
/// driver sees; `SubstrateEvent` carries the summary counters a tracer
/// or metrics stage needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstrateEvent {
    /// A processor opened a new logical chunk.
    ChunkStart {
        /// The processor.
        core: CoreId,
        /// Its 1-based logical chunk index.
        index: u64,
        /// Target size in instructions at open time.
        target: u32,
    },
    /// The arbiter granted a commit (the serialization point).
    Commit {
        /// Who committed.
        committer: Committer,
        /// Per-processor logical chunk index (0 for DMA).
        chunk_index: u64,
        /// Retired instructions in the chunk (0 for DMA).
        size: u32,
        /// Why the chunk ended where it did.
        truncation: TruncationReason,
        /// Global Commit Count after this commit.
        global_slot: u64,
        /// Whether an interrupt was delivered at the chunk's start.
        interrupt: bool,
        /// Number of uncached I/O loads the chunk performed.
        io_loads: u32,
        /// DMA payload words (0 for processor commits).
        dma_words: u32,
    },
    /// A device raised an interrupt towards a core (recording side;
    /// delivery shows up as `interrupt` on the corresponding commit).
    Interrupt {
        /// Target core.
        core: CoreId,
        /// Interrupt vector.
        vector: u16,
    },
    /// A device generated a DMA transfer request.
    Dma {
        /// Payload size in words.
        words: u32,
    },
    /// Chunks were squashed (conflict, early interrupt delivery, or an
    /// injected storm) and will re-execute.
    Squash {
        /// The core whose chunks were squashed.
        core: CoreId,
        /// How many in-flight chunks were discarded.
        chunks: u32,
        /// Executed instructions thrown away.
        insts: u64,
    },
    /// A streaming sink flushed a segment to its backing store. The
    /// engine never emits this; recording pipelines synthesize it when
    /// their sink reports a flush.
    SegmentFlush {
        /// Total segments flushed so far.
        segments: u64,
        /// Total bytes written to the backing store so far.
        bytes: u64,
        /// Commits covered by the stream so far.
        commits: u64,
    },
}

impl SubstrateEvent {
    /// The commit-summary event for `rec`, as the engine emits it at
    /// the grant point.
    pub fn commit_of(rec: &CommitRecord) -> Self {
        SubstrateEvent::Commit {
            committer: rec.committer,
            chunk_index: rec.chunk_index,
            size: rec.size,
            truncation: rec.truncation,
            global_slot: rec.global_slot,
            interrupt: rec.interrupt.is_some(),
            io_loads: rec.io_values.len() as u32,
            dma_words: rec.dma_data.len() as u32,
        }
    }
}

/// Decision points a DeLorean execution mode plugs into the engine.
///
/// All methods have recording-side defaults (arrival-order commits,
/// device values passed through, no forced chunk sizes), so a plain
/// BulkSC machine is `ExecutionHooks` with nothing overridden — see
/// [`BulkScHooks`].
///
/// This is the *engine-facing* trait. Compositions are built from the
/// per-concern slices — [`GrantPolicy`], [`ReplayFeed`],
/// [`EventObserver`] — fanned out by [`HookStack`].
pub trait ExecutionHooks {
    /// Picks the next pending request to grant, or `None` to wait.
    ///
    /// The returned committer must currently be pending in `ctx`,
    /// except `Committer::Dma` during replay, which the engine
    /// synthesizes from the DMA log via [`ExecutionHooks::dma_data`].
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        crate::policy::arrival(ctx)
    }

    /// Observes a commit at the grant (serialization) point.
    fn on_commit(&mut self, rec: &CommitRecord) {
        let _ = rec;
    }

    /// Replay: the forced size of `core`'s logical chunk `index`
    /// (1-based), from the CS log. Recording returns `None`.
    fn forced_chunk_size(&mut self, core: CoreId, index: u64) -> Option<u32> {
        let _ = (core, index);
        None
    }

    /// Supplies the value of the `seq`-th I/O load of `core`'s logical
    /// chunk `index`. Recording passes `device_value` through (it is
    /// logged at commit via [`CommitRecord::io_values`]); replay
    /// returns the logged value. Keying by `(core, index, seq)` makes
    /// the value stable across squash re-executions.
    fn io_load(
        &mut self,
        core: CoreId,
        index: u64,
        seq: u32,
        port: u16,
        device_value: Word,
    ) -> Word {
        let _ = (core, index, seq, port);
        device_value
    }

    /// Replay: the interrupt to deliver at the start of `core`'s
    /// logical chunk `index`, if the Interrupt log has one there.
    fn pending_interrupt(&mut self, core: CoreId, index: u64) -> Option<(u16, Word)> {
        let _ = (core, index);
        None
    }

    /// Replay: the payload of the next DMA commit (engine calls this
    /// when [`ExecutionHooks::next_grant`] returns `Committer::Dma`
    /// with no device-generated request pending).
    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        Vec::new()
    }

    /// Called once after the run drains, with the final statistics.
    /// Streaming recorders use this to flush and finalize their log
    /// sinks at the engine's completion point.
    fn on_run_end(&mut self, stats: &crate::stats::RunStats) {
        let _ = stats;
    }

    /// Observes a [`SubstrateEvent`] at simulated cycle `time`.
    /// Observation-only: the engine ignores everything about the call,
    /// so overriding it can never perturb execution.
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let _ = (time, ev);
    }
}

// ----- per-concern slices of `ExecutionHooks` ---------------------------

/// The arbiter-policy concern: who commits next.
pub trait GrantPolicy {
    /// Picks the next pending request to grant, or `None` to wait.
    /// Same contract as [`ExecutionHooks::next_grant`].
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        crate::policy::arrival(ctx)
    }
}

/// The replay-input concern: log-sourced values the engine consumes
/// while re-executing (forced chunk sizes, interrupts, I/O values, DMA
/// payloads). Recording-side drivers keep every default.
///
/// # The slot-retirement ordering invariant
///
/// Every consumer of a feed — the timing engine and the software
/// inspector alike — commits to the same contract: **log values are
/// consumed in recorded commit-slot order**. Keyed queries
/// (`forced_chunk_size`, `pending_interrupt`, and the
/// `(core, index, seq)`-addressed `io_load`) may be asked *ahead* of
/// the cursor and must answer identically until the underlying entry
/// is consumed by the commit that retires its slot; the positional
/// streams (`dma_data`, and I/O value consumption itself) advance only
/// at retirement.
pub trait ReplayFeed {
    /// Same contract as [`ExecutionHooks::forced_chunk_size`].
    fn forced_chunk_size(&mut self, core: CoreId, index: u64) -> Option<u32> {
        let _ = (core, index);
        None
    }

    /// Same contract as [`ExecutionHooks::io_load`].
    fn io_load(
        &mut self,
        core: CoreId,
        index: u64,
        seq: u32,
        port: u16,
        device_value: Word,
    ) -> Word {
        let _ = (core, index, seq, port);
        device_value
    }

    /// Same contract as [`ExecutionHooks::pending_interrupt`].
    fn pending_interrupt(&mut self, core: CoreId, index: u64) -> Option<(u16, Word)> {
        let _ = (core, index);
        None
    }

    /// Same contract as [`ExecutionHooks::dma_data`].
    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        Vec::new()
    }
}

/// The observation concern: commit records, substrate events, and the
/// end-of-run statistics. Purely passive — a stack of observers cannot
/// change what the engine does.
pub trait EventObserver {
    /// Same contract as [`ExecutionHooks::on_commit`].
    fn on_commit(&mut self, rec: &CommitRecord) {
        let _ = rec;
    }

    /// Same contract as [`ExecutionHooks::on_event`].
    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        let _ = (time, ev);
    }

    /// Same contract as [`ExecutionHooks::on_run_end`].
    fn on_run_end(&mut self, stats: &crate::stats::RunStats) {
        let _ = stats;
    }
}

/// A complete mode driver: all three concerns on one object. Blanket-
/// implemented, so any `GrantPolicy + ReplayFeed + EventObserver` is a
/// `ModeDriver` for free.
pub trait ModeDriver: GrantPolicy + ReplayFeed + EventObserver {}

impl<T: GrantPolicy + ReplayFeed + EventObserver + ?Sized> ModeDriver for T {}

/// The combinator that collapses one [`ModeDriver`] plus a stack of
/// passive [`EventObserver`]s into the single [`ExecutionHooks`] object
/// the engine drives.
///
/// Decision callbacks (`next_grant`, `forced_chunk_size`, `io_load`,
/// `pending_interrupt`, `dma_data`) go to the driver alone; observation
/// callbacks (`on_commit`, `on_event`, `on_run_end`) go to the driver
/// first, then fan out to each observer in stack order. Since
/// observers are observation-only, any permutation or stacking of them
/// leaves the execution — and therefore the recording — bit-identical.
pub struct HookStack<'a> {
    driver: &'a mut dyn ModeDriver,
    observers: Vec<&'a mut dyn EventObserver>,
}

impl<'a> HookStack<'a> {
    /// Stacks `observers` on top of `driver`.
    pub fn new(driver: &'a mut dyn ModeDriver, observers: Vec<&'a mut dyn EventObserver>) -> Self {
        HookStack { driver, observers }
    }
}

impl std::fmt::Debug for HookStack<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookStack")
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl ExecutionHooks for HookStack<'_> {
    fn next_grant(&mut self, ctx: &ArbiterContext<'_>) -> Option<Committer> {
        self.driver.next_grant(ctx)
    }

    fn on_commit(&mut self, rec: &CommitRecord) {
        self.driver.on_commit(rec);
        for obs in &mut self.observers {
            obs.on_commit(rec);
        }
    }

    fn forced_chunk_size(&mut self, core: CoreId, index: u64) -> Option<u32> {
        self.driver.forced_chunk_size(core, index)
    }

    fn io_load(
        &mut self,
        core: CoreId,
        index: u64,
        seq: u32,
        port: u16,
        device_value: Word,
    ) -> Word {
        self.driver.io_load(core, index, seq, port, device_value)
    }

    fn pending_interrupt(&mut self, core: CoreId, index: u64) -> Option<(u16, Word)> {
        self.driver.pending_interrupt(core, index)
    }

    fn dma_data(&mut self) -> Vec<(Addr, Word)> {
        self.driver.dma_data()
    }

    fn on_run_end(&mut self, stats: &crate::stats::RunStats) {
        self.driver.on_run_end(stats);
        for obs in &mut self.observers {
            obs.on_run_end(stats);
        }
    }

    fn on_event(&mut self, time: u64, ev: &SubstrateEvent) {
        self.driver.on_event(time, ev);
        for obs in &mut self.observers {
            obs.on_event(time, ev);
        }
    }
}

/// A plain BulkSC machine: chunked execution with arrival-order
/// commits and no logging. Used for the paper's `BulkSC` bar in
/// Figure 10.
#[derive(Debug, Clone, Copy, Default)]
pub struct BulkScHooks;

impl ExecutionHooks for BulkScHooks {}

impl GrantPolicy for BulkScHooks {}
impl ReplayFeed for BulkScHooks {}
impl EventObserver for BulkScHooks {}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn determinism_classification_matches_table4() {
        assert!(TruncationReason::StandardSize.is_deterministic());
        assert!(TruncationReason::Uncached.is_deterministic());
        assert!(TruncationReason::BudgetEnd.is_deterministic());
        assert!(!TruncationReason::Overflow.is_deterministic());
        assert!(!TruncationReason::Collision.is_deterministic());
    }

    #[test]
    fn context_pending_lookup() {
        let pending = [PendingView {
            committer: Committer::Proc(1),
            arrival: 0,
        }];
        let finished = [false, false];
        let ctx = ArbiterContext {
            pending: &pending,
            n_procs: 2,
            committing: &[],
            total_commits: 0,
            finished: &finished,
        };
        assert!(ctx.has_pending(Committer::Proc(1)));
        assert!(!ctx.has_pending(Committer::Proc(0)));
        assert!(!ctx.has_pending(Committer::Dma));
    }

    #[test]
    fn default_hooks_pass_io_through() {
        let mut h = BulkScHooks;
        assert_eq!(ExecutionHooks::io_load(&mut h, 0, 1, 0, 3, 77), 77);
        assert_eq!(ExecutionHooks::forced_chunk_size(&mut h, 0, 1), None);
        assert_eq!(ExecutionHooks::pending_interrupt(&mut h, 0, 1), None);
        assert!(ExecutionHooks::dma_data(&mut h).is_empty());
    }

    #[derive(Default)]
    struct CountingObserver {
        commits: u32,
        events: Vec<SubstrateEvent>,
        run_ends: u32,
    }

    impl EventObserver for CountingObserver {
        fn on_commit(&mut self, _rec: &CommitRecord) {
            self.commits += 1;
        }
        fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
            self.events.push(ev.clone());
        }
        fn on_run_end(&mut self, _stats: &crate::stats::RunStats) {
            self.run_ends += 1;
        }
    }

    fn commit_record() -> CommitRecord {
        CommitRecord {
            committer: Committer::Proc(1),
            chunk_index: 3,
            size: 120,
            truncation: TruncationReason::Overflow,
            global_slot: 9,
            interrupt: Some((2, 5)),
            io_values: vec![(1, 7), (1, 8)],
            dma_data: Vec::new(),
            access_lines: vec![4, 5],
            write_lines: vec![5],
            shard: None,
        }
    }

    #[test]
    fn hook_stack_fans_observations_out_and_decisions_to_the_driver() {
        let mut driver = BulkScHooks;
        let mut a = CountingObserver::default();
        let mut b = CountingObserver::default();
        let rec = commit_record();
        let ev = SubstrateEvent::commit_of(&rec);
        {
            let mut stack = HookStack::new(&mut driver, vec![&mut a, &mut b]);
            stack.on_commit(&rec);
            stack.on_event(17, &ev);
            // Decision calls keep the driver's defaults.
            assert_eq!(stack.io_load(0, 1, 0, 3, 77), 77);
            assert_eq!(stack.forced_chunk_size(0, 1), None);
        }
        for obs in [&a, &b] {
            assert_eq!(obs.commits, 1);
            assert_eq!(obs.events, vec![ev.clone()]);
        }
    }

    #[test]
    fn commit_event_summarizes_the_record() {
        let rec = commit_record();
        match SubstrateEvent::commit_of(&rec) {
            SubstrateEvent::Commit {
                committer,
                chunk_index,
                size,
                truncation,
                global_slot,
                interrupt,
                io_loads,
                dma_words,
            } => {
                assert_eq!(committer, Committer::Proc(1));
                assert_eq!(chunk_index, 3);
                assert_eq!(size, 120);
                assert_eq!(truncation, TruncationReason::Overflow);
                assert_eq!(global_slot, 9);
                assert!(interrupt);
                assert_eq!(io_loads, 2);
                assert_eq!(dma_words, 0);
            }
            other => panic!("expected a commit event, got {other:?}"),
        }
    }
}
