//! The chunk-parallel replay executor.
//!
//! Replay in DeLorean is synchronized by exactly one thing: the total
//! order of chunk commits the log records. Nothing forces the chunks
//! themselves to *execute* serially — two chunks whose footprints do
//! not conflict produce the same state in either execution order — so
//! this module re-executes chunks from different processors
//! concurrently and **retires them strictly in the recorded slot
//! order**, validating every speculative result against the writes that
//! actually landed since it was computed.
//!
//! # How a round works
//!
//! 1. **Freeze.** Each worker keeps a private *replica* of committed
//!    memory, brought up to the freeze image by replaying the delta of
//!    writes retired since the previous round (the first round clones
//!    the image outright). Per-processor VMs are cloned, and for every
//!    unfinished processor the next few chunks' log lookups (CS-forced
//!    sizes, pending interrupts) are prefetched serially.
//! 2. **Speculate.** A private work-stealing pool (the
//!    `delorean-bench` sweep-pool idiom: per-worker deques seeded
//!    round-robin, steal from the back of the fullest victim) executes
//!    each processor's chain of upcoming chunks directly against the
//!    worker's replica — plain vector-indexed loads and stores, with an
//!    undo log restoring the replica to the freeze image when the chain
//!    ends — collecting per-chunk read and write line lists and a
//!    buffered write list. A chunk that performs uncached I/O is
//!    discarded on the spot — I/O values must be consumed from the log
//!    in retirement order, so I/O chunks only ever execute in-order.
//! 3. **Retire.** Back on one thread, commits retire in the recorded
//!    order. A speculated chunk is accepted iff it is the processor's
//!    next logical chunk, its prefetched log entries still match, and
//!    its read signature does not intersect the writes retired by
//!    *other* committers since the freeze. Software replay keeps the
//!    signatures *exact* (sets of cache-line numbers, where the
//!    hardware substrate uses Bloom-encoded
//!    [`Signature`](delorean_mem::Signature)s): a real conflict can
//!    never slip through, and — unlike a 2048-bit Bloom filter, which
//!    saturates at DeLorean's 1000–2000-instruction chunk sizes — the
//!    check never cries wolf and squanders the speculation either. On
//!    acceptance its buffered writes are applied in order; on any
//!    conflict or mismatch the chain is dropped and the chunk —
//!    like every DMA transfer and every I/O chunk — is re-executed
//!    in-order against live state. Correctness therefore never depends
//!    on speculation succeeding.
//!
//! With `jobs = 1` the executor never speculates and every commit takes
//! the in-order path; the parallel path funnels through the *same*
//! retirement code, which is what makes the replay digest, verdict and
//! error byte-identical at every job count (pinned by the
//! jobs-invariance proptest in `tests/parallel_replay.rs`).
//!
//! A validated dependence certificate (`analyze --deps --cert`) can
//! seed [`DependenceHints`]: for a commit slot whose transitive DAG
//! ancestors all retired before the chain's freeze point, the signature
//! intersection check is provably redundant and is skipped.
//!
//! The executor replays *values*, not timing: the returned
//! [`RunStats`] carries the architectural
//! digest and commit counters, and zeroes for cycle-level fields.

use crate::chunkrun::run_chunk;
use crate::error::ReplayError;
use crate::mode::Mode;
use crate::session::HookStage;
use crate::stream::{LogSource, StreamMeta};
use delorean_chunk::{
    Committer, ParallelStats, RunStats, StateDigest, SubstrateEvent, TruncationReason,
};
use delorean_isa::layout::AddressMap;
use delorean_isa::{Addr, DataMemory, IoBus, Program, Vm, Word};
use delorean_mem::{line_of, Memory};
use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Options for the chunk-parallel replay executor.
#[derive(Debug, Clone, Default)]
pub struct ParallelReplayOptions {
    /// Worker threads re-executing chunks speculatively. `0` and `1`
    /// both mean fully in-order replay (no speculation).
    pub jobs: u32,
    /// Chunks speculated ahead per processor per round (`0` uses the
    /// default lookahead of 8).
    pub depth: u32,
    /// Certificate-derived independence hints; `None` replays with
    /// signature conflict checks only.
    pub hints: Option<DependenceHints>,
}

impl ParallelReplayOptions {
    /// Options for `jobs` workers with the default lookahead and no
    /// hints.
    pub fn with_jobs(jobs: u32) -> Self {
        Self {
            jobs,
            ..Self::default()
        }
    }

    fn depth(&self) -> u64 {
        if self.depth == 0 {
            8
        } else {
            u64::from(self.depth)
        }
    }
}

/// What the speculation machinery did during one parallel replay.
///
/// Every field is a pure function of the log stream and the options
/// (never of thread timing), so these counters are safe to assert on
/// and to persist in benchmark baselines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Speculation rounds (freeze → speculate → retire cycles).
    pub rounds: u64,
    /// Chunks executed speculatively (whether or not they retired).
    pub speculated_chunks: u64,
    /// Commits retired directly from a validated speculative result.
    pub speculative_retires: u64,
    /// Commits re-executed in-order (DMA, I/O chunks, conflicts, and
    /// every commit when `jobs <= 1`).
    pub serial_retires: u64,
    /// Speculative results rejected by a read/write signature
    /// intersection.
    pub conflicts: u64,
    /// Signature checks skipped because a dependence certificate proved
    /// the slot's ancestors had already retired.
    pub hint_skips: u64,
    /// Speculation chains lost to a worker panic (the affected commits
    /// simply fell back to in-order execution).
    pub worker_losses: u64,
}

/// Per-slot independence facts distilled from a replay-parallelism
/// certificate (see `delorean-analyze`'s dependence pass).
///
/// For commit slot `v`, the hint records the latest global commit count
/// by which every transitive DAG ancestor of `v` has retired. When a
/// speculation round froze at or after that point, slot `v`'s inputs
/// were all committed before the chain executed, so the retirement-time
/// signature check is provably redundant. Hints are an optimization
/// only: chain continuity, log-entry revalidation and in-order
/// retirement still apply, so a stale or truncated hint set degrades
/// speed, never correctness.
#[derive(Debug, Clone, Default)]
pub struct DependenceHints {
    /// `ready_at[v-1]` = the global commit count at which every
    /// transitive ancestor of 1-based slot `v` has retired.
    ready_at: Vec<u64>,
}

impl DependenceHints {
    /// Builds hints from a dependence DAG over `n_slots` commits given
    /// as `(earlier_slot, later_slot)` edges (1-based commit slots, as
    /// a certificate's reduced edge list encodes them). Edges outside
    /// `1..=n_slots` or not satisfying `earlier < later` are ignored.
    pub fn from_edges(n_slots: u64, edges: &[(u64, u64)]) -> Self {
        let n = usize::try_from(n_slots).unwrap_or(usize::MAX);
        let mut ready_at = vec![0u64; n];
        let mut es: Vec<(u64, u64)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u >= 1 && u < v && v <= n_slots)
            .collect();
        // Processing edges in increasing later-slot order makes each
        // predecessor's own threshold final before it is consumed, so
        // one pass computes the transitive-ancestor maximum.
        es.sort_unstable_by_key(|&(u, v)| (v, u));
        for (u, v) in es {
            let through = ready_at[(u - 1) as usize].max(u);
            let slot = &mut ready_at[(v - 1) as usize];
            *slot = (*slot).max(through);
        }
        Self { ready_at }
    }

    /// Number of commit slots the hints cover.
    pub fn len(&self) -> usize {
        self.ready_at.len()
    }

    /// Whether the hint set covers no slots at all.
    pub fn is_empty(&self) -> bool {
        self.ready_at.is_empty()
    }

    /// Whether slot `slot` (1-based) is proven independent of
    /// everything retired after global commit count `gcc`.
    fn independent_by(&self, slot: u64, gcc: u64) -> bool {
        slot >= 1
            && self
                .ready_at
                .get((slot - 1) as usize)
                .is_some_and(|&r| r <= gcc)
    }
}

/// Sorts and deduplicates a chunk's touched-line list. The executor's
/// signatures are *exact* sets of cache-line numbers — the software
/// analog of the substrate's Bloom
/// [`Signature`](delorean_mem::Signature), but with neither false
/// negatives *nor* false positives — a Bloom filter sized for hardware
/// saturates at DeLorean's chunk sizes and would reject nearly every
/// speculation as a phantom conflict. Lines are gathered as flat lists
/// (one push per access) and canonicalized once per chunk here, which
/// keeps the speculation hot path free of per-access hashing.
fn dedup_lines(mut lines: Vec<u64>) -> Vec<u64> {
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Whether any of a chunk's touched lines appears in a foreign write
/// set accumulated since the freeze.
fn hits(lines: &[u64], foreign: &HashSet<u64>) -> bool {
    !foreign.is_empty() && lines.iter().any(|l| foreign.contains(l))
}

/// One speculatively executed chunk, parked until its retirement slot.
struct SpecChunk {
    /// Logical chunk index the element was speculated as.
    index: u64,
    /// CS-forced size observed at speculation time (revalidated at
    /// retirement).
    forced: Option<u32>,
    /// Interrupt observed at speculation time (revalidated at
    /// retirement).
    interrupt: Option<(u16, Word)>,
    size: u32,
    truncation: TruncationReason,
    /// Cache lines the chunk read, sorted and deduplicated.
    read_lines: Vec<u64>,
    /// Cache lines the chunk wrote, sorted and deduplicated.
    write_lines: Vec<u64>,
    /// Every store the chunk performed, in program order.
    writes: Vec<(Addr, Word)>,
    /// The processor's architectural state after the chunk.
    end_vm: Vm,
    /// Divergence the chunk latched (an interrupt logged against a
    /// chunk that starts inside a handler).
    divergence: Option<String>,
}

/// A prefetched log lookup for one upcoming chunk.
#[derive(Debug, Clone, Copy)]
struct PrefetchedChunk {
    index: u64,
    forced: Option<u32>,
    interrupt: Option<(u16, Word)>,
}

/// One processor's speculation work item for a round.
struct ChainTask {
    core: usize,
    vm: Vm,
    entries: Vec<PrefetchedChunk>,
}

/// Chain-speculation data memory over a worker's private replica of the
/// committed image.
///
/// Loads and stores go straight to the replica — plain vector indexing,
/// the speculation hot path — while an undo log records every
/// overwritten word so [`ChainMem::rollback`] can restore the replica
/// to the freeze image when the chain ends. Touched lines and stores
/// are gathered as flat lists and canonicalized once per chunk by
/// [`ChainMem::take_element`], not once per access.
struct ChainMem<'a> {
    mem: &'a mut Memory,
    undo: Vec<(Addr, Word)>,
    read_lines: Vec<u64>,
    write_lines: Vec<u64>,
    writes: Vec<(Addr, Word)>,
}

impl<'a> ChainMem<'a> {
    fn new(mem: &'a mut Memory) -> Self {
        Self {
            mem,
            undo: Vec::new(),
            read_lines: Vec::new(),
            write_lines: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Takes the current chunk's deduplicated footprint and buffered
    /// writes. The replica keeps the chunk's stores, so the chain's
    /// next chunk reads its predecessor's values.
    fn take_element(&mut self) -> (Vec<u64>, Vec<u64>, Vec<(Addr, Word)>) {
        (
            dedup_lines(std::mem::take(&mut self.read_lines)),
            dedup_lines(std::mem::take(&mut self.write_lines)),
            std::mem::take(&mut self.writes),
        )
    }

    /// Restores the replica to the freeze image by unwinding the undo
    /// log, newest write first.
    fn rollback(self) {
        let Self { mem, undo, .. } = self;
        for &(addr, old) in undo.iter().rev() {
            mem.store(addr, old);
        }
    }
}

impl DataMemory for ChainMem<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        self.read_lines.push(line_of(addr));
        self.mem.load(addr)
    }

    fn store(&mut self, addr: Addr, value: Word) {
        self.undo.push((addr, self.mem.peek(addr)));
        self.write_lines.push(line_of(addr));
        self.writes.push((addr, value));
        self.mem.store(addr, value);
    }
}

/// Speculative I/O bus: any uncached load poisons the element, because
/// logged I/O values must be consumed in retirement order.
#[derive(Default)]
struct SpecIo {
    hit: bool,
}

impl IoBus for SpecIo {
    fn io_load(&mut self, _port: u16) -> Word {
        self.hit = true;
        0
    }
    fn io_store(&mut self, _port: u16, _value: Word) {}
}

/// In-order data memory. When speculation is live (`jobs > 1`) it
/// additionally collects the chunk's write lines — so retired in-order
/// chunks invalidate in-flight chains the same way retired speculative
/// chunks do — and its stores, which sync the worker replicas at the
/// next freeze. With `jobs <= 1` it is a transparent passthrough.
struct TrackedMem<'a> {
    mem: &'a mut Memory,
    track: bool,
    write_lines: Vec<u64>,
    writes: Vec<(Addr, Word)>,
}

impl DataMemory for TrackedMem<'_> {
    fn load(&mut self, addr: Addr) -> Word {
        self.mem.load(addr)
    }
    fn store(&mut self, addr: Addr, value: Word) {
        if self.track {
            self.write_lines.push(line_of(addr));
            self.writes.push((addr, value));
        }
        self.mem.store(addr, value);
    }
}

/// In-order I/O bus feeding logged values back, latching the first
/// miss as a divergence exactly like the engine's replay feed.
struct SourceIo<'a, S: LogSource> {
    source: &'a mut S,
    core: u32,
    index: u64,
    seq: u32,
    miss: Option<(u32, u16)>,
}

impl<S: LogSource> IoBus for SourceIo<'_, S> {
    fn io_load(&mut self, port: u16) -> Word {
        let v = self.source.io_value(self.core, self.index, self.seq);
        let seq = self.seq;
        self.seq += 1;
        match v {
            Some(v) => v,
            None => {
                if self.miss.is_none() {
                    self.miss = Some((seq, port));
                }
                0
            }
        }
    }
    fn io_store(&mut self, _port: u16, _value: Word) {}
}

/// Event fields of one retired commit, for the stage fan-out.
struct RetiredCommit {
    committer: Committer,
    chunk_index: u64,
    size: u32,
    truncation: TruncationReason,
    interrupt: bool,
    io_loads: u32,
    dma_words: u32,
}

/// The executor proper. Built by [`Session::replay_parallel`]
/// (crate::Session) after the metadata checks pass.
pub(crate) struct Executor<'o, S: LogSource> {
    source: S,
    opts: &'o ParallelReplayOptions,
    mode: Mode,
    n_procs: u32,
    budget: u64,
    chunk_size: u32,
    memory: Memory,
    vms: Vec<Vm>,
    programs: Vec<Program>,
    chunks_done: Vec<u64>,
    rr_cursor: u32,
    gcc: u64,
    divergence: Option<String>,
    interrupts: u64,
    dma_commits: u64,
    overflow_truncations: u64,
    uncached_truncations: u64,
    size_sum: u64,
    proc_commits: u64,
    spec: SpeculationStats,
    /// Whether speculation bookkeeping (write lines, replica deltas) is
    /// live; false exactly when `jobs <= 1`.
    tracking: bool,
    /// Per-worker replicas of committed memory, kept at the previous
    /// freeze image between rounds. `None` until first use and after a
    /// worker panic left a replica's contents unknown.
    replicas: Vec<Option<Memory>>,
    /// Every write retired since the last replica sync, in retirement
    /// order. Only populated while `tracking`.
    delta: Vec<(Addr, Word)>,
}

impl<'o, S: LogSource> Executor<'o, S> {
    /// Reconstructs the replay start state from the stream metadata —
    /// the same derivation the serial inspector performs.
    pub(crate) fn new(meta: StreamMeta, source: S, opts: &'o ParallelReplayOptions) -> Self {
        let n_procs = meta.n_procs;
        let map = AddressMap::new(n_procs);
        let programs = meta.workload.programs(n_procs, &map, meta.app_seed);
        let mut vms: Vec<Vm> = (0..n_procs)
            .map(|t| {
                let mut vm = Vm::new(t, &map);
                vm.set_pc(programs[t as usize].entry());
                vm
            })
            .collect();
        let mut chunks_done = vec![0; n_procs as usize];
        let memory = match meta.interval {
            Some(start) => {
                for (vm, st) in vms.iter_mut().zip(&start.vm_states) {
                    vm.restore(st);
                }
                chunks_done.copy_from_slice(&start.chunks_done);
                Memory::from_image(start.memory)
            }
            None => Memory::new(map.total_words()),
        };
        // PicoLog replays resumed mid-round must restart the
        // round-robin cursor at the first processor still at the
        // minimum chunk count (see the serial inspector). A source
        // seeked to a checkpoint carries the phase explicitly and
        // overrides the derivation.
        let rr_cursor = source.resume_phase().unwrap_or_else(|| {
            chunks_done
                .iter()
                .copied()
                .min()
                .and_then(|lo| chunks_done.iter().position(|&c| c == lo))
                .map_or(0, |p| p as u32)
        });
        Self {
            source,
            opts,
            mode: meta.mode,
            n_procs,
            budget: meta.budget,
            chunk_size: meta.chunk_size,
            memory,
            vms,
            programs,
            chunks_done,
            rr_cursor,
            gcc: 0,
            divergence: None,
            interrupts: 0,
            dma_commits: 0,
            overflow_truncations: 0,
            uncached_truncations: 0,
            size_sum: 0,
            proc_commits: 0,
            spec: SpeculationStats::default(),
            tracking: opts.jobs > 1,
            replicas: vec![None; opts.jobs.min(n_procs).max(1) as usize],
            delta: Vec::new(),
        }
    }

    fn diverge(&mut self, msg: String) {
        if self.divergence.is_none() {
            self.divergence = Some(msg);
        }
    }

    fn finished(&self, p: usize) -> bool {
        self.vms[p].retired() >= self.budget || self.vms[p].halted()
    }

    fn next_committer(&mut self) -> Option<Committer> {
        match self.mode {
            Mode::OrderSize | Mode::OrderOnly => self.source.pi_peek(),
            Mode::PicoLog => {
                if self.source.dma_slot_matches(self.gcc) {
                    return Some(Committer::Dma);
                }
                let n = self.n_procs;
                let mut cur = self.rr_cursor % n;
                for _ in 0..n {
                    if !self.finished(cur as usize) {
                        return Some(Committer::Proc(cur));
                    }
                    cur = (cur + 1) % n;
                }
                None
            }
        }
    }

    /// Drives the replay to completion, emitting one
    /// [`SubstrateEvent::Commit`] per retired commit, and returns the
    /// trailer's reference digest, the value-level run statistics, the
    /// first latched divergence, and the speculation counters.
    pub(crate) fn run(
        mut self,
        stages: &mut [&mut dyn HookStage],
    ) -> Result<(StateDigest, RunStats, Option<String>, SpeculationStats), ReplayError> {
        let jobs = self.opts.jobs.max(1) as usize;
        loop {
            // Freeze + speculate. With one job the chain set stays
            // empty and every commit below takes the in-order path —
            // the same code, so job counts cannot change results.
            let mut chains: Vec<VecDeque<SpecChunk>> =
                (0..self.n_procs).map(|_| VecDeque::new()).collect();
            let freeze_gcc = self.gcc;
            if jobs > 1 {
                let tasks = self.prefetch_tasks();
                if !tasks.is_empty() {
                    self.spec.rounds += 1;
                    chains = self.speculate(tasks);
                }
            }
            let mut foreign: Vec<HashSet<u64>> =
                (0..self.n_procs).map(|_| HashSet::new()).collect();
            let mut retired_this_round = 0u64;
            loop {
                let Some(committer) = self.next_committer() else {
                    if let Some(e) = self.source.error() {
                        return Err(ReplayError::Source {
                            detail: e.to_string(),
                        });
                    }
                    let trailer = self
                        .source
                        .finish()
                        .map_err(|detail| ReplayError::Source { detail })?;
                    let stats = self.build_stats();
                    return Ok((
                        trailer.stats.digest.clone(),
                        stats,
                        self.divergence,
                        self.spec,
                    ));
                };
                let retired = match committer {
                    Committer::Dma => self.retire_dma(&mut foreign),
                    Committer::Proc(p) => {
                        self.retire_proc(p, &mut chains, &mut foreign, freeze_gcc)?
                    }
                };
                let ev = SubstrateEvent::Commit {
                    committer: retired.committer,
                    chunk_index: retired.chunk_index,
                    size: retired.size,
                    truncation: retired.truncation,
                    global_slot: self.gcc,
                    interrupt: retired.interrupt,
                    io_loads: retired.io_loads,
                    dma_words: retired.dma_words,
                };
                for stage in stages.iter_mut() {
                    stage.on_event(self.gcc, &ev);
                }
                retired_this_round += 1;
                if jobs > 1 && retired_this_round > 0 && chains.iter().all(VecDeque::is_empty) {
                    break; // all speculative work consumed: refreeze
                }
            }
        }
    }

    /// Serially prefetches the next `depth` chunks' log lookups for
    /// every unfinished processor. The lookups are keyed queries
    /// (`forced_size`, `interrupt_at`), whose results every stream
    /// source keeps invariant under ahead-of-cursor access; each is
    /// revalidated at retirement anyway.
    fn prefetch_tasks(&mut self) -> Vec<ChainTask> {
        let depth = self.opts.depth();
        let mut tasks = Vec::new();
        for p in 0..self.n_procs as usize {
            if self.finished(p) {
                continue;
            }
            let mut entries = Vec::with_capacity(depth as usize);
            for k in 0..depth {
                let index = self.chunks_done[p] + 1 + k;
                let forced = self.source.forced_size(p as u32, index);
                let interrupt = self.source.interrupt_at(p as u32, index);
                entries.push(PrefetchedChunk {
                    index,
                    forced,
                    interrupt,
                });
            }
            tasks.push(ChainTask {
                core: p,
                vm: self.vms[p].clone(),
                entries,
            });
        }
        tasks
    }

    /// Runs the chain tasks over the work-stealing worker pool and
    /// returns the per-processor chains. One worker per replica slot:
    /// each worker first syncs its replica to the freeze image (by
    /// replaying the retired-write delta, or cloning the committed
    /// image on first use), then drains chain tasks.
    fn speculate(&mut self, tasks: Vec<ChainTask>) -> Vec<VecDeque<SpecChunk>> {
        let memory = &self.memory;
        let delta = &self.delta;
        let replicas = &mut self.replicas;
        let programs = &self.programs;
        let chunk_size = self.chunk_size;
        let budget = self.budget;
        let workers = replicas.len();
        let losses = AtomicU64::new(0);
        let speculated = AtomicU64::new(0);
        // Per-worker deques seeded round-robin; a worker drains its own
        // front and steals from the back of the fullest victim — the
        // sweep-pool idiom, privately re-cut for chain tasks.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|t| Mutex::new((t..tasks.len()).step_by(workers).collect()))
            .collect();
        let mut produced: Vec<(usize, Vec<SpecChunk>)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = replicas
                .iter_mut()
                .enumerate()
                .map(|(me, slot)| {
                    let queues = &queues;
                    let tasks = &tasks;
                    let losses = &losses;
                    let speculated = &speculated;
                    s.spawn(move || {
                        let mut replica = match slot.take() {
                            Some(mut r) => {
                                for &(addr, value) in delta {
                                    r.store(addr, value);
                                }
                                r
                            }
                            None => memory.clone(),
                        };
                        let mut done: Vec<(usize, Vec<SpecChunk>)> = Vec::new();
                        while let Some(idx) = next_task(queues, me) {
                            let t = &tasks[idx];
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                speculate_chain(
                                    &mut replica,
                                    &programs[t.core],
                                    chunk_size,
                                    budget,
                                    t.vm.clone(),
                                    &t.entries,
                                )
                            }));
                            match out {
                                Ok(chain) => {
                                    speculated.fetch_add(chain.len() as u64, Ordering::Relaxed);
                                    done.push((t.core, chain));
                                }
                                Err(_) => {
                                    // A panicking chain is pure
                                    // speculation loss, but it also
                                    // leaves the replica half-written
                                    // (its undo log is gone): rebuild
                                    // from the frozen committed image.
                                    losses.fetch_add(1, Ordering::Relaxed);
                                    replica = memory.clone();
                                }
                            }
                        }
                        *slot = Some(replica);
                        done
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(d) => produced.extend(d),
                    Err(_) => {
                        // The worker died outside a chain; its replica
                        // slot stays `None` and is re-cloned next round.
                        losses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        self.delta.clear();
        self.spec.worker_losses += losses.load(Ordering::Relaxed);
        self.spec.speculated_chunks += speculated.load(Ordering::Relaxed);
        let mut chains: Vec<VecDeque<SpecChunk>> =
            (0..self.n_procs).map(|_| VecDeque::new()).collect();
        for (core, chain) in produced {
            chains[core] = chain.into();
        }
        chains
    }

    /// Retires the next DMA transfer in-order.
    fn retire_dma(&mut self, foreign: &mut [HashSet<u64>]) -> RetiredCommit {
        let data = match self.source.dma_next() {
            Some(d) => d,
            None => {
                self.diverge("DMA log exhausted".to_string());
                Vec::new()
            }
        };
        for &(addr, value) in &data {
            self.memory.store(addr, value);
        }
        if self.tracking {
            let lines = dedup_lines(data.iter().map(|&(addr, _)| line_of(addr)).collect());
            // DMA is foreign to every processor's in-flight chain.
            for f in foreign.iter_mut() {
                f.extend(lines.iter().copied());
            }
            self.delta.extend_from_slice(&data);
        }
        self.source.note_commit(Committer::Dma);
        self.gcc += 1;
        self.dma_commits += 1;
        RetiredCommit {
            committer: Committer::Dma,
            chunk_index: 0,
            size: 0,
            truncation: TruncationReason::StandardSize,
            interrupt: false,
            io_loads: 0,
            dma_words: data.len() as u32,
        }
    }

    /// Retires processor `p`'s next chunk: from its validated
    /// speculative result when one is available, in-order otherwise.
    fn retire_proc(
        &mut self,
        p: u32,
        chains: &mut [VecDeque<SpecChunk>],
        foreign: &mut [HashSet<u64>],
        freeze_gcc: u64,
    ) -> Result<RetiredCommit, ReplayError> {
        let pi = p as usize;
        if self.finished(pi) {
            // The log names a processor that already retired its
            // budget: the stream is inconsistent, which the timing
            // engine reports as a starvation deadlock.
            let detail = self
                .source
                .error()
                .map(str::to_string)
                .or_else(|| self.divergence.clone())
                .unwrap_or_else(|| "engine deadlocked on an inconsistent log stream".to_string());
            return Err(ReplayError::Source { detail });
        }
        let index = self.chunks_done[pi] + 1;
        let forced = self.source.forced_size(p, index);
        let interrupt = self.source.interrupt_at(p, index);

        if let Some(head) = chains[pi].front() {
            let matches =
                head.index == index && head.forced == forced && head.interrupt == interrupt;
            let clean = matches && {
                let slot = self.gcc + 1;
                if self
                    .opts
                    .hints
                    .as_ref()
                    .is_some_and(|h| h.independent_by(slot, freeze_gcc))
                {
                    self.spec.hint_skips += 1;
                    true
                } else if hits(&head.read_lines, &foreign[pi]) {
                    self.spec.conflicts += 1;
                    false
                } else {
                    true
                }
            };
            if clean {
                if let Some(el) = chains[pi].pop_front() {
                    return Ok(self.retire_speculative(p, el, foreign));
                }
            }
            // A rejected head breaks the chain's overlay lineage, so
            // the whole remainder is stale.
            chains[pi].clear();
        }
        self.retire_in_order(p, index, forced, interrupt, foreign)
    }

    /// Applies a validated speculative chunk's effects.
    fn retire_speculative(
        &mut self,
        p: u32,
        el: SpecChunk,
        foreign: &mut [HashSet<u64>],
    ) -> RetiredCommit {
        let pi = p as usize;
        for &(addr, value) in &el.writes {
            self.memory.store(addr, value);
        }
        // Speculative retires only happen while speculation is live, so
        // the replica-sync delta is unconditionally tracked here.
        self.delta.extend_from_slice(&el.writes);
        for (q, f) in foreign.iter_mut().enumerate() {
            if q != pi {
                f.extend(el.write_lines.iter().copied());
            }
        }
        self.vms[pi] = el.end_vm;
        let delivered = el.interrupt.is_some() && el.divergence.is_none();
        if let Some(d) = el.divergence {
            self.diverge(d);
        }
        if delivered {
            self.interrupts += 1;
        }
        self.account_chunk(el.size, el.truncation);
        self.chunks_done[pi] = el.index;
        self.gcc += 1;
        self.spec.speculative_retires += 1;
        self.source.note_commit(Committer::Proc(p));
        if self.mode == Mode::PicoLog {
            self.rr_cursor = (p + 1) % self.n_procs;
        }
        RetiredCommit {
            committer: Committer::Proc(p),
            chunk_index: el.index,
            size: el.size,
            truncation: el.truncation,
            interrupt: el.interrupt.is_some(),
            // Chunks that perform I/O never survive speculation, so a
            // speculative retire always has zero I/O loads.
            io_loads: 0,
            dma_words: 0,
        }
    }

    /// Executes processor `p`'s next chunk in-order against live state
    /// — the `jobs = 1` path and every speculation fallback.
    fn retire_in_order(
        &mut self,
        p: u32,
        index: u64,
        forced: Option<u32>,
        interrupt: Option<(u16, Word)>,
        foreign: &mut [HashSet<u64>],
    ) -> Result<RetiredCommit, ReplayError> {
        let pi = p as usize;
        let vm = &mut self.vms[pi];
        let program = &self.programs[pi];
        let mut pending_div = None;
        let mut delivered = false;
        if let Some((_vector, payload)) = interrupt {
            pending_div = interrupt_divergence(vm, program, index);
            if pending_div.is_none() {
                vm.deliver_interrupt(program, payload);
                delivered = true;
            }
        }
        let target = forced.unwrap_or(self.chunk_size);
        let mut mem = TrackedMem {
            mem: &mut self.memory,
            track: self.tracking,
            write_lines: Vec::new(),
            writes: Vec::new(),
        };
        let mut io = SourceIo {
            source: &mut self.source,
            core: p,
            index,
            seq: 0,
            miss: None,
        };
        let run = run_chunk(
            vm,
            program,
            &mut mem,
            &mut io,
            target,
            self.chunk_size,
            self.budget,
        );
        let io_loads = io.seq;
        let miss = io.miss;
        let TrackedMem {
            write_lines,
            writes,
            ..
        } = mem;
        if let Some(d) = pending_div {
            self.diverge(d);
        }
        if let Some((seq, port)) = miss {
            self.diverge(format!(
                "I/O log miss: core {p}, chunk {index}, seq {seq}, port {port}"
            ));
        }
        if delivered {
            self.interrupts += 1;
        }
        if self.tracking {
            let write_lines = dedup_lines(write_lines);
            for (q, f) in foreign.iter_mut().enumerate() {
                if q != pi {
                    f.extend(write_lines.iter().copied());
                }
            }
            self.delta.extend_from_slice(&writes);
        }
        self.account_chunk(run.size, run.truncation);
        self.chunks_done[pi] = index;
        self.gcc += 1;
        self.spec.serial_retires += 1;
        self.source.note_commit(Committer::Proc(p));
        if self.mode == Mode::PicoLog {
            self.rr_cursor = (p + 1) % self.n_procs;
        }
        Ok(RetiredCommit {
            committer: Committer::Proc(p),
            chunk_index: index,
            size: run.size,
            truncation: run.truncation,
            interrupt: interrupt.is_some(),
            io_loads,
            dma_words: 0,
        })
    }

    fn account_chunk(&mut self, size: u32, truncation: TruncationReason) {
        self.size_sum += u64::from(size);
        self.proc_commits += 1;
        match truncation {
            TruncationReason::Overflow => self.overflow_truncations += 1,
            TruncationReason::Uncached => self.uncached_truncations += 1,
            _ => {}
        }
    }

    /// Value-level run statistics: the architectural digest and commit
    /// counters are exact; cycle-level fields (cycles, stalls, traffic,
    /// squashes) are zero because this executor replays values, not
    /// timing.
    fn build_stats(&self) -> RunStats {
        RunStats {
            cycles: 0,
            total_commits: self.gcc,
            squashes: 0,
            squashed_insts: 0,
            overflow_truncations: self.overflow_truncations,
            collision_truncations: 0,
            uncached_truncations: self.uncached_truncations,
            interrupts: self.interrupts,
            dma_commits: self.dma_commits,
            stall_cycles: vec![0; self.n_procs as usize],
            traffic_bytes: 0,
            avg_chunk_size: if self.proc_commits == 0 {
                0.0
            } else {
                self.size_sum as f64 / self.proc_commits as f64
            },
            parallel: ParallelStats::default(),
            token: None,
            work_units: 0,
            digest: StateDigest {
                mem_hash: self.memory.content_hash(),
                stream_hashes: self.vms.iter().map(Vm::stream_hash).collect(),
                retired: self.vms.iter().map(Vm::retired).collect(),
                committed_chunks: self.chunks_done.clone(),
            },
        }
    }
}

/// The divergence an interrupt entry latches when it cannot be
/// delivered, shared verbatim by the speculative and in-order paths.
fn interrupt_divergence(vm: &Vm, program: &Program, index: u64) -> Option<String> {
    if vm.in_handler() {
        Some(format!(
            "interrupt log targets chunk {index} inside a handler"
        ))
    } else if program.handler().is_none() {
        Some(format!(
            "interrupt log targets chunk {index} of a program with no handler"
        ))
    } else {
        None
    }
}

/// Executes one processor's chain of upcoming chunks against a worker's
/// replica of the frozen memory image. Stops at the first chunk that
/// performs I/O (discarding it), at a finished VM, or at the end of the
/// prefetched entries. Always rolls the replica back to the freeze
/// image before returning.
fn speculate_chain(
    replica: &mut Memory,
    program: &Program,
    chunk_size: u32,
    budget: u64,
    mut vm: Vm,
    entries: &[PrefetchedChunk],
) -> Vec<SpecChunk> {
    let mut mem = ChainMem::new(replica);
    let mut out = Vec::new();
    for e in entries {
        if vm.retired() >= budget || vm.halted() {
            break;
        }
        let mut divergence = None;
        if let Some((_vector, payload)) = e.interrupt {
            divergence = interrupt_divergence(&vm, program, e.index);
            if divergence.is_none() {
                vm.deliver_interrupt(program, payload);
            }
        }
        let mut io = SpecIo::default();
        let run = run_chunk(
            &mut vm,
            program,
            &mut mem,
            &mut io,
            e.forced.unwrap_or(chunk_size),
            chunk_size,
            budget,
        );
        if io.hit {
            // I/O values must be consumed from the log in retirement
            // order: discard this element and stop the chain.
            break;
        }
        let (read_lines, write_lines, writes) = mem.take_element();
        out.push(SpecChunk {
            index: e.index,
            forced: e.forced,
            interrupt: e.interrupt,
            size: run.size,
            truncation: run.truncation,
            read_lines,
            write_lines,
            writes,
            end_vm: vm.clone(),
            divergence,
        });
    }
    mem.rollback();
    out
}

/// Pops the next task index: own queue front first, then steal from the
/// back of the fullest other queue.
fn next_task(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(idx) = queues[me]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_front()
    {
        return Some(idx);
    }
    let victim = (0..queues.len())
        .filter(|&t| t != me)
        .max_by_key(|&t| queues[t].lock().unwrap_or_else(|e| e.into_inner()).len())?;
    queues[victim]
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop_back()
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn hints_accumulate_transitive_ancestors() {
        // 1 -> 2 -> 5, 3 -> 5: slot 5 is ready only once slot 2 (which
        // itself needs slot 1) and slot 3 have retired.
        let h = DependenceHints::from_edges(5, &[(1, 2), (2, 5), (3, 5)]);
        assert_eq!(h.len(), 5);
        assert!(h.independent_by(1, 0), "roots are always ready");
        assert!(!h.independent_by(2, 0));
        assert!(h.independent_by(2, 1));
        assert!(!h.independent_by(5, 2));
        assert!(h.independent_by(5, 3));
    }

    #[test]
    fn hints_ignore_malformed_edges() {
        let h = DependenceHints::from_edges(3, &[(0, 2), (2, 2), (3, 1), (2, 9)]);
        assert!(h.independent_by(1, 0));
        assert!(h.independent_by(2, 0));
        assert!(h.independent_by(3, 0));
        assert!(!h.independent_by(9, 0), "uncovered slots are never skipped");
    }

    #[test]
    fn chain_mem_tracks_dedups_and_rolls_back() {
        let mut replica = Memory::new(64);
        let mut m = ChainMem::new(&mut replica);
        assert_eq!(m.load(5), 0);
        m.store(5, 42);
        assert_eq!(m.load(5), 42, "reads see the chain's own writes");
        m.load(6); // same cache line as 5
        let (r, w, writes) = m.take_element();
        assert_eq!(r, vec![line_of(5)], "per-line reads deduplicate");
        assert_eq!(w, vec![line_of(5)]);
        assert_eq!(writes, vec![(5, 42)]);
        assert_eq!(m.load(5), 42, "the replica carries values across elements");
        let (r2, w2, writes2) = m.take_element();
        assert_eq!(r2, vec![line_of(5)]);
        assert!(w2.is_empty());
        assert!(writes2.is_empty());
        m.store(5, 7);
        m.store(9, 1);
        m.rollback();
        assert_eq!(replica.peek(5), 0, "rollback restores the freeze image");
        assert_eq!(replica.peek(9), 0);
    }

    #[test]
    fn spec_io_poisons_on_any_load() {
        let mut io = SpecIo::default();
        assert!(!io.hit);
        assert_eq!(io.io_load(3), 0);
        assert!(io.hit);
    }
}
