//! System checkpointing.
//!
//! The paper assumes an existing checkpointing substrate (ReVive or
//! SafetyNet) and explicitly does not focus on it: a recorded interval
//! starts at a system checkpoint, and replay restores that checkpoint
//! before consuming the logs. In this reproduction every recording
//! interval starts at the canonical initial state of the run (zeroed
//! memory, reset register files, program entry points), so a checkpoint
//! is the *description* of that state: the workload, its seed and the
//! machine shape. The replayer restores it by reconstructing the same
//! initial state, and [`SystemCheckpoint::id`] gives a content hash for
//! integrity checks.

use crate::inspect::ReplayInspector;
use crate::mode::Mode;
use crate::session::HookStage;
use crate::stream::{decode_procs, encode_procs, FileSource, LogSource, StreamMeta};
use crate::wire::{fnv_hasher, mode_from, mode_tag, Reader, Writer};
use delorean_chunk::{StartState, SubstrateEvent};
use delorean_isa::layout::AddressMap;
use delorean_isa::vm::VmState;
use delorean_isa::workload::WorkloadSpec;
use delorean_isa::Word;
use delorean_mem::Memory;
use std::io::{Read, Seek, SeekFrom};

/// The state description a recording interval starts from.
///
/// # Examples
///
/// ```
/// use delorean::checkpoint::SystemCheckpoint;
/// use delorean_isa::workload;
/// let a = SystemCheckpoint::initial(workload::by_name("fft").unwrap(), 4, 7);
/// let b = SystemCheckpoint::initial(workload::by_name("fft").unwrap(), 4, 7);
/// assert_eq!(a.id(), b.id());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemCheckpoint {
    /// Name of the workload whose programs define the initial PCs.
    pub workload_name: String,
    /// Processors in the machine.
    pub n_procs: u32,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Content hash of the initial memory image.
    pub initial_mem_hash: u64,
}

impl SystemCheckpoint {
    /// Captures the initial state of a run.
    pub fn initial(workload: &WorkloadSpec, n_procs: u32, app_seed: u64) -> Self {
        let map = AddressMap::new(n_procs);
        let mem = Memory::new(map.total_words());
        Self {
            workload_name: workload.name.to_string(),
            n_procs,
            app_seed,
            initial_mem_hash: mem.content_hash(),
        }
    }

    /// Content-derived identifier.
    pub fn id(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for b in self.workload_name.bytes() {
            fold(u64::from(b));
        }
        fold(u64::from(self.n_procs));
        fold(self.app_seed);
        fold(self.initial_mem_hash);
        h
    }

    /// Whether a replaying machine can restore this checkpoint.
    pub fn compatible_with(&self, workload: &WorkloadSpec, n_procs: u32, app_seed: u64) -> bool {
        self.workload_name == workload.name && self.n_procs == n_procs && self.app_seed == app_seed
    }
}

/// A *mid-execution* system checkpoint: the full architectural state at
/// a Global Commit Count, from which a new recording interval can start
/// (the paper's `I(n,m)` intervals over ReVive/SafetyNet checkpoints).
///
/// Captured with [`Recording::checkpoint_at`](crate::Recording::checkpoint_at)
/// and consumed by [`Machine::record_interval`](crate::Machine::record_interval).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalCheckpoint {
    /// The workload whose execution is checkpointed.
    pub workload: WorkloadSpec,
    /// Program-generation seed.
    pub app_seed: u64,
    /// Processors.
    pub n_procs: u32,
    /// Global Commit Count at the checkpoint.
    pub gcc: u64,
    /// Full architectural state (memory image, register files, chunk
    /// counts).
    pub state: StartState,
}

impl IntervalCheckpoint {
    /// Largest per-processor retired-instruction count at the
    /// checkpoint — the base for the follow-on interval's absolute
    /// budget.
    pub fn max_retired(&self) -> u64 {
        self.state
            .vm_states
            .iter()
            .map(|v| v.retired())
            .max()
            .unwrap_or(0)
    }

    /// Content-derived identifier (covers the memory image and the
    /// per-processor chunk counts).
    pub fn id(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        fold(self.gcc);
        fold(self.app_seed);
        fold(u64::from(self.n_procs));
        for &w in &self.state.memory {
            fold(w);
        }
        for c in &self.state.chunks_done {
            fold(*c);
        }
        h
    }
}

/// Sidecar index magic: "DLRX".
pub(crate) const MAGIC_X: u32 = 0x444c_5258;
/// Sidecar index format version (v2: entries store memory deltas).
pub(crate) const VERSION_X: u16 = 2;

/// Full replay state at a chunk-commit boundary: the architectural
/// [`StartState`] plus the replay-control state (PicoLog round-robin
/// phase) a mid-stream window needs to resume deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Global commit count the snapshot was taken at (commits done).
    pub gcc: u64,
    /// PicoLog round-robin cursor at this point (0 under PI modes).
    pub rr_cursor: u32,
    /// Architectural state: memory image, register files, chunk counts.
    pub state: StartState,
}

/// The memory words one checkpoint changed since the previous one, as
/// maximal runs of consecutive changed words.
///
/// Runs are kept sorted, non-empty, inside the image they were taken
/// from, and separated by at least one unchanged word; the only ways to
/// build a delta (diffing two images during indexing, and the `.dlrnx`
/// decoder) uphold that, so applying one never needs more than a
/// bounds check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryDelta {
    /// `(first word, word count)` of every run, ascending.
    runs: Vec<(u64, u64)>,
    /// The runs' new values, concatenated in run order.
    words: Vec<Word>,
}

impl MemoryDelta {
    /// The words of `next` that differ from `prev` (over their common
    /// length).
    pub(crate) fn between(prev: &[Word], next: &[Word]) -> Self {
        // Unchanged stretches are skipped a block at a time: most of an
        // image does not change between checkpoints.
        const BLOCK: usize = 64;
        let n = prev.len().min(next.len());
        let mut d = Self::default();
        let mut i = 0;
        while i < n {
            if i + BLOCK <= n && prev[i..i + BLOCK] == next[i..i + BLOCK] {
                i += BLOCK;
                continue;
            }
            if prev[i] == next[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && prev[i] != next[i] {
                i += 1;
            }
            d.runs.push((start as u64, (i - start) as u64));
            d.words.extend_from_slice(&next[start..i]);
        }
        d
    }

    /// Writes the changed words into `image`. Returns `false`, leaving
    /// `image` partly updated, if a run falls outside it.
    pub(crate) fn apply(&self, image: &mut [Word]) -> bool {
        let mut words = &self.words[..];
        for &(start, len) in &self.runs {
            let Some((run, rest)) = words.split_at_checked(len as usize) else {
                return false;
            };
            let Some(dst) = image.get_mut(start as usize..(start + len) as usize) else {
                return false;
            };
            dst.copy_from_slice(run);
            words = rest;
        }
        true
    }

    /// Number of changed words.
    pub fn changed_words(&self) -> usize {
        self.words.len()
    }

    /// Wire form: the run count, then per run its gap from the end of
    /// the previous run (from word 0 for the first), its length, and its
    /// words; counts are LEB128 varints, words little-endian `u64`s.
    fn encode(&self, w: &mut Writer) {
        w.varint(self.runs.len() as u64);
        let mut end = 0;
        let mut words = self.words.iter();
        for &(start, len) in &self.runs {
            w.varint(start - end);
            w.varint(len);
            for &word in words.by_ref().take(len as usize) {
                w.u64(word);
            }
            end = start + len;
        }
    }

    /// Inverse of [`encode`](Self::encode) for an image of `mem_words`
    /// words. A zero-length run, a run that touches or would start
    /// before the end of the previous one, or a run past the end of
    /// memory is [`CheckpointError::Malformed`].
    fn decode(r: &mut Reader<'_>, mem_words: u64) -> Result<Self, CheckpointError> {
        let trunc = |_| CheckpointError::Truncated("entry memory delta");
        let malformed = |i: u64, what: &str| {
            CheckpointError::Malformed(format!("memory delta run {i}: {what}"))
        };
        let n = r.varint("delta run count").map_err(trunc)?;
        // A run is at least a gap byte, a length byte and one word.
        let mut runs = Vec::with_capacity((n as usize).min(r.remaining() / 10));
        let mut words = Vec::with_capacity(r.remaining() / 8);
        let mut end = 0u64;
        for i in 0..n {
            let gap = r.varint("delta run gap").map_err(trunc)?;
            let len = r.varint("delta run length").map_err(trunc)?;
            if len == 0 {
                return Err(malformed(i, "zero-length run"));
            }
            if i > 0 && gap == 0 {
                return Err(malformed(i, "touches the previous run"));
            }
            let start = end
                .checked_add(gap)
                .filter(|&s| s < mem_words)
                .ok_or_else(|| malformed(i, "starts past the end of memory"))?;
            end = start
                .checked_add(len)
                .filter(|&e| e <= mem_words)
                .ok_or_else(|| malformed(i, "runs past the end of memory"))?;
            for _ in 0..len {
                words.push(r.u64("delta word").map_err(trunc)?);
            }
            runs.push((start, len));
        }
        Ok(Self { runs, words })
    }
}

/// Everything of an entry's wire body before its memory delta.
fn encode_entry_head(w: &mut Writer, e: &CheckpointEntry) {
    w.u64(e.gcc);
    w.u32(e.rr_cursor);
    w.u64(e.seg_byte_offset);
    w.u64(e.seg_start_gcc);
    for &c in &e.seg_start_chunks {
        w.u64(c);
    }
    encode_procs(w, &e.vm_states, &e.chunks_done);
}

/// Words in the memory image of an `n_procs`-processor machine, or
/// [`CheckpointError::Malformed`] for a processor count no machine has
/// — which also keeps a forged count from sizing an allocation.
fn image_words(n_procs: u32) -> Result<u64, CheckpointError> {
    delorean_sim::validate_procs(n_procs)
        .map_err(|e| CheckpointError::Malformed(format!("processor count: {e}")))?;
    Ok(AddressMap::new(n_procs).total_words())
}

/// One checkpoint in a [`CheckpointIndex`]: the per-processor state and
/// the memory words changed since the previous entry, plus the stream
/// coordinates needed to seek a [`FileSource`] to the segment containing
/// the first commit after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Global commit count of the checkpoint (commits done).
    pub gcc: u64,
    /// PicoLog round-robin cursor the window resumes at.
    pub rr_cursor: u32,
    /// Byte offset of the containing event segment's frame.
    pub seg_byte_offset: u64,
    /// Global commit count at the start of that segment.
    pub seg_start_gcc: u64,
    /// Per-processor chunk counters at the start of that segment.
    pub seg_start_chunks: Vec<u64>,
    /// Per-processor architected state at the checkpoint.
    pub vm_states: Vec<VmState>,
    /// Per-processor chunks committed before the checkpoint.
    pub chunks_done: Vec<u64>,
    /// Memory words changed since the previous entry (since an all-zero
    /// image for the first). [`CheckpointIndex::start_state`] rebuilds
    /// the full image.
    pub memory: MemoryDelta,
}

/// Why a `.dlrnx` checkpoint index failed to load or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the "DLRX" magic.
    BadMagic,
    /// The index is from an incompatible format version.
    BadVersion(u16),
    /// A frame checksum does not match its contents — the index was
    /// tampered with or corrupted.
    BadChecksum,
    /// The index ends mid-structure; the payload names what was being
    /// read.
    Truncated(&'static str),
    /// The index was built from a different recording than the one it
    /// is being used against.
    SourceMismatch(String),
    /// The index is structurally invalid.
    Malformed(String),
    /// An I/O error from the underlying reader.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a .dlrnx checkpoint index (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported .dlrnx version {v}"),
            Self::BadChecksum => write!(f, "checkpoint index checksum mismatch"),
            Self::Truncated(what) => write!(f, "checkpoint index truncated at {what}"),
            Self::SourceMismatch(detail) => {
                write!(
                    f,
                    "checkpoint index does not match this recording: {detail}"
                )
            }
            Self::Malformed(detail) => write!(f, "malformed checkpoint index: {detail}"),
            Self::Io(detail) => write!(f, "checkpoint index i/o error: {detail}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A schema-versioned, checksummed index of [`CheckpointEntry`]s over
/// one `.dlrn` recording — the `.dlrnx` sidecar.
///
/// The index is fingerprinted against the exact bytes of its source
/// stream; loading it against any other recording is a typed
/// [`CheckpointError::SourceMismatch`], never a silent fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointIndex {
    /// Length in bytes of the source `.dlrn` stream.
    pub source_len: u64,
    /// FNV-1a fingerprint of the entire source stream.
    pub source_fnv: u64,
    /// Recording mode of the source.
    pub mode: Mode,
    /// Processors in the recorded machine.
    pub n_procs: u32,
    /// Commit interval the index was built with.
    pub interval_k: u64,
    /// Total commits in the source recording.
    pub total_commits: u64,
    /// Checkpoints, sorted by ascending commit count.
    pub entries: Vec<CheckpointEntry>,
}

impl CheckpointIndex {
    /// The last checkpoint at or before `gcc`, if any.
    pub fn nearest_at_or_before(&self, gcc: u64) -> Option<&CheckpointEntry> {
        self.entries.iter().rev().find(|e| e.gcc <= gcc)
    }

    /// The full architectural state at entry `i`: its memory image is
    /// built by applying the deltas of entries `0..=i` to a zeroed
    /// image.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] when `i` is out of range
    /// or the entries do not fit this index's machine shape.
    pub fn start_state(&self, i: usize) -> Result<StartState, CheckpointError> {
        let entry = self
            .entries
            .get(i)
            .ok_or_else(|| CheckpointError::Malformed(format!("no checkpoint entry {i}")))?;
        let mut memory = vec![0; image_words(self.n_procs)? as usize];
        for e in &self.entries[..=i] {
            if !e.memory.apply(&mut memory) {
                return Err(CheckpointError::Malformed(format!(
                    "memory delta of the entry at commit {} exceeds the image",
                    e.gcc
                )));
            }
        }
        Ok(StartState {
            memory,
            vm_states: entry.vm_states.clone(),
            chunks_done: entry.chunks_done.clone(),
        })
    }

    /// Validates this index against the bytes of a candidate source
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SourceMismatch`] when the stream's
    /// length or fingerprint differs from the one the index was built
    /// over.
    pub fn validate_against(&self, source: &[u8]) -> Result<(), CheckpointError> {
        if source.len() as u64 != self.source_len {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream is {} bytes, index was built over {}",
                source.len(),
                self.source_len
            )));
        }
        let mut f = fnv_hasher();
        f.update(source);
        if f.value() != self.source_fnv {
            return Err(CheckpointError::SourceMismatch(
                "stream fingerprint differs".to_string(),
            ));
        }
        Ok(())
    }

    /// Serializes the index into the framed, checksummed `.dlrnx`
    /// format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let bodies: Vec<Vec<u8>> = self
            .entries
            .iter()
            .map(|e| {
                let mut w = Writer::new();
                encode_entry_head(&mut w, e);
                e.memory.encode(&mut w);
                w.buf
            })
            .collect();
        self.seal(&bodies)
    }

    /// Frames encoded entry bodies behind this index's header fields:
    /// each body behind its own FNV and length, the whole body behind
    /// the file checksum.
    fn seal(&self, entry_bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(self.source_len);
        body.u64(self.source_fnv);
        body.u8(mode_tag(self.mode));
        body.u32(self.n_procs);
        body.u64(self.interval_k);
        body.u64(self.total_commits);
        body.u64(entry_bodies.len() as u64);
        for eb in entry_bodies {
            let mut ef = fnv_hasher();
            ef.update(eb);
            body.u64(ef.value());
            body.bytes(eb);
        }
        let mut out = Writer::new();
        out.u32(MAGIC_X);
        out.u16(VERSION_X);
        let mut f = fnv_hasher();
        f.update(&(body.buf.len() as u64).to_le_bytes());
        f.update(&body.buf);
        out.u64(f.value());
        out.bytes(&body.buf);
        out.buf
    }

    /// Parses and integrity-checks a `.dlrnx` index. Entries stay in
    /// delta form; [`start_state`](Self::start_state) builds an image.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for bad magic, version,
    /// checksum, truncation, or structural inconsistencies. Tampered
    /// bytes never yield a usable index.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        let magic = r
            .u32("magic")
            .map_err(|_| CheckpointError::Truncated("magic"))?;
        if magic != MAGIC_X {
            return Err(CheckpointError::BadMagic);
        }
        let version = r
            .u16("version")
            .map_err(|_| CheckpointError::Truncated("version"))?;
        if version != VERSION_X {
            return Err(CheckpointError::BadVersion(version));
        }
        let checksum = r
            .u64("checksum")
            .map_err(|_| CheckpointError::Truncated("checksum"))?;
        let body = r
            .bytes("index body")
            .map_err(|_| CheckpointError::Truncated("index body"))?;
        if !r.done() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after index body".to_string(),
            ));
        }
        let mut f = fnv_hasher();
        f.update(&(body.len() as u64).to_le_bytes());
        f.update(body);
        if f.value() != checksum {
            return Err(CheckpointError::BadChecksum);
        }
        let mut b = Reader::new(body);
        let trunc = |_| CheckpointError::Truncated("index field");
        let source_len = b.u64("source length").map_err(trunc)?;
        let source_fnv = b.u64("source fingerprint").map_err(trunc)?;
        let mode = mode_from(b.u8("mode").map_err(trunc)?)
            .map_err(|_| CheckpointError::Malformed("unknown mode tag".to_string()))?;
        let n_procs = b.u32("processor count").map_err(trunc)?;
        let mem_words = image_words(n_procs)?;
        let interval_k = b.u64("checkpoint interval").map_err(trunc)?;
        let total_commits = b.u64("total commits").map_err(trunc)?;
        let n_entries = b.u64("entry count").map_err(trunc)?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let entry_fnv = b.u64("entry checksum").map_err(trunc)?;
            let eb = b
                .bytes("entry body")
                .map_err(|_| CheckpointError::Truncated("entry body"))?;
            let mut ef = fnv_hasher();
            ef.update(eb);
            if ef.value() != entry_fnv {
                return Err(CheckpointError::BadChecksum);
            }
            let mut er = Reader::new(eb);
            let gcc = er.u64("entry commit").map_err(trunc)?;
            let rr_cursor = er.u32("entry phase").map_err(trunc)?;
            let seg_byte_offset = er.u64("entry segment offset").map_err(trunc)?;
            let seg_start_gcc = er.u64("entry segment commit").map_err(trunc)?;
            let mut seg_start_chunks =
                Vec::with_capacity((n_procs as usize).min(er.remaining() / 8));
            for _ in 0..n_procs {
                seg_start_chunks.push(er.u64("entry segment chunks").map_err(trunc)?);
            }
            let (vm_states, chunks_done) = decode_procs(&mut er, n_procs)
                .map_err(|e| CheckpointError::Malformed(format!("entry state: {e}")))?;
            let memory = MemoryDelta::decode(&mut er, mem_words)?;
            if !er.done() {
                return Err(CheckpointError::Malformed(
                    "trailing bytes after entry state".to_string(),
                ));
            }
            entries.push(CheckpointEntry {
                gcc,
                rr_cursor,
                seg_byte_offset,
                seg_start_gcc,
                seg_start_chunks,
                vm_states,
                chunks_done,
                memory,
            });
        }
        if !b.done() {
            return Err(CheckpointError::Malformed(
                "trailing bytes after entries".to_string(),
            ));
        }
        if entries.windows(2).any(|w| w[0].gcc >= w[1].gcc) {
            return Err(CheckpointError::Malformed(
                "entries are not strictly ascending by commit".to_string(),
            ));
        }
        Ok(Self {
            source_len,
            source_fnv,
            mode,
            n_procs,
            interval_k,
            total_commits,
            entries,
        })
    }
}

/// Builds a [`CheckpointIndex`] over a complete `.dlrn` byte stream by
/// running one software indexing replay, snapshotting at commit 0 and
/// at every multiple of `interval_k`.
///
/// Each snapshot is diffed against the previous one as the replay
/// goes, so only one full image (the last snapshot's) is ever held
/// beside the replay's own memory.
///
/// # Errors
///
/// Returns [`CheckpointError::Malformed`] when the stream itself is
/// corrupt or its replay fails — an index is only ever built over a
/// stream that replays cleanly end to end.
pub fn index_stream(bytes: &[u8], interval_k: u64) -> Result<CheckpointIndex, CheckpointError> {
    if interval_k == 0 {
        return Err(CheckpointError::Malformed(
            "checkpoint interval must be at least 1 commit".to_string(),
        ));
    }
    let mut src = FileSource::open(bytes).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    let (mode, n_procs) = (src.mode(), src.n_procs());
    let mut entries = Vec::new();
    {
        let mut ins = ReplayInspector::from_source(&mut src)
            .map_err(|e| CheckpointError::Malformed(e.detail))?;
        let mut prev = vec![0; image_words(n_procs)? as usize];
        if ins.memory_words().len() != prev.len() {
            return Err(CheckpointError::Malformed(format!(
                "start image is {} words, a {n_procs}-processor machine has {}",
                ins.memory_words().len(),
                prev.len()
            )));
        }
        entries.push(capture_entry(&ins, 0, &mut prev));
        loop {
            match ins.step() {
                Ok(Some(ev)) => {
                    if ev.gcc % interval_k == 0 {
                        entries.push(capture_entry(&ins, ev.gcc, &mut prev));
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(CheckpointError::Malformed(e.detail)),
            }
        }
    }
    let trailer = src.finish().map_err(CheckpointError::Malformed)?;
    let marks = src.segment_marks();
    if marks.is_empty() {
        // An event-free stream has no segment to seek to: an empty
        // index, whose cursor rewinds to the log head.
        entries.clear();
    }
    for e in &mut entries {
        // The first segment starts at commit 0, so every entry has one.
        let mark = marks
            .iter()
            .rev()
            .find(|m| m.start_gcc <= e.gcc)
            .ok_or_else(|| {
                CheckpointError::Malformed(format!("no segment holds commit {}", e.gcc))
            })?;
        e.seg_byte_offset = mark.byte_offset;
        e.seg_start_gcc = mark.start_gcc;
        e.seg_start_chunks = mark.start_chunks.clone();
    }
    let mut f = fnv_hasher();
    f.update(bytes);
    Ok(CheckpointIndex {
        source_len: bytes.len() as u64,
        source_fnv: f.value(),
        mode,
        n_procs,
        interval_k,
        total_commits: trailer.stats.total_commits,
        entries,
    })
}

/// The entry for the inspector's current point, its memory diffed
/// against `prev` (the previous entry's image), which then advances to
/// the current image. Segment coordinates are filled in once the walk
/// has visited every segment.
fn capture_entry<S: LogSource>(
    ins: &ReplayInspector<S>,
    gcc: u64,
    prev: &mut [Word],
) -> CheckpointEntry {
    let memory = MemoryDelta::between(prev, ins.memory_words());
    // Diffed against `prev` itself, so every run fits.
    memory.apply(prev);
    CheckpointEntry {
        gcc,
        rr_cursor: ins.rr_phase(),
        seg_byte_offset: 0,
        seg_start_gcc: 0,
        seg_start_chunks: Vec::new(),
        vm_states: ins.vm_states(),
        chunks_done: ins.chunks_done().to_vec(),
        memory,
    }
}

/// A [`HookStage`] that plans periodic checkpoints during a record (or
/// indexing replay) run: it observes the commit stream and, once the
/// recorded bytes exist, builds the `.dlrnx` index for them with
/// [`CheckpointStage::build_index`].
///
/// State capture itself happens in the indexing replay — the stage is
/// an observer and cannot pause the engine mid-run.
#[derive(Debug, Clone)]
pub struct CheckpointStage {
    every: u64,
    commits: u64,
    flushes: u64,
}

impl CheckpointStage {
    /// A stage that checkpoints every `every` commits.
    pub fn new(every: u64) -> Self {
        Self {
            every: every.max(1),
            commits: 0,
            flushes: 0,
        }
    }

    /// Commits observed so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Segment flushes observed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Checkpoints an index over the observed run would contain
    /// (commit 0 plus every multiple of the interval).
    pub fn planned_checkpoints(&self) -> u64 {
        1 + self.commits / self.every
    }

    /// Builds the `.dlrnx` index for the finished recording `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates [`index_stream`] failures.
    pub fn build_index(&self, bytes: &[u8]) -> Result<CheckpointIndex, CheckpointError> {
        index_stream(bytes, self.every)
    }
}

impl HookStage for CheckpointStage {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn on_begin(&mut self, _meta: &StreamMeta) {
        self.commits = 0;
        self.flushes = 0;
    }

    fn on_event(&mut self, _time: u64, ev: &SubstrateEvent) {
        match ev {
            SubstrateEvent::Commit { .. } => self.commits += 1,
            SubstrateEvent::SegmentFlush { .. } => self.flushes += 1,
            _ => {}
        }
    }
}

/// A seekable position in a `.dlrn` stream, backed by a
/// [`CheckpointIndex`]: the cursor owns one long-lived seek-capable
/// [`FileSource`] so segment checksums verified once are never
/// re-verified when later windows re-read them.
pub struct ReplayCursor<R: Read + Seek> {
    source: FileSource<R>,
    index: CheckpointIndex,
}

impl<R: Read + Seek> std::fmt::Debug for ReplayCursor<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayCursor")
            .field("entries", &self.index.entries.len())
            .field("total_commits", &self.index.total_commits)
            .finish()
    }
}

impl<R: Read + Seek> ReplayCursor<R> {
    /// Opens a cursor over `reader`, verifying the stream against the
    /// index fingerprint first (one full sequential read, then a
    /// rewind).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::SourceMismatch`] when the stream is
    /// not the recording the index was built over, and I/O or decode
    /// failures as their typed variants.
    pub fn open(mut reader: R, index: CheckpointIndex) -> Result<Self, CheckpointError> {
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut f = fnv_hasher();
        let mut len = 0u64;
        let mut buf = [0u8; 8192];
        loop {
            let n = reader
                .read(&mut buf)
                .map_err(|e| CheckpointError::Io(e.to_string()))?;
            if n == 0 {
                break;
            }
            f.update(&buf[..n]);
            len += n as u64;
        }
        if len != index.source_len {
            return Err(CheckpointError::SourceMismatch(format!(
                "stream is {len} bytes, index was built over {}",
                index.source_len
            )));
        }
        if f.value() != index.source_fnv {
            return Err(CheckpointError::SourceMismatch(
                "stream fingerprint differs".to_string(),
            ));
        }
        reader
            .seek(SeekFrom::Start(0))
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        let source = FileSource::open_seekable(reader)
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        Ok(Self { source, index })
    }

    /// The checkpoint index backing this cursor.
    pub fn index(&self) -> &CheckpointIndex {
        &self.index
    }

    /// Seeks the underlying source to the nearest checkpoint at or
    /// before `gcc` and returns it along with the commit count the
    /// window actually starts at (the checkpoint's, not `gcc`).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when repositioning fails. With
    /// no usable checkpoint (an index over an event-free stream) the
    /// cursor rewinds to the start of the log — the log head is by
    /// definition a checkpoint at commit 0.
    pub fn source_at(&mut self, gcc: u64) -> Result<(&mut FileSource<R>, u64), CheckpointError> {
        let start = match self.index.entries.iter().rposition(|e| e.gcc <= gcc) {
            Some(i) => {
                let state = self.index.start_state(i)?;
                let entry = &self.index.entries[i];
                self.source
                    .seek_to_checkpoint(entry, state)
                    .map_err(|e| CheckpointError::Io(e.to_string()))?;
                entry.gcc
            }
            None => {
                self.source
                    .seek_to_segment(0)
                    .map_err(CheckpointError::Io)?;
                0
            }
        };
        Ok((&mut self.source, start))
    }
}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use delorean_isa::workload;

    #[test]
    fn ids_distinguish_runs() {
        let fft = workload::by_name("fft").unwrap();
        let lu = workload::by_name("lu").unwrap();
        let a = SystemCheckpoint::initial(fft, 4, 7);
        assert_ne!(a.id(), SystemCheckpoint::initial(lu, 4, 7).id());
        assert_ne!(a.id(), SystemCheckpoint::initial(fft, 8, 7).id());
        assert_ne!(a.id(), SystemCheckpoint::initial(fft, 4, 8).id());
    }

    #[test]
    fn compatibility_checks_shape() {
        let fft = workload::by_name("fft").unwrap();
        let ck = SystemCheckpoint::initial(fft, 4, 7);
        assert!(ck.compatible_with(fft, 4, 7));
        assert!(!ck.compatible_with(fft, 8, 7));
        assert!(!ck.compatible_with(workload::by_name("lu").unwrap(), 4, 7));
    }

    use crate::{Machine, Mode};
    use std::io::Cursor;

    fn machine(mode: Mode, procs: u32) -> Machine {
        Machine::builder()
            .mode(mode)
            .procs(procs)
            .budget(8_000)
            .build()
    }

    fn stream_bytes(m: &Machine, app: &str) -> Vec<u8> {
        let rec = m.record(workload::by_name(app).unwrap(), 17);
        crate::serialize::to_bytes(&rec)
    }

    #[test]
    fn tampered_index_is_a_typed_error_never_a_fallback() {
        let m = machine(Mode::OrderOnly, 2);
        let bytes = stream_bytes(&m, "fft");
        let index = index_stream(&bytes, 32).unwrap();
        let mut encoded = index.to_bytes();

        // Flip one byte deep inside an entry: frame checksum trips.
        let mid = encoded.len() / 2;
        encoded[mid] ^= 0x40;
        assert!(matches!(
            CheckpointIndex::from_bytes(&encoded),
            Err(CheckpointError::BadChecksum)
        ));

        // Wrong magic and version are their own variants.
        assert!(matches!(
            CheckpointIndex::from_bytes(b"nope"),
            Err(CheckpointError::BadMagic)
        ));

        // An index built over a different recording is refused at
        // cursor open, with a typed mismatch.
        let other = stream_bytes(&m, "lu");
        assert!(matches!(
            index.validate_against(&other),
            Err(CheckpointError::SourceMismatch(_))
        ));
        assert!(matches!(
            ReplayCursor::open(Cursor::new(other), index),
            Err(CheckpointError::SourceMismatch(_))
        ));
    }

    /// The `.dlrnx` header before the entries: magic, version, file
    /// checksum, body length, then the body's fixed fields.
    const HEAD: usize = 4 + 2 + 8 + 8 + (8 + 8 + 1 + 4 + 8 + 8 + 8);

    /// `(offset, length)` of every entry body in an encoded index.
    fn entry_spans(encoded: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut pos = HEAD;
        while pos < encoded.len() {
            let len = u64::from_le_bytes(encoded[pos + 8..pos + 16].try_into().unwrap()) as usize;
            spans.push((pos + 16, len));
            pos += 16 + len;
        }
        spans
    }

    /// Recomputes every entry FNV and the file checksum after the
    /// entry bodies were edited in place.
    fn reseal(encoded: &mut [u8]) {
        for (off, len) in entry_spans(encoded) {
            let mut f = fnv_hasher();
            f.update(&encoded[off..off + len]);
            encoded[off - 16..off - 8].copy_from_slice(&f.value().to_le_bytes());
        }
        let mut f = fnv_hasher();
        f.update(&encoded[14..22]);
        f.update(&encoded[22..]);
        encoded[6..14].copy_from_slice(&f.value().to_le_bytes());
    }

    /// `index` encoded with entry `i`'s delta replaced by the raw
    /// `delta` bytes, every checksum valid.
    fn sealed_with_delta(index: &CheckpointIndex, i: usize, delta: &[u8]) -> Vec<u8> {
        let bodies: Vec<Vec<u8>> = index
            .entries
            .iter()
            .enumerate()
            .map(|(j, e)| {
                let mut w = Writer::new();
                encode_entry_head(&mut w, e);
                if j == i {
                    w.buf.extend_from_slice(delta);
                } else {
                    e.memory.encode(&mut w);
                }
                w.buf
            })
            .collect();
        index.seal(&bodies)
    }

    fn small_index() -> (Vec<u8>, CheckpointIndex) {
        let m = machine(Mode::OrderOnly, 2);
        let bytes = stream_bytes(&m, "fft");
        let index = index_stream(&bytes, 4).unwrap();
        assert!(index.entries.len() > 2, "{} commits", index.total_commits);
        (bytes, index)
    }

    #[test]
    fn deltas_rebuild_every_snapshot() {
        let prev = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let next = vec![9, 1, 2, 8, 8, 5, 6, 0];
        let d = MemoryDelta::between(&prev, &next);
        assert_eq!(d.runs, vec![(0, 1), (3, 2), (7, 1)]);
        let mut image = prev.clone();
        assert!(d.apply(&mut image));
        assert_eq!(image, next);
        assert!(!d.apply(&mut [0; 4]), "a run outside the image is refused");
        assert_eq!(MemoryDelta::between(&next, &next), MemoryDelta::default());
        // Long unchanged stretches are skipped block-wise.
        let mut big = vec![0; 1000];
        big[999] = 1;
        big[64] = 2;
        let d = MemoryDelta::between(&vec![0; 1000], &big);
        assert_eq!(d.runs, vec![(64, 1), (999, 1)]);
    }

    #[test]
    fn index_round_trips_through_dlrnx_bytes() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 64).unwrap();
        assert!(!index.entries.is_empty());
        assert_eq!(index.entries[0].gcc, 0, "commit 0 is always indexed");
        let encoded = index.to_bytes();
        let decoded = CheckpointIndex::from_bytes(&encoded).unwrap();
        assert_eq!(decoded, index);
        index.validate_against(&bytes).unwrap();
    }

    #[test]
    fn v1_sidecar_is_a_version_error() {
        let (_, index) = small_index();
        let mut encoded = index.to_bytes();
        encoded[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            CheckpointIndex::from_bytes(&encoded),
            Err(CheckpointError::BadVersion(1))
        );
    }

    #[test]
    fn flipped_delta_byte_is_a_checksum_error() {
        let (_, index) = small_index();
        let encoded = index.to_bytes();
        for (i, (off, len)) in entry_spans(&encoded).into_iter().enumerate() {
            let mut w = Writer::new();
            index.entries[i].memory.encode(&mut w);
            let delta_start = off + len - w.buf.len();
            for pos in [delta_start, off + len - w.buf.len() / 2 - 1, off + len - 1] {
                let mut bad = encoded.clone();
                bad[pos] ^= 0x10;
                assert_eq!(
                    CheckpointIndex::from_bytes(&bad),
                    Err(CheckpointError::BadChecksum),
                    "entry {i} byte {pos} (file checksum)"
                );
                // With the file checksum recomputed, the entry's own
                // checksum still catches it.
                let mut f = fnv_hasher();
                f.update(&bad[14..]);
                bad[6..14].copy_from_slice(&f.value().to_le_bytes());
                assert_eq!(
                    CheckpointIndex::from_bytes(&bad),
                    Err(CheckpointError::BadChecksum),
                    "entry {i} byte {pos} (entry checksum)"
                );
            }
        }
    }

    #[test]
    fn malformed_deltas_are_typed_errors() {
        let (_, index) = small_index();
        let words = AddressMap::new(index.n_procs).total_words();
        let delta = |runs: &[(u64, u64, usize)]| {
            let mut w = Writer::new();
            w.varint(runs.len() as u64);
            for &(gap, len, n_words) in runs {
                w.varint(gap);
                w.varint(len);
                for _ in 0..n_words {
                    w.u64(7);
                }
            }
            w.buf
        };
        // Gaps count from the end of the previous run, so runs that
        // overlap or go backwards can only be written as a gap that
        // wraps the address space or a touching (zero-gap) run.
        let cases: [(&str, Vec<u8>); 5] = [
            ("zero-length", delta(&[(3, 0, 0)])),
            ("past the end", delta(&[(words - 1, 2, 2)])),
            ("starts past the end", delta(&[(words, 1, 1)])),
            ("touching", delta(&[(3, 1, 1), (0, 1, 1)])),
            ("wraps backwards", delta(&[(5, 1, 1), (u64::MAX - 3, 1, 1)])),
        ];
        for i in [0, index.entries.len() - 1] {
            for (what, raw) in &cases {
                let bytes = sealed_with_delta(&index, i, raw);
                assert!(
                    matches!(
                        CheckpointIndex::from_bytes(&bytes),
                        Err(CheckpointError::Malformed(_))
                    ),
                    "{what} run in entry {i}: {:?}",
                    CheckpointIndex::from_bytes(&bytes)
                );
            }
            // A run whose words are missing is truncated; bytes after
            // the last run are trailing garbage.
            let short = sealed_with_delta(&index, i, &delta(&[(3, 2, 1)]));
            assert!(matches!(
                CheckpointIndex::from_bytes(&short),
                Err(CheckpointError::Truncated(_))
            ));
            let mut long = delta(&[(3, 1, 1)]);
            long.push(0);
            let long = sealed_with_delta(&index, i, &long);
            assert!(matches!(
                CheckpointIndex::from_bytes(&long),
                Err(CheckpointError::Malformed(_))
            ));
        }
        // The well-formed control decodes.
        let ok = sealed_with_delta(&index, 0, &delta(&[(3, 1, 1), (1, 2, 2)]));
        let decoded = CheckpointIndex::from_bytes(&ok).unwrap();
        assert_eq!(decoded.entries[0].memory.runs, vec![(3, 1), (5, 2)]);
    }

    /// The 111-byte sidecar that once aborted the process: valid
    /// checksums, one 28-byte entry, and `n_procs = u32::MAX`, which
    /// sized a 34 GB allocation before any entry field was read.
    #[test]
    fn forged_processor_count_is_an_error_not_an_abort() {
        let mut entry = Writer::new();
        entry.u64(0);
        entry.u32(0);
        entry.u64(0);
        entry.u64(0);
        let forged = CheckpointIndex {
            source_len: 0,
            source_fnv: 0,
            mode: Mode::OrderOnly,
            n_procs: u32::MAX,
            interval_k: 1,
            total_commits: 0,
            entries: Vec::new(),
        };
        let mut bytes = forged.seal(&[entry.buf]);
        assert_eq!(bytes.len(), 111);
        assert!(matches!(
            CheckpointIndex::from_bytes(&bytes),
            Err(CheckpointError::Malformed(_))
        ));
        // The same bytes in the version-1 layout are refused by version.
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            CheckpointIndex::from_bytes(&bytes),
            Err(CheckpointError::BadVersion(1))
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random byte flips inside entry bodies, resealed so they reach
        /// the entry and delta decoders, never panic: they decode to a
        /// typed error, or to an index whose every state builds.
        #[test]
        fn resealed_byte_flips_never_panic(
            flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 1..6),
        ) {
            let (_, index) = small_index();
            let mut encoded = index.to_bytes();
            let spans = entry_spans(&encoded);
            for &(at, mask) in &flips {
                let (off, len) = spans[at % spans.len()];
                encoded[off + (at / spans.len()) % len] ^= mask;
            }
            reseal(&mut encoded);
            if let Ok(decoded) = CheckpointIndex::from_bytes(&encoded) {
                for i in 0..decoded.entries.len() {
                    let _ = decoded.start_state(i);
                }
            }
        }
    }

    #[test]
    fn window_replay_matches_full_replay_all_modes() {
        for (mode, app) in [
            (Mode::OrderOnly, "barnes"),
            (Mode::OrderSize, "radix"),
            (Mode::PicoLog, "fft"),
        ] {
            let m = machine(mode, 4);
            let bytes = stream_bytes(&m, app);
            let full = m
                .replay_from(crate::FileSource::open(&bytes[..]).unwrap())
                .unwrap();
            let index = index_stream(&bytes, 50).unwrap();
            let total = index.total_commits;
            let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
            for from in [0, 1, total / 2, total.saturating_sub(1), total] {
                let win = m.replay_window(&mut cursor, from, None).unwrap();
                assert_eq!(
                    win.stats.digest, full.stats.digest,
                    "{mode} window from {from} digest differs"
                );
                assert_eq!(
                    win.deterministic, full.deterministic,
                    "{mode} window from {from} verdict differs"
                );
            }
        }
    }

    #[test]
    fn bounded_window_digest_matches_checkpoint_state() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 40).unwrap();
        let total = total_of(&index);
        let probe = index.entries.iter().map(|e| e.gcc).collect::<Vec<_>>();
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        for gcc in probe {
            // Stop a window exactly at an indexed commit: the report
            // must be deterministic (state matches the index).
            let win = m.replay_window(&mut cursor, 0, Some(gcc)).unwrap();
            assert!(win.deterministic, "window [0, {gcc}): {:?}", win.divergence);
        }
        assert!(m.replay_window(&mut cursor, 3, Some(2)).is_err());
        assert!(m.replay_window(&mut cursor, total + 1, None).is_err());
    }

    fn total_of(index: &CheckpointIndex) -> u64 {
        index.total_commits
    }

    #[test]
    fn state_at_matches_slot_zero_checkpoint() {
        let m = machine(Mode::PicoLog, 4);
        let app = workload::by_name("fft").unwrap();
        let rec = m.record(app, 17);
        let bytes = crate::serialize::to_bytes(&rec);
        let index = index_stream(&bytes, 30).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        for gcc in [1, total / 3, total / 2 + 1, total] {
            let fast = m.state_at(&mut cursor, gcc).unwrap();
            let slow = rec.checkpoint_at(gcc).unwrap();
            assert_eq!(fast.state, slow.state, "state at {gcc} differs");
            assert_eq!(fast.gcc, slow.gcc);
        }
        assert!(m.state_at(&mut cursor, total + 1).is_err());
    }

    #[test]
    fn cursor_reuses_verified_segment_checksums() {
        let m = machine(Mode::OrderOnly, 4);
        let bytes = stream_bytes(&m, "lu");
        let index = index_stream(&bytes, 25).unwrap();
        let total = index.total_commits;
        let mut cursor = ReplayCursor::open(Cursor::new(bytes), index).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_first = cursor.source_at(0).unwrap().0.checksums_verified();
        m.replay_window(&mut cursor, total / 2, None).unwrap();
        m.replay_window(&mut cursor, 0, None).unwrap();
        let after_rereads = cursor.source_at(0).unwrap().0.checksums_verified();
        assert_eq!(
            after_first, after_rereads,
            "re-reading seeked windows must not re-verify checksums"
        );
    }
}
