//! `delorean` — record, replay and inspect executions from the command
//! line, persisting recordings in the binary `.dlrn` format.
//!
//! ```text
//! delorean list
//! delorean record barnes -o run.dlrn --mode orderonly --procs 8 --budget 50000
//! delorean info run.dlrn
//! delorean replay run.dlrn --seed 99
//! delorean replay run.dlrn --stratified 1
//! delorean inspect run.dlrn --limit 0
//! delorean inspect run.dlrn --watch 0x30001 --limit 40
//! ```

use delorean::inspect::ReplayInspector;
use delorean::stream::StreamMeta;
use delorean::{serialize, FileSink, FileSource, LogSource, Machine, Mode, Recording};
use delorean_bench as bench;
use delorean_chunk::Committer;
use delorean_isa::workload;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

mod args;

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  delorean list
  delorean record <workload> -o <file> [--mode ordersize|orderonly|picolog]
                  [--procs N] [--budget N] [--chunk N] [--seed N] [--timing-seed N]
                  [--arbiter global|sharded:K] [--trace PATH]
  delorean info <file>
  delorean replay <file> [--seed N] [--stratified MAX]
  delorean replay <file> --from N [--to M] [--index PATH]
  delorean checkpoint <file> [--every K] [-o PATH]
  delorean checkpoint <file> --check PATH
  delorean inspect <file> [--watch ADDR]... [--limit N] [--json]
  delorean inspect <file> --at N [--index PATH] [--json]
  delorean analyze <file> [--json] [--skip static|races|lint]... [--max-examples N]
                  [--deps] [--cert PATH]
  delorean analyze <file> --check-cert PATH
  delorean analyze <file> --check-index PATH
  delorean analyze --trace PATH [--json]
  delorean bench [--figure figNN]... [--json PATH] [--jobs N] [--full]
                 [--baseline PATH] [--tolerance PCT] [--seed N]
                 [--budget-div N] [--verbose]
  delorean crashtest [--seed N] [--workload NAME]... [--procs N]
                     [--budget N] [--chunk N]";

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".to_string());
    };
    // Boolean switches are per-command: `analyze --json` is a toggle,
    // `bench --json PATH` takes the output path as a value.
    let switches: &[&str] = match cmd.as_str() {
        "bench" => &["--full", "--verbose"],
        "analyze" => &["--json", "--deps"],
        _ => &["--json"],
    };
    let args = Args::parse_with_switches(&argv[1..], switches)?;
    match cmd.as_str() {
        "list" => cmd_list().map(|()| ExitCode::SUCCESS),
        "record" => cmd_record(&args).map(|()| ExitCode::SUCCESS),
        "info" => cmd_info(&args).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(&args).map(|()| ExitCode::SUCCESS),
        "checkpoint" => cmd_checkpoint(&args),
        "inspect" => cmd_inspect(&args).map(|()| ExitCode::SUCCESS),
        "analyze" => cmd_analyze(&args),
        "bench" => cmd_bench(&args),
        "crashtest" => cmd_crashtest(&args),
        other => Err(format!("unknown command {other}")),
    }
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<11} {:>6} {:>6} {:>6} {:>7}  kind",
        "workload", "mem%", "shared%", "write%", "locks"
    );
    for w in workload::catalog() {
        println!(
            "{:<11} {:>6.0} {:>7.0} {:>6.0} {:>7}  {:?}",
            w.name,
            w.mem_frac * 100.0,
            w.shared_frac * 100.0,
            w.write_frac * 100.0,
            if w.lock_every == 0 {
                "-".to_string()
            } else {
                w.lock_count.to_string()
            },
            w.kind
        );
    }
    Ok(())
}

fn parse_mode(s: &str) -> Result<Mode, String> {
    match s.to_ascii_lowercase().as_str() {
        "ordersize" | "order&size" | "os" => Ok(Mode::OrderSize),
        "orderonly" | "oo" => Ok(Mode::OrderOnly),
        "picolog" | "pl" => Ok(Mode::PicoLog),
        other => Err(format!(
            "unknown mode {other} (ordersize|orderonly|picolog)"
        )),
    }
}

fn machine_for(recording: &Recording) -> Machine {
    Machine::builder()
        .mode(recording.mode)
        .procs(recording.n_procs)
        .chunk_size(recording.chunk_size)
        .budget(recording.budget)
        .devices(recording.devices)
        .build()
}

fn machine_from_meta(meta: &StreamMeta) -> Machine {
    Machine::builder()
        .mode(meta.mode)
        .procs(meta.n_procs)
        .chunk_size(meta.chunk_size)
        .budget(meta.budget)
        .devices(meta.devices)
        .build()
}

fn recording_path(args: &Args) -> Result<&String, String> {
    args.positional
        .first()
        .ok_or_else(|| "missing recording file".to_string())
}

/// Opens a `.dlrn` file as a streaming log source; only the header is
/// read eagerly, segments are decoded on demand.
fn open_source(path: &str) -> Result<FileSource<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    FileSource::open(BufReader::new(file)).map_err(|e| format!("decoding {path}: {e}"))
}

fn load(args: &Args) -> Result<Recording, String> {
    let path = recording_path(args)?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    serialize::from_bytes(&bytes).map_err(|e| format!("decoding {path}: {e}"))
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let name = args.positional.first().ok_or("missing workload name")?;
    let w = workload::by_name(name)
        .ok_or_else(|| format!("unknown workload {name} (try `delorean list`)"))?;
    let out = args
        .get("-o")
        .or_else(|| args.get("--out"))
        .ok_or("missing -o <file>")?;
    let mode = args
        .get("--mode")
        .map(|s| parse_mode(&s))
        .transpose()?
        .unwrap_or(Mode::OrderOnly);
    let mut b = Machine::builder();
    b.mode(mode);
    let procs = args.num("--procs")?.unwrap_or(8) as u32;
    delorean::validate_procs(procs).map_err(|e| format!("bad --procs: {e}"))?;
    b.procs(procs);
    b.budget(args.num("--budget")?.unwrap_or(50_000));
    if let Some(c) = args.num("--chunk")? {
        b.chunk_size(c as u32);
    }
    if let Some(t) = args.num("--timing-seed")? {
        b.timing_seed(t);
    }
    if let Some(a) = args.get("--arbiter") {
        let arbiter = delorean::ArbiterConfig::parse(&a)
            .ok_or_else(|| format!("bad --arbiter {a} (use global or sharded:K, K in 1..=256)"))?;
        b.arbiter(arbiter);
    }
    let machine = b.build();
    let seed = args.num("--seed")?.unwrap_or(2026);
    let file = File::create(&out).map_err(|e| format!("creating {out}: {e}"))?;
    let mut sink = FileSink::new(BufWriter::new(file));
    // `--trace` stacks a JSONL tracer stage on the session; without it
    // the stage list is empty and the pipeline runs the bare fast path.
    let stats = match args.get("--trace") {
        None => machine.record_to(w, seed, &mut sink),
        Some(tpath) => {
            let tfile = File::create(&tpath).map_err(|e| format!("creating {tpath}: {e}"))?;
            let mut tracer = delorean_trace::JsonlTracer::new(BufWriter::new(tfile));
            let stats = machine
                .session()
                .with_stage(&mut tracer)
                .record_to(w, seed, &mut sink);
            let lines = tracer.lines();
            let (_, err) = tracer.finish();
            if let Some(e) = err {
                return Err(format!("writing {tpath}: {e}"));
            }
            println!("traced {lines} events -> {tpath}");
            stats
        }
    };
    let peak = sink.peak_buffered_bytes();
    let written = sink.bytes_written();
    let writer = sink
        .into_inner()
        .map_err(|e| format!("writing {out}: {e}"))?;
    writer
        .into_inner()
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "recorded {name} ({mode}, {} procs, {} insts/proc) -> {out} ({written} bytes, streamed)",
        machine.procs(),
        machine.budget(),
    );
    let kiloinsts = machine.procs() as f64 * machine.budget() as f64 / 1000.0;
    println!(
        "log stream: {:.3} bits/proc/kilo-instruction on disk, {} commits, {} squashes, peak buffer {peak} bytes",
        written as f64 * 8.0 / kiloinsts,
        stats.total_commits,
        stats.squashes
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let r = load(args)?;
    println!("mode        : {}", r.mode);
    println!("workload    : {} (seed {})", r.workload.name, r.app_seed);
    println!("processors  : {}", r.n_procs);
    println!("chunk size  : {}", r.chunk_size);
    println!("budget      : {} instructions/processor", r.budget);
    println!("arbiter     : {}", r.arbiter);
    println!("checkpoint  : {:#018x}", r.checkpoint.id());
    let s = r.memory_ordering_sizes();
    println!(
        "PI log      : {} entries, {} bits raw / {} compressed",
        r.logs.pi.len(),
        s.pi.raw_bits,
        s.pi.compressed_bits
    );
    println!(
        "CS logs     : {} entries, {} bits raw",
        r.logs.cs.iter().map(|l| l.len()).sum::<usize>(),
        s.cs.raw_bits
    );
    println!(
        "input logs  : {} interrupts, {} I/O values, {} DMA transfers",
        r.stats.interrupts,
        r.logs.io.iter().map(|l| l.len()).sum::<usize>(),
        r.logs.dma.len()
    );
    println!(
        "rate        : {:.3} compressed bits/proc/kilo-instruction ({:.2} GB/day @ 8x5GHz IPC1)",
        r.compressed_bits_per_proc_per_kiloinst(),
        r.gigabytes_per_day(5.0, 1.0)
    );
    println!("digest      : memory {:#018x}", r.digest().mem_hash);
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    // The flags of the removed speculative parallel replayer must not
    // be silently ignored.
    for flag in ["--jobs", "--cert"] {
        if args.get(flag).is_some() {
            return Err(format!(
                "replay {flag} was removed with the speculative parallel replayer; \
                 `delorean inspect <file> --limit 0` prints the functional replay verdict"
            ));
        }
    }
    if args.get("--from").is_some() || args.get("--to").is_some() {
        return cmd_replay_window(args);
    }
    let seed = args.num("--seed")?.unwrap_or(0x5a5a);
    let report = if let Some(max) = args.num("--stratified")? {
        // Stratification needs the chunk footprints resident, so this
        // path still decodes the whole recording up front.
        let r = load(args)?;
        if !r.mode.has_pi_log() {
            return Err(format!("{} recordings have no PI log to stratify", r.mode));
        }
        machine_for(&r)
            .replay_stratified(&r, max as u32, seed)
            .map_err(|e| e.to_string())?
    } else {
        let path = recording_path(args)?;
        let source = open_source(path)?;
        let meta = source
            .meta()
            .ok_or("stream carries no recording metadata")?;
        let machine = machine_from_meta(meta);
        machine
            .replay_from_with_seed(source, seed)
            .map_err(|e| e.to_string())?
    };
    println!(
        "replayed {} commits in {} cycles",
        report.stats.total_commits, report.stats.cycles
    );
    if report.deterministic {
        println!("deterministic: yes — execution reproduced bit-exactly");
        Ok(())
    } else {
        Err(format!(
            "replay diverged: {}",
            report.divergence.unwrap_or_default()
        ))
    }
}

/// Resolves and decodes the `.dlrnx` sidecar for a recording: an
/// explicit `--index PATH`, or the `<file>x` convention next to the
/// log. Decode failures are typed errors — never a fallback to slot 0.
fn load_index_for(args: &Args, path: &str) -> Result<delorean::CheckpointIndex, String> {
    let xpath = args.get("--index").unwrap_or_else(|| format!("{path}x"));
    let encoded = std::fs::read(&xpath).map_err(|e| {
        format!("reading {xpath}: {e} (build an index with `delorean checkpoint {path}`)")
    })?;
    delorean::CheckpointIndex::from_bytes(&encoded)
        .map_err(|e| format!("checkpoint index {xpath}: {e}"))
}

/// Opens a checkpoint cursor over a recording: the `.dlrnx` sidecar
/// plus the log file, fingerprint-verified against each other.
fn open_cursor(args: &Args, path: &str) -> Result<delorean::ReplayCursor<BufReader<File>>, String> {
    let index = load_index_for(args, path)?;
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    delorean::ReplayCursor::open(BufReader::new(file), index)
        .map_err(|e| format!("opening checkpoint cursor on {path}: {e}"))
}

/// `delorean checkpoint <file>` — builds a `.dlrnx` checkpoint-index
/// sidecar (one indexing replay, snapshots every `--every` commits),
/// or with `--check PATH` validates an existing sidecar against the
/// log's fingerprint.
fn cmd_checkpoint(args: &Args) -> Result<ExitCode, String> {
    let path = recording_path(args)?.clone();
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
    if let Some(xpath) = args.get("--check") {
        let encoded = std::fs::read(&xpath).map_err(|e| format!("reading {xpath}: {e}"))?;
        return match delorean_analyze::validate_checkpoint_index(&encoded, &bytes) {
            Ok(s) => {
                println!(
                    "checkpoint index OK: {} checkpoint(s) every {} commit(s) over {} commits, \
                     bound to {path} ({} bytes, fingerprint {:#018x})",
                    s.entries, s.interval_k, s.total_commits, s.source_bytes, s.fingerprint
                );
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                println!("checkpoint index INVALID: {e}");
                Ok(ExitCode::FAILURE)
            }
        };
    }
    let every = args.num("--every")?.unwrap_or(64);
    let index = delorean::index_stream(&bytes, every).map_err(|e| e.to_string())?;
    let out = args
        .get("-o")
        .or_else(|| args.get("--out"))
        .unwrap_or_else(|| format!("{path}x"));
    let encoded = index.to_bytes();
    std::fs::write(&out, &encoded).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "indexed {} commits -> {out}: {} checkpoint(s) every {every} commit(s) ({} bytes)",
        index.total_commits,
        index.entries.len(),
        encoded.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `replay --from N [--to M]`: seeks to the nearest checkpoint at or
/// before N via the `.dlrnx` sidecar, rolls forward, and replays only
/// the window — on the timing engine when it runs to the end, on the
/// functional replayer when `--to` bounds it.
fn cmd_replay_window(args: &Args) -> Result<(), String> {
    let path = recording_path(args)?.clone();
    let from = args.num("--from")?.unwrap_or(0);
    let to = args.num("--to")?;
    if args.num("--stratified")?.is_some() {
        return Err("--stratified and --from/--to are mutually exclusive".to_string());
    }
    let meta = open_source(&path)?
        .meta()
        .ok_or("stream carries no recording metadata")?
        .clone();
    let machine = machine_from_meta(&meta);
    let mut cursor = open_cursor(args, &path)?;
    let report = machine
        .replay_window(&mut cursor, from, to)
        .map_err(|e| e.to_string())?;
    let span = match to {
        Some(t) => format!("{from}..{t}"),
        None => format!("{from}..end"),
    };
    println!(
        "replayed window {span}: {} commit(s)",
        report.stats.total_commits
    );
    println!(
        "digest fingerprint {:#018x}",
        report.stats.digest.fingerprint()
    );
    if report.deterministic {
        println!("deterministic: yes — window reproduced bit-exactly");
        Ok(())
    } else {
        Err(format!(
            "replay diverged: {}",
            report.divergence.unwrap_or_default()
        ))
    }
}

/// `inspect --at N`: restores the architectural state at commit N via
/// the checkpoint index (seek + bounded roll-forward, not a full
/// replay) and prints its summary.
fn cmd_inspect_at(args: &Args, path: &str, at: u64, json: bool) -> Result<(), String> {
    let meta = open_source(path)?
        .meta()
        .ok_or("stream carries no recording metadata")?
        .clone();
    let machine = machine_from_meta(&meta);
    let mut cursor = open_cursor(args, path)?;
    let ck = machine
        .state_at(&mut cursor, at)
        .map_err(|e| e.to_string())?;
    if json {
        let chunks: Vec<String> = ck.state.chunks_done.iter().map(u64::to_string).collect();
        println!(
            "{{\"event\":\"state_at\",\"gcc\":{},\"checkpoint_id\":\"{:#018x}\",\"chunks_done\":[{}],\"max_retired\":{}}}",
            ck.gcc,
            ck.id(),
            chunks.join(","),
            ck.max_retired()
        );
    } else {
        println!("state at commit {}:", ck.gcc);
        println!(
            "  workload     : {} (seed {})",
            ck.workload.name, ck.app_seed
        );
        println!("  processors   : {}", ck.n_procs);
        println!("  checkpoint id: {:#018x}", ck.id());
        println!("  max retired  : {} instructions", ck.max_retired());
        for (p, c) in ck.state.chunks_done.iter().enumerate() {
            println!("  P{p:<2} committed : {c} chunk(s)");
        }
    }
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = recording_path(args)?.clone();
    if let Some(at) = args.num("--at")? {
        return cmd_inspect_at(args, &path, at, args.has("--json"));
    }
    let source = open_source(&path)?;
    let mode = source
        .meta()
        .ok_or("stream carries no recording metadata")?
        .mode;
    let mode_tag = delorean_trace::mode_tag(mode);
    let json = args.has("--json");
    let mut inspector = ReplayInspector::from_source(source).map_err(|e| e.to_string())?;
    for w in args.get_all("--watch") {
        let addr = parse_addr(&w)?;
        inspector.watch(addr);
    }
    let limit = args.num("--limit")?.unwrap_or(u64::MAX);
    let watching = !args.get_all("--watch").is_empty();
    let mut printed = 0u64;
    while let Some(ev) = inspector.step().map_err(|e| e.to_string())? {
        let interesting = !watching || !ev.watch_hits.is_empty();
        if !interesting || printed >= limit {
            continue;
        }
        if json {
            // Commit spans share the session-trace schema: the line is
            // built from the same SubstrateEvent the pipeline emits.
            // The inspector has no cycle clock, so `t` is the global
            // commit slot.
            println!(
                "{}",
                delorean_trace::event_line(ev.gcc, mode_tag, &ev.to_substrate())
            );
            for h in &ev.watch_hits {
                println!(
                    "{{\"event\":\"watch\",\"t\":{},\"addr\":\"{:#x}\",\"old\":\"{:#x}\",\"new\":\"{:#x}\"}}",
                    ev.gcc, h.addr, h.old, h.new
                );
            }
        } else {
            let who = match ev.committer {
                Committer::Proc(p) => format!("P{p}"),
                Committer::Dma => "DMA".to_string(),
            };
            print!(
                "GCC {:>5}  {who:<4} chunk {:>4} size {:>5}",
                ev.gcc, ev.chunk_index, ev.size
            );
            if ev.interrupt {
                print!("  [interrupt]");
            }
            for h in &ev.watch_hits {
                print!("  {:#x}: {:#x} -> {:#x}", h.addr, h.old, h.new);
            }
            println!();
        }
        printed += 1;
    }
    // The inspector stepped to the end; verify its state against the
    // trailer digest.
    let report = inspector.run_to_end().map_err(|e| e.to_string())?;
    if json {
        println!(
            "{{\"event\":\"inspect_end\",\"commits\":{},\"matches_recording\":{}}}",
            report.commits, report.matches_recording
        );
    } else {
        println!(
            "software replay of {} commits matches recording: {}",
            report.commits, report.matches_recording
        );
    }
    Ok(())
}

/// `delorean analyze --trace PATH` — validates a JSONL session trace
/// against the `delorean-trace` schema and summarizes it. Exits
/// non-zero on the first schema violation.
fn cmd_analyze_trace(path: &str, json: bool) -> Result<ExitCode, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    match delorean_trace::validate(BufReader::new(file)) {
        Ok(s) => {
            if json {
                println!(
                    "{{\"trace\":\"valid\",\"lines\":{},\"mode\":\"{}\",\"workload\":\"{}\",\"procs\":{},\"commits\":{},\"chunk_starts\":{},\"squashes\":{},\"interrupts\":{},\"segment_flushes\":{},\"cycles\":{}}}",
                    s.lines,
                    s.mode,
                    s.workload,
                    s.procs,
                    s.commits,
                    s.chunk_starts,
                    s.squashes,
                    s.interrupts,
                    s.segment_flushes,
                    s.cycles
                );
            } else {
                println!(
                    "trace OK: {} lines — {} on {} ({} procs), {} commits / {} chunk starts / {} squashes / {} flushes in {} cycles",
                    s.lines,
                    s.workload,
                    s.mode,
                    s.procs,
                    s.commits,
                    s.chunk_starts,
                    s.squashes,
                    s.segment_flushes,
                    s.cycles
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            println!("trace INVALID: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_analyze(args: &Args) -> Result<ExitCode, String> {
    if let Some(tpath) = args.get("--trace") {
        return cmd_analyze_trace(&tpath, args.has("--json"));
    }
    let path = recording_path(args)?.clone();
    let skip = args.get_all("--skip");
    let skip = |pass: &str| skip.iter().any(|s| s == pass);
    let max_examples = args.num("--max-examples")?.map(|n| n as usize);
    let deps_requested = args.has("--deps") || args.get("--cert").is_some();

    // `--check-index` is a standalone verb: validate an existing
    // `.dlrnx` checkpoint index against this stream and exit.
    if let Some(xpath) = args.get("--check-index") {
        let encoded = std::fs::read(&xpath).map_err(|e| format!("reading {xpath}: {e}"))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
        return match delorean_analyze::validate_checkpoint_index(&encoded, &bytes) {
            Ok(s) => {
                println!(
                    "checkpoint index OK: {} checkpoint(s) every {} commit(s) over {} commits, \
                     bound to {path} ({} bytes, fingerprint {:#018x})",
                    s.entries, s.interval_k, s.total_commits, s.source_bytes, s.fingerprint
                );
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                println!("checkpoint index INVALID: {e}");
                Ok(ExitCode::FAILURE)
            }
        };
    }

    // `--check-cert` is a standalone verb: validate an existing
    // certificate against this stream and exit.
    if let Some(cert_path) = args.get("--check-cert") {
        let text =
            std::fs::read_to_string(&cert_path).map_err(|e| format!("reading {cert_path}: {e}"))?;
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;
        return match delorean_analyze::validate_certificate(&text, Some(&bytes)) {
            Ok(s) => {
                println!(
                    "certificate OK: schema v{}, {} node(s), {} edge(s), bound to {} ({} bytes, fingerprint {:#018x}){}",
                    s.schema_version,
                    s.node_count,
                    s.edge_count,
                    path,
                    s.source_bytes,
                    s.fingerprint,
                    if s.partial { ", PARTIAL" } else { "" }
                );
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                println!("certificate INVALID: {e}");
                Ok(ExitCode::FAILURE)
            }
        };
    }

    // Pass 3 first: the lint works on the raw byte stream and cannot
    // itself fail, so a corrupt file still yields a report. Linting
    // the full byte image lets a damaged stream also carry the salvage
    // account of what a recovery would preserve. The deps pass shares
    // the byte image (it fingerprints the certificate against it).
    let bytes = if !skip("lint") || deps_requested {
        Some(std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?)
    } else {
        None
    };
    let lint = match &bytes {
        Some(b) if !skip("lint") => Some(delorean_analyze::lint_bytes(b)),
        _ => None,
    };
    // Pass 4: the dependence DAG / parallelism certificate. Works from
    // the byte image so damaged streams degrade to a partial
    // certificate over the salvaged prefix instead of erroring.
    let deps = match &bytes {
        Some(b) if deps_requested => Some(delorean_analyze::deps_from_bytes(
            b,
            &delorean_analyze::DepsOptions::default(),
        )),
        _ => None,
    };

    // The replay-based passes need decodable metadata; without it they
    // are skipped (the lint above already carries the decode error).
    let report = match open_source(&path) {
        Err(_) => delorean_analyze::AnalysisReport {
            workload: "unknown".to_string(),
            mode: "unknown".to_string(),
            n_procs: 0,
            static_pass: None,
            races: None,
            lint,
            deps,
        },
        Ok(source) => {
            let meta = source
                .meta()
                .ok_or("stream carries no recording metadata")?
                .clone();
            let static_pass = if skip("static") {
                None
            } else {
                let mut opts = delorean_analyze::StaticOptions::default();
                if let Some(n) = max_examples {
                    opts.max_examples = n;
                }
                Some(delorean_analyze::analyze_workload(
                    &meta.workload,
                    meta.n_procs,
                    meta.app_seed,
                    &opts,
                ))
            };
            let races = if skip("races") {
                None
            } else {
                let mut opts = delorean_analyze::RaceOptions::default();
                if let Some(n) = max_examples {
                    opts.max_examples = n;
                }
                Some(match delorean_analyze::detect_races(source, &opts) {
                    Ok(r) => r,
                    Err(e) => delorean_analyze::RaceReport::failed(&e),
                })
            };
            delorean_analyze::AnalysisReport {
                workload: meta.workload.name.to_string(),
                mode: meta.mode.to_string(),
                n_procs: meta.n_procs,
                static_pass,
                races,
                lint,
                deps,
            }
        }
    };
    if let Some(cert_path) = args.get("--cert") {
        let Some(d) = &report.deps else {
            return Err("--cert requires the dependence pass (pass --deps)".to_string());
        };
        match d.certificate() {
            Some(text) => {
                std::fs::write(&cert_path, text)
                    .map_err(|e| format!("writing {cert_path}: {e}"))?;
                if !args.has("--json") {
                    println!("wrote replay-parallelism certificate -> {cert_path}");
                }
            }
            None => {
                return Err(
                    "no certificate: the dependence replay did not complete (see diagnostics)"
                        .to_string(),
                )
            }
        }
    }
    if args.has("--json") {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
    if report.error_count() > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// `delorean crashtest` — sweeps the fault-injection scenario matrix
/// (workloads × modes × fault classes) and verifies the recovery
/// invariants: every injected-fault run either replays bit-identically
/// to ground truth on its recovered commit ranges or produces a
/// salvage report naming the lost range. The matrix runs twice to
/// prove the fault schedules and reports are seed-deterministic.
/// Exits non-zero iff any invariant is violated.
fn cmd_crashtest(args: &Args) -> Result<ExitCode, String> {
    let mut cfg = delorean_faults::CrashtestConfig::smoke(args.num("--seed")?.unwrap_or(42));
    if let Some(n) = args.num("--procs")? {
        delorean::validate_procs(n as u32).map_err(|e| format!("bad --procs: {e}"))?;
        cfg.procs = n as u32;
    }
    if let Some(n) = args.num("--budget")? {
        cfg.budget = n;
    }
    if let Some(n) = args.num("--chunk")? {
        cfg.chunk_size = n as u32;
    }
    let workloads = args.get_all("--workload");
    if !workloads.is_empty() {
        for w in &workloads {
            if workload::by_name(w).is_none() {
                return Err(format!("unknown workload {w} (see `delorean list`)"));
            }
        }
        cfg.workloads = workloads;
    }
    let report = delorean_faults::run_crashtest(&cfg)?;
    print!("{}", report.render());
    let again = delorean_faults::run_crashtest(&cfg)?;
    if report.render() != again.render() {
        println!("crashtest: FAIL (matrix is not deterministic across reruns)");
        return Ok(ExitCode::FAILURE);
    }
    if report.passed() {
        println!("crashtest: PASS (matrix deterministic across reruns)");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("crashtest: FAIL");
        Ok(ExitCode::FAILURE)
    }
}

/// `delorean bench` — the parallel experiment engine: regenerates the
/// paper's figure/table points as a job sweep, optionally writing the
/// structured `BENCH_results.json` document and gating against a
/// committed baseline.
///
/// No partial output: any sweep error (zero budget, unknown workload
/// or figure, a panicking job) surfaces *before* the JSON file is
/// created.
fn cmd_bench(args: &Args) -> Result<ExitCode, String> {
    let mut figures = Vec::new();
    for name in args.get_all("--figure") {
        figures.push(
            bench::Figure::parse(&name).ok_or_else(|| {
                bench::BenchError::UnknownFigure { name: name.clone() }.to_string()
            })?,
        );
    }
    let cfg = bench::SweepConfig {
        figures,
        jobs: args.num("--jobs")?.unwrap_or(0) as usize,
        full: args.has("--full"),
        base_seed: args.num("--seed")?.unwrap_or(42),
        budget_div: args.num("--budget-div")?.unwrap_or(1),
        verbose: args.has("--verbose"),
    };
    let results = bench::run_sweep(&cfg).map_err(|e| e.to_string())?;

    if let Some(path) = args.get("--json") {
        let text = results.to_json().pretty();
        std::fs::write(&path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {} records to {path} ({} workers, {:.0} ms)",
            results.records.len(),
            results.workers,
            results.total_wall_ms
        );
    }
    print_bench_summary(&results);
    if args.has("--verbose") {
        print_stage_totals(&results);
    }

    let Some(baseline_path) = args.get("--baseline") else {
        return Ok(ExitCode::SUCCESS);
    };
    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let baseline = bench::parse_document(&text).map_err(|e| e.to_string())?;
    let tolerance = args.num("--tolerance")?.unwrap_or(25) as f64;
    let report = bench::diff_against(&results, &baseline, tolerance);
    print!("{}", report.render());
    if report.passed() {
        println!("baseline gate: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("baseline gate: FAIL");
        Ok(ExitCode::FAILURE)
    }
}

fn print_bench_summary(results: &bench::SweepResults) {
    for s in &results.summaries {
        println!();
        println!("== {} ==", s.figure);
        for m in &s.metrics {
            match m.paper {
                Some(p) => println!(
                    "  {:<32} measured {:>10.3}   paper {:>8.3}",
                    m.name, m.measured, p
                ),
                None => println!("  {:<32} measured {:>10.3}", m.name, m.measured),
            }
        }
    }
}

/// Per-stage wall-clock totals across the sweep (`--verbose`).
fn print_stage_totals(results: &bench::SweepResults) {
    let mut record = 0.0;
    let mut replay = 0.0;
    let mut compress = 0.0;
    let mut arb: u64 = 0;
    for r in &results.records {
        record += r.timings.record_ms;
        replay += r.timings.replay_ms;
        compress += r.timings.compress_ms;
        arb += r.timings.arb_cycles;
    }
    println!();
    println!("stage totals across {} jobs:", results.records.len());
    println!("  record    {record:>10.0} ms");
    println!("  replay    {replay:>10.0} ms");
    println!("  compress  {compress:>10.0} ms");
    println!("  commit arbitration {arb} simulated cycles");
    let peak = results.records.iter().map(|r| r.peak_rss_kb).max();
    if let Some(kb) = peak {
        println!("  peak RSS  {kb} KiB");
    }
}

fn parse_addr(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| format!("bad address {s}"))
}
