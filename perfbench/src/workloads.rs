//! The benchmark's fixed workloads. The run's seed generates the
//! programs (`app_seed`); nothing else varies with it. README.md in this
//! directory says why each one is here.

use delorean::{Machine, Mode, WorkloadSpec};

/// One workload: a recorded machine, how many independent recordings
/// of it a round makes, and the checkpoint interval and seek spread the
/// seek operations use on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Application from the workload catalog.
    pub app: &'static str,
    /// Recording mode.
    pub mode: Mode,
    /// Processors.
    pub procs: u32,
    /// Instructions per processor.
    pub budget: u64,
    /// Independent recordings per round, each with its own programs
    /// (see [`Workload::app_seed`]); every operation covers all of them.
    pub runs: u32,
    /// Commits between checkpoints in the `.dlrnx` index.
    pub every: u64,
    /// `state_at` targets per recording and round, spread evenly over
    /// the log.
    pub seeks: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "contended-oo64",
        app: "fft",
        mode: Mode::OrderOnly,
        procs: 64,
        budget: 20_000,
        runs: 1,
        every: 512,
        seeks: 32,
    },
    Workload {
        name: "io-picolog8",
        app: "sweb2005",
        mode: Mode::PicoLog,
        procs: 8,
        budget: 100_000,
        // One 8-processor sweb2005 program set is a short loop whose
        // squash rate is fixed by its seed: executed per retired
        // instruction ranges 1.24-2.48 over seeds 1-10 at any budget.
        // Eight recordings per round average that out.
        runs: 8,
        every: 512,
        seeks: 4,
    },
    Workload {
        name: "seek-oo64",
        app: "fft",
        mode: Mode::OrderOnly,
        procs: 64,
        budget: 20_000,
        runs: 1,
        every: 64,
        seeks: 64,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload shrunk to a few processors, instructions and
    /// recordings, for the benchmark's own tests.
    pub fn tiny(self) -> Workload {
        Workload {
            procs: self.procs.min(4),
            budget: 4_000,
            runs: self.runs.min(2),
            every: 8,
            seeks: 4,
            ..self
        }
    }

    /// The program-generation seed of recording `k` of a run seeded
    /// `seed`: the seed itself when a round makes one recording.
    pub fn app_seed(&self, seed: u64, k: u32) -> u64 {
        seed.wrapping_mul(u64::from(self.runs))
            .wrapping_add(u64::from(k))
    }

    /// The catalog entry of the application.
    pub fn spec(&self) -> &'static WorkloadSpec {
        delorean_isa::workload::by_name(self.app).expect("workload table names catalog apps")
    }

    /// The machine that records and replays this workload, replaying
    /// with `jobs` workers.
    pub fn machine(&self, jobs: u32) -> Machine {
        Machine::builder()
            .mode(self.mode)
            .procs(self.procs)
            .budget(self.budget)
            .replay_jobs(jobs)
            .build()
    }
}
