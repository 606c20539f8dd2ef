//! The three workloads: their set-up, one unit of fixed deterministic work,
//! the unit's determinism signature and its correctness checks.
//!
//! A unit is one fuzzing campaign of a fixed iteration count, or one
//! replay of a merged corpus, seeded from the run seed and its index. It
//! always starts from a freshly booted session, so running a unit again —
//! in the same run or another run with the same seed — does exactly the
//! same guest work.

use std::time::Instant;

use embsan_core::probe::{probe, ProbeArtifacts};
use embsan_core::session::Session;
use embsan_dsl::SanitizerSpec;
use embsan_emu::profile::ArchProfile;
use embsan_emu::snapshot::Snapshot;
use embsan_emu::{Machine, NullHook, RunExit};
use embsan_fuzz::campaign::{attribute_findings, probe_mode_for};
use embsan_fuzz::{descriptions_for, Dictionary, Fuzzer, FuzzerConfig, Strategy, SyscallDesc};
use embsan_guestos::executor::{sys, ExecProgram};
use embsan_guestos::workload::merged_corpus;
use embsan_guestos::{firmware_by_name, FirmwareSpec, SanMode};

use crate::spans::Spans;

/// Boot budget in guest instructions (as the campaign driver uses).
const READY_BUDGET: u64 = 200_000_000;
/// Per-program budget of the Figure-2 replay (as the figure2 harness).
const REPLAY_BUDGET: u64 = 50_000_000;
/// Raw-machine run slice of the baseline replay (as the figure2 harness).
const RAW_SLICE: u64 = 500_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-source TP-Link WDR-7660: EMBSAN-D dynamic-binary probes,
    /// Tardis mutation, emulator block coverage.
    FuzzClosed,
    /// The Figure-2 merged corpus replayed on OpenWRT-armvirt (EMBSAN-C,
    /// hypercall checks), plus a raw uninstrumented baseline.
    ReplayFig2,
    /// InfiniTime (FreeRTOS, EMBSAN-D source) with its whole platform MMIO
    /// window withheld and served model-free.
    FuzzWithheld,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fuzz-closed" => Some(Workload::FuzzClosed),
            "replay-fig2" => Some(Workload::ReplayFig2),
            "fuzz-withheld" => Some(Workload::FuzzWithheld),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FuzzClosed => "fuzz-closed",
            Workload::ReplayFig2 => "replay-fig2",
            Workload::FuzzWithheld => "fuzz-withheld",
        }
    }

    fn firmware(self) -> &'static FirmwareSpec {
        let name = match self {
            Workload::FuzzClosed => "TP-Link WDR-7660",
            Workload::ReplayFig2 => "OpenWRT-armvirt",
            Workload::FuzzWithheld => "InfiniTime",
        };
        firmware_by_name(name).expect("workload firmware is a Table-1 row")
    }

    /// Whether the workload drives the fuzzer.
    pub fn is_fuzz(self) -> bool {
        self != Workload::ReplayFig2
    }

    /// Units (independently seeded campaigns or corpora) per run: enough
    /// unique work that the throughput of a run does not hinge on the few
    /// campaigns one seed happens to draw.
    pub fn units(self) -> u64 {
        match self {
            Workload::FuzzClosed => 100,
            Workload::ReplayFig2 => 32,
            Workload::FuzzWithheld => 32,
        }
    }

    /// Fuzzing iterations per unit (a replay unit is one whole corpus).
    fn programs(self) -> u64 {
        match self {
            Workload::FuzzClosed => 1000,
            Workload::ReplayFig2 => 20,
            Workload::FuzzWithheld => 50,
        }
    }

    /// Per-program instruction budget.
    fn program_budget(self) -> u64 {
        match self {
            // Short syscall programs complete far below the default budget.
            Workload::FuzzClosed => FuzzerConfig::new(Strategy::Tardis, 0).program_budget,
            Workload::ReplayFig2 => REPLAY_BUDGET,
            // Withheld programs run to their budget slice by design: the
            // slice `tests/mmio_model_free.rs` uses.
            Workload::FuzzWithheld => 120_000,
        }
    }
}

/// Wall seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `FirmwareSpec::build`.
    pub build: f64,
    /// `probe` (plus distilling the reference sanitizer specs).
    pub probe: f64,
    /// `Session::with_cpus` + `run_to_ready`.
    pub boot: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.build + self.probe + self.boot
    }
}

/// Everything a unit needs that set-up produced once.
pub struct Prepared {
    workload: Workload,
    spec: &'static FirmwareSpec,
    artifacts: ProbeArtifacts,
    image: embsan_asm::FirmwareImage,
    sanitizers: Vec<SanitizerSpec>,
    cpus: usize,
    dict: Dictionary,
    descs: Vec<SyscallDesc>,
    /// The raw uninstrumented machine at its boot idle point (replay only).
    baseline: Option<(Machine, Snapshot)>,
}

fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = spans.time(name, f);
    (value, start.elapsed().as_secs_f64())
}

/// Builds, probes and boots the workload's firmware in its Table-1
/// configuration, timing each phase.
pub fn setup(workload: Workload, spans: &mut Spans) -> Result<(Prepared, SetupTimes), String> {
    spans.enter("setup");
    let result = setup_phases(workload, spans);
    spans.exit();
    result
}

fn setup_phases(workload: Workload, spans: &mut Spans) -> Result<(Prepared, SetupTimes), String> {
    let spec = workload.firmware();
    let (image, build) = timed(spans, "setup.build", || spec.build(spec.default_san_mode()));
    let image = image.map_err(|e| format!("{}: build failed: {e}", spec.name))?;
    let ((artifacts, sanitizers), probe_secs) = timed(spans, "setup.probe", || {
        (probe(&image, probe_mode_for(spec), None), embsan_core::reference_specs())
    });
    let artifacts = artifacts.map_err(|e| format!("{}: probe failed: {e}", spec.name))?;
    let sanitizers = sanitizers.map_err(|e| format!("distilling sanitizer specs: {e}"))?;
    let prepared = Prepared {
        workload,
        spec,
        dict: Dictionary::extract(&image),
        descs: descriptions_for(spec),
        artifacts,
        image,
        sanitizers,
        cpus: if spec.needs_smp() { 2 } else { 1 },
        baseline: None,
    };
    let (session, boot) = timed(spans, "setup.boot", || prepared.boot());
    session?;
    Ok((prepared, SetupTimes { build, probe: probe_secs, boot }))
}

impl Prepared {
    /// A fresh session at the ready point.
    fn boot(&self) -> Result<Session, String> {
        let fail = |e: embsan_core::session::SessionError| format!("{}: {e}", self.spec.name);
        let mut session =
            Session::with_cpus(&self.image, &self.sanitizers, &self.artifacts, self.cpus)
                .map_err(fail)?;
        if self.workload == Workload::FuzzWithheld {
            // Before run_to_ready, as the campaign driver does, so boot-time
            // refinement is part of the reset snapshot.
            let profile = ArchProfile::for_arch(self.spec.arch);
            session.enable_model_free(profile.mmio_base, profile.mmio_size, true);
        }
        session.run_to_ready(READY_BUDGET).map_err(fail)?;
        Ok(session)
    }

    /// Builds and boots the uninstrumented raw baseline machine of the
    /// replay workload (outside the timed set-up: it is not part of the
    /// sanitized system a user sets up).
    pub fn prepare_baseline(&mut self) -> Result<(), String> {
        if self.workload != Workload::ReplayFig2 || self.baseline.is_some() {
            return Ok(());
        }
        let image = self.spec.build(SanMode::None).map_err(|e| format!("baseline build: {e}"))?;
        let mut machine = image.boot_machine(self.cpus).map_err(|e| format!("baseline: {e}"))?;
        let exit =
            machine.run(&mut NullHook, READY_BUDGET).map_err(|e| format!("baseline: {e}"))?;
        if exit != RunExit::AllIdle {
            return Err(format!("baseline boot ended {exit:?}, expected AllIdle"));
        }
        let snapshot = machine.snapshot();
        self.baseline = Some((machine, snapshot));
        Ok(())
    }
}

/// The exact outcome of a unit: identical every time the unit runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Guest instructions retired over the unit (lifetime clock).
    pub retired: u64,
    /// Sanitizer checks performed.
    pub checks: u64,
    /// Coverage buckets reached (fuzz).
    pub coverage: usize,
    /// Corpus entries retained (fuzz) or programs replayed (replay).
    pub corpus: usize,
    /// Findings as (bug class, faulting pc), in discovery order.
    pub findings: Vec<(String, u32)>,
    /// Table-4 rows attributed, in discovery order.
    pub bugs: Vec<usize>,
    /// FNV-1a over every program's call-result bytes (replay).
    pub results: u64,
}

impl Signature {
    /// One-line rendering for logs.
    pub fn render(&self) -> String {
        format!(
            "retired={} checks={} coverage={} corpus={} findings={} bugs={:?} results={:016x}",
            self.retired,
            self.checks,
            self.coverage,
            self.corpus,
            self.findings.len(),
            self.bugs,
            self.results
        )
    }
}

/// Exact per-layer counts accumulated by traced units.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Programs executed in timed units.
    pub execs: u64,
    /// Guest instructions retired inside the timed execution calls.
    pub exec_insns: u64,
    /// Blocks translated during execution calls.
    pub translations: u64,
    /// Dispatches served from the translation cache.
    pub hits: u64,
    /// Dispatches served through a chain edge or superblock seam.
    pub chained: u64,
    /// Sanitizer checks during execution calls.
    pub checks: u64,
    /// Checks that took the slow path.
    pub slow_checks: u64,
    /// Programs the fuzzer retained.
    pub retained: u64,
    /// Explicit resets timed.
    pub resets: u64,
    /// Private overlay bytes found before those resets.
    pub dirty_bytes: u64,
    /// Model-free MMIO reads, cache hits and stream draws.
    pub mmio_reads: u64,
    /// See `mmio_reads`.
    pub mmio_hits: u64,
    /// See `mmio_reads`.
    pub mmio_draws: u64,
    /// Exec index (within its unit) of the last newly attributed bug,
    /// summed over units.
    pub last_bug_exec: u64,
    /// Units that attributed at least one bug.
    pub bug_units: u64,
    /// Guest instructions of the raw baseline replay.
    pub baseline_insns: u64,
    /// Units folded in.
    pub units: u64,
}

impl Counts {
    /// Adds another unit's counts.
    pub fn add(&mut self, other: &Counts) {
        self.execs += other.execs;
        self.exec_insns += other.exec_insns;
        self.translations += other.translations;
        self.hits += other.hits;
        self.chained += other.chained;
        self.checks += other.checks;
        self.slow_checks += other.slow_checks;
        self.retained += other.retained;
        self.resets += other.resets;
        self.dirty_bytes += other.dirty_bytes;
        self.mmio_reads += other.mmio_reads;
        self.mmio_hits += other.mmio_hits;
        self.mmio_draws += other.mmio_draws;
        self.last_bug_exec += other.last_bug_exec;
        self.bug_units += other.bug_units;
        self.baseline_insns += other.baseline_insns;
        self.units += other.units;
    }
}

/// One unit's result.
pub struct Unit {
    /// Programs executed in the timed region.
    pub execs: u64,
    /// Wall seconds of the timed region.
    pub secs: f64,
    /// The unit's determinism signature.
    pub signature: Signature,
    /// Programs whose execution failed or failed a check.
    pub failed: u64,
    /// Descriptions of the failures (first few).
    pub errors: Vec<String>,
    /// Per-layer counts (traced units only).
    pub counts: Counts,
}

impl Unit {
    /// An empty unit that only collects check failures.
    pub fn new() -> Unit {
        Unit {
            execs: 0,
            secs: 0.0,
            signature: Signature {
                retired: 0,
                checks: 0,
                coverage: 0,
                corpus: 0,
                findings: Vec::new(),
                bugs: Vec::new(),
                results: FNV_OFFSET,
            },
            failed: 0,
            errors: Vec::new(),
            counts: Counts { units: 1, ..Counts::default() },
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a step over `bytes`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// Counters read around one execution call.
#[derive(Clone, Copy)]
struct Probe {
    retired: u64,
    translations: u64,
    hits: u64,
    chained: u64,
    checks: u64,
    slow: u64,
    mmio: (u64, u64, u64),
}

impl Probe {
    fn read(session: &Session) -> Probe {
        let cache = session.cache_stats();
        let mmio = session
            .model_free_stats()
            .map_or((0, 0, 0), |s| (s.reads, s.cache_hits, s.stream_draws));
        Probe {
            retired: session.machine().lifetime_retired(),
            translations: cache.translations,
            hits: cache.hits,
            chained: cache.chained_dispatches,
            checks: session.runtime().checks_performed(),
            slow: session.runtime().slow_path_checks(),
            mmio,
        }
    }

    fn add_delta(self, after: Probe, counts: &mut Counts) {
        counts.exec_insns += after.retired - self.retired;
        counts.translations += after.translations - self.translations;
        counts.hits += after.hits - self.hits;
        counts.chained += after.chained - self.chained;
        counts.checks += after.checks - self.checks;
        counts.slow_checks += after.slow - self.slow;
        // Model-free statistics live in the snapshotted device state: the
        // reset before the call rewinds them to the base, so the delta is
        // exactly this program's traffic.
        counts.mmio_reads += after.mmio.0 - self.mmio.0;
        counts.mmio_hits += after.mmio.1 - self.mmio.1;
        counts.mmio_draws += after.mmio.2 - self.mmio.2;
    }
}

/// The seed of unit `index` of a run seeded `seed` (SplitMix64 finalizer,
/// so neighbouring run seeds share no unit).
pub fn unit_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one unit of `prepared`'s workload: a fresh boot, then the fixed
/// work of `seed` in one timed region.
///
/// # Errors
///
/// Harness failures that stop the unit (a failed boot); failures of single
/// programs are counted in the returned unit.
pub fn run_unit(prepared: &mut Prepared, seed: u64, spans: &mut Spans) -> Result<Unit, String> {
    let session = spans.time("unit.boot", || prepared.boot())?;
    let mut unit = if prepared.workload.is_fuzz() {
        fuzz_unit(prepared, session, seed, spans)
    } else {
        replay_unit(session, seed, spans)
    };
    if spans.enabled() && !prepared.workload.is_fuzz() {
        let corpus = replay_corpus(seed);
        let insns = spans.time("baseline", || replay_baseline(prepared, &corpus, &mut unit))?;
        unit.counts.baseline_insns += insns;
    }
    Ok(unit)
}

fn fuzz_unit(prepared: &Prepared, mut session: Session, seed: u64, spans: &mut Spans) -> Unit {
    let traced = spans.enabled();
    let config = FuzzerConfig {
        program_budget: prepared.workload.program_budget(),
        ..FuzzerConfig::new(Strategy::Tardis, seed)
    };
    let start = Probe::read(&session);
    let mut unit = Unit::new();
    let latent = prepared.spec.latent_bugs();
    let mut fuzzer =
        Fuzzer::new(&mut session, prepared.descs.clone(), prepared.dict.clone(), config);
    let mut bugs_seen = 0;
    spans.enter("unit");
    let timer = Instant::now();
    for _ in 0..prepared.workload.programs() {
        let program = spans.time("fuzz.mutate", || fuzzer.next_program());
        let mut before = None;
        if traced {
            // The reset the next execution would do, timed on the state the
            // previous execution left behind.
            let dirty = spans.time("harness.counters", || fuzzer.session_mut().overlay_bytes());
            if let Err(e) = spans.time("snapshot.reset", || fuzzer.session_mut().reset()) {
                unit.fail(format!("reset: {e}"));
                break;
            }
            unit.counts.resets += 1;
            unit.counts.dirty_bytes += dirty as u64;
            before = Some(spans.time("harness.counters", || Probe::read(fuzzer.session_mut())));
        }
        let outcome = spans.time("emu.exec", || fuzzer.run_raw(&program));
        unit.execs += 1;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                unit.fail(format!("exec {}: {e}", unit.execs));
                break;
            }
        };
        if let Some(before) = before {
            let after = spans.time("harness.counters", || Probe::read(fuzzer.session_mut()));
            before.add_delta(after, &mut unit.counts);
        }
        let summary = match spans.time("fuzz.commit", || fuzzer.commit(&program, outcome)) {
            Ok(summary) => summary,
            Err(e) => {
                unit.fail(format!("commit {}: {e}", unit.execs));
                break;
            }
        };
        unit.counts.retained += u64::from(summary.retained);
        if !summary.new_findings.is_empty() {
            spans.enter("fuzz.attribute");
            // No false positives: every finding's minimized reproducer must
            // still carry a syscall gating one of the firmware's seeded bugs.
            for finding in &fuzzer.findings()[summary.new_findings.clone()] {
                let attributed = finding.bug_syscalls.iter().any(|&nr| {
                    nr >= sys::BUG_BASE && usize::from(nr - sys::BUG_BASE) < latent.len()
                });
                if !attributed {
                    unit.fail(format!(
                        "exec {}: unattributed finding {} at {:#x}",
                        unit.execs, finding.report.class, finding.report.pc
                    ));
                }
            }
            let bugs = attribute_findings(prepared.spec, fuzzer.findings()).len();
            if bugs > bugs_seen {
                bugs_seen = bugs;
                unit.counts.last_bug_exec = unit.execs;
            }
            spans.exit();
        }
    }
    unit.secs = timer.elapsed().as_secs_f64();
    spans.exit();
    let stats = fuzzer.stats();
    let findings = fuzzer.into_findings();
    let end = Probe::read(&session);
    unit.counts.execs = unit.execs;
    unit.counts.bug_units = u64::from(bugs_seen > 0);
    unit.signature.retired = end.retired - start.retired;
    unit.signature.checks = end.checks - start.checks;
    unit.signature.coverage = stats.coverage;
    unit.signature.corpus = stats.corpus;
    unit.signature.findings =
        findings.iter().map(|f| (f.report.class.to_string(), f.report.pc)).collect();
    unit.signature.bugs =
        attribute_findings(prepared.spec, &findings).iter().map(|b| b.latent_index).collect();
    unit
}

/// The replay corpus of a unit seed: the Figure-2 merged corpus shape (20
/// programs of 56 calls) from the Figure-2 corpus seed mixed with the
/// unit seed.
pub fn replay_corpus(seed: u64) -> Vec<ExecProgram> {
    merged_corpus(0xF16 ^ (seed ^ (seed >> 32)) as u32, 20, 56)
}

fn replay_unit(mut session: Session, seed: u64, spans: &mut Spans) -> Unit {
    let traced = spans.enabled();
    let corpus = replay_corpus(seed);
    let start = Probe::read(&session);
    let mut unit = Unit::new();
    spans.enter("unit");
    let timer = Instant::now();
    for program in &corpus {
        let before = traced.then(|| spans.time("harness.counters", || Probe::read(&session)));
        let outcome = spans.time("emu.exec", || session.run_program(program, REPLAY_BUDGET));
        unit.execs += 1;
        if let Some(before) = before {
            let after = spans.time("harness.counters", || Probe::read(&session));
            before.add_delta(after, &mut unit.counts);
        }
        match outcome {
            Ok(outcome) => {
                // The corpus is clean: any report is a false positive, and
                // every call must return its result.
                if let Some(report) = outcome.reports.first() {
                    unit.fail(format!("program {}: false positive {}", unit.execs, report.class));
                }
                if outcome.results.len() != program.calls.len() {
                    unit.fail(format!(
                        "program {}: {} of {} call results ({:?})",
                        unit.execs,
                        outcome.results.len(),
                        program.calls.len(),
                        outcome.exit
                    ));
                }
                unit.signature.results = fnv(unit.signature.results, &outcome.results);
            }
            Err(e) => unit.fail(format!("program {}: {e}", unit.execs)),
        }
    }
    unit.secs = timer.elapsed().as_secs_f64();
    spans.exit();
    let end = Probe::read(&session);
    unit.counts.execs = unit.execs;
    unit.signature.retired = end.retired - start.retired;
    unit.signature.checks = end.checks - start.checks;
    unit.signature.corpus = corpus.len();
    unit
}

/// Replays `corpus` on the raw uninstrumented machine from its boot idle
/// point, checking every program returns all its call results. Returns
/// the guest instructions retired.
///
/// # Errors
///
/// Emulator errors (a harness failure, not a workload result).
pub fn replay_baseline(
    prepared: &mut Prepared,
    corpus: &[ExecProgram],
    unit: &mut Unit,
) -> Result<u64, String> {
    prepared.prepare_baseline()?;
    let (machine, snapshot) = prepared.baseline.as_mut().expect("replay baseline prepared");
    machine.restore(snapshot).map_err(|e| format!("baseline restore: {e}"))?;
    let retired = machine.lifetime_retired();
    for (index, program) in corpus.iter().enumerate() {
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        let mut spent = 0;
        loop {
            let exit =
                machine.run(&mut NullHook, RAW_SLICE).map_err(|e| format!("baseline: {e}"))?;
            spent += RAW_SLICE;
            if matches!(exit, RunExit::Halted { .. } | RunExit::Faulted { .. }) {
                unit.fail(format!("baseline program {index}: {exit:?}"));
                break;
            }
            let done = machine.bus().devices.mailbox.result_count() >= program.calls.len();
            if done || spent >= REPLAY_BUDGET {
                break;
            }
        }
        let results = machine.bus_mut().devices.mailbox.host_take_results();
        if results.len() != program.calls.len() {
            unit.fail(format!(
                "baseline program {index}: {} of {} call results",
                results.len(),
                program.calls.len()
            ));
        }
    }
    Ok(machine.lifetime_retired() - retired)
}
