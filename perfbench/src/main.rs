//! Fixed-work, host-normalized benchmark of the EMBSAN stack.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fuzz-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run sets the workload up several times, then makes passes over a fixed
//! list of units of deterministic work seeded from `--seed` until
//! `--seconds` have passed, measuring the frozen reference interpreter
//! between units. The last line of standard output is one JSON object: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. The process exits non-zero when a correctness
//! or determinism check fails. `NOTES.md` explains the method.

mod refint;
mod spans;
mod workload;

use std::time::Instant;

use refint::{RefInterp, R_NOMINAL_MOPS};
use spans::Spans;
use workload::{Counts, Signature, Unit, Workload};

/// Full set-ups per run; `setup_s` is the median of their wall times.
const SETUPS: usize = 31;
/// Largest share of the traced units' wall time that may fall outside
/// every layer span before the attribution is declared broken.
const CLOSURE_TOLERANCE: f64 = 0.05;
/// Where the traced run writes its spans.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let parsed = Workload::parse(&value);
                workload = Some(parsed.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(secs > 0.0 && secs <= 600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Operations attempted and failed over a run.
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn fail(&mut self, error: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {error}");
    }

    /// Accounts a unit: its programs and its own failures.
    fn account(&mut self, unit: &Unit, label: &str) {
        self.attempted += unit.execs;
        self.failed += unit.failed;
        for error in &unit.errors {
            eprintln!("perfbench: FAILED: {label}: {error}");
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Ledger, Vec<Metric>), String> {
    let started = Instant::now();
    let refint = RefInterp::new();
    refint.self_test()?;
    let mut ledger = Ledger { attempted: 0, failed: 0 };
    let mut spans = Spans::new(args.trace);
    let mut quiet = Spans::new(false);
    let mut ref_mops = Vec::new();

    // Set-up, several times. Its wall time is not rescaled by the
    // reference: set-up (allocation, page faults, a short boot) slows under
    // contention about a third as much as the reference does, so rescaling
    // over-corrects it (see NOTES.md).
    let mut setup_phases = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        ledger.attempted += 1;
        let (prep, times) = workload::setup(args.workload, &mut spans)?;
        setup_phases.push(times);
        prepared = Some(prep);
    }
    let mut prepared = prepared.expect("SETUPS is not zero");

    // Passes over the run's units until the time is up. The first pass runs
    // every unit; later passes repeat them, re-checking each signature and
    // giving each unit more timing samples. A traced run traces every
    // second pass and makes at least one traced and one untraced pass.
    let seeds: Vec<u64> =
        (0..args.workload.units()).map(|i| workload::unit_seed(args.seed, i)).collect();
    let mut signatures: Vec<Option<Signature>> = vec![None; seeds.len()];
    let mut best = vec![f64::INFINITY; seeds.len()];
    let mut unit_execs = vec![0u64; seeds.len()];
    let (mut raw_execs, mut raw_secs, mut norm_secs) = (0u64, 0.0f64, 0.0f64);
    let (mut traced_execs, mut traced_secs) = (0u64, 0.0f64);
    let mut counts = Counts::default();
    let measure_start = Instant::now();
    let mut previous = refint.measure()?;
    ref_mops.push(previous);
    let min_passes = if args.trace { 2 } else { 1 };
    let mut passes = 0;
    'passes: for pass in 0.. {
        let trace_pass = args.trace && pass % 2 == 1;
        for (index, &seed) in seeds.iter().enumerate() {
            if pass >= min_passes && measure_start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            passes = pass + 1;
            let recorder = if trace_pass { &mut spans } else { &mut quiet };
            let unit = workload::run_unit(&mut prepared, seed, recorder)?;
            // Each unit's time is rescaled by the reference rates measured
            // just before and just after it.
            let next = refint.measure()?;
            ref_mops.push(next);
            let normalized = unit.secs * (previous + next) / 2.0 / R_NOMINAL_MOPS;
            previous = next;
            ledger.account(&unit, &format!("pass {pass} unit {index}"));
            match &signatures[index] {
                None => signatures[index] = Some(unit.signature.clone()),
                Some(first) if *first != unit.signature => ledger.fail(&format!(
                    "pass {pass} unit {index}: signature {} differs from its first run's {}",
                    unit.signature.render(),
                    first.render()
                )),
                Some(_) => {}
            }
            if trace_pass {
                spans.fold();
                counts.add(&unit.counts);
                traced_execs += unit.execs;
                traced_secs += unit.secs;
            } else {
                best[index] = best[index].min(normalized);
                unit_execs[index] = unit.execs;
                raw_execs += unit.execs;
                raw_secs += unit.secs;
                norm_secs += normalized;
            }
        }
    }

    // The seed reaches the generated inputs: another run seed must give its
    // first unit another signature.
    let other_seed = workload::unit_seed(!args.seed, 0);
    let other = workload::run_unit(&mut prepared, other_seed, &mut quiet)?;
    ledger.account(&other, "other-seed unit");
    if Some(&other.signature) == signatures[0].as_ref() {
        ledger
            .fail("another seed reproduced unit 0's signature: the seed does not reach the inputs");
    }
    if !args.workload.is_fuzz() && !args.trace {
        // Traced passes replay the raw baseline for every unit; untraced
        // runs check it once, outside the timed work.
        let mut check = Unit::new();
        workload::replay_baseline(&mut prepared, &workload::replay_corpus(seeds[0]), &mut check)?;
        ledger.account(&check, "baseline");
    }

    let firsts: Vec<&Signature> = signatures.iter().flatten().collect();
    let run_signature = firsts
        .iter()
        .fold(workload::fnv(0, b"perfbench"), |h, s| workload::fnv(h, format!("{s:?}").as_bytes()));
    // Every unit ran untraced in the first pass, so every `best` is set.
    let execs_per_s = unit_execs.iter().sum::<u64>() as f64 / best.iter().sum::<f64>();
    eprintln!(
        "perfbench: {} seed {} signature {run_signature:016x}: {} units, {passes} passes in {:.1}s; \
         raw {:.3}/s normalized-mean {:.3}/s normalized-min {execs_per_s:.3}/s ref {:.3} Mops \
         insns/exec {:.1}",
        args.workload.name(),
        args.seed,
        seeds.len(),
        started.elapsed().as_secs_f64(),
        raw_execs as f64 / raw_secs,
        raw_execs as f64 / norm_secs,
        median(&ref_mops),
        firsts.iter().map(|s| s.retired).sum::<u64>() as f64
            / unit_execs.iter().sum::<u64>() as f64,
    );

    let metrics = if args.trace {
        let mean = |f: fn(&Signature) -> f64| {
            firsts.iter().map(|s| f(s)).sum::<f64>() / firsts.len() as f64
        };
        let inputs = LayerInputs {
            ref_mops: median(&ref_mops),
            raw_execs_per_s: raw_execs as f64 / raw_secs,
            traced_execs_per_s: traced_execs as f64 / traced_secs,
            coverage_edges: mean(|s| s.coverage as f64),
            bugs_found: mean(|s| s.bugs.len() as f64),
        };
        let metrics = layer_metrics(&spans, &counts, &setup_phases, &mut ledger, &inputs);
        let path = format!("{TRACE_DIR}/trace-{}-{}.json", args.workload.name(), args.seed);
        std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        metrics
    } else {
        vec![
            ("execs_per_s", execs_per_s, "1/s"),
            ("setup_s", median(&setup_phases.iter().map(|t| t.total()).collect::<Vec<_>>()), "s"),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok((ledger, metrics))
}

/// Run-level inputs of the per-layer metrics.
struct LayerInputs {
    ref_mops: f64,
    raw_execs_per_s: f64,
    traced_execs_per_s: f64,
    coverage_edges: f64,
    bugs_found: f64,
}

/// Spans inside a timed unit that belong to a layer; the rest of a unit's
/// time is unattributed harness glue.
const LAYER_SPANS: [&str; 6] = [
    "fuzz.mutate",
    "fuzz.commit",
    "fuzz.attribute",
    "snapshot.reset",
    "emu.exec",
    "harness.counters",
];

fn layer_metrics(
    spans: &Spans,
    counts: &Counts,
    setups: &[workload::SetupTimes],
    ledger: &mut Ledger,
    inputs: &LayerInputs,
) -> Vec<Metric> {
    let ns = |name: &str| spans.totals(name).total_ns as f64;
    let execs = counts.execs as f64;
    let units = counts.units as f64;
    let exec_ns = ns("emu.exec");
    let baseline_ns = ns("baseline");

    // Attribution closure: the layers' self times must account for the
    // traced units' wall time.
    let timed = spans.totals("unit");
    let attributed: u64 = LAYER_SPANS.iter().map(|name| spans.totals(name).self_ns).sum();
    let unattributed = 1.0 - ratio(attributed as f64, timed.total_ns as f64);
    if timed.count == 0 || unattributed.abs() > CLOSURE_TOLERANCE {
        ledger.fail(&format!(
            "attribution does not close: layer spans account for {attributed} of {} traced ns \
             (tolerance {CLOSURE_TOLERANCE})",
            timed.total_ns
        ));
    }
    for (name, t) in spans.all_totals() {
        eprintln!(
            "perfbench: span {name:<18} count {:>9} total {:>12.3} ms self {:>12.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    let phase =
        |f: fn(&workload::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let per_exec = |n: u64| ratio(n as f64, execs);
    vec![
        ("setup.build_s", phase(|t| t.build), "s"),
        ("setup.probe_s", phase(|t| t.probe), "s"),
        ("setup.boot_s", phase(|t| t.boot), "s"),
        ("fuzz.mutate_us", ratio(ns("fuzz.mutate"), execs) / 1e3, "us"),
        ("fuzz.commit_us", ratio(ns("fuzz.commit") + ns("fuzz.attribute"), execs) / 1e3, "us"),
        ("fuzz.retained_share", per_exec(counts.retained), "ratio"),
        ("fuzz.coverage_edges", inputs.coverage_edges, "count"),
        (
            "fuzz.execs_to_last_bug",
            ratio(counts.last_bug_exec as f64, counts.bug_units as f64),
            "count",
        ),
        ("fuzz.bugs_found", inputs.bugs_found, "count"),
        ("emu.ns_per_insn", ratio(exec_ns, counts.exec_insns as f64), "ns"),
        ("emu.baseline_ns_per_insn", ratio(baseline_ns, counts.baseline_insns as f64), "ns"),
        ("fig2.slowdown", ratio(exec_ns, baseline_ns), "ratio"),
        ("emu.insns_per_exec", per_exec(counts.exec_insns), "count"),
        ("emu.translations", ratio(counts.translations as f64, units), "count"),
        (
            "emu.chained_share",
            ratio(counts.chained as f64, (counts.hits + counts.translations) as f64),
            "ratio",
        ),
        ("runtime.checks_per_exec", per_exec(counts.checks), "count"),
        (
            "runtime.slow_path_share",
            ratio(counts.slow_checks as f64, counts.checks as f64),
            "ratio",
        ),
        (
            "runtime.ns_per_check",
            if baseline_ns > 0.0 {
                ratio(exec_ns - baseline_ns, counts.checks as f64)
            } else {
                0.0
            },
            "ns",
        ),
        ("snapshot.reset_us", ratio(ns("snapshot.reset"), counts.resets as f64) / 1e3, "us"),
        (
            "snapshot.dirty_kib_per_exec",
            ratio(counts.dirty_bytes as f64, counts.resets as f64) / 1024.0,
            "KiB",
        ),
        ("mmio.reads_per_exec", per_exec(counts.mmio_reads), "count"),
        ("mmio.cache_hit_share", ratio(counts.mmio_hits as f64, counts.mmio_reads as f64), "ratio"),
        ("mmio.stream_draws_per_exec", per_exec(counts.mmio_draws), "count"),
        ("host.ref_mops", inputs.ref_mops, "Mops"),
        ("raw.execs_per_s", inputs.raw_execs_per_s, "1/s"),
        (
            "trace.overhead_share",
            1.0 - ratio(inputs.traced_execs_per_s, inputs.raw_execs_per_s),
            "ratio",
        ),
        ("trace.unattributed_share", unattributed, "ratio"),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (ledger, metrics) = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: harness error: {e}");
            std::process::exit(1);
        }
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
