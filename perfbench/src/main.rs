//! End-to-end benchmark of the congest-hardness reproduction.
//!
//! ```text
//! perfbench --workload <paper_report|verify_sweep|sim_large|fault_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--experiments <path>] [--scratch <dir>]
//!           [--reference <file>]
//! ```
//!
//! One process runs one workload for `--seconds` seconds, checks every
//! output against `reference.txt`, prints each metric by name with its
//! unit, and ends with one JSON line: `correct`, `attempted` (operations
//! checked), `failed` (operations whose output mismatched) and `metrics`
//! — the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `run.py` builds this binary and the `experiments` binary
//! and passes `--experiments` and `--scratch`. See `README.md`.

mod fault_sweep;
mod harness;
mod paper_report;
mod sim_large;
mod traced;
mod verify_sweep;

use std::path::PathBuf;
use std::time::Duration;

use harness::{Checks, HostClock, Reference, Samples};

/// End-to-end metrics, reported on every workload with `--trace 0`. The
/// three `phase*_per_s` slots are each workload's three timed phases;
/// README.md names them per workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("phase1_per_s", "1/s"),
    ("phase2_per_s", "1/s"),
    ("phase3_per_s", "1/s"),
];

/// Per-layer metrics, reported on every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("solvers.mis.calls", "count"),
    ("solvers.mis.busy_s", "s"),
    ("solvers.mis.nodes", "count"),
    ("solvers.mis.prunes", "count"),
    ("solvers.mis.bound_cutoffs", "count"),
    ("solvers.mis.forced_moves", "count"),
    ("solvers.mis.nodes_per_s", "1/s"),
    ("solvers.mis.cutoff_ratio", "ratio"),
    ("solvers.mds.calls", "count"),
    ("solvers.mds.busy_s", "s"),
    ("solvers.mds.nodes", "count"),
    ("solvers.mds.prunes", "count"),
    ("solvers.mds.bound_cutoffs", "count"),
    ("solvers.mds.forced_moves", "count"),
    ("solvers.mds.nodes_per_s", "1/s"),
    ("solvers.mds.cutoff_ratio", "ratio"),
    ("solvers.ham.calls", "count"),
    ("solvers.ham.busy_s", "s"),
    ("solvers.ham.nodes", "count"),
    ("solvers.ham.prunes", "count"),
    ("solvers.ham.bound_cutoffs", "count"),
    ("solvers.ham.forced_moves", "count"),
    ("solvers.ham.nodes_per_s", "1/s"),
    ("solvers.ham.cutoff_ratio", "ratio"),
    ("core.build_calls", "count"),
    ("core.build_s", "s"),
    ("core.verify_self_s", "s"),
    ("core.memo_hits", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.full_builds", "count"),
    ("core.delta_builds", "count"),
    ("core.pair_p50_ms", "ms"),
    ("core.pair_p99_ms", "ms"),
    ("sim.rounds", "count"),
    ("sim.messages", "count"),
    ("sim.bits", "count"),
    ("sim.alg_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.engine_ns_per_msg", "ns"),
    ("sim.runs", "count"),
    ("sim.run_us", "us"),
    ("par.jobs", "count"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.utilization", "ratio"),
    ("faults.plans", "count"),
    ("faults.faulty_runs", "count"),
    ("faults.caught", "count"),
    ("faults.recovered", "count"),
    ("faults.exhausted", "count"),
    ("faults.attempts", "count"),
    ("faults.injected", "count"),
    ("faults.retry_ratio", "ratio"),
    ("graph.gen_s", "s"),
    ("report.E0_s", "s"),
    ("report.E7_s", "s"),
    ("report.E10_E12_s", "s"),
    ("report.verify_s", "s"),
    ("comm.rects_explored", "count"),
];

/// One benchmark run: its settings, checks and metric samples.
pub struct Run {
    pub seed: u64,
    /// Logical CPUs of the host, read before any workload pins itself.
    pub nproc: usize,
    pub budget: Duration,
    pub trace: bool,
    /// The `experiments` binary (`paper_report` only).
    pub experiments: Option<PathBuf>,
    /// Directory for temporary files (the traced report's JSONL).
    pub scratch: PathBuf,
    pub checks: Checks,
    pub samples: Samples,
    /// Turns each timed span into nominal seconds; every end-to-end
    /// time and rate is reported in them.
    pub clock: HostClock,
}

/// What a pass of the timed loop measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Fills caches and the allocator; checked, but records no samples.
    Warmup,
    Untraced,
    Traced,
}

impl Pass {
    pub fn label(self) -> &'static str {
        match self {
            Pass::Warmup => "warm-up",
            Pass::Untraced => "untraced",
            Pass::Traced => "traced",
        }
    }
}

impl Run {
    /// Calls `body(self, i, pass)` for passes `i = 0, 1, ...` until
    /// `--seconds` is spent (see [`harness::repeat_for`]) and returns the
    /// pass count. With `warmup`, pass 0 is a warm-up. With `--trace 1`
    /// the measured passes alternate untraced and traced, so both sides
    /// see the same machine conditions.
    pub fn timed_passes(
        &mut self,
        warmup: bool,
        mut body: impl FnMut(&mut Run, usize, Pass),
    ) -> usize {
        let skip = usize::from(warmup);
        let min = skip + if self.trace { 2 } else { 1 };
        let (budget, trace) = (self.budget, self.trace);
        harness::repeat_for(budget, min, |i| {
            let pass = match i.checked_sub(skip) {
                None => Pass::Warmup,
                Some(j) if trace && j % 2 == 1 => Pass::Traced,
                Some(_) => Pass::Untraced,
            };
            body(self, i, pass);
        })
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_report|verify_sweep|sim_large|fault_sweep> \
         --seed <n> --seconds <s> --trace <0|1> [--experiments <path>] [--scratch <dir>] \
         [--reference <file>]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut experiments = None;
    let mut scratch = PathBuf::from(".bench_build");
    let mut reference = PathBuf::from("perfbench/reference.txt");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<u64>().ok(),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--experiments" => experiments = Some(PathBuf::from(value())),
            "--scratch" => scratch = PathBuf::from(value()),
            "--reference" => reference = PathBuf::from(value()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required");
    };
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    let reference = std::fs::read_to_string(&reference)
        .unwrap_or_else(|e| usage(&format!("cannot read {}: {e}", reference.display())));

    let mut run = Run {
        seed,
        nproc: harness::nproc(),
        budget: Duration::from_secs(seconds),
        trace,
        experiments,
        scratch,
        checks: Checks::new(Reference::parse(&reference)),
        samples: Samples::default(),
        clock: HostClock::new(),
    };
    println!(
        "# perfbench workload={workload} seed={seed} seconds={seconds} trace={} nproc={} \
         host_factor={:.3}",
        u8::from(trace),
        run.nproc,
        run.clock.reading()
    );
    match workload.as_str() {
        "paper_report" => paper_report::run(&mut run),
        "verify_sweep" => verify_sweep::run(&mut run),
        "sim_large" => sim_large::run(&mut run),
        "fault_sweep" => fault_sweep::run(&mut run),
        other => usage(&format!("unknown workload {other}")),
    }
    print_result(&mut run);
}

/// Prints every metric on its own line, then the JSON result line.
fn print_result(run: &mut Run) {
    let s = &mut run.samples;
    let (list, kind) = if run.trace {
        s.add("host.nproc", run.nproc as f64);
        let untraced = s.median("wall_s").unwrap_or(0.0);
        let traced = s.median("trace.traced_wall_s").unwrap_or(0.0);
        s.add("trace.overhead_s", traced - untraced);
        s.add(
            "trace.overhead_ratio",
            harness::ratio(traced - untraced, untraced),
        );
        (PER_LAYER, "per-layer")
    } else {
        (END_TO_END, "end-to-end")
    };
    let known: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(name, _)| name)
        .chain(["trace.traced_wall_s"])
        .collect();
    if let Some(name) = s.names().find(|n| !known.contains(n)) {
        panic!("workload reported an unlisted metric {name}");
    }
    let mut json = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match s.median(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => panic!("{name} is not finite: {v}"),
            None if run.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("{kind} {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let c = &run.checks;
    println!("# ops={} failed_ops={}", c.ops, c.failed);
    // A run that checked nothing counts as one failed operation.
    let (attempted, failed) = if c.ops == 0 {
        (1, 1)
    } else {
        (c.ops, c.failed)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
}
