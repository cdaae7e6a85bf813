//! `paper_report`: the user-facing `experiments --jobs 1` binary end to
//! end, as a reader of the paper runs it. Its stdout must be
//! byte-identical to `experiments_output.txt`. The inputs are pinned, so
//! the seed is not used.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use congest_hardness::obs::json::{parse_value, JsonValue};

use crate::harness::{fnv64, ratio, time_setup, HostClock, Samples, Secs, Span};
use crate::{Pass, Run};

/// One run of the binary.
struct Report {
    ok_exit: bool,
    stdout: Vec<u8>,
    /// Spawn to exit, less the pauses for calibration readings.
    wall: Secs,
    /// The child's peak RSS, read at each reading while it is stopped.
    peak_mb: f64,
    /// Section id → seconds, from the phase summary on stderr; these
    /// include the pauses.
    sections: BTreeMap<String, f64>,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process, and so every `experiments` child it spawns, to
/// the CPU it runs on now. Each calibration reading then runs on the CPU
/// the child was just stopped on, and feels the same neighbours.
fn pin_to_this_cpu() {
    // SAFETY: sched_getcpu takes no arguments and only returns a number.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return;
    };
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit cpu_set_t of the size passed.
    // Failing to pin only makes the readings less exact.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

/// Waits for `child` to exit, stopping it with SIGSTOP for each
/// calibration reading of `span` (and a read of its peak RSS, the
/// largest of which is returned) and resuming it with SIGCONT. The
/// child is reaped only here, so its pid cannot be reused while it is
/// signalled.
fn wait_ticking(child: &mut Child, span: &mut Span<'_>) -> (std::process::ExitStatus, f64) {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut peak_mb: f64 = 0.0;
    loop {
        if let Some(status) = child.try_wait().expect("wait for experiments") {
            return (status, peak_mb);
        }
        if span.due() {
            // SAFETY: kill(2) only sends a signal to our own unreaped
            // child; a child that has exited is a zombie and ignores it.
            unsafe { kill(pid, SIGSTOP) };
            span.tick();
            if let Some(mb) = crate::harness::peak_rss_mb(Some(child.id())) {
                peak_mb = peak_mb.max(mb);
            }
            // SAFETY: as above.
            unsafe { kill(pid, SIGCONT) };
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn run_report(bin: &Path, trace: Option<&Path>, clock: &mut HostClock) -> Report {
    let mut cmd = Command::new(bin);
    cmd.args(["--jobs", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(p) = trace {
        cmd.arg("--trace").arg(p);
    }
    let mut span = clock.span();
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()));
    let mut err = child.stderr.take().expect("stderr is piped");
    let errs = std::thread::spawn(move || {
        let mut s = String::new();
        err.read_to_string(&mut s).map(|_| s)
    });
    let mut out = child.stdout.take().expect("stdout is piped");
    let outs = std::thread::spawn(move || {
        let mut v = Vec::new();
        out.read_to_end(&mut v).map(|_| v)
    });
    let (status, peak_mb) = wait_ticking(&mut child, &mut span);
    let wall = span.end();
    let stdout = outs
        .join()
        .expect("stdout reader")
        .expect("read the report");
    let stderr = errs
        .join()
        .expect("stderr reader")
        .expect("read experiments' stderr");
    Report {
        ok_exit: status.success(),
        stdout,
        wall,
        peak_mb,
        sections: phase_summary(&stderr),
    }
}

/// An `experiments` child that is killed and reaped when dropped.
struct Started(Child);

impl Drop for Started {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().expect("wait for experiments");
    }
}

/// Spawns `experiments --jobs 1` and returns once the first byte of its
/// report arrives: the binary's start-up. Timed by the caller; the child
/// is killed and reaped when the result is dropped.
fn first_byte(bin: &Path) -> Started {
    let mut child = Command::new(bin)
        .args(["--jobs", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot run {}: {e}", bin.display()));
    let mut out = child.stdout.take().expect("stdout is piped");
    // A child that writes nothing fails the report check of the passes.
    out.read_exact(&mut [0u8; 1]).ok();
    Started(child)
}

/// Parses the `==== phase summary ====` table the binary prints to
/// stderr: `  <id> <wall ms>` rows, then a `total` row.
fn phase_summary(stderr: &str) -> BTreeMap<String, f64> {
    stderr
        .lines()
        .skip_while(|l| !l.contains("==== phase summary ===="))
        .skip(1)
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let id = cols.next()?;
            let ms: f64 = cols.next()?.parse().ok()?;
            (id != "total").then(|| (id.to_string(), ms * 1e-3))
        })
        .collect()
}

/// The sections whose work is family verification (E1, E2–E4, E6, E8–E9).
const VERIFY_SECTIONS: [&str; 4] = ["E1", "E2/E3/E4", "E6", "E8/E9"];

/// The oracle-bound sections: the ℓ = 5, n = 176 MWIS and its gap families.
const ORACLE_SECTIONS: [&str; 1] = ["E10/E11/E12"];

/// Every section before them: communication search, family
/// verification and the simulator runs. The phase summary must list
/// these and the oracle sections.
const EARLY_SECTIONS: [&str; 7] = ["E0", "E1", "E2/E3/E4", "E5", "E6", "E7", "E8/E9"];

fn section_sum(sections: &BTreeMap<String, f64>, ids: &[&str]) -> f64 {
    ids.iter().filter_map(|id| sections.get(*id)).sum()
}

/// Sums of the numeric fields of trace records, keyed by
/// `target.event`, plus a `records` count per key.
type Totals = BTreeMap<String, BTreeMap<String, f64>>;

fn trace_totals(text: &str) -> Option<Totals> {
    let mut totals = Totals::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = parse_value(line).ok()?;
        let target = rec.get("target")?.as_str()?;
        let event = rec.get("event")?.as_str()?;
        let entry = totals.entry(format!("{target}.{event}")).or_default();
        *entry.entry("records".to_string()).or_default() += 1.0;
        let Some(JsonValue::Object(fields)) = rec.get("fields") else {
            continue;
        };
        if target == "experiments" && event == "phase" {
            // Per-section wall: key the micros by section id.
            let id = rec.get("fields")?.get("id")?.as_str()?;
            let micros = rec.get("fields")?.get("micros")?.as_f64()?;
            *entry.entry(id.to_string()).or_default() += micros;
            continue;
        }
        for (k, v) in fields {
            if let Some(x) = v.as_f64() {
                *entry.entry(k.clone()).or_default() += x;
            }
        }
    }
    Some(totals)
}

fn field(t: &Totals, key: &str, name: &str) -> f64 {
    t.get(key).and_then(|m| m.get(name)).copied().unwrap_or(0.0)
}

/// The deterministic counters of a trace, as pinned `key value` pairs.
fn exact_counters(t: &Totals) -> Vec<(String, String)> {
    let list = |key: &str, names: &[&str]| {
        let body = names
            .iter()
            .map(|n| format!("{n}={}", field(t, key, n)))
            .collect::<Vec<_>>()
            .join(" ");
        (format!("paper_report.trace.{key}"), body)
    };
    let solver = [
        "records",
        "nodes",
        "prunes",
        "bound_cutoffs",
        "forced_moves",
    ];
    vec![
        list("solver.mis.search", &solver),
        list("solver.mds.search", &solver),
        list("solver.hamilton.search", &solver),
        list("solver.maxcut.search", &solver),
        list(
            "comm.exact.cc_search",
            &["records", "rects_explored", "memo_hits"],
        ),
        list(
            "core.verify.verify",
            &[
                "records",
                "pairs",
                "full_builds",
                "delta_builds",
                "memo_hits",
                "solver_nodes",
            ],
        ),
        list(
            "sim.summary",
            &["records", "rounds", "messages", "total_bits"],
        ),
    ]
}

/// Per-layer metrics read from one traced run's records.
fn add_layers(s: &mut Samples, t: &Totals) {
    for (k, key) in [
        ("mis", "solver.mis.search"),
        ("mds", "solver.mds.search"),
        ("ham", "solver.hamilton.search"),
    ] {
        let f = |n: &str| field(t, key, n);
        let busy = f("elapsed_micros") * 1e-6;
        let p = |m: &str| format!("solvers.{k}.{m}");
        s.add(&p("calls"), f("records"));
        s.add(&p("busy_s"), busy);
        s.add(&p("nodes"), f("nodes"));
        s.add(&p("prunes"), f("prunes"));
        s.add(&p("bound_cutoffs"), f("bound_cutoffs"));
        s.add(&p("forced_moves"), f("forced_moves"));
        s.add(&p("nodes_per_s"), ratio(f("nodes"), busy));
        s.add(&p("cutoff_ratio"), ratio(f("bound_cutoffs"), f("nodes")));
    }
    let v = |n: &str| field(t, "core.verify.verify", n);
    s.add("core.build_calls", v("full_builds"));
    s.add("core.memo_hits", v("memo_hits"));
    s.add("core.memo_hit_ratio", ratio(v("memo_hits"), v("pairs")));
    s.add("core.full_builds", v("full_builds"));
    s.add("core.delta_builds", v("delta_builds"));
    let sim = |n: &str| field(t, "sim.summary", n);
    s.add("sim.runs", sim("records"));
    s.add("sim.rounds", sim("rounds"));
    s.add("sim.messages", sim("messages"));
    s.add("sim.bits", sim("total_bits"));
    s.add(
        "comm.rects_explored",
        field(t, "comm.exact.cc_search", "rects_explored"),
    );
    let phase = |id: &str| field(t, "experiments.phase", id) * 1e-6;
    s.add("report.E0_s", phase("E0"));
    s.add("report.E7_s", phase("E7"));
    s.add("report.E10_E12_s", phase("E10/E11/E12"));
    s.add(
        "report.verify_s",
        VERIFY_SECTIONS.iter().map(|id| phase(id)).sum(),
    );
}

pub fn run(run: &mut Run) {
    let bin = run
        .experiments
        .clone()
        .unwrap_or_else(|| panic!("paper_report needs --experiments <path>"));
    let expected = std::fs::read("experiments_output.txt").ok();
    std::fs::create_dir_all(&run.scratch).expect("create the scratch directory");
    let trace_path = run
        .scratch
        .join(format!("perfbench-report-{}.jsonl", std::process::id()));

    pin_to_this_cpu();
    println!("# pinned to one CPU with its experiments children (jobs=1)");

    // Set-up: process start-up, timed repeatedly. No SIGALRM readings:
    // the child would run on meanwhile.
    time_setup(&mut run.samples, &mut run.clock, false, || first_byte(&bin));

    // The largest peak RSS of any `experiments` child. No warm-up pass:
    // the set-up has already started the binary many times.
    let mut peak_mb: f64 = 0.0;
    let passes = run.timed_passes(false, |run, i, pass| {
        let traced = pass == Pass::Traced;
        let label = pass.label();
        let r = run_report(&bin, traced.then_some(trace_path.as_path()), &mut run.clock);
        peak_mb = peak_mb.max(r.peak_mb);
        let wall = r.wall.nominal;
        println!("# pass {i} {label} wall_s={wall} raw_wall_s={}", r.wall.raw);
        let c = &run.checks;
        let mut ok = c.holds("experiments exits 0", r.ok_exit)
            & c.holds(
                "report equals experiments_output.txt",
                expected.as_deref() == Some(r.stdout.as_slice()),
            )
            & c.pinned("paper_report.report_bytes", r.stdout.len())
            & c.pinned("paper_report.report_fnv64", fnv64(&r.stdout))
            & c.holds(
                "phase summary lists sections E0-E12",
                EARLY_SECTIONS
                    .iter()
                    .chain(&ORACLE_SECTIONS)
                    .all(|id| r.sections.contains_key(*id)),
            );
        let s = &mut run.samples;
        if traced {
            let text = std::fs::read_to_string(&trace_path).unwrap_or_default();
            std::fs::remove_file(&trace_path).ok();
            match trace_totals(&text) {
                Some(t) => {
                    for (key, value) in exact_counters(&t) {
                        ok &= c.pinned(&key, value);
                    }
                    s.add("trace.traced_wall_s", wall);
                    add_layers(s, &t);
                }
                None => ok &= c.holds("trace parses as JSON lines", false),
            }
        } else if pass == Pass::Untraced {
            s.add("wall_s", wall);
            // Section walls in nominal seconds: the pauses, spread
            // evenly over the run, taken out, then scaled like the wall.
            let nominal = r.wall.nominal / (r.wall.raw + r.wall.paused);
            let oracle = section_sum(&r.sections, &ORACLE_SECTIONS) * nominal;
            let sections = r.sections.values().sum::<f64>() * nominal;
            s.add("phase1_per_s", 1.0 / oracle);
            s.add("phase2_per_s", 1.0 / sections);
            s.add("phase3_per_s", 1.0 / wall);
        }
        run.checks
            .op(&format!("paper_report report ({label} pass {i})"), ok);
    });

    let s = &run.samples;
    for (slot, alias) in ["E10_E12_per_s", "sections_per_s", "reports_per_s"]
        .into_iter()
        .enumerate()
    {
        if let Some(v) = s.median(&format!("phase{}_per_s", slot + 1)) {
            println!("phase{} {alias} = {v} 1/s (jobs=1)", slot + 1);
        }
    }
    println!("# passes={passes}");
    run.samples.add("peak_rss_mb", peak_mb);
}
