//! `verify_sweep`: `verify_family_with` at `jobs = 1` on three gadget-4
//! sweeps — MDS over all 1,024 pairs with K = 5 live bits, Hamiltonian
//! path over `verify_smoke`'s fixed 16-pair subset, and structural
//! max-cut over all 16,384 pairs with K = 7. The inputs are exhaustive or
//! pinned, so the seed is not used.

use std::sync::atomic::{AtomicU64, Ordering};

use congest_hardness::comm::BitString;
use congest_hardness::core::hamiltonian::HamPathFamily;
use congest_hardness::core::maxcut::{MaxCutFamily, StructuralMaxCutFamily};
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::{verify_family_with, LowerBoundFamily, VerifyOptions, VerifyStats};

use crate::harness::{quantile, ratio, time_setup, HostClock, Samples, Secs};
use crate::traced::TracedFamily;
use crate::{Pass, Run};

type Pairs = Vec<(BitString, BitString)>;

/// A pair with the low `k` bits of `xm`, `ym` set in `width`-bit strings.
fn prefix_pair(xm: u64, ym: u64, k: usize, width: usize) -> (BitString, BitString) {
    let mut x = BitString::zeros(width);
    let mut y = BitString::zeros(width);
    for i in 0..k {
        x.set(i, (xm >> i) & 1 == 1);
        y.set(i, (ym >> i) & 1 == 1);
    }
    (x, y)
}

/// All `4^k` pairs with `k` live bits embedded in `width`-bit strings.
fn prefix_inputs(k: usize, width: usize) -> Pairs {
    let side = 1u64 << k;
    (0..side)
        .flat_map(|xm| (0..side).map(move |ym| prefix_pair(xm, ym, k, width)))
        .collect()
}

/// `verify_smoke`'s Hamiltonian K = 5 subset: 15 intersecting diagonal
/// pairs plus one disjoint pair that forces an exhaustive search.
fn ham_subset(width: usize) -> Pairs {
    let mut out: Pairs = (1u64..16).map(|m| prefix_pair(m, m, 5, width)).collect();
    out.push(prefix_pair(1, 30, 5, width));
    out
}

struct Sweeps {
    mds: MdsFamily,
    mds_inputs: Pairs,
    ham: HamPathFamily,
    ham_inputs: Pairs,
    cut: StructuralMaxCutFamily,
    cut_inputs: Pairs,
}

fn setup() -> Sweeps {
    let mds = MdsFamily::new(4);
    let ham = HamPathFamily::new(4);
    let cut = StructuralMaxCutFamily(MaxCutFamily::new(4));
    Sweeps {
        mds_inputs: prefix_inputs(5, mds.input_len()),
        ham_inputs: ham_subset(ham.input_len()),
        cut_inputs: prefix_inputs(7, cut.input_len()),
        mds,
        ham,
        cut,
    }
}

/// One sweep's outputs: `verify_smoke`'s report line and the exact
/// stats (wall-clock fields cleared).
#[derive(Default)]
struct Sweep {
    line: String,
    stats: VerifyStats,
}

fn sweep<F: LowerBoundFamily + Sync>(fam: &F, inputs: &[(BitString, BitString)]) -> Sweep {
    let (res, mut stats) = verify_family_with(fam, inputs, &VerifyOptions::with_jobs(1));
    let line = match res {
        Ok(r) => format!(
            "n={} K={} pairs={} cut={} implied_rounds={}",
            r.n,
            r.k_input,
            r.pairs_checked,
            r.cut_size(),
            r.implied_round_bound
        ),
        Err(v) => format!("VIOLATION {v}"),
    };
    stats.solver.elapsed_micros = 0;
    stats.pool = None;
    Sweep { line, stats }
}

/// A sweep's outputs and time plus, when traced, its layer timings
/// (zero untraced).
#[derive(Default)]
struct TracedSweep {
    out: Sweep,
    secs: Secs,
    builds: u64,
    build_s: f64,
    predicates: u64,
    predicate_s: f64,
    pair_ns: Vec<u64>,
}

fn traced_sweep<F: LowerBoundFamily + Sync>(
    fam: &F,
    inputs: &[(BitString, BitString)],
) -> TracedSweep {
    let tf = TracedFamily::new(fam);
    let out = sweep(&tf, inputs);
    let get = |v: &AtomicU64| v.load(Ordering::Relaxed);
    TracedSweep {
        builds: get(&tf.builds),
        build_s: get(&tf.build_ns) as f64 * 1e-9,
        predicates: get(&tf.predicates),
        predicate_s: get(&tf.predicate_ns) as f64 * 1e-9,
        pair_ns: tf.pair_ns(),
        out,
        ..TracedSweep::default()
    }
}

const NAMES: [&str; 3] = ["mds", "ham", "cut"];

/// The sweeps of one pass, by index into [`NAMES`]. The max-cut sweep is
/// about a tenth as long as the others, so it runs five times to give
/// its phase enough samples, spread over the pass.
const PASS: [usize; 7] = [2, 0, 2, 2, 1, 2, 2];

/// Runs sweep `k` as one timed span. Untraced, SIGALRM takes the span's
/// readings part-way; traced, only its ends, so that no reading falls
/// inside the layer timings.
fn run_one(w: &Sweeps, k: usize, traced: bool, clock: &mut HostClock) -> TracedSweep {
    fn go<F: LowerBoundFamily + Sync>(
        fam: &F,
        inputs: &[(BitString, BitString)],
        traced: bool,
    ) -> TracedSweep {
        if traced {
            traced_sweep(fam, inputs)
        } else {
            TracedSweep {
                out: sweep(fam, inputs),
                ..TracedSweep::default()
            }
        }
    }
    let span = if traced {
        clock.span()
    } else {
        clock.span_ticking()
    };
    let mut out = match k {
        0 => go(&w.mds, &w.mds_inputs, traced),
        1 => go(&w.ham, &w.ham_inputs, traced),
        _ => go(&w.cut, &w.cut_inputs, traced),
    };
    out.secs = span.end();
    out
}

pub fn run(run: &mut Run) {
    // Set-up: family construction and input generation, timed
    // repeatedly; then the set kept for the timed loop.
    time_setup(&mut run.samples, &mut run.clock, true, setup);
    let w = setup();

    // Each sweep's report line and exact stats from the first pass; every
    // later sweep, traced or not, must reproduce them.
    let mut first: [Option<(String, VerifyStats)>; 3] = Default::default();
    let passes = run.timed_passes(false, |run, i, pass| {
        let traced = pass == Pass::Traced;
        let label = pass.label();
        let outs: Vec<(usize, TracedSweep)> = PASS
            .iter()
            .map(|&k| (k, run_one(&w, k, traced, &mut run.clock)))
            .collect();
        let c = &mut run.checks;
        for (k, o) in &outs {
            let name = NAMES[*k];
            let ok = match &first[*k] {
                None => {
                    let ok = c.pinned(&format!("verify_sweep.{name}.report"), &o.out.line)
                        & c.pinned(
                            &format!("verify_sweep.{name}.solver_nodes"),
                            o.out.stats.solver.nodes,
                        );
                    first[*k] = Some((o.out.line.clone(), o.out.stats.clone()));
                    ok
                }
                Some((line, stats)) => {
                    c.same(&format!("{name} report ({label})"), &o.out.line, line)
                        & c.same(
                            &format!("{name} exact stats ({label})"),
                            &o.out.stats,
                            stats,
                        )
                }
            };
            c.op(&format!("verify_sweep {name} sweep ({label} pass {i})"), ok);
        }
        let wall: f64 = outs.iter().map(|(_, o)| o.secs.nominal).sum();
        let raw: f64 = outs.iter().map(|(_, o)| o.secs.raw).sum();
        println!("# pass {i} {label} wall_s={wall} raw_wall_s={raw}");
        let s = &mut run.samples;
        match pass {
            Pass::Warmup => {}
            Pass::Untraced => {
                s.add("wall_s", wall);
                for (k, o) in &outs {
                    let rate = o.out.stats.pairs as f64 / o.secs.nominal;
                    s.add(&format!("phase{}_per_s", k + 1), rate);
                }
            }
            Pass::Traced => {
                s.add("trace.traced_wall_s", wall);
                add_layers(s, &outs);
            }
        }
    });

    let s = &run.samples;
    let aliases = ["mds_pairs_per_s", "ham_pairs_per_s", "cut_pairs_per_s"];
    let pairs = [&w.mds_inputs, &w.ham_inputs, &w.cut_inputs];
    for (k, alias) in aliases.iter().enumerate() {
        if let Some(v) = s.median(&format!("phase{}_per_s", k + 1)) {
            let n = pairs[k].len();
            println!("phase{} {alias} = {v} 1/s (jobs=1, pairs={n})", k + 1);
        }
    }
    println!("# passes={passes}");
    let rss = crate::harness::peak_rss_mb(None).expect("read VmHWM") - run.clock.resident_mb();
    run.samples.add("peak_rss_mb", rss);
}

/// Per-layer metrics of one traced pass: solver counters of the MDS and
/// Hamiltonian sweeps, `core` totals over every sweep of the pass.
fn add_layers(s: &mut Samples, outs: &[(usize, TracedSweep)]) {
    for (k, name) in [(0, "mds"), (1, "ham")] {
        let Some((_, sw)) = outs.iter().find(|(j, _)| *j == k) else {
            continue;
        };
        let st = &sw.out.stats.solver;
        let p = |m: &str| format!("solvers.{name}.{m}");
        s.add(&p("calls"), sw.predicates as f64);
        s.add(&p("busy_s"), sw.predicate_s);
        s.add(&p("nodes"), st.nodes as f64);
        s.add(&p("prunes"), st.prunes as f64);
        s.add(&p("bound_cutoffs"), st.bound_cutoffs as f64);
        s.add(&p("forced_moves"), st.forced_moves as f64);
        s.add(&p("nodes_per_s"), ratio(st.nodes as f64, sw.predicate_s));
        s.add(
            &p("cutoff_ratio"),
            ratio(st.bound_cutoffs as f64, st.nodes as f64),
        );
    }
    let sum = |f: &dyn Fn(&TracedSweep) -> f64| outs.iter().map(|(_, o)| f(o)).sum::<f64>();
    let pairs = sum(&|x| x.out.stats.pairs as f64);
    let hits = sum(&|x| x.out.stats.memo_hits as f64);
    s.add("core.build_calls", sum(&|x| x.builds as f64));
    s.add("core.build_s", sum(&|x| x.build_s));
    s.add(
        "core.verify_self_s",
        sum(&|x| x.secs.raw - x.build_s - x.predicate_s),
    );
    s.add("core.memo_hits", hits);
    s.add("core.memo_hit_ratio", ratio(hits, pairs));
    s.add("core.full_builds", sum(&|x| x.out.stats.full_builds as f64));
    s.add(
        "core.delta_builds",
        sum(&|x| x.out.stats.delta_builds as f64),
    );
    let pair_ms: Vec<f64> = outs
        .iter()
        .flat_map(|(_, x)| x.pair_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    s.add("core.pair_p50_ms", quantile(&pair_ms, 0.5));
    s.add("core.pair_p99_ms", quantile(&pair_ms, 0.99));
}
