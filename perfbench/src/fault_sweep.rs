//! `fault_sweep`: `faults::run_sweep` at `jobs = 1` with
//! `FaultPlan::seeded` plans for leader election and BFS tree on
//! `cycle(n)`, n ∈ {16, 32, 64} — thousands of tiny simulator runs on the
//! faulty-link path (drop, corrupt, duplicate, delay, certify, retry).
//! The plans' base seed derives from the workload seed.

use std::sync::Arc;

use congest_hardness::faults::{run_sweep, AlgSweep, FaultPlan, RetryPolicy, SweepConfig};
use congest_hardness::graph::{generators, Graph};
use congest_hardness::sim::algorithms::{BfsTree, LeaderElection};
use congest_hardness::sim::{SelfCertify, Simulator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::harness::{ratio, time_setup, DEFAULT_SEED};
use crate::traced::{SimSink, Timed};
use crate::{Pass, Run};

const SIZES: [usize; 3] = [16, 32, 64];
const PLANS: u64 = 1024;

struct Setup {
    graphs: Vec<Graph>,
    cfg: SweepConfig,
}

fn setup(seed: u64) -> Setup {
    Setup {
        graphs: SIZES.iter().map(|&n| generators::cycle(n)).collect(),
        cfg: SweepConfig {
            plans: PLANS,
            base_seed: StdRng::seed_from_u64(seed).next_u64(),
            max_rounds: 10_000,
            retry: RetryPolicy::default(),
            jobs: 1,
        },
    }
}

fn sweep<A: SelfCertify>(
    sim: &Simulator<'_>,
    name: &str,
    make: impl Fn() -> A + Sync,
    cfg: &SweepConfig,
) -> AlgSweep {
    run_sweep(sim, name, make, FaultPlan::seeded, cfg)
}

/// The counters `reference.txt` pins for one sweep.
fn counters(a: &AlgSweep) -> String {
    format!(
        "runs={} faulty={} caught={} recovered={} exhausted={} model_errors={} attempts={} \
         certified_rounds={} injected={} worst_seed={}",
        a.runs,
        a.faulty_runs,
        a.caught,
        a.recovered,
        a.exhausted,
        a.model_errors,
        a.total_attempts,
        a.certified_rounds_total,
        a.fault_totals.total(),
        a.worst_seed
    )
}

pub fn run(run: &mut Run) {
    // Set-up: graphs, simulators and the sweep config, timed repeatedly;
    // then the set kept for the timed loop.
    let seed = run.seed;
    time_setup(&mut run.samples, &mut run.clock, true, || {
        let w = setup(seed);
        let sims: Vec<Simulator<'_>> = w.graphs.iter().map(Simulator::new).collect();
        std::hint::black_box(sims);
        w
    });
    let w = setup(run.seed);
    let sims: Vec<Simulator<'_>> = w.graphs.iter().map(Simulator::new).collect();
    let pinned = run.seed == DEFAULT_SEED;
    println!(
        "# plans per sweep={PLANS} base_seed={:#x} jobs=1",
        w.cfg.base_seed
    );

    let mut first: Option<Vec<AlgSweep>> = None;
    let mut overall: Vec<f64> = Vec::new();
    let passes = run.timed_passes(true, |run, i, pass| {
        let traced = pass == Pass::Traced;
        let label = pass.label();
        let sink = Arc::new(SimSink::default());
        // Each sweep with its wall in nominal seconds. Untraced, SIGALRM
        // takes readings part-way; traced, only the sweep's ends, so that
        // no reading falls inside the algorithm timings.
        let mut outs = Vec::with_capacity(2 * SIZES.len());
        let mut raw = 0.0;
        for (&n, sim) in SIZES.iter().zip(&sims) {
            let cfg = &w.cfg;
            for alg in ["leader", "bfs"] {
                let span = if traced {
                    run.clock.span()
                } else {
                    run.clock.span_ticking()
                };
                let a = match (alg, traced) {
                    ("leader", true) => {
                        sweep(sim, alg, || Timed::new(LeaderElection::new(n), &sink), cfg)
                    }
                    ("leader", false) => sweep(sim, alg, || LeaderElection::new(n), cfg),
                    (_, true) => sweep(sim, alg, || Timed::new(BfsTree::new(n, 0), &sink), cfg),
                    (_, false) => sweep(sim, alg, || BfsTree::new(n, 0), cfg),
                };
                let secs = span.end();
                raw += secs.raw;
                outs.push((a, secs.nominal));
            }
        }

        let c = &mut run.checks;
        for (j, (a, _)) in outs.iter().enumerate() {
            let key = format!("fault_sweep.{}.n{}", a.alg, SIZES[j / 2]);
            let ok = c.holds(&format!("{key} has no model errors"), a.model_errors == 0)
                & match &first {
                    None if pinned => c.pinned(&key, counters(a)),
                    None => true,
                    Some(f) => c.same(&format!("{key} sweep ({label})"), a, &f[j]),
                };
            c.op(&format!("{key} ({label} pass {i})"), ok);
        }

        let s = &mut run.samples;
        let wall: f64 = outs.iter().map(|o| o.1).sum();
        println!("# pass {i} {label} wall_s={wall} raw_wall_s={raw}");
        if traced {
            s.add("trace.traced_wall_s", wall);
            let sum =
                |f: &dyn Fn(&AlgSweep) -> u64| outs.iter().map(|(a, _)| f(a)).sum::<u64>() as f64;
            let plans = sum(&|a| a.runs);
            let attempts = sum(&|a| a.total_attempts);
            s.add("faults.plans", plans);
            s.add("faults.faulty_runs", sum(&|a| a.faulty_runs));
            s.add("faults.caught", sum(&|a| a.caught));
            s.add("faults.recovered", sum(&|a| a.recovered));
            s.add("faults.exhausted", sum(&|a| a.exhausted));
            s.add("faults.attempts", attempts);
            s.add("faults.injected", sum(&|a| a.fault_totals.total()));
            s.add("faults.retry_ratio", ratio(attempts, plans));
            let alg_s = SimSink::get(&sink.alg_ns) as f64 * 1e-9;
            let messages = SimSink::get(&sink.sends) as f64;
            s.add("sim.rounds", SimSink::get(&sink.rounds) as f64);
            s.add("sim.messages", messages);
            s.add("sim.alg_s", alg_s);
            s.add("sim.engine_s", raw - alg_s);
            s.add(
                "sim.engine_ns_per_msg",
                ratio((raw - alg_s) * 1e9, messages),
            );
            s.add("sim.runs", SimSink::get(&sink.instances) as f64);
        } else if pass == Pass::Untraced {
            s.add("wall_s", wall);
            for (slot, pair) in outs.chunks(2).enumerate() {
                let plans: u64 = pair.iter().map(|(a, _)| a.runs).sum();
                let secs: f64 = pair.iter().map(|o| o.1).sum();
                s.add(&format!("phase{}_per_s", slot + 1), plans as f64 / secs);
            }
            let plans: u64 = outs.iter().map(|(a, _)| a.runs).sum();
            overall.push(plans as f64 / wall);
        }
        if first.is_none() {
            first = Some(outs.into_iter().map(|(a, _)| a).collect());
        }
    });

    let s = &run.samples;
    for (slot, n) in SIZES.iter().enumerate() {
        if let Some(v) = s.median(&format!("phase{}_per_s", slot + 1)) {
            println!("phase{} plans_per_s(n={n}) = {v} 1/s (jobs=1)", slot + 1);
        }
    }
    if !overall.is_empty() {
        let v = crate::harness::median(&overall);
        println!("plans_per_s = {v} 1/s (jobs=1, all sizes)");
    }
    println!("# passes={passes}");
    if run.trace {
        let runs = s.median("sim.runs").unwrap_or(0.0);
        let per_run = ratio(s.median("wall_s").unwrap_or(0.0), runs);
        run.samples.add("sim.run_us", per_run * 1e6);
    }
    let rss = crate::harness::peak_rss_mb(None).expect("read VmHWM") - run.clock.resident_mb();
    run.samples.add("peak_rss_mb", rss);
}
