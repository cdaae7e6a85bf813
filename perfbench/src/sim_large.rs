//! `sim_large`: the CONGEST simulator at scale. Three phases per pass:
//! whole-graph learning on a seeded `connected_gnp(10⁴, 6/(n−1))` for 64
//! rounds on the serial engine, the same run on the sharded engine at
//! two workers, and min-ID leader flooding on `cycle_plus_diameters(10⁶)`
//! for 8 rounds on the serial engine.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use congest_hardness::graph::{generators, Graph};
use congest_hardness::sim::algorithms::{LeaderElection, LearnGraph};
use congest_hardness::sim::{
    CongestAlgorithm, FaultCounters, PerfectLink, PoolStats, RoundDelta, RoundObserver,
    RoundTraffic, RunOutcome, ShardableAlgorithm, SimStats, Simulator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{ratio, HostClock, Secs, Span, DEFAULT_SEED};
use crate::traced::{SimSink, Timed};
use crate::{Pass, Run};

const LEARN_N: usize = 10_000;
const LEARN_ROUNDS: u64 = 64;
const LEARN_BANDWIDTH: u64 = 64;
const FLOOD_N: usize = 1_000_000;
const FLOOD_ROUNDS: u64 = 8;
const FLOOD_BANDWIDTH: u64 = 24;
/// Worker count of the sharded phase.
const SHARDED_JOBS: usize = 2;

struct Graphs {
    learn: Graph,
    flood: Graph,
}

/// The learn graph is drawn from `seed`; the flood substrate has no
/// random parameter.
fn generate(seed: u64) -> Graphs {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 6.0 / (LEARN_N as f64 - 1.0);
    Graphs {
        learn: generators::connected_gnp(LEARN_N, p, &mut rng),
        flood: generators::cycle_plus_diameters(FLOOD_N),
    }
}

struct Sims<'g> {
    learn: Simulator<'g>,
    sharded: Simulator<'g>,
    flood: Simulator<'g>,
}

impl<'g> Sims<'g> {
    fn new(g: &'g Graphs) -> Self {
        Sims {
            learn: Simulator::with_bandwidth(&g.learn, LEARN_BANDWIDTH).stop_on_quiescence(true),
            sharded: Simulator::with_bandwidth(&g.learn, LEARN_BANDWIDTH)
                .stop_on_quiescence(true)
                .with_jobs(SHARDED_JOBS),
            flood: Simulator::with_bandwidth(&g.flood, FLOOD_BANDWIDTH).stop_on_quiescence(true),
        }
    }
}

/// Takes the run's calibration readings between rounds, while the
/// engine stands still. Like the no-op observer it asks for no per-edge
/// traffic, so the engine takes the same path.
struct Ticker<'s, 'c>(&'s mut Span<'c>);

impl RoundObserver for Ticker<'_, '_> {
    fn on_round(&mut self, _delta: &RoundDelta<'_>) {
        self.0.tick();
    }
}

fn serial<A: CongestAlgorithm>(
    sim: &Simulator<'_>,
    mut alg: A,
    rounds: u64,
    clock: &mut HostClock,
) -> (SimStats, Secs) {
    let mut span = clock.span();
    let stats = sim
        .try_run_with(&mut alg, rounds, &mut Ticker(&mut span), &mut PerfectLink)
        .expect("sim_large runs are CONGEST-legal");
    (stats, span.end())
}

fn sharded<A: ShardableAlgorithm>(
    sim: &Simulator<'_>,
    mut alg: A,
    clock: &mut HostClock,
) -> ((SimStats, PoolStats), Secs)
where
    A::Msg: Send,
{
    let mut span = clock.span();
    let out = sim
        .try_run_sharded_with(
            &mut alg,
            LEARN_ROUNDS,
            &mut Ticker(&mut span),
            &mut PerfectLink,
        )
        .expect("sim_large runs are CONGEST-legal");
    (out, span.end())
}

fn counters(s: &SimStats) -> String {
    format!(
        "rounds={} messages={} bits={} outcome={}",
        s.rounds,
        s.messages,
        s.total_bits,
        s.outcome.as_str()
    )
}

/// Every `SimStats` field of a run, with the per-edge bit map folded
/// into an order-independent hash. Later passes are compared with the
/// first pass's digest, so the first flood run's map (about 1.5M edges)
/// is not kept alive to inflate `peak_rss_mb`.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    rounds: u64,
    messages: u64,
    total_bits: u64,
    edges: usize,
    edge_hash: u64,
    round_timeline: Vec<RoundTraffic>,
    faults: FaultCounters,
    outcome: RunOutcome,
}

fn digest(s: &SimStats) -> Digest {
    let edge_hash = s
        .bits_per_edge
        .iter()
        .map(|entry| {
            let mut h = DefaultHasher::new();
            entry.hash(&mut h);
            h.finish()
        })
        .fold(0, u64::wrapping_add);
    Digest {
        rounds: s.rounds,
        messages: s.messages,
        total_bits: s.total_bits,
        edges: s.bits_per_edge.len(),
        edge_hash,
        round_timeline: s.round_timeline.clone(),
        faults: s.faults,
        outcome: s.outcome,
    }
}

const PHASES: [&str; 3] = ["learn", "sharded", "flood"];

pub fn run(run: &mut Run) {
    // Set-up: graph generation plus simulator (CSR) construction, three
    // times; the last set is kept.
    // SIGALRM takes readings part-way, so graph.gen_s includes them.
    let reps = 3;
    for _ in 0..reps - 1 {
        let span = run.clock.span_ticking();
        let t = Instant::now();
        let g = generate(run.seed);
        let gen = t.elapsed().as_secs_f64();
        let sims = Sims::new(&g);
        run.samples.add("setup_s", span.end().nominal);
        run.samples.add("graph.gen_s", gen);
        drop(sims);
    }
    let span = run.clock.span_ticking();
    let t = Instant::now();
    let g = generate(run.seed);
    let gen = t.elapsed().as_secs_f64();
    let sims = Sims::new(&g);
    run.samples.add("setup_s", span.end().nominal);
    run.samples.add("graph.gen_s", gen);
    println!(
        "# learn graph n={} m={}; flood graph n={} m={}",
        g.learn.num_nodes(),
        g.learn.num_edges(),
        g.flood.num_nodes(),
        g.flood.num_edges()
    );
    let pinned = run.seed == DEFAULT_SEED;
    if pinned {
        let ok = run
            .checks
            .pinned("sim_large.learn_graph_edges", g.learn.num_edges());
        run.checks.op("sim_large learn graph generation", ok);
    }

    // Digests of the first pass's learn (serial) and flood SimStats.
    let mut first: Option<[Digest; 2]> = None;
    let passes = run.timed_passes(true, |run, i, pass| {
        let traced = pass == Pass::Traced;
        let label = pass.label();
        let sink = Arc::new(SimSink::default());
        let shard_sink = Arc::new(SimSink::default());
        let clock = &mut run.clock;
        let (learn, learn_t, (sh, pool), sh_t, flood, flood_t) = if traced {
            let (l, lt) = serial(
                &sims.learn,
                Timed::new(LearnGraph::new(LEARN_N), &sink),
                LEARN_ROUNDS,
                clock,
            );
            let (s, st) = sharded(
                &sims.sharded,
                Timed::new(LearnGraph::new(LEARN_N), &shard_sink),
                clock,
            );
            let (f, ft) = serial(
                &sims.flood,
                Timed::new(LeaderElection::new(FLOOD_N), &sink),
                FLOOD_ROUNDS,
                clock,
            );
            (l, lt, s, st, f, ft)
        } else {
            let (l, lt) = serial(&sims.learn, LearnGraph::new(LEARN_N), LEARN_ROUNDS, clock);
            let (s, st) = sharded(&sims.sharded, LearnGraph::new(LEARN_N), clock);
            let (f, ft) = serial(
                &sims.flood,
                LeaderElection::new(FLOOD_N),
                FLOOD_ROUNDS,
                clock,
            );
            (l, lt, s, st, f, ft)
        };
        let (learn_s, sh_s, flood_s) = (learn_t.raw, sh_t.raw, flood_t.raw);

        let c = &mut run.checks;
        let ok_learn = match &first {
            None if pinned => c.pinned("sim_large.learn", counters(&learn)),
            None => true,
            Some(f) => c.same(&format!("learn SimStats ({label})"), &digest(&learn), &f[0]),
        };
        c.op(&format!("sim_large learn ({label} pass {i})"), ok_learn);
        let ok_sharded = c.same(
            &format!("sharded vs serial SimStats ({label})"),
            &sh,
            &learn,
        );
        c.op(&format!("sim_large sharded ({label} pass {i})"), ok_sharded);
        let ok_flood = match &first {
            None if pinned => c.pinned("sim_large.flood", counters(&flood)),
            None => true,
            Some(f) => c.same(&format!("flood SimStats ({label})"), &digest(&flood), &f[1]),
        };
        c.op(&format!("sim_large flood ({label} pass {i})"), ok_flood);

        let s = &mut run.samples;
        let wall = learn_t.nominal + sh_t.nominal + flood_t.nominal;
        let rates = [
            learn.messages as f64 / learn_t.nominal,
            sh.messages as f64 / sh_t.nominal,
            flood.messages as f64 / flood_t.nominal,
        ];
        println!(
            "# pass {i} {label} wall_s={wall} raw_wall_s={} learn_s={learn_s} sharded_s={sh_s} \
             flood_s={flood_s}",
            learn_s + sh_s + flood_s
        );
        if traced {
            s.add("trace.traced_wall_s", wall);
            let alg_s = SimSink::get(&sink.alg_ns) as f64 * 1e-9;
            let engine_s = learn_s + flood_s - alg_s;
            let messages = learn.messages + flood.messages;
            s.add("sim.rounds", (learn.rounds + flood.rounds) as f64);
            s.add("sim.messages", messages as f64);
            s.add("sim.bits", (learn.total_bits + flood.total_bits) as f64);
            s.add("sim.alg_s", alg_s);
            s.add("sim.engine_s", engine_s);
            s.add(
                "sim.engine_ns_per_msg",
                ratio(engine_s * 1e9, messages as f64),
            );
            s.add("sim.runs", SimSink::get(&sink.instances) as f64);
        } else if pass == Pass::Untraced {
            s.add("wall_s", wall);
            // Mean wall of the two serial runs.
            s.add("sim.run_us", (learn_s + flood_s) / 2.0 * 1e6);
            for (slot, r) in rates.iter().enumerate() {
                s.add(&format!("phase{}_per_s", slot + 1), *r);
            }
            // Every worker stood idle while the coordinator took the
            // run's calibration readings; that time is not the pool's.
            let busy = pool.busy_micros() as f64 * 1e-6;
            let idle =
                (pool.idle_micros() as f64 * 1e-6 - sh_t.paused * pool.workers as f64).max(0.0);
            s.add("par.jobs", pool.workers as f64);
            s.add("par.busy_s", busy);
            s.add("par.idle_s", idle);
            s.add("par.utilization", ratio(busy, busy + idle));
        }
        if first.is_none() {
            first = Some([digest(&learn), digest(&flood)]);
        }
    });

    let s = &run.samples;
    for (slot, (alias, jobs)) in [
        ("learn_msgs_per_s", 1),
        ("sharded_msgs_per_s", SHARDED_JOBS),
        ("flood_msgs_per_s", 1),
    ]
    .into_iter()
    .enumerate()
    {
        if let Some(v) = s.median(&format!("phase{}_per_s", slot + 1)) {
            println!(
                "phase{} {alias} = {v} 1/s (jobs={jobs}, {})",
                slot + 1,
                PHASES[slot]
            );
        }
    }
    println!("# passes={passes}");
    let rss = crate::harness::peak_rss_mb(None).expect("read VmHWM") - run.clock.resident_mb();
    run.samples.add("peak_rss_mb", rss);
}
