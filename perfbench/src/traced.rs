//! Timing wrappers for the traced run. They sit at the benchmark's side
//! of each library boundary and forward every trait method, defaulted
//! ones included, so the engines take exactly the path they take
//! untraced; the traced run checks that by comparing exact counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use congest_hardness::comm::BitString;
use congest_hardness::core::LowerBoundFamily;
use congest_hardness::graph::{Graph, NodeId, Weight};
use congest_hardness::sim::{
    CongestAlgorithm, NodeContext, ProtocolFailure, RoundOutcome, SelfCertify, SendBuf,
    ShardableAlgorithm,
};
use congest_hardness::solvers::SearchStats;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Totals of every [`Timed`] instance sharing this sink.
#[derive(Default)]
pub struct SimSink {
    /// Algorithm instances created (one per simulator run).
    pub instances: AtomicU64,
    /// Nanoseconds spent inside algorithm callbacks.
    pub alg_ns: AtomicU64,
    /// Messages the algorithm handed to the engine.
    pub sends: AtomicU64,
    /// Rounds stepped, summed over instances (highest round index seen).
    pub rounds: AtomicU64,
}

impl SimSink {
    pub fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }
}

/// Per-instance tallies, added to the sink when dropped so the hot path
/// touches no shared cache line.
struct Tally {
    alg_ns: u64,
    sends: u64,
    rounds: u64,
    sink: Arc<SimSink>,
}

impl Tally {
    fn take_from(&mut self, other: &mut Tally) {
        self.alg_ns += std::mem::take(&mut other.alg_ns);
        self.sends += std::mem::take(&mut other.sends);
        self.rounds = self.rounds.max(std::mem::take(&mut other.rounds));
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.sink.alg_ns.fetch_add(self.alg_ns, Ordering::Relaxed);
        self.sink.sends.fetch_add(self.sends, Ordering::Relaxed);
        self.sink.rounds.fetch_add(self.rounds, Ordering::Relaxed);
    }
}

/// A [`CongestAlgorithm`] that times its inner algorithm's callbacks.
pub struct Timed<A> {
    inner: A,
    tally: Tally,
}

impl<A> Timed<A> {
    pub fn new(inner: A, sink: &Arc<SimSink>) -> Self {
        sink.instances.fetch_add(1, Ordering::Relaxed);
        Timed {
            inner,
            tally: Tally {
                alg_ns: 0,
                sends: 0,
                rounds: 0,
                sink: Arc::clone(sink),
            },
        }
    }
}

impl<A: CongestAlgorithm> CongestAlgorithm for Timed<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn message_bits(msg: &A::Msg) -> u64 {
        A::message_bits(msg)
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, A::Msg)> {
        let t = Instant::now();
        let sends = self.inner.init(node, ctx);
        self.tally.alg_ns += nanos_since(t);
        self.tally.sends += sends.len() as u64;
        sends
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
    ) -> (Vec<(NodeId, A::Msg)>, RoundOutcome) {
        let t = Instant::now();
        let out = self.inner.round(node, ctx, round, inbox);
        self.tally.alg_ns += nanos_since(t);
        self.tally.sends += out.0.len() as u64;
        self.tally.rounds = self.tally.rounds.max(round as u64);
        out
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
        out: &mut SendBuf<A::Msg>,
    ) -> RoundOutcome {
        let before = out.len();
        let t = Instant::now();
        let outcome = self.inner.round_into(node, ctx, round, inbox, out);
        self.tally.alg_ns += nanos_since(t);
        self.tally.sends += (out.len() - before) as u64;
        self.tally.rounds = self.tally.rounds.max(round as u64);
        outcome
    }

    fn output(&self, node: NodeId) -> Option<A::Output> {
        self.inner.output(node)
    }

    fn corrupt(msg: &A::Msg, bit: u32) -> Option<A::Msg> {
        A::corrupt(msg, bit)
    }
}

impl<A: ShardableAlgorithm> ShardableAlgorithm for Timed<A> {
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        Timed {
            inner: self.inner.split_shard(lo, hi),
            tally: Tally {
                alg_ns: 0,
                sends: 0,
                rounds: 0,
                sink: Arc::clone(&self.tally.sink),
            },
        }
    }

    fn absorb_shard(&mut self, shard: Self, lo: NodeId, hi: NodeId) {
        let Timed { inner, mut tally } = shard;
        self.tally.take_from(&mut tally);
        self.inner.absorb_shard(inner, lo, hi);
    }
}

impl<A: SelfCertify> SelfCertify for Timed<A> {
    fn certify(&self, g: &Graph) -> Result<(), ProtocolFailure> {
        self.inner.certify(g)
    }
}

/// A [`LowerBoundFamily`] that times its inner family's graph builds and
/// predicate (solver) calls, and the wall between consecutive pairs.
pub struct TracedFamily<'a, F> {
    inner: &'a F,
    pub builds: AtomicU64,
    pub build_ns: AtomicU64,
    pub predicates: AtomicU64,
    pub predicate_ns: AtomicU64,
    /// End of the previous predicate call, and the per-pair walls so far.
    pairs: Mutex<(Instant, Vec<u64>)>,
}

impl<'a, F: LowerBoundFamily> TracedFamily<'a, F> {
    /// Wraps `inner`; the first pair's wall starts now.
    pub fn new(inner: &'a F) -> Self {
        TracedFamily {
            inner,
            builds: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            predicates: AtomicU64::new(0),
            predicate_ns: AtomicU64::new(0),
            pairs: Mutex::new((Instant::now(), Vec::new())),
        }
    }

    /// Wall of each pair, in nanoseconds: from the end of one predicate
    /// call to the end of the next (serial sweeps only).
    pub fn pair_ns(self) -> Vec<u64> {
        self.pairs.into_inner().expect("no panics while timing").1
    }

    fn time_build<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.build_ns.fetch_add(nanos_since(t), Ordering::Relaxed);
        out
    }

    fn time_predicate<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.predicate_ns
            .fetch_add(nanos_since(t), Ordering::Relaxed);
        self.predicates.fetch_add(1, Ordering::Relaxed);
        let mut pairs = self.pairs.lock().expect("no panics while timing");
        let now = Instant::now();
        let wall = now.duration_since(pairs.0).as_nanos() as u64;
        pairs.0 = now;
        pairs.1.push(wall);
        out
    }
}

impl<F: LowerBoundFamily> LowerBoundFamily for TracedFamily<'_, F> {
    type GraphType = F::GraphType;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        self.inner.alice_vertices()
    }

    fn build(&self, x: &BitString, y: &BitString) -> F::GraphType {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.time_build(|| self.inner.build(x, y))
    }

    fn predicate(&self, g: &F::GraphType) -> bool {
        self.time_predicate(|| self.inner.predicate(g))
    }

    fn predicate_with_stats(&self, g: &F::GraphType) -> (bool, Option<SearchStats>) {
        self.time_predicate(|| self.inner.predicate_with_stats(g))
    }

    fn base_graph(&self) -> Option<F::GraphType> {
        self.time_build(|| self.inner.base_graph())
    }

    fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
        self.time_build(|| self.inner.delta_edges(x, y))
    }

    fn f(&self, x: &BitString, y: &BitString) -> bool {
        self.inner.f(x, y)
    }
}
