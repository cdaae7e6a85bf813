//! Exact minimum (weight) dominating set and `k`-dominating set, on
//! graphs of up to [`MAX_VERTICES`] vertices.
//!
//! Decides the predicates of the paper's Theorem 2.1 family ("is there a
//! dominating set of size `4·log k + 2`?"), the 2-MDS/k-MDS gap families of
//! Sections 4.2–4.3 and the restricted-MDS family of Section 4.5.
//!
//! Branch-and-bound: pick an undominated vertex `v` with the fewest
//! candidate dominators and branch on which vertex of `N[v]` enters the
//! set. The lower bound packs undominated vertices at pairwise distance
//! at least 4 (their closed neighborhoods are disjoint, so any dominating
//! set pays at least the cheapest dominator in each). Zero-weight
//! vertices (the paper's free `R` vertices in Figure 5) are taken up
//! front — doing so never hurts a minimization.
//!
//! Everything static is computed once per solve, so a search node does
//! only `W`-word set operations (`W = ⌈n/64⌉`, monomorphized): the
//! packing bound removes the precomputed `N³[v]` of each packed vertex
//! from the open set, the branch vertex is the smallest undominated
//! vertex of the first nonempty closed-degree bucket, and the candidates
//! are insertion-sorted on a stack shared by the whole search. Each
//! computes exactly what a per-node rescan would, so the search tree is
//! the same node for node. The Theorem 2.1 gadget-4 `K = 5` sweep (1,024
//! pairs, n = 40, 18.7M search nodes) decides in about 0.4 s on a 2-core
//! Intel Xeon.

use congest_graph::{Graph, NodeId, Weight};

use crate::bitset::{adjacency_masks, full_mask, iter_bits, Words};
use crate::mis::{node_weights, SetSolution};
use crate::stats::{timed, SearchStats};

/// Largest vertex count the exact dominating-set engine accepts (four
/// 64-bit words). Shared by the weighted, decision, `k`-dominating and
/// target-restricted entry points.
pub const MAX_VERTICES: usize = 256;

/// The static tables of one solve, shared by every search node.
struct Tables<const W: usize> {
    /// `N[v]`.
    closed: Vec<Words<W>>,
    /// `N³[v]`: the vertices a packed `v` excludes from the rest of the
    /// packing.
    pack: Vec<Words<W>>,
    /// `min w(N[v])`: what any dominating set pays to dominate `v`.
    cheapest: Vec<Weight>,
    /// The vertices of each closed degree, in ascending degree order.
    by_degree: Vec<Words<W>>,
}

impl<const W: usize> Tables<W> {
    fn new(g: &Graph, w: &[Weight]) -> Self {
        let n = g.num_nodes();
        let mut closed: Vec<Words<W>> = (0..n).map(Words::bit).collect();
        for (u, v, _) in g.edges() {
            closed[u].set(v);
            closed[v].set(u);
        }
        // N²[v], then N³[v], as unions of closed neighborhoods.
        let grow = |sets: &[Words<W>]| -> Vec<Words<W>> {
            sets.iter()
                .map(|s| s.iter().fold(*s, |acc, u| acc.or(&closed[u])))
                .collect()
        };
        let pack = grow(&grow(&closed));
        let cheapest = closed
            .iter()
            .map(|s| s.iter().map(|u| w[u]).min().unwrap_or(0))
            .collect();
        let mut degrees: Vec<u32> = closed.iter().map(Words::count).collect();
        degrees.sort_unstable();
        degrees.dedup();
        let mut by_degree = vec![Words::EMPTY; degrees.len()];
        for (v, s) in closed.iter().enumerate() {
            let d = degrees.binary_search(&s.count()).expect("degree listed");
            by_degree[d].set(v);
        }
        Tables {
            closed,
            pack,
            cheapest,
            by_degree,
        }
    }

    /// Lower bound: greedily pack undominated vertices in ascending order,
    /// skipping any within distance 3 of one already packed (its closed
    /// neighborhood meets that one's `N²`, so their forced dominators
    /// could coincide); each packed vertex forces a distinct dominator.
    /// `v` meets the `N²` of a packed `p` iff `v ∈ N³[p]`, so packing `p`
    /// removes `N³[p]` from the open set. Stops once the bound reaches
    /// `limit`: past it only `lower_bound(..) >= limit` is exact.
    fn lower_bound(&self, undominated: Words<W>, limit: Weight) -> Weight {
        let mut open = undominated;
        let mut lb = 0;
        while let Some(v) = open.first() {
            lb += self.cheapest[v];
            if lb >= limit {
                break;
            }
            open = open.and_not(&self.pack[v]);
        }
        lb
    }
}

struct Mds<'a, const W: usize> {
    t: &'a Tables<W>,
    w: &'a [Weight],
    full: Words<W>,
    best: Weight,
    best_set: Words<W>,
    /// Hard cap: stop exploring branches whose cost reaches this value.
    cap: Weight,
    /// `(coverage, vertex)` candidate orders of every open search node,
    /// innermost on top.
    cands: Vec<(u32, usize)>,
    stats: SearchStats,
}

impl<const W: usize> Mds<'_, W> {
    fn branch(&mut self, chosen: Words<W>, cost: Weight, dominated: Words<W>) {
        self.stats.nodes += 1;
        if cost >= self.best || cost >= self.cap {
            self.stats.prunes += 1;
            return;
        }
        let undominated = self.full.and_not(&dominated);
        if undominated.is_empty() {
            self.best = cost;
            self.best_set = chosen;
            self.stats.incumbents += 1;
            return;
        }
        let limit = self.best.min(self.cap);
        if cost + self.t.lower_bound(undominated, limit - cost) >= limit {
            self.stats.prunes += 1;
            self.stats.bound_cutoffs += 1;
            return;
        }
        // Branch vertex: undominated vertex with fewest candidate
        // dominators (the smallest such on ties).
        let v = self
            .t
            .by_degree
            .iter()
            .find_map(|bucket| bucket.and(&undominated).first())
            .expect("undominated nonempty");
        // Order candidates by coverage descending, ties by ascending id,
        // for earlier good bounds: a stable insertion sort of `N[v]`.
        let base = self.cands.len();
        for u in self.t.closed[v].iter() {
            let cover = self.t.closed[u].and(&undominated).count();
            let mut i = self.cands.len();
            self.cands.push((cover, u));
            while i > base && self.cands[i - 1].0 < cover {
                self.cands[i] = self.cands[i - 1];
                i -= 1;
            }
            self.cands[i] = (cover, u);
        }
        for i in base..self.cands.len() {
            let u = self.cands[i].1;
            let mut with_u = chosen;
            with_u.set(u);
            self.branch(with_u, cost + self.w[u], dominated.or(&self.t.closed[u]));
        }
        self.cands.truncate(base);
        self.stats.backtracks += 1;
    }
}

/// Minimum weight set dominating `targets` (every vertex when `None`)
/// under weights `w`, on `W`-word vertex sets; `None` if every such set
/// costs at least `cap`. A full-graph search is split into connected
/// components, solved in ascending order of smallest member with the
/// budget that remains after one component capping the next.
fn solve<const W: usize>(
    g: &Graph,
    w: &[Weight],
    targets: Option<&[NodeId]>,
    cap: Weight,
) -> (Option<SetSolution>, SearchStats) {
    let n = g.num_nodes();
    let full = Words::<W>::full(n);
    let t = Tables::<W>::new(g, w);
    let mut dominated = match targets {
        Some(ts) => full.and_not(&ts.iter().fold(Words::EMPTY, |m, &v| m.or(&Words::bit(v)))),
        None => Words::EMPTY,
    };
    // Take zero-weight vertices for free — but only those that dominate
    // something new, so redundant free vertices don't pollute the
    // solution set (callers may re-weigh the returned vertices). For a
    // target search this means dominating an undominated target: the
    // two-party protocols zero the weights of vertices a player cannot
    // see, and blindly grabbing those would smuggle unseen (possibly
    // expensive) vertices into the solution.
    let mut chosen = Words::<W>::EMPTY;
    let mut stats = SearchStats::default();
    for v in 0..n {
        if w[v] == 0 && !t.closed[v].subset_of(&dominated) {
            chosen.set(v);
            dominated = dominated.or(&t.closed[v]);
            stats.forced_moves += 1;
        }
    }
    let mut s = Mds {
        t: &t,
        w,
        full,
        best: Weight::MAX,
        best_set: Words::EMPTY,
        cap,
        cands: Vec::with_capacity(n),
        stats,
    };
    if targets.is_some() {
        // One search over the whole graph: the free vertices ride along
        // in every solution it records.
        s.branch(chosen, 0, dominated);
        let vertices = s.best_set.iter().collect();
        return (
            Some(SetSolution {
                weight: s.best,
                vertices,
            }),
            s.stats,
        );
    }
    // Domination never crosses a connected component, so each component
    // is an independent subproblem; the budget that remains after one
    // component caps the next.
    let (label, count) = g.connected_components();
    let mut comps = vec![Words::<W>::EMPTY; count];
    for (v, &c) in label.iter().enumerate() {
        comps[c].set(v);
    }
    if count > 1 {
        s.stats.components += count as u64;
    }
    let mut total_cost: Weight = 0;
    for comp in comps {
        if comp.subset_of(&dominated) {
            continue;
        }
        s.best = Weight::MAX;
        s.best_set = Words::EMPTY;
        s.cap = cap.saturating_sub(total_cost);
        s.branch(Words::EMPTY, 0, dominated.or(&full.and_not(&comp)));
        if s.best == Weight::MAX {
            return (None, s.stats);
        }
        total_cost += s.best;
        chosen = chosen.or(&s.best_set);
    }
    if total_cost >= cap {
        return (None, s.stats);
    }
    (
        Some(SetSolution {
            weight: total_cost,
            vertices: chosen.iter().collect(),
        }),
        s.stats,
    )
}

/// Dispatches [`solve`] on the word count `⌈n/64⌉` of `g`.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices or a weight is
/// negative.
fn run(
    g: &Graph,
    w: &[Weight],
    targets: Option<&[NodeId]>,
    cap: Weight,
) -> (Option<SetSolution>, SearchStats) {
    let n = g.num_nodes();
    assert!(
        n <= MAX_VERTICES,
        "exact dominating-set engine supports at most {MAX_VERTICES} vertices"
    );
    assert!(w.iter().all(|&x| x >= 0), "weights must be nonnegative");
    match n.div_ceil(64) {
        0 | 1 => solve::<1>(g, w, targets, cap),
        2 => solve::<2>(g, w, targets, cap),
        3 => solve::<3>(g, w, targets, cap),
        _ => solve::<4>(g, w, targets, cap),
    }
}

/// Exact minimum weight dominating set under the graph's node weights.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices or negative
/// weights.
pub fn min_weight_dominating_set(g: &Graph) -> SetSolution {
    min_weight_dominating_set_with_stats(g).0
}

/// [`min_weight_dominating_set`] plus the branch-and-bound effort counters.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices or negative
/// weights.
pub fn min_weight_dominating_set_with_stats(g: &Graph) -> (SetSolution, SearchStats) {
    let w = node_weights(g);
    timed(|| {
        let (sol, stats) = run(g, &w, None, Weight::MAX);
        (sol.expect("uncapped search always finds V itself"), stats)
    })
}

/// Exact minimum weight set dominating only the `targets` (every target
/// must be in the set or adjacent to it; other vertices may be used but
/// need not be dominated). Used by the Section 5 two-party protocols,
/// where each player covers its own side "by using possibly vertices in
/// the cut" (Claim 5.8).
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices or negative
/// weights.
pub fn min_weight_dominating_set_of(g: &Graph, targets: &[NodeId]) -> SetSolution {
    if g.num_nodes() == 0 || targets.is_empty() {
        return SetSolution {
            weight: 0,
            vertices: Vec::new(),
        };
    }
    let (sol, _) = run(g, &node_weights(g), Some(targets), Weight::MAX);
    sol.expect("uncapped search always finds a solution")
}

/// The minimum *cardinality* of a dominating set (node weights ignored).
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices.
pub fn min_dominating_set_size(g: &Graph) -> usize {
    let (sol, _) = run(g, &vec![1; g.num_nodes()], None, Weight::MAX);
    sol.expect("uncapped search always finds V itself").weight as usize
}

/// Decision variant: is there a dominating set of cardinality ≤ `size`?
/// (The paper's Theorem 2.1 predicate.) Uses the cap to prune early.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices.
pub fn has_dominating_set_of_size(g: &Graph, size: usize) -> bool {
    has_dominating_set_of_size_with_stats(g, size).0
}

/// [`has_dominating_set_of_size`] plus the capped-search effort counters.
///
/// # Panics
///
/// Panics if `g` has more than [`MAX_VERTICES`] vertices.
pub fn has_dominating_set_of_size_with_stats(g: &Graph, size: usize) -> (bool, SearchStats) {
    let w = vec![1; g.num_nodes()];
    timed(|| {
        let (sol, stats) = run(g, &w, None, size as Weight + 1);
        let yes = match sol {
            Some(sol) => sol.weight <= size as Weight,
            None => false,
        };
        (yes, stats)
    })
}

/// The `k`-th power of `g`: edge `(u,v)` iff `0 < d_G(u,v) ≤ k`
/// (hop distance). Node weights are preserved.
pub fn graph_power(g: &Graph, k: usize) -> Graph {
    let n = g.num_nodes();
    let mut p = Graph::new(n);
    for v in 0..n {
        p.set_node_weight(v, g.node_weight(v));
    }
    for u in 0..n {
        for (v, d) in g.bfs_distances(u).into_iter().enumerate() {
            if let Some(d) = d {
                if u < v && d >= 1 && d <= k {
                    p.add_edge(u, v);
                }
            }
        }
    }
    p
}

/// Exact minimum weight `k`-dominating set (Section 4.3): a minimum weight
/// `S` such that every vertex is in `S` or within hop distance `k` of `S`.
/// Computed as a weighted MDS on the `k`-th graph power.
pub fn min_weight_k_dominating_set(g: &Graph, k: usize) -> SetSolution {
    min_weight_dominating_set(&graph_power(g, k))
}

/// Brute-force minimum weight dominating set (for cross-validation).
///
/// # Panics
///
/// Panics if `n > 20`.
pub fn min_weight_dominating_set_brute(g: &Graph) -> Weight {
    let n = g.num_nodes();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let closed: Vec<u128> = adjacency_masks(g)
        .into_iter()
        .enumerate()
        .map(|(v, a)| a | (1 << v))
        .collect();
    let full = full_mask(n);
    let mut best = Weight::MAX;
    for mask in 0u64..(1u64 << n) {
        let m = mask as u128;
        let mut dom = 0u128;
        let mut cost = 0;
        for v in iter_bits(m) {
            dom |= closed[v];
            cost += g.node_weight(v);
        }
        if dom == full && cost < best {
            best = cost;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn domination_numbers_of_standard_graphs() {
        assert_eq!(min_dominating_set_size(&generators::star(9)), 1);
        assert_eq!(min_dominating_set_size(&generators::complete(5)), 1);
        assert_eq!(min_dominating_set_size(&generators::cycle(9)), 3);
        assert_eq!(min_dominating_set_size(&generators::path(7)), 3); // ceil(7/3)
        assert_eq!(min_dominating_set_size(&generators::cycle(10)), 4);
    }

    #[test]
    fn decision_variant_thresholds() {
        let c9 = generators::cycle(9);
        assert!(has_dominating_set_of_size(&c9, 3));
        assert!(!has_dominating_set_of_size(&c9, 2));
        assert!(has_dominating_set_of_size(&c9, 9));
    }

    #[test]
    fn solution_dominates_and_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..15 {
            let mut g = generators::gnp(12, 0.25, &mut rng);
            for v in 0..12 {
                g.set_node_weight(v, rng.gen_range(0..6));
            }
            let sol = min_weight_dominating_set(&g);
            assert!(g.is_dominating_set(&sol.vertices), "trial {trial}");
            assert_eq!(g.node_set_weight(&sol.vertices), sol.weight);
            assert_eq!(sol.weight, min_weight_dominating_set_brute(&g));
        }
    }

    #[test]
    fn graph_power_distances() {
        let p5 = generators::path(5);
        let p = graph_power(&p5, 2);
        assert!(p.has_edge(0, 2));
        assert!(!p.has_edge(0, 3));
        let p3 = graph_power(&p5, 4);
        assert_eq!(p3.num_edges(), 10); // complete
    }

    #[test]
    fn k_mds_on_path() {
        // Path of 9: a single center dominates within distance 4.
        let g = generators::path(9);
        assert_eq!(min_weight_k_dominating_set(&g, 4).weight, 1);
        assert_eq!(min_weight_k_dominating_set(&g, 1).weight, 3);
    }

    #[test]
    fn stats_variant_counts_work_and_agrees() {
        let g = generators::cycle(10);
        let plain = min_dominating_set_size(&g);
        let mut h = g.clone();
        for v in 0..10 {
            h.set_node_weight(v, 1);
        }
        let (sol, stats) = min_weight_dominating_set_with_stats(&h);
        assert_eq!(sol.weight as usize, plain);
        assert!(stats.nodes >= 1, "at least the root is expanded");
        assert!(stats.incumbents >= 1, "the optimum was an incumbent");
        assert!(stats.backtracks >= 1);
        // The capped decision search prunes at least as aggressively.
        let (yes, dstats) = has_dominating_set_of_size_with_stats(&g, 2);
        assert!(!yes);
        assert!(dstats.nodes >= 1);
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        // Star where the center has weight 0.
        let mut g = generators::star(6);
        g.set_node_weight(0, 0);
        let sol = min_weight_dominating_set(&g);
        assert_eq!(sol.weight, 0);
        assert!(g.is_dominating_set(&sol.vertices));
    }

    /// The sequential packing the `N³` bound replaces: scan the
    /// undominated vertices in ascending order, skip any whose closed
    /// neighborhood meets the blocked set, and block the `N²` of each
    /// packed vertex.
    fn sequential_packing<const W: usize>(
        g: &Graph,
        w: &[Weight],
        undominated: Words<W>,
    ) -> Weight {
        let closed: Vec<Words<W>> = (0..g.num_nodes())
            .map(|v| {
                g.neighbors(v)
                    .iter()
                    .fold(Words::bit(v), |m, &u| m.or(&Words::bit(u)))
            })
            .collect();
        let mut blocked = Words::<W>::EMPTY;
        let mut lb = 0;
        for v in undominated.iter() {
            if closed[v].intersects(&blocked) {
                continue;
            }
            lb += closed[v].iter().map(|u| w[u]).min().unwrap_or(0);
            blocked = closed[v]
                .iter()
                .fold(blocked.or(&closed[v]), |b, u| b.or(&closed[u]));
        }
        lb
    }

    fn check_bound_equivalence<const W: usize>(sizes: std::ops::RangeInclusive<usize>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for trial in 0..60 {
            let n = rng.gen_range(sizes.clone());
            let g = generators::gnp(n, rng.gen_range(0.02..0.3), &mut rng);
            let weights = if trial % 2 == 0 {
                vec![1; n]
            } else {
                (0..n).map(|_| rng.gen_range(0..6)).collect()
            };
            let t = Tables::<W>::new(&g, &weights);
            for _ in 0..20 {
                let mut undominated = Words::<W>::EMPTY;
                for v in 0..n {
                    if rng.gen_bool(0.6) {
                        undominated.set(v);
                    }
                }
                let want = sequential_packing(&g, &weights, undominated);
                assert_eq!(
                    t.lower_bound(undominated, Weight::MAX),
                    want,
                    "trial {trial}"
                );
                // The early exit only decides `>= limit`.
                let limit = rng.gen_range(1..=want + 2);
                assert_eq!(
                    t.lower_bound(undominated, limit) >= limit,
                    want >= limit,
                    "trial {trial}, limit {limit}"
                );
            }
        }
    }

    #[test]
    fn n3_packing_bound_equals_the_sequential_packing() {
        check_bound_equivalence::<1>(1..=64, 31);
        check_bound_equivalence::<2>(65..=128, 32);
    }

    #[test]
    fn one_vertex_cap_for_every_entry_point() {
        // The cocktail-party graph (K_200 minus a perfect matching): no
        // vertex dominates its partner, a partner pair dominates all.
        let mut cocktail = generators::complete(200);
        for v in (0..200).step_by(2) {
            cocktail.remove_edge(v, v + 1);
        }
        assert_eq!(min_dominating_set_size(&cocktail), 2);
        assert!(!has_dominating_set_of_size(&cocktail, 1));
        assert!(has_dominating_set_of_size(&cocktail, 2));
        // Twenty disjoint 10-cycles: the component split at width 4.
        let mut cycles = Graph::new(200);
        for c in 0..20 {
            for i in 0..10 {
                cycles.add_edge(10 * c + i, 10 * c + (i + 1) % 10);
            }
        }
        let sol = min_weight_dominating_set(&cycles);
        assert_eq!(sol.weight, 80);
        assert!(cycles.is_dominating_set(&sol.vertices));
        // A 40-dominating set of the 200-cycle needs ⌈200/81⌉ centers.
        let sol = min_weight_k_dominating_set(&generators::cycle(200), 40);
        assert_eq!(sol.weight, 3);
        // Only the path's far end needs covering.
        let sol = min_weight_dominating_set_of(&generators::path(200), &[197, 198, 199]);
        assert_eq!((sol.weight, sol.vertices), (1, vec![198]));
    }

    #[test]
    #[should_panic(expected = "at most 256 vertices")]
    fn more_than_256_vertices_is_rejected() {
        min_dominating_set_size(&Graph::new(257));
    }

    #[test]
    #[should_panic(expected = "at most 256 vertices")]
    fn target_search_shares_the_cap() {
        min_weight_dominating_set_of(&Graph::new(257), &[0]);
    }
}
