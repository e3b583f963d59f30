//! Load balancing: the `Balance` lift of Section 4.5 / Appendix F.
//!
//! Ordered geometric resolution is provably stuck at `Ω(|C|^{n−1})` on
//! some inputs (Theorem 5.4, Example F.1): a fixed splitting order can
//! force all the work into one dimension. The fix (Theorem 4.11) is to
//! **lift** the `n`-dimensional BCP into `2n − 2` dimensions: each of the
//! first `n − 2` attributes `X` is split into a *layer id* `X′` (an
//! interval of a **balanced partition** of `D(X)`, Definition 4.13) and a
//! *remainder* `X″`, and Tetris runs on the lifted boxes with SAO
//! `(A′₁, …, A′_{n−2}, A_n, A_{n−1}, A″_{n−2}, …, A″₁)` — Algorithm 5.
//!
//! Lifted points do not map 1-1 to original points (bits of `X′` beyond
//! its layer and bits of `X″` beyond the remainder are *don't-cares*), so
//! this module canonicalizes every uncovered lifted point back to its
//! original tuple and inserts the tuple's entire lifted **equivalence
//! class** as one box — each output is reported exactly once.
//!
//! [`TetrisLB::preloaded`] is Algorithm 5 (`Tetris-Preloaded-LB`,
//! offline). [`TetrisLB::reloaded`] is the online variant of Appendix
//! F.6: boxes load on demand and the partitions are rebuilt (from scratch)
//! whenever the loaded set doubles — `O(log |C|)` rebuilds total.

use crate::TetrisStats;
use boxstore::{BoxOracle, BoxTree};
use dyadic::{resolve::ordered_resolve, DyadicBox, DyadicInterval, Space};

/// A **balanced dimension partition** (Definition 4.13): a prefix-free set
/// of dyadic intervals covering the domain, such that at most `threshold`
/// input projections fall *strictly inside* any single interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalancedPartition {
    /// Partition intervals, sorted left-to-right; prefix-free; covering.
    intervals: Vec<DyadicInterval>,
    width: u8,
}

impl BalancedPartition {
    /// The trivial partition `{λ}`.
    pub fn trivial(width: u8) -> Self {
        BalancedPartition {
            intervals: vec![DyadicInterval::lambda()],
            width,
        }
    }

    /// Compute a balanced partition of a `width`-bit domain for the given
    /// projections (Proposition F.4): split every interval with more than
    /// `threshold` projections strictly inside it.
    pub fn compute(projections: &[DyadicInterval], width: u8, threshold: usize) -> Self {
        let mut intervals = Vec::new();
        // Recursive splitting; `strict` holds the projections that are
        // proper extensions of the current interval.
        fn split(
            x: DyadicInterval,
            strict: &[DyadicInterval],
            width: u8,
            threshold: usize,
            out: &mut Vec<DyadicInterval>,
        ) {
            if strict.len() <= threshold || x.len() == width {
                out.push(x);
                return;
            }
            for bit in 0..2u8 {
                let child = x.child(bit);
                let sub: Vec<DyadicInterval> = strict
                    .iter()
                    .filter(|iv| child.is_prefix_of(iv) && iv.len() > child.len())
                    .copied()
                    .collect();
                split(child, &sub, width, threshold, out);
            }
        }
        let strict: Vec<DyadicInterval> = projections
            .iter()
            .filter(|iv| !iv.is_lambda())
            .copied()
            .collect();
        split(
            DyadicInterval::lambda(),
            &strict,
            width,
            threshold,
            &mut intervals,
        );
        BalancedPartition { intervals, width }
    }

    /// Number of layers `|P_X|`.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// A valid partition always has at least one layer.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether this is the trivial `{λ}` partition.
    pub fn is_trivial(&self) -> bool {
        self.intervals.len() == 1
    }

    /// The partition intervals (sorted left-to-right).
    pub fn intervals(&self) -> &[DyadicInterval] {
        &self.intervals
    }

    /// The unique partition interval containing a point value.
    pub fn interval_of_value(&self, v: u64) -> DyadicInterval {
        // Binary search by range start.
        let idx = self
            .intervals
            .partition_point(|iv| iv.range(self.width).0 <= v)
            .checked_sub(1)
            .expect("partition covers the domain");
        let iv = self.intervals[idx];
        debug_assert!(iv.contains_value(v, self.width));
        iv
    }

    /// Split an interval `s` against the partition, per equations
    /// (19)/(20): either `s` is a prefix of a partition interval (then
    /// `(s, λ)`), or a unique partition interval `x` is a proper prefix of
    /// `s` (then `(x, suffix)`).
    pub fn split_interval(&self, s: &DyadicInterval) -> (DyadicInterval, DyadicInterval) {
        // Find the partition interval containing s's left endpoint — it is
        // comparable to s.
        let (lo, _) = s.range(self.width);
        let x = self.interval_of_value(lo);
        if s.is_prefix_of(&x) {
            (*s, DyadicInterval::lambda())
        } else {
            debug_assert!(x.is_prefix_of(s));
            (x, s.suffix(x.len()))
        }
    }

    /// Verify the partition properties (tests): prefix-free and covering.
    pub fn is_valid(&self) -> bool {
        // Sorted, disjoint, covering [0, 2^width).
        let mut expect = 0u64;
        for iv in &self.intervals {
            let (lo, hi) = iv.range(self.width);
            if lo != expect {
                return false;
            }
            expect = hi + 1;
        }
        expect == (1u64 << self.width)
    }
}

/// The `Balance` lift for one BCP instance: maps boxes and points between
/// the original `n`-dimensional space and the lifted `2n−2`-dimensional
/// space.
#[derive(Clone, Debug)]
pub struct BalanceMap {
    original: Space,
    lifted: Space,
    /// Balanced partitions for original dimensions `0 .. n−2`.
    partitions: Vec<BalancedPartition>,
}

impl BalanceMap {
    /// Build the lift from balanced partitions of the first `n − 2`
    /// dimensions, computed from the given box set with threshold
    /// `⌈√|boxes|⌉`.
    ///
    /// # Panics
    /// If `n < 3` (the lift is only defined — and only needed — for
    /// `n ≥ 3`) or `2n − 2` exceeds the box dimension limit.
    pub fn from_boxes(space: Space, boxes: &[DyadicBox]) -> Self {
        let n = space.n();
        assert!(n >= 3, "Balance lift requires ≥ 3 dimensions");
        let threshold = (boxes.len() as f64).sqrt().ceil() as usize;
        let partitions: Vec<BalancedPartition> = (0..n - 2)
            .map(|i| {
                let projections: Vec<DyadicInterval> = boxes.iter().map(|b| b.get(i)).collect();
                BalancedPartition::compute(&projections, space.width(i), threshold)
            })
            .collect();
        Self::from_partitions(space, partitions)
    }

    /// Build the lift from explicit partitions (tests / custom layouts).
    pub fn from_partitions(space: Space, partitions: Vec<BalancedPartition>) -> Self {
        let n = space.n();
        assert!(n >= 3);
        assert_eq!(partitions.len(), n - 2);
        // Lifted layout (Algorithm 5's SAO):
        //   0 .. n−3        : A′_i            (width d_i)
        //   n−2             : A_{n−1} (last)  (width d_{n−1})
        //   n−1             : A_{n−2}         (width d_{n−2})
        //   n .. 2n−3       : A″_{n−3−k}      (width d_{n−3−k})
        let mut widths = Vec::with_capacity(2 * n - 2);
        for i in 0..n - 2 {
            widths.push(space.width(i));
        }
        widths.push(space.width(n - 1));
        widths.push(space.width(n - 2));
        for i in (0..n - 2).rev() {
            widths.push(space.width(i));
        }
        let lifted = Space::from_widths(&widths);
        BalanceMap {
            original: space,
            lifted,
            partitions,
        }
    }

    /// The original space.
    pub fn original(&self) -> Space {
        self.original
    }

    /// The lifted space (`2n − 2` dimensions).
    pub fn lifted(&self) -> Space {
        self.lifted
    }

    /// The balanced partition of original dimension `i < n−2`.
    pub fn partition(&self, i: usize) -> &BalancedPartition {
        &self.partitions[i]
    }

    /// Lifted position of `A″_i`.
    #[inline]
    fn second_pos(&self, i: usize) -> usize {
        2 * self.original.n() - 3 - i
    }

    /// Lift a gap box: `⟨b₁,…,bₙ⟩ ↦ ⟨b′₁,…,b′_{n−2}, b_n, b_{n−1},
    /// b″_{n−2},…,b″₁⟩`.
    pub fn lift_box(&self, b: &DyadicBox) -> DyadicBox {
        let n = self.original.n();
        debug_assert_eq!(b.n(), n);
        let mut out = DyadicBox::universe(self.lifted.n());
        for i in 0..n - 2 {
            let (s1, s2) = self.partitions[i].split_interval(&b.get(i));
            out.set(i, s1);
            out.set(self.second_pos(i), s2);
        }
        out.set(n - 2, b.get(n - 1));
        out.set(n - 1, b.get(n - 2));
        out
    }

    /// The lifted **equivalence-class box** of an original point: covers
    /// exactly the lifted points that canonicalize back to it.
    pub fn lift_point_class(&self, point: &[u64]) -> DyadicBox {
        let n = self.original.n();
        debug_assert_eq!(point.len(), n);
        let mut out = DyadicBox::universe(self.lifted.n());
        for (i, &pv) in point.iter().enumerate().take(n - 2) {
            let d = self.original.width(i);
            let x = self.partitions[i].interval_of_value(pv);
            let unit = DyadicInterval::point(pv, d);
            out.set(i, x);
            out.set(self.second_pos(i), unit.suffix(x.len()));
        }
        out.set(
            n - 2,
            DyadicInterval::point(point[n - 1], self.original.width(n - 1)),
        );
        out.set(
            n - 1,
            DyadicInterval::point(point[n - 2], self.original.width(n - 2)),
        );
        out
    }

    /// Canonicalize a lifted unit point back to the original point: the
    /// layer id comes from `A′_i`'s covering partition interval and the
    /// remaining bits from the top of `A″_i`.
    pub fn lower_point(&self, lifted_point: &DyadicBox) -> Vec<u64> {
        let n = self.original.n();
        debug_assert!(lifted_point.is_unit(&self.lifted));
        let mut out = vec![0u64; n];
        for (i, o) in out.iter_mut().enumerate().take(n - 2) {
            let d = self.original.width(i);
            let p1 = lifted_point.get(i).value(d);
            let x = self.partitions[i].interval_of_value(p1);
            let p2 = lifted_point.get(self.second_pos(i));
            let v = x.concat(&p2.truncate(d - x.len()));
            *o = v.value(d);
        }
        out[n - 1] = lifted_point.get(n - 2).value(self.original.width(n - 1));
        out[n - 2] = lifted_point.get(n - 1).value(self.original.width(n - 2));
        out
    }
}

/// Output of a load-balanced Tetris run.
#[derive(Clone, Debug)]
pub struct LbOutput {
    /// Output tuples in **original** coordinates (SAO order of the
    /// original space), sorted lexicographically.
    pub tuples: Vec<Vec<u64>>,
    /// Combined execution counters (all rebuild phases).
    pub stats: TetrisStats,
    /// Number of partition-rebuild phases (≥ 1).
    pub phases: u32,
}

/// The load-balanced Tetris engine (`Tetris-Preloaded-LB` /
/// `Tetris-Reloaded-LB`).
pub struct TetrisLB<'o, O: BoxOracle + ?Sized> {
    oracle: &'o O,
    preload: bool,
}

impl<'o, O: BoxOracle + ?Sized> TetrisLB<'o, O> {
    /// Offline mode (Algorithm 5): enumerate the oracle's boxes, build the
    /// lift from all of them, preload, and solve.
    pub fn preloaded(oracle: &'o O) -> Self {
        TetrisLB {
            oracle,
            preload: true,
        }
    }

    /// Online mode (Appendix F.6): boxes load on demand; partitions are
    /// rebuilt whenever the loaded set doubles.
    pub fn reloaded(oracle: &'o O) -> Self {
        TetrisLB {
            oracle,
            preload: false,
        }
    }

    /// Run to completion.
    pub fn run(self) -> LbOutput {
        self.drive(false)
    }

    /// Boolean BCP: stop at the first uncovered point.
    pub fn check_cover(self) -> (bool, TetrisStats) {
        let out = self.drive(true);
        (out.tuples.is_empty(), out.stats)
    }

    fn drive(self, stop_on_output: bool) -> LbOutput {
        let space = self.oracle.space();
        let n = space.n();
        // The lift needs n ≥ 3 and 2n−2 ≤ MAX_DIMS; outside that range the
        // plain engine already meets the target bound (n ≤ 2 ⇒ |C|^{n−1} ≤
        // |C|^{n/2}·|C|^{1/2}… in fact for n ≤ 2, Õ(|C|) holds).
        if n < 3 {
            let engine = if self.preload {
                crate::Tetris::preloaded(self.oracle)
            } else {
                crate::Tetris::reloaded(self.oracle)
            };
            let out = engine.run();
            return LbOutput {
                tuples: out.tuples,
                stats: out.stats,
                phases: 1,
            };
        }

        let mut stats = TetrisStats::new(2 * n - 2);
        let mut outputs: Vec<Vec<u64>> = Vec::new();
        let mut loaded: Vec<DyadicBox> = if self.preload {
            self.oracle
                .enumerate()
                .expect("preloaded LB mode requires an enumerable oracle")
        } else {
            Vec::new()
        };
        let mut phases = 0u32;

        'rebuild: loop {
            phases += 1;
            let map = BalanceMap::from_boxes(space, &loaded);
            let mut phase = LiftedPhase::new(&map, &loaded, &outputs);
            let rebuild_at = (2 * loaded.len()).max(16);
            loop {
                match phase.skeleton_root() {
                    None => {
                        // Lifted space covered ⇒ done.
                        stats.absorb(&phase.stats);
                        outputs.sort_unstable();
                        return LbOutput {
                            tuples: outputs,
                            stats,
                            phases,
                        };
                    }
                    Some(w) => {
                        let t = map.lower_point(&w);
                        phase.stats.oracle_probes += 1;
                        let probe = DyadicBox::from_point(&t, &space);
                        let hits = self.oracle.boxes_containing(&probe);
                        if hits.is_empty() {
                            phase.stats.outputs += 1;
                            outputs.push(t.clone());
                            phase.insert(&map.lift_point_class(&t));
                            if stop_on_output {
                                stats.absorb(&phase.stats);
                                outputs.sort_unstable();
                                return LbOutput {
                                    tuples: outputs,
                                    stats,
                                    phases,
                                };
                            }
                        } else {
                            for h in &hits {
                                debug_assert!(h.contains(&probe));
                                if !loaded.contains(h) {
                                    loaded.push(*h);
                                    phase.stats.loaded_boxes += 1;
                                }
                                phase.insert(&map.lift_box(h));
                            }
                            if !self.preload && loaded.len() >= rebuild_at {
                                phase.stats.rebuilds += 1;
                                stats.absorb(&phase.stats);
                                continue 'rebuild;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One phase of the LB engine: a fixed lift plus a knowledge base.
struct LiftedPhase {
    space: Space,
    kb: BoxTree,
    stats: TetrisStats,
}

impl LiftedPhase {
    fn new(map: &BalanceMap, loaded: &[DyadicBox], outputs: &[Vec<u64>]) -> Self {
        let lifted = map.lifted();
        let mut kb = BoxTree::new(lifted.n());
        let mut stats = TetrisStats::new(lifted.n());
        for b in loaded {
            if kb.insert(&map.lift_box(b)) {
                stats.kb_inserts += 1;
            }
        }
        for t in outputs {
            if kb.insert(&map.lift_point_class(t)) {
                stats.kb_inserts += 1;
            }
        }
        LiftedPhase {
            space: lifted,
            kb,
            stats,
        }
    }

    fn insert(&mut self, b: &DyadicBox) {
        if self.kb.insert(b) {
            self.stats.kb_inserts += 1;
        }
    }

    /// One outer-loop iteration: `None` if the lifted space is covered,
    /// else an uncovered lifted unit point.
    fn skeleton_root(&mut self) -> Option<DyadicBox> {
        self.stats.restarts += 1;
        let universe = DyadicBox::universe(self.space.n());
        match self.skeleton(&universe) {
            Skel::Covered(_) => None,
            Skel::Uncovered(w) => Some(w),
        }
    }

    fn skeleton(&mut self, b: &DyadicBox) -> Skel {
        self.stats.skeleton_calls += 1;
        self.stats.kb_queries += 1;
        if let Some(a) = self.kb.find_containing(b) {
            return Skel::Covered(a);
        }
        let Some((b1, b2, dim)) = b.split_first_thick(&self.space) else {
            return Skel::Uncovered(*b);
        };
        self.stats.splits += 1;
        let w1 = match self.skeleton(&b1) {
            Skel::Uncovered(p) => return Skel::Uncovered(p),
            Skel::Covered(w) => w,
        };
        if w1.contains(b) {
            return Skel::Covered(w1);
        }
        let w2 = match self.skeleton(&b2) {
            Skel::Uncovered(p) => return Skel::Uncovered(p),
            Skel::Covered(w) => w,
        };
        if w2.contains(b) {
            return Skel::Covered(w2);
        }
        let w = ordered_resolve(&w1, &w2, dim).expect("Lemma C.1 invariant violated");
        self.stats.count_resolution(dim);
        self.insert(&w);
        Skel::Covered(w)
    }
}

enum Skel {
    Covered(DyadicBox),
    Uncovered(DyadicBox),
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxstore::{coverage, SetOracle};

    fn iv(s: &str) -> DyadicInterval {
        DyadicInterval::parse(s).unwrap()
    }

    #[test]
    fn balanced_partition_trivial_when_light() {
        let p = BalancedPartition::compute(&[iv("0"), iv("10")], 3, 5);
        assert!(p.is_trivial());
        assert!(p.is_valid());
    }

    #[test]
    fn balanced_partition_splits_heavy_intervals() {
        // 8 projections strictly inside "0", threshold 2 ⇒ "0" must split.
        let projections: Vec<DyadicInterval> = (0..8u64)
            .map(|i| DyadicInterval::from_bits(i % 8, 3))
            .collect();
        let p = BalancedPartition::compute(&projections, 3, 2);
        assert!(p.is_valid());
        assert!(p.len() > 1);
        // Property: no interval has more than `threshold` strict extensions.
        for x in p.intervals() {
            let inside = projections
                .iter()
                .filter(|s| x.is_prefix_of(s) && s.len() > x.len())
                .count();
            assert!(inside <= 2, "interval {x} has {inside} strict projections");
        }
    }

    #[test]
    fn partition_size_bound_holds() {
        // Proposition F.4 / Definition 4.13: |P| = Õ(√|C|). With threshold
        // √|C|, the number of split (heavy) nodes is ≤ √|C| per level and
        // the partition stays small.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let width = 8u8;
            let count = rng.gen_range(16..200usize);
            let projections: Vec<DyadicInterval> = (0..count)
                .map(|_| {
                    let len = rng.gen_range(1..=width);
                    DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len)
                })
                .collect();
            let threshold = (count as f64).sqrt().ceil() as usize;
            let p = BalancedPartition::compute(&projections, width, threshold);
            assert!(p.is_valid());
            let bound = 2 * (threshold + 1) * (width as usize + 1);
            assert!(
                p.len() <= bound,
                "partition {} exceeds Õ(√C) bound {bound}",
                p.len()
            );
        }
    }

    #[test]
    fn interval_of_value_finds_unique_layer() {
        let p = BalancedPartition {
            intervals: vec![iv("00"), iv("01"), iv("1")],
            width: 3,
        };
        assert!(p.is_valid());
        assert_eq!(p.interval_of_value(0), iv("00"));
        assert_eq!(p.interval_of_value(3), iv("01"));
        assert_eq!(p.interval_of_value(7), iv("1"));
    }

    #[test]
    fn split_interval_cases() {
        let p = BalancedPartition {
            intervals: vec![iv("00"), iv("01"), iv("1")],
            width: 3,
        };
        // Prefix of a partition interval ⇒ (s, λ).
        assert_eq!(
            p.split_interval(&iv("0")),
            (iv("0"), DyadicInterval::lambda())
        );
        assert_eq!(
            p.split_interval(&iv("00")),
            (iv("00"), DyadicInterval::lambda())
        );
        assert_eq!(
            p.split_interval(&DyadicInterval::lambda()),
            (DyadicInterval::lambda(), DyadicInterval::lambda())
        );
        // Proper extension ⇒ (layer, suffix).
        assert_eq!(p.split_interval(&iv("011")), (iv("01"), iv("1")));
        assert_eq!(p.split_interval(&iv("101")), (iv("1"), iv("01")));
    }

    #[test]
    fn lift_round_trip_points() {
        let space = Space::uniform(3, 3);
        let boxes: Vec<DyadicBox> = (0..20u64)
            .map(|i| {
                DyadicBox::from_intervals(&[
                    DyadicInterval::from_bits(i % 8, 3),
                    DyadicInterval::lambda(),
                    DyadicInterval::from_bits(i % 2, 1),
                ])
            })
            .collect();
        let map = BalanceMap::from_boxes(space, &boxes);
        assert_eq!(map.lifted().n(), 4);
        space.for_each_point(|p| {
            let class = map.lift_point_class(p);
            // Any lifted unit point inside the class lowers back to p.
            let mut probe = DyadicBox::universe(4);
            for i in 0..4 {
                let ivl = class.get(i);
                // Extend with zeros to unit width.
                let extra = map.lifted().width(i) - ivl.len();
                let unit = DyadicInterval::from_bits(ivl.bits() << extra, map.lifted().width(i));
                probe.set(i, unit);
            }
            assert!(class.contains(&probe));
            assert_eq!(map.lower_point(&probe), p.to_vec());
        });
    }

    /// Lifted coverage must agree with original coverage pointwise:
    /// `lift(b)` covers a lifted point iff `b` covers its lowering.
    #[test]
    fn lift_preserves_coverage_semantics() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let space = Space::uniform(3, 2);
            let boxes: Vec<DyadicBox> = (0..rng.gen_range(1..12))
                .map(|_| {
                    let mut bx = DyadicBox::universe(3);
                    for i in 0..3 {
                        let len = rng.gen_range(0..=2u8);
                        bx.set(
                            i,
                            DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                        );
                    }
                    bx
                })
                .collect();
            let map = BalanceMap::from_boxes(space, &boxes);
            let lifted_space = map.lifted();
            lifted_space.for_each_point(|lp| {
                let lp_box = DyadicBox::from_point(lp, &lifted_space);
                let orig = map.lower_point(&lp_box);
                for b in &boxes {
                    let covers_orig = b.contains_point(&orig, &space);
                    let covers_lift = map.lift_box(b).contains(&lp_box);
                    assert_eq!(covers_orig, covers_lift, "box {b} point {orig:?}");
                }
            });
        }
    }

    #[test]
    fn lb_outputs_match_plain_tetris() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..25 {
            let n = rng.gen_range(3..=4);
            let d = 2u8;
            let space = Space::uniform(n, d);
            let boxes: Vec<DyadicBox> = (0..rng.gen_range(0..20))
                .map(|_| {
                    let mut bx = DyadicBox::universe(n);
                    for i in 0..n {
                        let len = rng.gen_range(0..=d);
                        bx.set(
                            i,
                            DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                        );
                    }
                    bx
                })
                .collect();
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            for preload in [false, true] {
                let lb = if preload {
                    TetrisLB::preloaded(&oracle)
                } else {
                    TetrisLB::reloaded(&oracle)
                };
                let out = lb.run();
                assert_eq!(out.tuples, expect, "trial {trial} preload {preload}");
            }
        }
    }

    #[test]
    fn lb_handles_low_dimensions_via_plain_engine() {
        let space = Space::uniform(2, 2);
        let boxes = vec![DyadicBox::parse("0,λ").unwrap()];
        let oracle = SetOracle::new(space, boxes);
        let out = TetrisLB::reloaded(&oracle).run();
        assert_eq!(out.tuples.len(), 8);
        assert_eq!(out.phases, 1);
    }

    #[test]
    fn lb_check_cover() {
        // Figure 5 cover in 3 dims.
        let space = Space::uniform(3, 3);
        let cover = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1"]
            .map(|s| DyadicBox::parse(s).unwrap());
        let oracle = SetOracle::new(space, cover);
        let (covered, _) = TetrisLB::reloaded(&oracle).check_cover();
        assert!(covered);
        let open = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1"].map(|s| DyadicBox::parse(s).unwrap());
        let oracle = SetOracle::new(space, open);
        let (covered, _) = TetrisLB::preloaded(&oracle).check_cover();
        assert!(!covered);
    }

    #[test]
    fn online_lb_rebuilds_are_logarithmic() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let space = Space::uniform(3, 4);
        let boxes: Vec<DyadicBox> = (0..200)
            .map(|_| {
                let mut bx = DyadicBox::universe(3);
                for i in 0..3 {
                    let len = rng.gen_range(1..=4u8);
                    bx.set(
                        i,
                        DyadicInterval::from_bits(rng.gen_range(0..(1u64 << len)), len),
                    );
                }
                bx
            })
            .collect();
        let oracle = SetOracle::new(space, boxes);
        let out = TetrisLB::reloaded(&oracle).run();
        assert!(out.phases <= 12, "too many rebuild phases: {}", out.phases);
        // Differential check against the plain engine.
        let plain = crate::Tetris::reloaded(&oracle).run();
        let mut expect = plain.tuples;
        expect.sort_unstable();
        assert_eq!(out.tuples, expect);
    }
}
