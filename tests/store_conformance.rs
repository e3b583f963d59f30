//! Randomized store-conformance wall: the knowledge base ([`BoxTree`]),
//! driven through random interleavings of inserts, untracked probes, engine-shaped tracked probe chains,
//! clears, and shard extractions — each observable answer checked
//! against a naive reference store.
//!
//! The reference pins the full store contract, not just set membership:
//!
//! * **DFS-first witnesses** — `find_containing` must return the
//!   containing box that the multilevel DFS reaches first, i.e. the one
//!   with the lexicographically least per-dimension prefix-length
//!   vector (shortest dim-0 prefix wins, then dim 1, …).
//! * **Tracked = untracked** — `find_containing_tracked` must be
//!   witness-identical to `find_containing` under arbitrary interleaved
//!   inserts and clears (frontier advance, insert-log repair, the
//!   fingerprint-summary fast path, and full-walk fallback all fire
//!   here).
//! * **Exact shards** — `extract_intersecting_into` must produce
//!   exactly the stored boxes intersecting the target.
//!
//! Every assertion message carries the `(seed, step)` pair, so a failure
//! is reproducible with a one-line filter.

use boxstore::{BoxTree, DescentProbe, DEFAULT_INSERT_RING};
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEEDS_PER_CONFIG: u64 = 12;
const STEPS_PER_SEED: usize = 300;

/// Brute-force reference store: a deduplicated vector of boxes.
#[derive(Debug, Default)]
struct NaiveStore {
    boxes: Vec<DyadicBox>,
}

impl NaiveStore {
    fn insert(&mut self, b: &DyadicBox) -> bool {
        if self.boxes.contains(b) {
            return false;
        }
        self.boxes.push(*b);
        true
    }

    fn clear(&mut self) {
        self.boxes.clear();
    }

    /// The DFS-first witness: the containing box whose prefix-length
    /// vector is lexicographically least.
    fn find_containing(&self, b: &DyadicBox) -> Option<DyadicBox> {
        self.boxes
            .iter()
            .filter(|c| c.contains(b))
            .min_by_key(|c| {
                let mut key = [0u8; MAX_DIMS];
                for (i, slot) in key.iter_mut().enumerate().take(c.n()) {
                    *slot = c.get(i).len();
                }
                key
            })
            .copied()
    }

    fn intersecting(&self, target: &DyadicBox) -> Vec<DyadicBox> {
        let mut out: Vec<DyadicBox> = self
            .boxes
            .iter()
            .filter(|c| c.intersects(target))
            .copied()
            .collect();
        out.sort();
        out
    }

    fn sorted(&self) -> Vec<DyadicBox> {
        let mut out = self.boxes.clone();
        out.sort();
        out
    }
}

fn random_box(rng: &mut StdRng, n: usize, width: u8) -> DyadicBox {
    let mut bx = DyadicBox::universe(n);
    for i in 0..n {
        let len = rng.gen_range(0..=width);
        let bits = rng.gen_range(0..(1u64 << len));
        bx.set(i, DyadicInterval::from_bits(bits, len));
    }
    bx
}

fn sorted_boxes(s: &BoxTree) -> Vec<DyadicBox> {
    let mut out = s.iter_boxes();
    out.sort();
    out
}

/// One random op sequence against one seed.
fn conformance_run(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Every dimension count: n = 1 runs the last-level arena alone, n =
    // MAX_DIMS runs long chains of inner levels.
    let n = rng.gen_range(1..=MAX_DIMS);
    let width = rng.gen_range(2..=5) as u8;
    let mut store = BoxTree::new(n);
    let mut naive = NaiveStore::default();
    // One long-lived probe state: clears and unrelated-target probes in
    // between must be survivable (the store detects staleness itself).
    let mut probe = DescentProbe::new();

    for step in 0..STEPS_PER_SEED {
        let ctx = || format!("seed={seed} step={step} n={n} width={width}");
        match rng.gen_range(0..20) {
            // Inserts dominate so repair windows stay busy.
            0..=8 => {
                let bx = random_box(&mut rng, n, width);
                let novel = naive.insert(&bx);
                assert_eq!(store.insert(&bx), novel, "{}: insert novelty", ctx());
            }
            9..=11 => {
                let bx = random_box(&mut rng, n, width);
                assert_eq!(
                    store.find_containing(&bx),
                    naive.find_containing(&bx),
                    "{}: untracked witness",
                    ctx()
                );
            }
            // Engine-shaped tracked chain: root-to-leaf at one dim, with
            // inserts racing the probes so the frontier must be repaired.
            // Skeleton probes always have λ components beyond the probed
            // dim (later dims are still unconstrained there) — tracked
            // probes are only defined for that shape.
            12..=16 => {
                let dim = rng.gen_range(0..n);
                let mut target = random_box(&mut rng, n, width);
                for i in dim + 1..n {
                    target.set(i, DyadicInterval::lambda());
                }
                for k in 0..=target.get(dim).len() {
                    let mut q = target;
                    q.set(dim, target.get(dim).truncate(k));
                    let got = store.find_containing_tracked(&q, dim, &mut probe);
                    assert_eq!(
                        got,
                        naive.find_containing(&q),
                        "{} k={k}: tracked witness",
                        ctx()
                    );
                    if got.is_some() {
                        break;
                    }
                    if rng.gen_range(0..3) == 0 {
                        let bx = random_box(&mut rng, n, width);
                        naive.insert(&bx);
                        store.insert(&bx);
                    }
                }
            }
            17 => {
                let target = random_box(&mut rng, n, width);
                let mut shard = BoxTree::new(n);
                store.extract_intersecting_into(&target, &mut shard);
                assert_eq!(
                    sorted_boxes(&shard),
                    naive.intersecting(&target),
                    "{}: extracted shard",
                    ctx()
                );
            }
            18 => {
                store.clear();
                naive.clear();
                assert!(store.is_empty(), "{}: clear leaves store empty", ctx());
            }
            _ => {
                assert_eq!(store.len(), naive.boxes.len(), "{}: len", ctx());
                assert_eq!(
                    sorted_boxes(&store),
                    naive.sorted(),
                    "{}: stored set",
                    ctx()
                );
            }
        }
    }
    assert_eq!(
        sorted_boxes(&store),
        naive.sorted(),
        "seed={seed}: final stored set"
    );
    // The chains above must actually exercise the incremental paths,
    // otherwise this wall silently stops guarding them.
    assert!(
        probe.advances + probe.repairs + probe.full_walks > 0,
        "seed={seed}: no tracked probes fired"
    );
}

/// Directed clear-at-wrap scenario (PR 7 audit): drive the insert log
/// past a ring wrap and a fingerprint-block rotation, `clear()`
/// mid-block with a live tracked frontier, then keep probing — the
/// stale frontier must be detected via the clear stamp and every answer
/// must still match the reference.
fn clear_at_wrap_run() {
    let n = 2;
    let ring = DEFAULT_INSERT_RING;
    let mut store = BoxTree::new(n);
    let mut naive = NaiveStore::default();
    let mut probe = DescentProbe::new();

    // Enumerate distinct 2-d boxes deterministically (width ≤ 4 gives
    // 31² = 961, plenty past one 64-entry wrap).
    let mut ivs = vec![DyadicInterval::lambda()];
    for len in 1..=4u8 {
        for bits in 0..(1u64 << len) {
            ivs.push(DyadicInterval::from_bits(bits, len));
        }
    }
    let boxes: Vec<DyadicBox> = ivs
        .iter()
        .flat_map(|a| {
            ivs.iter().map(move |b| {
                let mut x = DyadicBox::universe(2);
                x.set(0, *a);
                x.set(1, *b);
                x
            })
        })
        .collect();

    let check = |store: &BoxTree,
                 naive: &NaiveStore,
                 probe: &mut DescentProbe,
                 probes: &[DyadicBox],
                 when: &str| {
        for q in probes {
            assert_eq!(
                store.find_containing_tracked(q, n - 1, probe),
                naive.find_containing(q),
                "ring={ring} {when}: tracked witness for {q:?}"
            );
        }
    };

    // Phase 1: wrap the ring (ring + 37 inserts lands mid fingerprint
    // block), probing as we go so the frontier is live at the clear.
    let wrap_inserts = ring + 37;
    for (i, bx) in boxes.iter().take(wrap_inserts).enumerate() {
        assert_eq!(store.insert(bx), naive.insert(bx), "insert {bx:?}");
        if i % 16 == 0 {
            check(&store, &naive, &mut probe, &boxes[200..204], "pre-clear");
        }
    }

    // Phase 2: clear mid-block. Every saved frontier and both summary
    // blocks are now stale; the store must notice on its own.
    store.clear();
    naive.clear();
    assert!(store.is_empty());
    check(&store, &naive, &mut probe, &boxes[..8], "post-clear");

    // Phase 3: rebuild past another wrap; answers must track the
    // reference with no ghosts from before the clear.
    for bx in boxes.iter().skip(300).take(ring + 10) {
        assert_eq!(store.insert(bx), naive.insert(bx), "re-insert {bx:?}");
    }
    check(&store, &naive, &mut probe, &boxes[290..330], "post-rebuild");
    assert!(
        probe.advances + probe.repairs + probe.full_walks > 0,
        "ring={ring}: no tracked probes fired"
    );
}

#[test]
fn box_tree_conforms() {
    for seed in 0..SEEDS_PER_CONFIG {
        conformance_run(seed);
    }
}

#[test]
fn clear_at_wrap_box_tree() {
    clear_at_wrap_run();
}
