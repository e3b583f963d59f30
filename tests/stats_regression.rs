//! Stats-regression wall: pinned `TetrisStats` counters on two fixed
//! instances — the paper's worked Example 4.4 and a fixed skew-triangle
//! join (m = 8, 6-bit domains). The counters are the engine's observable
//! cost model; an accidental change to the descent, the probe layer, or
//! the knowledge base shows up here before it shows up in a benchmark.
//!
//! ## Update protocol
//!
//! These numbers may only change in a PR that *intends* to change engine
//! behaviour. To refresh them:
//!
//! 1. run `cargo test --test stats_regression -- --nocapture` — every
//!    failing assertion prints the actual counter set;
//! 2. verify the direction of the change is the intended one (the
//!    invariants below must still hold: `outputs` and `resolutions`
//!    identical across descent modes on these instances, incremental
//!    `restarts` == 1 and never above restart mode's);
//! 3. paste the new values and record the reason in the PR description /
//!    CHANGES.md.
//!
//! The incremental driver must move `restarts` **down**, never change
//! outputs — that direction is asserted structurally, not just pinned.

use boxstore::SetOracle;
use dyadic::{DyadicBox, Space};
use tetris_join::prepared::PreparedJoin;
use tetris_join::tetris::{Descent, Tetris, TetrisConfig, TetrisStats};
use workload::triangle;

/// The pinned counter subset: (restarts, oracle_probes, kb_inserts,
/// resolutions, outputs, loaded_boxes, kb_queries).
type Pin = (u64, u64, u64, u64, u64, u64, u64);

fn pin(stats: &TetrisStats) -> Pin {
    (
        stats.restarts,
        stats.oracle_probes,
        stats.kb_inserts,
        stats.resolutions,
        stats.outputs,
        stats.loaded_boxes,
        stats.kb_queries,
    )
}

fn assert_pin(label: &str, stats: &TetrisStats, expect: Pin) {
    assert_eq!(
        pin(stats),
        expect,
        "{label}: pinned counters moved — if intended, follow the update \
         protocol in tests/stats_regression.rs (actual: {stats:?})"
    );
}

/// The store/parallel tuning constants the engine runs with
/// are part of the engine's measured cost model: changing a default is a
/// perf-relevant decision that must be taken deliberately (and re-run
/// through the bench protocol), never slipped in with a refactor.
#[test]
fn tuning_defaults_are_pinned() {
    assert_eq!(boxstore::DEFAULT_INSERT_RING, 256);
    assert_eq!(boxstore::REPAIR_CAP, 64);
    assert_eq!(tetris_core::DEFAULT_MERGE_CAP, 4096);
}

fn example_4_4() -> SetOracle {
    let b = |s: &str| DyadicBox::parse(s).unwrap();
    SetOracle::new(
        Space::uniform(2, 2),
        ["λ,0", "00,λ", "λ,11", "10,1"].iter().map(|s| b(s)),
    )
}

#[test]
fn example_4_4_counters_are_pinned() {
    let oracle = example_4_4();

    let inc = Tetris::reloaded(&oracle).run();
    assert_pin(
        "ex4.4 reloaded incremental",
        &inc.stats,
        (1, 5, 9, 8, 2, 4, 20),
    );

    let pre = Tetris::preloaded(&oracle).run();
    assert_pin(
        "ex4.4 preloaded incremental",
        &pre.stats,
        (1, 2, 9, 8, 2, 0, 17),
    );

    let restart = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
    assert_pin(
        "ex4.4 reloaded restart",
        &restart.stats,
        (6, 5, 9, 8, 2, 4, 52),
    );

    // Witness streaming (PR 6): 5 of the old 14 resolvent inserts are
    // subsumed by the next resolvent and never materialized — the skips
    // plus the surviving inserts must account for every old insert, and
    // resolutions/outputs/queries are bit-identical to the pre-streaming
    // engine (the pins above).
    assert_eq!(inc.stats.kb_insert_skips, 5, "ex4.4 streaming skips");
    assert_eq!(
        inc.stats.kb_inserts + inc.stats.kb_insert_skips,
        14,
        "ex4.4: skips + inserts must equal the pre-streaming insert count"
    );

    // Structural direction: same outputs, fewer (or equal) restarts.
    assert_eq!(inc.tuples, restart.tuples);
    assert_eq!(inc.tuples, pre.tuples);
    assert!(inc.stats.restarts < restart.stats.restarts);
}

#[test]
fn skew_triangle_m8_counters_are_pinned() {
    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = PreparedJoin::builder(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();

    let pre = Tetris::preloaded(&oracle).run();
    assert_pin(
        "skew(8) preloaded incremental",
        &pre.stats,
        (1, 25, 357, 183, 25, 0, 367),
    );
    assert_eq!(pre.tuples.len() as u64, inst.expected_output.unwrap());

    let rel = Tetris::reloaded(&oracle).run();
    assert_pin(
        "skew(8) reloaded incremental",
        &rel.stats,
        (1, 136, 309, 183, 25, 121, 829),
    );

    let restart = Tetris::preloaded(&oracle).descent(Descent::Restart).run();
    assert_pin(
        "skew(8) preloaded restart",
        &restart.stats,
        (26, 25, 357, 183, 25, 0, 881),
    );

    // The incremental driver changes restarts down — never the outputs,
    // and (on this instance) not a single resolution.
    assert_eq!(pre.tuples, restart.tuples);
    assert_eq!(pre.tuples, rel.tuples);
    assert_eq!(pre.stats.resolutions, restart.stats.resolutions);
    assert_eq!(pre.stats.restarts, 1);
    assert_eq!(restart.stats.restarts, restart.stats.oracle_probes + 1);
    // The incremental probe layer answers every knowledge-base walk one
    // of three ways — 0-side frontier advance, frame-saved frontier
    // advance + insert-log repair (right siblings), or a full walk — and
    // the ledger must balance.
    assert_eq!(
        pre.stats.probe_advances + pre.stats.probe_repairs + pre.stats.probe_full_walks,
        pre.stats.kb_queries
    );
    assert!(pre.stats.probe_advances > 0);
    assert!(
        pre.stats.probe_repairs > 0,
        "right-sibling descents should be repair-served: {:?}",
        pre.stats
    );
    // PR 6 counters. Summary-pruned repairs are a subset of repairs; on
    // this instance the reloaded run is the one whose repair windows are
    // provably prunable, so the fast-path counter is pinned there.
    assert!(pre.stats.probe_repair_fasts <= pre.stats.probe_repairs);
    assert_eq!(
        rel.stats.probe_repair_fasts, 6,
        "skew(8) reloaded summary fast-path hits: {:?}",
        rel.stats
    );
    // Witness streaming: every pre-streaming insert is either kept or
    // skipped, and both runs skip the same 20 subsumed resolvents.
    assert_eq!(pre.stats.kb_insert_skips, 20, "skew(8) streaming skips");
    assert_eq!(pre.stats.kb_inserts + pre.stats.kb_insert_skips, 377);
    assert_eq!(rel.stats.kb_inserts + rel.stats.kb_insert_skips, 329);
}

/// The observability histograms (PR 9) pinned on the same two fixed
/// instances, as bucket CSVs (`obs::Pow2Histogram::to_csv`: bucket 0 is
/// value 0, bucket k counts values in `[2^(k-1), 2^k)`).
///
/// These follow the same update protocol as the counter pins above —
/// and because each histogram's total IS a pinned counter (depth ↔
/// `resolutions`, walk ↔ `kb_queries`, repair ↔ `probe_repairs`), a
/// histogram pin can only move in a PR where the counter pin moved or
/// the *distribution* shifted (e.g. a probe-layer change that keeps the
/// query count but changes walk lengths). Both are engine-behaviour
/// changes that must be taken deliberately.
#[test]
fn obs_histograms_are_pinned() {
    let cfg = TetrisConfig {
        preload: true,
        obs: true,
        ..Default::default()
    };

    let oracle = example_4_4();
    let out = Tetris::with_config(&oracle, cfg).run();
    let l = out.obs.as_ref().expect("obs requested");
    assert_eq!(l.depth.to_csv(), "0,1,5,2", "ex4.4 resolution depths");
    assert_eq!(l.walk.to_csv(), "6,9,2", "ex4.4 probe walk lengths");
    assert_eq!(l.repair.to_csv(), "0,0,1", "ex4.4 repair windows");

    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = PreparedJoin::builder(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let run = join.execute(cfg);
    let l = run.output.obs.as_ref().expect("obs requested");
    assert_eq!(
        l.depth.to_csv(),
        "0,1,2,19,103,58",
        "skew(8) resolution depths"
    );
    assert_eq!(l.walk.to_csv(), "160,90,117", "skew(8) probe walk lengths");
    assert_eq!(
        l.repair.to_csv(),
        "0,0,36,49,46,4,1",
        "skew(8) repair windows"
    );
    // The memory ledger on the preloaded binary store is as pinnable as
    // any counter: nodes and bytes are decided by the insert sequence
    // (166 16-byte inner nodes + 277 8-byte last-level nodes).
    let mem = run.mem.expect("obs requested");
    assert_eq!((mem.nodes, mem.bytes, mem.max_depth), (443, 4872, 14));
}

/// Which `TetrisStats` counters the parallel descent pins and which it
/// lets float.
///
/// **Pinned (scheduling-independent):** `outputs` and the output tuples
/// themselves — outputs are decided by oracle probes over a partition of
/// the space, so no schedule can add, drop, or duplicate one. Also
/// pinned: `restarts` (the parallel driver is one logical pass) and the
/// ledger invariant `Σ resolutions_by_dim == resolutions`.
///
/// **Floating (may vary run-to-run and with the thread count):**
/// `resolutions`, `splits`, `skeleton_calls`, `kb_queries`,
/// `kb_inserts`, `oracle_probes`, `loaded_boxes`,
/// `probe_advances`, `probe_repairs`, `probe_full_walks`, `par_tasks`,
/// `par_donations`. A donated subtree resolves against a shard that
/// lacks the donor's later discoveries (more resolutions), a cancelled
/// thief still spent work before observing the flag, and donation timing
/// depends on when workers go hungry. That is why the bench gate and
/// this wall only ever compare parallel runs by output, never by cost
/// counters.
#[test]
fn parallel_pins_outputs_and_nothing_else() {
    let width = 6u8;
    let inst = triangle::skew_triangle(8, width);
    let join = PreparedJoin::builder(width)
        .atom("R", &inst.r, &["A", "B"])
        .atom("S", &inst.s, &["B", "C"])
        .atom("T", &inst.t, &["A", "C"])
        .build();
    let oracle = join.oracle();

    let seq = Tetris::preloaded(&oracle).run();
    for threads in [2usize, 4] {
        let par = Tetris::preloaded(&oracle)
            .descent(Descent::Parallel { threads })
            .run();
        assert_eq!(
            par.tuples, seq.tuples,
            "threads={threads}: the output tuple set is pinned"
        );
        assert_eq!(par.stats.outputs, seq.stats.outputs);
        assert_eq!(par.stats.restarts, 1, "one logical pass");
        assert_eq!(
            par.stats.resolutions_by_dim.iter().sum::<u64>(),
            par.stats.resolutions,
            "per-dimension ledger must balance even across merged shards"
        );
        assert!(par.stats.par_tasks >= 1);
        // Each parallel query probes up to two stores (frozen base, then
        // the overlay shard), so the probe breakdown bounds the query
        // count from above instead of matching it exactly.
        let probes =
            par.stats.probe_advances + par.stats.probe_repairs + par.stats.probe_full_walks;
        assert!(probes >= par.stats.kb_queries);
        assert!(probes <= 2 * par.stats.kb_queries);
    }
}
