//! The parallel skeleton descent (`Descent::Parallel`): Tetris's outer
//! loop spread over a work-stealing thread pool. Every task runs the
//! engine's one skeleton loop (`Skeleton::descend` in `engine.rs`); this
//! module holds only what a schedule adds to it — the pool, the task and
//! rendezvous types, donation, the join with its merge-on-return, and
//! cancellation. The frozen base knowledge base and every per-task
//! overlay shard are [`BoxTree`]s.
//!
//! # Why the output set cannot change
//!
//! Algorithm 2 is nondeterministic in its *choice order* — which
//! uncovered probe to chase next, which loaded box to unwind with — but
//! its output set is not: a tuple is reported iff **the oracle** answers
//! its probe with no covering gap box, and the knowledge base only ever
//! holds facts implied by the gap set plus already-reported outputs, so
//! coverage pruning can never hide an unreported tuple. The parallel
//! driver exploits exactly this freedom:
//!
//! * **Work unit.** A task is one suspended-subtree target: a half-box
//!   `⟨complete dims, one prefix component, λ…⟩`. Tasks partition the
//!   space — a donated frame is a pending *right sibling* the donor has
//!   not entered, so no unit box is ever probed by two tasks and no
//!   output can be double-reported.
//! * **Overlay shards.** Every task probes the frozen pre-descent
//!   knowledge base (the `Tetris-Preloaded` store, shared read-only by
//!   all workers, where frame-saved frontiers advance without ever
//!   needing repair) plus a private overlay shard holding the task's
//!   loads, resolvents, and reported outputs. A donated task's shard is
//!   seeded with `extract_intersecting_into` from the donor's shard —
//!   the slice of the donor's knowledge that can matter inside the
//!   donated half. Shard stores themselves are **recycled**: a joined
//!   thief hands its overlay back with the outcome, and each worker
//!   keeps a scratch pool that `donate` refills (clear + re-extract)
//!   instead of allocating a fresh store per stolen task —
//!   `TetrisStats::par_shard_allocs` counts the allocations that remain.
//! * **Deterministic merge.** When the donor's unwind reaches a donated
//!   frame it joins the thief ([`executor::Worker::help_while`] — it
//!   runs other tasks while waiting), records its own 0-side witness as
//!   the frame's `w1`, and unwinds on with the thief's witness — so the
//!   loop's ordinary pop-or-resolve step treats it exactly as a 1-side
//!   witness it found itself. If the frame's target is covered
//!   before the thief finishes, the thief is cancelled — its region is
//!   covered, so it cannot have produced (and can never produce) an
//!   output. Finally, every task's outputs are merged by sorting: the
//!   sequential descent emits tuples in lexicographic order, so the
//!   sorted union over the partition *is* the sequential output
//!   sequence, independent of scheduling.
//!
//! What may vary with scheduling is the **cost model**: a cancelled
//! thief still spent resolutions, a donated subtree resolves against a
//! shard that lacks the donor's later discoveries, and so on. The
//! stats-regression wall pins `outputs` (and the tuples themselves) and
//! documents every other counter as scheduling-dependent.

use crate::engine::{Skeleton, Tetris, TetrisOutput};
use crate::{TetrisConfig, TetrisStats};
use boxstore::{BoxOracle, BoxTree};
use dyadic::{DyadicBox, Space};
use executor::{Pool, Worker};
use obs::{Ledger, ObsSink, Phase};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How many skeleton calls a running descent waits between checks of the
/// cancellation flags and the pool's hunger signal. Small enough that
/// tiny differential-test instances still exercise donation, large
/// enough that the checks are noise on real workloads.
const CHECK_MASK: u64 = 15;

/// Default cap on the resolvent log a task hands back to its donor;
/// beyond this the merge is truncated (the log is an optimization — any
/// subset of it is sound to merge).
pub const DEFAULT_MERGE_CAP: usize = 4096;

/// Retired overlay shards kept per worker for reuse; beyond this they
/// are dropped (bounds how much arena capacity idles in the pools).
const SCRATCH_CAP: usize = 4;

/// One donated subtree: the half-box target plus the shard seeded from
/// the donor's overlay. `cell` carries the result back (absent only for
/// the root task, whose witness nobody joins).
pub(crate) struct Task {
    target: DyadicBox,
    shard: BoxTree,
    cell: Option<Arc<DonationCell>>,
}

/// The rendezvous between a donor frame and its thief.
pub(crate) struct DonationCell {
    /// Set by the thief once `outcome` is written.
    done: AtomicBool,
    /// Set by the donor when the frame's target got covered (the stolen
    /// subtree became dead work) or the run is stopping.
    cancel: AtomicBool,
    outcome: Mutex<Option<Outcome>>,
}

impl DonationCell {
    fn new() -> Self {
        DonationCell {
            done: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            outcome: Mutex::new(None),
        }
    }

    /// Tell the thief its subtree is no longer wanted.
    pub(crate) fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// What a completed task reports back to its donor.
struct Outcome {
    /// A knowledge-base box covering the task's whole target; `None`
    /// when the task observed a cancellation and unwound early.
    witness: Option<DyadicBox>,
    /// Boxes the task inserted that reach *outside* its target — loads
    /// and resolvents the donor can reuse (merge-on-return).
    inserts: Vec<DyadicBox>,
    /// The task's overlay store, handed back for reuse.
    shard: BoxTree,
}

/// What each task contributes to the final merge: its output tuples,
/// its execution counters, and its observability ledger (`None` unless
/// `TetrisConfig::obs` is set).
type TaskReport = (Vec<Vec<u64>>, TetrisStats, Option<Box<Ledger>>);

/// Run-wide shared state (borrowed by every worker via the scoped pool).
struct ParCtx<'a, O: BoxOracle + ?Sized> {
    oracle: &'a O,
    space: Space,
    config: TetrisConfig,
    /// The pre-descent knowledge base (preloaded gap set, or empty for
    /// reloaded mode), frozen for the duration of the run.
    base: &'a BoxTree,
    /// Boolean mode: flip `stop` at the first output anywhere.
    stop_on_first: bool,
    stop: &'a AtomicBool,
    /// Per-worker pools of retired overlay shards, refilled by joins and
    /// drained by donations (shard reuse instead of per-task allocation).
    scratch: &'a [Mutex<Vec<BoxTree>>],
    /// Every task pushes (outputs, stats) here; merged after the pool
    /// drains.
    reports: &'a Mutex<Vec<TaskReport>>,
}

/// A running task's handle on the pool — the one input that lets the
/// skeleton loop stop, donate and join.
pub(crate) struct WorkerHandle<'a, 's> {
    worker: &'a Worker<'s, Task>,
    stop: &'a AtomicBool,
    scratch: &'a [Mutex<Vec<BoxTree>>],
    /// This task's own rendezvous (absent for the root task).
    cell: Option<&'a DonationCell>,
}

impl WorkerHandle<'_, '_> {
    /// Whether this task must unwind early: the run is stopping or its
    /// donor cancelled it.
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.cell.is_some_and(|c| c.cancel.load(Ordering::Relaxed))
    }

    /// Hand a retired shard back to this worker's pool (dropped when
    /// full).
    fn retire(&self, shard: BoxTree) {
        let mut pool = self.scratch[self.worker.index()]
            .lock()
            .expect("scratch lock poisoned");
        if pool.len() < SCRATCH_CAP {
            pool.push(shard);
        }
    }
}

/// Entry point used by [`Tetris::run`] & friends for
/// [`crate::Descent::Parallel`].
pub(crate) fn run_parallel<O: BoxOracle + ?Sized>(
    engine: Tetris<'_, O>,
    threads: usize,
    stop_on_first: bool,
) -> TetrisOutput {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let Tetris { oracle, sk } = engine;
    let Skeleton {
        space,
        config,
        kb,
        mut stats,
        obs: mut run_obs,
        ..
    } = sk;
    assert!(
        !config.trace,
        "tracing is not supported under Descent::Parallel (event order \
         would depend on scheduling); trace a sequential descent instead"
    );
    let stop = AtomicBool::new(false);
    let reports = Mutex::new(Vec::new());
    let scratch: Vec<Mutex<Vec<BoxTree>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    let ctx = ParCtx {
        oracle,
        space,
        config,
        base: &kb,
        stop_on_first,
        stop: &stop,
        scratch: &scratch,
        reports: &reports,
    };
    let n = space.n();
    // The root task's overlay is the run's first shard allocation.
    stats.par_shard_allocs += 1;
    let root = Task {
        target: DyadicBox::universe(n),
        shard: BoxTree::new(n),
        cell: None,
    };
    Pool::scope(threads, vec![root], |task, worker| {
        run_task(&ctx, task, worker);
    });
    // One logical outer-loop pass, like the sequential incremental driver.
    stats.restarts += 1;
    let mut tuples = Vec::new();
    for (outs, s, ledger) in reports.into_inner().expect("report lock poisoned") {
        stats.absorb(&s);
        if let (Some(acc), Some(l)) = (&mut run_obs, &ledger) {
            acc.absorb(l);
        }
        tuples.extend(outs);
    }
    // Tasks partition the space, so the streams are disjoint; the sorted
    // union is exactly the sequential (lexicographic) output sequence.
    tuples.sort_unstable();
    TetrisOutput {
        tuples,
        stats,
        trace: Vec::new(),
        obs: run_obs,
    }
}

/// Run one task: the skeleton descent over its target, against (frozen
/// base ∪ its overlay shard), then report back.
fn run_task<O: BoxOracle + ?Sized>(ctx: &ParCtx<'_, O>, task: Task, worker: &Worker<'_, Task>) {
    let Task {
        target,
        shard,
        cell,
    } = task;
    let mut sk = Skeleton::new(ctx.space, ctx.config, shard);
    sk.log = Some(Vec::new());
    let hand = WorkerHandle {
        worker,
        stop: ctx.stop,
        scratch: ctx.scratch,
        cell: cell.as_deref(),
    };
    let mut outputs = Vec::new();
    // Time the task slice (root task or served donation) around the
    // descent only — donation seeding and joins inside it count toward
    // the slice, the report bookkeeping below does not.
    let slice_start = ctx.config.obs.then(std::time::Instant::now);
    let witness = sk.descend(ctx.oracle, target, Some(ctx.base), Some(&hand), |t| {
        outputs.push(t.to_vec());
        if ctx.stop_on_first {
            ctx.stop.store(true, Ordering::Relaxed);
        }
        false
    });
    if let (Some(t0), Some(l)) = (slice_start, &mut sk.obs) {
        l.record_span(Phase::Task, t0.elapsed().as_secs_f64());
    }
    sk.stats.par_tasks = 1;
    sk.sync_probe_stats();
    let Skeleton {
        kb: shard,
        stats,
        obs,
        log,
        ..
    } = sk;
    if let Some(cell) = &cell {
        let mut inserts = log.unwrap_or_default();
        // Only facts escaping this task's region can matter to the donor.
        inserts.retain(|b| !target.contains(b));
        *cell.outcome.lock().expect("outcome lock poisoned") = Some(Outcome {
            witness,
            inserts,
            shard,
        });
        cell.done.store(true, Ordering::Release);
    } else {
        // The root task has no donor to hand its overlay back to.
        hand.retire(shard);
    }
    ctx.reports
        .lock()
        .expect("report lock poisoned")
        .push((outputs, stats, obs));
}

impl Skeleton {
    /// The periodic check of a running task (every `CHECK_MASK + 1`
    /// skeleton calls): `false` when the task must unwind early;
    /// donates a pending frame when the pool is hungry.
    #[inline]
    pub(crate) fn poll(&mut self, hand: &WorkerHandle<'_, '_>, cur: &DyadicBox) -> bool {
        if self.stats.skeleton_calls & CHECK_MASK != 0 {
            return true;
        }
        if hand.stopping() {
            return false;
        }
        if hand.worker.hungry() {
            self.donate(hand, cur);
        }
        true
    }

    /// Donate the shallowest pending (0-side-in-progress, not yet
    /// donated, non-trivial) frame's 1-side to the pool, seeding its
    /// shard from a recycled scratch store when one is available.
    fn donate(&mut self, hand: &WorkerHandle<'_, '_>, cur: &DyadicBox) {
        let n = self.space.n();
        for f in self.stack.iter_mut() {
            if f.w1.is_some() || f.donated.is_some() {
                continue;
            }
            let dim = f.dim as usize;
            let mut side1 = f.target(cur);
            side1.set(dim, side1.get(dim).child(1));
            if side1.first_thick_dim(&self.space).is_none() {
                continue; // a unit box is not worth a task
            }
            let recycled = hand.scratch[hand.worker.index()]
                .lock()
                .expect("scratch lock poisoned")
                .pop();
            let mut seed = recycled.unwrap_or_else(|| {
                self.stats.par_shard_allocs += 1;
                BoxTree::new(n)
            });
            // `extract_intersecting_into` clears the shard before
            // refilling, so a recycled store starts exact.
            self.kb.extract_intersecting_into(&side1, &mut seed);
            if let Some(l) = &mut self.obs {
                l.observe_donation(seed.len() as u64);
            }
            let cell = Arc::new(DonationCell::new());
            f.donated = Some(cell.clone());
            self.stats.par_donations += 1;
            hand.worker.spawn(Task {
                target: side1,
                shard: seed,
                cell: Some(cell),
            });
            return;
        }
    }

    /// Join a donated frame: run other tasks while the thief finishes,
    /// then merge its insert log. Returns the thief's witness; `None`
    /// means this task itself got cancelled while waiting.
    pub(crate) fn join(
        &mut self,
        hand: &WorkerHandle<'_, '_>,
        cell: &DonationCell,
        target: &DyadicBox,
    ) -> Option<DyadicBox> {
        hand.worker
            .help_while(|| !cell.done.load(Ordering::Acquire) && !hand.stopping());
        if !cell.done.load(Ordering::Acquire) {
            // We stopped waiting because the run is unwinding; release
            // the thief too.
            cell.cancel();
            return None;
        }
        let outcome = cell
            .outcome
            .lock()
            .expect("outcome lock poisoned")
            .take()
            .expect("done implies outcome");
        // A cancelled thief (the whole run is stopping) returns no
        // witness; its shard is still good scratch.
        if outcome.witness.is_some() {
            self.merge_returned(target, outcome.inserts);
        }
        hand.retire(outcome.shard);
        outcome.witness
    }

    /// Merge a finished thief's insert log into this shard — resolvents
    /// and loads that escape the thief's target can answer the donor's
    /// future probes.
    fn merge_returned(&mut self, target: &DyadicBox, inserts: Vec<DyadicBox>) {
        for b in inserts {
            // Merge-on-return copies are real store inserts (they count
            // toward `kb_inserts`) but not re-derivations, so a
            // duplicate here is *not* a re-resolution. A novel copy
            // propagates further up the donation chain if it also
            // escapes *our* target.
            if self.insert(&b) && !target.contains(&b) {
                self.remember(&b);
            }
        }
    }

    /// Tear down early: propagate cancellation to every pending thief.
    /// A cancelled task probes nothing further and its witness is never
    /// read, so the in-flight resolvent is simply dropped.
    pub(crate) fn cancel(&mut self) -> Option<DyadicBox> {
        self.pending = None;
        for f in &self.stack {
            if let Some(cell) = &f.donated {
                cell.cancel();
            }
        }
        None
    }
}
