//! The core engine: `TetrisSkeleton` (Algorithm 1) and the outer `Tetris`
//! loop (Algorithm 2), driven by an **incremental skeleton descent**.
//!
//! The paper's Algorithm 2 restarts `TetrisSkeleton(⟨λ,…,λ⟩)` after every
//! knowledge-base change, re-probing the same loaded boxes from the
//! universe down; the amortized cost disappears into the `Õ(·)` but
//! dominates wall-clock time. The default driver here keeps the descent
//! alive instead: an explicit stack of half-box frames survives output
//! and load events, and only the branch a new knowledge-base box actually
//! covers is collapsed (by choosing, among the loaded boxes, the one
//! covering the shallowest live frame). This is exactly the paper's
//! `TetrisSkeleton2` (Appendix D, footnote 13) made iterative — same
//! outputs in the same order, strictly fewer restarts. The literal
//! restart-driven loop is retained as [`Descent::Restart`] (the
//! lower-bound reproductions need its re-treading behaviour).
//!
//! The descent is written once, as `Skeleton::descend`: one loop over
//! one state struct (frame stack, tracked probe and its saved frontiers,
//! the streamed resolvent, counters, ledger, flight recorder, scratch
//! buffers). A sequential run drives it over the whole space; under
//! [`Descent::Parallel`] every task drives the same loop over its donated
//! subtree. Three inputs, each `None` on a sequential run, are the whole
//! difference: a frozen base store probed before the task's own store, a
//! worker handle (stop and hunger checks, donation), and a donation cell
//! on a frame (join the thief, then unwind with its witness).

use crate::parallel::{DonationCell, WorkerHandle};
use crate::{TetrisStats, TraceEvent};
use boxstore::{BoxOracle, BoxTree, DescentProbe, FrontierStack};
use dyadic::{resolve::ordered_resolve, DyadicBox, DyadicInterval, Space};
use obs::ObsSink;
use std::sync::Arc;

/// How the engine walks the skeleton between knowledge-base changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Descent {
    /// Persistent-stack descent (default): output/load events are
    /// absorbed in place and the walk resumes from the live frontier.
    #[default]
    Incremental,
    /// The paper's literal Algorithm 2: every event tears the descent
    /// down and restarts from `⟨λ,…,λ⟩`. Kept for the Section 5
    /// lower-bound reproductions, whose measured re-treading depends on
    /// restarts actually re-deriving work.
    Restart,
    /// [`Descent::Incremental`] spread over a work-stealing thread pool:
    /// pending right-sibling frames are donated to starving workers, each
    /// stolen subtree runs against the frozen pre-descent knowledge base
    /// plus a per-worker overlay shard, and witnesses/resolvents merge
    /// back at the donation frame exactly as the sequential unwind would
    /// resolve them. The output tuple **set** is bit-identical to every
    /// sequential mode (asserted by the differential walls); cost
    /// counters other than `outputs` may vary with scheduling. `threads
    /// == 0` means one worker per available core.
    Parallel {
        /// Worker-thread count (`0` = all available cores).
        threads: usize,
    },
}

/// Configuration of a [`Tetris`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TetrisConfig {
    /// Preload the knowledge base with the oracle's full box set
    /// (`Tetris-Preloaded`, §4.3). Requires [`BoxOracle::enumerate`].
    pub preload: bool,
    /// Cache resolvents in the knowledge base (Algorithm 1, line 19).
    /// Disabling restricts the engine to **Tree Ordered Geometric
    /// Resolution** (§5.1) — exponentially weaker on some inputs
    /// (Theorem 5.2), but still meets the AGM bound (Theorem 5.1).
    pub cache_resolvents: bool,
    /// Descent strategy between knowledge-base changes. The default,
    /// [`Descent::Incremental`], reports outputs *inside* the skeleton —
    /// the paper's `TetrisSkeleton2` (proof of Theorem D.2, footnote 13).
    pub descent: Descent,
    /// Record [`TraceEvent`]s through a bounded [`obs::FlightRecorder`]
    /// ring. The ring keeps the most recent
    /// [`obs::DEFAULT_TRACE_CAPACITY`] events and accounts for everything
    /// it evicts (`TetrisStats::trace_recorded` / `trace_dropped`), so
    /// tracing is safe at graph scale — no unbounded `Vec` growth. The
    /// worked paper examples fit the ring without wrapping.
    pub trace: bool,
    /// Collect an [`obs::Ledger`] of phase spans and power-of-two
    /// histograms (resolution depth, probe walk length, repair window,
    /// donated-shard size) alongside the counters. Off by default: with
    /// `obs: false` the engine holds no ledger and every observation
    /// site is a single `if let` on a `None` — the hot path is
    /// bit-identical in outputs and counters either way (observation
    /// never perturbs witness order; see DESIGN.md).
    pub obs: bool,
}

impl Default for TetrisConfig {
    fn default() -> Self {
        TetrisConfig {
            preload: false,
            cache_resolvents: true,
            descent: Descent::Incremental,
            trace: false,
            obs: false,
        }
    }
}

/// The result of a Tetris run.
#[derive(Clone, Debug)]
pub struct TetrisOutput {
    /// Output tuples (SAO coordinates), in discovery order (lexicographic
    /// for the plain engine).
    pub tuples: Vec<Vec<u64>>,
    /// Execution counters.
    pub stats: TetrisStats,
    /// Trace events drained from the flight recorder, oldest first
    /// (empty unless tracing was enabled; when the bounded ring wrapped,
    /// this is the **tail** of the run and `stats.trace_dropped` says how
    /// many earlier events were evicted).
    pub trace: Vec<TraceEvent>,
    /// Observability ledger (`None` unless [`TetrisConfig::obs`] was
    /// set). Parallel runs merge every worker's ledger into this one.
    pub obs: Option<Box<obs::Ledger>>,
}

/// One suspended `TetrisSkeleton` invocation: the split target is *not*
/// stored — it is reconstructed from the current position (`cur`) as
/// "components before `dim` as in `cur`, component `dim` truncated to
/// `len`, `λ` after", which every deeper position agrees with. Keeping
/// frames this small is what makes the persistent stack cheap, and it is
/// the shape a work-stealing donation hands to another worker.
pub(crate) struct Frame {
    /// Split dimension (the target's first thick dimension).
    pub(crate) dim: u8,
    /// Length of the target's component at `dim`.
    pub(crate) len: u8,
    /// Witness of the completed 0-side half, if the 1-side is in progress.
    pub(crate) w1: Option<DyadicBox>,
    /// Rendezvous with the thief running this frame's 1-side
    /// ([`Descent::Parallel`] only; always `None` on sequential runs).
    pub(crate) donated: Option<Arc<DonationCell>>,
}

impl Frame {
    /// Whether `w` covers this frame's (reconstructed) target.
    #[inline]
    fn covered_by(&self, w: &DyadicBox, cur: &DyadicBox) -> bool {
        let dim = self.dim as usize;
        for i in 0..cur.n() {
            let wi = w.get(i);
            if i < dim {
                if !wi.is_prefix_of(&cur.get(i)) {
                    return false;
                }
            } else if i == dim {
                if wi.len() > self.len || !wi.is_prefix_of(&cur.get(i)) {
                    return false;
                }
            } else if !wi.is_lambda() {
                return false;
            }
        }
        true
    }

    /// Materialize the frame's target box (frontier restores and
    /// donations only; the probe hot path never needs it).
    pub(crate) fn target(&self, cur: &DyadicBox) -> DyadicBox {
        let dim = self.dim as usize;
        let mut t = *cur;
        t.set(dim, cur.get(dim).truncate(self.len));
        for i in dim + 1..cur.n() {
            t.set(i, DyadicInterval::lambda());
        }
        t
    }
}

/// The dimension-0 navigation word of a box — the attribution ledger's
/// row key. The obs crate is dyadic-free, so observation sites hand in
/// the raw `u64` word.
#[inline]
fn nav0(b: &DyadicBox) -> u64 {
    b.get(0).nav_word()
}

/// The Tetris solver (Algorithms 1 + 2) over any [`BoxOracle`], with its
/// knowledge base in a [`BoxTree`].
///
/// The ambient dimensions are already in **splitting attribute order**:
/// the skeleton always splits the first thick dimension of its target.
pub struct Tetris<'o, O: BoxOracle + ?Sized> {
    pub(crate) oracle: &'o O,
    pub(crate) sk: Skeleton,
}

impl<'o, O: BoxOracle + ?Sized> Tetris<'o, O> {
    /// Build an engine with explicit configuration. With
    /// [`TetrisConfig::preload`] set this includes the preload: every
    /// box the oracle enumerates is inserted into the knowledge base.
    pub fn with_config(oracle: &'o O, config: TetrisConfig) -> Self {
        let space = oracle.space();
        let mut sk = Skeleton::new(space, config, BoxTree::new(space.n()));
        if config.preload {
            let kb = &mut sk.kb;
            let mut novel = 0u64;
            let enumerable = oracle.for_each_box(&mut |b: &DyadicBox| {
                if kb.insert(b) {
                    novel += 1;
                }
            });
            assert!(enumerable, "preloaded mode requires an enumerable oracle");
            sk.stats.kb_inserts += novel;
        }
        Tetris { oracle, sk }
    }

    /// `Tetris-Preloaded` (§4.3): the knowledge base starts as all of `B`.
    pub fn preloaded(oracle: &'o O) -> Self {
        Self::with_config(
            oracle,
            TetrisConfig {
                preload: true,
                ..Default::default()
            },
        )
    }

    /// `Tetris-Reloaded` (§4.4): the knowledge base starts empty and gap
    /// boxes are loaded on demand — the certificate-sensitive mode.
    pub fn reloaded(oracle: &'o O) -> Self {
        Self::with_config(oracle, TetrisConfig::default())
    }

    /// Enable/disable resolvent caching (builder style).
    pub fn cache_resolvents(mut self, yes: bool) -> Self {
        self.sk.config.cache_resolvents = yes;
        self
    }

    /// Choose the descent strategy (builder style).
    pub fn descent(mut self, d: Descent) -> Self {
        self.sk.config.descent = d;
        self
    }

    /// Enable tracing (builder style).
    pub fn traced(mut self) -> Self {
        self.sk.config.trace = true;
        self.sk.trace = recorder_for(&self.sk.config);
        self
    }

    /// The ambient space.
    pub fn space(&self) -> Space {
        self.sk.space
    }

    /// Current knowledge-base size (stored boxes).
    pub fn knowledge_size(&self) -> usize {
        self.sk.kb.len()
    }

    /// The knowledge base's memory ledger ([`BoxTree::mem_stats`]):
    /// arena nodes, exact bytes, deepest link chain. Cheap relative to a
    /// solve but it walks every node — meant for once-per-run reporting
    /// (after the preload, before the solve), not the hot path.
    pub fn mem_stats(&self) -> obs::MemStats {
        self.sk.kb.mem_stats()
    }

    /// Algorithm 2: run to completion, collecting all output tuples.
    pub fn run(mut self) -> TetrisOutput {
        if let Descent::Parallel { threads } = self.sk.config.descent {
            return crate::parallel::run_parallel(self, threads, false);
        }
        let mut tuples = Vec::new();
        self.drive(|t| {
            tuples.push(t.to_vec());
            false
        });
        TetrisOutput {
            tuples,
            stats: self.sk.stats,
            // Untraced runs carry `None` and allocate nothing here —
            // `Vec::default()` has capacity 0 (pinned by test).
            trace: self
                .sk
                .trace
                .map(obs::FlightRecorder::drain)
                .unwrap_or_default(),
            obs: self.sk.obs,
        }
    }

    /// Stream output tuples to a callback instead of materializing them
    /// (outer-loop mode). Returns the final stats. Under
    /// [`Descent::Parallel`] the tuples are materialized, merged into
    /// their deterministic (lexicographic) order, and only then streamed.
    pub fn for_each_output(mut self, mut f: impl FnMut(&[u64])) -> TetrisStats {
        if let Descent::Parallel { threads } = self.sk.config.descent {
            let out = crate::parallel::run_parallel(self, threads, false);
            for t in &out.tuples {
                f(t);
            }
            return out.stats;
        }
        self.drive(|t| {
            f(t);
            false
        });
        self.sk.stats
    }

    /// Boolean BCP (Definition 3.5): does `B` cover the whole space?
    /// Stops at the first uncovered output point (under
    /// [`Descent::Parallel`], at the first output any worker finds — the
    /// Boolean answer is deterministic either way).
    pub fn check_cover(mut self) -> (bool, TetrisStats) {
        if let Descent::Parallel { threads } = self.sk.config.descent {
            let out = crate::parallel::run_parallel(self, threads, true);
            return (out.tuples.is_empty(), out.stats);
        }
        let mut found = false;
        self.drive(|_| {
            found = true;
            true
        });
        (!found, self.sk.stats)
    }

    /// The sequential driver: one skeleton descent over the whole space
    /// (Algorithms 1+2 fused). `on_output` receives each tuple and
    /// returns `true` to stop (Boolean mode).
    fn drive(&mut self, on_output: impl FnMut(&[u64]) -> bool) {
        let sk = &mut self.sk;
        sk.stats.restarts += 1;
        sk.emit(|| TraceEvent::Restart);
        let universe = DyadicBox::universe(sk.space.n());
        sk.descend(self.oracle, universe, None, None, on_output);
        sk.sync_probe_stats();
    }
}

/// Build an engine for `oracle`: [`Tetris::with_config`], including the
/// preload when [`TetrisConfig::preload`] is set. It stays as a function
/// of its own because the benchmark (`perfbench`) calls it by name to
/// time the preload apart from the solve.
pub fn prepare_with_config<O: BoxOracle + ?Sized>(
    oracle: &O,
    config: TetrisConfig,
) -> Tetris<'_, O> {
    Tetris::with_config(oracle, config)
}

/// Build the bounded trace channel a config asks for (`None` when
/// untraced — those runs allocate nothing for tracing).
fn recorder_for(config: &TetrisConfig) -> Option<obs::FlightRecorder<TraceEvent>> {
    config
        .trace
        .then(|| obs::FlightRecorder::new(obs::DEFAULT_TRACE_CAPACITY))
}

/// One skeleton descent's state: all a sequential engine mutates, and
/// all one parallel task mutates.
pub(crate) struct Skeleton {
    pub(crate) space: Space,
    pub(crate) config: TetrisConfig,
    /// The store the descent writes: the whole knowledge base on a
    /// sequential run, the task's overlay shard under
    /// [`Descent::Parallel`].
    pub(crate) kb: BoxTree,
    pub(crate) stats: TetrisStats,
    /// Observability ledger ([`TetrisConfig::obs`] only); the
    /// `Option<Box<_>>` [`obs::ObsSink`] impl makes each observation
    /// site a single branch when off.
    pub(crate) obs: Option<Box<obs::Ledger>>,
    /// Bounded trace channel ([`TetrisConfig::trace`] only): a
    /// fixed-capacity ring, so traced runs stay usable at graph scale.
    /// `None` on untraced runs — they allocate nothing for tracing.
    trace: Option<obs::FlightRecorder<TraceEvent>>,
    /// Suspended skeleton invocations, outermost first.
    pub(crate) stack: Vec<Frame>,
    /// Incremental probe state of the store whose frontiers frames save
    /// — the frozen base when there is one, `kb` otherwise: descends
    /// advance the last failed probe's frontier instead of re-walking.
    probe: DescentProbe,
    /// Incremental probe state of `kb` behind a frozen base (idle
    /// otherwise).
    kb_probe: DescentProbe,
    /// Per-frame saved frontiers of `probe` (incremental descents only):
    /// right-sibling descents restore these and advance+repair instead of
    /// re-walking the store.
    frontiers: FrontierStack,
    /// Witness streaming: the latest resolvent rides here instead of
    /// being inserted immediately. If the next resolution subsumes it
    /// (the common unwind shape: each resolvent contains the one it
    /// consumed), it is dropped without ever touching the store; it is
    /// flushed the moment the unwind ends, so no probe ever runs against
    /// a store missing it. Dropping a subsumed box is witness-exact: any
    /// probe it would answer is answered by the strictly DFS-earlier
    /// subsuming box (see DESIGN.md). A dropped resolvent never reaches
    /// `log` either; that is sound because any subset of the log may be
    /// merged, and exact because its subsuming box escapes every target
    /// the dropped box escapes.
    pub(crate) pending: Option<DyadicBox>,
    /// Novel loads and resolvents, kept for merge-on-return (parallel
    /// tasks only, capped at [`crate::DEFAULT_MERGE_CAP`]).
    pub(crate) log: Option<Vec<DyadicBox>>,
    /// Scratch buffer for oracle answers (reused across probes).
    hits: Vec<DyadicBox>,
    /// Scratch buffer for output tuples (reused across outputs).
    point: Vec<u64>,
}

impl Skeleton {
    /// A fresh descent state writing to `kb`.
    pub(crate) fn new(space: Space, config: TetrisConfig, kb: BoxTree) -> Self {
        Skeleton {
            space,
            config,
            kb,
            stats: TetrisStats::new(space.n()),
            obs: config.obs.then(Box::default),
            trace: recorder_for(&config),
            stack: Vec::new(),
            probe: DescentProbe::new(),
            kb_probe: DescentProbe::new(),
            frontiers: FrontierStack::new(),
            pending: None,
            log: None,
            hits: Vec::new(),
            point: Vec::new(),
        }
    }

    /// Trace only when enabled — the event is never even constructed on
    /// untraced runs (hot-path allocation/copy discipline).
    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(r) = &mut self.trace {
            r.record(f());
        }
    }

    /// Copy incremental-probe and flight-recorder diagnostics into the
    /// run counters.
    pub(crate) fn sync_probe_stats(&mut self) {
        let (p, q) = (&self.probe, &self.kb_probe);
        self.stats.probe_advances = p.advances + q.advances;
        self.stats.probe_repairs = p.repairs + q.repairs;
        self.stats.probe_repair_fasts = p.repair_fasts + q.repair_fasts;
        self.stats.probe_full_walks = p.full_walks + q.full_walks;
        if let Some(r) = &self.trace {
            self.stats.trace_recorded = r.recorded();
            self.stats.trace_dropped = r.dropped();
        }
    }

    /// The skeleton descent over `target` — the one loop every driver
    /// runs. It drills into uncovered halves, absorbs uncovered unit
    /// boxes (outputs go to `on_output`, which returns `true` to stop),
    /// and unwinds witnesses through the suspended frames, resolving and
    /// streaming resolvents. Returns a knowledge-base box covering
    /// `target`, or `None` when `on_output` stopped the run or the task
    /// was cancelled.
    ///
    /// `base` is a frozen store probed before `kb`, and `task` is the
    /// parallel worker's handle; both are `None` on a sequential run.
    pub(crate) fn descend<O: BoxOracle + ?Sized>(
        &mut self,
        oracle: &O,
        target: DyadicBox,
        base: Option<&BoxTree>,
        task: Option<&WorkerHandle<'_, '_>>,
        mut on_output: impl FnMut(&[u64]) -> bool,
    ) -> Option<DyadicBox> {
        // Frame-saved frontiers only pay off when frames persist across
        // events; the restart mode tears the stack down anyway.
        let restarting = self.config.descent == Descent::Restart;
        let mut cur = target;
        'descend: loop {
            // ── descend: drill into `cur` until a covering witness is
            // known or an uncovered unit box is absorbed.
            let mut witness = loop {
                self.stats.skeleton_calls += 1;
                if let Some(hand) = task {
                    if !self.poll(hand, &cur) {
                        return self.cancel();
                    }
                }
                let thick = cur.first_thick_dim(&self.space);
                let probe_dim = thick.unwrap_or(self.space.n() - 1);
                self.stats.kb_queries += 1;
                if let Some(a) = self.find(base, &cur, probe_dim) {
                    self.emit(|| TraceEvent::CoveredBy {
                        target: cur,
                        witness: a,
                    });
                    break a;
                }
                if let Some(dim) = thick {
                    self.stats.splits += 1;
                    self.emit(|| TraceEvent::Split { target: cur, dim });
                    let iv = cur.get(dim);
                    self.stack.push(Frame {
                        dim: dim as u8,
                        len: iv.len(),
                        w1: None,
                        donated: None,
                    });
                    if !restarting {
                        // The probe for `cur` just failed, so its frontier
                        // describes this frame's target; the 1-side
                        // descent will restore it instead of re-walking.
                        self.frontiers.push_saved(&self.probe);
                    }
                    cur.set(dim, iv.child(0));
                    continue;
                }
                // Uncovered unit box: absorb it (load its gap boxes or
                // report it as output), then either resume in place or
                // tear down and restart per the descent strategy.
                match self.absorb(oracle, &cur, restarting, &mut on_output) {
                    Absorb::Stop => return None,
                    Absorb::Witness(w) => break w,
                    Absorb::Restart => {
                        self.stack.clear();
                        self.frontiers.clear();
                        cur = target;
                        self.stats.restarts += 1;
                        self.emit(|| TraceEvent::Restart);
                        continue 'descend;
                    }
                }
            };
            // ── unwind: feed the witness to the suspended frames.
            loop {
                let Some(top) = self.stack.last_mut() else {
                    debug_assert!(witness.contains(&target));
                    self.flush();
                    return Some(witness);
                };
                if top.covered_by(&witness, &cur) {
                    // The whole frame target is covered; a stolen 1-side
                    // is dead work (its region holds no outputs).
                    if let Some(cell) = top.donated.take() {
                        cell.cancel();
                    }
                    self.stack.pop();
                    if !restarting {
                        self.frontiers.pop();
                    }
                    continue;
                }
                let (dim, len) = (top.dim as usize, top.len);
                let Some(w1) = top.w1 else {
                    // 0-side done.
                    top.w1 = Some(witness);
                    if let Some(cell) = top.donated.take() {
                        // The 1-side was stolen: join the thief and unwind
                        // with its witness, exactly as if this loop had
                        // descended the 1-side itself.
                        let hand = task.expect("only parallel tasks donate frames");
                        match self.join(hand, &cell, &target) {
                            Some(w) => witness = w,
                            None => return self.cancel(),
                        }
                        continue;
                    }
                    // Descend into the 1-side.
                    let parent = top.target(&cur);
                    cur = parent;
                    cur.set(dim, parent.get(dim).child(1));
                    // Hand the frame's saved frontier to the probe so the
                    // 1-side's first query advances+repairs it. Skipped
                    // when the child exhausts the dimension: the next
                    // probe targets a different dimension and could not
                    // use the frontier anyway.
                    if !restarting && u16::from(len) + 1 < u16::from(self.space.width(dim)) {
                        self.frontiers.restore_top(&parent, &mut self.probe);
                    }
                    // Leaving the unwind: materialize the in-flight
                    // resolvent before the 1-side descent probes.
                    self.flush();
                    continue 'descend;
                };
                let w = ordered_resolve(&w1, &witness, dim)
                    .expect("Lemma C.1 invariant violated: witnesses must be ordered-resolvable");
                self.stats.count_resolution(dim);
                if let Some(l) = &mut self.obs {
                    l.observe_depth(self.stack.len() as u64);
                    l.observe_resolution_at(nav0(&w));
                }
                self.emit(|| TraceEvent::Resolve {
                    w1,
                    w2: witness,
                    result: w,
                    dim,
                });
                if self.config.cache_resolvents {
                    // Route the resolvent through the streaming slot: the
                    // previous one is dropped if subsumed, stored otherwise.
                    match self.pending.replace(w) {
                        Some(p) if w.contains(&p) => self.stats.kb_insert_skips += 1,
                        Some(p) => self.store_resolvent(&p),
                        None => {}
                    }
                }
                // The resolvent covers the target by construction; the
                // next loop turn pops the frame.
                witness = w;
            }
        }
    }

    /// The knowledge-base query of one skeleton call: the frozen base
    /// first (when there is one), then `kb`. Observes the repair window
    /// of each tracked call and one walk length per query.
    #[inline]
    fn find(&mut self, base: Option<&BoxTree>, cur: &DyadicBox, dim: usize) -> Option<DyadicBox> {
        let front = base.unwrap_or(&self.kb);
        let mut hit = tracked(front, cur, dim, &mut self.probe, &mut self.obs);
        let mut walked = self.probe.frontier_len();
        if hit.is_none() && base.is_some() {
            hit = tracked(&self.kb, cur, dim, &mut self.kb_probe, &mut self.obs);
            walked += self.kb_probe.frontier_len();
        }
        if let Some(l) = &mut self.obs {
            l.observe_walk(walked as u64);
        }
        debug_assert_eq!(
            hit,
            base.and_then(|b| b.find_containing(cur))
                .or_else(|| self.kb.find_containing(cur))
        );
        hit
    }

    /// Handle an uncovered unit box: report it as output or load its
    /// covering gap boxes. Outputs are decided by the oracle alone, which
    /// is what makes the parallel output set scheduling-independent.
    fn absorb<O: BoxOracle + ?Sized>(
        &mut self,
        oracle: &O,
        cur: &DyadicBox,
        restarting: bool,
        on_output: &mut impl FnMut(&[u64]) -> bool,
    ) -> Absorb {
        if restarting {
            self.emit(|| TraceEvent::Uncovered(*cur));
        }
        self.stats.oracle_probes += 1;
        let mut hits = std::mem::take(&mut self.hits);
        oracle.boxes_containing_into(cur, &mut hits);
        let out = if hits.is_empty() {
            self.stats.outputs += 1;
            self.emit(|| TraceEvent::Output(*cur));
            let mut point = std::mem::take(&mut self.point);
            cur.write_point(&self.space, &mut point);
            let stop = on_output(&point);
            self.point = point;
            self.insert(cur);
            if stop {
                Absorb::Stop
            } else if restarting {
                Absorb::Restart
            } else {
                Absorb::Witness(*cur)
            }
        } else {
            let count = hits.len();
            self.emit(|| TraceEvent::Load { probe: *cur, count });
            for h in &hits {
                debug_assert!(h.contains(cur), "oracle returned a non-covering box");
                if self.insert(h) {
                    self.stats.loaded_boxes += 1;
                    self.remember(h);
                }
            }
            if restarting {
                Absorb::Restart
            } else {
                Absorb::Witness(best_witness(&hits, cur, &self.space, &self.stack))
            }
        };
        self.hits = hits;
        out
    }

    /// Insert `b` into `kb`, counting and attributing it when novel.
    /// Returns whether it was.
    #[inline]
    pub(crate) fn insert(&mut self, b: &DyadicBox) -> bool {
        let novel = self.kb.insert(b);
        if novel {
            self.stats.kb_inserts += 1;
            if let Some(l) = &mut self.obs {
                l.observe_insert_at(nav0(b));
            }
        }
        novel
    }

    /// Store a resolvent. A duplicate re-derived a box `kb` already holds
    /// verbatim — the T1.1 re-resolution signal. (A parallel task's
    /// frozen base is not consulted, so a cross-task duplicate does not
    /// count; sequential runs carry the exact figure.)
    fn store_resolvent(&mut self, p: &DyadicBox) {
        if self.insert(p) {
            self.remember(p);
        } else if let Some(l) = &mut self.obs {
            l.observe_re_resolution_at(nav0(p));
        }
    }

    /// Materialize the in-flight resolvent (no-op when none is pending).
    fn flush(&mut self) {
        if let Some(p) = self.pending.take() {
            self.store_resolvent(&p);
        }
    }

    /// Log a novel insert for merge-on-return (parallel tasks only).
    #[inline]
    pub(crate) fn remember(&mut self, b: &DyadicBox) {
        if let Some(log) = &mut self.log {
            if log.len() < crate::DEFAULT_MERGE_CAP {
                log.push(*b);
            }
        }
    }
}

/// One tracked containment query against `store`, observing its repair
/// window (a call repairs at most once, so the repair histogram's total
/// equals `probe_repairs` exactly).
#[inline]
fn tracked(
    store: &BoxTree,
    cur: &DyadicBox,
    dim: usize,
    probe: &mut DescentProbe,
    obs: &mut Option<Box<obs::Ledger>>,
) -> Option<DyadicBox> {
    let repairs = probe.repairs;
    let hit = store.find_containing_tracked(cur, dim, probe);
    if let Some(l) = obs {
        if probe.repairs > repairs {
            l.observe_repair(probe.last_repair_window);
            if probe.last_repair_hit {
                l.observe_repair_hit_at(nav0(cur));
            }
        }
    }
    hit
}

/// Choose, among the freshly loaded boxes `hits`, the one invalidating
/// the largest suffix of the live descent `stack` (outermost frame
/// first): the box covering the *shallowest* suspended frame, ties broken
/// by geometric volume. Unwinding with it collapses exactly the branch
/// the new knowledge covers and no more.
fn best_witness(hits: &[DyadicBox], cur: &DyadicBox, space: &Space, stack: &[Frame]) -> DyadicBox {
    debug_assert!(!hits.is_empty());
    let mut best = hits[0];
    let mut best_depth = usize::MAX;
    for h in hits {
        // Frames are nested, so coverage is monotone down the stack:
        // binary-search the shallowest covered frame.
        let depth = stack.partition_point(|f| !f.covered_by(h, cur));
        if depth < best_depth || (depth == best_depth && h.volume(space) > best.volume(space)) {
            best = *h;
            best_depth = depth;
        }
    }
    best
}

/// Outcome of absorbing an uncovered unit box.
// `Witness` carries the inline `DyadicBox`; the value lives for one match
// arm on the hot path, so boxing it would be a pessimization.
#[allow(clippy::large_enum_variant)]
enum Absorb {
    /// Boolean mode asked to stop.
    Stop,
    /// Resume the descent in place with this covering witness.
    Witness(DyadicBox),
    /// Tear down the stack and restart from the universe.
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxstore::{coverage, SetOracle};
    use dyadic::DyadicInterval;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    fn example_4_4_oracle() -> SetOracle {
        SetOracle::new(
            Space::uniform(2, 2),
            ["λ,0", "00,λ", "λ,11", "10,1"].iter().map(|s| b(s)),
        )
    }

    fn random_instance(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        d: u8,
        count: usize,
    ) -> Vec<DyadicBox> {
        use rand::Rng;
        (0..count)
            .map(|_| {
                let mut bx = DyadicBox::universe(n);
                for i in 0..n {
                    let len = rng.gen_range(0..=d);
                    let bits = rng.gen_range(0..(1u64 << len));
                    bx.set(i, DyadicInterval::from_bits(bits, len));
                }
                bx
            })
            .collect()
    }

    #[test]
    fn best_witness_breaks_depth_ties_by_volume() {
        // Position ⟨00,00⟩ of a 2×2-bit space under the frames of targets
        // ⟨λ,λ⟩, ⟨0,λ⟩, ⟨00,λ⟩, ⟨00,0⟩. ⟨00,0⟩, ⟨0,0⟩ and ⟨λ,0⟩ all cover
        // the last frame and no shallower one; ⟨λ,0⟩ is the largest.
        let space = Space::uniform(2, 2);
        let frame = |dim, len| Frame {
            dim,
            len,
            w1: None,
            donated: None,
        };
        let stack = [frame(0, 0), frame(0, 1), frame(1, 0), frame(1, 1)];
        let hits = [b("00,00"), b("00,0"), b("λ,0"), b("0,0")];
        let best = best_witness(&hits, &b("00,00"), &space, &stack);
        assert_eq!(best, b("λ,0"));
    }

    #[test]
    fn example_4_4_output() {
        // The paper's worked example: outputs ⟨01,10⟩ = (1,2) and
        // ⟨11,10⟩ = (3,2).
        let oracle = example_4_4_oracle();
        for engine in [Tetris::reloaded(&oracle), Tetris::preloaded(&oracle)] {
            let out = engine.run();
            assert_eq!(out.tuples, vec![vec![1, 2], vec![3, 2]]);
        }
    }

    #[test]
    fn example_4_4_trace_matches_paper() {
        // Follow the narrative of Example 4.4 with A initialized to the
        // first three boxes (the paper's chosen initialization): the first
        // resolutions it describes are ⟨01,10⟩⊕⟨λ,11⟩ → ⟨01,1⟩ and then
        // ⟨λ,0⟩⊕⟨01,1⟩ → ⟨01,λ⟩ and ⟨00,λ⟩⊕⟨01,λ⟩ → ⟨0,λ⟩.
        let space = Space::uniform(2, 2);
        let all = ["λ,0", "00,λ", "λ,11", "10,1"].map(b);
        let oracle = SetOracle::new(space, all);
        // Reloaded with tracing; the paper's partial initialization is
        // emulated by the engine loading boxes on demand — the resolution
        // sequence below must still appear, in order.
        let out = Tetris::reloaded(&oracle).traced().run();
        let resolutions: Vec<(DyadicBox, DyadicBox, DyadicBox)> = out
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Resolve { w1, w2, result, .. } => Some((*w1, *w2, *result)),
                _ => None,
            })
            .collect();
        // The key inferences of the example must all occur.
        let expect = [
            (b("01,10"), b("λ,11"), b("01,1")),
            (b("λ,0"), b("01,1"), b("01,λ")),
            (b("00,λ"), b("01,λ"), b("0,λ")),
            (b("11,10"), b("λ,11"), b("11,1")),
            (b("λ,0"), b("11,1"), b("11,λ")),
            (b("10,λ"), b("11,λ"), b("1,λ")),
            (b("0,λ"), b("1,λ"), b("λ,λ")),
        ];
        for (w1, w2, r) in expect {
            assert!(
                resolutions
                    .iter()
                    .any(|(a, c, res)| *a == w1 && *c == w2 && *res == r),
                "missing resolution {w1} ⊕ {w2} → {r}; got {resolutions:?}"
            );
        }
        // The final inference is the universal box.
        assert_eq!(resolutions.last().unwrap().2, b("λ,λ"));
    }

    #[test]
    fn outputs_match_brute_force_on_randomized_bcp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..25);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes.clone());
            for preload in [false, true] {
                let engine = Tetris::with_config(
                    &oracle,
                    TetrisConfig {
                        preload,
                        ..Default::default()
                    },
                );
                let out = engine.run();
                assert_eq!(out.tuples, expect, "trial {trial} preload={preload}");
                assert_eq!(out.stats.outputs as usize, expect.len());
            }
        }
    }

    #[test]
    fn all_descent_modes_agree_with_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..25 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            for descent in [Descent::Incremental, Descent::Restart] {
                for preload in [false, true] {
                    let out = Tetris::with_config(
                        &oracle,
                        TetrisConfig {
                            preload,
                            descent,
                            ..Default::default()
                        },
                    )
                    .run();
                    assert_eq!(
                        out.tuples, expect,
                        "trial {trial} descent={descent:?} preload={preload}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_never_restarts_and_restart_mode_does() {
        let oracle = example_4_4_oracle();
        let inc = Tetris::reloaded(&oracle).run();
        assert_eq!(inc.stats.restarts, 1, "incremental = one logical pass");
        let re = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
        assert_eq!(re.tuples, inc.tuples);
        // Algorithm 2 restarts once per output and once per load event.
        assert!(re.stats.restarts > 1);
        assert!(inc.stats.skeleton_calls < re.stats.skeleton_calls);
    }

    #[test]
    fn untraced_runs_record_no_events_and_allocate_no_trace() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.trace.is_empty());
        // The emit path never constructs events when untraced, and the
        // trace vector never allocates.
        assert_eq!(out.trace.capacity(), 0);
        let traced = Tetris::reloaded(&oracle).traced().run();
        assert!(!traced.trace.is_empty());
        // Untraced runs never touch the recorder counters.
        let plain = Tetris::reloaded(&oracle).run();
        assert_eq!(plain.stats.trace_recorded, 0);
        assert_eq!(plain.stats.trace_dropped, 0);
    }

    #[test]
    fn default_trace_ring_keeps_the_tail_and_counts_drops() {
        // An empty box set outputs all 2^16 points of a 2×8-bit space,
        // so the trace (splits, outputs and resolutions) wraps the ring:
        // it keeps exactly the most recent events and accounts for every
        // eviction.
        let space = Space::uniform(2, 8);
        let oracle = SetOracle::new(space, Vec::<DyadicBox>::new());
        let out = Tetris::reloaded(&oracle).traced().run();
        assert_eq!(out.stats.outputs, 1 << 16);
        assert_eq!(out.trace.len(), obs::DEFAULT_TRACE_CAPACITY);
        assert!(out.stats.trace_dropped > 0);
        assert_eq!(
            out.stats.trace_recorded - out.stats.trace_dropped,
            out.trace.len() as u64
        );
        // The survivors are the *tail* of the run: its final event is the
        // resolution that covers the universe.
        let universe = DyadicBox::universe(2);
        assert!(matches!(
            out.trace.last(),
            Some(TraceEvent::Resolve { result, .. }) if *result == universe
        ));
    }

    #[test]
    fn no_caching_still_correct() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..15 {
            let space = Space::uniform(2, 2);
            let count = rng.gen_range(0..10);
            let boxes = random_instance(&mut rng, 2, 2, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            let out = Tetris::preloaded(&oracle).cache_resolvents(false).run();
            assert_eq!(out.tuples, expect);
        }
    }

    #[test]
    fn inline_mode_matches_outer_loop() {
        // The incremental driver reports outputs inside the skeleton
        // (`TetrisSkeleton2`); the restart driver is Algorithm 2's outer
        // loop. Both must list the same tuples.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        for _ in 0..25 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, n, d, count);
            let oracle = SetOracle::new(space, boxes);
            let outer = Tetris::reloaded(&oracle).descent(Descent::Restart).run();
            let inline = Tetris::reloaded(&oracle).run();
            assert_eq!(outer.tuples, inline.tuples);
            // Inline mode never restarts.
            assert_eq!(inline.stats.restarts, 1);
            // Also with caching disabled (Tree Ordered + Skeleton2).
            let tree = Tetris::reloaded(&oracle).cache_resolvents(false).run();
            assert_eq!(tree.stats.restarts, 1);
            assert_eq!(outer.tuples, tree.tuples);
        }
    }

    #[test]
    fn check_cover_boolean_semantics() {
        // Figure 5: six MSB gap boxes cover the whole cube.
        let space = Space::uniform(3, 3);
        let cover = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,0", "1,λ,1"];
        let oracle = SetOracle::new(space, cover.iter().map(|s| b(s)));
        let (covered, stats) = Tetris::reloaded(&oracle).check_cover();
        assert!(covered);
        assert!(stats.resolutions > 0);

        // Figure 6: swap T for T' (MSBs equal) and two output points
        // appear — the space is no longer covered.
        let open = ["0,0,λ", "1,1,λ", "λ,0,0", "λ,1,1", "0,λ,1", "1,λ,0"];
        let oracle = SetOracle::new(space, open.iter().map(|s| b(s)));
        let (covered, _) = Tetris::reloaded(&oracle).check_cover();
        assert!(!covered);
    }

    #[test]
    fn empty_box_set_outputs_whole_space() {
        let space = Space::uniform(2, 1);
        let oracle = SetOracle::new(space, Vec::<DyadicBox>::new());
        let out = Tetris::reloaded(&oracle).run();
        assert_eq!(out.tuples.len(), 4);
        assert_eq!(out.stats.outputs, 4);
    }

    #[test]
    fn universal_box_yields_no_output_and_no_resolutions() {
        let space = Space::uniform(3, 4);
        let oracle = SetOracle::new(space, vec![DyadicBox::universe(3)]);
        let out = Tetris::preloaded(&oracle).run();
        assert!(out.tuples.is_empty());
        assert_eq!(out.stats.resolutions, 0);
    }

    #[test]
    fn reloaded_loads_at_most_the_oracle_size() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert!(out.stats.loaded_boxes <= 4);
        // It must load at least one box per covered probe region.
        assert!(out.stats.loaded_boxes >= 1);
    }

    #[test]
    fn parallel_descent_matches_brute_force_and_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let n = rng.gen_range(1..=3);
            let d = rng.gen_range(1..=3u8);
            let space = Space::uniform(n, d);
            let count = rng.gen_range(0..25);
            let boxes = random_instance(&mut rng, n, d, count);
            let expect = coverage::uncovered_points(&boxes, &space);
            let oracle = SetOracle::new(space, boxes);
            for preload in [false, true] {
                for threads in [1usize, 2, 4] {
                    let out = Tetris::with_config(
                        &oracle,
                        TetrisConfig {
                            preload,
                            descent: Descent::Parallel { threads },
                            ..Default::default()
                        },
                    )
                    .run();
                    assert_eq!(
                        out.tuples, expect,
                        "trial {trial} preload={preload} threads={threads}"
                    );
                    assert_eq!(out.stats.outputs as usize, expect.len());
                    assert!(out.stats.par_tasks >= 1);
                }
            }
        }
    }

    #[test]
    fn parallel_check_cover_agrees_with_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        for trial in 0..20 {
            let space = Space::uniform(2, 3);
            let count = rng.gen_range(0..20);
            let boxes = random_instance(&mut rng, 2, 3, count);
            let oracle = SetOracle::new(space, boxes);
            let (seq, _) = Tetris::reloaded(&oracle).check_cover();
            let (par, _) = Tetris::reloaded(&oracle)
                .descent(Descent::Parallel { threads: 4 })
                .check_cover();
            assert_eq!(seq, par, "trial {trial}");
        }
    }

    #[test]
    fn frame_saved_frontiers_repair_probes() {
        // The incremental driver's right-sibling descents must be served
        // by saved-frontier advances/repairs, and the probe ledger must
        // account for every knowledge-base query.
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        assert_eq!(
            out.stats.probe_advances + out.stats.probe_repairs + out.stats.probe_full_walks,
            out.stats.kb_queries
        );
        assert!(
            out.stats.probe_repairs > 0,
            "resolvent inserts between sibling descents should exercise \
             the repair path: {:?}",
            out.stats
        );
    }

    #[test]
    fn stats_resolution_dims_sum_to_total() {
        let oracle = example_4_4_oracle();
        let out = Tetris::reloaded(&oracle).run();
        let sum: u64 = out.stats.resolutions_by_dim.iter().sum();
        assert_eq!(sum, out.stats.resolutions);
    }
}
