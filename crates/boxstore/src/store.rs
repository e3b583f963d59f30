//! The probe machinery around the knowledge base: the saved-frontier
//! state of the incremental descent ([`DescentProbe`], [`FrontierStack`]),
//! the rolling insert log that makes lagging frontiers repairable
//! ([`InsertLog`]), and the insert cursor that lets consecutive inserts
//! resume from where their paths diverge. [`crate::BoxTree`] owns the
//! node walks; everything here is layout-independent bookkeeping.

use crate::tree::TreeEntry;
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};

/// Length of every store's rolling insert ring (the window of recent
/// inserts a saved probe frontier can be repaired against).
pub const DEFAULT_INSERT_RING: usize = 256;

/// Maximum number of logged inserts a saved frontier may lag behind the
/// store and still be repaired in place; older frontiers fall back to a
/// full walk.
pub const REPAIR_CAP: u64 = 64;

// The repair window must never be overwritten before it can be read.
const _: () = assert!(DEFAULT_INSERT_RING as u64 >= REPAIR_CAP);

/// Reusable state for [`crate::BoxTree::find_containing_tracked`]: the
/// frontier of the last failed probe, valid for the immediate child of
/// the recorded target. The frontier is *complete* with respect to every
/// insert before `mark`; up to [`REPAIR_CAP`] later inserts can be
/// repaired in from the store's rolling log, anything older falls back
/// to a full walk.
///
/// Callers treat the struct as opaque apart from the diagnostic counters
/// and [`DescentProbe::frontier_len`].
#[derive(Debug, Default)]
pub struct DescentProbe {
    /// Recorded frontier positions, in DFS order.
    pub(crate) entries: Vec<TreeEntry>,
    /// The last failed probe's target (`None` = no valid frontier).
    pub(crate) last: Option<DyadicBox>,
    /// The probed dimension the frontier was recorded for.
    pub(crate) dim: u8,
    /// The recorded target's component length at `dim`.
    pub(crate) len: u8,
    /// Store insert count up to which `entries` is complete.
    pub(crate) mark: u64,
    /// Store clear count at recording time (node ids die with a clear).
    pub(crate) clears: u32,
    /// Probes answered by advancing the recorded frontier (diagnostic).
    pub advances: u64,
    /// Probes answered by advance + insert-log repair (diagnostic).
    pub repairs: u64,
    /// Repairs where the log's fingerprint summary proved no lagging
    /// insert could contain the probe, so the window scan was skipped
    /// entirely (subset of `repairs`; diagnostic).
    pub repair_fasts: u64,
    /// Probes that fell back to a full walk (diagnostic).
    pub full_walks: u64,
    /// Insert-log lag of the most recent repair — the repair-window
    /// size. Written at every `repairs` increment, so an observer that
    /// sees `repairs` grow across a tracked call reads the window the
    /// repair scanned here (diagnostic; the store only writes it).
    pub last_repair_window: u64,
    /// Whether the most recent repair's window scan surfaced a lagging
    /// insert containing the probe. Written at every `repairs`
    /// increment, so an observer that sees `repairs` grow across a
    /// tracked call reads here whether that repair actually changed the
    /// answer (diagnostic; the store only writes it).
    pub last_repair_hit: bool,
}

impl DescentProbe {
    /// Fresh (invalid) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the recorded frontier (keeps allocated capacity).
    pub(crate) fn invalidate(&mut self) {
        self.last = None;
        self.entries.clear();
    }

    /// Number of tree positions in the recorded frontier — the work the
    /// next advance will do (diagnostic).
    pub fn frontier_len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-frame saved probe frontiers, mirroring the engine's descent stack.
///
/// When the skeleton splits a target it has just probed (and missed), the
/// failed probe's frontier describes exactly the tree positions from
/// which *both* children's probes can be answered. The engine pushes a
/// copy here alongside the new frame; when it later descends the frame's
/// right sibling (the 1-side half), [`FrontierStack::restore_top`] turns
/// the saved frontier back into live [`DescentProbe`] state, and the next
/// tracked query advances (and, if resolvent inserts happened in between,
/// repairs) instead of re-walking the store from the root. Entries live
/// in one arena that grows and truncates with the stack, so saving a
/// frontier never allocates after warm-up.
#[derive(Debug, Default)]
pub struct FrontierStack {
    arena: Vec<TreeEntry>,
    frames: Vec<SavedMeta>,
}

#[derive(Clone, Copy, Debug)]
struct SavedMeta {
    start: usize,
    dim: u8,
    len: u8,
    mark: u64,
    clears: u32,
}

impl FrontierStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of saved frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Save the frontier of the probe that just failed (the engine calls
    /// this exactly when it pushes the corresponding descent frame).
    pub fn push_saved(&mut self, probe: &DescentProbe) {
        debug_assert!(probe.last.is_some(), "only failed probes have frontiers");
        self.frames.push(SavedMeta {
            start: self.arena.len(),
            dim: probe.dim,
            len: probe.len,
            mark: probe.mark,
            clears: probe.clears,
        });
        self.arena.extend_from_slice(&probe.entries);
    }

    /// Discard the top frame's saved frontier (mirrors a frame pop).
    pub fn pop(&mut self) {
        if let Some(m) = self.frames.pop() {
            self.arena.truncate(m.start);
        }
    }

    /// Drop everything (mirrors a descent teardown).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.arena.clear();
    }

    /// Restore the top frame's saved frontier into `probe` as the failed
    /// probe of `parent` (the frame's reconstructed target), so the next
    /// tracked query for the parent's 1-side child advances it. Returns
    /// `false` when there is nothing to restore.
    pub fn restore_top(&self, parent: &DyadicBox, probe: &mut DescentProbe) -> bool {
        let Some(m) = self.frames.last() else {
            return false;
        };
        debug_assert_eq!(m.len, parent.get(m.dim as usize).len());
        probe.entries.clear();
        probe.entries.extend_from_slice(&self.arena[m.start..]);
        probe.dim = m.dim;
        probe.len = m.len;
        probe.mark = m.mark;
        probe.clears = m.clears;
        probe.last = Some(*parent);
        true
    }
}

/// The store's rolling log of recent inserts: the window a
/// lagging saved frontier is repaired against, plus the monotone insert
/// and clear counters probe state is keyed on.
///
/// # The fingerprint summary
///
/// Alongside the ring, the log maintains a 64-bit Bloom-style summary of
/// the recent inserts so the common *no-conflict* repair (no lagging
/// insert can possibly contain the probe) is answered by one AND and one
/// compare instead of a `contains` scan over up to [`REPAIR_CAP`] boxes.
///
/// Each dimension `i < n` owns a `⌊64/n⌋`-bit group (21 bits for the
/// triangle join's three dimensions, degrading to 4 at `MAX_DIMS`). An
/// inserted box `c` sets exactly one bit per dimension, coding its
/// component as λ (bit 0) or the pair *(capped length bucket, first
/// bit)* — code `1 + 2·min(|c_i|−1, LB−1) + firstbit(c_i)` with `LB`
/// length buckets per first bit. A probe for `b` asks, per dimension,
/// for the *compatible* codes: λ always (a prefix may be empty), plus
/// every (bucket, firstbit) pair a nonempty prefix of `b_i` can code to
/// — prefixes share `b_i`'s first bit and have lengths `1..=|b_i|`, so
/// the mask is one alternating-bit pattern. If any dimension group has
/// no compatible bit set, **no summarized insert contains `b`** and the
/// scan is skipped (counted in `DescentProbe::repair_fasts`).
///
/// Honest measurement note: on the 10⁶-edge skewed graph tier the fast
/// path fires *zero* times — witness streaming drops exactly the deep
/// subsumed resolvents the length buckets were designed to prune, and
/// the boxes that still reach the log share shallow prefixes with the
/// next probes, so every window stays fingerprint-compatible. What cut
/// the repair-scan traffic there (590 M → 68 M ring entries touched)
/// is the streaming itself: ~11 M skipped inserts shrink every
/// frontier's lag. The summary pays its one AND per repair and earns
/// its keep on shallow mixed workloads (see the `stats_regression`
/// pins), staying strictly sound everywhere.
///
/// Bits are accumulated into two blocks of [`REPAIR_CAP`] inserts each
/// and the pair is rotated when a block fills, so the live summary
/// always covers (a superset of) the last `REPAIR_CAP` inserts — i.e.
/// every window `[mark, insert_count)` a repair may ask about. Extra
/// coverage only adds false positives, never false negatives.
#[derive(Clone, Debug)]
pub(crate) struct InsertLog {
    /// Insert `i` lives at `i % ring.len()`; allocated on first insert.
    ring: Vec<DyadicBox>,
    /// Novel inserts ever performed (monotone; not reset by clears).
    insert_count: u64,
    /// Times the store was cleared (invalidates node ids and the log).
    clears: u32,
    /// Fingerprints of inserts in the current [`REPAIR_CAP`]-sized block.
    block_cur: u64,
    /// Fingerprints of the previous (full) block.
    block_prev: u64,
}

/// Fingerprint of one inserted box: one bit per dimension group, coding
/// (capped length bucket, first bit) — see the [`InsertLog`] docs.
fn fingerprint(b: &DyadicBox) -> u64 {
    let n = b.n() as u64;
    let bpd = 64 / n;
    let lb = (bpd - 1) / 2; // length buckets per first bit (≥ 1 for n ≤ 21)
    let mut f = 0u64;
    for i in 0..b.n() {
        let iv = b.get(i);
        let code = if iv.is_lambda() {
            0
        } else {
            let fb = (iv.bits() >> (iv.len() - 1)) & 1;
            let bucket = (iv.len() as u64 - 1).min(lb - 1);
            1 + 2 * bucket + fb
        };
        f |= 1u64 << (i as u64 * bpd + code);
    }
    f
}

impl InsertLog {
    /// An empty log of [`DEFAULT_INSERT_RING`] entries.
    pub fn new() -> Self {
        InsertLog {
            ring: Vec::new(),
            insert_count: 0,
            clears: 0,
            block_cur: 0,
            block_prev: 0,
        }
    }

    /// Record a novel insert of an `n`-dimensional box.
    pub fn record(&mut self, n: usize, b: &DyadicBox) {
        if self.ring.is_empty() {
            self.ring
                .resize(DEFAULT_INSERT_RING, DyadicBox::universe(n));
        }
        if self.insert_count.is_multiple_of(REPAIR_CAP) {
            self.block_prev = self.block_cur;
            self.block_cur = 0;
        }
        self.block_cur |= fingerprint(b);
        let slot = (self.insert_count % DEFAULT_INSERT_RING as u64) as usize;
        // Refresh only the live components: every ring box already has
        // the right dimensionality, and nothing reads past dimension `n`.
        for i in 0..n {
            self.ring[slot].set(i, b.get(i));
        }
        self.insert_count += 1;
    }

    /// Stamp a store clear (keeps the monotone insert count).
    pub fn note_clear(&mut self) {
        self.clears += 1;
        self.block_cur = 0;
        self.block_prev = 0;
    }

    /// Novel inserts ever performed.
    pub fn insert_count(&self) -> u64 {
        self.insert_count
    }

    /// Clears ever performed.
    pub fn clears(&self) -> u32 {
        self.clears
    }

    /// How many inserts a frontier recorded at `mark` is missing.
    pub fn lag(&self, mark: u64) -> u64 {
        self.insert_count - mark
    }

    /// Whether the fingerprint summary admits *any* recent insert
    /// containing `b`. `false` is definitive (no insert in the last
    /// [`REPAIR_CAP`] can contain `b`, so a scan of any repairable window
    /// would find no candidate); `true` means the
    /// scan must run. See the type-level docs for the encoding.
    #[inline]
    pub fn summary_may_contain(&self, b: &DyadicBox) -> bool {
        let blocks = self.block_cur | self.block_prev;
        let n = b.n() as u64;
        let bpd = 64 / n;
        let lb = (bpd - 1) / 2;
        let gmask = if bpd == 64 {
            u64::MAX
        } else {
            (1u64 << bpd) - 1
        };
        for i in 0..b.n() {
            let group = (blocks >> (i as u64 * bpd)) & gmask;
            let iv = b.get(i);
            // Compatible codes: λ, plus (bucket, firstbit(b_i)) for every
            // prefix length 1..=|b_i| — an alternating-bit run starting
            // at 1 + firstbit, `min(|b_i|, lb)` bits long.
            let mut q = 1u64;
            if !iv.is_lambda() {
                let fb = (iv.bits() >> (iv.len() - 1)) & 1;
                let buckets = (iv.len() as u64).min(lb);
                let ones = (1u64 << (2 * buckets)) - 1; // 2·buckets ≤ 62
                q |= (0x5555_5555_5555_5555u64 & ones) << (1 + fb);
            }
            if group & q == 0 {
                return false;
            }
        }
        true
    }

    /// One pass over the window `[mark, insert_count)` serving a frontier
    /// repair that intends to **advance `mark` past the window**: returns
    /// the DFS-least containing insert and
    /// hands every *graft* to the callback — a lagging insert that
    /// extended the probed path strictly below the frontier depth, i.e. a
    /// tree position the recorded entries cannot know about. Folding the
    /// grafts into the entries is what makes advancing `mark` sound:
    /// every other window insert is either a containment candidate
    /// (decided here, and decided identically by every deeper probe of
    /// the chain) or permanently incompatible with the chain's fixed
    /// earlier-dimension components.
    ///
    /// The caller must have checked `lag(mark) <= REPAIR_CAP`.
    pub fn scan_repair(
        &self,
        b: &DyadicBox,
        dim: usize,
        mark: u64,
        mut graft: impl FnMut(&DyadicBox),
    ) -> Option<([u8; MAX_DIMS], DyadicBox)> {
        debug_assert!(self.lag(mark) <= REPAIR_CAP);
        let iv = b.get(dim);
        let mut best: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        'window: for i in mark..self.insert_count {
            let c = &self.ring[(i % DEFAULT_INSERT_RING as u64) as usize];
            for j in 0..dim {
                let (cj, bj) = (c.get(j), b.get(j));
                if cj.len() > bj.len() || bj.truncate(cj.len()) != cj {
                    continue 'window;
                }
            }
            let cd = c.get(dim);
            if cd.len() > iv.len() {
                if cd.truncate(iv.len()) == iv {
                    graft(c);
                }
                continue;
            }
            if iv.truncate(cd.len()) == cd && (dim + 1..b.n()).all(|j| c.get(j).is_lambda()) {
                let key = lens_key_of_box(c, dim);
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    best = Some((key, *c));
                }
            }
        }
        best
    }

    /// The DFS-least logged insert since `mark` that contains `b`, keyed
    /// by its [`lens_key_of_box`]: the plain window scan the tests check
    /// the fingerprint summary against.
    ///
    /// The caller must have checked `lag(mark) <= REPAIR_CAP`.
    #[cfg(test)]
    fn best_candidate(
        &self,
        b: &DyadicBox,
        dim: usize,
        mark: u64,
    ) -> Option<([u8; MAX_DIMS], DyadicBox)> {
        debug_assert!(self.lag(mark) <= REPAIR_CAP);
        let mut best: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        for i in mark..self.insert_count {
            let c = &self.ring[(i % DEFAULT_INSERT_RING as u64) as usize];
            if c.contains(b) {
                let key = lens_key_of_box(c, dim);
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    best = Some((key, *c));
                }
            }
        }
        best
    }
}

/// DFS-order key of a stored box for a probe on `dim`: the per-dimension
/// prefix lengths through `dim` (later dimensions are λ for any box that
/// can answer such a probe). The multilevel walk visits shorter prefixes
/// first dimension by dimension, so comparing these keys lexicographically
/// reproduces its first-hit order.
pub(crate) fn lens_key_of_box(c: &DyadicBox, dim: usize) -> [u8; MAX_DIMS] {
    let mut key = [0u8; MAX_DIMS];
    for (i, slot) in key.iter_mut().enumerate().take(dim + 1) {
        *slot = c.get(i).len();
    }
    key
}

/// The insert-side twin of the tracked probe: the node path of the most
/// recent insert, so the next insert can resume from where the two boxes
/// diverge instead of re-walking every bit of every component.
///
/// Resolvent streams are extremely local — an unwind merges siblings and
/// ascends one bit at a time, and the preload feeds boxes in sorted
/// order — so the common case resumes within a few bits of the end. The
/// cached node ids stay valid because the tree is a push-only arena: the
/// only invalidating mutation is a full [`clear`], which resets the
/// cursor.
///
/// Layout: `path[base[i]]` is the node dimension `i`'s component starts
/// from (the level root reached through the `next` chain), followed by
/// one node per bit of that component.
///
/// [`clear`]: crate::BoxTree::clear
#[derive(Debug)]
pub(crate) struct InsertCursor {
    valid: bool,
    last: DyadicBox,
    path: Vec<u32>,
    base: [u16; MAX_DIMS],
}

impl InsertCursor {
    /// A cursor for an `n`-dimensional store rooted at `root`.
    pub(crate) fn new(n: usize, root: u32) -> Self {
        InsertCursor {
            valid: false,
            last: DyadicBox::universe(n),
            path: vec![root],
            base: [0; MAX_DIMS],
        }
    }

    /// Forget the cached path (the store was cleared).
    pub(crate) fn invalidate(&mut self, root: u32) {
        self.valid = false;
        self.path.clear();
        self.path.push(root);
        self.base = [0; MAX_DIMS];
    }

    /// Where the cached path stops covering `b`: `(dim, prefix_len)` such
    /// that the walk may resume from the cached node at that position.
    /// `(0, 0)` — the root — when no path is cached.
    pub(crate) fn resume_point(&self, b: &DyadicBox) -> (usize, u8) {
        if !self.valid {
            return (0, 0);
        }
        for dim in 0..b.n() {
            let (cur, prev) = (b.get(dim), self.last.get(dim));
            if cur != prev {
                return (dim, common_prefix(cur, prev));
            }
        }
        // Exact duplicate of the last insert: the full path is reusable.
        (b.n() - 1, b.get(b.n() - 1).len())
    }

    /// The cached node `len` bits into dimension `dim`'s component.
    pub(crate) fn node_at(&self, dim: usize, len: u8) -> u32 {
        self.path[self.base[dim] as usize + len as usize]
    }

    /// Drop the path past the resume point and re-aim the cursor at `b`;
    /// the caller then [`push`]es the nodes it walks.
    ///
    /// [`push`]: InsertCursor::push
    pub(crate) fn begin(&mut self, b: &DyadicBox, dim: usize, len: u8) {
        self.path
            .truncate(self.base[dim] as usize + len as usize + 1);
        // Components before the resume dimension are unchanged by
        // definition of the resume point; refresh only the tail instead
        // of copying the whole (fixed-capacity) box.
        for i in dim..b.n() {
            self.last.set(i, b.get(i));
        }
        self.valid = true;
    }

    /// Record the node reached by one more bit step.
    pub(crate) fn push(&mut self, node: u32) {
        self.path.push(node);
    }

    /// Record the level root dimension `dim`'s component starts from.
    pub(crate) fn start_dim(&mut self, dim: usize, node: u32) {
        self.base[dim] = self.path.len() as u16;
        self.path.push(node);
    }

    /// The node dimension `dim`'s component of `b` ends at.
    pub(crate) fn end_node(&self, dim: usize, b: &DyadicBox) -> u32 {
        self.node_at(dim, b.get(dim).len())
    }
}

/// Length of the longest common prefix of two dyadic intervals.
fn common_prefix(a: DyadicInterval, b: DyadicInterval) -> u8 {
    let (la, lb) = (a.len() as u32, b.len() as u32);
    let m = la.min(lb);
    if m == 0 {
        return 0;
    }
    // MSB-align both bitstrings; the first differing position is the
    // number of leading zeros of their XOR.
    let x = (a.bits() << (64 - la)) ^ (b.bits() << (64 - lb));
    x.leading_zeros().min(m) as u8
}

/// Whether `b` is `last` with exactly one bit appended at `dim`.
pub(crate) fn is_child_at(b: &DyadicBox, last: &DyadicBox, dim: usize) -> bool {
    for i in 0..b.n() {
        if i == dim {
            let (bi, li) = (b.get(i), last.get(i));
            if bi.len() != li.len() + 1 || bi.truncate(li.len()) != li {
                return false;
            }
        } else if b.get(i) != last.get(i) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    #[test]
    fn insert_log_rolls_and_ranks() {
        let mut log = InsertLog::new();
        assert_eq!(log.insert_count(), 0);
        log.record(2, &b("0,λ"));
        log.record(2, &b("λ,λ"));
        log.record(2, &b("00,λ"));
        assert_eq!(log.insert_count(), 3);
        assert_eq!(log.lag(1), 2);
        // The DFS-least candidate containing ⟨00,1⟩ among the lagging
        // inserts is the shortest-prefix one, ⟨λ,λ⟩.
        let (key, best) = log.best_candidate(&b("00,1"), 0, 0).unwrap();
        assert_eq!(best, b("λ,λ"));
        assert_eq!(key[0], 0);
        // From mark 2 only ⟨00,λ⟩ is lagging.
        let (_, best) = log.best_candidate(&b("00,1"), 0, 2).unwrap();
        assert_eq!(best, b("00,λ"));
        // A probe outside every lagging insert has no candidate.
        let mut disjoint = InsertLog::new();
        disjoint.record(2, &b("0,λ"));
        assert!(disjoint.best_candidate(&b("11,1"), 0, 0).is_none());
    }

    #[test]
    fn summary_is_sound_never_hides_a_candidate() {
        // Exhaustive over 2-d boxes with components of length ≤ 2: for
        // every (logged set, probe) pair, a present best_candidate must
        // imply summary_may_contain — the fast path may only skip scans
        // that would come back empty.
        use dyadic::DyadicInterval;
        let mut ivs = vec![DyadicInterval::from_bits(0, 0)];
        for len in 1..=2u8 {
            for bits in 0..(1u64 << len) {
                ivs.push(DyadicInterval::from_bits(bits, len));
            }
        }
        let mut boxes = Vec::new();
        for a in &ivs {
            for b2 in &ivs {
                let mut bx = DyadicBox::universe(2);
                bx.set(0, *a);
                bx.set(1, *b2);
                boxes.push(bx);
            }
        }
        for probe in &boxes {
            for window in boxes.chunks(5) {
                let mut log = InsertLog::new();
                for c in window {
                    log.record(2, c);
                }
                if let Some((_, candidate)) = log.best_candidate(probe, 1, 0) {
                    assert!(
                        log.summary_may_contain(probe),
                        "summary hid candidate {candidate:?} for probe {probe:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn summary_prunes_disjoint_windows() {
        // Not a soundness requirement, but the point of the summary: a
        // window of inserts that all start with a 0-bit at dim 0 must be
        // pruned for a probe starting with a 1-bit.
        let mut log = InsertLog::new();
        log.record(2, &b("00,λ"));
        log.record(2, &b("01,1"));
        assert!(!log.summary_may_contain(&b("11,1")));
        assert!(log.summary_may_contain(&b("00,1")));
        // λ inserts are compatible with every probe.
        log.record(2, &b("λ,0"));
        assert!(log.summary_may_contain(&b("11,1")));
    }

    #[test]
    fn summary_prunes_deeper_windows() {
        // The graph-workload pattern: an unwind streams *deep* resolvents
        // and the next skeleton probe asks about a shallow box. No deeper
        // box can contain a shallower one, and the length buckets prove
        // it without touching the ring.
        let mut log = InsertLog::new();
        log.record(2, &b("0010,11"));
        log.record(2, &b("0111,00"));
        assert!(
            !log.summary_may_contain(&b("01,0")),
            "a window of strictly deeper inserts must be pruned"
        );
        assert!(log.summary_may_contain(&b("0111,001")));
    }

    #[test]
    fn summary_survives_block_rotation() {
        // An insert stays visible to the summary for at least REPAIR_CAP
        // subsequent inserts (the full repairable lag), across the
        // two-block rotation.
        let mut log = InsertLog::new();
        // Fill most of the first block, land the candidate at index 63
        // (the last slot of block 0), then push 63 more inserts so the
        // blocks rotate once underneath it.
        for _ in 0..REPAIR_CAP - 1 {
            log.record(2, &b("00,0"));
        }
        log.record(2, &b("1,λ"));
        let mark = log.insert_count() - 1;
        for _ in 0..REPAIR_CAP - 1 {
            log.record(2, &b("00,0"));
        }
        assert_eq!(log.lag(mark), REPAIR_CAP);
        assert!(
            log.summary_may_contain(&b("11,1")),
            "the ⟨1,λ⟩ insert is still inside the repairable window"
        );
    }

    #[test]
    fn clear_mid_block_empties_both_summaries() {
        // PR 7 audit: a clear that lands mid-block must invalidate BOTH
        // rotating fingerprint blocks. The stamped `clears` counter
        // already forces every saved frontier to a full walk, but stale
        // summary bits would still claim a now-empty store may contain
        // probes — harmless for soundness (false positives only), wrong
        // as a summary. `note_clear` zeroes both blocks; pin it.
        let mut log = InsertLog::new();
        for _ in 0..REPAIR_CAP + 3 {
            // Past one block rotation, landing mid-way into block 1.
            log.record(2, &b("λ,λ"));
        }
        assert!(log.summary_may_contain(&b("0,0")));
        log.note_clear();
        assert_eq!(log.clears(), 1);
        assert!(
            !log.summary_may_contain(&b("0,0")),
            "both summary blocks must be zeroed by a mid-block clear"
        );
        // The monotone insert count survives; new records repopulate the
        // summary from scratch with no ghost bits from before the clear.
        assert_eq!(log.insert_count(), REPAIR_CAP + 3);
        log.record(2, &b("0,λ"));
        assert!(log.summary_may_contain(&b("00,1")));
        assert!(!log.summary_may_contain(&b("1,1")));
    }

    #[test]
    fn child_relation() {
        assert!(is_child_at(&b("01,1"), &b("0,1"), 0));
        assert!(!is_child_at(&b("11,1"), &b("0,1"), 0));
        assert!(!is_child_at(&b("01,11"), &b("0,1"), 0));
        assert!(is_child_at(&b("0,10"), &b("0,1"), 1));
    }
}
