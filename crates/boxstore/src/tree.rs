//! The multilevel dyadic tree (paper Appendix C.1, Figure 16): the
//! knowledge base every Tetris engine stores its boxes in.
//!
//! One binary trie per dimension, chained level to level through `next`
//! links. The nodes live in two arenas split by level:
//!
//! * **inner levels** (dimensions `0..n−1`) use 16-byte-aligned records:
//!   both child ids plus a metadata word (bit 31 = cached λ-tail, low 31
//!   bits = next-level id);
//! * **the last level** (dimension `n−1`) uses 8-byte records: both child
//!   ids, with the terminal flag in the top bit of the first. A last-level
//!   node has no next level to link to, and its λ-tail fact ("a box ends
//!   here with λ on every later dimension") is exactly its terminal flag,
//!   so it needs no metadata word. Most nodes of a large store sit on the
//!   last level, which is why the split cuts the store by about a third.
//!
//! Neither record straddles a cache line, so every step of the hot walks —
//! follow one bit, hop a `next` link, test terminal/λ — costs at most one
//! memory access, which is the whole point at 10⁶-edge scale where the
//! store runs to a hundred million nodes and every access is a miss. Every
//! walk knows the dimension it is on, and so which arena a `u32` id
//! addresses; ids are never compared across levels.
//!
//! # The containment-order contract
//!
//! [`BoxTree::find_containing`] (and its tracked variant) returns the
//! **first hit of the multilevel DFS**: stored prefixes are tried
//! dimension by dimension in SAO order, shorter prefixes first. The
//! parallel descent's overlay shards, the frontier repair and the
//! differential walls all rely on this witness order.

use crate::store::{is_child_at, DescentProbe, InsertCursor, InsertLog, StoreTuning, REPAIR_CAP};
use dyadic::{DyadicBox, DyadicInterval, MAX_DIMS};

/// Sentinel for "no child" and "no next level", shared by both arenas.
/// It is also the 31-bit id mask, so reading a last-level child (whose
/// top bit may carry the terminal flag) costs one AND.
const NONE: u32 = 0x7FFF_FFFF;

/// Bit 31 of an inner node's metadata word: a stored box ends through
/// this node with `λ` components on every later dimension (the cached
/// `lambda_tail` fact — set at insert, wiped wholesale by `clear`, never
/// otherwise invalidated because those are the only two mutations).
const LAMBDA_BIT: u32 = 1 << 31;

/// Bit 31 of a last-level node's first child word: a box terminates here.
const TERMINAL_BIT: u32 = 1 << 31;

/// An inner-level node: both child ids and the packed metadata word,
/// padded to 16 bytes so a node never straddles a cache line — every
/// walk step (child follow, `next` hop, λ check) reads exactly one line.
#[derive(Clone, Copy, Debug)]
#[repr(align(16))]
struct Inner {
    /// `children[bit]` follows `bit` of the current dimension.
    children: [u32; 2],
    /// Packed metadata: `LAMBDA_BIT | next_link` (`NONE` = no link).
    meta: u32,
}

/// A last-level node: both child ids, the first one carrying
/// `TERMINAL_BIT`. Aligned to its 8-byte size so it never straddles a
/// cache line either.
#[derive(Clone, Copy, Debug)]
#[repr(align(8))]
struct Leaf {
    children: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<Inner>() == 16 && std::mem::align_of::<Inner>() == 16);
const _: () = assert!(std::mem::size_of::<Leaf>() == 8);

const EMPTY_INNER: Inner = Inner {
    children: [NONE, NONE],
    meta: NONE,
};

const EMPTY_LEAF: Leaf = Leaf {
    children: [NONE, NONE],
};

impl Leaf {
    #[inline]
    fn child(&self, bit: usize) -> u32 {
        self.children[bit] & NONE
    }

    #[inline]
    fn is_terminal(&self) -> bool {
        self.children[0] & TERMINAL_BIT != 0
    }
}

/// A set of `n`-dimensional dyadic boxes stored as a multilevel dyadic
/// tree: one binary trie per dimension, chained through `next` links,
/// in two arenas addressed by `u32` ids — 16-byte records for the inner
/// levels, 8-byte records for the last level (see the module docs). No
/// per-node allocation, cheap to clear and reuse.
///
/// ```
/// use boxstore::BoxTree;
/// use dyadic::DyadicBox;
///
/// let mut t = BoxTree::new(2);
/// t.insert(&DyadicBox::parse("0,λ").unwrap());
/// t.insert(&DyadicBox::parse("10,1").unwrap());
/// // ⟨0,λ⟩ contains ⟨01,11⟩:
/// let probe = DyadicBox::parse("01,11").unwrap();
/// assert_eq!(t.find_containing(&probe), DyadicBox::parse("0,λ"));
/// ```
#[derive(Debug)]
pub struct BoxTree {
    /// Nodes of dimensions `0..n−1`, addressed by `u32` id.
    inner: Vec<Inner>,
    /// Nodes of dimension `n−1`, addressed by `u32` id.
    leaves: Vec<Leaf>,
    /// Id 0 of the level-0 arena: `inner` when `n > 1`, else `leaves`.
    root: u32,
    n: usize,
    len: usize,
    /// Rolling log of recent inserts + the monotone insert/clear counters
    /// probe state is keyed on. This is what lets a frontier saved
    /// *before* a handful of inserts be advanced+repaired instead of
    /// re-walked.
    log: InsertLog,
    /// Node path of the previous insert: consecutive inserts resume from
    /// the divergence point instead of re-walking the shared prefix.
    cursor: InsertCursor,
}

/// One extendable tree position of a failed probe: the node reached at
/// the target's full depth on the probed dimension, plus the stored
/// prefix lengths chosen on the earlier dimensions (enough to rebuild the
/// witness box on a later hit).
#[derive(Clone, Copy, Debug)]
pub(crate) struct TreeEntry {
    node: u32,
    lens: [u8; MAX_DIMS],
}

impl BoxTree {
    /// An empty store for `n`-dimensional boxes (default tuning).
    pub fn new(n: usize) -> Self {
        Self::with_tuning(n, StoreTuning::default())
    }

    /// An empty store with an explicit insert-ring length.
    pub fn with_tuning(n: usize, tuning: StoreTuning) -> Self {
        assert!(n >= 1, "boxes must have at least one dimension");
        let mut t = BoxTree {
            inner: Vec::with_capacity(1024),
            leaves: Vec::with_capacity(1024),
            root: 0,
            n,
            len: 0,
            log: InsertLog::new(tuning.insert_ring),
            cursor: InsertCursor::new(n, 0),
        };
        t.push_root();
        t
    }

    /// Allocate the level-0 root as id 0 of its (empty) arena.
    fn push_root(&mut self) {
        if self.n > 1 {
            self.inner.push(EMPTY_INNER);
        } else {
            self.leaves.push(EMPTY_LEAF);
        }
    }

    /// Number of dimensions.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored boxes (exact duplicates are stored once).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The store's memory ledger: nodes of both arenas, `size_of`-exact
    /// bytes held by them (16 per inner node, 8 per last-level node), and
    /// the longest root-to-node link chain in hops (the walk an
    /// adversarial full probe would pay). An O(nodes) traversal — a
    /// diagnostic for profile reports, never called on the hot path.
    pub fn mem_stats(&self) -> obs::MemStats {
        // Every node has exactly one parent link (child or `next`), so
        // the arenas form a tree rooted at `root` and one stack walk
        // visits each node once.
        let mut max_depth = 0u64;
        let mut stack: Vec<(u32, usize, u64)> = vec![(self.root, 0, 0)];
        while let Some((id, dim, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for bit in 0..2 {
                let child = self.child(dim, id, bit);
                if child != NONE {
                    stack.push((child, dim, d + 1));
                }
            }
            if dim + 1 < self.n {
                let link = self.next_of(id);
                if link != NONE {
                    stack.push((link, dim + 1, d + 1));
                }
            }
        }
        obs::MemStats {
            nodes: (self.inner.len() + self.leaves.len()) as u64,
            bytes: (self.inner.len() * std::mem::size_of::<Inner>()
                + self.leaves.len() * std::mem::size_of::<Leaf>()) as u64,
            max_depth,
        }
    }

    /// Remove all boxes, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.inner.clear();
        self.leaves.clear();
        self.push_root();
        self.len = 0;
        // Saved frontiers hold node ids; a clear invalidates them all —
        // including the insert cursor's cached path.
        self.log.note_clear();
        self.cursor.invalidate(self.root);
    }

    /// Child `bit` of `node` on dimension `dim`'s trie, or `NONE`.
    #[inline]
    fn child(&self, dim: usize, node: u32, bit: usize) -> u32 {
        if dim + 1 == self.n {
            self.leaves[node as usize].child(bit)
        } else {
            self.inner[node as usize].children[bit]
        }
    }

    /// The next-level root linked from inner `node`, or `NONE`.
    #[inline]
    fn next_of(&self, node: u32) -> u32 {
        self.inner[node as usize].meta & NONE
    }

    fn alloc_inner(&mut self) -> u32 {
        // Ids are 31 bits wide, so each arena tops out at NONE; guard
        // rather than silently truncating ids.
        assert!(
            self.inner.len() < NONE as usize,
            "BoxTree: inner node-id space (31 bits) exhausted"
        );
        let id = self.inner.len() as u32;
        self.inner.push(EMPTY_INNER);
        id
    }

    fn alloc_leaf(&mut self) -> u32 {
        assert!(
            self.leaves.len() < NONE as usize,
            "BoxTree: last-level node-id space (31 bits) exhausted"
        );
        let id = self.leaves.len() as u32;
        self.leaves.push(EMPTY_LEAF);
        id
    }

    /// Insert a box. Returns `true` if it was new, `false` if this exact
    /// box was already stored.
    ///
    /// The walk resumes from the previous insert's cached node path at
    /// the first diverging bit, so the highly local resolvent/preload
    /// streams pay only for their divergence tails, not the shared
    /// prefixes (see the crate-private `InsertCursor` in `store.rs`).
    ///
    /// # Panics
    /// If the box has the wrong dimensionality.
    pub fn insert(&mut self, b: &DyadicBox) -> bool {
        assert_eq!(b.n(), self.n, "box dimensionality mismatch");
        let last = self.n - 1;
        let (start_dim, start_len) = self.cursor.resume_point(b);
        let mut node = self.cursor.node_at(start_dim, start_len);
        self.cursor.begin(b, start_dim, start_len);
        for dim in start_dim..last {
            let iv = b.get(dim);
            let from = if dim == start_dim { start_len } else { 0 };
            for k in from..iv.len() {
                let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
                let child = self.inner[node as usize].children[bit];
                node = if child == NONE {
                    let id = self.alloc_inner();
                    self.inner[node as usize].children[bit] = id;
                    id
                } else {
                    child
                };
                self.cursor.push(node);
            }
            let next = self.next_of(node);
            node = if next == NONE {
                let id = if dim + 1 == last {
                    self.alloc_leaf()
                } else {
                    self.alloc_inner()
                };
                self.inner[node as usize].meta = (self.inner[node as usize].meta & LAMBDA_BIT) | id;
                id
            } else {
                next
            };
            self.cursor.start_dim(dim + 1, node);
        }
        let iv = b.get(last);
        let from = if start_dim == last { start_len } else { 0 };
        for k in from..iv.len() {
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = self.leaves[node as usize].child(bit);
            node = if child == NONE {
                let id = self.alloc_leaf();
                let word = &mut self.leaves[node as usize].children[bit];
                *word = (*word & TERMINAL_BIT) | id;
                id
            } else {
                child
            };
            self.cursor.push(node);
        }
        #[cfg(debug_assertions)]
        self.debug_check_cursor(b);
        // Every end-of-component node from the last non-λ component on
        // gains the λ-tail fact; all of them sit on the cursor path. On
        // the last level that fact is the terminal flag set below.
        let t0 = (0..self.n)
            .rev()
            .find(|&i| !b.get(i).is_lambda())
            .unwrap_or(0);
        for i in t0..last {
            let e = self.cursor.end_node(i, b);
            self.inner[e as usize].meta |= LAMBDA_BIT;
        }
        let leaf = &mut self.leaves[node as usize];
        let fresh = !leaf.is_terminal();
        leaf.children[0] |= TERMINAL_BIT;
        if fresh {
            self.len += 1;
            self.log.record(self.n, b);
        }
        fresh
    }

    /// Debug oracle for the insert cursor: after an insert of `b`, the
    /// cached path must be exactly the node walk of `b` from the root.
    #[cfg(debug_assertions)]
    fn debug_check_cursor(&self, b: &DyadicBox) {
        let mut node = self.root;
        for dim in 0..self.n {
            assert_eq!(self.cursor.node_at(dim, 0), node, "cursor level root");
            let iv = b.get(dim);
            for k in 0..iv.len() {
                let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
                node = self.child(dim, node, bit);
                assert_eq!(self.cursor.node_at(dim, k + 1), node, "cursor bit node");
            }
            if dim + 1 < self.n {
                node = self.next_of(node);
            }
        }
    }

    /// Find one stored box `a ⊇ b`, if any (Algorithm 1, line 1).
    ///
    /// Prefers boxes with shorter components (found earlier on the walk),
    /// i.e. geometrically larger witnesses.
    ///
    /// This is the engine's hottest query, so it uses a dedicated
    /// monomorphic walker (no closure dispatch) that returns at the first
    /// terminal it reaches.
    pub fn find_containing(&self, b: &DyadicBox) -> Option<DyadicBox> {
        debug_assert_eq!(b.n(), self.n);
        let mut scratch = DyadicBox::universe(self.n);
        if self.first_containing(self.root, 0, b, &mut scratch) {
            Some(scratch)
        } else {
            None
        }
    }

    /// First-hit DFS: on success `scratch` holds the witness.
    fn first_containing(
        &self,
        root: u32,
        dim: usize,
        b: &DyadicBox,
        scratch: &mut DyadicBox,
    ) -> bool {
        let iv = b.get(dim);
        let last = dim + 1 == self.n;
        let mut node = root;
        let mut k = 0u8;
        loop {
            if last {
                if self.leaves[node as usize].is_terminal() {
                    scratch.set(dim, iv.truncate(k));
                    return true;
                }
            } else {
                let link = self.next_of(node);
                if link != NONE {
                    scratch.set(dim, iv.truncate(k));
                    if self.first_containing(link, dim + 1, b, scratch) {
                        return true;
                    }
                }
            }
            if k == iv.len() {
                return false;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = self.child(dim, node, bit);
            if child == NONE {
                return false;
            }
            node = child;
            k += 1;
        }
    }

    /// Whether some stored box contains `b`.
    pub fn covers(&self, b: &DyadicBox) -> bool {
        self.find_containing(b).is_some()
    }

    /// [`BoxTree::find_containing`] with an **incremental-descent fast
    /// path**. `dim` is the probe target's first thick dimension (the one
    /// the skeleton last extended; pass `n − 1` for unit boxes).
    ///
    /// A failed probe records, in `state`, the set of tree positions
    /// compatible with the target (one per combination of stored prefixes
    /// on the earlier dimensions) together with the store's insert count.
    /// When the next probe is for a **child** of the last target (one bit
    /// appended at `dim`) *at the same count*, the recorded frontier is
    /// advanced by that single bit instead of re-walking the tree from
    /// the root. This is exact, not heuristic: at an unchanged store, any
    /// witness for the child whose `dim` component were shorter than the
    /// child's would also contain the already-probed parent — so only
    /// positions at full depth (the recorded ones, advanced) can produce
    /// a hit, and scanning them in recorded (DFS) order returns the
    /// identical witness the full walk would find.
    pub fn find_containing_tracked(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        debug_assert_eq!(b.n(), self.n);
        debug_assert!(dim < self.n);
        let iv = b.get(dim);
        if let Some(last) = state.last {
            if state.clears == self.log.clears()
                && state.dim == dim as u8
                && iv.len() == state.len + 1
                && is_child_at(b, &last, dim)
            {
                // How many inserts the recorded frontier is missing. The
                // frontier is complete w.r.t. every insert before
                // `state.mark`; the rest live in the rolling log.
                let lag = self.log.lag(state.mark);
                if lag == 0 {
                    state.advances += 1;
                    return self.advance_probe(b, dim, state);
                }
                if lag <= REPAIR_CAP {
                    state.repairs += 1;
                    state.last_repair_window = lag;
                    state.last_repair_hit = false;
                    if !self.log.summary_may_contain(b) {
                        // The fingerprint summary proves no lagging insert
                        // contains `b`, so the window scan would come back
                        // empty and the advanced frontier alone decides —
                        // exactly the lag == 0 case.
                        state.repair_fasts += 1;
                        return self.advance_probe(b, dim, state);
                    }
                    return self.advance_repair(b, dim, state);
                }
            }
        }
        state.full_walks += 1;
        self.full_probe(b, dim, state)
    }

    /// Advance the recorded frontier by the one bit appended at `dim`.
    fn advance_probe(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        let iv = b.get(dim);
        let bit = (iv.bits() & 1) as usize;
        let mut kept = 0;
        for idx in 0..state.entries.len() {
            let mut e = state.entries[idx];
            let child = self.child(dim, e.node, bit);
            if child == NONE {
                continue;
            }
            e.node = child;
            if self.lambda_tail(child, dim) {
                // Same witness the full walk's DFS would reach first.
                let mut w = DyadicBox::universe(self.n);
                for i in 0..dim {
                    w.set(i, b.get(i).truncate(e.lens[i]));
                }
                w.set(dim, iv);
                state.invalidate(); // covered: the descent stops here
                return Some(w);
            }
            state.entries[kept] = e;
            kept += 1;
        }
        state.entries.truncate(kept);
        state.len = iv.len();
        // The chain check proved `last == b` except the appended bit, so
        // refresh only the probed component instead of copying the box.
        match state.last.as_mut() {
            Some(l) => l.set(dim, iv),
            None => state.last = Some(*b),
        }
        None
    }

    /// [`BoxTree::advance_probe`] for a frontier that lags the store by up
    /// to [`REPAIR_CAP`] inserts: advance the recorded positions by the
    /// appended bit *and* check the lagging inserts (from the rolling log)
    /// directly, returning whichever hit the full walk's DFS would reach
    /// first. The frontier was complete when recorded, so any witness it
    /// cannot see must be one of the logged boxes — comparing the two
    /// candidates by their per-dimension prefix-length vector (the DFS
    /// visit order) reproduces the full walk's first hit exactly.
    fn advance_repair(
        &self,
        b: &DyadicBox,
        dim: usize,
        state: &mut DescentProbe,
    ) -> Option<DyadicBox> {
        let iv = b.get(dim);
        // Best candidate among the lagging inserts, keyed by DFS order —
        // plus the grafts: lagging inserts that extended the probed path
        // below the frontier, which must join the entries so `mark` can
        // advance past this window (see [`InsertLog::scan_repair`]).
        let mut grafts: Vec<DyadicBox> = Vec::new();
        let best_new = self
            .log
            .scan_repair(b, dim, state.mark, |c| grafts.push(*c));
        state.last_repair_hit = best_new.is_some();
        // First hit among the recorded (pre-mark) positions. Entries are
        // stored in DFS order, so the first hit is also the DFS-least.
        let bit = (iv.bits() & 1) as usize;
        let mut kept = 0;
        let mut old_hit: Option<([u8; MAX_DIMS], DyadicBox)> = None;
        for idx in 0..state.entries.len() {
            let mut e = state.entries[idx];
            let child = self.child(dim, e.node, bit);
            if child == NONE {
                continue;
            }
            e.node = child;
            if self.lambda_tail(child, dim) {
                let mut w = DyadicBox::universe(self.n);
                let mut key = [0u8; MAX_DIMS];
                for (i, &len) in e.lens.iter().enumerate().take(dim) {
                    w.set(i, b.get(i).truncate(len));
                    key[i] = len;
                }
                w.set(dim, iv);
                key[dim] = iv.len();
                old_hit = Some((key, w));
                break;
            }
            state.entries[kept] = e;
            kept += 1;
        }
        let hit = match (old_hit, best_new) {
            (Some((ko, wo)), Some((kn, wn))) => Some(if kn < ko { wn } else { wo }),
            (Some((_, w)), None) | (None, Some((_, w))) => Some(w),
            (None, None) => None,
        };
        if hit.is_some() {
            state.invalidate(); // covered: the descent stops here
            return hit;
        }
        state.entries.truncate(kept);
        // Fold the grafts into the (DFS-ordered) entries, then advance
        // `mark` past the window: each lagging insert is thereby examined
        // once per chain, not once per subsequent advance.
        for c in &grafts {
            let node = self.graft_node(c, b, dim);
            if state.entries.iter().any(|e| e.node == node) {
                continue; // the position was already tracked
            }
            let mut lens = [0u8; MAX_DIMS];
            for (j, slot) in lens.iter_mut().enumerate().take(dim) {
                *slot = c.get(j).len();
            }
            let pos = state
                .entries
                .partition_point(|e| e.lens[..dim] <= lens[..dim]);
            state.entries.insert(pos, TreeEntry { node, lens });
        }
        state.mark = self.log.insert_count();
        state.len = iv.len();
        // As in `advance_probe`: only the probed component changed.
        match state.last.as_mut() {
            Some(l) => l.set(dim, iv),
            None => state.last = Some(*b),
        }
        None
    }

    /// The tree node a graft's insert reached at the probed position —
    /// `c`'s earlier-dimension components followed by the first `|b[dim]|`
    /// bits of the probed dimension. Read-only: every node on the path
    /// exists because `c` itself was inserted through it.
    fn graft_node(&self, c: &DyadicBox, b: &DyadicBox, dim: usize) -> u32 {
        let mut node = self.root;
        for j in 0..dim {
            let cv = c.get(j);
            for k in 0..cv.len() {
                let bit = ((cv.bits() >> (cv.len() - 1 - k)) & 1) as usize;
                node = self.inner[node as usize].children[bit];
            }
            node = self.next_of(node);
        }
        let iv = b.get(dim);
        for k in 0..iv.len() {
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            node = self.child(dim, node, bit);
        }
        node
    }

    /// Whether a box ends through `node` at level `dim` with `λ`
    /// components on every later dimension — an O(1) flag read (the
    /// chain walk survives as the debug oracle).
    fn lambda_tail(&self, node: u32, dim: usize) -> bool {
        let cached = if dim + 1 == self.n {
            self.leaves[node as usize].is_terminal()
        } else {
            self.inner[node as usize].meta & LAMBDA_BIT != 0
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(cached, self.lambda_tail_walk(node, dim));
        cached
    }

    /// The uncached chain walk, kept as the oracle for the `LAMBDA_BIT`
    /// maintenance in [`BoxTree::insert`].
    #[cfg(debug_assertions)]
    fn lambda_tail_walk(&self, node: u32, dim: usize) -> bool {
        let mut x = node;
        for _ in dim + 1..self.n {
            x = self.next_of(x);
            if x == NONE {
                return false;
            }
        }
        self.leaves[x as usize].is_terminal()
    }

    /// Full walk that records the frontier for later advancing.
    fn full_probe(&self, b: &DyadicBox, dim: usize, state: &mut DescentProbe) -> Option<DyadicBox> {
        state.entries.clear();
        let mut lens = [0u8; MAX_DIMS];
        let mut scratch = DyadicBox::universe(self.n);
        if self.walk_record(
            self.root,
            0,
            b,
            dim,
            &mut lens,
            &mut scratch,
            &mut state.entries,
        ) {
            state.last = None; // covered targets are never extended
            Some(scratch)
        } else {
            state.dim = dim as u8;
            state.len = b.get(dim).len();
            state.mark = self.log.insert_count();
            state.clears = self.log.clears();
            state.last = Some(*b);
            None
        }
    }

    /// First-hit DFS that also records every position at `(dim, |b[dim]|)`
    /// (the extendable frontier) into `entries`.
    #[allow(clippy::too_many_arguments)]
    fn walk_record(
        &self,
        root: u32,
        level: usize,
        b: &DyadicBox,
        dim: usize,
        lens: &mut [u8; MAX_DIMS],
        scratch: &mut DyadicBox,
        entries: &mut Vec<TreeEntry>,
    ) -> bool {
        let iv = b.get(level);
        let last = level + 1 == self.n;
        let mut node = root;
        let mut k = 0u8;
        loop {
            if level == dim && k == iv.len() {
                entries.push(TreeEntry { node, lens: *lens });
            }
            if last {
                if self.leaves[node as usize].is_terminal() {
                    scratch.set(level, iv.truncate(k));
                    return true;
                }
            } else {
                let link = self.next_of(node);
                if link != NONE {
                    scratch.set(level, iv.truncate(k));
                    lens[level] = k;
                    if self.walk_record(link, level + 1, b, dim, lens, scratch, entries) {
                        return true;
                    }
                }
            }
            if k == iv.len() {
                return false;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = self.child(level, node, bit);
            if child == NONE {
                return false;
            }
            node = child;
            k += 1;
        }
    }

    /// Collect **all** stored boxes containing `b` (oracle access,
    /// Algorithm 2 line 4). By Proposition B.12 there are at most
    /// `∏ᵢ(dᵢ+1)` of them.
    pub fn all_containing(&self, b: &DyadicBox) -> Vec<DyadicBox> {
        let mut out = Vec::new();
        self.all_containing_into(b, &mut out);
        out
    }

    /// [`BoxTree::all_containing`] into a caller-owned buffer (cleared
    /// first), so per-probe allocation can be amortized across a run.
    pub fn all_containing_into(&self, b: &DyadicBox, out: &mut Vec<DyadicBox>) {
        debug_assert_eq!(b.n(), self.n);
        out.clear();
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_containing(self.root, 0, b, &mut scratch, out);
    }

    /// DFS over stored boxes whose every component is a prefix of `b`'s.
    fn walk_containing(
        &self,
        root: u32,
        dim: usize,
        b: &DyadicBox,
        scratch: &mut DyadicBox,
        out: &mut Vec<DyadicBox>,
    ) {
        let iv = b.get(dim);
        let last = dim + 1 == self.n;
        let mut node = root;
        // Visit every prefix of `iv` from λ down to `iv` itself.
        for k in 0..=iv.len() {
            if last {
                if self.leaves[node as usize].is_terminal() {
                    scratch.set(dim, iv.truncate(k));
                    out.push(*scratch);
                }
            } else {
                let link = self.next_of(node);
                if link != NONE {
                    scratch.set(dim, iv.truncate(k));
                    self.walk_containing(link, dim + 1, b, scratch, out);
                }
            }
            if k == iv.len() {
                break;
            }
            let bit = ((iv.bits() >> (iv.len() - 1 - k)) & 1) as usize;
            let child = self.child(dim, node, bit);
            if child == NONE {
                break;
            }
            node = child;
        }
    }

    /// Build a **shard** of this store: every stored box that intersects
    /// `target` is inserted into `out` (which is cleared first). A box
    /// intersects a dyadic target iff on every dimension one component is
    /// a prefix of the other, so the walk follows the target's bits while
    /// they last and then takes whole subtrees. Boxes are copied verbatim
    /// (not clipped): a shard seeded this way answers every containment
    /// probe for sub-boxes of `target` exactly as the full store would.
    ///
    /// This is the donation seam of the parallel descent: a worker that
    /// hands a pending half-box to a thief extracts the slice of its own
    /// knowledge that can matter inside that half.
    pub fn extract_intersecting_into(&self, target: &DyadicBox, out: &mut BoxTree) {
        debug_assert_eq!(target.n(), self.n);
        assert_eq!(out.n, self.n, "shard dimensionality mismatch");
        out.clear();
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_intersecting(
            self.root,
            0,
            target,
            DyadicInterval::lambda(),
            &mut scratch,
            &mut |b| {
                out.insert(b);
            },
        );
    }

    /// DFS over stored boxes intersecting `target` (prefix-comparable on
    /// every dimension).
    fn walk_intersecting(
        &self,
        node: u32,
        dim: usize,
        target: &DyadicBox,
        prefix: DyadicInterval,
        scratch: &mut DyadicBox,
        visit: &mut impl FnMut(&DyadicBox),
    ) {
        // Any box whose component ends at `prefix` is prefix-comparable
        // with the target here by construction of the walk.
        if dim + 1 == self.n {
            if self.leaves[node as usize].is_terminal() {
                scratch.set(dim, prefix);
                visit(scratch);
            }
        } else {
            let link = self.next_of(node);
            if link != NONE {
                scratch.set(dim, prefix);
                let lambda = DyadicInterval::lambda();
                self.walk_intersecting(link, dim + 1, target, lambda, scratch, visit);
            }
        }
        let tv = target.get(dim);
        if prefix.len() < tv.len() {
            // Still on the target's spine: only its next bit stays
            // comparable.
            let k = prefix.len();
            let bit = ((tv.bits() >> (tv.len() - 1 - k)) & 1) as u8;
            let child = self.child(dim, node, bit as usize);
            if child != NONE {
                self.walk_intersecting(child, dim, target, prefix.child(bit), scratch, visit);
            }
        } else {
            // Past the target's component: every extension lies inside it.
            for bit in 0..2u8 {
                let child = self.child(dim, node, bit as usize);
                if child != NONE {
                    self.walk_intersecting(child, dim, target, prefix.child(bit), scratch, visit);
                }
            }
        }
    }

    /// Enumerate all stored boxes (in deterministic DFS order).
    pub fn iter_boxes(&self) -> Vec<DyadicBox> {
        let mut out = Vec::with_capacity(self.len);
        let mut scratch = DyadicBox::universe(self.n);
        self.walk_all(
            self.root,
            0,
            DyadicInterval::lambda(),
            &mut scratch,
            &mut out,
        );
        out
    }

    fn walk_all(
        &self,
        node: u32,
        dim: usize,
        prefix: DyadicInterval,
        scratch: &mut DyadicBox,
        out: &mut Vec<DyadicBox>,
    ) {
        if dim + 1 == self.n {
            if self.leaves[node as usize].is_terminal() {
                scratch.set(dim, prefix);
                out.push(*scratch);
            }
        } else {
            let link = self.next_of(node);
            if link != NONE {
                scratch.set(dim, prefix);
                self.walk_all(link, dim + 1, DyadicInterval::lambda(), scratch, out);
            }
        }
        for bit in 0..2u8 {
            let child = self.child(dim, node, bit as usize);
            if child != NONE {
                self.walk_all(child, dim, prefix.child(bit), scratch, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FrontierStack;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn b(s: &str) -> DyadicBox {
        DyadicBox::parse(s).unwrap()
    }

    fn store(n: usize, boxes: &[DyadicBox]) -> BoxTree {
        let mut t = BoxTree::new(n);
        for bx in boxes {
            t.insert(bx);
        }
        t
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

    /// The reference the tree is checked against: the DFS-least stored
    /// box containing `probe` — shortest prefix first, dimension by
    /// dimension, which is the multilevel walk's visit order.
    fn scan_first(stored: &[DyadicBox], probe: &DyadicBox) -> Option<DyadicBox> {
        let n = probe.n();
        stored
            .iter()
            .filter(|a| a.contains(probe))
            .min_by_key(|a| crate::store::lens_key_of_box(a, n - 1))
            .copied()
    }

    /// Distinct stored boxes in sorted order.
    fn sorted_set(stored: &[DyadicBox]) -> Vec<DyadicBox> {
        let mut v = stored.to_vec();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut t = BoxTree::new(2);
        assert!(t.insert(&b("0,λ")));
        assert!(t.insert(&b("10,1")));
        assert!(t.insert(&b("10,0")));
        assert!(t.insert(&b("10,001")));
        assert!(!t.insert(&b("10,1")), "duplicate insert must report false");
        assert_eq!(t.len(), 4);
        let all = t.iter_boxes();
        assert!(all.contains(&b("10,001")));
        assert!(!all.contains(&b("10,00")));
        assert!(!all.contains(&b("λ,λ")));
    }

    #[test]
    fn figure_16_store() {
        // The boxes of Figure 16b: ⟨0,λ⟩, ⟨10,1⟩, ⟨10,0⟩, ⟨10,001⟩.
        let t = store(2, &[b("0,λ"), b("10,1"), b("10,0"), b("10,001")]);
        let mut all = t.iter_boxes();
        all.sort();
        assert_eq!(all, vec![b("0,λ"), b("10,0"), b("10,001"), b("10,1")]);
    }

    #[test]
    fn find_containing_prefers_any_witness() {
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        assert_eq!(t.find_containing(&b("01,11")), Some(b("0,λ")));
        assert_eq!(t.find_containing(&b("1,λ")), None);
        assert!(t.covers(&b("00,0")));
        assert!(!t.covers(&b("λ,λ")));
    }

    #[test]
    fn lambda_box_contains_everything() {
        let mut t = BoxTree::new(3);
        t.insert(&DyadicBox::universe(3));
        assert!(t.covers(&b("101,0,11")));
        assert!(t.covers(&DyadicBox::universe(3)));
    }

    #[test]
    fn all_containing_collects_every_ancestor() {
        let mut t = BoxTree::new(2);
        // Chain of nested boxes all containing ⟨00,00⟩.
        for s in ["λ,λ", "0,λ", "00,λ", "00,0", "00,00", "1,λ", "00,1"] {
            t.insert(&b(s));
        }
        let mut hits = t.all_containing(&b("00,00"));
        hits.sort();
        assert_eq!(
            hits,
            sorted_set(&[b("λ,λ"), b("0,λ"), b("00,λ"), b("00,0"), b("00,00")])
        );
    }

    #[test]
    fn store_agrees_with_linear_scan_randomized() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let stored: Vec<DyadicBox> = (0..rng.gen_range(1..40))
                .map(|_| random_box(&mut rng, 3, 3))
                .collect();
            let tree = store(3, &stored);
            for _ in 0..50 {
                let probe = random_box(&mut rng, 3, 3);
                let expect: Vec<DyadicBox> = sorted_set(
                    &stored
                        .iter()
                        .filter(|a| a.contains(&probe))
                        .copied()
                        .collect::<Vec<_>>(),
                );
                let mut got = tree.all_containing(&probe);
                got.sort();
                assert_eq!(got, expect, "probe {probe}");
                assert_eq!(tree.covers(&probe), !expect.is_empty());
            }
        }
    }

    #[test]
    fn clear_resets() {
        let mut t = BoxTree::new(2);
        t.insert(&b("0,λ"));
        t.clear();
        assert!(t.is_empty());
        assert!(!t.covers(&b("00,0")));
        t.insert(&b("1,λ"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn extract_intersecting_builds_an_exact_shard() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let stored: Vec<DyadicBox> = (0..rng.gen_range(1..40))
                .map(|_| random_box(&mut rng, 3, 3))
                .collect();
            let tree = store(3, &stored);
            let target = random_box(&mut rng, 3, 3);
            let mut shard = BoxTree::new(3);
            tree.extract_intersecting_into(&target, &mut shard);
            let mut got = shard.iter_boxes();
            got.sort();
            let expect = sorted_set(
                &stored
                    .iter()
                    .filter(|b| b.intersects(&target))
                    .copied()
                    .collect::<Vec<_>>(),
            );
            assert_eq!(got, expect, "target {target}");
        }
    }

    #[test]
    fn saved_frontier_repair_matches_full_walk() {
        // Build a store, probe a target (miss), save the frontier, insert
        // a few more boxes, then probe the target's children through the
        // saved frontier: the repaired answers must be bit-identical to
        // fresh full walks, whichever candidate (old frontier or logged
        // insert) wins.
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..200 {
            let mut tree = BoxTree::new(3);
            for _ in 0..rng.gen_range(0..15) {
                tree.insert(&random_box(&mut rng, 3, 3));
            }
            // The probed parent: thick on dim 0 (λ after is not required
            // by the API, but mirrors the engine's frame shape).
            let plen = rng.gen_range(0..3u8);
            let parent = DyadicBox::universe(3).with(
                0,
                DyadicInterval::from_bits(rng.gen_range(0..(1u64 << plen)), plen),
            );
            let mut probe = DescentProbe::new();
            if tree
                .find_containing_tracked(&parent, 0, &mut probe)
                .is_some()
            {
                continue; // covered parents save no frontier
            }
            let mut frontiers = FrontierStack::new();
            frontiers.push_saved(&probe);
            // Mutate the store.
            for _ in 0..rng.gen_range(0..8) {
                tree.insert(&random_box(&mut rng, 3, 3));
            }
            for bit in 0..2u8 {
                let child = parent.with(0, parent.get(0).child(bit));
                let mut restored = DescentProbe::new();
                assert!(frontiers.restore_top(&parent, &mut restored));
                let got = tree.find_containing_tracked(&child, 0, &mut restored);
                assert_eq!(
                    got,
                    tree.find_containing(&child),
                    "trial {trial} bit {bit}: repaired probe diverges from full walk"
                );
            }
            frontiers.pop();
            assert!(frontiers.is_empty());
        }
    }

    #[test]
    fn one_dimensional_store() {
        // At n = 1 the root itself is a last-level node: no inner arena.
        let mut t = BoxTree::new(1);
        assert!(t.insert(&b("01")));
        assert!(t.insert(&b("1")));
        assert!(!t.insert(&b("1")), "duplicate insert must report false");
        assert!(t.inner.is_empty());
        assert!(t.covers(&b("011")));
        assert_eq!(t.find_containing(&b("11")), Some(b("1")));
        assert!(!t.covers(&b("00")));
        assert!(!t.covers(&b("0")));
        assert_eq!(t.all_containing(&b("010")), vec![b("01")]);
        let mut probe = DescentProbe::new();
        assert_eq!(t.find_containing_tracked(&b("0"), 0, &mut probe), None);
        assert_eq!(
            t.find_containing_tracked(&b("01"), 0, &mut probe),
            Some(b("01"))
        );
        assert_eq!(probe.advances, 1, "the child probe advances the frontier");
        assert_eq!(t.iter_boxes().len(), 2);
        let mut shard = BoxTree::new(1);
        t.extract_intersecting_into(&b("0"), &mut shard);
        assert_eq!(shard.iter_boxes(), vec![b("01")]);
        t.clear();
        assert!(t.is_empty());
        assert!(!t.covers(&b("011")));
        assert!(t.insert(&b("0")));
        assert!(t.covers(&b("011")));
        assert_eq!(t.mem_stats().nodes, 2);
    }

    #[test]
    fn mem_stats_counts_both_arenas() {
        // Three dimensions: inner nodes on levels 0 and 1, leaves on 2.
        let t = store(3, &[b("0,1,λ"), b("01,λ,10"), b("1,λ,λ"), b("1,0,011")]);
        assert!(!t.inner.is_empty() && !t.leaves.is_empty());
        let mem = t.mem_stats();
        let (inner, leaves) = (t.inner.len() as u64, t.leaves.len() as u64);
        assert_eq!(mem.nodes, inner + leaves);
        assert_eq!(mem.bytes, 16 * inner + 8 * leaves);
        // ⟨1,0,011⟩'s walk: root, 1 bit, next, 1 bit, next, 3 bits.
        assert_eq!(mem.max_depth, 7);
    }

    #[test]
    fn example_4_4_matches_linear_scan() {
        let stored = [b("λ,0"), b("00,λ"), b("λ,11"), b("10,1")];
        let t = store(2, &stored);
        assert_eq!(t.len(), stored.len());
        let mut all = t.iter_boxes();
        all.sort();
        assert_eq!(all, sorted_set(&stored));
        for s in ["00,00", "10,11", "11,00", "01,10", "λ,λ"] {
            assert_eq!(t.find_containing(&b(s)), scan_first(&stored, &b(s)), "{s}");
        }
    }

    #[test]
    fn differential_random_vs_linear_scan() {
        // Mixed inserts/probes/clears/extracts: every observable answer
        // must match a linear scan over the boxes inserted since the last
        // clear — including the DFS-first witness. Seed printed on
        // failure.
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=3);
            let width = rng.gen_range(1..=4) as u8;
            let mut t = BoxTree::new(n);
            let mut stored: Vec<DyadicBox> = Vec::new();
            for step in 0..200 {
                let ctx = format!("seed {seed} step {step} n={n} width={width}");
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let bx = random_box(&mut rng, n, width);
                        let fresh = !stored.contains(&bx);
                        assert_eq!(t.insert(&bx), fresh, "{ctx}: insert");
                        if fresh {
                            stored.push(bx);
                        }
                    }
                    5..=7 => {
                        let bx = random_box(&mut rng, n, width);
                        assert_eq!(
                            t.find_containing(&bx),
                            scan_first(&stored, &bx),
                            "{ctx}: find_containing"
                        );
                    }
                    8 => {
                        let target = random_box(&mut rng, n, width);
                        let mut shard = BoxTree::new(n);
                        t.extract_intersecting_into(&target, &mut shard);
                        let mut got = shard.iter_boxes();
                        got.sort();
                        let expect: Vec<DyadicBox> = stored
                            .iter()
                            .filter(|c| c.intersects(&target))
                            .copied()
                            .collect();
                        assert_eq!(got, sorted_set(&expect), "{ctx}: extract");
                    }
                    _ => {
                        if rng.gen_range(0..4) == 0 {
                            t.clear();
                            stored.clear();
                        }
                        assert_eq!(t.len(), stored.len(), "{ctx}: len");
                    }
                }
            }
            let mut all = t.iter_boxes();
            all.sort();
            assert_eq!(all, sorted_set(&stored), "seed {seed}: final set");
        }
    }

    #[test]
    fn tracked_probes_match_untracked() {
        // Drive a synthetic parent→child probe chain with interleaved
        // inserts so advances, summary-pruned repairs, scan repairs, and
        // full walks all fire; every answer must equal find_containing.
        for seed in 100..115u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2usize;
            let width = 4u8;
            let mut t = BoxTree::new(n);
            for _ in 0..rng.gen_range(0..12) {
                t.insert(&random_box(&mut rng, n, width));
            }
            let mut probe = DescentProbe::new();
            for trial in 0..40 {
                let dim = rng.gen_range(0..n);
                let mut target = random_box(&mut rng, n, width);
                for i in dim + 1..n {
                    target.set(i, DyadicInterval::lambda());
                }
                for k in 0..=target.get(dim).len() {
                    let mut q = target;
                    q.set(dim, target.get(dim).truncate(k));
                    let got = t.find_containing_tracked(&q, dim, &mut probe);
                    assert_eq!(
                        got,
                        t.find_containing(&q),
                        "seed {seed} trial {trial} k={k}: tracked diverges"
                    );
                    if got.is_some() {
                        break;
                    }
                    if rng.gen_range(0..3) == 0 {
                        t.insert(&random_box(&mut rng, n, width));
                    }
                }
            }
            assert!(probe.advances + probe.repairs + probe.full_walks > 0);
        }
    }
}
