//! The ROBDD node manager: hash-consed unique table with mark-and-sweep
//! garbage collection, memoized `ite`, an `and_exists` relational-product
//! kernel, dynamic variable reordering by sifting, quantification, level
//! renaming, and satisfying-assignment counting.
//!
//! Nodes are reduced, ordered BDD nodes over abstract *levels* (`u32`);
//! [`crate::BddSpace`] decides what a level means (which bit of which
//! program variable, current or next state). Terminals are the constants
//! `FALSE` (node 0) and `TRUE` (node 1). There are no complement edges:
//! negation is an ordinary `ite` traversal, which keeps every node
//! canonical under one representation and the code auditable.
//!
//! # Levels versus positions
//!
//! A level is a variable *identity*; where that level sits in the branching
//! order is its *position* (`pos_of` / `level_at`). With a fixed order the
//! two coincide; dynamic reordering by sifting permutes positions while
//! levels — and therefore every `NodeId` already handed out — keep their
//! meaning. Reordering never changes which boolean function a node denotes,
//! so external memos keyed by `NodeId` survive a sift untouched.
//!
//! # Garbage collection and root handles
//!
//! Nodes are reference-counted: every parent→child edge holds one count,
//! and external owners (predicates, relations, the space's own domain and
//! identity BDDs) hold *root* counts via [`Manager::add_root`] /
//! [`Manager::release_root`] — RAII handles at the `SymbolicPredicate` /
//! `SymbolicTransition` layer. A mark-and-sweep pass frees every node with
//! no count, returning its slot to a free list for reuse. Live `NodeId`s
//! are deliberately *stable* across a sweep (slots are recycled, never
//! renumbered): root-id equality stays canonical for the lifetime of the
//! space — two live predicates over the same space are semantically equal
//! iff their root ids are equal — which is what gives fixpoint convergence
//! checks and KBP cycle detection their O(1) comparisons.
//!
//! Sweeps and sifts run only at explicit *safe points*
//! ([`Manager::checkpoint`]), with in-flight intermediate results passed as
//! temporary roots; no recursion is ever live across a collection.
//!
//! The `ite` memo is invalidated GC-aware: a sweep purges exactly the
//! entries that mention a freed node (the survivors are still canonical),
//! and bumps an epoch counter so external memos holding unrooted ids
//! (the symbolic knowledge memo) can drop stale entries lazily. The
//! workspace's clear-on-full convention (see `kpt_obs::Memo`) is kept only
//! as a capacity backstop, and the churn stays observable through the
//! `bdd.ite.cache.*` counters.

use std::collections::HashMap;

/// Index of a node in the manager's node table.
pub(crate) type NodeId = u32;

/// The constant-false terminal.
pub(crate) const FALSE: NodeId = 0;

/// The constant-true terminal.
pub(crate) const TRUE: NodeId = 1;

/// Level assigned to terminals: below every real level.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// Level marking a freed slot awaiting reuse.
const FREE_LEVEL: u32 = u32::MAX - 1;

/// Reference count pinning a node forever (the terminals).
const PINNED: u32 = u32::MAX;

/// Upper bound on memoized `ite` triples before a clear-on-full eviction
/// (a memory backstop; the primary invalidation is the GC purge).
const ITE_CACHE_CAP: usize = 1 << 20;

/// One internal BDD node: branch on `level`, `lo` when the level's bit is
/// 0, `hi` when it is 1. Children always sit at strictly greater
/// *positions* in the current order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    level: u32,
    lo: NodeId,
    hi: NodeId,
}

/// When and how the manager garbage-collects dead nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Never collect: the node table only grows (the pre-GC engine).
    Disabled,
    /// Sweep at safe points once the table holds at least `min_nodes`
    /// internal nodes and at least `dead_percent`% of them are dead.
    OnGrowth {
        /// Minimum allocated internal nodes before any sweep runs.
        min_nodes: usize,
        /// Minimum dead fraction, in percent, that triggers a sweep.
        dead_percent: u8,
    },
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy::OnGrowth {
            min_nodes: 1 << 16,
            dead_percent: 25,
        }
    }
}

/// When the manager dynamically reorders variables. Sifting is
/// deterministic for a given policy and operation sequence: triggers fire
/// on exact live-node counts and the pass scans groups in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderPolicy {
    /// Keep the declaration order (the pre-reordering engine).
    #[default]
    Disabled,
    /// Run a sifting pass at the next safe point after the live node count
    /// reaches `trigger_nodes`; re-arm at twice the post-sift size. A
    /// group's sweep aborts early once the table grows past
    /// `max_growth_percent`% over the best size seen for that group.
    SiftOnGrowth {
        /// Live-node count that arms the next sifting pass.
        trigger_nodes: usize,
        /// Per-group growth tolerance while sifting, in percent.
        max_growth_percent: u32,
    },
}

/// Knobs for a [`crate::BddSpace`]'s manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddConfig {
    /// Garbage-collection policy.
    pub gc: GcPolicy,
    /// Dynamic variable-reordering policy.
    pub reorder: ReorderPolicy,
}

impl BddConfig {
    /// The PR-4 era engine: grow-only table, fixed order. Differential
    /// suites pin the optimised configurations against this one.
    #[must_use]
    pub fn serial() -> Self {
        BddConfig {
            gc: GcPolicy::Disabled,
            reorder: ReorderPolicy::Disabled,
        }
    }
}

/// Garbage-collection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Completed sweep passes.
    pub runs: u64,
    /// Nodes freed across all sweeps.
    pub freed: u64,
    /// Incremented by every sweep that freed at least one node; external
    /// memos holding unrooted ids compare epochs to drop stale entries.
    pub epoch: u64,
}

/// Dynamic-reordering counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Completed sifting passes.
    pub runs: u64,
    /// Adjacent level swaps performed across all passes.
    pub swaps: u64,
}

/// The hash-consing ROBDD manager.
#[derive(Debug)]
pub(crate) struct Manager {
    nodes: Vec<Node>,
    /// Parallel to `nodes`: parent-edge + external-root reference counts.
    rc: Vec<u32>,
    unique: HashMap<(u32, NodeId, NodeId), NodeId>,
    /// Freed slots awaiting reuse.
    free: Vec<NodeId>,
    /// Allocated internal nodes with `rc == 0` (sweepable garbage).
    dead: usize,
    /// Position of each level in the branching order (indexed by level).
    pos_of: Vec<u32>,
    /// Level at each position (inverse of `pos_of`).
    level_at: Vec<u32>,
    /// Per-level node lists, maintained lazily and only during a sifting
    /// pass (`in_sift`); rebuilt from the table at the start of each pass.
    level_nodes: Vec<Vec<NodeId>>,
    in_sift: bool,
    gc: GcPolicy,
    reorder: ReorderPolicy,
    next_reorder_at: usize,
    gc_runs: u64,
    gc_freed: u64,
    gc_epoch: u64,
    reorder_runs: u64,
    reorder_swaps: u64,
    /// High-water mark of allocated internal nodes (live + dead).
    peak_nodes: usize,
    ite_cache: HashMap<(NodeId, NodeId, NodeId), NodeId>,
    ite_hits: u64,
    ite_misses: u64,
    ite_evictions: u64,
    ite_inserts: u64,
}

impl Manager {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_config(BddConfig::default())
    }

    pub(crate) fn with_config(config: BddConfig) -> Self {
        let next_reorder_at = match config.reorder {
            ReorderPolicy::Disabled => usize::MAX,
            ReorderPolicy::SiftOnGrowth { trigger_nodes, .. } => trigger_nodes,
        };
        Manager {
            // Terminal sentinels; their level sorts below every real node.
            nodes: vec![
                Node {
                    level: TERMINAL_LEVEL,
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    level: TERMINAL_LEVEL,
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            rc: vec![PINNED, PINNED],
            unique: HashMap::new(),
            free: Vec::new(),
            dead: 0,
            pos_of: Vec::new(),
            level_at: Vec::new(),
            level_nodes: Vec::new(),
            in_sift: false,
            gc: config.gc,
            reorder: config.reorder,
            next_reorder_at,
            gc_runs: 0,
            gc_freed: 0,
            gc_epoch: 0,
            reorder_runs: 0,
            reorder_swaps: 0,
            peak_nodes: 0,
            ite_cache: HashMap::new(),
            ite_hits: 0,
            ite_misses: 0,
            ite_evictions: 0,
            ite_inserts: 0,
        }
    }

    /// Nodes currently allocated (terminals included, freed slots not).
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocated internal nodes: live + dead, terminals and freed slots
    /// excluded. This is the memory-relevant table occupancy that node
    /// budgets and the peak counter are measured in.
    pub(crate) fn internal_nodes(&self) -> usize {
        self.nodes.len() - 2 - self.free.len()
    }

    /// Internal nodes reachable from some root (excludes sweepable dead).
    pub(crate) fn live_nodes(&self) -> usize {
        self.internal_nodes() - self.dead
    }

    /// High-water mark of [`Manager::internal_nodes`].
    pub(crate) fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    pub(crate) fn gc_stats(&self) -> GcStats {
        GcStats {
            runs: self.gc_runs,
            freed: self.gc_freed,
            epoch: self.gc_epoch,
        }
    }

    pub(crate) fn reorder_stats(&self) -> ReorderStats {
        ReorderStats {
            runs: self.reorder_runs,
            swaps: self.reorder_swaps,
        }
    }

    /// Current GC epoch; bumped by every sweep that freed a node.
    pub(crate) fn epoch(&self) -> u64 {
        self.gc_epoch
    }

    /// `(hits, misses, evictions, inserts, entries)` of the `ite` memo.
    /// `inserts` counts lifetime insertions, so hit-rate reporting stays
    /// meaningful after clear-on-full or GC purges shrink `entries`.
    pub(crate) fn ite_cache_stats(&self) -> (u64, u64, u64, u64, usize) {
        (
            self.ite_hits,
            self.ite_misses,
            self.ite_evictions,
            self.ite_inserts,
            self.ite_cache.len(),
        )
    }

    /// Make the first `n` levels known to the order (identity positions).
    pub(crate) fn register_levels(&mut self, n: usize) {
        self.ensure_level(n.saturating_sub(1) as u32);
    }

    fn ensure_level(&mut self, level: u32) {
        let want = level as usize + 1;
        while self.pos_of.len() < want {
            let next = u32::try_from(self.pos_of.len()).expect("level count overflow");
            self.pos_of.push(next);
            self.level_at.push(next);
            self.level_nodes.push(Vec::new());
        }
    }

    #[inline]
    fn level(&self, n: NodeId) -> u32 {
        self.nodes[n as usize].level
    }

    /// Position of a level in the branching order. Levels never registered
    /// sit past every registered one, in identity order (registered
    /// positions all lie below `pos_of.len()`, so this cannot collide).
    #[inline]
    fn pos(&self, level: u32) -> u32 {
        self.pos_of.get(level as usize).copied().unwrap_or(level)
    }

    /// Position of a node's level; terminals sort below everything.
    #[inline]
    fn top_pos(&self, n: NodeId) -> u32 {
        if n <= TRUE {
            u32::MAX
        } else {
            self.pos(self.level(n))
        }
    }

    #[inline]
    fn node(&self, n: NodeId) -> Node {
        self.nodes[n as usize]
    }

    /// Increment `n`'s reference count. Counts are *exact*: only live
    /// parents and external roots hold references, so a `0 → 1` transition
    /// (resurrection) cascades — the node re-takes the child references a
    /// live node holds, reviving its whole subgraph.
    fn inc_rc(&mut self, n: NodeId) {
        if n <= TRUE || self.rc[n as usize] == PINNED {
            return;
        }
        self.rc[n as usize] += 1;
        if self.rc[n as usize] != 1 {
            return;
        }
        self.dead -= 1;
        let node = self.nodes[n as usize];
        let mut stack = vec![node.lo, node.hi];
        while let Some(c) = stack.pop() {
            if c <= TRUE || self.rc[c as usize] == PINNED {
                continue;
            }
            self.rc[c as usize] += 1;
            if self.rc[c as usize] == 1 {
                self.dead -= 1;
                let cn = self.nodes[c as usize];
                stack.push(cn.lo);
                stack.push(cn.hi);
            }
        }
    }

    /// Decrement `n`'s reference count; a `1 → 0` transition (death)
    /// cascades, releasing the child references the node held while live.
    /// Dead nodes stay allocated and hash-consed until a sweep, so they
    /// can be resurrected for free in the meantime.
    fn dec_rc(&mut self, n: NodeId) {
        if n <= TRUE || self.rc[n as usize] == PINNED {
            return;
        }
        debug_assert!(self.rc[n as usize] > 0, "refcount underflow");
        self.rc[n as usize] -= 1;
        if self.rc[n as usize] != 0 {
            return;
        }
        self.dead += 1;
        let node = self.nodes[n as usize];
        let mut stack = vec![node.lo, node.hi];
        while let Some(c) = stack.pop() {
            if c <= TRUE || self.rc[c as usize] == PINNED {
                continue;
            }
            debug_assert!(self.rc[c as usize] > 0, "refcount underflow");
            self.rc[c as usize] -= 1;
            if self.rc[c as usize] == 0 {
                self.dead += 1;
                let cn = self.nodes[c as usize];
                stack.push(cn.lo);
                stack.push(cn.hi);
            }
        }
    }

    /// Take an external root reference on `n` (RAII handles call this).
    pub(crate) fn add_root(&mut self, n: NodeId) {
        self.inc_rc(n);
    }

    /// Release an external root reference on `n`.
    pub(crate) fn release_root(&mut self, n: NodeId) {
        self.dec_rc(n);
    }

    /// Hash-consed node constructor; applies the ROBDD reduction rules.
    pub(crate) fn make_node(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        self.ensure_level(level);
        debug_assert!(
            self.pos(level) < self.top_pos(lo) && self.pos(level) < self.top_pos(hi),
            "order"
        );
        if let Some(&id) = self.unique.get(&(level, lo, hi)) {
            return id;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { level, lo, hi };
                self.rc[slot as usize] = 0;
                slot
            }
            None => {
                let id = u32::try_from(self.nodes.len()).expect("node table overflow");
                self.nodes.push(Node { level, lo, hi });
                self.rc.push(0);
                id
            }
        };
        // A fresh node is dead (and holds no child references — see
        // `inc_rc`) until a live parent or root claims it.
        self.dead += 1;
        self.unique.insert((level, lo, hi), id);
        if self.in_sift {
            self.level_nodes[level as usize].push(id);
        }
        let occupancy = self.internal_nodes();
        if occupancy > self.peak_nodes {
            self.peak_nodes = occupancy;
        }
        kpt_obs::counter!("bdd.nodes.allocated").incr();
        id
    }

    /// The positive literal of `level` (true iff the level's bit is 1).
    pub(crate) fn literal(&mut self, level: u32) -> NodeId {
        self.make_node(level, FALSE, TRUE)
    }

    /// Cofactor `n` with respect to `level` (whose position must be ≤ the
    /// position of `n`'s level).
    #[inline]
    fn cofactors(&self, n: NodeId, level: u32) -> (NodeId, NodeId) {
        let node = self.node(n);
        if node.level == level {
            (node.lo, node.hi)
        } else {
            (n, n)
        }
    }

    /// Memoized if-then-else: the single apply operator every boolean
    /// connective reduces to.
    pub(crate) fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        // Terminal and absorption cases.
        if f == TRUE {
            return g;
        }
        if f == FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == TRUE && h == FALSE {
            return f;
        }
        // ite(f, f, h) = f ∨ h and ite(f, g, f) = f ∧ g: normalize so the
        // cache sees one key per function.
        let g = if g == f { TRUE } else { g };
        let h = if h == f { FALSE } else { h };
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            self.ite_hits += 1;
            kpt_obs::counter!("bdd.ite.cache.hits").incr();
            return r;
        }
        self.ite_misses += 1;
        kpt_obs::counter!("bdd.ite.cache.misses").incr();
        let p = self.top_pos(f).min(self.top_pos(g)).min(self.top_pos(h));
        let level = self.level_at[p as usize];
        let (f0, f1) = self.cofactors(f, level);
        let (g0, g1) = self.cofactors(g, level);
        let (h0, h1) = self.cofactors(h, level);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.make_node(level, lo, hi);
        if self.ite_cache.len() >= ITE_CACHE_CAP {
            self.ite_cache.clear();
            self.ite_evictions += 1;
            kpt_obs::counter!("bdd.ite.cache.evictions").incr();
        }
        self.ite_inserts += 1;
        self.ite_cache.insert((f, g, h), r);
        r
    }

    pub(crate) fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, b, FALSE)
    }

    pub(crate) fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, TRUE, b)
    }

    /// Disjunction of `layer` as a balanced OR-tree, which keeps the
    /// intermediate BDDs smaller than a left fold over many cubes does.
    pub(crate) fn or_all(&mut self, mut layer: Vec<NodeId>) -> NodeId {
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|c| {
                    if c.len() == 2 {
                        self.or(c[0], c[1])
                    } else {
                        c[0]
                    }
                })
                .collect();
        }
        layer.first().copied().unwrap_or(FALSE)
    }

    pub(crate) fn not(&mut self, a: NodeId) -> NodeId {
        self.ite(a, FALSE, TRUE)
    }

    pub(crate) fn implies(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.ite(a, b, TRUE)
    }

    pub(crate) fn iff(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let nb = self.not(b);
        self.ite(a, b, nb)
    }

    /// Existential quantification of every level in `levels` (sorted
    /// ascending by level id). Memoized per call: the level set is fixed
    /// for the whole recursion, so the memo key is just the node.
    pub(crate) fn exists(&mut self, n: NodeId, levels: &[u32]) -> NodeId {
        if levels.is_empty() {
            return n;
        }
        debug_assert!(levels.windows(2).all(|w| w[0] < w[1]), "sorted levels");
        for &l in levels {
            self.ensure_level(l);
        }
        let max_pos = levels.iter().map(|&l| self.pos(l)).max().expect("nonempty");
        let mut memo = HashMap::new();
        self.exists_rec(n, levels, max_pos, &mut memo)
    }

    fn exists_rec(
        &mut self,
        n: NodeId,
        levels: &[u32],
        max_pos: u32,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if self.top_pos(n) > max_pos {
            // All quantified levels sit above this subgraph in the order.
            return n;
        }
        if let Some(&r) = memo.get(&n) {
            return r;
        }
        let node = self.node(n);
        let lo = self.exists_rec(node.lo, levels, max_pos, memo);
        let hi = self.exists_rec(node.hi, levels, max_pos, memo);
        let r = if levels.binary_search(&node.level).is_ok() {
            self.or(lo, hi)
        } else {
            self.make_node(node.level, lo, hi)
        };
        memo.insert(n, r);
        r
    }

    /// Universal quantification: `∀L. n = ¬∃L. ¬n`.
    pub(crate) fn forall(&mut self, n: NodeId, levels: &[u32]) -> NodeId {
        let neg = self.not(n);
        let ex = self.exists(neg, levels);
        self.not(ex)
    }

    /// The relational-product kernel: `∃levels. f ∧ g` in one traversal,
    /// without materialising the conjunction. Quantified branches exit
    /// early on `TRUE`, which is what makes early-quantified partitioned
    /// image computation cheaper than `and` followed by `exists`.
    pub(crate) fn and_exists(&mut self, f: NodeId, g: NodeId, levels: &[u32]) -> NodeId {
        if levels.is_empty() {
            return self.and(f, g);
        }
        debug_assert!(levels.windows(2).all(|w| w[0] < w[1]), "sorted levels");
        for &l in levels {
            self.ensure_level(l);
        }
        kpt_obs::counter!("bdd.and_exists.calls").incr();
        let max_pos = levels.iter().map(|&l| self.pos(l)).max().expect("nonempty");
        let mut memo = HashMap::new();
        self.and_exists_rec(f, g, levels, max_pos, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: NodeId,
        g: NodeId,
        levels: &[u32],
        max_pos: u32,
        memo: &mut HashMap<(NodeId, NodeId), NodeId>,
    ) -> NodeId {
        if f == FALSE || g == FALSE {
            return FALSE;
        }
        if f == TRUE && g == TRUE {
            return TRUE;
        }
        if f == TRUE || f == g {
            return self.exists(g, levels);
        }
        if g == TRUE {
            return self.exists(f, levels);
        }
        let pf = self.top_pos(f);
        let pg = self.top_pos(g);
        if pf > max_pos && pg > max_pos {
            // No quantified level can appear in either subgraph.
            return self.and(f, g);
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let level = self.level_at[pf.min(pg) as usize];
        let (f0, f1) = self.cofactors(f, level);
        let (g0, g1) = self.cofactors(g, level);
        let r = if levels.binary_search(&level).is_ok() {
            let lo = self.and_exists_rec(f0, g0, levels, max_pos, memo);
            if lo == TRUE {
                kpt_obs::counter!("bdd.and_exists.early_exits").incr();
                TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, levels, max_pos, memo);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, levels, max_pos, memo);
            let hi = self.and_exists_rec(f1, g1, levels, max_pos, memo);
            self.make_node(level, lo, hi)
        };
        memo.insert(key, r);
        r
    }

    /// Rename every level through `map`, which must be strictly monotone
    /// *in position* on the levels reachable from `n` (so the result is
    /// still ordered — the substitution the interleaved current/next
    /// encoding needs never reorders levels, and group sifting keeps
    /// current/next pairs adjacent so the shift maps stay monotone).
    pub(crate) fn map_levels(&mut self, n: NodeId, map: impl Fn(u32) -> u32) -> NodeId {
        let mut memo = HashMap::new();
        self.map_levels_rec(n, &map, &mut memo)
    }

    fn map_levels_rec(
        &mut self,
        n: NodeId,
        map: &impl Fn(u32) -> u32,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> NodeId {
        if n == FALSE || n == TRUE {
            return n;
        }
        if let Some(&r) = memo.get(&n) {
            return r;
        }
        let node = self.node(n);
        let lo = self.map_levels_rec(node.lo, map, memo);
        let hi = self.map_levels_rec(node.hi, map, memo);
        let r = self.make_node(map(node.level), lo, hi);
        memo.insert(n, r);
        r
    }

    /// Evaluate `n` under a bit assignment.
    pub(crate) fn eval(&self, n: NodeId, bit: impl Fn(u32) -> bool) -> bool {
        let mut cur = n;
        loop {
            match cur {
                FALSE => return false,
                TRUE => return true,
                _ => {
                    let node = self.node(cur);
                    cur = if bit(node.level) { node.hi } else { node.lo };
                }
            }
        }
    }

    /// Exact number of satisfying assignments of `n` over exactly the
    /// levels in `levels` (sorted ascending by id; every level reachable
    /// from `n` must be a member). Counting weights skipped levels by
    /// their rank in the *current order*, so the result is order-independent.
    pub(crate) fn satcount(&self, n: NodeId, levels: &[u32]) -> u128 {
        let mut poss: Vec<u32> = levels.iter().map(|&l| self.pos(l)).collect();
        poss.sort_unstable();
        let rank = |level: u32| -> usize {
            if level == TERMINAL_LEVEL {
                poss.len()
            } else {
                poss.binary_search(&self.pos(level))
                    .expect("node level outside the satcount level set")
            }
        };
        let mut memo: HashMap<NodeId, u128> = HashMap::new();
        let c = self.satcount_rec(n, &rank, &mut memo);
        c << rank(self.level(n))
    }

    fn satcount_rec(
        &self,
        n: NodeId,
        rank: &impl Fn(u32) -> usize,
        memo: &mut HashMap<NodeId, u128>,
    ) -> u128 {
        if n == FALSE {
            return 0;
        }
        if n == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&n) {
            return c;
        }
        let node = self.node(n);
        let here = rank(node.level);
        let lo = self.satcount_rec(node.lo, rank, memo);
        let hi = self.satcount_rec(node.hi, rank, memo);
        let c = (lo << (rank(self.level(node.lo)) - here - 1))
            + (hi << (rank(self.level(node.hi)) - here - 1));
        memo.insert(n, c);
        c
    }

    /// One satisfying path: `(level, bit)` decisions along a route to
    /// `TRUE`, or `None` for the constant-false function. Levels untouched
    /// by the path are don't-care.
    pub(crate) fn witness_path(&self, n: NodeId) -> Option<Vec<(u32, bool)>> {
        if n == FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = n;
        while cur != TRUE {
            let node = self.node(cur);
            // Every non-false ROBDD node has at least one non-false child.
            if node.lo != FALSE {
                path.push((node.level, false));
                cur = node.lo;
            } else {
                path.push((node.level, true));
                cur = node.hi;
            }
        }
        Some(path)
    }

    /// Number of distinct nodes reachable from `n` (terminals excluded) —
    /// the "BDD size" the scaling experiments report.
    pub(crate) fn reachable_nodes(&self, n: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            if m == FALSE || m == TRUE || !seen.insert(m) {
                continue;
            }
            let node = self.node(m);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        seen.len()
    }

    /// Conjunction of literals, built bottom-up in *position* order so the
    /// chain is valid under any current variable order.
    pub(crate) fn cube(&mut self, lits: &mut [(u32, bool)]) -> NodeId {
        for &(level, _) in lits.iter() {
            self.ensure_level(level);
        }
        lits.sort_unstable_by_key(|&(level, _)| std::cmp::Reverse(self.pos(level)));
        let mut acc = TRUE;
        for &(level, bit) in lits.iter() {
            acc = if bit {
                self.make_node(level, FALSE, acc)
            } else {
                self.make_node(level, acc, FALSE)
            };
        }
        acc
    }

    // ------------------------------------------------------------------
    // Safe points: garbage collection and dynamic reordering
    // ------------------------------------------------------------------

    /// A safe point: no operation recursion is in flight, and everything
    /// the caller still needs that is not root-referenced is listed in
    /// `temp_roots`. Runs a sifting pass or a GC sweep if their policies
    /// trigger; otherwise a no-op. Every checkpoint samples the resource
    /// gauges, so a traced run sees the engine's memory between rounds,
    /// not just at the end.
    pub(crate) fn checkpoint(&mut self, temp_roots: &[NodeId]) {
        match self.reorder {
            ReorderPolicy::SiftOnGrowth { .. } if self.live_nodes() >= self.next_reorder_at => {
                self.sift(temp_roots);
            }
            _ => self.maybe_gc(temp_roots),
        }
        self.sample_gauges("checkpoint");
    }

    /// Refresh the `bdd.*` resource gauges and, when traced, emit one
    /// `bdd.gauge` sample event tagged with the safe-point phase
    /// (`"checkpoint"`, `"gc.pre"`, `"gc.post"`, `"sift.post"`). The
    /// gauge stores are three relaxed atomics; the event costs only when
    /// a trace sink is live.
    fn sample_gauges(&self, phase: &str) {
        let live = self.live_nodes() as u64;
        let rows = self.unique.len() as u64;
        let memo = self.ite_cache.len() as u64;
        kpt_obs::gauge!("bdd.nodes.live").set(live);
        kpt_obs::gauge!("bdd.unique.rows").set(rows);
        kpt_obs::gauge!("bdd.ite.memo.entries").set(memo);
        if kpt_obs::trace_enabled() {
            kpt_obs::event(
                "bdd.gauge",
                &[
                    ("phase", phase.into()),
                    ("live_nodes", live.into()),
                    ("unique_rows", rows.into()),
                    ("memo_entries", memo.into()),
                ],
            );
        }
    }

    /// Sweep now if the GC policy's growth and dead-fraction thresholds
    /// are both met.
    fn maybe_gc(&mut self, temp_roots: &[NodeId]) {
        if let GcPolicy::OnGrowth {
            min_nodes,
            dead_percent,
        } = self.gc
        {
            let occupancy = self.internal_nodes();
            if occupancy >= min_nodes && self.dead * 100 >= occupancy * dead_percent as usize {
                self.gc(temp_roots);
            }
        }
    }

    /// Unconditional sweep with the given temporary roots.
    pub(crate) fn gc(&mut self, temp_roots: &[NodeId]) {
        let _span = kpt_obs::span("bdd.gc");
        self.sample_gauges("gc.pre");
        for &r in temp_roots {
            self.inc_rc(r);
        }
        self.sweep();
        for &r in temp_roots {
            self.dec_rc(r);
        }
        self.sample_gauges("gc.post");
    }

    /// Free every dead node and purge memo entries that mention one.
    /// Reference counts are exact (dead nodes hold no child references),
    /// so an unreachable subgraph is entirely `rc == 0` already and a
    /// single linear scan frees it — no cascade needed.
    fn sweep(&mut self) {
        let mut freed = 0u64;
        for n in 2..self.nodes.len() as u32 {
            let node = self.nodes[n as usize];
            if node.level < FREE_LEVEL && self.rc[n as usize] == 0 {
                self.unique.remove(&(node.level, node.lo, node.hi));
                self.nodes[n as usize].level = FREE_LEVEL;
                self.free.push(n);
                self.dead -= 1;
                freed += 1;
            }
        }
        if freed > 0 {
            // GC-aware memo invalidation: drop exactly the entries naming a
            // freed node; survivors are still canonical.
            let nodes = &self.nodes;
            let alive = |id: NodeId| id <= TRUE || nodes[id as usize].level < FREE_LEVEL;
            self.ite_cache
                .retain(|&(f, g, h), &mut r| alive(f) && alive(g) && alive(h) && alive(r));
            self.gc_epoch += 1;
        }
        self.gc_runs += 1;
        self.gc_freed += freed;
        kpt_obs::counter!("bdd.gc.runs").incr();
        kpt_obs::counter!("bdd.gc.freed").add(freed);
    }

    /// A sifting pass over all current/next level groups, largest first.
    /// Each group is moved through every order position and parked where
    /// the live node count was smallest; groups stay intact (current level
    /// immediately above its next-state partner) so the shift renamings
    /// stay monotone.
    pub(crate) fn sift(&mut self, temp_roots: &[NodeId]) {
        let _span = kpt_obs::span("bdd.reorder");
        for &r in temp_roots {
            self.inc_rc(r);
        }
        // Sweep first: sifting dead nodes is wasted motion, and the live
        // count is the metric being minimised.
        self.sweep();
        let ngroups = self.level_at.len() / 2;
        if ngroups >= 2 {
            self.rebuild_level_nodes();
            self.in_sift = true;
            let max_growth = match self.reorder {
                ReorderPolicy::SiftOnGrowth {
                    max_growth_percent, ..
                } => max_growth_percent,
                ReorderPolicy::Disabled => 20,
            };
            // Largest groups first; ties by group id for determinism.
            let mut sizes = vec![0usize; ngroups];
            for n in 2..self.nodes.len() {
                let level = self.nodes[n].level;
                if level < FREE_LEVEL && self.rc[n] > 0 && (level as usize) / 2 < ngroups {
                    sizes[level as usize / 2] += 1;
                }
            }
            let mut order: Vec<usize> = (0..ngroups).collect();
            order.sort_by_key(|&g| (std::cmp::Reverse(sizes[g]), g));
            for g in order {
                self.sift_group(g as u32, ngroups as u32, max_growth);
            }
            self.in_sift = false;
            for list in &mut self.level_nodes {
                list.clear();
                list.shrink_to_fit();
            }
            // Sifting rewrote nodes in place; sweep the leftovers. The ite
            // memo goes entirely: slots freed mid-pass may already have
            // been recycled for different functions, which the sweep's
            // alive-check purge cannot see.
            self.sweep();
            self.ite_cache.clear();
            self.ite_evictions += 1;
            self.gc_epoch += 1;
        }
        self.reorder_runs += 1;
        kpt_obs::counter!("bdd.reorder.runs").incr();
        if let ReorderPolicy::SiftOnGrowth { trigger_nodes, .. } = self.reorder {
            self.next_reorder_at = trigger_nodes.max(self.live_nodes().saturating_mul(2));
        }
        for &r in temp_roots {
            self.dec_rc(r);
        }
        self.sample_gauges("sift.post");
    }

    fn rebuild_level_nodes(&mut self) {
        for list in &mut self.level_nodes {
            list.clear();
        }
        for n in 2..self.nodes.len() {
            let level = self.nodes[n].level;
            if level < FREE_LEVEL {
                self.level_nodes[level as usize].push(n as u32);
            }
        }
    }

    /// Sift one group to its best position: walk it down to the bottom,
    /// back up to the top, then park it where the live count was minimal.
    fn sift_group(&mut self, group: u32, ngroups: u32, max_growth_percent: u32) {
        let cur_level = group * 2;
        debug_assert_eq!(self.pos(cur_level) % 2, 0, "group alignment");
        debug_assert_eq!(
            self.pos(cur_level) + 1,
            self.pos(cur_level + 1),
            "current/next pairing"
        );
        let start = self.pos(cur_level) / 2;
        let mut k = start;
        let mut best_size = self.live_nodes();
        let mut best_k = start;
        let cap = |best: usize| best + best * max_growth_percent as usize / 100;
        while k + 1 < ngroups {
            self.swap_groups(k);
            k += 1;
            let s = self.live_nodes();
            if s < best_size {
                best_size = s;
                best_k = k;
            } else if s > cap(best_size) {
                break;
            }
        }
        while k > 0 {
            self.swap_groups(k - 1);
            k -= 1;
            let s = self.live_nodes();
            if s < best_size {
                best_size = s;
                best_k = k;
            } else if s > cap(best_size) && k < start {
                // Past the original position and still growing: stop.
                break;
            }
        }
        while k < best_k {
            self.swap_groups(k);
            k += 1;
        }
        while k > best_k {
            self.swap_groups(k - 1);
            k -= 1;
        }
    }

    /// Swap the adjacent groups at group positions `k` and `k + 1`
    /// (four adjacent level swaps, preserving in-group order).
    fn swap_groups(&mut self, k: u32) {
        let p = 2 * k;
        self.swap_positions(p + 1);
        self.swap_positions(p);
        self.swap_positions(p + 2);
        self.swap_positions(p + 1);
    }

    /// The reordering primitive: exchange the levels at positions `p` and
    /// `p + 1`, rewriting every node of the upper level in place. Node ids
    /// keep their functions, so nothing outside the manager notices.
    fn swap_positions(&mut self, p: u32) {
        let x = self.level_at[p as usize];
        let y = self.level_at[p as usize + 1];
        self.level_at[p as usize] = y;
        self.level_at[p as usize + 1] = x;
        self.pos_of[x as usize] = p + 1;
        self.pos_of[y as usize] = p;
        self.reorder_swaps += 1;
        kpt_obs::counter!("bdd.reorder.swaps").incr();
        let list = std::mem::take(&mut self.level_nodes[x as usize]);
        let mut keep = Vec::new();
        for n in list {
            if self.nodes[n as usize].level != x {
                continue; // freed or already rewritten
            }
            let Node { lo, hi, .. } = self.nodes[n as usize];
            if self.rc[n as usize] == 0 {
                // Dead: it holds no child references, so rewriting it
                // would only resurrect garbage — free the slot instead
                // (the pass-final sweep purges the memo).
                self.unique.remove(&(x, lo, hi));
                self.nodes[n as usize].level = FREE_LEVEL;
                self.free.push(n);
                self.dead -= 1;
                continue;
            }
            let lo_y = lo > TRUE && self.nodes[lo as usize].level == y;
            let hi_y = hi > TRUE && self.nodes[hi as usize].level == y;
            if !lo_y && !hi_y {
                // No `y` below: the node is unaffected by the exchange.
                keep.push(n);
                continue;
            }
            // f = x ? (y ? f11 : f10) : (y ? f01 : f00)  rewrites to
            // f = y ? (x ? f11 : f01) : (x ? f10 : f00).
            let (f00, f01) = if lo_y {
                let ln = self.nodes[lo as usize];
                (ln.lo, ln.hi)
            } else {
                (lo, lo)
            };
            let (f10, f11) = if hi_y {
                let hn = self.nodes[hi as usize];
                (hn.lo, hn.hi)
            } else {
                (hi, hi)
            };
            self.unique.remove(&(x, lo, hi));
            let a = self.make_node(x, f00, f10);
            let b = self.make_node(x, f01, f11);
            // At least one cofactor pair differs (the node depended on y),
            // so the rewritten node never collapses.
            debug_assert_ne!(a, b, "swap produced a redundant node");
            self.inc_rc(a);
            self.inc_rc(b);
            self.dec_rc(lo);
            self.dec_rc(hi);
            self.nodes[n as usize] = Node {
                level: y,
                lo: a,
                hi: b,
            };
            let prev = self.unique.insert((y, a, b), n);
            debug_assert!(prev.is_none(), "swap collided in the unique table");
            self.level_nodes[y as usize].push(n);
        }
        self.level_nodes[x as usize].extend(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_literals() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        assert_ne!(x, y);
        // Hash-consing: the same literal is the same node.
        assert_eq!(x, m.literal(0));
        assert_eq!(m.num_nodes(), 4);
    }

    #[test]
    fn ite_boolean_algebra() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        let and = m.and(x, y);
        let or = m.or(x, y);
        let nx = m.not(x);
        // De Morgan: ¬(x ∧ y) = ¬x ∨ ¬y.
        let ny = m.not(y);
        let lhs = m.not(and);
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
        // Absorption: x ∨ (x ∧ y) = x.
        assert_eq!(m.or(x, and), x);
        // Implication / iff agree with truth tables.
        let imp = m.implies(x, y);
        for (vx, vy) in [(false, false), (false, true), (true, false), (true, true)] {
            let bit = |l: u32| if l == 0 { vx } else { vy };
            assert_eq!(m.eval(and, bit), vx && vy);
            assert_eq!(m.eval(or, bit), vx || vy);
            assert_eq!(m.eval(imp, bit), !vx || vy);
        }
        let iff = m.iff(x, y);
        let xor = m.not(iff);
        assert!(m.eval(xor, |l| l == 0));
        assert!(!m.eval(xor, |_| true));
    }

    #[test]
    fn quantification() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        let and = m.and(x, y);
        // ∃y. x ∧ y = x; ∀y. x ∧ y = false; ∃x∃y. x ∧ y = true.
        assert_eq!(m.exists(and, &[2]), x);
        assert_eq!(m.forall(and, &[2]), FALSE);
        assert_eq!(m.exists(and, &[0, 2]), TRUE);
        // ∀y. x ∨ y = x.
        let or = m.or(x, y);
        assert_eq!(m.forall(or, &[2]), x);
    }

    #[test]
    fn rename_shifts_levels() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        let and = m.and(x, y);
        let shifted = m.map_levels(and, |l| l + 1);
        let x1 = m.literal(1);
        let y1 = m.literal(3);
        assert_eq!(shifted, m.and(x1, y1));
    }

    #[test]
    fn satcount_over_level_sets() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        let or = m.or(x, y);
        assert_eq!(m.satcount(or, &[0, 2]), 3);
        assert_eq!(m.satcount(or, &[0, 2, 4]), 6); // extra free level doubles
        assert_eq!(m.satcount(TRUE, &[0, 2]), 4);
        assert_eq!(m.satcount(FALSE, &[0, 2]), 0);
        assert_eq!(m.satcount(TRUE, &[]), 1);
    }

    #[test]
    fn witness_paths() {
        let mut m = Manager::new();
        assert!(m.witness_path(FALSE).is_none());
        assert_eq!(m.witness_path(TRUE), Some(vec![]));
        let x = m.literal(0);
        let y = m.literal(2);
        let and = m.and(x, y);
        let path = m.witness_path(and).unwrap();
        assert_eq!(path, vec![(0, true), (2, true)]);
    }

    #[test]
    fn cache_counters_move() {
        let mut m = Manager::new();
        let x = m.literal(0);
        let y = m.literal(2);
        m.and(x, y);
        let (h0, miss0, _, ins0, _) = m.ite_cache_stats();
        m.and(x, y); // same triple again: a hit
        let (h1, miss1, _, ins1, _) = m.ite_cache_stats();
        assert_eq!(h1, h0 + 1);
        assert_eq!(miss1, miss0);
        assert_eq!(ins1, ins0); // a hit inserts nothing
        assert!(ins0 > 0);
    }

    #[test]
    fn reachable_node_counts() {
        let mut m = Manager::new();
        let x = m.literal(0);
        assert_eq!(m.reachable_nodes(x), 1);
        assert_eq!(m.reachable_nodes(TRUE), 0);
        let y = m.literal(2);
        let or = m.or(x, y);
        assert_eq!(m.reachable_nodes(or), 2);
    }

    /// Build the pair-matching function ⋁ᵢ xᵢ ∧ yᵢ over `n` pairs, with
    /// the x block at levels `0..n` and the y block at `n..2n` — the
    /// classic order-sensitive family (linear interleaved, exponential
    /// separated).
    fn separated_pairs(m: &mut Manager, n: u32) -> NodeId {
        let mut acc = FALSE;
        for i in 0..n {
            let x = m.literal(i);
            let y = m.literal(n + i);
            let p = m.and(x, y);
            acc = m.or(acc, p);
        }
        acc
    }

    #[test]
    fn gc_reclaims_unrooted_nodes_and_keeps_roots_stable() {
        let mut m = Manager::with_config(BddConfig {
            gc: GcPolicy::OnGrowth {
                min_nodes: 1,
                dead_percent: 1,
            },
            reorder: ReorderPolicy::Disabled,
        });
        let keep = separated_pairs(&mut m, 4);
        m.add_root(keep);
        // Garbage: a large conjunction chain nobody roots.
        let mut junk = TRUE;
        for i in 0..8 {
            let l = m.literal(16 + i);
            junk = m.and(junk, l);
        }
        let before = m.num_nodes();
        m.checkpoint(&[]);
        let stats = m.gc_stats();
        assert!(stats.runs >= 1);
        assert!(stats.freed >= 8, "junk chain should be swept");
        assert!(stats.epoch >= 1);
        assert!(m.num_nodes() < before);
        // The rooted function survives, same id, same semantics.
        assert!(m.eval(keep, |l| l == 0 || l == 4));
        assert!(!m.eval(keep, |l| l == 0));
        // Rebuilding it lands on the very same (still canonical) id.
        assert_eq!(separated_pairs(&mut m, 4), keep);
        // Temp roots protect otherwise-dead results across a sweep.
        let tmp = separated_pairs(&mut m, 3);
        m.gc(&[tmp]);
        assert!(m.eval(tmp, |l| l == 0 || l == 3));
        m.release_root(keep);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut m = Manager::new();
        let mut junk = TRUE;
        for i in 0..6 {
            let l = m.literal(2 * i);
            junk = m.and(junk, l);
        }
        let _ = junk;
        let before = m.num_nodes();
        m.gc(&[]);
        // New allocations refill the freed slots before growing the table.
        let mut other = TRUE;
        for i in 0..5 {
            let l = m.literal(2 * i + 1);
            other = m.and(other, l);
        }
        let _ = other;
        assert!(m.num_nodes() <= before);
    }

    #[test]
    fn and_exists_matches_and_then_exists() {
        let mut m = Manager::new();
        let a = m.literal(0);
        let b = m.literal(1);
        let c = m.literal(2);
        let d = m.literal(3);
        let ab = m.or(a, b);
        let cd = m.iff(c, d);
        let f = m.and(ab, cd);
        let nc = m.not(c);
        let g = m.or(b, nc);
        for levels in [vec![0u32], vec![1, 2], vec![0, 1, 2, 3], vec![3]] {
            let conj = m.and(f, g);
            let expect = m.exists(conj, &levels);
            assert_eq!(m.and_exists(f, g, &levels), expect);
        }
        // Degenerate operands.
        assert_eq!(m.and_exists(TRUE, f, &[0, 1]), m.exists(f, &[0, 1]));
        assert_eq!(m.and_exists(f, FALSE, &[0, 1]), FALSE);
        assert_eq!(m.and_exists(f, f, &[2]), m.exists(f, &[2]));
    }

    /// Every assignment of the first `nlevels` levels, as a bit closure.
    fn assignments(nlevels: u32) -> impl Iterator<Item = impl Fn(u32) -> bool> {
        (0u64..(1 << nlevels)).map(move |mask| move |l: u32| mask >> l & 1 == 1)
    }

    #[test]
    fn swaps_preserve_semantics() {
        let mut m = Manager::new();
        m.register_levels(6);
        let f = separated_pairs(&mut m, 3);
        m.add_root(f);
        let g = {
            let a = m.literal(1);
            let b = m.literal(4);
            let i = m.iff(a, b);
            let c = m.literal(2);
            m.or(i, c)
        };
        m.add_root(g);
        m.rebuild_level_nodes();
        m.in_sift = true;
        for p in [0, 2, 4, 1, 3, 0, 2] {
            m.swap_positions(p);
            for bits in assignments(6) {
                let fm = (0..6).filter(|&l| bits(l)).fold(FALSE, |_, _| TRUE);
                let _ = fm;
            }
        }
        m.in_sift = false;
        // Functions are unchanged under any interleaving of swaps.
        for bits in assignments(6) {
            let expect_f = (0..3).any(|i| bits(i) && bits(3 + i));
            let expect_g = (bits(1) == bits(4)) || bits(2);
            assert_eq!(m.eval(f, &bits), expect_f);
            assert_eq!(m.eval(g, &bits), expect_g);
        }
        m.release_root(f);
        m.release_root(g);
    }

    #[test]
    fn sifting_shrinks_the_separated_pairs_family() {
        let n = 8u32;
        let mut m = Manager::new();
        // Levels 0..2n as n "groups" of two: group i holds (2i, 2i+1).
        // Build the bad-order pair function over group *leaders* so the
        // group invariant (pairs move together) is exercised.
        m.register_levels(4 * n as usize);
        let mut acc = FALSE;
        for i in 0..n {
            let x = m.literal(2 * i); // leader of group i
            let y = m.literal(2 * (n + i)); // leader of group n+i
            let p = m.and(x, y);
            acc = m.or(acc, p);
        }
        m.add_root(acc);
        let before = m.reachable_nodes(acc);
        assert!(
            before >= (1 << (n - 1)),
            "separated pairs must start exponential, got {before}"
        );
        m.sift(&[]);
        let after = m.reachable_nodes(acc);
        assert!(
            after <= 4 * n as usize,
            "sifting should reach a near-linear order, got {after}"
        );
        assert!(m.reorder_stats().runs == 1);
        assert!(m.reorder_stats().swaps > 0);
        // Semantics intact.
        for i in 0..n {
            assert!(m.eval(acc, |l| l == 2 * i || l == 2 * (n + i)));
        }
        assert!(!m.eval(acc, |_| false));
        // Group pairing survives: every current level sits immediately
        // above its next-state partner.
        for g in 0..2 * n {
            assert_eq!(m.pos(2 * g) + 1, m.pos(2 * g + 1));
            assert_eq!(m.pos(2 * g) % 2, 0);
        }
        m.release_root(acc);
    }

    #[test]
    fn checkpoint_triggers_sift_on_growth() {
        let mut m = Manager::with_config(BddConfig {
            gc: GcPolicy::default(),
            reorder: ReorderPolicy::SiftOnGrowth {
                trigger_nodes: 16,
                max_growth_percent: 20,
            },
        });
        m.register_levels(24);
        let mut acc = FALSE;
        for i in 0..6u32 {
            let x = m.literal(2 * i);
            let y = m.literal(2 * (6 + i));
            let p = m.and(x, y);
            acc = m.or(acc, p);
        }
        m.add_root(acc);
        assert_eq!(m.reorder_stats().runs, 0);
        m.checkpoint(&[]);
        assert_eq!(m.reorder_stats().runs, 1);
        assert!(m.reachable_nodes(acc) <= 24);
        // Re-armed: an immediate second checkpoint does not sift again.
        m.checkpoint(&[]);
        assert_eq!(m.reorder_stats().runs, 1);
        m.release_root(acc);
    }

    #[test]
    fn peak_nodes_tracks_high_water() {
        let mut m = Manager::new();
        let f = separated_pairs(&mut m, 5);
        let peak = m.peak_nodes();
        assert!(peak >= m.reachable_nodes(f));
        m.gc(&[]);
        // The peak does not drop when the table shrinks.
        assert_eq!(m.peak_nodes(), peak);
    }

    #[test]
    fn cube_builds_position_ordered_chains() {
        let mut m = Manager::new();
        m.register_levels(6);
        let direct = {
            let a = m.literal(0);
            let b = m.literal(3);
            let nb = m.not(b);
            let c = m.literal(5);
            let ab = m.and(a, nb);
            m.and(ab, c)
        };
        let mut lits = vec![(5u32, true), (0u32, true), (3u32, false)];
        assert_eq!(m.cube(&mut lits), direct);
    }
}
