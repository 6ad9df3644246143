//! Freezing a built tree into its placement-policy memory image.
//!
//! After the (possibly parallel) build phase, the tree is *frozen*: every
//! node, itemset and counter is emitted as a block of `u32` words into a
//! [`WordStore`], in the order and layout dictated by the
//! [`PlacementPolicy`]. For GPP this emission **is** the paper's
//! depth-first remapping step; for SPP/LPP it replays creation order into
//! the region; for CCPD it reproduces the scattered standard-malloc image.
//!
//! # Block encodings (all words `u32`)
//!
//! * internal node: `[node_id << 1, child_0 .. child_{H-1}]` (children are
//!   handles, `NULL_HANDLE` = empty cell);
//! * leaf node (linked): `[node_id << 1 | 1, n, entry_handle * n]`;
//! * leaf node (fused): `[node_id << 1 | 1, n, (cand_id, item*k, count?) * n]`;
//! * itemset block (linked): `[cand_id, item*k, count?]`.
//!
//! The optional `count` word is present only for inline counter placement.

use crate::build::{NodeView, TreeBuilder};
use crate::policy::{CounterPlacement, EmitOrder, LeafLayout, PlacementPolicy, StoreKind};
use arm_balance::HashFn;
use arm_mem::{
    ContiguousBuilder, ContiguousStore, Handle, ScatterBuilder, ScatterStore, WordStore,
    WordStoreBuilder, NULL_HANDLE,
};

/// The immutable, placement-laid-out candidate hash tree used by the
/// support-counting phase.
pub struct FrozenTree<S: WordStore> {
    pub(crate) store: S,
    pub(crate) root: Handle,
    pub(crate) k: u32,
    pub(crate) fanout: u32,
    pub(crate) n_nodes: u32,
    pub(crate) n_cands: u32,
    pub(crate) leaf_layout: LeafLayout,
    pub(crate) counters: CounterPlacement,
    /// The block holding candidate `c`'s words (for inline counters its
    /// count lives at word `1 + k`). `NULL_HANDLE` when the candidate
    /// never got inserted.
    pub(crate) cand_block: Vec<Handle>,
    /// For fused layout the candidate words live *inside* a leaf block at
    /// this word offset; for linked layout the offset is 0.
    pub(crate) cand_offset: Vec<u32>,
}

impl<S: WordStore> FrozenTree<S> {
    /// Itemset length of this iteration.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash-table fan-out `H`.
    pub fn fanout(&self) -> u32 {
        self.fanout
    }

    /// Number of reachable nodes (bounds the visited-stamp array).
    pub fn n_nodes(&self) -> u32 {
        self.n_nodes
    }

    /// Number of candidates the tree was built over.
    pub fn n_cands(&self) -> u32 {
        self.n_cands
    }

    /// True when support counters are stored inside the tree blocks.
    pub fn counters_inline(&self) -> bool {
        self.counters == CounterPlacement::Inline
    }

    /// Total bytes of the frozen image (Fig. 6 accounting).
    pub fn total_bytes(&self) -> usize {
        self.store.total_bytes()
    }

    /// Reads candidate `c`'s inline counter. Panics when counters are
    /// external (a [`crate::Tally`] owns them in that case).
    pub fn inline_count(&self, cand: u32) -> u32 {
        assert!(self.counters_inline(), "counters are external");
        let h = self.cand_block[cand as usize];
        if h == NULL_HANDLE {
            return 0;
        }
        self.store
            .load(h, self.cand_offset[cand as usize] + 1 + self.k)
    }

    /// Snapshot of all inline counters.
    pub fn inline_counts(&self) -> Vec<u32> {
        (0..self.n_cands).map(|c| self.inline_count(c)).collect()
    }

    /// Per-leaf entry counts, in emission order (balancing diagnostics).
    pub fn leaf_occupancy(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(h) = stack.pop() {
            let header = self.store.load(h, 0);
            if header & 1 == 1 {
                out.push(self.store.load(h, 1));
            } else {
                for cell in 0..self.fanout {
                    let c = self.store.load(h, 1 + cell);
                    if c != NULL_HANDLE {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }
}

/// A frozen tree over either storage backend, dispatched once per
/// counting call rather than per word access.
pub enum AnyFrozenTree {
    /// Region-placed (SPP/LPP/GPP/L-*/LCA).
    Contiguous(FrozenTree<ContiguousStore>),
    /// Standard-malloc baseline (CCPD).
    Scatter(FrozenTree<ScatterStore>),
}

impl AnyFrozenTree {
    /// Itemset length.
    pub fn k(&self) -> u32 {
        match self {
            AnyFrozenTree::Contiguous(t) => t.k(),
            AnyFrozenTree::Scatter(t) => t.k(),
        }
    }

    /// Number of reachable nodes.
    pub fn n_nodes(&self) -> u32 {
        match self {
            AnyFrozenTree::Contiguous(t) => t.n_nodes(),
            AnyFrozenTree::Scatter(t) => t.n_nodes(),
        }
    }

    /// Number of candidates.
    pub fn n_cands(&self) -> u32 {
        match self {
            AnyFrozenTree::Contiguous(t) => t.n_cands(),
            AnyFrozenTree::Scatter(t) => t.n_cands(),
        }
    }

    /// Where the tree's support counters live.
    pub(crate) fn counter_placement(&self) -> CounterPlacement {
        match self {
            AnyFrozenTree::Contiguous(t) => t.counters,
            AnyFrozenTree::Scatter(t) => t.counters,
        }
    }

    /// True when counters live inside tree blocks.
    pub fn counters_inline(&self) -> bool {
        self.counter_placement() == CounterPlacement::Inline
    }

    /// Total bytes of the frozen image.
    pub fn total_bytes(&self) -> usize {
        match self {
            AnyFrozenTree::Contiguous(t) => t.total_bytes(),
            AnyFrozenTree::Scatter(t) => t.total_bytes(),
        }
    }

    /// Snapshot of inline counters (panics when external).
    pub fn inline_counts(&self) -> Vec<u32> {
        match self {
            AnyFrozenTree::Contiguous(t) => t.inline_counts(),
            AnyFrozenTree::Scatter(t) => t.inline_counts(),
        }
    }

    /// Per-leaf entry counts.
    pub fn leaf_occupancy(&self) -> Vec<u32> {
        match self {
            AnyFrozenTree::Contiguous(t) => t.leaf_occupancy(),
            AnyFrozenTree::Scatter(t) => t.leaf_occupancy(),
        }
    }
}

/// Freezes `tree` according to `policy`.
pub fn freeze_policy<F: HashFn>(
    tree: &TreeBuilder<'_, F>,
    policy: PlacementPolicy,
) -> AnyFrozenTree {
    let order = policy.emit_order();
    let layout = policy.leaf_layout();
    let counters = policy.counter_placement();
    match policy.store_kind() {
        StoreKind::Contiguous => AnyFrozenTree::Contiguous(freeze_with(
            tree,
            ContiguousBuilder::new(),
            order,
            layout,
            counters,
        )),
        StoreKind::Scatter => AnyFrozenTree::Scatter(freeze_with(
            tree,
            ScatterBuilder::new(),
            order,
            layout,
            counters,
        )),
    }
}

/// Freezes `tree` into `store_builder` with explicit layout knobs.
pub fn freeze_with<F: HashFn, B: WordStoreBuilder>(
    tree: &TreeBuilder<'_, F>,
    mut store_builder: B,
    order: EmitOrder,
    layout: LeafLayout,
    counters: CounterPlacement,
) -> FrozenTree<B::Store> {
    let k = tree.cands.k();
    let fanout = tree.hash.fanout();
    let n_cands = tree.cands.len() as u32;
    let count_words = u32::from(counters == CounterPlacement::Inline);
    let cand_words = 1 + k + count_words; // cand_id + items + count?

    // Emission sequence of builder node indices.
    let mut seq = tree.reachable(); // DFS preorder
    if order == EmitOrder::Creation {
        seq.sort_unstable(); // StableVec index == creation order
    }

    // Snapshot the nodes once; sort leaf entries by candidate id so the
    // frozen image is canonical regardless of parallel insertion order.
    let views: Vec<(usize, NodeView)> = seq
        .iter()
        .map(|&idx| {
            let mut v = tree.node(idx);
            if let NodeView::Leaf { entries, .. } = &mut v {
                entries.sort_unstable();
            }
            (idx, v)
        })
        .collect();

    // Pass A: allocate blocks, assigning handles.
    let max_idx = views.iter().map(|(i, _)| *i).max().unwrap_or(0);
    let mut node_handle = vec![NULL_HANDLE; max_idx + 1];
    let mut cand_block = vec![NULL_HANDLE; n_cands as usize];
    let mut cand_offset = vec![0u32; n_cands as usize];

    // For Creation order + linked layout the itemset blocks are emitted as
    // a separate stretch in candidate order (see policy.rs docs); collect
    // them first.
    let mut creation_itemsets: Vec<u32> = Vec::new();

    for (idx, view) in &views {
        match view {
            NodeView::Internal { .. } => {
                node_handle[*idx] = store_builder.alloc(1 + fanout);
            }
            NodeView::Leaf { entries, .. } => {
                let n = entries.len() as u32;
                let leaf_words = match layout {
                    LeafLayout::Linked => 2 + n,
                    LeafLayout::Fused => 2 + n * cand_words,
                };
                let h = store_builder.alloc(leaf_words);
                node_handle[*idx] = h;
                match layout {
                    LeafLayout::Fused => {
                        for (e, &cand) in entries.iter().enumerate() {
                            cand_block[cand as usize] = h;
                            cand_offset[cand as usize] = 2 + e as u32 * cand_words;
                        }
                    }
                    LeafLayout::Linked => match order {
                        EmitOrder::DepthFirst => {
                            // Itemset blocks immediately follow their leaf
                            // (traversal order).
                            for &cand in entries {
                                cand_block[cand as usize] = store_builder.alloc(cand_words);
                            }
                        }
                        EmitOrder::Creation => {
                            creation_itemsets.extend(entries.iter().copied());
                        }
                    },
                }
            }
        }
    }
    if layout == LeafLayout::Linked && order == EmitOrder::Creation {
        creation_itemsets.sort_unstable();
        for cand in creation_itemsets {
            cand_block[cand as usize] = store_builder.alloc(cand_words);
        }
    }

    // Pass B: write contents.
    for (emit_id, (idx, view)) in views.iter().enumerate() {
        let h = node_handle[*idx];
        match view {
            NodeView::Internal { children, .. } => {
                store_builder.set(h, 0, (emit_id as u32) << 1);
                for (cell, child) in children.iter().enumerate() {
                    let ch = child.map_or(NULL_HANDLE, |c| node_handle[c]);
                    store_builder.set(h, 1 + cell as u32, ch);
                }
            }
            NodeView::Leaf { entries, .. } => {
                store_builder.set(h, 0, ((emit_id as u32) << 1) | 1);
                store_builder.set(h, 1, entries.len() as u32);
                for (e, &cand) in entries.iter().enumerate() {
                    match layout {
                        LeafLayout::Linked => {
                            let bh = cand_block[cand as usize];
                            store_builder.set(h, 2 + e as u32, bh);
                            write_cand_words(&mut store_builder, tree, bh, 0, cand);
                        }
                        LeafLayout::Fused => {
                            let off = 2 + e as u32 * cand_words;
                            write_cand_words(&mut store_builder, tree, h, off, cand);
                        }
                    }
                }
            }
        }
    }

    let root = node_handle[0];
    let n_nodes = views.len() as u32;
    FrozenTree {
        store: store_builder.finish(),
        root,
        k,
        fanout,
        n_nodes,
        n_cands,
        leaf_layout: layout,
        counters,
        cand_block,
        cand_offset,
    }
}

fn write_cand_words<F: HashFn, B: WordStoreBuilder>(
    b: &mut B,
    tree: &TreeBuilder<'_, F>,
    block: Handle,
    off: u32,
    cand: u32,
) {
    b.set(block, off, cand);
    for (j, &item) in tree.cands.get(cand).iter().enumerate() {
        b.set(block, off + 1 + j as u32, item);
    }
    // The count word (when present) was zero-initialized by alloc.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeBuilder;
    use crate::candidates::CandidateSet;
    use arm_balance::ModHash;

    fn sample_tree() -> (CandidateSet, ModHash) {
        let mut c = CandidateSet::new(2);
        for s in [[0u32, 1], [0, 2], [1, 2], [1, 3], [2, 3], [2, 5], [3, 4]] {
            c.push(&s);
        }
        (c, ModHash::new(2))
    }

    fn all_policies_trees(c: &CandidateSet, h: &ModHash) -> Vec<(PlacementPolicy, AnyFrozenTree)> {
        PlacementPolicy::ALL
            .into_iter()
            .map(|p| {
                let b = TreeBuilder::new(c, h, 2);
                b.insert_all();
                (p, freeze_policy(&b, p))
            })
            .collect()
    }

    #[test]
    fn every_policy_preserves_structure() {
        let (c, h) = sample_tree();
        for (p, t) in all_policies_trees(&c, &h) {
            assert_eq!(t.k(), 2, "{p}");
            assert_eq!(t.n_cands(), 7, "{p}");
            let occ = t.leaf_occupancy();
            let total: u32 = occ.iter().sum();
            assert_eq!(total, 7, "{p}: leaf occupancy {occ:?}");
            assert!(t.n_nodes() >= occ.len() as u32);
            assert!(t.total_bytes() > 0);
        }
    }

    #[test]
    fn inline_counters_start_at_zero() {
        let (c, h) = sample_tree();
        for (p, t) in all_policies_trees(&c, &h) {
            if t.counters_inline() {
                assert_eq!(t.inline_counts(), vec![0; 7], "{p}");
            }
        }
    }

    #[test]
    fn contiguous_image_is_smaller_than_scatter() {
        let (c, h) = sample_tree();
        let trees = all_policies_trees(&c, &h);
        let ccpd = trees
            .iter()
            .find(|(p, _)| *p == PlacementPolicy::Ccpd)
            .unwrap();
        let spp = trees
            .iter()
            .find(|(p, _)| *p == PlacementPolicy::Spp)
            .unwrap();
        assert!(
            ccpd.1.total_bytes() > spp.1.total_bytes(),
            "scatter {} vs region {}",
            ccpd.1.total_bytes(),
            spp.1.total_bytes()
        );
    }

    #[test]
    fn external_counter_policies_have_no_count_word() {
        let (c, h) = sample_tree();
        let b = TreeBuilder::new(&c, &h, 2);
        b.insert_all();
        let inline = freeze_with(
            &b,
            ContiguousBuilder::new(),
            EmitOrder::DepthFirst,
            LeafLayout::Linked,
            CounterPlacement::Inline,
        );
        let external = freeze_with(
            &b,
            ContiguousBuilder::new(),
            EmitOrder::DepthFirst,
            LeafLayout::Linked,
            CounterPlacement::Shared,
        );
        assert!(inline.total_bytes() > external.total_bytes());
        assert!(!external.counters_inline());
    }

    #[test]
    #[should_panic(expected = "external")]
    fn inline_count_panics_when_external() {
        let (c, h) = sample_tree();
        let b = TreeBuilder::new(&c, &h, 2);
        b.insert_all();
        let t = freeze_with(
            &b,
            ContiguousBuilder::new(),
            EmitOrder::Creation,
            LeafLayout::Linked,
            CounterPlacement::Shared,
        );
        t.inline_count(0);
    }

    #[test]
    fn fused_layout_places_cands_inside_leaves() {
        let (c, h) = sample_tree();
        let b = TreeBuilder::new(&c, &h, 2);
        b.insert_all();
        let t = freeze_with(
            &b,
            ContiguousBuilder::new(),
            EmitOrder::Creation,
            LeafLayout::Fused,
            CounterPlacement::Inline,
        );
        // Every candidate's block is a leaf block (offset > 0).
        for cand in 0..7usize {
            assert_ne!(t.cand_block[cand], NULL_HANDLE);
            assert!(t.cand_offset[cand] >= 2, "cand {cand} fused offset");
        }
    }

    #[test]
    fn depth_first_emission_orders_root_first() {
        let (c, h) = sample_tree();
        let b = TreeBuilder::new(&c, &h, 2);
        b.insert_all();
        let t = freeze_with(
            &b,
            ContiguousBuilder::new(),
            EmitOrder::DepthFirst,
            LeafLayout::Linked,
            CounterPlacement::Inline,
        );
        assert_eq!(t.root, 0, "root is the first emitted block");
    }
}
