//! The paper's memory placement policies (§5) as layout knobs.
//!
//! Every policy is a point in a small design space:
//!
//! | policy  | block store            | block order    | leaf layout | counters   |
//! |---------|------------------------|----------------|-------------|------------|
//! | CCPD    | scatter (std. malloc)  | creation       | linked      | inline     |
//! | SPP     | contiguous region      | creation       | linked      | inline     |
//! | LPP     | contiguous region      | creation       | fused       | inline     |
//! | GPP     | contiguous region      | depth-first    | linked      | inline     |
//! | L-SPP   | contiguous region      | creation       | linked      | shared     |
//! | L-LPP   | contiguous region      | creation       | fused       | shared     |
//! | L-GPP   | contiguous region      | depth-first    | linked      | shared     |
//! | LCA-GPP | contiguous region      | depth-first    | linked      | per-thread |
//!
//! *Linked* leaves reference their itemsets through handles (the paper's
//! list node → itemset pointers); *fused* leaves store the items inline
//! (the paper's LPP "reservation" that keeps a list node and its itemset
//! adjacent). *Inline* counters share blocks with read-only itemset data
//! (the false-sharing worst case); *shared* counters live in a separate
//! array all workers increment (the paper's segregated read-write region); *per-thread*
//! counters are private arrays merged by reduction (privatization).
//!
//! Note on SPP fidelity: the original SPP placed blocks in true malloc-call
//! order, interleaving node and list blocks. We emit node blocks in node
//! creation order followed by itemset blocks in candidate order — the
//! paper's "grouped regions" SPP variation — because the parallel build
//! makes the exact interleaving nondeterministic.

/// Which backend stores the frozen blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// One heap allocation per block (standard-malloc baseline).
    Scatter,
    /// Single bump region.
    Contiguous,
}

/// The order blocks are emitted into the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitOrder {
    /// Node-creation order (SPP-style, implicit placement).
    Creation,
    /// Depth-first traversal order (GPP remapping).
    DepthFirst,
}

/// How leaf entries store their itemsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafLayout {
    /// Leaf holds handles to separately allocated itemset blocks.
    Linked,
    /// Leaf holds the itemset words inline (LPP reservation).
    Fused,
}

/// Where support counters live. The counting phase lays its counters
/// out accordingly ([`crate::Tally`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterPlacement {
    /// A counter word inside each candidate's itemset block (base, SPP,
    /// LPP, GPP).
    Inline,
    /// One segregated array outside the tree, shared by every worker
    /// (`L-*`).
    Shared,
    /// One private array per worker, summed after counting (`LCA-GPP`).
    PerThread,
}

/// A named placement policy from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Standard-malloc baseline.
    Ccpd,
    /// Simple placement policy.
    Spp,
    /// Localized placement policy.
    Lpp,
    /// Global (depth-first remapped) placement policy.
    Gpp,
    /// SPP + segregated lock/counter region.
    LSpp,
    /// LPP + segregated lock/counter region.
    LLpp,
    /// GPP + segregated lock/counter region.
    LGpp,
    /// GPP + per-thread local counter arrays.
    LcaGpp,
}

impl PlacementPolicy {
    /// All policies in the order Fig. 13 plots them.
    pub const ALL: [PlacementPolicy; 8] = [
        PlacementPolicy::Ccpd,
        PlacementPolicy::Spp,
        PlacementPolicy::LSpp,
        PlacementPolicy::LLpp,
        PlacementPolicy::Gpp,
        PlacementPolicy::LGpp,
        PlacementPolicy::LcaGpp,
        PlacementPolicy::Lpp,
    ];

    /// The uniprocessor policies of Fig. 12.
    pub const UNIPROCESSOR: [PlacementPolicy; 4] = [
        PlacementPolicy::Ccpd,
        PlacementPolicy::Spp,
        PlacementPolicy::Lpp,
        PlacementPolicy::Gpp,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::Ccpd => "CCPD",
            PlacementPolicy::Spp => "SPP",
            PlacementPolicy::Lpp => "LPP",
            PlacementPolicy::Gpp => "GPP",
            PlacementPolicy::LSpp => "L-SPP",
            PlacementPolicy::LLpp => "L-LPP",
            PlacementPolicy::LGpp => "L-GPP",
            PlacementPolicy::LcaGpp => "LCA-GPP",
        }
    }

    /// Block store backend.
    pub fn store_kind(self) -> StoreKind {
        match self {
            PlacementPolicy::Ccpd => StoreKind::Scatter,
            _ => StoreKind::Contiguous,
        }
    }

    /// Block emission order.
    pub fn emit_order(self) -> EmitOrder {
        match self {
            PlacementPolicy::Gpp | PlacementPolicy::LGpp | PlacementPolicy::LcaGpp => {
                EmitOrder::DepthFirst
            }
            _ => EmitOrder::Creation,
        }
    }

    /// Leaf entry layout.
    pub fn leaf_layout(self) -> LeafLayout {
        match self {
            PlacementPolicy::Lpp | PlacementPolicy::LLpp => LeafLayout::Fused,
            _ => LeafLayout::Linked,
        }
    }

    /// Counter placement.
    pub fn counter_placement(self) -> CounterPlacement {
        match self {
            PlacementPolicy::Ccpd
            | PlacementPolicy::Spp
            | PlacementPolicy::Lpp
            | PlacementPolicy::Gpp => CounterPlacement::Inline,
            PlacementPolicy::LSpp | PlacementPolicy::LLpp | PlacementPolicy::LGpp => {
                CounterPlacement::Shared
            }
            PlacementPolicy::LcaGpp => CounterPlacement::PerThread,
        }
    }
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PlacementPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.to_ascii_uppercase().replace('_', "-");
        PlacementPolicy::ALL
            .into_iter()
            .find(|p| p.name() == norm)
            .ok_or_else(|| format!("unknown placement policy: {s}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        use PlacementPolicy::*;
        assert_eq!(Ccpd.store_kind(), StoreKind::Scatter);
        for p in [Spp, Lpp, Gpp, LSpp, LLpp, LGpp, LcaGpp] {
            assert_eq!(p.store_kind(), StoreKind::Contiguous);
        }
        assert_eq!(Gpp.emit_order(), EmitOrder::DepthFirst);
        assert_eq!(Spp.emit_order(), EmitOrder::Creation);
        assert_eq!(Lpp.leaf_layout(), LeafLayout::Fused);
        assert_eq!(Gpp.leaf_layout(), LeafLayout::Linked);
        for p in [Ccpd, Spp, Lpp, Gpp] {
            assert_eq!(p.counter_placement(), CounterPlacement::Inline, "{p}");
        }
        for p in [LSpp, LLpp, LGpp] {
            assert_eq!(p.counter_placement(), CounterPlacement::Shared, "{p}");
        }
        assert_eq!(LcaGpp.counter_placement(), CounterPlacement::PerThread);
    }

    #[test]
    fn names_round_trip() {
        for p in PlacementPolicy::ALL {
            let parsed: PlacementPolicy = p.name().parse().unwrap();
            assert_eq!(parsed, p);
            assert_eq!(format!("{p}"), p.name());
        }
        assert!("nope".parse::<PlacementPolicy>().is_err());
        assert_eq!(
            "lca-gpp".parse::<PlacementPolicy>().unwrap(),
            PlacementPolicy::LcaGpp
        );
    }
}
