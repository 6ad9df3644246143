//! The counting phase's support counters, laid out as the frozen tree's
//! [`CounterPlacement`] says.
//!
//! A [`Tally`] owns one iteration's frozen tree together with wherever
//! its counters live: inside the tree (inline), in one segregated array
//! every worker increments (`L-*`), or in one private array per worker
//! (`LCA-GPP`). Each worker borrows its [`CounterRef`] through
//! [`Tally::with_counter`]; [`Tally::counts`] then returns the
//! per-candidate supports, reading the inline words, snapshotting the
//! shared array or summing the private ones.

use crate::count::CounterRef;
use crate::freeze::AnyFrozenTree;
use crate::policy::CounterPlacement;
use arm_mem::counters::reduce;
use arm_mem::{FlatCounters, LocalCounters};
use arm_metrics::{Shard, TalliedCounters};
use parking_lot::Mutex;

/// A frozen tree plus the counters its counting phase increments.
pub struct Tally {
    tree: AnyFrozenTree,
    slots: Slots,
}

enum Slots {
    Inline,
    Shared(FlatCounters),
    /// One array per worker. The lock is never contended (worker `t`
    /// only touches slot `t`); it hands `&mut` access through the shared
    /// `&Tally` every worker holds.
    PerThread(Vec<Mutex<LocalCounters>>),
}

impl Tally {
    /// Lays out counters for `tree`, counted by `n_workers` workers.
    pub fn new(tree: AnyFrozenTree, n_workers: usize) -> Self {
        let n = tree.n_cands() as usize;
        let slots = match tree.counter_placement() {
            CounterPlacement::Inline => Slots::Inline,
            CounterPlacement::Shared => Slots::Shared(FlatCounters::new(n)),
            CounterPlacement::PerThread => Slots::PerThread(
                (0..n_workers.max(1))
                    .map(|_| Mutex::new(LocalCounters::new(n)))
                    .collect(),
            ),
        };
        Tally { tree, slots }
    }

    /// The frozen tree being counted.
    pub fn tree(&self) -> &AnyFrozenTree {
        &self.tree
    }

    /// Runs `f` with worker `t`'s counter reference. Increments of a
    /// shared array are tallied into `shard` (counter increments and CAS
    /// retries) when one is given.
    pub fn with_counter<R>(
        &self,
        t: usize,
        shard: Option<&Shard>,
        f: impl FnOnce(&mut CounterRef<'_>) -> R,
    ) -> R {
        match (&self.slots, shard) {
            (Slots::Inline, _) => f(&mut CounterRef::Inline),
            (Slots::Shared(flat), Some(s)) => {
                f(&mut CounterRef::Shared(&TalliedCounters::new(flat, s)))
            }
            (Slots::Shared(flat), None) => f(&mut CounterRef::Shared(flat)),
            (Slots::PerThread(locals), _) => f(&mut CounterRef::Local(&mut locals[t].lock())),
        }
    }

    /// The per-candidate supports, indexed by candidate id.
    pub fn counts(self) -> Vec<u32> {
        match self.slots {
            Slots::Inline => self.tree.inline_counts(),
            Slots::Shared(flat) => flat.snapshot(),
            Slots::PerThread(locals) => reduce(
                &locals
                    .into_iter()
                    .map(Mutex::into_inner)
                    .collect::<Vec<_>>(),
            ),
        }
    }
}
