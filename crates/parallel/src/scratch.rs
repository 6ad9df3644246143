//! Thread-persistent counting scratch shared by the CCPD and PCCD
//! drivers.
//!
//! The pool keeps one [`CountScratch`] (bitmap, stamp tables, memo, trim
//! and frame buffers) per worker alive for the whole mining run; workers re-target their slot at each iteration's
//! tree ([`CountScratch::retarget`] re-zeroes the stamp table in place
//! and keeps every other allocation), so steady-state iterations allocate
//! nothing.

use arm_hashtree::CountScratch;
use parking_lot::{Mutex, MutexGuard};

/// One [`CountScratch`] slot per worker thread, living across iterations.
pub struct ScratchPool {
    slots: Vec<Mutex<CountScratch>>,
}

impl ScratchPool {
    /// Creates a pool of `p` slots for databases over `n_items` items.
    /// Stamp tables start empty; each worker sizes its slot via
    /// [`CountScratch::retarget`] once it knows the iteration's tree.
    pub fn new(p: usize, n_items: u32) -> Self {
        ScratchPool {
            slots: (0..p)
                .map(|_| Mutex::new(CountScratch::new(n_items, 0)))
                .collect(),
        }
    }

    /// Number of slots (the worker count the pool was built for).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Locks worker `t`'s slot. Slots map 1:1 to workers so the lock is
    /// never contended; it exists only to hand `&mut` scratch through the
    /// `Fn(usize)` worker closure the thread runner requires.
    pub fn slot(&self, t: usize) -> MutexGuard<'_, CountScratch> {
        self.slots[t].lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_independent_and_reusable() {
        let pool = ScratchPool::new(3, 64);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        std::thread::scope(|s| {
            for t in 0..3 {
                let pool = &pool;
                s.spawn(move || {
                    let mut slot = pool.slot(t);
                    slot.retarget(10 + t as u32);
                });
            }
        });
        // Re-targeting again (a new "iteration") must work on every slot.
        for t in 0..3 {
            pool.slot(t).retarget(100);
        }
    }
}
