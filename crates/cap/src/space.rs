//! Per-Process capability spaces.
//!
//! A Process never holds raw [`CapRef`]s; it holds small integer indices
//! ([`Cid`]) into its capability space, exactly like POSIX file descriptors
//! (§3.1: "the references behind the capabilities are protected by FractOS,
//! and Processes access them via indices in their capability space").
//! Insertion reuses the lowest free index, mirroring fd allocation.
//!
//! Revocation asks the opposite question — which slots hold this
//! reference? — so each space also keeps an ordered reverse index from
//! held reference to slot. [`CapSpace::remove_ref`] frees exactly the
//! holders of one reference in `O(holders + log n)` instead of scanning
//! every live slot.

use std::collections::{BTreeSet, BinaryHeap};

use crate::error::{CapError, Result};
use crate::ids::{CapRef, Cid};

/// Maximum number of capability slots per Process (quota, §4 mentions the
/// capability space "can be capped via quotas").
pub const DEFAULT_QUOTA: usize = 1 << 20;

/// A Process's table of capabilities.
#[derive(Debug, Clone)]
pub struct CapSpace {
    slots: Vec<Option<CapRef>>,
    // Min-heap of freed indices (stored negated in a max-heap).
    free: BinaryHeap<std::cmp::Reverse<u32>>,
    // Reverse index: one `index_key(cap, cid)` per live slot. A key packs
    // a 32-bit digest of the reference above the cid, so all holders of a
    // reference sit in one contiguous range in ascending cid order, at
    // 8 bytes of key per held capability. Digests of distinct references
    // may collide; a hit is confirmed against the slot's full `CapRef`.
    by_ref: BTreeSet<u64>,
    quota: usize,
    live: usize,
}

/// A 32-bit digest of a reference. Object ids are dense per owner, so the
/// object id's low bits dominate; owner and epoch are folded in so equal
/// ids from different owners or epochs usually land apart.
fn ref_digest(cap: CapRef) -> u64 {
    let h = cap.object.0
        ^ cap.epoch.0.rotate_left(32)
        ^ u64::from(cap.ctrl.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h ^ (h >> 32)) & 0xFFFF_FFFF
}

fn index_key(cap: CapRef, cid: u32) -> u64 {
    (ref_digest(cap) << 32) | u64::from(cid)
}

impl CapSpace {
    /// Creates an empty space with the default quota.
    pub fn new() -> Self {
        Self::with_quota(DEFAULT_QUOTA)
    }

    /// Creates an empty space with a specific slot quota.
    pub fn with_quota(quota: usize) -> Self {
        CapSpace {
            slots: Vec::new(),
            free: BinaryHeap::new(),
            by_ref: BTreeSet::new(),
            quota,
            live: 0,
        }
    }

    /// Inserts a capability at the lowest free index.
    pub fn insert(&mut self, cap: CapRef) -> Result<Cid> {
        if self.live >= self.quota {
            return Err(CapError::SpaceExhausted);
        }
        let cid = if let Some(std::cmp::Reverse(idx)) = self.free.pop() {
            self.slots[idx as usize] = Some(cap);
            Cid(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).map_err(|_| CapError::SpaceExhausted)?;
            self.slots.push(Some(cap));
            Cid(idx)
        };
        self.by_ref.insert(index_key(cap, cid.0));
        self.live += 1;
        Ok(cid)
    }

    /// Looks up the capability at `cid`.
    pub fn get(&self, cid: Cid) -> Result<CapRef> {
        self.slots
            .get(cid.0 as usize)
            .copied()
            .flatten()
            .ok_or(CapError::BadCid(cid))
    }

    /// Removes and returns the capability at `cid`, freeing the index.
    pub fn remove(&mut self, cid: Cid) -> Result<CapRef> {
        let slot = self
            .slots
            .get_mut(cid.0 as usize)
            .ok_or(CapError::BadCid(cid))?;
        let cap = slot.take().ok_or(CapError::BadCid(cid))?;
        self.by_ref.remove(&index_key(cap, cid.0));
        self.free.push(std::cmp::Reverse(cid.0));
        self.live -= 1;
        Ok(cap)
    }

    /// Removes every slot holding exactly `cap`, returning the freed
    /// indices in ascending order. Slots holding another reference with
    /// the same object id (a different owner or epoch) are untouched.
    pub fn remove_ref(&mut self, cap: CapRef) -> Vec<Cid> {
        let base = ref_digest(cap) << 32;
        let victims: Vec<Cid> = self
            .by_ref
            .range(base..=(base | 0xFFFF_FFFF))
            .map(|&key| Cid(key as u32))
            .filter(|&cid| self.slots[cid.0 as usize] == Some(cap))
            .collect();
        for &cid in &victims {
            let _ = self.remove(cid);
        }
        victims
    }

    /// Removes every slot whose capability satisfies `pred`, returning the
    /// freed indices in ascending order. This scans every live slot; use
    /// [`CapSpace::remove_ref`] when the victims are known references.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&CapRef) -> bool) -> Vec<Cid> {
        let victims: Vec<Cid> = self
            .iter()
            .filter(|(_, cap)| pred(cap))
            .map(|(cid, _)| cid)
            .collect();
        for &cid in &victims {
            let _ = self.remove(cid);
        }
        victims
    }

    /// Number of live capabilities.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the space holds no capabilities.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(cid, cap)` pairs of live slots.
    pub fn iter(&self) -> impl Iterator<Item = (Cid, CapRef)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.map(|cap| (Cid(i as u32), cap)))
    }

    /// Removes every capability, returning them (used on Process failure).
    pub fn drain_all(&mut self) -> Vec<CapRef> {
        let caps: Vec<CapRef> = self.slots.iter().copied().flatten().collect();
        self.slots.clear();
        self.free.clear();
        self.by_ref.clear();
        self.live = 0;
        caps
    }
}

impl Default for CapSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ControllerAddr, Epoch, ObjectId};

    fn cap(n: u64) -> CapRef {
        CapRef {
            ctrl: ControllerAddr(0),
            epoch: Epoch(0),
            object: ObjectId(n),
        }
    }

    #[test]
    fn inserts_use_lowest_free_index() {
        let mut s = CapSpace::new();
        assert_eq!(s.insert(cap(0)).unwrap(), Cid(0));
        assert_eq!(s.insert(cap(1)).unwrap(), Cid(1));
        assert_eq!(s.insert(cap(2)).unwrap(), Cid(2));
        s.remove(Cid(1)).unwrap();
        s.remove(Cid(0)).unwrap();
        // Lowest freed index first, like POSIX fds.
        assert_eq!(s.insert(cap(3)).unwrap(), Cid(0));
        assert_eq!(s.insert(cap(4)).unwrap(), Cid(1));
        assert_eq!(s.insert(cap(5)).unwrap(), Cid(3));
    }

    #[test]
    fn get_and_remove() {
        let mut s = CapSpace::new();
        let cid = s.insert(cap(7)).unwrap();
        assert_eq!(s.get(cid).unwrap().object, ObjectId(7));
        assert_eq!(s.remove(cid).unwrap().object, ObjectId(7));
        assert_eq!(s.get(cid), Err(CapError::BadCid(cid)));
        assert_eq!(s.remove(cid), Err(CapError::BadCid(cid)));
    }

    #[test]
    fn bad_indices_rejected() {
        let s = CapSpace::new();
        assert_eq!(s.get(Cid(42)), Err(CapError::BadCid(Cid(42))));
    }

    #[test]
    fn quota_enforced() {
        let mut s = CapSpace::with_quota(2);
        s.insert(cap(0)).unwrap();
        s.insert(cap(1)).unwrap();
        assert_eq!(s.insert(cap(2)), Err(CapError::SpaceExhausted));
        s.remove(Cid(0)).unwrap();
        assert!(s.insert(cap(3)).is_ok());
    }

    #[test]
    fn drain_all_empties() {
        let mut s = CapSpace::new();
        s.insert(cap(1)).unwrap();
        s.insert(cap(2)).unwrap();
        let drained = s.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
        assert_eq!(s.insert(cap(3)).unwrap(), Cid(0));
    }

    fn at(ctrl: u32, epoch: u64, n: u64) -> CapRef {
        CapRef {
            ctrl: ControllerAddr(ctrl),
            epoch: Epoch(epoch),
            object: ObjectId(n),
        }
    }

    /// The reverse index holds exactly one key per live slot.
    fn assert_index_consistent(s: &CapSpace) {
        let expect: BTreeSet<u64> = s.iter().map(|(cid, cap)| index_key(cap, cid.0)).collect();
        assert_eq!(s.by_ref, expect);
        assert_eq!(s.by_ref.len(), s.len());
    }

    #[test]
    fn remove_ref_frees_every_duplicate_holder() {
        let mut s = CapSpace::new();
        for n in [5, 1, 5, 5, 2] {
            s.insert(cap(n)).unwrap();
        }
        assert_eq!(s.remove_ref(cap(5)), vec![Cid(0), Cid(2), Cid(3)]);
        let live: Vec<_> = s.iter().map(|(cid, c)| (cid.0, c.object.0)).collect();
        assert_eq!(live, vec![(1, 1), (4, 2)]);
        assert_eq!(s.len(), 2);
        assert!(s.remove_ref(cap(5)).is_empty());
        assert_index_consistent(&s);
    }

    #[test]
    fn remove_ref_spares_same_object_id_of_other_owners_and_epochs() {
        let mut s = CapSpace::new();
        let target = at(0, 0, 7);
        for r in [at(1, 0, 7), target, at(0, 1, 7), at(2, 3, 7), target] {
            s.insert(r).unwrap();
        }
        assert_eq!(s.remove_ref(target), vec![Cid(1), Cid(4)]);
        let live: Vec<_> = s.iter().map(|(_, c)| c).collect();
        assert_eq!(live, vec![at(1, 0, 7), at(0, 1, 7), at(2, 3, 7)]);
        assert_index_consistent(&s);
    }

    #[test]
    fn remove_ref_confirms_digest_collisions_against_the_slot() {
        let (a, b) = (cap(1), cap(1 << 32));
        assert_ne!(a, b);
        assert_eq!(ref_digest(a), ref_digest(b), "test needs a real collision");
        let mut s = CapSpace::new();
        s.insert(b).unwrap();
        s.insert(a).unwrap();
        s.insert(b).unwrap();
        assert_eq!(s.remove_ref(a), vec![Cid(1)]);
        assert_eq!(s.remove_ref(b), vec![Cid(0), Cid(2)]);
        assert!(s.is_empty());
        assert_index_consistent(&s);
    }

    #[test]
    fn remove_ref_frees_lowest_indices_for_reuse() {
        let mut s = CapSpace::new();
        for n in [9, 1, 9, 2] {
            s.insert(cap(n)).unwrap();
        }
        s.remove_ref(cap(9));
        // Freed slots 0 and 2 are reused lowest first, then the tail grows.
        assert_eq!(s.insert(cap(3)).unwrap(), Cid(0));
        assert_eq!(s.insert(cap(4)).unwrap(), Cid(2));
        assert_eq!(s.insert(cap(5)).unwrap(), Cid(4));
        assert_index_consistent(&s);
    }

    #[test]
    fn remove_where_scans_by_predicate() {
        let mut s = CapSpace::new();
        for r in [at(1, 0, 1), at(2, 0, 1), at(1, 4, 2)] {
            s.insert(r).unwrap();
        }
        assert_eq!(
            s.remove_where(|c| c.ctrl == ControllerAddr(1)),
            vec![Cid(0), Cid(2)]
        );
        assert_eq!(s.get(Cid(1)).unwrap(), at(2, 0, 1));
        assert_index_consistent(&s);
    }

    #[test]
    fn drain_all_clears_the_reverse_index() {
        let mut s = CapSpace::new();
        s.insert(cap(1)).unwrap();
        s.insert(cap(2)).unwrap();
        s.drain_all();
        assert!(s.by_ref.is_empty());
        assert!(s.remove_ref(cap(2)).is_empty());
        assert_eq!(s.insert(cap(2)).unwrap(), Cid(0));
        assert_eq!(s.remove_ref(cap(2)), vec![Cid(0)]);
        assert_index_consistent(&s);
    }

    #[test]
    fn iter_yields_live_slots() {
        let mut s = CapSpace::new();
        s.insert(cap(1)).unwrap();
        let c = s.insert(cap(2)).unwrap();
        s.insert(cap(3)).unwrap();
        s.remove(c).unwrap();
        let live: Vec<_> = s.iter().map(|(_, c)| c.object.0).collect();
        assert_eq!(live, vec![1, 3]);
    }
}
