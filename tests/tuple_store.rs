//! Property-based tests of the columnar tuple-storage subsystem: the
//! [`TupleStore`] dedup set against a `HashSet` model, row-id/arena
//! consistency, [`ColumnIndex`] probes against linear scans — each
//! also under a degenerate all-colliding hash function, so the
//! collision-verify paths carry the same properties as the fast paths —
//! and the radix-sorted row order against a comparison sort.

use fmt_core::structures::index::ColumnIndex;
use fmt_core::structures::store::TupleStore;
use fmt_core::structures::Elem;
use proptest::prelude::*;
use std::collections::HashSet;

/// A degenerate hash step: every element folds to the same hash, so
/// every row of a store (or every key of an index) lands in one bucket
/// and correctness rests entirely on column verification.
fn collide(h: u64, _e: Elem) -> u64 {
    h
}

/// A random tuple stream: an arity in `1..=3` and a flat pool of small
/// element values carved into `len` tuples (small values force plenty
/// of genuine duplicates).
fn arb_tuples() -> impl Strategy<Value = (usize, Vec<Vec<Elem>>)> {
    (
        1usize..=3,
        0usize..=96,
        proptest::collection::vec(0u32..6, 96),
    )
        .prop_map(|(arity, len_seed, pool)| {
            let len = len_seed % (96 / arity + 1);
            let tuples = (0..len)
                .map(|i| pool[i * arity..(i + 1) * arity].to_vec())
                .collect();
            (arity, tuples)
        })
}

fn check_store_against_model(arity: usize, tuples: &[Vec<Elem>], store: &mut TupleStore) {
    let mut model: HashSet<Vec<Elem>> = HashSet::new();
    for t in tuples {
        let fresh = model.insert(t.clone());
        let id = store.push_if_new(t);
        assert_eq!(
            id.is_some(),
            fresh,
            "push_if_new disagrees with model on {t:?}"
        );
        assert!(store.contains(t));
    }
    assert_eq!(store.len(), model.len());
    // Row ids address the arenas: every row reads back as a model tuple.
    for row in 0..store.len32() {
        let t: Vec<Elem> = (0..arity).map(|c| store.value(row, c)).collect();
        assert!(model.contains(&t), "row {row} holds non-model tuple {t:?}");
    }
    // Set equality both ways through the PartialEq bridges.
    assert_eq!(*store, model);
    assert_eq!(model, *store);
}

/// Drives an insert/remove stream against a `HashSet` model, checking
/// the logical-deletion contract after every op and the
/// revival/compaction contract at the end.
fn check_removals_against_model(arity: usize, ops: &[(bool, Vec<Elem>)], store: &mut TupleStore) {
    let mut model: HashSet<Vec<Elem>> = HashSet::new();
    let mut id_of: std::collections::HashMap<Vec<Elem>, u32> = std::collections::HashMap::new();
    for (insert, t) in ops {
        if *insert {
            let fresh = model.insert(t.clone());
            let id = store.push_if_new(t);
            assert_eq!(id.is_some(), fresh, "push_if_new vs model on {t:?}");
            if let Some(id) = id {
                // Re-inserting a removed tuple revives its original
                // row id; a genuinely new tuple gets a fresh row.
                match id_of.get(t) {
                    Some(&old) => assert_eq!(id, old, "revival must return the old row id"),
                    None => assert_eq!(id, store.rows32() - 1),
                }
                id_of.insert(t.clone(), id);
            }
        } else {
            let present = model.remove(t);
            let removed = store.remove(t);
            assert_eq!(removed.is_some(), present, "remove vs model on {t:?}");
            if let Some(id) = removed {
                assert_eq!(id, id_of[t], "remove reports the tuple's row id");
                assert!(!store.is_live(id));
            }
        }
        assert_eq!(store.contains(t), model.contains(t));
        assert_eq!(store.len(), model.len());
    }
    // Live iteration, equality bridges, and per-row liveness all agree
    // with the model.
    let live: HashSet<Vec<Elem>> = store.iter().collect();
    assert_eq!(live, model);
    assert_eq!(*store, model);
    assert_eq!(model, *store);
    let live_rows = (0..store.rows32()).filter(|&r| store.is_live(r)).count();
    assert_eq!(live_rows, model.len());
    assert_eq!(store.tombstones(), store.rows32() as usize - model.len());

    // Compaction drops every tombstone, keeps the live set, and the
    // remap sends live rows to their new ids and dead rows to MAX.
    let old_rows = store.rows32();
    let old_tuples: Vec<(bool, Vec<Elem>)> = (0..old_rows)
        .map(|r| {
            let t: Vec<Elem> = (0..arity).map(|c| store.value(r, c)).collect();
            (store.is_live(r), t)
        })
        .collect();
    let remap = store.compact();
    assert_eq!(remap.len(), old_rows as usize);
    assert_eq!(store.tombstones(), 0);
    assert_eq!(store.len(), model.len());
    assert_eq!(store.rows32() as usize, model.len());
    for (old, (was_live, t)) in old_tuples.iter().enumerate() {
        if *was_live {
            let new = remap[old];
            assert_ne!(new, u32::MAX, "live row lost by compaction");
            let got: Vec<Elem> = (0..arity).map(|c| store.value(new, c)).collect();
            assert_eq!(got, *t, "remap moved row {old} to the wrong tuple");
        } else {
            assert_eq!(remap[old], u32::MAX, "dead row survived compaction");
        }
    }
    assert_eq!(*store, model);
    // The rebuilt dedup table still deduplicates: nothing in the model
    // can be pushed again.
    for t in &model {
        assert!(store.push_if_new(t).is_none());
    }
}

/// An insert/remove op stream over a shared small-value pool: inserts
/// and removes of overlapping tuples, so streams revive rows, remove
/// absent tuples, and double-remove.
fn arb_update_ops() -> impl Strategy<Value = (usize, Vec<(bool, Vec<Elem>)>)> {
    (arb_tuples(), proptest::collection::vec(any::<bool>(), 96)).prop_map(
        |((arity, tuples), bits)| {
            let ops = tuples
                .into_iter()
                .zip(bits)
                .map(|(t, insert)| (insert, t))
                .collect();
            (arity, ops)
        },
    )
}

/// Element values on both sides of every byte boundary of a `u32`,
/// so the radix sort's per-byte passes and skipped high bytes are all
/// exercised.
const BYTE_EDGES: [Elem; 12] = [
    0,
    1,
    255,
    256,
    257,
    65_535,
    65_536,
    (1 << 24) - 1,
    1 << 24,
    (1 << 24) + 1,
    u32::MAX - 1,
    u32::MAX,
];

/// An arity in `0..=4` and an insert/remove stream over 16 candidate
/// tuples drawn from [`BYTE_EDGES`]: the small candidate set makes
/// streams remove, double-remove and revive the same tuples.
fn arb_wide_ops() -> impl Strategy<Value = (usize, Vec<(bool, Vec<Elem>)>)> {
    (
        0usize..=4,
        proptest::collection::vec(0usize..BYTE_EDGES.len(), 64),
        proptest::collection::vec((any::<bool>(), 0usize..16), 64),
    )
        .prop_map(|(arity, pool, picks)| {
            let ops = picks
                .into_iter()
                .map(|(insert, k)| {
                    let t = (0..arity).map(|c| BYTE_EDGES[pool[(k * 4 + c) % 64]]);
                    (insert, t.collect())
                })
                .collect();
            (arity, ops)
        })
}

/// `sorted_rows` names exactly the live rows, in the order of a
/// comparison sort of their tuples.
fn assert_sorted_rows_sort_the_live_tuples(store: &TupleStore) {
    let got: Vec<Vec<Elem>> = store
        .sorted_rows()
        .into_iter()
        .map(|r| (0..store.arity()).map(|c| store.value(r, c)).collect())
        .collect();
    let mut want: Vec<Vec<Elem>> = store.iter().collect();
    want.sort();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `sorted_rows` agrees with sorting the live tuples after every
    /// insert, removal and revival, and again after compaction.
    #[test]
    fn sorted_rows_match_a_comparison_sort(input in arb_wide_ops()) {
        let (arity, ops) = input;
        let mut store = TupleStore::new(arity);
        for (insert, t) in &ops {
            if *insert {
                store.push_if_new(t);
            } else {
                store.remove(t);
            }
            assert_sorted_rows_sort_the_live_tuples(&store);
        }
        store.compact();
        assert_sorted_rows_sort_the_live_tuples(&store);
    }

    /// `push_if_new`/`contains`/`iter` agree exactly with a `HashSet`
    /// model on random tuple streams.
    #[test]
    fn store_agrees_with_hashset_model(input in arb_tuples()) {
        let (arity, tuples) = input;
        let mut store = TupleStore::new(arity);
        check_store_against_model(arity, &tuples, &mut store);
    }

    /// The same contract holds when every hash collides: the dedup set
    /// degenerates to one bucket and verification does all the work.
    #[test]
    fn store_model_survives_total_collision(input in arb_tuples()) {
        let (arity, tuples) = input;
        let mut store = TupleStore::with_hasher(arity, collide);
        check_store_against_model(arity, &tuples, &mut store);
    }

    /// Logical deletion agrees with the `HashSet` model: removal,
    /// revival of the original row id, tombstone counting, live
    /// iteration/equality, and compaction's remap.
    #[test]
    fn removals_agree_with_hashset_model(input in arb_update_ops()) {
        let (arity, ops) = input;
        let mut store = TupleStore::new(arity);
        check_removals_against_model(arity, &ops, &mut store);
    }

    /// The same deletion contract when every hash collides: removal,
    /// revival, and the compaction rebuild all walk one bucket chain.
    #[test]
    fn removals_survive_total_collision(input in arb_update_ops()) {
        let (arity, ops) = input;
        let mut store = TupleStore::with_hasher(arity, collide);
        check_removals_against_model(arity, &ops, &mut store);
    }

    /// After removals, `ColumnIndex::probe` skips tombstoned rows:
    /// it returns exactly what a liveness-filtered scan returns, with
    /// the real hash and the all-colliding one.
    #[test]
    fn column_index_probe_skips_dead_rows(
        input in arb_update_ops(),
        key_bits in 1usize..8,
    ) {
        let (arity, ops) = input;
        let key: Vec<usize> = (0..arity).filter(|p| key_bits & (1 << p) != 0).collect();
        let mut store = TupleStore::new(arity);
        for (insert, t) in &ops {
            if *insert {
                store.push_if_new(t);
            } else {
                store.remove(t);
            }
        }
        for hasher in [None, Some(collide as fn(u64, Elem) -> u64)] {
            let mut idx = match hasher {
                None => ColumnIndex::new(&key),
                Some(h) => ColumnIndex::with_hasher(&key, h),
            };
            idx.extend(&store);
            for (_, probe_tuple) in ops.iter().take(8) {
                let key_vals: Vec<Elem> = key.iter().map(|&p| probe_tuple[p]).collect();
                let mut got: Vec<u32> = idx.probe(&store, &key_vals).collect();
                got.sort_unstable();
                let want: Vec<u32> = (0..store.rows32())
                    .filter(|&row| {
                        store.is_live(row)
                            && key
                                .iter()
                                .zip(key_vals.iter())
                                .all(|(&p, &v)| store.value(row, p) == v)
                    })
                    .collect();
                assert_eq!(got, want, "key {key:?} vals {key_vals:?}");
            }
        }
    }

    /// `ColumnIndex::probe` returns exactly the rows a linear scan
    /// finds, for every key subset and probe value — with the real hash
    /// and with the all-colliding one.
    #[test]
    fn column_index_probe_agrees_with_scan(
        input in arb_tuples(),
        key_bits in 1usize..8,
    ) {
        let (arity, tuples) = input;
        let key: Vec<usize> = (0..arity).filter(|p| key_bits & (1 << p) != 0).collect();
        let store = TupleStore::from_rows(arity, tuples.iter().map(Vec::as_slice));
        for hasher in [None, Some(collide as fn(u64, Elem) -> u64)] {
            let mut idx = match hasher {
                None => ColumnIndex::new(&key),
                Some(h) => ColumnIndex::with_hasher(&key, h),
            };
            idx.extend(&store);
            for probe_tuple in tuples.iter().take(8) {
                let key_vals: Vec<Elem> = key.iter().map(|&p| probe_tuple[p]).collect();
                let mut got: Vec<u32> = idx.probe(&store, &key_vals).collect();
                got.sort_unstable();
                let want: Vec<u32> = (0..store.len32())
                    .filter(|&row| {
                        key.iter()
                            .zip(key_vals.iter())
                            .all(|(&p, &v)| store.value(row, p) == v)
                    })
                    .collect();
                assert_eq!(got, want, "key {key:?} vals {key_vals:?}");
            }
        }
    }
}
