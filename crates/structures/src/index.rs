//! Shared keyed-access layer for the join engines.
//!
//! Both the Datalog fixpoint engine (`fmt-queries`) and the relational
//! algebra evaluator (`fmt-eval`) join relations by repeatedly asking
//! "which rows hold these values at these positions?". Answering that
//! by rescanning the full extent per partial binding is what made the
//! survey's fixpoint workloads slow; this module centralizes the fast
//! answers instead:
//!
//! * [`probe_prefix`] — binary-searches the sorted flat storage of an
//!   EDB [`Relation`] when the bound positions form a prefix (no build
//!   cost, reuses the sort that [`Relation`] maintains anyway);
//! * [`note_probe`] — meters a probe answered elsewhere, such as from
//!   a binary relation's adjacency lists in [`crate::Structure`];
//! * [`ColumnIndex`] — a hash index keyed by an arbitrary subset of
//!   positions over any [`Rows`] source: a [`TupleStore`]'s column
//!   arenas (maintained incrementally as the fixpoint loop appends), a
//!   [`Relation`]'s sorted rows, or a slice of rows. It owns no row
//!   data and yields row ids.
//!
//! The index keys its buckets by a **hash of the keyed columns**
//! (`HashMap<u64, Vec<u32>>`), folding the projected values directly
//! into the hash — building and probing never materialize a key
//! `Vec<Elem>`. Hash collisions are resolved by verifying every bucket
//! candidate's keyed columns against the probe values, so a degenerate
//! hash function changes performance, never answers (the collision
//! tests below force exactly that on every row source).
//!
//! Every probe and scan is metered so `fmtk --stats` and the perf
//! regression tests can compare indexed and scan evaluation exactly.
//! The metric names live under `queries.index.*` because the query
//! engine is the primary customer, but the counters cover every user of
//! this module:
//!
//! * `queries.index.builds` / `queries.index.build_tuples` — index
//!   construction work;
//! * `queries.index.probe_ops` — probe operations issued;
//! * `queries.index.probes` — candidate tuples yielded by probes (the
//!   indexed engine's "tuple comparisons");
//! * `queries.index.scan_tuples` — tuples visited by full scans that an
//!   index-aware engine still had to do (unbound atoms, delta drivers).

use crate::store::{fnv_step, ElemHasher, TupleStore, FNV_SEED};
use crate::{Elem, Relation};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Passes an already-hashed `u64` key through unchanged. The index maps
/// are keyed by FNV folds of the keyed columns, so running those keys
/// through SipHash again on every probe is pure overhead on the join
/// engine's hottest path.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("index maps are keyed by u64 hashes only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A bucket map keyed by a pre-computed hash (identity re-hash).
type BucketMap = HashMap<u64, Vec<u32>, BuildHasherDefault<PreHashed>>;

static OBS_BUILDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.builds");
static OBS_BUILD_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.build_tuples");
static OBS_PROBE_OPS: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.probe_ops");
static OBS_PROBES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.probes");
static OBS_SCAN_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.index.scan_tuples");

/// Records that an engine using the index layer fell back to visiting
/// `tuples` rows by full scan (no usable bound positions).
#[inline]
pub fn note_scan(tuples: u64) {
    OBS_SCAN_TUPLES.add(tuples);
}

/// Records one probe operation that yielded `candidates` tuples, for
/// engines that answer a probe from a structure they hold themselves
/// (such as a [`crate::Structure`]'s adjacency lists).
#[inline]
pub fn note_probe(candidates: u64) {
    OBS_PROBE_OPS.incr();
    OBS_PROBES.add(candidates);
}

/// Probes the sorted row storage of a [`Relation`] for all tuples whose
/// first `prefix.len()` components equal `prefix`, by binary search.
///
/// # Panics
/// Panics (in debug builds) if `prefix` is longer than the arity.
pub fn probe_prefix<'a>(rel: &'a Relation, prefix: &[Elem]) -> impl Iterator<Item = &'a [Elem]> {
    let range = rel.prefix_range(prefix);
    note_probe(range.len() as u64);
    rel.rows_in(range)
}

/// A row source a [`ColumnIndex`] can index: rows with dense ids
/// `0..rows32()`, read one value at a time.
pub trait Rows {
    /// One past the last row id.
    fn rows32(&self) -> u32;

    /// The value of row `id` at column `col`.
    fn value(&self, id: u32, col: usize) -> Elem;

    /// `false` for a deleted row, which probes skip.
    #[inline]
    fn is_live(&self, _id: u32) -> bool {
        true
    }
}

/// Arena rows, live or tombstoned.
impl Rows for TupleStore {
    #[inline]
    fn rows32(&self) -> u32 {
        TupleStore::rows32(self)
    }

    #[inline]
    fn value(&self, id: u32, col: usize) -> Elem {
        TupleStore::value(self, id, col)
    }

    #[inline]
    fn is_live(&self, id: u32) -> bool {
        TupleStore::is_live(self, id)
    }
}

/// Sorted rows: a row id is a position in lexicographic order.
impl Rows for Relation {
    #[inline]
    fn rows32(&self) -> u32 {
        self.len() as u32
    }

    #[inline]
    fn value(&self, id: u32, col: usize) -> Elem {
        self.row(id as usize)[col]
    }
}

/// Rows in slice order.
impl Rows for [&[Elem]] {
    #[inline]
    fn rows32(&self) -> u32 {
        self.len() as u32
    }

    #[inline]
    fn value(&self, id: u32, col: usize) -> Elem {
        self[id as usize][col]
    }
}

/// A keyed hash index over the rows of a [`Rows`] source.
///
/// A `ColumnIndex` owns no row data: it maps a hash of the keyed
/// columns to the ids of the rows holding those values, and
/// verification reads the source directly, so every probe is passed
/// the source the index was built over. `extend` picks up rows
/// appended since the last call, which is exactly the shape of the
/// semi-naive merge step (indexes always cover `0..rows32()`).
#[derive(Debug, Clone)]
pub struct ColumnIndex {
    key: Vec<usize>,
    map: BucketMap,
    built_upto: u32,
    hasher: ElemHasher,
}

impl ColumnIndex {
    /// An empty index keyed by the given positions.
    pub fn new(key: &[usize]) -> ColumnIndex {
        ColumnIndex::with_hasher(key, fnv_step)
    }

    /// An empty index with a custom hash-step function (collision tests
    /// install a constant step to force the verify path).
    pub fn with_hasher(key: &[usize], hasher: ElemHasher) -> ColumnIndex {
        OBS_BUILDS.incr();
        ColumnIndex {
            key: key.to_vec(),
            map: BucketMap::default(),
            built_upto: 0,
            hasher,
        }
    }

    /// The key positions this index is built on.
    pub fn key(&self) -> &[usize] {
        &self.key
    }

    /// The row id one past the last indexed row.
    pub fn built_upto(&self) -> u32 {
        self.built_upto
    }

    /// Indexes every row of `rows` appended since the previous
    /// `extend`.
    ///
    /// # Panics
    /// Panics if a key position is out of range for a row.
    #[inline]
    pub fn extend<R: Rows + ?Sized>(&mut self, rows: &R) {
        let upto = rows.rows32();
        for id in self.built_upto..upto {
            let h = self
                .key
                .iter()
                .fold(FNV_SEED, |h, &p| (self.hasher)(h, rows.value(id, p)));
            self.map.entry(h).or_default().push(id);
            OBS_BUILD_TUPLES.incr();
        }
        self.built_upto = upto;
    }

    /// Ids of the *live* rows of `rows` whose keyed columns hold
    /// exactly `key_vals`, in the order they were indexed. Candidates
    /// come from the hash bucket and are verified against `rows`, so
    /// collisions cannot leak wrong rows; a [`TupleStore`]'s
    /// tombstoned rows stay in the buckets until the store is
    /// compacted (and the index rebuilt), so liveness is checked here
    /// too.
    #[inline]
    pub fn probe<'a, R: Rows + ?Sized>(
        &'a self,
        rows: &'a R,
        key_vals: &'a [Elem],
    ) -> impl Iterator<Item = u32> + 'a {
        debug_assert_eq!(key_vals.len(), self.key.len());
        OBS_PROBE_OPS.incr();
        let h = key_vals.iter().fold(FNV_SEED, |h, &v| (self.hasher)(h, v));
        let ids: &[u32] = self.map.get(&h).map_or(&[], Vec::as_slice);
        OBS_PROBES.add(ids.len() as u64);
        ids.iter().copied().filter(move |&id| {
            rows.is_live(id)
                && self
                    .key
                    .iter()
                    .zip(key_vals.iter())
                    .all(|(&p, &v)| rows.value(id, p) == v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, Signature, StructureBuilder};

    /// The ids of `rows`' rows whose column 0 holds `k`, by scan.
    fn scan<R: Rows + ?Sized>(rows: &R, k: Elem) -> Vec<u32> {
        (0..rows.rows32())
            .filter(|&id| rows.value(id, 0) == k)
            .collect()
    }

    #[test]
    fn hash_index_probes_exact_matches() {
        let rows: [&[Elem]; 4] = [&[0, 1], &[2, 1], &[2, 3], &[4, 1]];
        let mut idx = ColumnIndex::new(&[1]);
        idx.extend(&rows[..]);
        let hits: Vec<u32> = idx.probe(&rows[..], &[1]).collect();
        assert_eq!(hits, vec![0, 1, 3]);
        assert_eq!(idx.probe(&rows[..], &[9]).count(), 0);
    }

    #[test]
    fn empty_key_yields_every_tuple() {
        let rows: [&[Elem]; 2] = [&[0, 1], &[2, 3]];
        let mut idx = ColumnIndex::new(&[]);
        idx.extend(&rows[..]);
        assert_eq!(idx.probe(&rows[..], &[]).count(), 2);
    }

    #[test]
    fn nullary_tuples_supported() {
        let rows: [&[Elem]; 1] = [&[]];
        let mut idx = ColumnIndex::new(&[]);
        idx.extend(&rows[..]);
        assert_eq!(idx.probe(&rows[..], &[]).count(), 1);
    }

    #[test]
    fn prefix_probe_matches_filter() {
        let s = builders::grid(4, 3);
        let e = Signature::graph().relation("E").unwrap();
        let rel = s.rel(e);
        for u in s.domain() {
            let probed: Vec<&[Elem]> = probe_prefix(rel, &[u]).collect();
            let scanned: Vec<&[Elem]> = rel.iter().filter(|t| t[0] == u).collect();
            assert_eq!(probed, scanned, "prefix [{u}]");
        }
        // Full-tuple prefix degenerates to membership.
        let first = rel.iter().next().unwrap().to_vec();
        assert_eq!(probe_prefix(rel, &first).count(), 1);
        // Empty prefix is the whole relation.
        assert_eq!(probe_prefix(rel, &[]).count(), rel.len());
    }

    #[test]
    fn column_index_probe_matches_scan() {
        let mut st = TupleStore::new(2);
        for t in [[0, 1], [2, 1], [2, 3], [4, 1]] {
            st.push_if_new(&t);
        }
        let mut idx = ColumnIndex::new(&[1]);
        idx.extend(&st);
        let hits: Vec<u32> = idx.probe(&st, &[1]).collect();
        assert_eq!(hits, vec![0, 1, 3]);
        assert_eq!(idx.probe(&st, &[9]).count(), 0);
        // Incremental extend picks up the appended rows only.
        st.push_if_new(&[6, 1]);
        idx.extend(&st);
        assert_eq!(idx.built_upto(), 5);
        let hits: Vec<u32> = idx.probe(&st, &[1]).collect();
        assert_eq!(hits, vec![0, 1, 3, 4]);
    }

    /// A hash step that ignores the value: every key collides.
    fn collide(h: u64, _e: Elem) -> u64 {
        h
    }

    #[test]
    fn column_index_survives_total_hash_collision() {
        // All keyed-column hashes are equal, so every probe walks one
        // bucket holding every row; verification against each row
        // source must still return exactly the matching ids.
        fn check<R: Rows + ?Sized>(rows: &R) {
            let mut idx = ColumnIndex::with_hasher(&[0], collide);
            idx.extend(rows);
            for k in 0..6u32 {
                let probed: Vec<u32> = idx.probe(rows, &[k]).collect();
                assert_eq!(probed, scan(rows, k), "key [{k}]");
            }
        }
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let mut st = TupleStore::new(2);
        let mut b = StructureBuilder::new(sig, 32);
        for u in 0..32u32 {
            st.push_if_new(&[u % 4, u]);
            b.add(e, &[u % 4, u]).unwrap();
        }
        check(&st);
        let s = b.build().unwrap();
        let rel = s.rel(e);
        check(rel);
        let rows: Vec<&[Elem]> = rel.iter().collect();
        check(&rows[..]);
    }

    #[test]
    fn relation_index_verifies_same_hash_different_keys() {
        // Distinct keyed values can share a bucket after hashing; the
        // probe must filter them out. Index a relation and check every
        // key against a scan to exercise whatever collisions occur.
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let mut b = StructureBuilder::new(sig, 256);
        for u in 0..256u32 {
            b.add(e, &[u % 16, u]).unwrap();
        }
        let s = b.build().unwrap();
        let rel = s.rel(e);
        let idx = rel.index(&[0]);
        for k in 0..16u32 {
            let probed: Vec<u32> = idx.probe(rel, &[k]).collect();
            assert_eq!(probed, scan(rel, k), "key [{k}]");
        }
    }
}
