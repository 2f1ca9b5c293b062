//! Finite relational structures with sorted tuple stores.

use crate::index::ColumnIndex;
use crate::{ConstId, RelId, Signature, StructureError};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// A domain element. Domains are always `{0, 1, …, n−1}`.
pub type Elem = u32;

/// The interpretation of one relation symbol: a set of tuples of a fixed
/// arity, stored as a flat, lexicographically sorted, deduplicated array
/// of rows.
///
/// Sorted flat storage gives cache-friendly iteration and `O(log m)`
/// membership without a per-tuple allocation; for the binary relations on
/// which graph algorithms run, [`Structure`] additionally maintains
/// forward and backward adjacency indexes. Hash indexes on other key
/// positions are built on demand by [`Relation::index`] and cached with
/// the relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    arity: usize,
    rows: Vec<Elem>,
    /// Derived from `rows`, so equality, hashing and serde ignore it.
    #[serde(skip, default)]
    indexes: IndexCache,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity && self.rows == other.rows
    }
}

impl Eq for Relation {}

impl std::hash::Hash for Relation {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arity.hash(state);
        self.rows.hash(state);
    }
}

/// The hash indexes [`Relation::index`] has built, at most one per key.
#[derive(Default)]
struct IndexCache(Mutex<Vec<Arc<ColumnIndex>>>);

impl IndexCache {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<ColumnIndex>>> {
        // A panic mid-build never pushes, so a poisoned cache is intact.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache(Mutex::new(self.lock().clone()))
    }
}

impl std::fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.lock().iter().map(|idx| idx.key()))
            .finish()
    }
}

impl Relation {
    fn from_rows(arity: usize, mut flat: Vec<Elem>) -> Relation {
        debug_assert!(arity >= 1);
        debug_assert_eq!(flat.len() % arity, 0);
        let n = flat.len() / arity;
        // Sort rows lexicographically by sorting row indices, then rebuild.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            flat[a * arity..(a + 1) * arity].cmp(&flat[b * arity..(b + 1) * arity])
        });
        let mut sorted = Vec::with_capacity(flat.len());
        let mut prev: Option<usize> = None;
        for &i in &order {
            let row = &flat[i * arity..(i + 1) * arity];
            if let Some(p) = prev {
                if &sorted[p * arity..(p + 1) * arity] == row {
                    continue;
                }
            }
            sorted.extend_from_slice(row);
            prev = Some(sorted.len() / arity - 1);
        }
        flat = sorted;
        flat.shrink_to_fit();
        Relation {
            arity,
            rows: flat,
            indexes: IndexCache::default(),
        }
    }

    /// The hash index keyed by the positions in `key`, built on first
    /// use and cached with the relation: later evaluations on this
    /// relation, and on every structure sharing it (clones, and
    /// [`Structure::extend`]), reuse it. It indexes this relation in
    /// place, so its row ids are positions in lexicographic order
    /// ([`Relation::row`]) and its probes read this relation. The
    /// build runs under the cache's lock; lookups after it only take
    /// the lock to clone the handle.
    pub fn index(&self, key: &[usize]) -> Arc<ColumnIndex> {
        let mut cache = self.indexes.lock();
        if let Some(idx) = cache.iter().find(|idx| idx.key() == key) {
            return Arc::clone(idx);
        }
        let mut idx = ColumnIndex::new(key);
        idx.extend(self);
        let idx = Arc::new(idx);
        cache.push(Arc::clone(&idx));
        idx
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples in the relation.
    pub fn len(&self) -> usize {
        self.rows.len() / self.arity
    }

    /// `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Membership test by binary search over the sorted rows.
    pub fn contains(&self, tuple: &[Elem]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.binary_search(tuple).is_ok()
    }

    fn binary_search(&self, tuple: &[Elem]) -> Result<usize, usize> {
        let a = self.arity;
        let n = self.len();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rows[mid * a..(mid + 1) * a].cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Iterates over the tuples in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = &[Elem]> + Clone + '_ {
        self.rows.chunks_exact(self.arity)
    }

    /// The contiguous range of row indices whose first `prefix.len()`
    /// components equal `prefix`, found by binary search over the
    /// sorted rows. An empty prefix selects every row.
    ///
    /// # Panics
    /// Panics (in debug builds) if `prefix` is longer than the arity.
    pub fn prefix_range(&self, prefix: &[Elem]) -> std::ops::Range<usize> {
        let k = prefix.len();
        debug_assert!(k <= self.arity);
        if k == 0 {
            return 0..self.len();
        }
        let a = self.arity;
        // partition_point over row indices, comparing only the prefix.
        let search = |below: bool| -> usize {
            let (mut lo, mut hi) = (0usize, self.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let row = &self.rows[mid * a..mid * a + k];
                let less = if below { row < prefix } else { row <= prefix };
                if less {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        search(true)..search(false)
    }

    /// Iterates over the rows at the given indices (see
    /// [`Relation::prefix_range`]).
    pub fn rows_in(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &[Elem]> {
        let a = self.arity;
        self.rows[range.start * a..range.end * a].chunks_exact(a)
    }

    /// The `i`-th tuple in lexicographic order.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[Elem] {
        &self.rows[i * self.arity..(i + 1) * self.arity]
    }
}

/// Compressed sparse row adjacency index for one binary relation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<Elem>,
}

impl Csr {
    fn build(size: u32, pairs: impl Iterator<Item = (Elem, Elem)> + Clone) -> Csr {
        let n = size as usize;
        let mut counts = vec![0u32; n + 1];
        for (u, _) in pairs.clone() {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as Elem; offsets[n] as usize];
        for (u, v) in pairs {
            let c = &mut cursor[u as usize];
            targets[*c as usize] = v;
            *c += 1;
        }
        // Keep each adjacency list sorted for deterministic iteration.
        for u in 0..n {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            targets[s..e].sort_unstable();
        }
        Csr { offsets, targets }
    }

    fn neighbors(&self, u: Elem) -> &[Elem] {
        let (s, e) = (
            self.offsets[u as usize] as usize,
            self.offsets[u as usize + 1] as usize,
        );
        &self.targets[s..e]
    }
}

/// An immutable finite relational structure (a database instance).
///
/// Built with [`StructureBuilder`]; the domain is `{0, …, size−1}`.
/// Relations and their adjacency indexes are shared, not owned: a clone
/// costs one reference count per relation, and [`Structure::extend`]
/// adds relations without copying the existing ones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Structure {
    sig: Arc<Signature>,
    size: u32,
    rels: Vec<Arc<Relation>>,
    consts: Vec<Elem>,
    /// Forward/backward adjacency, indexed like `rels`, present only for
    /// binary relations.
    #[serde(skip, default)]
    adj: Vec<Option<Arc<(Csr, Csr)>>>,
}

impl PartialEq for Structure {
    fn eq(&self, other: &Self) -> bool {
        self.sig == other.sig
            && self.size == other.size
            && self.rels == other.rels
            && self.consts == other.consts
    }
}

impl Eq for Structure {}

impl std::hash::Hash for Structure {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.size.hash(state);
        self.rels.hash(state);
        self.consts.hash(state);
    }
}

impl Structure {
    /// The signature of the structure.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// Domain size `n`; the domain is `{0, …, n−1}`.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Iterates over the domain `0..n`.
    pub fn domain(&self) -> impl Iterator<Item = Elem> + Clone {
        0..self.size
    }

    /// The interpretation of a relation symbol.
    pub fn rel(&self, r: RelId) -> &Relation {
        &self.rels[r.0]
    }

    /// The interpretation of a relation symbol, looked up by name.
    pub fn rel_by_name(&self, name: &str) -> Option<&Relation> {
        self.sig.relation(name).map(|r| self.rel(r))
    }

    /// The interpretation of a constant symbol.
    pub fn constant(&self, c: ConstId) -> Elem {
        self.consts[c.0]
    }

    /// All constant interpretations in declaration order.
    pub fn constants(&self) -> &[Elem] {
        &self.consts
    }

    /// Membership test `R(t̄)`.
    pub fn holds(&self, r: RelId, tuple: &[Elem]) -> bool {
        self.rels[r.0].contains(tuple)
    }

    /// `true` if `r` has forward and backward adjacency lists, so that
    /// [`Structure::out_neighbors`] and [`Structure::in_neighbors`]
    /// answer for it: every binary relation, except after
    /// deserialization until [`Structure::reindex`].
    pub fn has_adjacency(&self, r: RelId) -> bool {
        self.adj.get(r.0).is_some_and(Option::is_some)
    }

    /// Out-neighbors `{v | R(u, v)}` of `u` under a **binary** relation.
    ///
    /// # Panics
    /// Panics if `r` is not binary.
    pub fn out_neighbors(&self, r: RelId, u: Elem) -> &[Elem] {
        let (fwd, _) = self.adj[r.0]
            .as_deref()
            .expect("out_neighbors requires a binary relation");
        fwd.neighbors(u)
    }

    /// In-neighbors `{v | R(v, u)}` of `u` under a **binary** relation.
    ///
    /// # Panics
    /// Panics if `r` is not binary.
    pub fn in_neighbors(&self, r: RelId, u: Elem) -> &[Elem] {
        let (_, bwd) = self.adj[r.0]
            .as_deref()
            .expect("in_neighbors requires a binary relation");
        bwd.neighbors(u)
    }

    /// Out-degree of `u` under a binary relation.
    pub fn out_degree(&self, r: RelId, u: Elem) -> usize {
        self.out_neighbors(r, u).len()
    }

    /// In-degree of `u` under a binary relation.
    pub fn in_degree(&self, r: RelId, u: Elem) -> usize {
        self.in_neighbors(r, u).len()
    }

    /// Total number of tuples across all relations.
    pub fn num_tuples(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    /// This structure over `sig`, which appends `extra.len()` relations
    /// to this structure's signature; `extra[i]` holds the flat rows
    /// (tuples laid end to end) of the `i`-th appended relation. The
    /// existing relations, with their adjacency and cached indexes, are
    /// shared rather than copied, so the cost is that of the appended
    /// relations alone.
    ///
    /// # Errors
    /// [`StructureError::SignatureMismatch`] unless `sig` declares this
    /// structure's relations (same names, order and arities) and
    /// constants, then exactly `extra.len()` more relations;
    /// [`StructureError::ArityMismatch`] if an appended relation's rows
    /// leave a partial tuple (`got` is its length);
    /// [`StructureError::ElementOutOfRange`] for an element outside the
    /// domain.
    pub fn extend(
        &self,
        sig: Arc<Signature>,
        extra: Vec<Vec<Elem>>,
    ) -> Result<Structure, StructureError> {
        if !sig.extends(&self.sig) || sig.num_relations() != self.rels.len() + extra.len() {
            return Err(StructureError::SignatureMismatch);
        }
        let mut out = self.clone();
        for (i, flat) in extra.into_iter().enumerate() {
            let r = RelId(self.rels.len() + i);
            let arity = sig.arity(r);
            if flat.len() % arity != 0 {
                return Err(StructureError::ArityMismatch {
                    relation: sig.relation_name(r).to_owned(),
                    expected: arity,
                    got: flat.len() % arity,
                });
            }
            if let Some(&elem) = flat.iter().find(|&&e| e >= self.size) {
                return Err(StructureError::ElementOutOfRange {
                    elem,
                    size: self.size,
                });
            }
            let rel = Relation::from_rows(arity, flat);
            out.adj.push(build_adj(self.size, &rel));
            out.rels.push(Arc::new(rel));
        }
        out.sig = sig;
        Ok(out)
    }

    /// Disjoint union `A ⊎ B`: the elements of `B` are shifted up by
    /// `A.size()`.
    ///
    /// Only defined for signatures without constants (a constant cannot
    /// denote two elements at once).
    pub fn disjoint_union(&self, other: &Structure) -> Result<Structure, StructureError> {
        if self.sig != other.sig {
            return Err(StructureError::SignatureMismatch);
        }
        if self.sig.num_constants() > 0 {
            return Err(StructureError::UnassignedConstant(
                self.sig.constant_name(ConstId(0)).to_owned(),
            ));
        }
        let shift = self.size;
        let mut b = StructureBuilder::new(self.sig.clone(), self.size + other.size);
        for (r, _, _) in self.sig.relations() {
            for t in self.rel(r).iter() {
                b.add_unchecked(r, t);
            }
            let mut buf = Vec::new();
            for t in other.rel(r).iter() {
                buf.clear();
                buf.extend(t.iter().map(|&e| e + shift));
                b.add_unchecked(r, &buf);
            }
        }
        Ok(b.build_unchecked())
    }

    /// The substructure induced by `elems` (duplicates ignored).
    ///
    /// Returns the induced structure (with domain `{0, …, k−1}` in the
    /// order given by the sorted, deduplicated `elems`) together with the
    /// mapping `new → old`. Constants are only retained if the signature
    /// has none (constants outside the induced domain are not
    /// representable).
    ///
    /// # Panics
    /// Panics if the signature has constants, or an element is out of
    /// range.
    pub fn induced(&self, elems: &[Elem]) -> (Structure, Vec<Elem>) {
        assert_eq!(
            self.sig.num_constants(),
            0,
            "induced substructures require a constant-free signature"
        );
        let mut keep: Vec<Elem> = elems.to_vec();
        keep.sort_unstable();
        keep.dedup();
        assert!(keep.iter().all(|&e| e < self.size), "element out of range");
        // old -> new position; u32::MAX = dropped
        let mut pos = vec![u32::MAX; self.size as usize];
        for (i, &e) in keep.iter().enumerate() {
            pos[e as usize] = i as u32;
        }
        let mut b = StructureBuilder::new(self.sig.clone(), keep.len() as u32);
        let mut buf = Vec::new();
        for (r, _, _) in self.sig.relations() {
            'tuples: for t in self.rel(r).iter() {
                buf.clear();
                for &e in t {
                    let p = pos[e as usize];
                    if p == u32::MAX {
                        continue 'tuples;
                    }
                    buf.push(p);
                }
                b.add_unchecked(r, &buf);
            }
        }
        (b.build_unchecked(), keep)
    }

    /// Applies a bijective relabeling `perm` (`old → new`) to the
    /// structure; `perm` must be a permutation of `0..size`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `perm` is not a permutation.
    pub fn relabel(&self, perm: &[Elem]) -> Structure {
        debug_assert_eq!(perm.len(), self.size as usize);
        debug_assert!({
            let mut seen = vec![false; perm.len()];
            perm.iter().all(|&p| {
                let fresh = !seen[p as usize];
                seen[p as usize] = true;
                fresh
            })
        });
        let mut b = StructureBuilder::new(self.sig.clone(), self.size);
        let mut buf = Vec::new();
        for (r, _, _) in self.sig.relations() {
            for t in self.rel(r).iter() {
                buf.clear();
                buf.extend(t.iter().map(|&e| perm[e as usize]));
                b.add_unchecked(r, &buf);
            }
        }
        for (c, _) in self.sig.constants() {
            b.set_constant(c, perm[self.constant(c) as usize]);
        }
        b.build_unchecked()
    }

    /// Empties relation `r` of this structure: its rows, cached indexes
    /// and adjacency lists are dropped here, while every other
    /// structure sharing them keeps them.
    pub fn clear_relation(&mut self, r: RelId) {
        let rel = Relation::from_rows(self.sig.arity(r), Vec::new());
        if let Some(adj) = self.adj.get_mut(r.0) {
            *adj = build_adj(self.size, &rel);
        }
        self.rels[r.0] = Arc::new(rel);
    }

    /// Rebuilds the adjacency indexes. Needed after deserialization
    /// (indexes are not serialized).
    pub fn reindex(&mut self) {
        self.adj = self.rels.iter().map(|r| build_adj(self.size, r)).collect();
    }
}

/// Forward/backward adjacency of a binary relation; `None` otherwise.
fn build_adj(size: u32, rel: &Relation) -> Option<Arc<(Csr, Csr)>> {
    (rel.arity() == 2).then(|| {
        let fwd = Csr::build(size, rel.iter().map(|t| (t[0], t[1])));
        let bwd = Csr::build(size, rel.iter().map(|t| (t[1], t[0])));
        Arc::new((fwd, bwd))
    })
}

/// Incremental construction of a [`Structure`].
///
/// ```
/// use fmt_structures::{Signature, StructureBuilder};
/// let sig = Signature::graph();
/// let e = sig.relation("E").unwrap();
/// let mut b = StructureBuilder::new(sig, 3);
/// b.add(e, &[0, 1]).unwrap();
/// b.add(e, &[1, 2]).unwrap();
/// let s = b.build().unwrap();
/// assert!(s.holds(e, &[0, 1]));
/// assert!(!s.holds(e, &[1, 0]));
/// ```
#[derive(Debug, Clone)]
pub struct StructureBuilder {
    sig: Arc<Signature>,
    size: u32,
    flat: Vec<Vec<Elem>>,
    consts: Vec<Option<Elem>>,
}

impl StructureBuilder {
    /// Starts building a structure with domain `{0, …, size−1}`.
    pub fn new(sig: Arc<Signature>, size: u32) -> StructureBuilder {
        let nr = sig.num_relations();
        let nc = sig.num_constants();
        StructureBuilder {
            sig,
            size,
            flat: vec![Vec::new(); nr],
            consts: vec![None; nc],
        }
    }

    /// The domain size under construction.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The signature under construction.
    pub fn signature(&self) -> &Arc<Signature> {
        &self.sig
    }

    /// Adds a tuple to a relation, validating arity and range.
    pub fn add(&mut self, r: RelId, tuple: &[Elem]) -> Result<&mut Self, StructureError> {
        let arity = self.sig.arity(r);
        if tuple.len() != arity {
            return Err(StructureError::ArityMismatch {
                relation: self.sig.relation_name(r).to_owned(),
                expected: arity,
                got: tuple.len(),
            });
        }
        for &e in tuple {
            if e >= self.size {
                return Err(StructureError::ElementOutOfRange {
                    elem: e,
                    size: self.size,
                });
            }
        }
        self.flat[r.0].extend_from_slice(tuple);
        Ok(self)
    }

    /// Adds a tuple without validation; used internally on paths where
    /// tuples are known to be in range. Debug builds still assert.
    pub(crate) fn add_unchecked(&mut self, r: RelId, tuple: &[Elem]) {
        debug_assert_eq!(tuple.len(), self.sig.arity(r));
        debug_assert!(tuple.iter().all(|&e| e < self.size));
        self.flat[r.0].extend_from_slice(tuple);
    }

    /// Adds an edge to a binary relation (convenience for graphs).
    pub fn edge(&mut self, r: RelId, u: Elem, v: Elem) -> Result<&mut Self, StructureError> {
        self.add(r, &[u, v])
    }

    /// Assigns an interpretation to a constant symbol.
    pub fn set_constant(&mut self, c: ConstId, e: Elem) -> &mut Self {
        self.consts[c.0] = Some(e);
        self
    }

    /// Finishes building: sorts and deduplicates every relation and
    /// constructs adjacency indexes for the binary ones.
    pub fn build(self) -> Result<Structure, StructureError> {
        for (i, c) in self.consts.iter().enumerate() {
            match c {
                None => {
                    return Err(StructureError::UnassignedConstant(
                        self.sig.constant_name(ConstId(i)).to_owned(),
                    ))
                }
                Some(e) if *e >= self.size => {
                    return Err(StructureError::ElementOutOfRange {
                        elem: *e,
                        size: self.size,
                    })
                }
                _ => {}
            }
        }
        Ok(self.build_unchecked())
    }

    pub(crate) fn build_unchecked(self) -> Structure {
        let rels: Vec<Arc<Relation>> = self
            .flat
            .into_iter()
            .enumerate()
            .map(|(i, flat)| Arc::new(Relation::from_rows(self.sig.arity(RelId(i)), flat)))
            .collect();
        let adj = rels.iter().map(|r| build_adj(self.size, r)).collect();
        Structure {
            sig: self.sig,
            size: self.size,
            consts: self.consts.into_iter().map(|c| c.unwrap_or(0)).collect(),
            rels,
            adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: u32, edges: &[(Elem, Elem)]) -> Structure {
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let mut b = StructureBuilder::new(sig, n);
        for &(u, v) in edges {
            b.edge(e, u, v).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn relation_sorted_dedup() {
        let s = graph(3, &[(2, 1), (0, 1), (2, 1), (0, 1)]);
        let e = s.signature().relation("E").unwrap();
        let rows: Vec<Vec<Elem>> = s.rel(e).iter().map(<[u32]>::to_vec).collect();
        assert_eq!(rows, vec![vec![0, 1], vec![2, 1]]);
        assert_eq!(s.rel(e).len(), 2);
        assert_eq!(s.num_tuples(), 2);
    }

    #[test]
    fn membership() {
        let s = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let e = s.signature().relation("E").unwrap();
        assert!(s.holds(e, &[1, 2]));
        assert!(!s.holds(e, &[2, 1]));
        assert!(!s.holds(e, &[3, 3]));
    }

    #[test]
    fn adjacency() {
        let s = graph(4, &[(0, 1), (0, 2), (1, 2), (3, 0)]);
        let e = s.signature().relation("E").unwrap();
        assert_eq!(s.out_neighbors(e, 0), &[1, 2]);
        assert_eq!(s.in_neighbors(e, 0), &[3]);
        assert_eq!(s.out_degree(e, 3), 1);
        assert_eq!(s.in_degree(e, 2), 2);
        assert_eq!(s.out_neighbors(e, 2), &[] as &[Elem]);
    }

    #[test]
    fn builder_validation() {
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let mut b = StructureBuilder::new(sig, 2);
        assert!(matches!(
            b.add(e, &[0, 5]),
            Err(StructureError::ElementOutOfRange { elem: 5, size: 2 })
        ));
        assert!(matches!(
            b.add(e, &[0]),
            Err(StructureError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn unassigned_constant_rejected() {
        let sig = Signature::builder().constant("c").finish_arc();
        let b = StructureBuilder::new(sig, 1);
        assert!(matches!(
            b.build(),
            Err(StructureError::UnassignedConstant(_))
        ));
    }

    #[test]
    fn disjoint_union_shifts() {
        let a = graph(2, &[(0, 1)]);
        let b = graph(3, &[(0, 2)]);
        let u = a.disjoint_union(&b).unwrap();
        let e = u.signature().relation("E").unwrap();
        assert_eq!(u.size(), 5);
        assert!(u.holds(e, &[0, 1]));
        assert!(u.holds(e, &[2, 4]));
        assert_eq!(u.num_tuples(), 2);
    }

    #[test]
    fn induced_substructure() {
        let s = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (sub, map) = s.induced(&[1, 2, 4]);
        let e = sub.signature().relation("E").unwrap();
        assert_eq!(map, vec![1, 2, 4]);
        assert_eq!(sub.size(), 3);
        // Only the edge (1,2) survives, relabeled to (0,1).
        assert!(sub.holds(e, &[0, 1]));
        assert_eq!(sub.num_tuples(), 1);
    }

    #[test]
    fn relabel_roundtrip() {
        let s = graph(3, &[(0, 1), (1, 2)]);
        let perm = [2, 0, 1];
        let t = s.relabel(&perm);
        let e = t.signature().relation("E").unwrap();
        assert!(t.holds(e, &[2, 0]));
        assert!(t.holds(e, &[0, 1]));
        let inv = [1, 2, 0];
        assert_eq!(t.relabel(&inv), s);
    }

    /// `graph(…)`'s signature with a unary `P` appended.
    fn graph_plus_p() -> Arc<Signature> {
        Signature::builder()
            .relation("E", 2)
            .relation("P", 1)
            .finish_arc()
    }

    #[test]
    fn extend_shares_existing_relations() {
        let s = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let e = s.signature().relation("E").unwrap();
        let warm = s.rel(e).index(&[1]);
        let t = s.extend(graph_plus_p(), vec![vec![2, 0, 2]]).unwrap();
        let p = t.signature().relation("P").unwrap();
        assert!(std::ptr::eq(t.rel(e), s.rel(e)));
        assert!(Arc::ptr_eq(&t.rel(e).index(&[1]), &warm));
        assert_eq!(t.out_neighbors(e, 1), &[2]);
        let rows: Vec<&[Elem]> = t.rel(p).iter().collect();
        assert_eq!(
            rows,
            vec![&[0][..], &[2][..]],
            "appended rows sorted and deduplicated"
        );
        // Appended binary relations get adjacency like built ones.
        let sig = Signature::builder()
            .relation("E", 2)
            .relation("F", 2)
            .finish_arc();
        let t = s.extend(sig, vec![vec![3, 0]]).unwrap();
        let f = t.signature().relation("F").unwrap();
        assert_eq!(t.in_neighbors(f, 0), &[3]);
        assert_eq!(s.extend(s.signature().clone(), Vec::new()).unwrap(), s);
    }

    #[test]
    fn extend_rejects_signatures_that_do_not_extend() {
        let s = graph(3, &[(0, 1)]);
        let not_extending = [
            // Wrong arity, renamed, and reordered base relations.
            Signature::builder().relation("E", 3).finish_arc(),
            Signature::builder().relation("F", 2).finish_arc(),
            Signature::builder()
                .relation("P", 1)
                .relation("E", 2)
                .finish_arc(),
            // A constant the base does not declare.
            Signature::builder()
                .relation("E", 2)
                .relation("P", 1)
                .constant("c")
                .finish_arc(),
        ];
        for sig in not_extending {
            assert_eq!(
                s.extend(sig.clone(), vec![Vec::new()]),
                Err(StructureError::SignatureMismatch),
                "{sig:?}"
            );
        }
        // More or fewer appended relations than `extra` interprets.
        assert_eq!(
            s.extend(graph_plus_p(), Vec::new()),
            Err(StructureError::SignatureMismatch)
        );
        assert_eq!(
            s.extend(graph_plus_p(), vec![Vec::new(), Vec::new()]),
            Err(StructureError::SignatureMismatch)
        );
    }

    #[test]
    fn extend_rejects_malformed_tuples() {
        let s = graph(3, &[(0, 1)]);
        assert_eq!(
            s.extend(graph_plus_p(), vec![vec![1, 3]]),
            Err(StructureError::ElementOutOfRange { elem: 3, size: 3 })
        );
        let sig = Signature::builder()
            .relation("E", 2)
            .relation("F", 2)
            .finish_arc();
        assert!(matches!(
            s.extend(sig, vec![vec![0, 1, 2]]),
            Err(StructureError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    fn hash_of(s: &Structure) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cached_indexes_do_not_affect_eq_or_hash() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 1)];
        let (warm, cold) = (graph(3, &edges), graph(3, &edges));
        let e = warm.signature().relation("E").unwrap();
        let idx = warm.rel(e).index(&[1]);
        assert_eq!(idx.probe(warm.rel(e), &[1]).count(), 2);
        assert!(Arc::ptr_eq(&idx, &warm.rel(e).index(&[1])), "built once");
        assert_eq!(warm, cold);
        assert_eq!(warm.rel(e), cold.rel(e));
        assert_eq!(hash_of(&warm), hash_of(&cold));
    }

    #[test]
    fn clear_relation_leaves_other_sharers_intact() {
        let s = graph(3, &[(0, 1), (1, 2)]);
        let e = s.signature().relation("E").unwrap();
        let mut cleared = s.clone();
        cleared.clear_relation(e);
        assert!(cleared.rel(e).is_empty());
        assert!(cleared.has_adjacency(e));
        assert!(cleared.out_neighbors(e, 0).is_empty());
        assert_eq!(s.rel(e).len(), 2);
        assert_eq!(s.out_neighbors(e, 0), [1]);
    }

    #[test]
    fn serde_roundtrip_plus_reindex_is_equal() {
        let s = graph(3, &[(0, 1), (1, 2)]);
        let e = s.signature().relation("E").unwrap();
        let _ = s.rel(e).index(&[1]);
        // The value deserialization yields: serialized fields intact,
        // `#[serde(skip)]` ones (adjacency, index caches) defaulted.
        let mut t = Structure {
            sig: s.sig.clone(),
            size: s.size,
            rels: s
                .rels
                .iter()
                .map(|r| {
                    Arc::new(Relation {
                        arity: r.arity,
                        rows: r.rows.clone(),
                        indexes: IndexCache::default(),
                    })
                })
                .collect(),
            consts: s.consts.clone(),
            adj: Vec::new(),
        };
        t.reindex();
        assert_eq!(t, s);
        assert_eq!(hash_of(&t), hash_of(&s));
        assert_eq!(t.out_neighbors(e, 0), s.out_neighbors(e, 0));
        assert_eq!(t.in_neighbors(e, 2), s.in_neighbors(e, 2));
    }

    #[test]
    fn reindex_rebuilds_adjacency() {
        let s = graph(3, &[(0, 1), (1, 2)]);
        let e = s.signature().relation("E").unwrap();
        let mut t = s.clone();
        t.adj.clear(); // simulate a freshly deserialized structure
        assert!(!t.has_adjacency(e));
        t.reindex();
        assert!(t.has_adjacency(e));
        assert_eq!(t.out_neighbors(e, 1), s.out_neighbors(e, 1));
        assert_eq!(s, t);
    }
}
