//! Relational vocabularies (signatures).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a relation symbol within a [`Signature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelId(pub usize);

/// Identifier of a constant symbol within a [`Signature`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConstId(pub usize);

#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct RelDecl {
    name: String,
    arity: usize,
}

/// A relational vocabulary: finitely many relation symbols with fixed
/// arities, plus finitely many constant symbols.
///
/// Following the paper's standing convention ("Assume all structures are
/// relational"), there are no function symbols of arity ≥ 1. Signatures
/// are cheap to share via [`Arc`]; two signatures are interchangeable iff
/// they are structurally equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    rels: Vec<RelDecl>,
    consts: Vec<String>,
}

impl Signature {
    /// Starts building a signature.
    pub fn builder() -> SignatureBuilder {
        SignatureBuilder {
            sig: Signature {
                rels: Vec::new(),
                consts: Vec::new(),
            },
        }
    }

    /// The empty vocabulary — structures over it are pure sets.
    ///
    /// This is the vocabulary of the paper's first EVEN example.
    pub fn empty() -> Arc<Signature> {
        Arc::new(Signature {
            rels: Vec::new(),
            consts: Vec::new(),
        })
    }

    /// The graph vocabulary: one binary relation symbol `E`.
    pub fn graph() -> Arc<Signature> {
        Signature::builder().relation("E", 2).finish_arc()
    }

    /// The linear-order vocabulary: one binary relation symbol `<`.
    pub fn order() -> Arc<Signature> {
        Signature::builder().relation("<", 2).finish_arc()
    }

    /// The successor vocabulary: one binary relation symbol `S`.
    pub fn successor() -> Arc<Signature> {
        Signature::builder().relation("S", 2).finish_arc()
    }

    /// Number of relation symbols.
    pub fn num_relations(&self) -> usize {
        self.rels.len()
    }

    /// Number of constant symbols.
    pub fn num_constants(&self) -> usize {
        self.consts.len()
    }

    /// Looks up a relation symbol by name.
    pub fn relation(&self, name: &str) -> Option<RelId> {
        self.rels.iter().position(|r| r.name == name).map(RelId)
    }

    /// Looks up a constant symbol by name.
    pub fn constant(&self, name: &str) -> Option<ConstId> {
        self.consts.iter().position(|c| c == name).map(ConstId)
    }

    /// Arity of a relation symbol.
    ///
    /// # Panics
    /// Panics if `rel` does not belong to this signature.
    pub fn arity(&self, rel: RelId) -> usize {
        self.rels[rel.0].arity
    }

    /// Name of a relation symbol.
    ///
    /// # Panics
    /// Panics if `rel` does not belong to this signature.
    pub fn relation_name(&self, rel: RelId) -> &str {
        &self.rels[rel.0].name
    }

    /// Name of a constant symbol.
    ///
    /// # Panics
    /// Panics if `c` does not belong to this signature.
    pub fn constant_name(&self, c: ConstId) -> &str {
        &self.consts[c.0]
    }

    /// Iterates over all relation symbols as `(id, name, arity)`.
    pub fn relations(&self) -> impl Iterator<Item = (RelId, &str, usize)> {
        self.rels
            .iter()
            .enumerate()
            .map(|(i, r)| (RelId(i), r.name.as_str(), r.arity))
    }

    /// Iterates over all constant symbols as `(id, name)`.
    pub fn constants(&self) -> impl Iterator<Item = (ConstId, &str)> {
        self.consts
            .iter()
            .enumerate()
            .map(|(i, c)| (ConstId(i), c.as_str()))
    }

    /// `true` if this signature declares `base`'s relations (same
    /// names, arities and order) before any of its own, and exactly
    /// `base`'s constants — the signatures [`crate::Structure::extend`]
    /// accepts.
    pub fn extends(&self, base: &Signature) -> bool {
        self.rels.starts_with(&base.rels) && self.consts == base.consts
    }

    /// Maximum arity over all relation symbols (0 for the empty signature).
    pub fn max_arity(&self) -> usize {
        self.rels.iter().map(|r| r.arity).max().unwrap_or(0)
    }
}

/// Incremental construction of a [`Signature`].
///
/// ```
/// use fmt_structures::Signature;
/// let sig = Signature::builder()
///     .relation("E", 2)
///     .relation("Red", 1)
///     .constant("root")
///     .finish_arc();
/// assert_eq!(sig.num_relations(), 2);
/// assert_eq!(sig.arity(sig.relation("E").unwrap()), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SignatureBuilder {
    sig: Signature,
}

impl SignatureBuilder {
    /// Adds a relation symbol. Names must be unique.
    ///
    /// # Panics
    /// Panics if a symbol with the same name already exists or if the
    /// arity is zero (use a constant or a unary relation instead).
    pub fn relation(mut self, name: &str, arity: usize) -> Self {
        assert!(arity >= 1, "relation arity must be at least 1");
        assert!(
            self.sig.relation(name).is_none() && self.sig.constant(name).is_none(),
            "duplicate symbol {name}"
        );
        self.sig.rels.push(RelDecl {
            name: name.to_owned(),
            arity,
        });
        self
    }

    /// Adds a constant symbol. Names must be unique.
    ///
    /// # Panics
    /// Panics if a symbol with the same name already exists.
    pub fn constant(mut self, name: &str) -> Self {
        assert!(
            self.sig.relation(name).is_none() && self.sig.constant(name).is_none(),
            "duplicate symbol {name}"
        );
        self.sig.consts.push(name.to_owned());
        self
    }

    /// Finishes building.
    pub fn finish(self) -> Signature {
        self.sig
    }

    /// Finishes building, wrapped in an [`Arc`] for cheap sharing.
    pub fn finish_arc(self) -> Arc<Signature> {
        Arc::new(self.sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let sig = Signature::builder()
            .relation("E", 2)
            .relation("P", 1)
            .constant("c0")
            .finish();
        assert_eq!(sig.relation("E"), Some(RelId(0)));
        assert_eq!(sig.relation("P"), Some(RelId(1)));
        assert_eq!(sig.relation("Q"), None);
        assert_eq!(sig.constant("c0"), Some(ConstId(0)));
        assert_eq!(sig.constant("E"), None);
        assert_eq!(sig.arity(RelId(0)), 2);
        assert_eq!(sig.arity(RelId(1)), 1);
        assert_eq!(sig.relation_name(RelId(1)), "P");
        assert_eq!(sig.constant_name(ConstId(0)), "c0");
    }

    #[test]
    fn canned_signatures() {
        assert_eq!(Signature::empty().num_relations(), 0);
        assert_eq!(Signature::graph().num_relations(), 1);
        assert_eq!(Signature::graph().arity(RelId(0)), 2);
        assert!(Signature::order().relation("<").is_some());
        assert!(Signature::successor().relation("S").is_some());
    }

    #[test]
    fn max_arity() {
        assert_eq!(Signature::empty().max_arity(), 0);
        let sig = Signature::builder()
            .relation("R", 3)
            .relation("E", 2)
            .finish();
        assert_eq!(sig.max_arity(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate symbol")]
    fn duplicate_symbol_panics() {
        let _ = Signature::builder().relation("E", 2).constant("E");
    }

    #[test]
    fn equality_is_structural() {
        let a = Signature::builder().relation("E", 2).finish();
        let b = Signature::builder().relation("E", 2).finish();
        assert_eq!(a, b);
        let c = Signature::builder().relation("E", 3).finish();
        assert_ne!(a, c);
    }

    #[test]
    fn iteration_order_is_declaration_order() {
        let sig = Signature::builder()
            .relation("B", 1)
            .relation("A", 2)
            .finish();
        let names: Vec<&str> = sig.relations().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["B", "A"]);
    }
}
