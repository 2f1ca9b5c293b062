//! The canonical non-FO queries, as reference graph algorithms.
//!
//! Corollary 3.2 of the survey: connectivity, acyclicity, and
//! transitive closure are not FO-expressible. This module implements
//! them (plus EVEN and the tree test) directly — they are the ground
//! truth that the locality checkers, reductions, and experiments
//! compare against.

use fmt_structures::{Elem, RelId, Signature, Structure, StructureBuilder};

/// Finds the binary edge relation of a graph-like structure: the unique
/// binary relation, looked up as `E`, then `S`, then the first binary
/// one.
///
/// # Panics
/// Panics if the structure has no binary relation.
pub fn edge_relation(s: &Structure) -> RelId {
    let sig = s.signature();
    sig.relation("E")
        .or_else(|| sig.relation("S"))
        .filter(|&r| sig.arity(r) == 2)
        .or_else(|| sig.relations().find(|&(_, _, a)| a == 2).map(|(r, _, _)| r))
        .expect("structure has no binary relation")
}

/// The transitive closure `TC(G)` as a new graph over the graph
/// signature: edge `(u, v)` iff there is a nonempty directed path
/// `u → … → v`. Computed by BFS from every vertex —
/// `O(n · (n + m))`.
pub fn transitive_closure(s: &Structure) -> Structure {
    let e = edge_relation(s);
    let n = s.size();
    let sig = Signature::graph();
    let eo = sig.relation("E").unwrap();
    let mut b = StructureBuilder::new(sig, n);
    let mut seen = vec![false; n as usize];
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        seen.iter_mut().for_each(|x| *x = false);
        queue.clear();
        for &w in s.out_neighbors(e, start) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
        while let Some(v) = queue.pop_front() {
            b.add(eo, &[start, v]).expect("in range");
            for &w in s.out_neighbors(e, v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    b.build().expect("tuples are in range")
}

/// Graph connectivity in the undirected sense (edge orientation
/// forgotten, as in the paper's examples). Vacuously `true` for
/// `n ≤ 1`.
pub fn is_connected(s: &Structure) -> bool {
    let e = edge_relation(s);
    let n = s.size();
    if n <= 1 {
        return true;
    }
    let mut seen = vec![false; n as usize];
    let mut queue = std::collections::VecDeque::from([0u32]);
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = queue.pop_front() {
        for &w in s.out_neighbors(e, v).iter().chain(s.in_neighbors(e, v)) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                count += 1;
                queue.push_back(w);
            }
        }
    }
    count == n
}

/// Number of connected components (undirected sense). The empty graph
/// has 0 components.
pub fn num_components(s: &Structure) -> usize {
    let e = edge_relation(s);
    let n = s.size() as usize;
    let mut seen = vec![false; n];
    let mut components = 0;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        components += 1;
        seen[start] = true;
        queue.push_back(start as Elem);
        while let Some(v) = queue.pop_front() {
            for &w in s.out_neighbors(e, v).iter().chain(s.in_neighbors(e, v)) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    components
}

/// Directed acyclicity: no directed cycle (self-loops count as cycles).
pub fn is_acyclic(s: &Structure) -> bool {
    let e = edge_relation(s);
    let n = s.size() as usize;
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(Elem, usize)> = vec![(start as Elem, 0)];
        color[start] = Color::Gray;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let outs = s.out_neighbors(e, v);
            if *i < outs.len() {
                let w = outs[*i];
                *i += 1;
                match color[w as usize] {
                    Color::Gray => return false,
                    Color::White => {
                        color[w as usize] = Color::Gray;
                        stack.push((w, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[v as usize] = Color::Black;
                stack.pop();
            }
        }
    }
    true
}

/// The tree test (undirected sense): connected and exactly `n − 1`
/// undirected edges (the paper's `G₁` = chain vs `G₂` = chain ⊎ cycle
/// example). The empty graph is not a tree; a single vertex is.
pub fn is_tree(s: &Structure) -> bool {
    let n = s.size();
    if n == 0 {
        return false;
    }
    is_connected(s) && undirected_edge_count(s) == n as usize - 1
}

/// Number of undirected edges (unordered pairs `{u, v}`, `u ≠ v`, with
/// an edge in either direction; self-loops excluded).
pub fn undirected_edge_count(s: &Structure) -> usize {
    let e = edge_relation(s);
    let mut pairs: Vec<(Elem, Elem)> = s
        .rel(e)
        .iter()
        .filter(|t| t[0] != t[1])
        .map(|t| (t[0].min(t[1]), t[0].max(t[1])))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.len()
}

/// The EVEN query: does the structure have an even number of elements?
/// (The survey's running example of a non-FO-definable query.)
pub fn even(s: &Structure) -> bool {
    s.size() % 2 == 0
}

/// The symmetric closure: adds `(v, u)` for every edge `(u, v)`.
pub fn symmetric_closure(s: &Structure) -> Structure {
    let e = edge_relation(s);
    let sig = Signature::graph();
    let eo = sig.relation("E").unwrap();
    let mut b = StructureBuilder::new(sig, s.size());
    for t in s.rel(e).iter() {
        b.add(eo, &[t[0], t[1]]).expect("in range");
        b.add(eo, &[t[1], t[0]]).expect("in range");
    }
    b.build().expect("tuples are in range")
}

/// Completeness test: every ordered pair `(u, v)` with `u ≠ v` is an
/// edge.
pub fn is_complete(s: &Structure) -> bool {
    let e = edge_relation(s);
    let n = s.size() as usize;
    s.rel(e).iter().filter(|t| t[0] != t[1]).count() == n * (n.max(1) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_structures::builders;

    #[test]
    fn tc_of_chain() {
        let s = builders::directed_path(4);
        let t = transitive_closure(&s);
        let e = t.signature().relation("E").unwrap();
        assert_eq!(t.rel(e).len(), 6); // pairs i < j
        assert!(t.holds(e, &[0, 3]));
        assert!(!t.holds(e, &[3, 0]));
        assert!(!t.holds(e, &[2, 2]));
    }

    #[test]
    fn tc_of_cycle_is_complete_with_loops() {
        let s = builders::directed_cycle(4);
        let t = transitive_closure(&s);
        let e = t.signature().relation("E").unwrap();
        assert_eq!(t.rel(e).len(), 16); // all pairs incl. loops
        assert!(t.holds(e, &[2, 2]));
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&builders::undirected_cycle(5)));
        assert!(is_connected(&builders::directed_path(5))); // undirected sense
        let two = builders::copies(&builders::undirected_cycle(3), 2);
        assert!(!is_connected(&two));
        assert_eq!(num_components(&two), 2);
        assert!(is_connected(&builders::empty_graph(1)));
        assert!(is_connected(&builders::empty_graph(0)));
        assert!(!is_connected(&builders::empty_graph(2)));
        assert_eq!(num_components(&builders::empty_graph(3)), 3);
    }

    #[test]
    fn acyclicity() {
        assert!(is_acyclic(&builders::directed_path(6)));
        assert!(!is_acyclic(&builders::directed_cycle(6)));
        assert!(!is_acyclic(&builders::directed_cycle(1))); // self-loop
        assert!(is_acyclic(&builders::full_binary_tree(3)));
        // Undirected cycles store both directions: 2-cycles everywhere.
        assert!(!is_acyclic(&builders::undirected_path(3)));
        assert!(is_acyclic(&builders::empty_graph(4)));
    }

    #[test]
    fn tree_test() {
        assert!(is_tree(&builders::undirected_path(7)));
        assert!(!is_tree(&builders::undirected_cycle(7)));
        assert!(is_tree(&builders::full_binary_tree(3)));
        assert!(is_tree(&builders::empty_graph(1)));
        assert!(!is_tree(&builders::empty_graph(0)));
        assert!(!is_tree(&builders::empty_graph(2)));
        // The paper's pair: chain 2m vs chain m ⊎ cycle m.
        let m = 6;
        let g1 = builders::undirected_path(2 * m);
        let g2 = builders::undirected_path(m)
            .disjoint_union(&builders::undirected_cycle(m))
            .unwrap();
        assert!(is_tree(&g1));
        assert!(!is_tree(&g2));
    }

    #[test]
    fn symmetric_closure_and_completeness() {
        let p = builders::directed_path(3);
        let sc = symmetric_closure(&p);
        let e = sc.signature().relation("E").unwrap();
        assert!(sc.holds(e, &[1, 0]));
        assert!(!is_complete(&sc));
        assert!(is_complete(&builders::complete_graph(4)));
        assert!(is_complete(&builders::empty_graph(1)));
        assert!(is_complete(&builders::empty_graph(0)));
    }

    #[test]
    fn even_query() {
        assert!(even(&builders::set(0)));
        assert!(!even(&builders::set(3)));
        assert!(even(&builders::linear_order(8)));
    }

    #[test]
    fn edge_counting() {
        assert_eq!(undirected_edge_count(&builders::undirected_cycle(5)), 5);
        assert_eq!(undirected_edge_count(&builders::directed_path(5)), 4);
        let loopy = builders::directed_cycle(1);
        assert_eq!(undirected_edge_count(&loopy), 0);
    }

    #[test]
    fn successor_signature_accepted() {
        let s = builders::successor_chain(5);
        let t = transitive_closure(&s);
        let e = t.signature().relation("E").unwrap();
        assert_eq!(t.rel(e).len(), 10);
        assert!(is_connected(&s));
        assert!(is_acyclic(&s));
    }
}
