//! Seeded input generators. Every workload input is a directed graph
//! rendered in the structure text format; the same seed gives
//! byte-identical text, so a run can be reproduced from its seed alone.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream; `stream` separates the input and
    /// operation streams drawn from one workload seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    fn permutation(&mut self, n: u32) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// A directed graph on `{0, …, n−1}` with edge relation `E`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub n: u32,
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// The structure text accepted by `fmt_structures::parse::parse`.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(16 + self.edges.len() * 14);
        writeln!(s, "size: {}", self.n).expect("write to String");
        for &(a, b) in &self.edges {
            writeln!(s, "E({a},{b})").expect("write to String");
        }
        s
    }

    /// Out-neighbour lists.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.n as usize];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b);
        }
        adj
    }
}

/// The transitive-closure program.
pub const TC: &str = "tc(x, y) :- e(x, y).\ntc(x, z) :- e(x, y), tc(y, z).\n";

/// The same-generation program (`e` is parent → child).
pub const SG: &str = "sg(x, x).\nsg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).\n";

/// The full binary tree of `depth` (parent → child edges) under a
/// random relabelling, edges listed in random order.
pub fn labelled_tree(rng: &mut Rng, depth: u32) -> Graph {
    let n = (1u32 << (depth + 1)) - 1;
    let label = rng.permutation(n);
    let mut edges: Vec<(u32, u32)> = (1..n)
        .map(|c| (label[((c - 1) / 2) as usize], label[c as usize]))
        .collect();
    rng.shuffle(&mut edges);
    Graph { n, edges }
}

/// `count` disjoint directed paths of `len` vertices each, under a
/// random relabelling, edges listed in random order.
pub fn shuffled_paths(rng: &mut Rng, count: u32, len: u32) -> Graph {
    let n = count * len;
    let label = rng.permutation(n);
    let mut edges: Vec<(u32, u32)> = (0..count)
        .flat_map(|p| (1..len).map(move |i| (p * len + i - 1, p * len + i)))
        .map(|(a, b)| (label[a as usize], label[b as usize]))
        .collect();
    rng.shuffle(&mut edges);
    Graph { n, edges }
}

/// The `w × h` grid with edges pointing right and down (a DAG whose
/// closure has `(Σᵢ i)² − wh` pairs for a square grid), edges listed in
/// random order.
pub fn grid_dag(rng: &mut Rng, w: u32, h: u32) -> Graph {
    let id = |x: u32, y: u32| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    rng.shuffle(&mut edges);
    Graph { n: w * h, edges }
}

/// `true` if `b` is reachable from `a` in one or more steps.
pub fn reaches(adj: &[Vec<u32>], a: u32, b: u32) -> bool {
    let mut seen = vec![false; adj.len()];
    let mut stack = adj[a as usize].clone();
    while let Some(v) = stack.pop() {
        if v == b {
            return true;
        }
        if !std::mem::replace(&mut seen[v as usize], true) {
            stack.extend_from_slice(&adj[v as usize]);
        }
    }
    false
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type Gen = fn(&mut Rng) -> Graph;

    const GENERATORS: [(&str, Gen); 3] = [
        ("tree", |r| labelled_tree(r, 9)),
        ("paths", |r| shuffled_paths(r, 200, 256)),
        ("grid", |r| grid_dag(r, 24, 24)),
    ];

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
        for (name, g) in GENERATORS {
            let a = g(&mut Rng::new(7, 1)).to_text();
            let b = g(&mut Rng::new(7, 1)).to_text();
            let c = g(&mut Rng::new(8, 1)).to_text();
            assert_eq!(a, b, "{name}: same seed must give the same input");
            assert_ne!(a, c, "{name}: another seed must give another input");
        }
    }

    #[test]
    fn generators_have_the_stated_shapes() {
        let mut r = Rng::new(3, 1);
        let t = labelled_tree(&mut r, 9);
        assert_eq!((t.n, t.edges.len()), (1023, 1022));
        let p = shuffled_paths(&mut r, 200, 256);
        assert_eq!((p.n, p.edges.len()), (51_200, 51_000));
        let g = grid_dag(&mut r, 24, 24);
        assert_eq!(g.edges.len(), 1104);
        let adj = g.adjacency();
        let pairs = (0..g.n)
            .flat_map(|a| (0..g.n).map(move |b| (a, b)))
            .filter(|&(a, b)| reaches(&adj, a, b))
            .count();
        assert_eq!(pairs, 89_424);
    }

    #[test]
    fn reachability_follows_edge_direction() {
        let path = Graph {
            n: 4,
            edges: vec![(2, 3), (0, 1), (1, 2)],
        };
        let adj = path.adjacency();
        assert!(reaches(&adj, 0, 3) && reaches(&adj, 1, 2));
        assert!(!reaches(&adj, 3, 0) && !reaches(&adj, 2, 2));
    }
}
