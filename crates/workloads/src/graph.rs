//! CSR graphs and the paper's graph inputs (§V): synthetic Kronecker (KR)
//! and Uniform-Random (UR) generators as in GAP, plus degree-skewed RMAT
//! stand-ins for the LiveJournal / Twitter / Orkut real-world inputs
//! (substitution documented in DESIGN.md).

use crate::rng::Rng64;

/// A graph in compressed-sparse-row form (Fig. 2 of the paper).
///
/// `offsets` has `n + 1` entries; the neighbors of vertex `u` are
/// `neighbors[offsets[u] .. offsets[u+1]]`.
///
/// # Examples
///
/// ```
/// use svr_workloads::Csr;
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.neighbors_of(0), &[1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    neighbors: Vec<u64>,
}

impl Csr {
    /// Builds a CSR from an edge list (duplicates kept, self-loops dropped).
    pub fn from_edges(n: usize, edges: &[(u64, u64)]) -> Self {
        Csr::build(n, edges)
    }

    /// The one CSR construction path, over any vertex-id width: the
    /// generators keep their transient edge lists as `(u32, u32)`, half the
    /// bytes of `(u64, u64)`.
    fn build<T: Copy + Into<u64>>(n: usize, edges: &[(T, T)]) -> Self {
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in edges {
            let u: u64 = u.into();
            if u != v.into() {
                offsets[u as usize + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![0u64; offsets[n] as usize];
        for &(u, v) in edges {
            let (u, v): (u64, u64) = (u.into(), v.into());
            if u == v {
                continue;
            }
            let c = &mut cursor[u as usize];
            neighbors[*c as usize] = v;
            *c += 1;
        }
        Csr { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// The offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The concatenated neighbor array.
    pub fn neighbors(&self) -> &[u64] {
        &self.neighbors
    }

    /// Neighbors of `u`.
    pub fn neighbors_of(&self, u: usize) -> &[u64] {
        let s = self.offsets[u] as usize;
        let e = self.offsets[u + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Out-degree of `u`.
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Basic structural invariants (used by property tests).
    pub fn check_invariants(&self) -> bool {
        let n = self.num_nodes() as u64;
        self.offsets.windows(2).all(|w| w[0] <= w[1])
            && *self.offsets.last().expect("nonempty") == self.neighbors.len() as u64
            && self.neighbors.iter().all(|&v| v < n)
    }
}

/// The paper's graph inputs (two synthetic, three real-world stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphInput {
    /// Kronecker/RMAT with Graph500 parameters.
    Kr,
    /// Uniform random (Erdős–Rényi style).
    Ur,
    /// LiveJournal stand-in: moderately skewed RMAT.
    Ljn,
    /// Twitter stand-in: heavily skewed RMAT (celebrity hubs).
    Tw,
    /// Orkut stand-in: denser, mildly skewed RMAT.
    Ork,
}

impl GraphInput {
    /// All five inputs in the paper's order.
    pub const ALL: [GraphInput; 5] = [
        GraphInput::Kr,
        GraphInput::Ur,
        GraphInput::Ljn,
        GraphInput::Tw,
        GraphInput::Ork,
    ];

    /// Short name used in result tables ("KR", "UR", ...).
    pub fn label(self) -> &'static str {
        match self {
            GraphInput::Kr => "KR",
            GraphInput::Ur => "UR",
            GraphInput::Ljn => "LJN",
            GraphInput::Tw => "TW",
            GraphInput::Ork => "ORK",
        }
    }

    /// Generates the input at `nodes` vertices with `edge_factor` edges per
    /// vertex, deterministically from `seed`.
    pub fn generate(self, nodes: usize, edge_factor: usize, seed: u64) -> Csr {
        match self {
            GraphInput::Kr => rmat(nodes, edge_factor, (0.57, 0.19, 0.19), seed),
            GraphInput::Ur => uniform(nodes, edge_factor, seed),
            GraphInput::Ljn => rmat(nodes, edge_factor, (0.48, 0.22, 0.22), seed ^ 0x11),
            GraphInput::Tw => rmat(nodes, edge_factor.max(2), (0.62, 0.18, 0.18), seed ^ 0x22),
            GraphInput::Ork => rmat(nodes, edge_factor * 2, (0.45, 0.22, 0.22), seed ^ 0x33),
        }
    }
}

/// Uniform-random digraph: `n * edge_factor` edges with i.i.d. endpoints.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX` (vertex ids are kept as `u32`).
pub fn uniform(n: usize, edge_factor: usize, seed: u64) -> Csr {
    assert!(n <= u32::MAX as usize, "{n} vertices do not fit u32 ids");
    let mut rng = Rng64::new(seed);
    let m = n * edge_factor;
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect();
    Csr::build(n, &edges)
}

/// The 53-bit integer cutoff `c` for which `next_f64() < x` holds exactly
/// when `next_u64() >> 11 < c`. `next_f64()` is `k · 2⁻⁵³` for the 53-bit
/// integer `k = next_u64() >> 11`, and scaling by a power of two is exact,
/// so `k · 2⁻⁵³ < x` ⇔ `k < x · 2⁵³` ⇔ `k < ⌈x · 2⁵³⌉` for integer `k`.
fn cut(x: f64) -> u64 {
    (x * (1u64 << 53) as f64).ceil() as u64
}

/// RMAT/Kronecker generator with recursive quadrant probabilities
/// `(a, b, c)` (d = 1 - a - b - c), Graph500-style.
///
/// Each level draws one `k = next_u64() >> 11` and picks its quadrant by
/// comparing `k` against the integer cutoffs of `a`, `a + b` and
/// `a + b + c` (see [`cut`]), without branches: the same graph as comparing
/// `next_f64()` against the float sums, bit for bit.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX` (vertex ids are kept as `u32`).
pub fn rmat(n: usize, edge_factor: usize, abc: (f64, f64, f64), seed: u64) -> Csr {
    assert!(n <= u32::MAX as usize, "{n} vertices do not fit u32 ids");
    let levels = n.next_power_of_two().trailing_zeros();
    let (a, b, c) = abc;
    let (c_a, c_ab, c_abc) = (cut(a), cut(a + b), cut(a + b + c));
    let mut rng = Rng64::new(seed);
    let m = n * edge_factor;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..levels {
            let k = rng.next_u64() >> 11;
            // Quadrants in order: [0, a) top-left, [a, a+b) v, [a+b, a+b+c)
            // u, the rest both.
            let u_bit = k >= c_ab;
            let v_bit = ((k >= c_a) ^ (k >= c_ab)) | (k >= c_abc);
            u = (u << 1) | u64::from(u_bit);
            v = (v << 1) | u64::from(v_bit);
        }
        // Permute to avoid locality artifacts of the bit construction and
        // fold into the requested vertex count.
        let u = scramble(u, seed) % n as u64;
        let v = scramble(v, seed.wrapping_add(1)) % n as u64;
        edges.push((u as u32, v as u32));
    }
    Csr::build(n, &edges)
}

fn scramble(x: u64, seed: u64) -> u64 {
    let mut z = x ^ seed;
    z = z.wrapping_mul(0x9e3779b97f4a7c15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58476d1ce4e5b9);
    z ^= z >> 27;
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scale;

    #[test]
    fn csr_from_edges_basics() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0), (1, 1)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4, "self loop dropped");
        assert_eq!(g.neighbors_of(0), &[1, 2]);
        assert_eq!(g.degree(1), 0);
        assert!(g.check_invariants());
    }

    #[test]
    fn generators_are_deterministic() {
        for input in GraphInput::ALL {
            let g1 = input.generate(512, 4, 42);
            let g2 = input.generate(512, 4, 42);
            assert_eq!(g1, g2, "{input:?} not deterministic");
            assert!(g1.check_invariants());
        }
    }

    #[test]
    fn uniform_has_uniform_degrees() {
        let g = uniform(1024, 8, 7);
        // Max degree of a balanced random graph stays near the mean.
        assert!(g.max_degree() < 8 * 5, "max degree {}", g.max_degree());
        // A few self-loops get dropped.
        assert!(g.num_edges() <= 1024 * 8);
        assert!(g.num_edges() >= 1024 * 8 - 100);
    }

    #[test]
    fn rmat_is_skewed() {
        let kr = GraphInput::Kr.generate(2048, 8, 3);
        let ur = GraphInput::Ur.generate(2048, 8, 3);
        assert!(
            kr.max_degree() > 2 * ur.max_degree(),
            "kr {} ur {}",
            kr.max_degree(),
            ur.max_degree()
        );
    }

    #[test]
    fn tw_is_most_skewed() {
        let tw = GraphInput::Tw.generate(4096, 8, 9);
        let ljn = GraphInput::Ljn.generate(4096, 8, 9);
        assert!(tw.max_degree() > ljn.max_degree());
    }

    #[test]
    fn edge_counts_scale() {
        let g = GraphInput::Ork.generate(256, 4, 1);
        // ORK doubles the edge factor.
        assert!(g.num_edges() >= 256 * 7);
    }

    /// What `Rng64::next_f64` returns for a draw whose top 53 bits are `k`.
    fn as_f64(k: u64) -> f64 {
        k as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `k < cut(x)` ⇔ `as_f64(k) < x` at the extremes of the 53-bit range,
    /// at and around the cutoff, and at a few random `k`.
    fn check_cut(x: f64, rng: &mut Rng64) {
        let top = 1u64 << 53;
        let c = cut(x);
        let near = c.saturating_sub(3)..=c.saturating_add(3);
        let random: Vec<u64> = (0..8).map(|_| rng.next_u64() >> 11).collect();
        for k in [0, 1, top - 2, top - 1]
            .into_iter()
            .chain(near)
            .chain(random)
        {
            if k < top {
                assert_eq!(k < c, as_f64(k) < x, "x={x:e} k={k} cut={c}");
            }
        }
    }

    #[test]
    fn integer_cutoff_matches_float_compare() {
        let mut rng = Rng64::new(0xC07);
        // Random thresholds, and thresholds that are themselves multiples of
        // 2⁻⁵³ (where `x · 2⁵³` is an integer and the ceiling is a no-op).
        for _ in 0..5_000 {
            let x = rng.next_f64();
            check_cut(x, &mut rng);
            let on_grid = as_f64(rng.next_u64() >> 11);
            check_cut(on_grid, &mut rng);
        }
        // The exact float sums `rmat` forms for KR, LJN, TW and ORK (the
        // parameters of `GraphInput::generate`).
        for (a, b, c) in [
            (0.57, 0.19, 0.19),
            (0.48, 0.22, 0.22),
            (0.62, 0.18, 0.18),
            (0.45, 0.22, 0.22),
        ] {
            for x in [a, a + b, a + b + c] {
                check_cut(x, &mut rng);
            }
        }
        // Edges: nothing is below 0, everything is below 1.
        assert_eq!(cut(0.0), 0);
        assert_eq!(cut(1.0), 1 << 53);
        check_cut(0.0, &mut rng);
        check_cut(1.0, &mut rng);
    }

    /// FNV-1a over the lengths and words of `offsets` and `neighbors`.
    fn csr_hash(g: &Csr) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in [g.offsets(), g.neighbors()] {
            for &x in std::iter::once(&(part.len() as u64)).chain(part) {
                h = (h ^ x).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Checks each input's graph at `scale` (built exactly as the GAP kernels
    /// build it) against content hashes recorded from the original
    /// float-compare, `(u64, u64)`-edge generator. A mismatch means the
    /// generator's output changed; the pins are never re-recorded.
    fn check_pins(scale: Scale, pins: [u64; 5]) {
        let got: Vec<u64> = GraphInput::ALL
            .iter()
            .map(|input| csr_hash(&input.generate(scale.nodes(), scale.edge_factor(), 0xC0FFEE)))
            .collect();
        assert_eq!(
            got, pins,
            "{scale:?} graph content changed (order: KR UR LJN TW ORK)"
        );
    }

    #[test]
    fn graph_content_is_pinned_at_tiny_scale() {
        check_pins(
            Scale::Tiny,
            [
                0xb0ca_20fc_373c_6c69,
                0xa278_a6e9_e29e_61b7,
                0xa832_e881_da8e_8abd,
                0x5bfe_cfbd_ef69_c776,
                0xd2a1_5b39_3988_8272,
            ],
        );
    }

    #[test]
    fn graph_content_is_pinned_at_small_scale() {
        check_pins(
            Scale::Small,
            [
                0x2382_58a0_5c6e_c1a4,
                0x1fa6_0b5f_1271_5a95,
                0xf50b_1894_37f5_3509,
                0x165f_ae20_3813_9a36,
                0x719b_0977_b835_70b1,
            ],
        );
    }

    /// Full scale takes seconds per graph in a debug build; `scripts/ci.sh`
    /// runs it in release with `--ignored`.
    #[test]
    #[ignore]
    fn graph_content_is_pinned_at_full_scale() {
        check_pins(
            Scale::Full,
            [
                0xd4ec_9614_37e4_6e90,
                0xef7d_3b08_cb61_b734,
                0x1665_2f49_5e5d_d432,
                0x07be_2dd9_4ee1_7cd1,
                0x8057_9372_82e9_00e7,
            ],
        );
    }
}
