//! Systematic traffic patterns (Table 4.1).
//!
//! Destination maps over the node-index bit string (`n` bits for `2^n`
//! nodes):
//!
//! | pattern          | map                         |
//! |------------------|-----------------------------|
//! | bit reversal     | `d_i = s_{n-1-i}`           |
//! | perfect shuffle  | `d_i = s_{(i-1) mod n}`     |
//! | matrix transpose | `d_i = s_{(i+n/2) mod n}`   |
//!
//! plus uniform random and fixed hot-spot destinations. Destination maps
//! are fixed per source ("destination nodes remain invariable throughout
//! the pattern", §4.6) except for uniform traffic.

use prdrb_simcore::SimRng;
use prdrb_topology::NodeId;

/// A synthetic destination pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniformly random destination per message (excluding self).
    Uniform,
    /// Bit reversal permutation.
    BitReversal,
    /// Perfect shuffle (rotate the index left by one bit).
    Shuffle,
    /// Matrix transpose (swap index halves).
    Transpose,
    /// Every source sends to one fixed destination.
    HotSpot(NodeId),
    /// Complement permutation: invert every address bit (`d = ¬s`) —
    /// the worst case for dimension-ordered meshes.
    Complement,
    /// Tornado: `d = s + N/2 - 1 (mod N)` — the classic adversary of
    /// minimal routing on rings/tori.
    Tornado,
    /// Butterfly: swap the most and least significant address bits.
    Butterfly,
    /// Neighbor: `d = s + 1 (mod N)` — pure nearest-neighbor shift.
    Neighbor,
    /// Arbitrary fixed permutation (`dest[src]`).
    Permutation(Vec<NodeId>),
}

/// Number of address bits for `nodes` (requires a power of two for the
/// bit permutations).
fn bits(nodes: usize) -> u32 {
    debug_assert!(nodes.is_power_of_two(), "bit permutations need 2^n nodes");
    nodes.trailing_zeros()
}

/// Reverse the low `n` bits of `x`.
fn bit_reverse(x: u32, n: u32) -> u32 {
    let mut out = 0;
    for i in 0..n {
        out |= ((x >> i) & 1) << (n - 1 - i);
    }
    out
}

/// Rotate the low `n` bits of `x` left by one (perfect shuffle:
/// `d_i = s_{(i-1) mod n}` — output bit `i` takes source bit `i-1`).
fn rotate_left1(x: u32, n: u32) -> u32 {
    let mask = (1u32 << n) - 1;
    ((x << 1) | (x >> (n - 1))) & mask
}

/// Swap the two halves of the low `n` bits (matrix transpose:
/// `d_i = s_{(i + n/2) mod n}`).
fn transpose(x: u32, n: u32) -> u32 {
    let h = n / 2;
    let mask = (1u32 << n) - 1;
    ((x >> h) | (x << (n - h))) & mask
}

impl TrafficPattern {
    /// Destination of `src` in a system of `nodes` terminals.
    ///
    /// Uniform consults `rng`; all other patterns are pure functions of
    /// the source.
    pub fn dest(&self, src: NodeId, nodes: usize, rng: &mut SimRng) -> NodeId {
        match self {
            TrafficPattern::Uniform => {
                if nodes <= 1 {
                    return src;
                }
                // Exclude self to avoid degenerate loopback.
                let mut d = rng.below(nodes - 1) as u32;
                if d >= src.0 {
                    d += 1;
                }
                NodeId(d)
            }
            TrafficPattern::BitReversal => NodeId(bit_reverse(src.0, bits(nodes))),
            TrafficPattern::Shuffle => NodeId(rotate_left1(src.0, bits(nodes))),
            TrafficPattern::Transpose => NodeId(transpose(src.0, bits(nodes))),
            TrafficPattern::HotSpot(d) => *d,
            TrafficPattern::Complement => {
                let n = bits(nodes);
                NodeId(!src.0 & ((1u32 << n) - 1))
            }
            TrafficPattern::Tornado => NodeId(((src.0 as usize + nodes / 2 - 1) % nodes) as u32),
            TrafficPattern::Butterfly => {
                let n = bits(nodes);
                if n < 2 {
                    return src;
                }
                let lo = src.0 & 1;
                let hi = (src.0 >> (n - 1)) & 1;
                let mid = src.0 & !(1 | (1 << (n - 1)));
                NodeId(mid | (lo << (n - 1)) | hi)
            }
            TrafficPattern::Neighbor => NodeId(((src.idx() + 1) % nodes) as u32),
            TrafficPattern::Permutation(p) => p[src.idx() % p.len()],
        }
    }

    /// Short name for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::BitReversal => "bit-reversal",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::HotSpot(_) => "hot-spot",
            TrafficPattern::Complement => "complement",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Butterfly => "butterfly",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Permutation(_) => "permutation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(p: &TrafficPattern, nodes: usize) -> Vec<u32> {
        let mut rng = SimRng::new(0);
        (0..nodes as u32)
            .map(|s| p.dest(NodeId(s), nodes, &mut rng).0)
            .collect()
    }

    #[test]
    fn bit_reversal_known_values() {
        // 64 nodes = 6 bits: 0b000001 → 0b100000.
        let m = map(&TrafficPattern::BitReversal, 64);
        assert_eq!(m[0], 0);
        assert_eq!(m[1], 32);
        assert_eq!(m[0b101001], 0b100101);
        assert_eq!(m[63], 63);
    }

    #[test]
    fn shuffle_rotates_left() {
        // d_i = s_{(i-1) mod n}: bit i of dest = bit i-1 of source,
        // i.e. dest = src rotated left by 1.
        let m = map(&TrafficPattern::Shuffle, 8);
        assert_eq!(m[0b001], 0b010);
        assert_eq!(m[0b100], 0b001);
        assert_eq!(m[0b110], 0b101);
    }

    #[test]
    fn transpose_swaps_halves() {
        let m = map(&TrafficPattern::Transpose, 64);
        // 6 bits: (hi, lo) swap — src 0b000111 → 0b111000.
        assert_eq!(m[0b000111], 0b111000);
        assert_eq!(m[0b111000], 0b000111);
        assert_eq!(m[0b101010], 0b010101);
    }

    #[test]
    fn bit_permutations_are_bijections() {
        for p in [
            TrafficPattern::BitReversal,
            TrafficPattern::Shuffle,
            TrafficPattern::Transpose,
        ] {
            for nodes in [8usize, 32, 64] {
                let mut m = map(&p, nodes);
                m.sort_unstable();
                m.dedup();
                assert_eq!(m.len(), nodes, "{} not a bijection on {nodes}", p.label());
            }
        }
    }

    #[test]
    fn uniform_never_self_and_covers_space() {
        let p = TrafficPattern::Uniform;
        let mut rng = SimRng::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = p.dest(NodeId(5), 64, &mut rng);
            assert_ne!(d, NodeId(5));
            assert!(d.0 < 64);
            seen.insert(d.0);
        }
        assert!(seen.len() > 55, "should cover nearly all destinations");
    }

    #[test]
    fn uniform_single_node_degenerates_to_self() {
        let mut rng = SimRng::new(9);
        assert_eq!(
            TrafficPattern::Uniform.dest(NodeId(0), 1, &mut rng),
            NodeId(0)
        );
    }

    #[test]
    fn hotspot_is_constant() {
        let p = TrafficPattern::HotSpot(NodeId(42));
        let mut rng = SimRng::new(0);
        for s in 0..64 {
            assert_eq!(p.dest(NodeId(s), 64, &mut rng), NodeId(42));
        }
    }

    #[test]
    fn complement_inverts_bits() {
        let m = map(&TrafficPattern::Complement, 64);
        assert_eq!(m[0], 63);
        assert_eq!(m[0b101010], 0b010101);
    }

    #[test]
    fn tornado_is_half_ring_shift() {
        let m = map(&TrafficPattern::Tornado, 64);
        assert_eq!(m[0], 31);
        assert_eq!(m[40], (40 + 31) % 64);
    }

    #[test]
    fn butterfly_swaps_end_bits() {
        let m = map(&TrafficPattern::Butterfly, 64);
        // 6 bits: swap bit 5 and bit 0.
        assert_eq!(m[0b100000], 0b000001);
        assert_eq!(m[0b000001], 0b100000);
        assert_eq!(m[0b100001], 0b100001);
    }

    #[test]
    fn neighbor_wraps() {
        let m = map(&TrafficPattern::Neighbor, 8);
        assert_eq!(m[6], 7);
        assert_eq!(m[7], 0);
    }

    #[test]
    fn extended_patterns_are_bijections() {
        for p in [
            TrafficPattern::Complement,
            TrafficPattern::Tornado,
            TrafficPattern::Butterfly,
            TrafficPattern::Neighbor,
        ] {
            let mut m = map(&p, 64);
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), 64, "{} not a bijection", p.label());
        }
    }

    #[test]
    fn custom_permutation() {
        let p = TrafficPattern::Permutation(vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]);
        let mut rng = SimRng::new(0);
        assert_eq!(p.dest(NodeId(0), 4, &mut rng), NodeId(3));
        assert_eq!(p.dest(NodeId(3), 4, &mut rng), NodeId(0));
    }
}
