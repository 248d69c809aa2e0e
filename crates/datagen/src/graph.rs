//! Random graph generation for the graph analytics application.
//!
//! Edges are records `[src(Int), dst(Int)]`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rheem_core::{rec, Record};

/// A preferential-attachment graph: each new node attaches `m` out-edges to
/// endpoints sampled from the existing edge list (rich get richer), giving
/// the skewed degree distribution real web/social graphs show.
pub fn preferential_attachment(nodes: usize, m: usize, seed: u64) -> Vec<Record> {
    assert!(nodes >= 2 && m >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut endpoints: Vec<i64> = vec![0, 1];
    let mut out = vec![rec![0i64, 1i64]];
    for v in 2..nodes as i64 {
        for _ in 0..m {
            let target = endpoints[rng.gen_range(0..endpoints.len())];
            if target != v {
                out.push(rec![v, target]);
                endpoints.push(v);
                endpoints.push(target);
            }
        }
    }
    out
}

/// A ring of `k` disjoint cycles of `len` nodes each — handy for connected
/// components tests (exactly `k` components, sizes known).
pub fn disjoint_cycles(k: usize, len: usize) -> Vec<Record> {
    assert!(len >= 2);
    let mut out = Vec::with_capacity(k * len);
    for c in 0..k {
        let base = (c * len) as i64;
        for i in 0..len as i64 {
            out.push(rec![base + i, base + (i + 1) % len as i64]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preferential_attachment_is_skewed() {
        let edges = preferential_attachment(200, 2, 5);
        let mut indeg = std::collections::HashMap::new();
        for e in &edges {
            *indeg.entry(e.int(1).unwrap()).or_insert(0usize) += 1;
        }
        let max = *indeg.values().max().unwrap();
        let avg = edges.len() as f64 / indeg.len() as f64;
        assert!(
            (max as f64) > 3.0 * avg,
            "expected a hub: max {max}, avg {avg:.1}"
        );
    }

    #[test]
    fn disjoint_cycles_have_known_structure() {
        let edges = disjoint_cycles(3, 4);
        assert_eq!(edges.len(), 12);
        // Node 0..3 in component 0, 4..7 in component 1, etc.
        for e in &edges {
            let (s, d) = (e.int(0).unwrap(), e.int(1).unwrap());
            assert_eq!(s / 4, d / 4, "edge crosses components");
        }
    }
}
