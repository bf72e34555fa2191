//! Fixtures shared by the `subsparse-hier` integration tests.

use subsparse_hier::fwt::{FwtLevel, FwtNode};
use subsparse_hier::FastWaveletTransform;

/// A full binary Haar transform on `n = 2^k` contacts: every level pairs
/// adjacent scaling coefficients into one scaling + one wavelet output,
/// down to a single root scaling coefficient — `log2(n)` levels, the
/// deepest tree the serving path can see at this size. The level-`l`
/// wavelets land on coefficients `[n / 2^(l+1), n / 2^l)`.
pub fn binary_haar(n: usize) -> FastWaveletTransform {
    assert!(n.is_power_of_two() && n >= 2);
    let r = 0.5f64.sqrt();
    let mut blocks = Vec::new();
    let mut levels = Vec::new();
    let mut m = n;
    while m >= 2 {
        let half = m / 2;
        let base = blocks.len();
        let nodes = (0..half)
            .map(|s| FwtNode {
                in_offset: 2 * s,
                in_len: 2,
                v_cols: 1,
                w_cols: 1,
                out_offset: s,
                col_start: half + s,
                block_offset: base + 4 * s,
            })
            .collect();
        for _ in 0..half {
            blocks.extend_from_slice(&[r, r, r, -r]); // column-major [v | w]
        }
        levels.push(FwtLevel { nodes, coeff_len: half });
        m = half;
    }
    FastWaveletTransform::from_parts(n, 1, levels, (0..n as u32).collect(), blocks)
        .expect("valid binary haar transform")
}
