//! The O(N²) reference DFT that `properties.rs` and `realfft.rs` hold
//! every fast transform against.

use river_dsp::Complex64;
use std::f64::consts::PI;

/// `X_k = sum_j x_j e^{-2πi jk/N}`, one term at a time.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| input[j] * Complex64::cis(-2.0 * PI * (j * k) as f64 / n as f64))
                .sum()
        })
        .collect()
}
