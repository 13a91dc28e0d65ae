//! Discrete Fourier transforms.
//!
//! The pipeline's `dft` operator transforms 840-sample records (20.16 kHz,
//! 24 Hz bins), so an arbitrary-length transform is required. [`Fft`]
//! picks its algorithm from the factorisation of the length alone:
//!
//! - every **7-smooth** length (prime factors ≤ 7: all powers of two, and
//!   the production 840 = 2³·3·5·7 with its 420-point half) runs a
//!   mixed-radix decimation-in-time Cooley–Tukey FFT with dedicated
//!   radix-4/2/3/5/7 butterflies;
//! - every other length runs Bluestein's chirp-z algorithm, which reduces
//!   an arbitrary-N DFT to a power-of-two circular convolution — itself
//!   two mixed-radix transforms.
//!
//! [`dft_naive`] is the O(N²) reference the tests compare both against.
//!
//! [`Fft`] plans a transform for one length and may be reused for every
//! record of that length; planning precomputes the twiddle table and
//! input permutation and, for Bluestein, the chirp and convolution kernel.

use crate::complex::Complex64;
use std::cell::Cell;
use std::f64::consts::PI;

/// A planned forward/inverse DFT of a fixed length.
///
/// # Example
///
/// ```
/// use river_dsp::{Complex64, Fft};
///
/// let fft = Fft::new(8);
/// let x: Vec<Complex64> = (0..8).map(|i| Complex64::from_real(i as f64)).collect();
/// let spectrum = fft.forward(&x);
/// let back = fft.inverse(&spectrum);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    plan: Plan,
}

#[derive(Debug, Clone)]
enum Plan {
    /// Mixed-radix Cooley–Tukey for 7-smooth lengths.
    Mixed(MixedRadix),
    /// Bluestein chirp-z: `a_k = x_k * c_k` convolved with `b`, sized `m`.
    Bluestein {
        m: usize,
        /// The power-of-two (hence mixed-radix) transform of length `m`.
        inner: Box<Fft>,
        /// Chirp factors `exp(-i*pi*k^2/n)` for k in 0..n.
        chirp: Vec<Complex64>,
        /// Forward transform of the convolution kernel, length `m`.
        kernel_fft: Vec<Complex64>,
    },
}

impl Fft {
    /// Plans a transform of length `n`: mixed radix when every prime
    /// factor of `n` is at most 7, Bluestein otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be non-zero");
        if let Some(factors) = smooth_factors(n) {
            return Fft {
                n,
                plan: Plan::Mixed(MixedRadix::new(n, factors)),
            };
        }
        // Bluestein: convolution length must be >= 2n-1 and power of two.
        let m = (2 * n - 1).next_power_of_two();
        let inner = Box::new(Fft::new(m));
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                // k^2 mod 2n keeps the argument small for numerical stability.
                let k2 = (k as u128 * k as u128) % (2 * n as u128);
                Complex64::cis(-PI * k2 as f64 / n as f64)
            })
            .collect();
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            kernel[k] = c;
            kernel[m - k] = c;
        }
        let kernel_fft = inner.forward(&kernel);
        Fft {
            n,
            plan: Plan::Bluestein {
                m,
                inner,
                chirp,
                kernel_fft,
            },
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether this length took the mixed-radix plan (test hook).
    #[cfg(test)]
    fn is_mixed_radix(&self) -> bool {
        matches!(self.plan, Plan::Mixed(_))
    }

    /// Computes the forward DFT: `X_k = sum_j x_j e^{-2πi jk/N}`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(input.len(), self.n, "input length must match plan");
        let mut buf = input.to_vec();
        self.forward_in_place(&mut buf);
        buf
    }

    /// Scratch samples required by [`forward_scratch`](Self::forward_scratch)
    /// and [`inverse_scratch`](Self::inverse_scratch): the length itself
    /// for mixed-radix plans (the butterfly passes run in a permuted
    /// copy), the convolution length `m` plus the inner transform's own
    /// scratch for Bluestein plans. Planning owns the twiddle,
    /// permutation, chirp, and kernel tables; a caller that also supplies
    /// this much scratch makes every transform allocation-free.
    ///
    /// No plan runs without scratch — power-of-two lengths need `n` like
    /// every other mixed-radix length — so size the buffer from this
    /// method, never from the shape of `n`.
    pub fn scratch_len(&self) -> usize {
        match &self.plan {
            Plan::Mixed(_) => self.n,
            Plan::Bluestein { m, inner, .. } => m + inner.scratch_len(),
        }
    }

    /// Computes the forward DFT in place.
    ///
    /// Allocates the plan's scratch on each call; hot paths should plan
    /// a scratch buffer once and use
    /// [`forward_scratch`](Self::forward_scratch).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn forward_in_place(&self, buf: &mut [Complex64]) {
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.forward_scratch(buf, &mut scratch);
    }

    /// Computes the forward DFT in place using caller-provided scratch —
    /// the allocation-free hot path. `scratch` contents are clobbered.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()` or
    /// `scratch.len() < self.scratch_len()`.
    pub fn forward_scratch(&self, buf: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        assert!(
            scratch.len() >= self.scratch_len(),
            "scratch length {} below required {}",
            scratch.len(),
            self.scratch_len()
        );
        match &self.plan {
            Plan::Mixed(mixed) => mixed.forward(buf, &mut scratch[..self.n]),
            Plan::Bluestein {
                m,
                inner,
                chirp,
                kernel_fft,
            } => {
                let n = self.n;
                let (a, rest) = scratch.split_at_mut(*m);
                for k in 0..n {
                    a[k] = buf[k] * chirp[k];
                }
                a[n..].fill(Complex64::ZERO);
                inner.forward_scratch(a, rest);
                for (ak, bk) in a.iter_mut().zip(kernel_fft.iter()) {
                    *ak *= *bk;
                }
                inner.inverse_scratch(a, rest);
                for k in 0..n {
                    buf[k] = a[k] * chirp[k];
                }
            }
        }
    }

    /// Computes the (normalized) inverse DFT.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn inverse(&self, input: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(input.len(), self.n, "input length must match plan");
        let mut buf = input.to_vec();
        self.inverse_in_place(&mut buf);
        buf
    }

    /// Computes the (normalized) inverse DFT in place.
    ///
    /// Allocates the plan's scratch on each call; hot paths should use
    /// [`inverse_scratch`](Self::inverse_scratch).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn inverse_in_place(&self, buf: &mut [Complex64]) {
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.inverse_scratch(buf, &mut scratch);
    }

    /// Computes the (normalized) inverse DFT in place using
    /// caller-provided scratch. `scratch` contents are clobbered.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()` or
    /// `scratch.len() < self.scratch_len()`.
    pub fn inverse_scratch(&self, buf: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan");
        // IDFT(x) = conj(DFT(conj(x))) / N
        for z in buf.iter_mut() {
            *z = z.conj();
        }
        self.forward_scratch(buf, scratch);
        let scale = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.conj().scale(scale);
        }
    }
}

/// A planned forward DFT of real-valued input.
///
/// Real input halves the work: for even lengths the `N` real samples
/// are packed into an `N/2`-point **complex** FFT (`z_k = x_{2k} +
/// i·x_{2k+1}`), transformed, and unpacked through the Hermitian
/// symmetry `X_{N-k} = conj(X_k)` — so the production 840-sample record
/// rides a 420-point transform, and 420 = 2²·3·5·7 is 7-smooth: four
/// mixed-radix butterfly passes (radix 7, 5, 3, 4). Odd lengths cannot
/// pack pairs and fall back to a full-length complex transform; either
/// way the inner [`Fft`] picks mixed radix or Bluestein from its own
/// length's factorisation.
///
/// Planning owns every table (the inner plan's, and the unpack
/// twiddles); with a caller-kept scratch buffer
/// ([`scratch_len`](Self::scratch_len)), the steady state is
/// allocation-free via [`forward_into`](Self::forward_into) and
/// [`magnitudes_into`](Self::magnitudes_into). Magnitudes are
/// [`Complex64::abs`]: a guarded `sqrt(re² + im²)` within 2 ULP, with
/// `hypot` kept for the extreme ranges.
///
/// # Example
///
/// ```
/// use river_dsp::fft::{dft_naive, RealFft};
/// use river_dsp::Complex64;
///
/// let x: Vec<f64> = (0..840).map(|i| (i as f64 * 0.17).sin()).collect();
/// let spec = RealFft::new(840).forward(&x);
/// let naive = dft_naive(&x.iter().map(|&v| Complex64::from_real(v)).collect::<Vec<_>>());
/// for (a, b) in spec.iter().zip(&naive) {
///     assert!((*a - *b).abs() < 1e-7);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    n: usize,
    plan: RealPlan,
}

#[derive(Debug, Clone)]
enum RealPlan {
    /// Even length: half-size complex FFT plus Hermitian unpack.
    Packed {
        half: Fft,
        /// Unpack twiddles `e^{-2πik/n}` for `k` in `0..n/2`.
        twiddles: Vec<Complex64>,
    },
    /// Odd length: full-length complex transform (pairs cannot pack).
    Direct { full: Fft },
}

impl RealFft {
    /// Plans a real-input transform of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be non-zero");
        let plan = if n.is_multiple_of(2) {
            let half = n / 2;
            RealPlan::Packed {
                half: Fft::new(half),
                twiddles: (0..half)
                    .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
                    .collect(),
            }
        } else {
            RealPlan::Direct { full: Fft::new(n) }
        };
        RealFft { n, plan }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the planned length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scratch samples required by the allocation-free entry points.
    pub fn scratch_len(&self) -> usize {
        match &self.plan {
            RealPlan::Packed { half, .. } => self.n / 2 + half.scratch_len(),
            RealPlan::Direct { full } => self.n + full.scratch_len(),
        }
    }

    /// Transforms a real-valued record, returning the full complex
    /// spectrum (all `N` bins; the top half via Hermitian symmetry).
    ///
    /// Allocates the output and scratch; hot paths should use
    /// [`forward_into`](Self::forward_into).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`.
    pub fn forward(&self, input: &[f64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.n];
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.forward_into(input, &mut out, &mut scratch);
        out
    }

    /// Transforms a real-valued record into `out` using caller-provided
    /// scratch — allocation-free. `scratch` contents are clobbered.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`, `out.len() != self.len()`,
    /// or `scratch.len() < self.scratch_len()`.
    pub fn forward_into(&self, input: &[f64], out: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(input.len(), self.n, "input length must match plan");
        assert_eq!(out.len(), self.n, "output length must match plan");
        match &self.plan {
            RealPlan::Direct { full } => {
                for (o, &x) in out.iter_mut().zip(input) {
                    *o = Complex64::from_real(x);
                }
                full.forward_scratch(out, scratch);
            }
            RealPlan::Packed { half, twiddles } => {
                let m = self.n / 2;
                assert!(
                    scratch.len() >= self.scratch_len(),
                    "scratch length {} below required {}",
                    scratch.len(),
                    self.scratch_len()
                );
                let (z, rest) = scratch.split_at_mut(m);
                for (k, zk) in z.iter_mut().enumerate() {
                    *zk = Complex64::new(input[2 * k], input[2 * k + 1]);
                }
                half.forward_scratch(z, rest);
                let z0 = z[0];
                out[0] = Complex64::from_real(z0.re + z0.im);
                out[m] = Complex64::from_real(z0.re - z0.im);
                for k in 1..m {
                    let x = unpack_bin(z, twiddles, m, k);
                    out[k] = x;
                    out[self.n - k] = x.conj();
                }
            }
        }
    }

    /// Computes the full `N`-bin magnitude spectrum of a real-valued
    /// record — optionally windowing the input on the fly — without
    /// materializing the complex spectrum: pack (× window), half-size
    /// FFT, and `|X_k|` straight out of the Hermitian unpack (the
    /// conjugate top half shares the bottom half's magnitudes). This is
    /// the fused `welchwindow → float2cplx → dft → cabs` hot path.
    ///
    /// `scratch` contents are clobbered.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()`, `out.len() != self.len()`,
    /// `scratch.len() < self.scratch_len()`, or a provided window's
    /// length differs from the input's.
    pub fn magnitudes_into(
        &self,
        input: &[f64],
        window: Option<&[f64]>,
        out: &mut [f64],
        scratch: &mut [Complex64],
    ) {
        assert_eq!(input.len(), self.n, "input length must match plan");
        assert_eq!(out.len(), self.n, "output length must match plan");
        assert!(
            scratch.len() >= self.scratch_len(),
            "scratch length {} below required {}",
            scratch.len(),
            self.scratch_len()
        );
        if let Some(w) = window {
            assert_eq!(w.len(), self.n, "window length must match plan");
        }
        let windowed = |i: usize| match window {
            Some(w) => input[i] * w[i],
            None => input[i],
        };
        match &self.plan {
            RealPlan::Direct { full } => {
                let (buf, rest) = scratch.split_at_mut(self.n);
                for (i, b) in buf.iter_mut().enumerate() {
                    *b = Complex64::from_real(windowed(i));
                }
                full.forward_scratch(buf, rest);
                for (o, zc) in out.iter_mut().zip(buf.iter()) {
                    *o = zc.abs();
                }
            }
            RealPlan::Packed { half, twiddles } => {
                let m = self.n / 2;
                let (z, rest) = scratch.split_at_mut(m);
                for (k, zk) in z.iter_mut().enumerate() {
                    *zk = Complex64::new(windowed(2 * k), windowed(2 * k + 1));
                }
                half.forward_scratch(z, rest);
                let z0 = z[0];
                out[0] = (z0.re + z0.im).abs();
                out[m] = (z0.re - z0.im).abs();
                for k in 1..m {
                    let mag = unpack_bin(z, twiddles, m, k).abs();
                    out[k] = mag;
                    out[self.n - k] = mag;
                }
            }
        }
    }
}

/// Hermitian unpack of bin `k` (for `k` in `1..m`) from the half-size
/// transform `z` of packed real input: even/odd split of `Z_k` against
/// `conj(Z_{m-k})` recombined through the unpack twiddle.
#[inline]
fn unpack_bin(z: &[Complex64], twiddles: &[Complex64], m: usize, k: usize) -> Complex64 {
    let a = z[k];
    let b = z[m - k].conj();
    let e = (a + b).scale(0.5);
    let o = (a - b) * Complex64::new(0.0, -0.5);
    e + twiddles[k] * o
}

/// The radices of a 7-smooth `n`, outermost butterfly pass first: every
/// 4, then at most one 2, then the 3s, 5s and 7s. `None` when `n` has
/// a prime factor above 7 (the Bluestein lengths); empty for `n == 1`.
fn smooth_factors(mut n: usize) -> Option<Vec<usize>> {
    let mut factors = Vec::new();
    for p in [4, 2, 3, 5, 7] {
        while n.is_multiple_of(p) {
            factors.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(factors)
}

/// Mixed-radix decimation-in-time plan for a 7-smooth length
/// `n = p₁·p₂·…·p_L`.
///
/// The innermost ("leaf") pass gathers each radix-`p_L` butterfly's
/// inputs through the digit-reversal table and needs no twiddles; the
/// remaining `L − 1` passes combine sub-transforms of growing size `m`
/// in place, reading their twiddles `w^{jk·n/(pm)}` as strided entries
/// of the one full-length table.
#[derive(Debug, Clone)]
struct MixedRadix {
    /// Radices (each 2, 3, 4, 5 or 7), outermost pass first.
    factors: Vec<usize>,
    /// `w^k = e^{-2πik/n}` for `k` in `0..n`.
    twiddles: Vec<Complex64>,
    /// Input offset of each leaf butterfly's first sample, in output
    /// order: the mixed-radix digit reversal of the block index.
    perm: Vec<usize>,
}

impl MixedRadix {
    fn new(n: usize, factors: Vec<usize>) -> Self {
        let twiddles = (0..n)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        // Output block `Σ i_l·m_l` (digit `i_1` most significant) reads
        // input offset `Σ i_l·s_l` with `s_l = p_1·…·p_{l-1}`.
        let mut perm = vec![0];
        let mut stride = 1;
        let outer = factors.split_last().map_or(&[][..], |(_, outer)| outer);
        for &p in outer {
            perm = perm
                .iter()
                .flat_map(|&base| (0..p).map(move |i| base + i * stride))
                .collect();
            stride *= p;
        }
        MixedRadix {
            factors,
            twiddles,
            perm,
        }
    }

    /// Forward transform of `buf` in place; `work` is `buf.len()` samples
    /// of scratch.
    fn forward(&self, buf: &mut [Complex64], work: &mut [Complex64]) {
        let Some((&leaf, outer)) = self.factors.split_last() else {
            return; // n == 1: the identity.
        };
        self.leaf_pass(leaf, buf, work);
        let Some((&top, middle)) = outer.split_first() else {
            buf.copy_from_slice(work); // a single butterfly, n <= 7
            return;
        };
        // Cells let one pass routine serve both the in-place middle
        // passes and the final pass that lands the result back in `buf`.
        let work = Cell::from_mut(work).as_slice_of_cells();
        let mut m = leaf;
        for &p in middle.iter().rev() {
            self.pass(p, work, work, m);
            m *= p;
        }
        self.pass(top, work, Cell::from_mut(buf).as_slice_of_cells(), m);
    }

    fn leaf_pass(&self, p: usize, src: &[Complex64], dst: &mut [Complex64]) {
        let perm = &self.perm;
        match p {
            2 => leaf_pass(src, dst, perm, butterfly2),
            3 => leaf_pass(src, dst, perm, butterfly3),
            4 => leaf_pass(src, dst, perm, butterfly4),
            5 => leaf_pass(src, dst, perm, butterfly5),
            7 => leaf_pass(src, dst, perm, butterfly7),
            _ => unreachable!("smooth_factors yields radices 2, 3, 4, 5, 7"),
        }
    }

    fn pass(&self, p: usize, src: &[Cell<Complex64>], dst: &[Cell<Complex64>], m: usize) {
        let tw = &self.twiddles;
        match p {
            2 => twiddle_pass(src, dst, m, tw, butterfly2),
            3 => twiddle_pass(src, dst, m, tw, butterfly3),
            4 => twiddle_pass(src, dst, m, tw, butterfly4),
            5 => twiddle_pass(src, dst, m, tw, butterfly5),
            7 => twiddle_pass(src, dst, m, tw, butterfly7),
            _ => unreachable!("smooth_factors yields radices 2, 3, 4, 5, 7"),
        }
    }
}

/// Innermost pass: one twiddle-free radix-`P` butterfly per output
/// block, its inputs gathered at stride `n / P` from the block's
/// digit-reversed offset.
#[inline]
fn leaf_pass<const P: usize>(
    src: &[Complex64],
    dst: &mut [Complex64],
    perm: &[usize],
    butterfly: impl Fn([Complex64; P]) -> [Complex64; P],
) {
    let stride = src.len() / P;
    for (&base, out) in perm.iter().zip(dst.chunks_exact_mut(P)) {
        let x = std::array::from_fn(|j| src[base + j * stride]);
        out.copy_from_slice(&butterfly(x));
    }
}

/// One decimation-in-time pass: every run of `P` adjacent length-`m`
/// sub-transforms in `src` becomes one length-`P·m` transform at the
/// same place in `dst` (which may be `src` itself).
#[inline]
fn twiddle_pass<const P: usize>(
    src: &[Cell<Complex64>],
    dst: &[Cell<Complex64>],
    m: usize,
    twiddles: &[Complex64],
    butterfly: impl Fn([Complex64; P]) -> [Complex64; P],
) {
    let span = P * m;
    let step = twiddles.len() / span;
    for (s, d) in src.chunks_exact(span).zip(dst.chunks_exact(span)) {
        for k in 0..m {
            let x = std::array::from_fn(|j| {
                let v = s[k + j * m].get();
                if j == 0 {
                    v
                } else {
                    v * twiddles[j * k * step]
                }
            });
            for (j, y) in butterfly(x).into_iter().enumerate() {
                d[k + j * m].set(y);
            }
        }
    }
}

/// `-i·z`: a quarter turn clockwise, the forward transform's `w_4`.
#[inline]
fn mul_neg_i(z: Complex64) -> Complex64 {
    Complex64::new(z.im, -z.re)
}

#[inline]
fn butterfly2([a, b]: [Complex64; 2]) -> [Complex64; 2] {
    [a + b, a - b]
}

#[inline]
fn butterfly4([a, b, c, d]: [Complex64; 4]) -> [Complex64; 4] {
    let (s02, d02) = (a + c, a - c);
    let (s13, d13) = (b + d, mul_neg_i(b - d));
    [s02 + s13, d02 + d13, s02 - s13, d02 - d13]
}

/// `(cos, sin)(2πk/p)` for the odd radices, correctly rounded.
const ROOT_1_3: (f64, f64) = (-0.5, 0.8660254037844386);
const ROOT_1_5: (f64, f64) = (0.30901699437494745, 0.9510565162951535);
const ROOT_2_5: (f64, f64) = (-0.8090169943749475, 0.5877852522924731);
const ROOT_1_7: (f64, f64) = (0.6234898018587335, 0.7818314824680298);
const ROOT_2_7: (f64, f64) = (-0.2225209339563144, 0.9749279121818236);
const ROOT_3_7: (f64, f64) = (-0.9009688679024191, 0.4338837391175581);

/// The odd butterflies use the conjugate-pair form: outputs `q` and
/// `p - q` share `x_0 + Σ cos(2πqj/p)·(x_j + x_{p-j})` and differ in the
/// sign of `-i·Σ sin(2πqj/p)·(x_j - x_{p-j})`, `j` in `1..=p/2`.
#[inline]
fn butterfly3([a, b, c]: [Complex64; 3]) -> [Complex64; 3] {
    let (c1, s1) = ROOT_1_3;
    let sum = b + c;
    let mid = a + sum.scale(c1);
    let rot = mul_neg_i((b - c).scale(s1));
    [a + sum, mid + rot, mid - rot]
}

#[inline]
fn butterfly5([a, b, c, d, e]: [Complex64; 5]) -> [Complex64; 5] {
    let ((c1, s1), (c2, s2)) = (ROOT_1_5, ROOT_2_5);
    let (s14, d14) = (b + e, b - e);
    let (s23, d23) = (c + d, c - d);
    let m1 = a + s14.scale(c1) + s23.scale(c2);
    let m2 = a + s14.scale(c2) + s23.scale(c1);
    let r1 = mul_neg_i(d14.scale(s1) + d23.scale(s2));
    let r2 = mul_neg_i(d14.scale(s2) - d23.scale(s1));
    [a + s14 + s23, m1 + r1, m2 + r2, m2 - r2, m1 - r1]
}

#[inline]
fn butterfly7(x: [Complex64; 7]) -> [Complex64; 7] {
    let ((c1, s1), (c2, s2), (c3, s3)) = (ROOT_1_7, ROOT_2_7, ROOT_3_7);
    let a = x[0];
    let (s16, d16) = (x[1] + x[6], x[1] - x[6]);
    let (s25, d25) = (x[2] + x[5], x[2] - x[5]);
    let (s34, d34) = (x[3] + x[4], x[3] - x[4]);
    let m1 = a + s16.scale(c1) + s25.scale(c2) + s34.scale(c3);
    let m2 = a + s16.scale(c2) + s25.scale(c3) + s34.scale(c1);
    let m3 = a + s16.scale(c3) + s25.scale(c1) + s34.scale(c2);
    let r1 = mul_neg_i(d16.scale(s1) + d25.scale(s2) + d34.scale(s3));
    let r2 = mul_neg_i(d16.scale(s2) - d25.scale(s3) - d34.scale(s1));
    let r3 = mul_neg_i(d16.scale(s3) - d25.scale(s1) + d34.scale(s2));
    [
        a + s16 + s25 + s34,
        m1 + r1,
        m2 + r2,
        m3 + r3,
        m3 - r3,
        m2 - r2,
        m1 - r1,
    ]
}

/// Reference O(N²) DFT used to validate the fast paths.
///
/// # Example
///
/// ```
/// use river_dsp::fft::{dft_naive, Fft};
/// use river_dsp::Complex64;
///
/// let x: Vec<Complex64> = (0..12).map(|i| Complex64::new(i as f64, -(i as f64))).collect();
/// let fast = Fft::new(12).forward(&x);
/// let slow = dft_naive(&x);
/// for (a, b) in fast.iter().zip(&slow) {
///     assert!((*a - *b).abs() < 1e-8);
/// }
/// ```
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

/// The frequency in Hz of DFT bin `k` for a transform of `n` samples at
/// `sample_rate` Hz.
///
/// ```
/// use river_dsp::fft::bin_frequency;
/// // Production geometry: 840 samples at 20.16 kHz -> 24 Hz bins.
/// assert_eq!(bin_frequency(50, 840, 20_160.0), 1_200.0);
/// assert_eq!(bin_frequency(400, 840, 20_160.0), 9_600.0);
/// ```
pub fn bin_frequency(k: usize, n: usize, sample_rate: f64) -> f64 {
    k as f64 * sample_rate / n as f64
}

/// The DFT bin index whose center frequency is closest to `freq` Hz.
///
/// ```
/// use river_dsp::fft::frequency_bin;
/// assert_eq!(frequency_bin(1_200.0, 840, 20_160.0), 50);
/// ```
pub fn frequency_bin(freq: f64, n: usize, sample_rate: f64) -> usize {
    ((freq * n as f64 / sample_rate).round() as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectra_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "bin {i}: {x} vs {y} (|diff|={})",
                (*x - *y).abs()
            );
        }
    }

    fn impulse(n: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; n];
        v[0] = Complex64::ONE;
        v
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        for &n in &[1usize, 2, 4, 8, 64, 700, 31] {
            let fft = Fft::new(n);
            let spec = fft.forward(&impulse(n));
            for z in &spec {
                assert!((*z - Complex64::ONE).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let n = 128;
        let fft = Fft::new(n);
        let x = vec![Complex64::ONE; n];
        let spec = fft.forward(&x);
        assert!((spec[0] - Complex64::from_real(n as f64)).abs() < 1e-9);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_its_bin() {
        let n = 700;
        let fft = RealFft::new(n);
        let k0 = 50; // bin 50 of a 700-point transform
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft.forward(&x);
        let mags: Vec<f64> = spec.iter().map(|z| z.abs()).collect();
        // Energy should be at bins k0 and n-k0 only.
        assert!((mags[k0] - n as f64 / 2.0).abs() < 1e-6);
        assert!((mags[n - k0] - n as f64 / 2.0).abs() < 1e-6);
        for (k, &m) in mags.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(m < 1e-6, "leak at bin {k}: {m}");
            }
        }
    }

    fn probe(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 0.2).cos()))
            .collect()
    }

    /// One length per butterfly and per mix of them, powers of two with
    /// and without the odd radix-2 pass included.
    #[test]
    fn mixed_radix_matches_naive() {
        for &n in &[2usize, 3, 4, 5, 7, 8, 12, 64, 100, 105, 128, 175, 420, 700] {
            let fft = Fft::new(n);
            assert!(fft.is_mixed_radix(), "n={n}");
            let x = probe(n);
            assert_spectra_close(&fft.forward(&x), &dft_naive(&x), 1e-9);
        }
    }

    #[test]
    fn bluestein_matches_naive_for_awkward_lengths() {
        for &n in &[11usize, 13, 31, 101, 143, 418, 421, 842] {
            let fft = Fft::new(n);
            assert!(!fft.is_mixed_radix(), "n={n}");
            let x = probe(n);
            assert_spectra_close(&fft.forward(&x), &dft_naive(&x), 1e-9);
        }
    }

    #[test]
    fn plan_follows_factorisation_alone() {
        assert_eq!(smooth_factors(1), Some(vec![]));
        assert_eq!(smooth_factors(420), Some(vec![4, 3, 5, 7]));
        assert_eq!(smooth_factors(2048), Some(vec![4, 4, 4, 4, 4, 2]));
        assert_eq!(smooth_factors(421), None);
        assert_eq!(smooth_factors(2 * 11 * 19), None);
        // Bluestein's power-of-two convolution rides the mixed plan, and
        // the scratch covers both levels.
        let awkward = Fft::new(421);
        let Plan::Bluestein { m, inner, .. } = &awkward.plan else {
            panic!("421 is prime");
        };
        assert_eq!(*m, 1024);
        assert!(inner.is_mixed_radix());
        assert_eq!(awkward.scratch_len(), 2048);
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[8usize, 100, 700, 31] {
            let fft = Fft::new(n);
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 1.1).sin(), (i as f64 * 0.5).cos()))
                .collect();
            let back = fft.inverse(&fft.forward(&x));
            assert_spectra_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn linearity() {
        let n = 100;
        let fft = Fft::new(n);
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::from_real(i as f64)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (i as f64).cos()))
            .collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft.forward(&a);
        let fb = fft.forward(&b);
        let fsum = fft.forward(&sum);
        let expected: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert_spectra_close(&fsum, &expected, 1e-8);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 700;
        let fft = Fft::new(n);
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.31).sin(), 0.0))
            .collect();
        let spec = fft.forward(&x);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn conjugate_symmetry_for_real_input() {
        let n = 700;
        let fft = RealFft::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let spec = fft.forward(&x);
        for k in 1..n {
            assert!((spec[k] - spec[n - k].conj()).abs() < 1e-8);
        }
    }

    /// `RealFft` against the full complex transform of zero-padded-
    /// imaginary input, across packed mixed-radix halves, packed
    /// Bluestein halves (62, 842), and the odd-length direct fallback.
    #[test]
    fn realfft_matches_complex_fft() {
        for &n in &[
            1usize, 2, 4, 8, 62, 64, 100, 420, 700, 840, 842, 3, 5, 31, 101, 175,
        ] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin() * 0.7).collect();
            let packed: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            let expected = Fft::new(n).forward(&packed);
            let got = RealFft::new(n).forward(&x);
            assert_spectra_close(&got, &expected, 1e-8);
        }
    }

    #[test]
    fn realfft_forward_into_is_allocation_free_equivalent() {
        let n = 840;
        let plan = RealFft::new(n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut out = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        // Reuse the same scratch twice: the second run must not observe
        // the first's leftovers.
        plan.forward_into(&x, &mut out, &mut scratch);
        let first = out.clone();
        plan.forward_into(&x, &mut out, &mut scratch);
        assert_eq!(first, out);
        assert_spectra_close(&out, &plan.forward(&x), 1e-12);
    }

    #[test]
    fn realfft_magnitudes_match_spectrum_abs() {
        for &n in &[8usize, 31, 100, 840] {
            let plan = RealFft::new(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.41).sin()).collect();
            let window: Vec<f64> = (0..n).map(|i| 0.3 + (i % 7) as f64 * 0.1).collect();
            let mut mags = vec![0.0; n];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.magnitudes_into(&x, Some(&window), &mut mags, &mut scratch);
            let windowed: Vec<f64> = x.iter().zip(&window).map(|(a, w)| a * w).collect();
            let spec = plan.forward(&windowed);
            for (k, (&m, z)) in mags.iter().zip(&spec).enumerate() {
                assert!(
                    (m - z.abs()).abs() < 1e-9,
                    "n={n} bin {k}: {m} vs {}",
                    z.abs()
                );
            }
        }
    }

    #[test]
    fn realfft_production_length_uses_half_size_plan() {
        // 840 packs into a 420-point transform, and 420 = 2²·3·5·7 is
        // 7-smooth: the hot path runs four butterfly passes, with no
        // Bluestein convolution anywhere under it.
        let packed = RealFft::new(840);
        assert_eq!(packed.len(), 840);
        let RealPlan::Packed { half, .. } = &packed.plan else {
            panic!("even lengths pack");
        };
        assert_eq!(half.len(), 420);
        assert!(half.is_mixed_radix());
        assert_eq!(packed.scratch_len(), 840);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn realfft_rejects_wrong_length() {
        RealFft::new(8).forward(&[0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn realfft_zero_length_plan_panics() {
        RealFft::new(0);
    }

    #[test]
    #[should_panic(expected = "scratch length")]
    fn realfft_rejects_short_scratch() {
        let plan = RealFft::new(840);
        let x = vec![0.0; 840];
        let mut out = vec![Complex64::ZERO; 840];
        plan.forward_into(&x, &mut out, &mut []);
    }

    #[test]
    fn bin_frequency_round_trips() {
        for k in [0usize, 1, 50, 350, 399] {
            let f = bin_frequency(k, 840, 20_160.0);
            assert_eq!(frequency_bin(f, 840, 20_160.0), k);
        }
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn forward_rejects_wrong_length() {
        Fft::new(8).forward(&[Complex64::ZERO; 7]);
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn zero_length_plan_panics() {
        Fft::new(0);
    }
}
