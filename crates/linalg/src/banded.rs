//! Banded matrices over any [`Scalar`](crate::Scalar): packed storage, banded
//! gemm/matvec, and banded LU.
//!
//! The QBD generator blocks of the Palmer–Mitrani model are narrow bands — the
//! local transition matrix couples mode `(n_op, n_up)` only to neighbours, so in
//! the lexicographic mode order every nonzero sits within `N + 1` diagonals of
//! the main one, and `B = λI` / the departure matrix `C` are diagonal.  Dense
//! kernels already *skip* those zeros element-wise; this module stops paying for
//! them at all by storing only the band and factoring only inside it.  The
//! matrix-geometric solver factors real bands ([`BandedMatrix`], [`BandedLu`]);
//! the spectral solver factors `Q(z)ᵀ` at every eigenvalue `z`, a complex band
//! with the union bandwidth of the generator blocks ([`CBandedMatrix`],
//! [`CBandedLu`]).
//!
//! # Storage
//!
//! [`BandMatrix`] packs an `n × n` matrix with `kl` subdiagonals and `ku`
//! superdiagonals row-major into `n` rows of width `kl + ku + 1`: element
//! `(i, j)` lives at `data[i·w + (j − i + kl)]`, so the main diagonal sits at
//! column offset `kl` of every packed row.  Out-of-band slots at the edges stay
//! exactly zero and are never read by the kernels.
//!
//! # Bit-identity with the dense kernels
//!
//! Every kernel here performs, per output element, the identical sequence of
//! floating-point operations the dense counterpart performs on the same
//! operand with its zeros materialised — ascending-`k` accumulation in
//! [`BandMatrix::gemm_into`] (the dense tiling never reorders a single
//! element's terms), and the textbook right-looking elimination in
//! [`BandLu`] (the dense blocked LU is bit-identical to the unblocked one by
//! construction).  The one structural difference is pivoting bookkeeping: the
//! dense factorisation swaps whole rows eagerly, while the banded one uses the
//! LAPACK `gbtrf` arrangement — only the `U`-parts of rows are exchanged and
//! multipliers stay in the slot where they were created, with the row
//! interchanges replayed *during* the solves.  Replaying the interchanges in
//! elimination order hands every logical row exactly the multiplier sequence
//! the dense solve applies to it, in the same ascending column order, so
//! factors, solves and determinants agree with the dense path to the last bit
//! (pinned by the in-module tests and the `properties` proptest suite).
//!
//! Caveat: the dense path also touches below-band entries whose multipliers are
//! exact zeros (`0.0 / pivot`), contributing `x − (±0·y)` no-ops.  Those no-ops
//! can flip the sign of an *exactly zero* intermediate (`-0.0 − (-0.0) = +0.0`);
//! bit-identity therefore assumes right-hand sides free of `-0.0`, which holds
//! for every probability-vector and generator-block RHS the solvers produce.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::PIVOT_EPS;
use crate::matrix::{dot, DenseMatrix};
use crate::scalar::Scalar;
use crate::workspace::Workspace;
use crate::Result;

/// An `n × n` matrix with `kl` subdiagonals and `ku` superdiagonals in packed
/// row-major band storage.
///
/// Construction is cheap (`O(n·(kl + ku + 1))` storage) and the kernels —
/// [`matvec_into`](Self::matvec_into), [`gemm_into`](Self::gemm_into), and the
/// [`BandLu`] factorisation — cost `O(n·w)` / `O(n·w·m)` / `O(n·w²)` instead
/// of their dense `O(n²)` / `O(n²·m)` / `O(n³)` counterparts, while producing
/// bit-identical results on the same nonzero pattern (see the module docs).
/// The two instantiations are named [`BandedMatrix`] and [`CBandedMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrix<T: Scalar> {
    n: usize,
    kl: usize,
    ku: usize,
    /// Packed rows of width `kl + ku + 1`; element `(i, j)` at
    /// `data[i * width + (j + kl - i)]`.
    data: Vec<T>,
}

/// A real banded matrix.
///
/// # Example
///
/// ```
/// use urs_linalg::{BandedMatrix, Matrix};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// // Tridiagonal 4×4: 2 on the diagonal, -1 on the off-diagonals.
/// let a = BandedMatrix::from_fn(4, 1, 1, |i, j| {
///     if i == j { 2.0 } else { -1.0 }
/// });
/// let mut y = [0.0; 4];
/// a.matvec_into(&[1.0, 1.0, 1.0, 1.0], &mut y)?;
/// assert_eq!(y, [1.0, 0.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
pub type BandedMatrix = BandMatrix<f64>;

/// A complex banded matrix.
pub type CBandedMatrix = BandMatrix<Complex>;

impl<T: Scalar> BandMatrix<T> {
    /// Creates an `n × n` banded matrix of zeros with the given bandwidths
    /// (clamped to `n.saturating_sub(1)`).
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let cap = n.saturating_sub(1);
        let (kl, ku) = (kl.min(cap), ku.min(cap));
        BandMatrix { n, kl, ku, data: vec![T::ZERO; n * (kl + ku + 1)] }
    }

    /// Creates a banded matrix by evaluating `f(i, j)` at every in-band
    /// position; out-of-band elements are zero.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(n: usize, kl: usize, ku: usize, mut f: F) -> Self {
        let mut m = Self::zeros(n, kl, ku);
        let (kl, ku, w) = (m.kl, m.ku, m.width());
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                m.data[i * w + (j + kl - i)] = f(i, j);
            }
        }
        m
    }

    /// Packs a dense matrix into band storage with the given bandwidths.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::InvalidInput`] if any element outside the stated band is
    /// nonzero — the caller's bandwidth claim must be exact so the packed and
    /// dense operands describe the same matrix.
    pub fn from_dense(a: &DenseMatrix<T>, kl: usize, ku: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let cap = n.saturating_sub(1);
        let (kl, ku) = (kl.min(cap), ku.min(cap));
        for i in 0..n {
            for j in 0..n {
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                if (j + kl < i || j > i + ku) && a[(i, j)] != T::ZERO {
                    return Err(LinalgError::InvalidInput(format!(
                        "element ({i},{j}) is outside the claimed band (kl={kl}, ku={ku}) but nonzero"
                    )));
                }
            }
        }
        // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
        Ok(Self::from_fn(n, kl, ku, |i, j| a[(i, j)]))
    }

    /// Measures the exact lower and upper bandwidths of a square dense matrix:
    /// the smallest `(kl, ku)` such that every nonzero of `a` satisfies
    /// `i − kl ≤ j ≤ i + ku`.  Returns `(0, 0)` for diagonal (and empty)
    /// matrices.
    pub fn bandwidths_of(a: &DenseMatrix<T>) -> (usize, usize) {
        let n = a.rows().min(a.cols());
        let (mut kl, mut ku) = (0usize, 0usize);
        for i in 0..n {
            for j in 0..n {
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                if a[(i, j)] != T::ZERO {
                    if j < i {
                        kl = kl.max(i - j);
                    } else {
                        ku = ku.max(j - i);
                    }
                }
            }
        }
        (kl, ku)
    }

    /// Dimension of the (square) matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of subdiagonals.
    #[inline]
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Number of superdiagonals.
    #[inline]
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    /// Packed row width `kl + ku + 1`.
    #[inline]
    fn width(&self) -> usize {
        self.kl + self.ku + 1
    }

    /// Element access; out-of-band positions read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for dim {}", self.n);
        if j + self.kl < i || j > i + self.ku {
            T::ZERO
        } else {
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            self.data[i * self.width() + (j + self.kl - i)]
        }
    }

    /// Writes an in-band element.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds or outside the band.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of bounds for dim {}", self.n);
        assert!(
            j + self.kl >= i && j <= i + self.ku,
            "index ({i},{j}) outside band (kl={}, ku={})",
            self.kl,
            self.ku
        );
        let w = self.width();
        // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
        self.data[i * w + (j + self.kl - i)] = value;
    }

    /// Expands to a dense matrix (for tests, diagnostics and dense fallbacks).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        DenseMatrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Maximum modulus of any in-band element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.modulus()))
    }

    /// Banded matrix–vector product `out = self · v`, allocation-free.
    ///
    /// Per output row the in-band terms accumulate in ascending column order —
    /// the same order the dense [`DenseMatrix::matvec`] uses, with the out-of-band
    /// `0·vⱼ` no-ops elided (see the module docs for the `-0.0` caveat).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v` or `out` has the
    /// wrong length.
    pub fn matvec_into(&self, v: &[T], out: &mut [T]) -> Result<()> {
        let n = self.n;
        if v.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded matrix-vector product",
                left: (n, n),
                right: (v.len().max(out.len()), 1),
            });
        }
        let w = self.width();
        // urs-analyze: begin(no_alloc)
        for (i, oi) in out.iter_mut().enumerate() {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &self.data[i * w + (j0 + self.kl - i)..i * w + (j1 - 1 + self.kl - i) + 1];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            *oi = dot(row, &v[j0..j1]);
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Banded multiply-accumulate `c ← alpha·self·b + beta·c` with a dense
    /// right operand and output, allocation-free.
    ///
    /// Per output element the `k` terms accumulate in ascending order with the
    /// same `alpha·a == 0` skip as the dense [`DenseMatrix::gemm`], so on the same
    /// nonzero pattern the results agree bit for bit; the band merely bounds
    /// which `k` are visited at all.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `c.shape() == (self.dim(), b.cols())` and `b.rows() == self.dim()`.
    pub fn gemm_into(
        &self,
        alpha: T,
        b: &DenseMatrix<T>,
        beta: T,
        c: &mut DenseMatrix<T>,
    ) -> Result<()> {
        let n = self.n;
        if b.rows() != n || c.rows() != n || c.cols() != b.cols() {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded multiply-accumulate (gemm)",
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        let w = self.width();
        let bd = b.as_slice();
        let cd = c.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        if beta == T::ZERO {
            cd.fill(T::ZERO);
        } else if beta != T::ONE {
            for x in cd.iter_mut() {
                *x *= beta;
            }
        }
        if alpha == T::ZERO || m == 0 {
            return Ok(());
        }
        for i in 0..n {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let a_row = &self.data[i * w + (j0 + self.kl - i)..i * w + (j1 - 1 + self.kl - i) + 1];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let c_row = &mut cd[i * m..(i + 1) * m];
            for (offset, &av) in a_row.iter().enumerate() {
                let aip = alpha * av;
                if aip == T::ZERO {
                    continue;
                }
                let p = j0 + offset;
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                let b_row = &bd[p * m..(p + 1) * m];
                for (x, &bv) in c_row.iter_mut().zip(b_row) {
                    *x += aip * bv;
                }
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }

    /// Banded LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BandLu::new`].
    pub fn lu(&self) -> Result<BandLu<T>> {
        BandLu::new(self)
    }
}

impl BandMatrix<f64> {
    /// Runs an unpivoted LU elimination in place and reports whether every
    /// pivot was positive.  The elimination stops at the first pivot that is
    /// not positive (a NaN pivot counts as not positive).
    ///
    /// Without row interchanges the factors of a band stay inside it, so the
    /// elimination writes only the stored band: `O(n·kl·ku)` work and no
    /// allocation.  Afterwards the band holds the multipliers below the
    /// diagonal and `U` on and above it, up to the step where it stopped.
    ///
    /// For a Z-matrix (every off-diagonal entry `≤ 0`) the answer is `true`
    /// exactly when the matrix is a nonsingular M-matrix, that is, when every
    /// eigenvalue has a positive real part (Berman & Plemmons, *Nonnegative
    /// Matrices in the Mathematical Sciences*, 1994, ch. 6).
    ///
    /// # Example
    ///
    /// ```
    /// use urs_linalg::BandedMatrix;
    ///
    /// // 2 on the diagonal, -1 beside it: an M-matrix.  With 1 on the
    /// // diagonal the 3×3 determinant is negative, so it is not.
    /// let mut a = BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 2.0 } else { -1.0 });
    /// assert!(a.eliminate_unpivoted());
    /// let mut b = BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 1.0 } else { -1.0 });
    /// assert!(!b.eliminate_unpivoted());
    /// ```
    pub fn eliminate_unpivoted(&mut self) -> bool {
        let (n, kl, ku, w) = (self.n, self.kl, self.ku, self.width());
        let d = self.data.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        for k in 0..n {
            // urs-analyze: allow(slice_index, reason = "row k, diagonal slot kl: in range because every packed row has width kl + ku + 1")
            let pivot = d[k * w + kl];
            if pivot.is_nan() || pivot <= 0.0 {
                return false;
            }
            let bl = kl.min(n - 1 - k);
            let u_extent = ku.min(n - 1 - k);
            // urs-analyze: allow(slice_index, reason = "split after row k; k + 1 ≤ n rows exist")
            let (upper, lower) = d.split_at_mut((k + 1) * w);
            // urs-analyze: allow(slice_index, reason = "U-part of row k beyond the diagonal: offsets kl+1..=kl+u_extent within the row width")
            let u_row = &upper[k * w + kl + 1..k * w + kl + 1 + u_extent];
            for (t, row) in lower.chunks_exact_mut(w).take(bl).enumerate() {
                // Row k+t+1 holds column k at offset kl − (t+1) ≥ 0 since t + 1 ≤ bl ≤ kl,
                // and columns k+1..=k+u_extent right after it, at most kl + ku − 1.
                let off = kl - (t + 1);
                // urs-analyze: allow(slice_index, reason = "column-k slot of row k+t+1, in range as stated above")
                let factor = row[off] / pivot;
                // urs-analyze: allow(slice_index, reason = "column-k slot of row k+t+1, in range as stated above")
                row[off] = factor;
                // urs-analyze: allow(slice_index, reason = "update window off+1..=off+u_extent ends at most at kl + ku − 1")
                for (x, &u) in row[off + 1..off + 1 + u_extent].iter_mut().zip(u_row) {
                    *x -= factor * u;
                }
            }
        }
        // urs-analyze: end(no_alloc)
        true
    }
}

/// A banded LU factorisation `P·A = L·U` with partial pivoting, stored packed.
///
/// Pivoting widens `U` by up to `kl` extra superdiagonals (the classic fill of
/// `gbtrf`), so the working rows have width `kl + min(kl + ku, n − 1) + 1`; the
/// factor never touches — and never allocates — anything outside that window.
/// Multipliers are stored in the packed slot where they were created (rows are
/// *not* L-swapped) and the recorded interchanges are replayed inside the
/// solves, which makes every solve bit-identical to the dense
/// [`DenseLu`](crate::DenseLu) on the same matrix (module docs give the argument
/// and the `-0.0` caveat).  Singularity bookkeeping matches the dense factor: the
/// first underflowing pivot column and the smallest pivot modulus are both
/// recorded, and a near-singular factor remains usable through
/// [`solve_regularized_into`](Self::solve_regularized_into) — the
/// inverse-iteration kernel of the spectral solver.  The two instantiations are
/// named [`BandedLu`] and [`CBandedLu`].
#[derive(Debug, Clone)]
pub struct BandLu<T: Scalar> {
    n: usize,
    /// Subdiagonals of `A` (multiplier window height).
    kl: usize,
    /// Superdiagonals of `U` including pivoting fill: `min(kl + ku, n − 1)`.
    bw: usize,
    /// Packed working rows of width `kl + bw + 1`, diagonal at offset `kl`.
    data: Vec<T>,
    /// `piv[k]` is the row exchanged with row `k` at elimination step `k`.
    piv: Vec<usize>,
    perm_sign: f64,
    singular_at: Option<usize>,
    /// Index of the smallest pivot (by modulus) and its modulus.
    min_pivot: (usize, f64),
}

/// Banded LU factorisation of a real matrix.
///
/// # Example
///
/// ```
/// use urs_linalg::BandedMatrix;
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = BandedMatrix::from_fn(3, 1, 1, |i, j| if i == j { 2.0 } else { 1.0 });
/// let lu = a.lu()?;
/// let mut x = [0.0; 3];
/// lu.solve_into(&[3.0, 4.0, 3.0], &mut x)?;
/// assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
pub type BandedLu = BandLu<f64>;

/// Banded LU factorisation of a complex matrix.
pub type CBandedLu = BandLu<Complex>;

impl<T: Scalar> BandLu<T> {
    /// Factorises a banded matrix, rejecting singular input.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for empty or non-finite input and
    /// [`LinalgError::Singular`] when a pivot underflows — with the same pivot
    /// index the dense factorisation reports.
    pub fn new(a: &BandMatrix<T>) -> Result<Self> {
        let lu = Self::factor_allow_singular(a, None)?;
        lu.ensure_regular()?;
        Ok(lu)
    }

    /// [`new`](Self::new) with the working storage borrowed from `ws`; return
    /// it with [`recycle`](Self::recycle) so a refactorising hot loop performs
    /// no steady-state allocation (the pivot vector is retained inside the
    /// returned value and recycled with the storage).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn new_pooled(a: &BandMatrix<T>, ws: &mut Workspace) -> Result<Self> {
        let lu = Self::factor_allow_singular(a, Some(ws))?;
        if let Err(e) = lu.ensure_regular() {
            lu.recycle(ws);
            return Err(e);
        }
        Ok(lu)
    }

    /// Factorises a banded matrix, tolerating exactly singular input (the
    /// decomposition still yields [`determinant`](Self::determinant) `= 0`;
    /// solves return [`LinalgError::Singular`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] for empty or non-finite input.
    pub fn new_allow_singular(a: &BandMatrix<T>) -> Result<Self> {
        Self::factor_allow_singular(a, None)
    }

    /// [`new_allow_singular`](Self::new_allow_singular) with the working
    /// storage borrowed from `ws`; return it with [`recycle`](Self::recycle).
    ///
    /// # Errors
    ///
    /// Same conditions as [`new_allow_singular`](Self::new_allow_singular).
    pub fn new_allow_singular_pooled(a: &BandMatrix<T>, ws: &mut Workspace) -> Result<Self> {
        Self::factor_allow_singular(a, Some(ws))
    }

    /// Returns the working storage to `ws` for reuse.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.release_buffer(self.data);
    }

    fn factor_allow_singular(a: &BandMatrix<T>, ws: Option<&mut Workspace>) -> Result<Self> {
        let n = a.n;
        if n == 0 {
            return Err(LinalgError::InvalidInput("matrix must be non-empty".into()));
        }
        if !a.data.iter().all(|x| x.is_finite()) {
            return Err(LinalgError::InvalidInput("matrix contains non-finite values".into()));
        }
        let kl = a.kl;
        let bw = (a.kl + a.ku).min(n - 1);
        let w = kl + bw + 1;
        let aw = a.width();
        let mut data = match ws {
            Some(ws) => ws.buffer(n * w),
            None => vec![T::ZERO; n * w],
        };
        // Copy the band into the widened working rows; the extra `bw − ku`
        // fill columns start as exact zeros, as they are in the dense factor.
        for i in 0..n {
            let j0 = i.saturating_sub(a.kl);
            let j1 = (i + a.ku + 1).min(n);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            data[i * w + (j0 + kl - i)..i * w + (j1 - 1 + kl - i) + 1].copy_from_slice(
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                &a.data[i * aw + (j0 + a.kl - i)..i * aw + (j1 - 1 + a.kl - i) + 1],
            );
        }
        let mut piv = Vec::with_capacity(n);
        let mut perm_sign = 1.0;
        let mut singular_at = None;
        let mut min_pivot = (0usize, f64::INFINITY);
        let d = data.as_mut_slice();

        // Unblocked right-looking elimination (the dense blocked kernel is
        // bit-identical to this order by construction); only rows k..k+kl can
        // hold nonzeros in column k, so the pivot search and the update stop
        // at the band edge.
        // urs-analyze: begin(no_alloc)
        for k in 0..n {
            let bl = kl.min(n - 1 - k);
            let u_extent = bw.min(n - 1 - k);
            // Pivot search down column k: the candidate in row k+t sits at
            // packed offset kl − t.  Strict `>` matches the dense search, and
            // the dense candidates below the band are exact zeros which a
            // strict `>` against a non-negative running max never selects.
            let mut pivot_t = 0usize;
            // urs-analyze: allow(slice_index, reason = "row k, diagonal slot kl: in range because every working row has width kl + bw + 1")
            let mut pivot_val = d[k * w + kl].modulus();
            for t in 1..=bl {
                // urs-analyze: allow(slice_index, reason = "row k+t ≤ n−1 and column offset kl − t ≥ 0 by the loop bound bl = min(kl, n−1−k)")
                let v = d[(k + t) * w + kl - t].modulus();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_t = t;
                }
            }
            piv.push(k + pivot_t);
            if pivot_t != 0 {
                // Exchange only the U-parts (columns k..=k+u_extent); the
                // multipliers already stored to the left stay in place and the
                // solves replay the interchange instead.
                let t = pivot_t;
                // urs-analyze: allow(slice_index, reason = "rows k and k+t are distinct and in range; split at the later row start")
                let (head, tail) = d.split_at_mut((k + t) * w);
                // urs-analyze: allow(slice_index, reason = "U-part of row k: offsets kl..=kl+u_extent fit the working width kl + bw + 1")
                let row_k = &mut head[k * w + kl..k * w + kl + u_extent + 1];
                // urs-analyze: allow(slice_index, reason = "U-part of row k+t: offsets kl−t..=kl−t+u_extent; kl ≥ t and u_extent ≤ bw keep both ends in the row")
                let row_t = &mut tail[kl - t..kl - t + u_extent + 1];
                row_k.swap_with_slice(row_t);
                perm_sign = -perm_sign;
            }
            if pivot_val < min_pivot.1 {
                min_pivot = (k, pivot_val);
            }
            if pivot_val < PIVOT_EPS {
                singular_at = singular_at.or(Some(k));
                continue;
            }
            if bl == 0 {
                continue;
            }
            // urs-analyze: allow(slice_index, reason = "diagonal slot of row k, in range as above")
            let pivot = d[k * w + kl];
            // Multipliers and the rank-1 update of the rows below, each
            // against the pivot row's U-part — identical per-row arithmetic to
            // the dense elimination, restricted to the band.
            // urs-analyze: allow(slice_index, reason = "split between row k and row k+1; both sides non-empty because bl ≥ 1")
            let (upper, lower) = d.split_at_mut((k + 1) * w);
            // urs-analyze: allow(slice_index, reason = "pivot row U-part beyond the diagonal: offsets kl+1..=kl+u_extent within the working width")
            let u_row = &upper[k * w + kl + 1..k * w + kl + u_extent + 1];
            for (t, row) in lower.chunks_exact_mut(w).take(bl).enumerate() {
                let off = kl - (t + 1);
                // urs-analyze: allow(slice_index, reason = "column-k slot of row k+t+1 at offset kl−(t+1) ≥ 0 since t+1 ≤ bl ≤ kl")
                let factor = row[off] / pivot;
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                row[off] = factor;
                if factor != T::ZERO {
                    // urs-analyze: allow(slice_index, reason = "update window off+1..=off+u_extent stays within the row: off + u_extent ≤ kl + bw")
                    for (x, &u) in row[off + 1..off + u_extent + 1].iter_mut().zip(u_row) {
                        *x -= factor * u;
                    }
                }
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(BandLu { n, kl, bw, data, piv, perm_sign, singular_at, min_pivot })
    }

    /// Dimension of the factorised matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix was found to be singular.
    pub fn is_singular(&self) -> bool {
        self.singular_at.is_some()
    }

    /// Modulus of the smallest pivot encountered; a small value indicates
    /// (near) singularity.
    pub fn smallest_pivot(&self) -> f64 {
        self.min_pivot.1
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> T {
        if self.singular_at.is_some() {
            return T::ZERO;
        }
        let w = self.kl + self.bw + 1;
        let mut det = T::from_real(self.perm_sign);
        for i in 0..self.n {
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            det *= self.data[i * w + self.kl];
        }
        det
    }

    fn ensure_regular(&self) -> Result<()> {
        if let Some(pivot) = self.singular_at {
            return Err(LinalgError::Singular { pivot });
        }
        Ok(())
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`solve_into`](Self::solve_into).
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut x = vec![T::ZERO; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (no allocation).
    ///
    /// The recorded interchanges are replayed in elimination order, so each
    /// logical row receives exactly the multiplier subtractions — in the same
    /// ascending column order — that the dense solve applies after its
    /// up-front permutation; the back-substitution then runs row-oriented like
    /// the dense one, restricted to the `U` band.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular, or
    /// [`LinalgError::DimensionMismatch`] on wrong lengths.
    pub fn solve_into(&self, b: &[T], x: &mut [T]) -> Result<()> {
        self.ensure_regular()?;
        self.check_lengths(b.len(), x.len())?;
        self.substitute(b, x, None);
        Ok(())
    }

    /// Solves `(A with tiny pivots floored) x = b` — the inverse-iteration
    /// kernel: near-singular `U` diagonals below `floor` in modulus are
    /// replaced by the real value `floor`, so the solve amplifies the
    /// null-space direction instead of overflowing.  Deterministic: the floor
    /// is applied per-element by value, independent of iteration count or
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on wrong lengths or
    /// [`LinalgError::InvalidInput`] for a non-positive floor.
    pub fn solve_regularized_into(&self, b: &[T], x: &mut [T], floor: f64) -> Result<()> {
        if floor.is_nan() || floor <= 0.0 {
            return Err(LinalgError::InvalidInput("regularization floor must be positive".into()));
        }
        self.check_lengths(b.len(), x.len())?;
        self.substitute(b, x, Some(floor));
        Ok(())
    }

    fn check_lengths(&self, b: usize, x: usize) -> Result<()> {
        if b != self.n || x != self.n {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded LU solve",
                left: (self.n, self.n),
                right: (b.max(x), 1),
            });
        }
        Ok(())
    }

    /// Forward/backward substitution shared by the exact and regularized
    /// solves; `floor` is `None` for the exact path.
    fn substitute(&self, b: &[T], x: &mut [T], floor: Option<f64>) {
        let n = self.n;
        let w = self.kl + self.bw + 1;
        let d = &self.data;
        x.copy_from_slice(b);
        // urs-analyze: begin(no_alloc)
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
            let bl = self.kl.min(n - 1 - k);
            // urs-analyze: allow(slice_index, reason = "x[k] read after the interchange; k < n by the loop bound")
            let xk = x[k];
            for t in 1..=bl {
                // urs-analyze: allow(slice_index, reason = "multiplier of row k+t for column k at packed offset kl − t, in range as in the factorisation")
                let l = d[(k + t) * w + self.kl - t];
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                x[k + t] -= l * xk;
            }
        }
        for i in (0..n).rev() {
            let u_extent = self.bw.min(n - 1 - i);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &d[i * w + self.kl..i * w + self.kl + u_extent + 1];
            // urs-analyze: allow(slice_index, reason = "x[i] with i < n; the zip below bounds the U traversal to u_extent terms")
            let mut sum = x[i];
            // urs-analyze: allow(slice_index, reason = "x[i+1..i+1+u_extent] is in range because i + u_extent ≤ n − 1")
            for (&u, &xj) in row[1..].iter().zip(x[i + 1..].iter()) {
                sum -= u * xj;
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let mut diag = row[0];
            if let Some(f) = floor {
                if diag.modulus() < f {
                    diag = T::from_real(f);
                }
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            x[i] = sum / diag;
        }
        // urs-analyze: end(no_alloc)
    }

    /// Solves `A X = B` into a caller-provided matrix (no allocation) with
    /// whole-row operations — the banded form of the dense
    /// [`solve_matrix_into`](crate::DenseLu::solve_matrix_into),
    /// including its `≠ 0` skips, with interchanges replayed in elimination
    /// order.
    ///
    /// # Errors
    ///
    /// Same as [`solve_into`](Self::solve_into), plus shape checks on `B` and
    /// `out`.
    pub fn solve_matrix_into(&self, b: &DenseMatrix<T>, out: &mut DenseMatrix<T>) -> Result<()> {
        self.ensure_regular()?;
        let n = self.n;
        if b.rows() != n || out.shape() != b.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "banded LU matrix solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let m = b.cols();
        out.copy_from(b)?;
        let w = self.kl + self.bw + 1;
        let d = &self.data;
        let x = out.as_mut_slice();
        // urs-analyze: begin(no_alloc)
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                // urs-analyze: allow(slice_index, reason = "rows k < p < n of the RHS; disjoint slices via split at p·m")
                let (head, tail) = x.split_at_mut(p * m);
                // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
                head[k * m..(k + 1) * m].swap_with_slice(&mut tail[..m]);
            }
            let bl = self.kl.min(n - 1 - k);
            if bl == 0 {
                continue;
            }
            // urs-analyze: allow(slice_index, reason = "split between RHS rows k and k+1, both in range since bl ≥ 1")
            let (upper, lower) = x.split_at_mut((k + 1) * m);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let xk = &upper[k * m..];
            for (t, xrow) in lower.chunks_exact_mut(m).take(bl).enumerate() {
                // urs-analyze: allow(slice_index, reason = "multiplier slot of row k+t+1 at offset kl − (t+1), in range as in the factorisation")
                let l = d[(k + t + 1) * w + self.kl - (t + 1)];
                if l != T::ZERO {
                    for (xt, &v) in xrow.iter_mut().zip(xk) {
                        *xt -= l * v;
                    }
                }
            }
        }
        for i in (0..n).rev() {
            let u_extent = self.bw.min(n - 1 - i);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let row = &d[i * w + self.kl..i * w + self.kl + u_extent + 1];
            // urs-analyze: allow(slice_index, reason = "split between RHS rows i and i+1; i < n by the loop bound")
            let (head, tail) = x.split_at_mut((i + 1) * m);
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let xi = &mut head[i * m..];
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            for (j, &u) in row[1..].iter().enumerate() {
                if u != T::ZERO {
                    // urs-analyze: allow(slice_index, reason = "RHS row i+1+j with j < u_extent, hence i+1+j ≤ n−1")
                    let xj = &tail[j * m..(j + 1) * m];
                    for (t, &v) in xi.iter_mut().zip(xj) {
                        *t -= u * v;
                    }
                }
            }
            // urs-analyze: allow(slice_index, reason = "band offset stays within (kl, ku) validated at construction; hot kernel path")
            let inv = row[0];
            for t in xi.iter_mut() {
                *t /= inv;
            }
        }
        // urs-analyze: end(no_alloc)
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DenseLu, LuDecomposition, Matrix};

    pub(crate) fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }
    }

    /// Test-side helpers over both scalars: a pseudo-random draw (a complex
    /// draw takes two consecutive reals) and the bit pattern for exact
    /// comparisons.
    pub(crate) trait Draw: Scalar {
        fn draw(next: &mut impl FnMut() -> f64) -> Self;
        fn bits(self) -> [u64; 2];
    }

    impl Draw for f64 {
        fn draw(next: &mut impl FnMut() -> f64) -> f64 {
            next()
        }
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Draw for Complex {
        fn draw(next: &mut impl FnMut() -> f64) -> Complex {
            Complex::new(next(), next())
        }
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    pub(crate) fn bits<T: Draw>(xs: &[T]) -> Vec<[u64; 2]> {
        xs.iter().map(|&x| x.bits()).collect()
    }

    pub(crate) fn random_banded<T: Draw>(
        n: usize,
        kl: usize,
        ku: usize,
        seed: u64,
    ) -> BandMatrix<T> {
        let mut next = rng(seed);
        BandMatrix::from_fn(n, kl, ku, |i, j| {
            let v = T::draw(&mut next);
            if i == j {
                v + T::from_real(4.0)
            } else {
                v
            }
        })
    }

    /// Banded and dense matvec agree bitwise on a vector drawn from `next`.
    pub(crate) fn assert_matvec_matches_dense<T: Draw>(
        a: &BandMatrix<T>,
        next: &mut impl FnMut() -> f64,
    ) {
        let n = a.dim();
        let v: Vec<T> = (0..n).map(|_| T::draw(next)).collect();
        let mut y = vec![T::ZERO; n];
        a.matvec_into(&v, &mut y).unwrap();
        assert_eq!(bits(&y), bits(&a.to_dense().matvec(&v).unwrap()));
    }

    /// Banded and dense LU agree bitwise on the determinant and a solve.
    pub(crate) fn assert_factor_and_solve_match_dense<T: Draw>(
        a: &BandMatrix<T>,
        next: &mut impl FnMut() -> f64,
    ) -> (BandLu<T>, DenseLu<T>) {
        let n = a.dim();
        let blu = a.lu().unwrap();
        let dlu = DenseLu::new(&a.to_dense()).unwrap();
        assert_eq!(blu.determinant().bits(), dlu.determinant().bits());
        let b: Vec<T> = (0..n).map(|_| T::draw(next)).collect();
        let mut xb = vec![T::ZERO; n];
        let mut xd = vec![T::ZERO; n];
        blu.solve_into(&b, &mut xb).unwrap();
        dlu.solve_into(&b, &mut xd).unwrap();
        assert_eq!(bits(&xb), bits(&xd), "n={n} kl={} ku={}", a.kl, a.ku);
        (blu, dlu)
    }

    /// Both factorisations of `a` fail at the same singular pivot.
    pub(crate) fn assert_singular_semantics_match_dense<T: Draw>(a: &BandMatrix<T>) {
        let dense = a.to_dense();
        let db = BandLu::new(a).unwrap_err();
        let dd = DenseLu::new(&dense).unwrap_err();
        match (db, dd) {
            (LinalgError::Singular { pivot: p }, LinalgError::Singular { pivot: q }) => {
                assert_eq!(p, q)
            }
            other => panic!("expected Singular from both, got {other:?}"),
        }
        let blu = BandLu::new_allow_singular(a).unwrap();
        let dlu = DenseLu::new_allow_singular(&dense).unwrap();
        assert!(blu.is_singular());
        assert_eq!(blu.smallest_pivot().to_bits(), dlu.smallest_pivot().to_bits());
        assert_eq!(blu.determinant(), T::ZERO);
        assert!(blu.solve(&vec![T::ONE; a.dim()]).is_err());
    }

    #[test]
    fn packing_round_trips_and_rejects_out_of_band() {
        let a = random_banded::<f64>(7, 2, 3, 1);
        let dense = a.to_dense();
        let packed = BandedMatrix::from_dense(&dense, 2, 3).unwrap();
        assert_eq!(packed, a);
        assert_eq!(BandedMatrix::bandwidths_of(&dense), (2, 3));
        let mut bad = dense.clone();
        bad[(6, 0)] = 1.0;
        assert!(matches!(BandedMatrix::from_dense(&bad, 2, 3), Err(LinalgError::InvalidInput(_))));
    }

    #[test]
    fn matvec_and_gemm_match_dense_bitwise() {
        for &(n, kl, ku) in &[(1usize, 0usize, 0usize), (5, 0, 2), (6, 3, 0), (9, 2, 2), (8, 7, 7)]
        {
            let a = random_banded::<f64>(n, kl, ku, 7 + n as u64);
            let mut next = rng(99);
            assert_matvec_matches_dense(&a, &mut next);
            let b = Matrix::from_fn(n, 4, |_, _| next());
            let mut c = Matrix::from_fn(n, 4, |_, _| next());
            let mut cd = c.clone();
            a.gemm_into(1.5, &b, 0.5, &mut c).unwrap();
            cd.gemm(1.5, &a.to_dense(), &b, 0.5).unwrap();
            assert_eq!(bits(c.as_slice()), bits(cd.as_slice()));
        }
    }

    #[test]
    fn factor_and_solves_match_dense_bitwise() {
        for &(n, kl, ku) in
            &[(1usize, 0usize, 0usize), (4, 1, 1), (7, 0, 3), (7, 3, 0), (12, 2, 4), (10, 9, 9)]
        {
            let a = random_banded::<f64>(n, kl, ku, 31 + 3 * n as u64 + ku as u64);
            let mut next = rng(5);
            let (blu, dlu) = assert_factor_and_solve_match_dense(&a, &mut next);
            let bm = Matrix::from_fn(n, 3, |_, _| next());
            let mut ob = Matrix::zeros(n, 3);
            let mut od = Matrix::zeros(n, 3);
            blu.solve_matrix_into(&bm, &mut ob).unwrap();
            dlu.solve_matrix_into(&bm, &mut od).unwrap();
            assert_eq!(bits(ob.as_slice()), bits(od.as_slice()), "n={n} kl={kl} ku={ku}");
        }
    }

    #[test]
    fn pivoting_is_exercised_and_still_matches_dense() {
        // Leading entry much smaller than the subdiagonal forces interchanges.
        let n = 8;
        let a = BandedMatrix::from_fn(n, 2, 1, |i, j| {
            if i == j {
                1e-3
            } else {
                1.0 + (i * 7 + j) as f64 * 0.1
            }
        });
        let dense = a.to_dense();
        let blu = a.lu().unwrap();
        let dlu = LuDecomposition::new(&dense).unwrap();
        assert_eq!(blu.determinant().to_bits(), dlu.determinant().to_bits());
        let b: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.3).collect();
        assert_eq!(bits(&blu.solve(&b).unwrap()), bits(&dlu.solve(&b).unwrap()));
    }

    #[test]
    fn singular_semantics_match_dense() {
        // Two proportional rows inside the band → singular at the same pivot.
        let mut a = BandedMatrix::zeros(3, 1, 1);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 4.0);
        a.set(2, 2, 1.0);
        assert_singular_semantics_match_dense(&a);
    }

    #[test]
    fn pooled_factorisation_recycles_storage() {
        let mut ws = Workspace::new();
        let a = random_banded::<f64>(6, 1, 2, 11);
        let lu = BandedLu::new_pooled(&a, &mut ws).unwrap();
        let x = lu.solve(&[1.0; 6]).unwrap();
        let direct = a.lu().unwrap().solve(&[1.0; 6]).unwrap();
        assert_eq!(bits(&x), bits(&direct));
        lu.recycle(&mut ws);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn unpivoted_sign_test_matches_the_eigenvalue_oracle_on_z_matrices() {
        // Z-matrices `D − P` with `P ≥ 0` banded and `D` a row-sum-scaled
        // diagonal, so both outcomes occur.  Oracle: an M-matrix is exactly a
        // Z-matrix whose eigenvalues all have positive real part.
        let mut next = rng(2024);
        let (mut m_matrices, mut others) = (0, 0);
        for &(n, kl, ku) in
            &[(1usize, 0usize, 0usize), (6, 1, 1), (12, 2, 3), (15, 4, 1), (20, 5, 5)]
        {
            for case in 0..24 {
                let p = BandedMatrix::from_fn(n, kl, ku, |i, j| {
                    let v = next() + 0.5;
                    if i == j || v < 0.2 {
                        0.0
                    } else {
                        v
                    }
                });
                let shift = 0.8 + 0.02 * case as f64;
                let mut a = p.clone();
                for i in 0..n {
                    let row_sum: f64 = (0..n).map(|j| p.get(i, j)).sum();
                    let d = row_sum * (shift + 0.1 * next()) + 0.05 * (next() + 0.5);
                    for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                        a.set(i, j, if i == j { d } else { -p.get(i, j) });
                    }
                }
                let dense = a.to_dense();
                let min_re = crate::eigen::eigenvalues(&dense)
                    .unwrap()
                    .iter()
                    .fold(f64::INFINITY, |m, z| m.min(z.re));
                // Skip cases too close to singular for the oracle to decide.
                if min_re.abs() < 1e-8 * a.max_abs().max(1.0) {
                    continue;
                }
                let expected = min_re > 0.0;
                assert_eq!(a.eliminate_unpivoted(), expected, "n={n} kl={kl} ku={ku} case={case}");
                if expected {
                    m_matrices += 1;
                } else {
                    others += 1;
                }
            }
        }
        assert!(m_matrices >= 20 && others >= 20, "{m_matrices} M-matrices, {others} others");
    }

    #[test]
    fn unpivoted_elimination_reproduces_the_dense_factors_of_an_m_matrix() {
        // A strictly diagonally dominant Z-matrix never pivots, so the banded
        // and dense LU agree; the unpivoted elimination must leave the same
        // factors in the band.
        let n = 9;
        let mut a = BandedMatrix::from_fn(n, 2, 1, |i, j| {
            if i == j {
                4.0 + 0.1 * i as f64
            } else {
                -0.5 - 0.05 * (i + j) as f64
            }
        });
        let lu = crate::LuDecomposition::new(&a.to_dense()).unwrap().into_matrix();
        assert!(a.eliminate_unpivoted());
        for i in 0..n {
            for j in i.saturating_sub(2)..(i + 2).min(n) {
                assert_eq!(a.get(i, j).to_bits(), lu[(i, j)].to_bits(), "({i},{j})");
            }
        }
        let mut singular = BandedMatrix::from_fn(2, 1, 1, |_, _| 1.0);
        assert!(!singular.eliminate_unpivoted());
        assert!(!BandedMatrix::from_fn(1, 0, 0, |_, _| f64::NAN).eliminate_unpivoted());
    }

    #[test]
    fn dimension_checks_reject_mismatches() {
        let a = random_banded::<f64>(4, 1, 1, 3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&[1.0; 3]).is_err());
        let mut y = [0.0; 3];
        assert!(a.matvec_into(&[1.0; 4], &mut y).is_err());
        assert!(BandedLu::new(&BandedMatrix::zeros(0, 0, 0)).is_err());
    }
}
