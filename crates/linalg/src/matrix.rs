//! Dense, row-major matrices over any [`Scalar`]: [`Matrix`] (`f64`) and
//! [`CMatrix`] ([`Complex`]).

use std::fmt;
use std::mem::size_of;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::DenseLu;
use crate::parallel::ThreadPool;
use crate::scalar::Scalar;
use crate::Result;

/// Work (in multiply-adds) below which a parallel kernel call is not worth the
/// scoped-thread spawn and falls back to the serial path.  Shared by gemm and by
/// the LU trailing-update and right-solve row fan-outs.
pub(crate) const MIN_PAR_WORK: usize = 32 * 1024;

/// Byte widths of the gemm tiles: a tile spans `GEMM_TILE_K_BYTES / size_of::<T>()`
/// rows of `b` and `GEMM_TILE_J_BYTES / size_of::<T>()` columns — 64×256 for
/// `f64`, 32×128 for [`Complex`].
const GEMM_TILE_K_BYTES: usize = 512;
const GEMM_TILE_J_BYTES: usize = 2048;

/// Rows per parallel band when partitioning `m` output rows of an `m×k · k×n`
/// product (or a row-independent solve of equivalent cost) across `threads`
/// workers.  Returns `m` — a single band, i.e. the serial path — when the pool is
/// serial or the total work is too small to amortise thread spawning.  Four bands
/// per worker keep the load balanced when row costs vary (zero-skipping makes them
/// vary); the partition never affects results, only wall time, because each output
/// element's accumulation stays entirely within one band.
pub(crate) fn par_band_rows(m: usize, k: usize, n: usize, threads: usize) -> usize {
    if threads <= 1 || m < 2 || m.saturating_mul(k.max(1)).saturating_mul(n.max(1)) < MIN_PAR_WORK {
        return m.max(1);
    }
    m.div_ceil(4 * threads).max(1)
}

/// A dense, row-major matrix of [`Scalar`] values.
///
/// The type is intentionally simple: it owns a `Vec<T>` of length `rows * cols` and
/// provides the constructors, element access, and arithmetic that the queueing solvers
/// need.  All operations that can fail (shape mismatches, singular systems) return a
/// [`LinalgError`](crate::LinalgError) instead of panicking, with the exception of the
/// indexing operators which follow the standard library convention of panicking on
/// out-of-bounds access.  The two instantiations are named [`Matrix`] and [`CMatrix`].
#[derive(Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DenseMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// A dense real matrix.
///
/// # Example
///
/// ```
/// use urs_linalg::Matrix;
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// assert!((a.determinant()? - (-2.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub type Matrix = DenseMatrix<f64>;

/// A dense complex matrix; the spectral-expansion solver evaluates the
/// characteristic matrix polynomial `Q(z)` into one at every eigenvalue.
///
/// # Example
///
/// ```
/// use urs_linalg::{CMatrix, Complex};
///
/// let mut m = CMatrix::zeros(2, 2);
/// m[(0, 0)] = Complex::new(1.0, 1.0);
/// m[(1, 1)] = Complex::new(0.0, -2.0);
/// assert_eq!(m.trace().unwrap(), Complex::new(1.0, -1.0));
/// ```
pub type CMatrix = DenseMatrix<Complex>;

impl<T: Scalar> DenseMatrix<T> {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        // urs-analyze: allow(no_panic, reason = "usize overflow of rows*cols is documented under # Panics; a Result here would infect every kernel signature")
        let len = rows.checked_mul(cols).expect("matrix too large");
        DenseMatrix { rows, cols, data: vec![T::ZERO; len] }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        DenseMatrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a square diagonal matrix from a slice of diagonal entries.
    pub fn from_diagonal(diag: &[T]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows are empty or have differing
    /// lengths.
    pub fn from_rows(rows: &[&[T]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidInput("matrix must have at least one element".into()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::InvalidInput(format!(
                    "ragged rows: expected {} columns, found {}",
                    cols,
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix { rows: rows.len(), cols, data })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidInput(format!(
                "expected {} elements for a {rows}x{cols} matrix, found {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data buffer.
    ///
    /// Together with [`from_vec`](Self::from_vec) this lets a
    /// [`Workspace`](crate::Workspace) recycle matrix storage across hot-loop
    /// iterations without reallocating.
    #[inline]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element access returning `None` when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<T> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrow a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row index {row} out of bounds ({} rows)", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copy a column into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column(&self, col: usize) -> Vec<T> {
        assert!(col < self.cols, "column index {col} out of bounds ({} columns)", self.cols);
        (0..self.rows).map(|i| self[(i, col)]).collect()
    }

    /// Returns the main diagonal as a vector (length `min(rows, cols)`).
    pub fn diagonal(&self) -> Vec<T> {
        (0..self.rows.min(self.cols)).map(|i| self[(i, i)]).collect()
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map<F: FnMut(T) -> T>(&self, mut f: F) -> Self {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, factor: T) -> Self {
        self.map(|x| x * factor)
    }

    /// Matrix product `self * rhs`.
    ///
    /// Thin allocating wrapper over the in-place [`gemm`](Self::gemm) kernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        let mut out = Self::zeros(self.rows, rhs.cols);
        out.gemm(T::ONE, self, rhs, T::ZERO)?;
        Ok(out)
    }

    /// General multiply-accumulate `self ← alpha·a·b + beta·self`, in place.
    ///
    /// This is the workhorse kernel of the workspace: it allocates nothing, skips
    /// zero elements of `a` (the QBD generator blocks are sparse bands), and tiles
    /// the `k` and `j` loops so a slab of `b` stays cache-resident while every row
    /// of `a` streams past it.  `beta == 0` overwrites `self` outright (no
    /// `0 · NaN` propagation); accumulation order over `k` is ascending regardless
    /// of the tiling, so results do not depend on the block sizes.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `self.shape() == (a.rows(), b.cols())` and `a.cols() == b.rows()`.
    pub fn gemm(&mut self, alpha: T, a: &Self, b: &Self, beta: T) -> Result<()> {
        self.gemm_with(alpha, a, b, beta, &ThreadPool::serial())
    }

    /// [`gemm`](Self::gemm) with the output rows partitioned across the workers of
    /// `pool`, bit-identical to the serial kernel at any thread count.
    ///
    /// Each worker owns a disjoint band of output rows and runs the same `k`/`j`
    /// tiling over it, so every output element accumulates its `k` terms in the same
    /// ascending order as the serial kernel — the partition changes wall time, never
    /// bits.  Small products (or a serial pool) take the serial path outright.
    ///
    /// # Errors
    ///
    /// Same as [`gemm`](Self::gemm), plus [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn gemm_with(
        &mut self,
        alpha: T,
        a: &Self,
        b: &Self,
        beta: T,
        pool: &ThreadPool,
    ) -> Result<()> {
        if a.cols != b.rows || self.rows != a.rows || self.cols != b.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply-accumulate (gemm)",
                left: a.shape(),
                right: b.shape(),
            });
        }
        let (m, k, n) = (a.rows, a.cols, b.cols);
        let band_rows = par_band_rows(m, k, n, pool.threads());
        if band_rows >= m {
            gemm_band(&mut self.data, &a.data, &b.data, alpha, beta, k, n);
            return Ok(());
        }
        pool.par_chunks_mut(&mut self.data, band_rows * n, |band, c_rows| {
            let row0 = band * band_rows;
            let rows = c_rows.len() / n;
            gemm_band(c_rows, &a.data[row0 * k..(row0 + rows) * k], &b.data, alpha, beta, k, n);
        })?;
        Ok(())
    }

    /// Copies every element of `other` into `self` (shapes must match).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix copy",
                left: self.shape(),
                right: other.shape(),
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// In-place scaled accumulation `self ← self + alpha·other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_scaled(&mut self, alpha: T, other: &Self) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix scaled addition",
                left: self.shape(),
                right: other.shape(),
            });
        }
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_mut(&mut self, factor: T) {
        for x in &mut self.data {
            *x *= factor;
        }
    }

    /// Scales column `j` by the real factor `diag[j]`, in place — the cheap form of
    /// right-multiplying by a real diagonal matrix (`self ← self · diag(d)`), `O(n²)`
    /// instead of a dense `O(n³)` product.  The QBD departure matrix `C` and arrival
    /// matrix `B = λI` are both diagonal, so the solvers use this for every `X·C`
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `diag.len() != self.cols()`.
    pub fn scale_columns(&mut self, diag: &[f64]) -> Result<()> {
        if diag.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "column scaling by diagonal",
                left: self.shape(),
                right: (diag.len(), diag.len()),
            });
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &d) in row.iter_mut().zip(diag) {
                *x *= d;
            }
        }
        Ok(())
    }

    /// Adds `shift` to every diagonal entry in place, turning a matrix `A` into
    /// `A + shift·I` — the `O(n)` step that completes a resolvent assembly after
    /// [`copy_from_real`](CMatrix::copy_from_real).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn shift_diagonal(&mut self, shift: T) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        for x in self.data.iter_mut().step_by(self.cols + 1) {
            *x += shift;
        }
        Ok(())
    }

    /// Matrix–vector product `self * v` (v as a column vector).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[T]) -> Result<Vec<T>> {
        let mut out = vec![T::ZERO; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `out = self * v` into a caller-provided buffer; each
    /// output element sums its row's products in ascending column order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v` or `out` has the wrong length.
    pub fn matvec_into(&self, v: &[T], out: &mut [T]) -> Result<()> {
        if v.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix-vector product",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(i), v);
        }
        Ok(())
    }

    /// Row-vector–matrix product `v * self`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[T]) -> Result<Vec<T>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "vector-matrix product",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![T::ZERO; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == T::ZERO {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Sum of the diagonal elements.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<T> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { rows: self.rows, cols: self.cols });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Row sums, i.e. `self * 1`.
    pub fn row_sums(&self) -> Vec<T> {
        (0..self.rows).map(|i| self.row(i).iter().copied().sum()).collect()
    }

    /// Maximum absolute value (modulus) of any element (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.modulus()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x.modulus() * x.modulus()).sum::<f64>().sqrt()
    }

    /// Infinity norm (maximum absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|&x| x.modulus()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|&x| x.is_finite())
    }

    /// Returns `true` when all elements of the two matrices differ by at most `tol`
    /// in absolute value.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(&a, &b)| (a - b).modulus() <= tol)
    }

    /// LU factorisation with partial pivoting.
    ///
    /// # Errors
    ///
    /// See [`DenseLu::new`].
    pub fn lu(&self) -> Result<DenseLu<T>> {
        DenseLu::new(self)
    }

    /// Determinant via LU factorisation; `0` for singular matrices rather than an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::InvalidInput`] for empty or non-finite input.
    pub fn determinant(&self) -> Result<T> {
        Ok(DenseLu::new_allow_singular(self)?.determinant())
    }

    /// Matrix inverse via LU factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn inverse(&self) -> Result<Self> {
        self.lu()?.inverse()
    }

    /// Solves `self * x = b` for `x` (column-vector right-hand side).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::Singular`] or
    /// [`LinalgError::DimensionMismatch`].
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        self.lu()?.solve(b)
    }

    /// Solves `x * self = b` for the row vector `x` (i.e. `selfᵀ xᵀ = bᵀ`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::Singular`] or
    /// [`LinalgError::DimensionMismatch`].
    pub fn solve_left(&self, b: &[T]) -> Result<Vec<T>> {
        self.transpose().solve(b)
    }
}

impl CMatrix {
    /// Embeds a real matrix as a complex matrix with zero imaginary parts.
    pub fn from_real(a: &Matrix) -> Self {
        let data = a.as_slice().iter().map(|&x| Complex::from_real(x)).collect();
        DenseMatrix { rows: a.rows(), cols: a.cols(), data }
    }

    /// Overwrites this matrix with the entries of a real matrix (zero imaginary
    /// parts), without reallocating — the allocation-free form of
    /// [`from_real`](Self::from_real) for [`Workspace`](crate::Workspace)-pooled
    /// buffers.  Together with [`shift_diagonal`](Self::shift_diagonal) this is the
    /// assembly path for resolvent matrices `sI − Q` whose real part `−Q` is fixed
    /// while `s` runs over the nodes of a quadrature rule.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from_real(&mut self, a: &Matrix) -> Result<()> {
        if self.shape() != a.shape() {
            return Err(LinalgError::DimensionMismatch {
                operation: "copy real matrix into complex matrix",
                left: self.shape(),
                right: a.shape(),
            });
        }
        for (dst, &src) in self.data.iter_mut().zip(a.as_slice()) {
            *dst = Complex::from_real(src);
        }
        Ok(())
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Real parts of all entries as a real matrix.
    pub fn real_part(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// Largest absolute value of any imaginary part; useful for asserting that a result
    /// which must be real actually is.
    pub fn max_imag_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, z| m.max(z.im.abs()))
    }
}

/// `Σ a[j]·b[j]` in ascending `j` through the scalar's [`Sum`](std::iter::Sum),
/// the accumulation every matrix–vector product of the crate shares.
#[inline]
pub(crate) fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// The tiled multiply-accumulate body of [`Matrix::gemm`] restricted to a band of
/// output rows: `c ← alpha·a·b + beta·c`, where `c` and `a` hold the same
/// `c.len() / n` consecutive rows of the output and left operand.
///
/// Tile sizes are chosen so a KB×JB slab of `b` (≤ 128 KiB) fits in L2 while the
/// accumulation order over `k` stays ascending (tiles are visited in order).  The
/// serial kernel is exactly this function applied to the full row range, so a banded
/// parallel run — which only re-partitions `i`, never the per-element `k` order —
/// reproduces it bit for bit.
// urs-analyze: begin(no_alloc)
fn gemm_band<T: Scalar>(c: &mut [T], a: &[T], b: &[T], alpha: T, beta: T, k: usize, n: usize) {
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else if beta != T::ONE {
        for x in c.iter_mut() {
            *x *= beta;
        }
    }
    if alpha == T::ZERO || n == 0 {
        return;
    }
    let m = c.len() / n;
    let kb = GEMM_TILE_K_BYTES / size_of::<T>();
    let jb = GEMM_TILE_J_BYTES / size_of::<T>();
    for kk in (0..k).step_by(kb) {
        let k_end = (kk + kb).min(k);
        for jj in (0..n).step_by(jb) {
            let j_end = (jj + jb).min(n);
            // Quads of output rows whose `a` panels are fully dense run the
            // fused four-row kernel, which reads each `b` row once for all four
            // accumulator rows; everything else takes the per-row panel kernel.
            // Each output row receives the identical ascending-`k` operation
            // sequence either way, so the grouping changes wall time, not bits.
            let mut i0 = 0;
            while i0 + 4 <= m {
                // urs-analyze: allow(slice_index, reason = "a panels for rows i0..i0+3 with i0+3 < m; window kk..k_end ≤ k")
                let t0 = &a[i0 * k + kk..i0 * k + k_end];
                // urs-analyze: allow(slice_index, reason = "a panel for row i0+1, in range as above")
                let t1 = &a[(i0 + 1) * k + kk..(i0 + 1) * k + k_end];
                // urs-analyze: allow(slice_index, reason = "a panel for row i0+2, in range as above")
                let t2 = &a[(i0 + 2) * k + kk..(i0 + 2) * k + k_end];
                // urs-analyze: allow(slice_index, reason = "a panel for row i0+3, in range as above")
                let t3 = &a[(i0 + 3) * k + kk..(i0 + 3) * k + k_end];
                let dense = t0.iter().chain(t1).chain(t2).chain(t3).all(|&v| v != T::ZERO);
                if dense {
                    // urs-analyze: allow(slice_index, reason = "c rows i0..i0+3, in range since (i0+4)·n ≤ m·n = c.len()")
                    let block = &mut c[i0 * n..(i0 + 4) * n];
                    let (r0, rest) = block.split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, r3) = rest.split_at_mut(n);
                    gemm_rows4_panel(
                        [
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &mut r0[jj..j_end],
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &mut r1[jj..j_end],
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &mut r2[jj..j_end],
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &mut r3[jj..j_end],
                        ],
                        [t0, t1, t2, t3],
                        b,
                        alpha,
                        kk,
                        jj,
                        j_end,
                        n,
                    );
                } else {
                    for i in i0..i0 + 4 {
                        // urs-analyze: allow(slice_index, reason = "a panel and c row for i < m, windows bounded by k and n")
                        gemm_row_panel(
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &mut c[i * n + jj..i * n + j_end],
                            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                            &a[i * k + kk..i * k + k_end],
                            b,
                            alpha,
                            kk,
                            jj,
                            j_end,
                            n,
                        );
                    }
                }
                i0 += 4;
            }
            for i in i0..m {
                // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                let a_tile = &a[i * k + kk..i * k + k_end];
                // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
                let c_row = &mut c[i * n + jj..i * n + j_end];
                gemm_row_panel(c_row, a_tile, b, alpha, kk, jj, j_end, n);
            }
        }
    }
}

/// One output row of a `gemm` panel: accumulate `alpha·a_tile[t]·b_row(kk+t)`
/// over the column window `jj..j_end`, `t` ascending.
///
/// Crossover gate: one cheap scan decides whether this panel of `a` is fully
/// dense, in which case the inner loop runs branch-free (the zero-skip would
/// test and never fire — pure overhead on dense operands).  Either branch
/// performs the identical ascending-`k` accumulation over the same nonzero
/// terms, so the gate changes wall time, not bits.
#[allow(clippy::too_many_arguments)]
fn gemm_row_panel<T: Scalar>(
    c_row: &mut [T],
    a_tile: &[T],
    b: &[T],
    alpha: T,
    kk: usize,
    jj: usize,
    j_end: usize,
    n: usize,
) {
    if a_tile.iter().all(|&v| v != T::ZERO) {
        // Four k-steps per pass over the output row: each element still
        // receives the same multiplies and adds in the same ascending-`k`
        // order as four single sweeps would apply (no fused multiply-add, no
        // reassociation), so the bits are unchanged — only the `c`-row
        // load/store traffic drops to a quarter, which is what this loop is
        // bound by.
        let mut offset = 0;
        while offset + 4 <= a_tile.len() {
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a0 = alpha * a_tile[offset];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a1 = alpha * a_tile[offset + 1];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a2 = alpha * a_tile[offset + 2];
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let a3 = alpha * a_tile[offset + 3];
            let p = kk + offset;
            // urs-analyze: allow(slice_index, reason = "rows p..p+3 of b with p+3 < k_end ≤ k; column window jj..j_end ≤ n")
            let b0 = &b[p * n + jj..p * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+1 of b, in range as above")
            let b1 = &b[(p + 1) * n + jj..(p + 1) * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+2 of b, in range as above")
            let b2 = &b[(p + 2) * n + jj..(p + 2) * n + j_end];
            // urs-analyze: allow(slice_index, reason = "row p+3 of b, in range as above")
            let b3 = &b[(p + 3) * n + jj..(p + 3) * n + j_end];
            for ((((c, &v0), &v1), &v2), &v3) in c_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut t = *c;
                t += a0 * v0;
                t += a1 * v1;
                t += a2 * v2;
                t += a3 * v3;
                *c = t;
            }
            offset += 4;
        }
        for (tail, &av) in a_tile.iter().enumerate().skip(offset) {
            let aip = alpha * av;
            let p = kk + tail;
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let b_row = &b[p * n + jj..p * n + j_end];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aip * bv;
            }
        }
    } else {
        for (offset, &av) in a_tile.iter().enumerate() {
            let aip = alpha * av;
            if aip == T::ZERO {
                continue;
            }
            let p = kk + offset;
            // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
            let b_row = &b[p * n + jj..p * n + j_end];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aip * bv;
            }
        }
    }
}

/// Four output rows of a `gemm` panel advanced in lockstep, all panels known to
/// be fully dense: each pass loads rows `p..p+3` of `b` once and feeds all four
/// accumulator rows, so the `b` traffic drops to a quarter of four independent
/// row sweeps while every output row still receives exactly the multiplies and
/// adds of [`gemm_row_panel`]'s dense branch in the same ascending-`k` order —
/// rows never read each other, so the fusion changes wall time, not bits.
#[allow(clippy::too_many_arguments)]
fn gemm_rows4_panel<T: Scalar>(
    c_rows: [&mut [T]; 4],
    a_tiles: [&[T]; 4],
    b: &[T],
    alpha: T,
    kk: usize,
    jj: usize,
    j_end: usize,
    n: usize,
) {
    let [c0, c1, c2, c3] = c_rows;
    let [t0, t1, t2, t3] = a_tiles;
    let mut offset = 0;
    while offset + 4 <= t0.len() {
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a00 = alpha * t0[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a01 = alpha * t0[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a02 = alpha * t0[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a03 = alpha * t0[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a10 = alpha * t1[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a11 = alpha * t1[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a12 = alpha * t1[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a13 = alpha * t1[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a20 = alpha * t2[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a21 = alpha * t2[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a22 = alpha * t2[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a23 = alpha * t2[offset + 3];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a30 = alpha * t3[offset];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a31 = alpha * t3[offset + 1];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a32 = alpha * t3[offset + 2];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a33 = alpha * t3[offset + 3];
        let p = kk + offset;
        // urs-analyze: allow(slice_index, reason = "rows p..p+3 of b with p+3 < k_end ≤ k; column window jj..j_end ≤ n")
        let b0 = &b[p * n + jj..p * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+1 of b, in range as above")
        let b1 = &b[(p + 1) * n + jj..(p + 1) * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+2 of b, in range as above")
        let b2 = &b[(p + 2) * n + jj..(p + 2) * n + j_end];
        // urs-analyze: allow(slice_index, reason = "row p+3 of b, in range as above")
        let b3 = &b[(p + 3) * n + jj..(p + 3) * n + j_end];
        for (((((((x0, x1), x2), x3), &v0), &v1), &v2), &v3) in c0
            .iter_mut()
            .zip(c1.iter_mut())
            .zip(c2.iter_mut())
            .zip(c3.iter_mut())
            .zip(b0)
            .zip(b1)
            .zip(b2)
            .zip(b3)
        {
            let mut t = *x0;
            t += a00 * v0;
            t += a01 * v1;
            t += a02 * v2;
            t += a03 * v3;
            *x0 = t;
            let mut t = *x1;
            t += a10 * v0;
            t += a11 * v1;
            t += a12 * v2;
            t += a13 * v3;
            *x1 = t;
            let mut t = *x2;
            t += a20 * v0;
            t += a21 * v1;
            t += a22 * v2;
            t += a23 * v3;
            *x2 = t;
            let mut t = *x3;
            t += a30 * v0;
            t += a31 * v1;
            t += a32 * v2;
            t += a33 * v3;
            *x3 = t;
        }
        offset += 4;
    }
    for tail in offset..t0.len() {
        let p = kk + tail;
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a0 = alpha * t0[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a1 = alpha * t1[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a2 = alpha * t2[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let a3 = alpha * t3[tail];
        // urs-analyze: allow(slice_index, reason = "tile offsets bounded by the blocking loop limits; fused gemm hot loop")
        let b_row = &b[p * n + jj..p * n + j_end];
        for ((((x0, x1), x2), x3), &v) in
            c0.iter_mut().zip(c1.iter_mut()).zip(c2.iter_mut()).zip(c3.iter_mut()).zip(b_row)
        {
            *x0 += a0 * v;
            *x1 += a1 * v;
            *x2 += a2 * v;
            *x3 += a3 * v;
        }
    }
}
// urs-analyze: end(no_alloc)

impl<T: Scalar> Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<T: Scalar> fmt::Debug for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.5}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> fmt::Display for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<T: Scalar> Add for &DenseMatrix<T> {
    type Output = DenseMatrix<T>;
    fn add(self, rhs: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition requires equal shapes");
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b).collect(),
        }
    }
}

impl<T: Scalar> Sub for &DenseMatrix<T> {
    type Output = DenseMatrix<T>;
    fn sub(self, rhs: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction requires equal shapes");
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b).collect(),
        }
    }
}

impl<T: Scalar> Neg for &DenseMatrix<T> {
    type Output = DenseMatrix<T>;
    fn neg(self) -> DenseMatrix<T> {
        self.map(|x| -x)
    }
}

impl<T: Scalar> Mul<T> for &DenseMatrix<T> {
    type Output = DenseMatrix<T>;
    fn mul(self, rhs: T) -> DenseMatrix<T> {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert!(matches!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::InvalidInput(_)));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_and_diagonal() {
        let id = Matrix::identity(3);
        assert_eq!(id.trace().unwrap(), 3.0);
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.diagonal(), vec![1.0, 2.0, 3.0]);
        assert_eq!(d.determinant().unwrap(), 6.0);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 1.0][..], &[1.0, 1.0][..]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[4.0, 5.0][..], &[10.0, 11.0][..]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        let err = a.matmul(&a).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn row_sums_and_norms() {
        let a = sample();
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(a.inf_norm(), 15.0);
        assert!((a.frobenius_norm() - 91.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_operators() {
        let a = sample();
        let twice = &a + &a;
        assert_eq!(twice, a.scale(2.0));
        assert_eq!(&twice - &a, a);
        assert_eq!((&-(&a))[(0, 0)], -1.0);
        assert_eq!((&a * 3.0)[(1, 2)], 18.0);
    }

    #[test]
    fn solve_simple_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 3.0][..]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_left_matches_transpose_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0][..], &[0.5, 3.0][..]]).unwrap();
        let b = [1.0, 2.0];
        let x = a.solve_left(&b).unwrap();
        // check x * a = b
        let prod = a.vecmat(&x).unwrap();
        assert!((prod[0] - b[0]).abs() < 1e-12 && (prod[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0][..], &[2.0, 6.0][..]]).unwrap();
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn determinant_of_singular_matrix_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert_eq!(a.determinant().unwrap(), 0.0);
    }

    #[test]
    fn trace_requires_square() {
        assert!(matches!(sample().trace(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(5, 0)];
    }

    #[test]
    fn debug_output_contains_dimensions() {
        let text = format!("{:?}", sample());
        assert!(text.contains("2x3"));
    }
}
