//! A block-tridiagonal linear-system solver over any [`Scalar`].
//!
//! The boundary equations of a quasi-birth-death process couple the probability vectors
//! of neighbouring queue-length levels only, so the linear system that determines them
//! is block tridiagonal.  Solving it by block forward elimination (a block Thomas
//! algorithm) costs `O(K s³)` instead of the `O(K³ s³)` of a dense factorisation, which
//! is what makes the exact spectral-expansion solution practical for systems with many
//! servers.  Both solvers' boundary rows carry the transposed local generators on the
//! diagonal, `−λI` below and the departure matrices `−C_{j+1}` above; the two
//! couplings are diagonal and are handed over packed
//! ([`set_lower_diagonal`](BlockTridiagonalSystem::set_lower_diagonal),
//! [`set_upper_diagonal`](BlockTridiagonalSystem::set_upper_diagonal)), which gives
//! the same bits as the dense setters.  Every boundary row is real except the
//! spectral solver's closing row, which couples to the complex expansion
//! coefficients.  The matrix-geometric solver solves its
//! [`RealBlockTridiagonal`] with [`solve_with`](BlockTridiagonalSystem::solve_with);
//! the spectral solver eliminates the same real rows in real arithmetic and runs
//! only the closing row in complex arithmetic, through
//! [`solve_with_complex_closing`](BlockTridiagonalSystem::solve_with_complex_closing).
//! The complex [`BlockTridiagonal`] carries the spectral solver's dense fallback.

use crate::complex::Complex;
use crate::error::LinalgError;
use crate::lu::DenseLu;
use crate::matrix::{CMatrix, DenseMatrix};
use crate::parallel::ThreadPool;
use crate::scalar::Scalar;
use crate::workspace::Workspace;
use crate::Result;

/// A sub- or super-diagonal coupling block of [`BlockTridiagonalSystem`].
///
/// The QBD boundary couplings are `B = λI` and the diagonal departure matrices
/// `C_j`, so the solver can store them packed — `s` numbers instead of a dense
/// `s × s` block — and dispatch straight to the diagonal fast paths without
/// materialising `s² − s` zeros or scanning for structure.
#[derive(Debug, Clone)]
enum Coupling<T: Scalar> {
    /// A general dense coupling block.
    Dense(DenseMatrix<T>),
    /// A diagonal coupling block, holding only the packed diagonal.
    Diagonal(Vec<T>),
}

/// Returns `true` when every off-diagonal element of the square matrix is
/// exactly zero.  The QBD departure matrix `C` and arrival matrix `B = λI` are
/// diagonal, so the boundary systems' super-diagonal blocks usually are too;
/// detecting that turns the `O(s³)` Schur-complement product of the block
/// elimination into an `O(s²)` column scaling.
fn is_diagonal<T: Scalar>(m: &DenseMatrix<T>) -> bool {
    let s = m.rows();
    for (i, row) in m.as_slice().chunks_exact(s).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if i != j && v != T::ZERO {
                return false;
            }
        }
    }
    true
}

/// The Schur update `D ← D − W·U` for a diagonal `U`, which collapses to a
/// column scaling: `diag[c·stride]` reads `U`'s diagonal either packed
/// (`stride = 1`) or off a dense block (`stride = s + 1`), so the packed and
/// dense representations run the byte-for-byte identical update.  Element-wise,
/// hence independent of any pool partition.
fn schur_diagonal_update<T: Scalar>(
    d_cur: &mut DenseMatrix<T>,
    w: &DenseMatrix<T>,
    diag: &[T],
    stride: usize,
    s: usize,
) {
    for (d_row, w_row) in d_cur.as_mut_slice().chunks_exact_mut(s).zip(w.as_slice().chunks_exact(s))
    {
        for (c, (x, &wv)) in d_row.iter_mut().zip(w_row).enumerate() {
            // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
            *x -= wv * diag[c * stride];
        }
    }
}

/// The Schur update `D ← D − W·U` of the block elimination.
fn schur_update<T: Scalar>(
    d_cur: &mut DenseMatrix<T>,
    w: &DenseMatrix<T>,
    upper: &Coupling<T>,
    pool: &ThreadPool,
) -> Result<()> {
    match upper {
        // U = diag(u): (W·U)_{r,c} = W_{r,c}·u_c, so the Schur product collapses
        // to a column scaling — O(s²) instead of O(s³).
        Coupling::Diagonal(u) => {
            schur_diagonal_update(d_cur, w, u, 1, w.rows());
            Ok(())
        }
        Coupling::Dense(u) => schur_dense_update(d_cur, w, u, pool),
    }
}

/// [`schur_update`] for a coupling held dense, which still takes the column
/// scaling when the block happens to be diagonal.
fn schur_dense_update<T: Scalar>(
    d_cur: &mut DenseMatrix<T>,
    w: &DenseMatrix<T>,
    u: &DenseMatrix<T>,
    pool: &ThreadPool,
) -> Result<()> {
    let s = w.rows();
    if is_diagonal(u) {
        schur_diagonal_update(d_cur, w, u.as_slice(), s + 1, s);
        return Ok(());
    }
    d_cur.gemm_with(T::from_real(-1.0), w, u, T::ONE, pool)
}

/// What the block forward elimination leaves for the back substitution.
struct Forward<T: Scalar> {
    /// The LU factors of the updated diagonal blocks `D'_i` of the eliminated rows.
    factors: Vec<DenseLu<T>>,
    /// The right-hand sides, reduced up to and including the first row not
    /// factorised.
    rhs: Vec<Vec<T>>,
    /// The multiplier `W = L_i·D'⁻¹_{i-1}` of the first row not factorised, when
    /// there is such a row and it has a sub-diagonal coupling.
    w: Option<DenseMatrix<T>>,
}

/// A square block-tridiagonal system with `K` block rows of size `s` each.
///
/// Block row `i` represents the equation
///
/// ```text
/// L_i · x_{i-1} + D_i · x_i + U_i · x_{i+1} = b_i
/// ```
///
/// where `L_0` and `U_{K-1}` are absent.  The right-hand sides and solutions are
/// column vectors of length `s`.  The two instantiations are named
/// [`BlockTridiagonal`] (complex) and [`RealBlockTridiagonal`].
#[derive(Debug, Clone)]
pub struct BlockTridiagonalSystem<T: Scalar> {
    block_rows: usize,
    block_size: usize,
    diagonal: Vec<DenseMatrix<T>>,
    lower: Vec<Option<Coupling<T>>>,
    upper: Vec<Option<Coupling<T>>>,
    rhs: Vec<Vec<T>>,
}

/// A block-tridiagonal system with complex blocks.
///
/// # Example
///
/// ```
/// use urs_linalg::{BlockTridiagonal, CMatrix, Complex};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// // Two decoupled 1x1 blocks: 2·x0 = 2, 3·x1 = 6.
/// let mut sys = BlockTridiagonal::new(2, 1)?;
/// sys.set_diagonal(0, CMatrix::from_fn(1, 1, |_, _| Complex::from_real(2.0)))?;
/// sys.set_diagonal(1, CMatrix::from_fn(1, 1, |_, _| Complex::from_real(3.0)))?;
/// sys.set_rhs(0, vec![Complex::from_real(2.0)])?;
/// sys.set_rhs(1, vec![Complex::from_real(6.0)])?;
/// let x = sys.solve()?;
/// assert!((x[0][0].re - 1.0).abs() < 1e-12 && (x[1][0].re - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub type BlockTridiagonal = BlockTridiagonalSystem<Complex>;

/// A block-tridiagonal system with real blocks.
pub type RealBlockTridiagonal = BlockTridiagonalSystem<f64>;

impl<T: Scalar> BlockTridiagonalSystem<T> {
    /// Creates an empty system with `block_rows` block rows of size `block_size`.
    ///
    /// All blocks start as zero matrices and all right-hand sides as zero vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if either dimension is zero.
    pub fn new(block_rows: usize, block_size: usize) -> Result<Self> {
        if block_rows == 0 || block_size == 0 {
            return Err(LinalgError::InvalidInput(
                "block-tridiagonal system must have at least one non-empty block".into(),
            ));
        }
        Ok(BlockTridiagonalSystem {
            block_rows,
            block_size,
            diagonal: vec![DenseMatrix::zeros(block_size, block_size); block_rows],
            lower: vec![None; block_rows],
            upper: vec![None; block_rows],
            rhs: vec![vec![T::ZERO; block_size]; block_rows],
        })
    }

    /// Number of block rows `K`.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Size `s` of each block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn check_block<U: Scalar>(&self, block: &DenseMatrix<U>) -> Result<()> {
        if block.shape() != (self.block_size, self.block_size) {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal block assignment",
                left: (self.block_size, self.block_size),
                right: block.shape(),
            });
        }
        Ok(())
    }

    fn check_diag(&self, diag: &[T]) -> Result<()> {
        if diag.len() != self.block_size {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal diagonal coupling assignment",
                left: (self.block_size, self.block_size),
                right: (diag.len(), diag.len()),
            });
        }
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.block_rows {
            return Err(LinalgError::InvalidInput(format!(
                "block row {row} out of range (system has {} block rows)",
                self.block_rows
            )));
        }
        Ok(())
    }

    fn check_lower_row(&self, row: usize) -> Result<()> {
        self.check_row(row)?;
        if row == 0 {
            return Err(LinalgError::InvalidInput("block row 0 has no sub-diagonal block".into()));
        }
        Ok(())
    }

    fn check_upper_row(&self, row: usize) -> Result<()> {
        self.check_row(row)?;
        if row + 1 == self.block_rows {
            return Err(LinalgError::InvalidInput(
                "the last block row has no super-diagonal block".into(),
            ));
        }
        Ok(())
    }

    /// Sets the diagonal block `D_row`.
    ///
    /// # Errors
    ///
    /// Returns an error if the row index or block shape is invalid.
    pub fn set_diagonal(&mut self, row: usize, block: DenseMatrix<T>) -> Result<()> {
        self.check_row(row)?;
        self.check_block(&block)?;
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.diagonal[row] = block;
        Ok(())
    }

    /// Sets the sub-diagonal block `L_row` (coupling to `x_{row-1}`).
    ///
    /// # Errors
    ///
    /// Returns an error if `row == 0`, the row index is out of range, or the block has
    /// the wrong shape.
    pub fn set_lower(&mut self, row: usize, block: DenseMatrix<T>) -> Result<()> {
        self.check_lower_row(row)?;
        self.check_block(&block)?;
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.lower[row] = Some(Coupling::Dense(block));
        Ok(())
    }

    /// Sets the sub-diagonal block `L_row` to a **diagonal** matrix given by its
    /// packed diagonal, avoiding the dense `s × s` materialisation.
    ///
    /// # Errors
    ///
    /// Same as [`set_lower`](Self::set_lower), with the length of `diag`
    /// standing in for the block shape.
    pub fn set_lower_diagonal(&mut self, row: usize, diag: Vec<T>) -> Result<()> {
        self.check_lower_row(row)?;
        self.check_diag(&diag)?;
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.lower[row] = Some(Coupling::Diagonal(diag));
        Ok(())
    }

    /// Sets the super-diagonal block `U_row` (coupling to `x_{row+1}`).
    ///
    /// # Errors
    ///
    /// Returns an error if `row` is the last block row, out of range, or the block has
    /// the wrong shape.
    pub fn set_upper(&mut self, row: usize, block: DenseMatrix<T>) -> Result<()> {
        self.check_upper_row(row)?;
        self.check_block(&block)?;
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.upper[row] = Some(Coupling::Dense(block));
        Ok(())
    }

    /// Sets the super-diagonal block `U_row` to a **diagonal** matrix given by
    /// its packed diagonal, avoiding the dense `s × s` materialisation.
    ///
    /// # Errors
    ///
    /// Same as [`set_upper`](Self::set_upper), with the length of `diag`
    /// standing in for the block shape.
    pub fn set_upper_diagonal(&mut self, row: usize, diag: Vec<T>) -> Result<()> {
        self.check_upper_row(row)?;
        self.check_diag(&diag)?;
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.upper[row] = Some(Coupling::Diagonal(diag));
        Ok(())
    }

    /// Sets the right-hand side vector `b_row`.
    ///
    /// # Errors
    ///
    /// Returns an error if the row index or vector length is invalid.
    pub fn set_rhs(&mut self, row: usize, rhs: Vec<T>) -> Result<()> {
        self.check_row(row)?;
        if rhs.len() != self.block_size {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal right-hand side",
                left: (self.block_size, 1),
                right: (rhs.len(), 1),
            });
        }
        // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
        self.rhs[row] = rhs;
        Ok(())
    }

    /// Solves the system by block forward elimination and back substitution.
    ///
    /// Returns the solution as one vector per block row.
    ///
    /// The elimination runs entirely on the in-place kernels: each block row costs
    /// *one* LU factorisation (the `W = L_i·D'⁻¹` product reuses the previous row's
    /// factors through [`DenseLu::solve_right_matrix_into`] instead of
    /// factorising the transpose a second time) and all temporaries come from one
    /// [`Workspace`], so the steady-state loop allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot block becomes singular during the
    /// elimination (callers may then fall back to [`solve_dense`](Self::solve_dense)).
    pub fn solve(&self) -> Result<Vec<Vec<T>>> {
        self.solve_with(&ThreadPool::serial())
    }

    /// [`solve`](Self::solve) with the per-block kernels — the `W = L_i·D'⁻¹` right
    /// solve, the `D'_i = D_i − W·U_{i-1}` multiply-accumulate, and the diagonal-block
    /// factorisation — running on the workers of `pool`.
    ///
    /// The block recurrence itself is sequential (row `i` needs row `i-1`'s factors),
    /// so the parallelism lives *inside* each block operation; every kernel's banded
    /// partition preserves the serial accumulation order, making the solution
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve), plus [`LinalgError::WorkerPanic`] if a worker
    /// panicked.
    pub fn solve_with(&self, pool: &ThreadPool) -> Result<Vec<Vec<T>>> {
        let mut ws = Workspace::new();
        let Forward { factors, rhs, .. } = self.forward(self.block_rows, &mut ws, pool)?;
        self.back_substitute(&factors, &rhs, &mut ws)
    }

    /// Block forward elimination over the rows `0..rows`.
    ///
    /// Row `i` takes `W = L_i·D'⁻¹_{i-1}` from the previous row's factors, updates
    /// `b'_i = b_i − W·b'_{i-1}` and `D'_i = D_i − W·U_{i-1}`, and factorises `D'_i`
    /// exactly once; the factors are kept for the back substitution.  When
    /// `rows < K`, row `rows` is reduced only as far as its right-hand side and its
    /// multiplier `W` is returned, so a caller can close the system with a diagonal
    /// block of its own.
    fn forward(&self, rows: usize, ws: &mut Workspace, pool: &ThreadPool) -> Result<Forward<T>> {
        let s = self.block_size;
        let mut rhs: Vec<Vec<T>> = self.rhs.clone();
        let mut factors: Vec<DenseLu<T>> = Vec::with_capacity(rows);
        let mut w = ws.matrix(s, s);
        let mut coupled = ws.buffer(s);
        for (i, (diagonal, lower)) in self.diagonal.iter().zip(&self.lower).enumerate() {
            let reduced = match (lower, factors.last()) {
                (Some(lower), Some(prev)) => {
                    match lower {
                        Coupling::Dense(l) => {
                            prev.solve_right_matrix_into_with(l, &mut w, ws, pool)?;
                        }
                        Coupling::Diagonal(l) => {
                            prev.solve_right_diagonal_into_with(l, &mut w, ws, pool)?;
                        }
                    }
                    // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
                    w.matvec_into(&rhs[i - 1], &mut coupled)?;
                    // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
                    for (target, &delta) in rhs[i].iter_mut().zip(coupled.iter()) {
                        *target -= delta;
                    }
                    true
                }
                _ => false,
            };
            if i == rows {
                ws.release_buffer(coupled);
                return Ok(Forward { factors, rhs, w: reduced.then_some(w) });
            }
            // Working copy of D_i in pooled storage (consumed by the factorisation).
            let mut d_cur = ws.matrix(s, s);
            d_cur.as_mut_slice().copy_from_slice(diagonal.as_slice());
            let upper = i.checked_sub(1).and_then(|prev| self.upper.get(prev));
            if let (true, Some(Some(upper))) = (reduced, upper) {
                schur_update(&mut d_cur, &w, upper, pool)?;
            }
            factors.push(DenseLu::from_matrix_with(d_cur, pool)?);
        }
        ws.release_buffer(coupled);
        ws.release_matrix(w);
        Ok(Forward { factors, rhs, w: None })
    }

    /// Back substitution `x_i = D'⁻¹_i (b'_i − U_i·x_{i+1})` through the factors of
    /// [`forward`](Self::forward), from the last factorised row up.  That row takes
    /// no coupling from above: any row past the factors is the caller's to fold
    /// into its right-hand side.
    fn back_substitute(
        &self,
        factors: &[DenseLu<T>],
        rhs: &[Vec<T>],
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<T>>> {
        let s = self.block_size;
        let mut x: Vec<Vec<T>> = vec![vec![T::ZERO; s]; factors.len()];
        let mut coupled = ws.buffer(s);
        for (i, (factor, upper)) in factors.iter().zip(&self.upper).enumerate().rev() {
            let mut b = ws.buffer(s);
            // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
            b.copy_from_slice(&rhs[i]);
            if let (Some(upper), Some(next)) = (upper, x.get(i + 1)) {
                match upper {
                    Coupling::Dense(u) => u.matvec_into(next, &mut coupled)?,
                    Coupling::Diagonal(u) => {
                        for ((c, &uv), &xv) in coupled.iter_mut().zip(u).zip(next) {
                            *c = uv * xv;
                        }
                    }
                }
                for (target, &delta) in b.iter_mut().zip(coupled.iter()) {
                    *target -= delta;
                }
            }
            // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
            factor.solve_into(&b, &mut x[i])?;
            ws.release_buffer(b);
        }
        ws.release_buffer(coupled);
        Ok(x)
    }

    /// Assembles the full dense system matrix; intended for tests and as a fallback for
    /// ill-conditioned systems.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let k = self.block_rows;
        let s = self.block_size;
        let mut full = DenseMatrix::zeros(k * s, k * s);
        let place =
            |coupling: &Coupling<T>, row0: usize, col0: usize, full: &mut DenseMatrix<T>| {
                match coupling {
                    Coupling::Dense(m) => {
                        for r in 0..s {
                            for c in 0..s {
                                full[(row0 + r, col0 + c)] = m[(r, c)];
                            }
                        }
                    }
                    Coupling::Diagonal(d) => {
                        for (r, &v) in d.iter().enumerate() {
                            full[(row0 + r, col0 + r)] = v;
                        }
                    }
                }
            };
        for (i, diagonal) in self.diagonal.iter().enumerate() {
            for r in 0..s {
                for c in 0..s {
                    full[(i * s + r, i * s + c)] = diagonal[(r, c)];
                }
            }
            // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
            if let Some(lower) = &self.lower[i] {
                place(lower, i * s, (i - 1) * s, &mut full);
            }
            // urs-analyze: allow(slice_index, reason = "block offsets bounded by the layout the setters validated; packed coupling path")
            if let Some(upper) = &self.upper[i] {
                place(upper, i * s, (i + 1) * s, &mut full);
            }
        }
        full
    }

    /// Flattens the right-hand side into a single dense vector matching
    /// [`to_dense`](Self::to_dense).
    pub fn dense_rhs(&self) -> Vec<T> {
        self.rhs.iter().flat_map(|b| b.iter().copied()).collect()
    }

    /// Solves the system through a dense LU factorisation.
    ///
    /// This is `O((K·s)³)` and exists as a numerically independent cross-check and as a
    /// fallback when the blocked elimination encounters a singular pivot block.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the assembled system is singular.
    pub fn solve_dense(&self) -> Result<Vec<Vec<T>>> {
        let s = self.block_size;
        let full = self.to_dense();
        let flat = DenseLu::new(&full)?.solve(&self.dense_rhs())?;
        Ok(flat.chunks(s).map(|chunk| chunk.to_vec()).collect())
    }
}

impl RealBlockTridiagonal {
    /// Solves the system with its last block row replaced by a complex one: `upper`
    /// stands in for the coupling `U_{K-2}` above row `K − 2` and `diagonal` for
    /// `D_{K-1}`, while every other block and the right-hand side stay real.
    ///
    /// This is the shape of the spectral-expansion boundary equations, whose real
    /// balance equations are closed by one row that couples to the complex
    /// expansion coefficients.  Rows `0..K−2` are eliminated in real arithmetic,
    /// and so is the multiplier `W = L_{K-1}·D'⁻¹_{K-2}`.  Only the closing Schur
    /// update `D_{K-1} − W·U_{K-2}` and its factorisation run in complex
    /// arithmetic.  Below the closing row the back substitution is real again:
    /// the real and imaginary parts of the iterates run through the real factors
    /// one after the other.  Complex arithmetic on operands with zero imaginary
    /// parts reproduces the real result exactly, so the solution has the same bits
    /// as [`solve_with`](Self::solve_with) on the system promoted to
    /// [`BlockTridiagonal`], up to the sign of exact zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the system has fewer than two block
    /// rows, [`LinalgError::DimensionMismatch`] if a block has the wrong shape, and
    /// otherwise the errors of [`solve_with`](Self::solve_with).
    pub fn solve_with_complex_closing(
        &self,
        upper: &CMatrix,
        diagonal: &CMatrix,
        pool: &ThreadPool,
    ) -> Result<Vec<Vec<Complex>>> {
        let last = match self.block_rows.checked_sub(1) {
            Some(last) if last > 0 => last,
            _ => {
                return Err(LinalgError::InvalidInput(
                    "a complex closing row needs a system of at least two block rows".into(),
                ))
            }
        };
        self.check_block(upper)?;
        self.check_block(diagonal)?;
        let mut ws = Workspace::new();
        let Forward { factors, mut rhs, w } = self.forward(last, &mut ws, pool)?;

        let mut closing = diagonal.clone();
        if let Some(w) = w {
            schur_dense_update(&mut closing, &CMatrix::from_real(&w), upper, pool)?;
        }
        let promoted: Vec<Complex> =
            rhs.pop().unwrap_or_default().into_iter().map(Complex::from).collect();
        let x_last = DenseLu::from_matrix_with(closing, pool)?.solve(&promoted)?;

        // Row K − 2 takes the complex coupling; from there down the system is real.
        let coupled = upper.matvec(&x_last)?;
        let mut rhs_im = vec![vec![0.0; self.block_size]; last];
        if let (Some(re), Some(im)) = (rhs.last_mut(), rhs_im.last_mut()) {
            for ((re, im), c) in re.iter_mut().zip(im.iter_mut()).zip(&coupled) {
                *re -= c.re;
                *im -= c.im;
            }
        }
        let x_re = self.back_substitute(&factors, &rhs, &mut ws)?;
        let x_im = self.back_substitute(&factors, &rhs_im, &mut ws)?;
        let mut x: Vec<Vec<Complex>> = x_re
            .iter()
            .zip(&x_im)
            .map(|(re, im)| re.iter().zip(im).map(|(&re, &im)| Complex::new(re, im)).collect())
            .collect();
        x.push(x_last);
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::tests::{bits, rng, Draw};
    use crate::{CMatrix, Matrix};

    fn real_block(values: &[&[f64]]) -> CMatrix {
        CMatrix::from_fn(values.len(), values[0].len(), |i, j| Complex::from_real(values[i][j]))
    }

    fn build_sample() -> BlockTridiagonal {
        // 3 block rows of size 2 with a mix of couplings.
        let mut sys = BlockTridiagonal::new(3, 2).unwrap();
        sys.set_diagonal(0, real_block(&[&[4.0, 1.0], &[0.5, 3.0]])).unwrap();
        sys.set_diagonal(1, real_block(&[&[5.0, 0.2], &[0.1, 4.0]])).unwrap();
        sys.set_diagonal(2, real_block(&[&[6.0, 0.0], &[0.3, 5.0]])).unwrap();
        sys.set_upper(0, real_block(&[&[1.0, 0.0], &[0.0, 1.0]])).unwrap();
        sys.set_upper(1, real_block(&[&[0.5, 0.1], &[0.0, 0.5]])).unwrap();
        sys.set_lower(1, real_block(&[&[0.2, 0.0], &[0.1, 0.2]])).unwrap();
        sys.set_lower(2, real_block(&[&[0.3, 0.1], &[0.0, 0.3]])).unwrap();
        sys.set_rhs(0, vec![Complex::from_real(1.0), Complex::from_real(2.0)]).unwrap();
        sys.set_rhs(1, vec![Complex::from_real(-1.0), Complex::from_real(0.5)]).unwrap();
        sys.set_rhs(2, vec![Complex::from_real(3.0), Complex::from_real(0.0)]).unwrap();
        sys
    }

    fn residual(sys: &BlockTridiagonal, x: &[Vec<Complex>]) -> f64 {
        let dense = sys.to_dense();
        let flat: Vec<Complex> = x.iter().flat_map(|b| b.iter().copied()).collect();
        let ax = dense.matvec(&flat).unwrap();
        ax.iter().zip(sys.dense_rhs()).map(|(a, b)| (*a - b).abs()).fold(0.0_f64, f64::max)
    }

    #[test]
    fn blocked_solution_matches_dense() {
        let sys = build_sample();
        let blocked = sys.solve().unwrap();
        let dense = sys.solve_dense().unwrap();
        assert!(residual(&sys, &blocked) < 1e-12);
        for (a, b) in blocked.iter().zip(&dense) {
            for (x, y) in a.iter().zip(b) {
                assert!((*x - *y).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn complex_coefficients() {
        let mut sys = BlockTridiagonal::new(2, 1).unwrap();
        sys.set_diagonal(0, CMatrix::from_fn(1, 1, |_, _| Complex::new(1.0, 1.0))).unwrap();
        sys.set_diagonal(1, CMatrix::from_fn(1, 1, |_, _| Complex::new(2.0, -1.0))).unwrap();
        sys.set_upper(0, CMatrix::from_fn(1, 1, |_, _| Complex::new(0.0, 1.0))).unwrap();
        sys.set_lower(1, CMatrix::from_fn(1, 1, |_, _| Complex::new(0.5, 0.0))).unwrap();
        sys.set_rhs(0, vec![Complex::new(1.0, 0.0)]).unwrap();
        sys.set_rhs(1, vec![Complex::new(0.0, 1.0)]).unwrap();
        let x = sys.solve().unwrap();
        assert!(residual(&sys, &x) < 1e-13);
    }

    #[test]
    fn single_block_row_reduces_to_plain_solve() {
        let mut sys = BlockTridiagonal::new(1, 2).unwrap();
        sys.set_diagonal(0, real_block(&[&[2.0, 0.0], &[0.0, 4.0]])).unwrap();
        sys.set_rhs(0, vec![Complex::from_real(2.0), Complex::from_real(8.0)]).unwrap();
        let x = sys.solve().unwrap();
        assert!((x[0][0].re - 1.0).abs() < 1e-14);
        assert!((x[0][1].re - 2.0).abs() < 1e-14);
    }

    fn assert_invalid_configuration_rejected<T: Scalar>() {
        assert!(BlockTridiagonalSystem::<T>::new(0, 2).is_err());
        assert!(BlockTridiagonalSystem::<T>::new(2, 0).is_err());
        let mut sys = BlockTridiagonalSystem::<T>::new(2, 2).unwrap();
        assert!(sys.set_lower(0, DenseMatrix::zeros(2, 2)).is_err());
        assert!(sys.set_upper(1, DenseMatrix::zeros(2, 2)).is_err());
        assert!(sys.set_diagonal(5, DenseMatrix::zeros(2, 2)).is_err());
        assert!(sys.set_diagonal(0, DenseMatrix::zeros(3, 3)).is_err());
        assert!(sys.set_rhs(0, vec![T::ZERO]).is_err());
    }

    #[test]
    fn invalid_configuration_rejected() {
        assert_invalid_configuration_rejected::<Complex>();
    }

    #[test]
    fn real_invalid_configuration_rejected() {
        assert_invalid_configuration_rejected::<f64>();
    }

    #[test]
    fn singular_pivot_block_reported() {
        let mut sys = BlockTridiagonal::new(2, 1).unwrap();
        // Diagonal block 0 is zero -> elimination must fail with Singular.
        sys.set_diagonal(1, CMatrix::identity(1)).unwrap();
        sys.set_upper(0, CMatrix::identity(1)).unwrap();
        sys.set_lower(1, CMatrix::identity(1)).unwrap();
        assert!(matches!(sys.solve(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn larger_random_like_system_consistency() {
        // Deterministic pseudo-random entries; diagonal dominance keeps it well posed.
        let k = 6;
        let s = 3;
        let mut seed = 7_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut sys = BlockTridiagonal::new(k, s).unwrap();
        for i in 0..k {
            let mut d = CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next()));
            for r in 0..s {
                d[(r, r)] += Complex::from_real(8.0);
            }
            sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                sys.set_lower(i, CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next())))
                    .unwrap();
            }
            if i + 1 < k {
                sys.set_upper(i, CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next())))
                    .unwrap();
            }
            sys.set_rhs(i, (0..s).map(|_| Complex::new(next(), next())).collect()).unwrap();
        }
        let x = sys.solve().unwrap();
        assert!(residual(&sys, &x) < 1e-11);
        let dense = sys.solve_dense().unwrap();
        for (a, b) in x.iter().zip(&dense) {
            for (p, q) in a.iter().zip(b) {
                assert!((*p - *q).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn diagonal_upper_fast_path_matches_dense_solve() {
        // Diagonal super-blocks (the QBD boundary shape) take the O(s²) Schur
        // fast path; the solution must still satisfy the assembled system.
        let k = 5;
        let s = 4;
        let mut seed = 11_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut sys = BlockTridiagonal::new(k, s).unwrap();
        for i in 0..k {
            let mut d = CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next()));
            for r in 0..s {
                d[(r, r)] += Complex::from_real(9.0);
            }
            sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                sys.set_lower(i, CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next())))
                    .unwrap();
            }
            if i + 1 < k {
                let mut u = CMatrix::zeros(s, s);
                for r in 0..s {
                    u[(r, r)] = Complex::new(next(), next());
                }
                sys.set_upper(i, u).unwrap();
            }
            sys.set_rhs(i, (0..s).map(|_| Complex::new(next(), next())).collect()).unwrap();
        }
        let x = sys.solve().unwrap();
        assert!(residual(&sys, &x) < 1e-12);
        let dense = sys.solve_dense().unwrap();
        for (a, b) in x.iter().zip(&dense) {
            for (p, q) in a.iter().zip(b) {
                assert!((*p - *q).abs() < 1e-10);
            }
        }
    }

    fn build_real_sample(diagonal_upper: bool) -> RealBlockTridiagonal {
        let k = 6;
        let s = 3;
        let mut seed = 23_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut sys = RealBlockTridiagonal::new(k, s).unwrap();
        for i in 0..k {
            let mut d = Matrix::from_fn(s, s, |_, _| next());
            for r in 0..s {
                d[(r, r)] += 7.0;
            }
            sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                sys.set_lower(i, Matrix::from_fn(s, s, |_, _| next())).unwrap();
            }
            if i + 1 < k {
                let u = if diagonal_upper {
                    Matrix::from_diagonal(&[next(), next(), next()])
                } else {
                    Matrix::from_fn(s, s, |_, _| next())
                };
                sys.set_upper(i, u).unwrap();
            }
            sys.set_rhs(i, (0..s).map(|_| next()).collect()).unwrap();
        }
        sys
    }

    #[test]
    fn real_system_matches_dense_solve() {
        for &diag_upper in &[false, true] {
            let sys = build_real_sample(diag_upper);
            let x = sys.solve().unwrap();
            let dense = sys.solve_dense().unwrap();
            let full = sys.to_dense();
            let flat: Vec<f64> = x.iter().flat_map(|b| b.iter().copied()).collect();
            let ax = full.matvec(&flat).unwrap();
            let res =
                ax.iter().zip(sys.dense_rhs()).map(|(a, b)| (a - b).abs()).fold(0.0_f64, f64::max);
            assert!(res < 1e-12, "residual {res} (diag_upper={diag_upper})");
            for (a, b) in x.iter().zip(&dense) {
                for (p, q) in a.iter().zip(b) {
                    assert!((p - q).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn real_system_parallel_matches_serial_bitwise() {
        let sys = build_real_sample(true);
        let serial = sys.solve().unwrap();
        let pool = ThreadPool::new(4);
        let parallel = sys.solve_with(&pool).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            for (p, q) in a.iter().zip(b) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
    }

    fn assert_packed_diagonal_couplings_match_dense_bitwise<T: Draw>() {
        // Same system twice: once with the diagonal couplings handed over as
        // dense s × s blocks, once packed.  The packed storage must dispatch to
        // byte-for-byte the same substitutions, so the solutions are bit-equal.
        let k = 6;
        let s = 3;
        let mut next = rng(41);
        let mut draw = || T::draw(&mut next);
        let mut dense_sys = BlockTridiagonalSystem::<T>::new(k, s).unwrap();
        let mut packed_sys = BlockTridiagonalSystem::<T>::new(k, s).unwrap();
        for i in 0..k {
            let mut d = DenseMatrix::from_fn(s, s, |_, _| draw());
            for r in 0..s {
                d[(r, r)] += T::from_real(7.0);
            }
            dense_sys.set_diagonal(i, d.clone()).unwrap();
            packed_sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                let l = vec![draw(), draw(), draw()];
                dense_sys.set_lower(i, DenseMatrix::from_diagonal(&l)).unwrap();
                packed_sys.set_lower_diagonal(i, l).unwrap();
            }
            if i + 1 < k {
                let u = vec![draw(), draw(), draw()];
                dense_sys.set_upper(i, DenseMatrix::from_diagonal(&u)).unwrap();
                packed_sys.set_upper_diagonal(i, u).unwrap();
            }
            let rhs: Vec<T> = (0..s).map(|_| draw()).collect();
            dense_sys.set_rhs(i, rhs.clone()).unwrap();
            packed_sys.set_rhs(i, rhs).unwrap();
        }
        let dense_x = dense_sys.solve().unwrap();
        let packed_x = packed_sys.solve().unwrap();
        for (a, b) in dense_x.iter().zip(&packed_x) {
            assert_eq!(bits(a), bits(b));
        }
        // The dense fallback assembles the packed couplings correctly too.
        let packed_dense = packed_sys.solve_dense().unwrap();
        for (a, b) in packed_x.iter().zip(&packed_dense) {
            for (&p, &q) in a.iter().zip(b) {
                assert!((p - q).modulus() < 1e-10);
            }
        }
    }

    #[test]
    fn real_packed_diagonal_couplings_match_dense_bitwise() {
        assert_packed_diagonal_couplings_match_dense_bitwise::<f64>();
    }

    #[test]
    fn complex_packed_diagonal_couplings_match_dense_bitwise() {
        assert_packed_diagonal_couplings_match_dense_bitwise::<Complex>();
    }

    #[test]
    fn real_packed_diagonal_setters_validate() {
        let mut sys = RealBlockTridiagonal::new(3, 2).unwrap();
        assert!(sys.set_lower_diagonal(0, vec![1.0, 2.0]).is_err());
        assert!(sys.set_upper_diagonal(2, vec![1.0, 2.0]).is_err());
        assert!(sys.set_lower_diagonal(1, vec![1.0]).is_err());
        assert!(sys.set_upper_diagonal(1, vec![1.0, 2.0, 3.0]).is_err());
        assert!(sys.set_lower_diagonal(1, vec![1.0, 2.0]).is_ok());
        assert!(sys.set_upper_diagonal(1, vec![1.0, 2.0]).is_ok());
    }

    /// A diagonally dominant real system of `k` block rows and the complex
    /// closing blocks for it, with the couplings packed or dense.
    fn closing_sample(
        k: usize,
        s: usize,
        packed: bool,
        seed: u64,
    ) -> (RealBlockTridiagonal, CMatrix, CMatrix) {
        let mut next = rng(seed);
        let mut sys = RealBlockTridiagonal::new(k, s).unwrap();
        for i in 0..k {
            let mut d = Matrix::from_fn(s, s, |_, _| next());
            for r in 0..s {
                d[(r, r)] += s as f64 + 2.0;
            }
            sys.set_diagonal(i, d).unwrap();
            if i > 0 {
                if packed {
                    sys.set_lower_diagonal(i, (0..s).map(|_| next()).collect()).unwrap();
                } else {
                    sys.set_lower(i, Matrix::from_fn(s, s, |_, _| next())).unwrap();
                }
            }
            if i + 1 < k {
                if packed {
                    sys.set_upper_diagonal(i, (0..s).map(|_| next()).collect()).unwrap();
                } else {
                    sys.set_upper(i, Matrix::from_fn(s, s, |_, _| next())).unwrap();
                }
            }
            sys.set_rhs(i, (0..s).map(|_| next()).collect()).unwrap();
        }
        let upper = CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next()));
        let mut diagonal = CMatrix::from_fn(s, s, |_, _| Complex::new(next(), next()));
        for r in 0..s {
            diagonal[(r, r)] += Complex::from_real(s as f64 + 2.0);
        }
        (sys, upper, diagonal)
    }

    /// `sys` promoted to complex, with its last row closed by `upper` and
    /// `diagonal`: the system the complex-closing entry point solves.
    fn promoted(
        sys: &RealBlockTridiagonal,
        upper: &CMatrix,
        diagonal: &CMatrix,
    ) -> BlockTridiagonal {
        let k = sys.block_rows();
        let promote = |v: &[f64]| -> Vec<Complex> { v.iter().map(|&x| x.into()).collect() };
        let mut out = BlockTridiagonal::new(k, sys.block_size()).unwrap();
        for i in 0..k {
            out.set_diagonal(i, CMatrix::from_real(&sys.diagonal[i])).unwrap();
            out.set_rhs(i, promote(&sys.rhs[i])).unwrap();
            match &sys.lower[i] {
                Some(Coupling::Dense(l)) => out.set_lower(i, CMatrix::from_real(l)).unwrap(),
                Some(Coupling::Diagonal(l)) => out.set_lower_diagonal(i, promote(l)).unwrap(),
                None => {}
            }
            match &sys.upper[i] {
                Some(Coupling::Dense(u)) => out.set_upper(i, CMatrix::from_real(u)).unwrap(),
                Some(Coupling::Diagonal(u)) => out.set_upper_diagonal(i, promote(u)).unwrap(),
                None => {}
            }
        }
        out.set_upper(k - 2, upper.clone()).unwrap();
        out.set_diagonal(k - 1, diagonal.clone()).unwrap();
        out
    }

    #[test]
    fn complex_closing_matches_the_promoted_complex_solve_bitwise() {
        let pools = [ThreadPool::serial(), ThreadPool::new(4)];
        let mut seed = 61;
        for &k in &[2, 3, 6] {
            // s = 40 is large enough for the pooled kernels to split their work.
            for &s in &[3, 40] {
                for &packed in &[true, false] {
                    seed += 1;
                    let (sys, upper, diagonal) = closing_sample(k, s, packed, seed);
                    let reference = promoted(&sys, &upper, &diagonal);
                    let expected = reference.solve().unwrap();
                    assert!(residual(&reference, &expected) < 1e-10);
                    for pool in &pools {
                        let x = sys.solve_with_complex_closing(&upper, &diagonal, pool).unwrap();
                        assert_eq!(x.len(), k);
                        for (a, b) in x.iter().zip(&expected) {
                            assert_eq!(bits(a), bits(b), "K = {k}, s = {s}, packed = {packed}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn complex_closing_reports_a_singular_real_pivot_block() {
        // D'_0 = D_0 is the first real pivot block.
        let (mut sys, upper, diagonal) = closing_sample(3, 2, true, 5);
        sys.set_diagonal(0, Matrix::zeros(2, 2)).unwrap();
        let pool = ThreadPool::serial();
        assert!(matches!(
            sys.solve_with_complex_closing(&upper, &diagonal, &pool),
            Err(LinalgError::Singular { .. })
        ));
        // So is a singular closing block: with L_2 = 0 the Schur update leaves
        // the zero diagonal block as it is.
        let (mut sys, upper, _) = closing_sample(3, 2, false, 6);
        sys.set_lower_diagonal(2, vec![0.0; 2]).unwrap();
        assert!(matches!(
            sys.solve_with_complex_closing(&upper, &CMatrix::zeros(2, 2), &pool),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn complex_closing_validates_its_input() {
        let pool = ThreadPool::serial();
        let single = RealBlockTridiagonal::new(1, 2).unwrap();
        let block = CMatrix::identity(2);
        assert!(matches!(
            single.solve_with_complex_closing(&block, &block, &pool),
            Err(LinalgError::InvalidInput(_))
        ));
        let (sys, upper, diagonal) = closing_sample(2, 2, true, 7);
        let wrong = CMatrix::identity(3);
        assert!(sys.solve_with_complex_closing(&wrong, &diagonal, &pool).is_err());
        assert!(sys.solve_with_complex_closing(&upper, &wrong, &pool).is_err());
    }
}
