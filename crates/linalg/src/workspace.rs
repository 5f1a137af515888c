//! Reusable scratch buffers for allocation-free hot loops.

use crate::complex::Complex;
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;

/// A pool of reusable scratch buffers backing the `_into` kernel family.
///
/// Iterative solvers — the logarithmic-reduction `R` computation, the block-tridiagonal
/// boundary elimination — need a handful of temporary matrices and vectors *per
/// iteration*.  Allocating them fresh each time dominates the runtime of small systems
/// and fragments the heap for large ones.  A `Workspace` hands out buffers and takes
/// them back, so a steady-state loop performs no heap allocation at all: acquire with
/// [`matrix`](Self::matrix) (or [`buffer`](Self::buffer)), release with the matching
/// `release_*` call, and the storage is recycled for the next request of any shape
/// with sufficient capacity.  Each [`Scalar`] type has its own pool.
///
/// The pool is deliberately *not* thread-safe: each worker of a parallel sweep owns its
/// own workspace, which keeps the hot path free of synchronisation.
///
/// # Example
///
/// ```
/// use urs_linalg::{Matrix, Workspace};
///
/// # fn main() -> Result<(), urs_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let mut ws = Workspace::new();
/// let mut product = ws.matrix::<f64>(3, 3); // zeroed scratch matrix
/// product.gemm(2.0, &a, &a, 0.0)?;
/// assert_eq!(product[(1, 1)], 2.0);
/// ws.release_matrix(product); // storage is reused by the next request
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) real: Vec<Vec<f64>>,
    pub(crate) complex: Vec<Vec<Complex>>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are pooled as they are released.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a zeroed buffer of the given length, reusing pooled storage.
    pub fn buffer<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        match T::pool(self).pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, T::ZERO);
                buf
            }
            None => vec![T::ZERO; len],
        }
    }

    /// Returns a buffer to its pool.
    pub fn release_buffer<T: Scalar>(&mut self, buf: Vec<T>) {
        T::pool(self).push(buf);
    }

    /// Hands out a zeroed `rows × cols` matrix backed by pooled storage.
    pub fn matrix<T: Scalar>(&mut self, rows: usize, cols: usize) -> DenseMatrix<T> {
        let buf = self.buffer(rows * cols);
        // urs-analyze: allow(no_panic, reason = "buffer returns exactly rows*cols elements on the line above")
        DenseMatrix::from_vec(rows, cols, buf).expect("buffer length matches by construction")
    }

    /// Returns a matrix's storage to its pool.
    pub fn release_matrix<T: Scalar>(&mut self, m: DenseMatrix<T>) {
        self.release_buffer(m.into_vec());
    }

    /// Number of pooled (currently idle) buffers over all scalar types.
    pub fn pooled(&self) -> usize {
        self.real.len() + self.complex.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CMatrix, Matrix};

    #[test]
    fn buffers_are_recycled() {
        let mut ws = Workspace::new();
        let m: Matrix = ws.matrix(4, 4);
        assert_eq!(m.shape(), (4, 4));
        ws.release_matrix(m);
        assert_eq!(ws.pooled(), 1);
        // A differently-shaped request reuses the same storage.
        let v = ws.buffer::<f64>(2);
        assert_eq!(ws.pooled(), 0);
        assert_eq!(v, vec![0.0, 0.0]);
        ws.release_buffer(v);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn released_buffers_come_back_zeroed() {
        let mut ws = Workspace::new();
        let mut m: CMatrix = ws.matrix(2, 2);
        m[(0, 0)] = Complex::ONE;
        ws.release_matrix(m);
        let again: CMatrix = ws.matrix(2, 2);
        assert_eq!(again[(0, 0)], Complex::ZERO);
    }
}
