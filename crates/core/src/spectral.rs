//! The exact spectral-expansion solution (Section 3.1 of the paper).
//!
//! For queue lengths `j ≥ N` the balance equations form the constant-coefficient
//! difference equation `v_j Q0 + v_{j+1} Q1 + v_{j+2} Q2 = 0`.  Its bounded solutions
//! are spanned by `u_k z_k^j` where `z_k` are the eigenvalues of the characteristic
//! matrix polynomial `Q(z)` inside the unit disk and `u_k` the corresponding left
//! eigenvectors; ergodicity guarantees exactly `s` such eigenvalues.  The unknown
//! boundary vectors `v_0 … v_{N−1}` and the expansion coefficients `γ_k` follow from
//! the level-`0..N` balance equations plus normalisation.
//!
//! Implementation notes:
//!
//! * the eigenvalues come from the companion linearisation in
//!   [`urs_linalg::QuadraticEigenProblem`] (Francis QR under the hood);
//! * the boundary equations form a block-tridiagonal system with `N+1` block rows
//!   (the last block holds the `γ` coefficients).  Rows `0..N−1` are real balance
//!   equations, the same as the matrix-geometric solver's and from one shared
//!   assembly; they are eliminated in real arithmetic, and only the closing row,
//!   which couples to `γ` through the complex eigenpairs, is complex.  A singular
//!   pivot block falls back to a dense complex solve of the whole system;
//! * instead of replacing an equation by the normalisation condition (which would
//!   destroy the banded structure), one balance equation is replaced by pinning the
//!   probability of a well-chosen reference state to 1; the whole solution is rescaled
//!   afterwards.  Any single balance equation is redundant, so this is exact.

use std::sync::Arc;

use urs_linalg::{CMatrix, Complex, LinalgError};

use crate::cache::SolverCache;
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::parallel::ThreadPool;
use crate::qbd::QbdMatrices;
use crate::solution::{QueueSolution, QueueSolver};
use crate::Result;

/// Options controlling the spectral-expansion solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralOptions {
    /// Eigenvalues with `|z| < 1 − unit_disk_margin` are considered to lie inside the
    /// unit disk.  The margin guards against the eigenvalue at 1 (which always exists
    /// for the conservative generator) being misclassified due to rounding.
    pub unit_disk_margin: f64,
    /// Maximum tolerated imaginary part (relative to 1) surviving in probabilities.
    pub reality_tolerance: f64,
    /// Maximum tolerated eigen-residual `‖u Q(z)‖∞` relative to the matrix scale.
    pub residual_tolerance: f64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions {
            unit_disk_margin: 1e-9,
            reality_tolerance: 1e-6,
            residual_tolerance: 1e-6,
        }
    }
}

/// The exact solver based on spectral expansion.
///
/// # Example
///
/// ```
/// use urs_core::{QueueSolver, ServerLifecycle, SpectralExpansionSolver, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(10, 8.0, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let solution = SpectralExpansionSolver::default().solve(&config)?;
/// let l = solution.mean_queue_length();
/// assert!(l > 8.0 && l < 40.0);
/// # Ok(())
/// # }
/// ```
///
/// For parameter sweeps, attach a shared [`SolverCache`] with
/// [`with_cache`](Self::with_cache): grid points that differ only in the arrival rate
/// then reuse the λ-independent QBD skeleton, and repeated configurations are answered
/// from the cache outright — bit-identically in both cases.
#[derive(Debug, Clone)]
pub struct SpectralExpansionSolver {
    options: SpectralOptions,
    cache: Option<Arc<SolverCache>>,
    pool: ThreadPool,
}

impl Default for SpectralExpansionSolver {
    /// Default options, no cache, and a serial pool (parallelism is strictly opt-in
    /// via [`with_pool`](Self::with_pool)).
    fn default() -> Self {
        SpectralExpansionSolver::new(SpectralOptions::default())
    }
}

impl SpectralExpansionSolver {
    /// Creates a solver with explicit options.
    pub fn new(options: SpectralOptions) -> Self {
        SpectralExpansionSolver { options, cache: None, pool: ThreadPool::serial() }
    }

    /// Attaches a cache of QBD skeletons and complete solutions.  The same cache can
    /// be shared by several solvers and by every thread of a parallel sweep.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs the solver's internal kernels — eigenvector extraction, the boundary
    /// block-tridiagonal elimination, and the dense multiplies feeding it — on `pool`.
    ///
    /// Every parallel path preserves the serial accumulation order, so the solution
    /// is bit-identical to the default serial solver at any thread count.
    pub fn with_pool(mut self, pool: ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// Solves the model, returning the concrete [`SpectralSolution`] (richer than the
    /// boxed trait object returned via [`QueueSolver::solve`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations and
    /// [`ModelError::SpectralFailure`] when the eigenvalue count or the residuals do
    /// not meet expectations (typically for very large, ill-conditioned systems — the
    /// situation the paper's geometric approximation is designed for).
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<SpectralSolution> {
        config.ensure_stable()?;
        match &self.cache {
            Some(cache) => {
                if let Some(hit) = cache.lookup_solution(config, &self.options)? {
                    return Ok((*hit).clone());
                }
                let qbd =
                    QbdMatrices::with_skeleton(cache.skeleton(config)?, config.arrival_rate());
                let solution = self.solve_qbd(config, &qbd)?;
                cache.store_solution(config, &self.options, solution.clone())?;
                Ok(solution)
            }
            None => {
                let qbd = QbdMatrices::new(config)?;
                self.solve_qbd(config, &qbd)
            }
        }
    }

    /// Runs the spectral expansion on prebuilt QBD matrices.
    fn solve_qbd(&self, config: &SystemConfig, qbd: &QbdMatrices) -> Result<SpectralSolution> {
        let s = qbd.order();

        // 1. Eigenvalues and left eigenvectors of Q(z) inside the unit disk.  An
        // earlier spectral solve of the same (skeleton, λ, margin) under other
        // tolerances may have stored the complete eigensystem; it is deterministic, so
        // the cached and freshly computed paths are bit-identical.  Either way every
        // eigenvector is re-certified against this solver's residual tolerance.
        let problem = urs_linalg::QuadraticEigenProblem::new(qbd.q0(), qbd.q1(), qbd.q2())?;
        let cached_entry = match &self.cache {
            Some(cache) => cache.lookup_eigensystem(config, self.options.unit_disk_margin)?,
            None => None,
        };
        let scale = qbd.q1().max_abs().max(1.0);
        let certify = |z: &Complex, u: &[Complex]| -> Result<()> {
            let residual = problem.residual(*z, u)?;
            if residual > self.options.residual_tolerance * scale {
                return Err(ModelError::SpectralFailure(format!(
                    "left eigenvector residual {residual:.3e} at z = {z} exceeds tolerance",
                )));
            }
            Ok(())
        };
        let (eigenvalues, eigenvectors) = match cached_entry {
            Some(entry) => {
                for (z, u) in entry.eigenvalues.iter().zip(&entry.eigenvectors) {
                    certify(z, u)?;
                }
                (entry.eigenvalues.clone(), entry.eigenvectors.clone())
            }
            None => {
                let mut inside: Vec<Complex> = problem
                    .eigenvalues_inside_unit_disk(self.options.unit_disk_margin)?
                    .iter()
                    .map(|e| e.z)
                    .collect();
                if inside.len() != s {
                    return Err(ModelError::SpectralFailure(format!(
                        "expected {s} eigenvalues strictly inside the unit disk, found {}",
                        inside.len()
                    )));
                }
                // Deterministic order: by modulus, then by real/imaginary part.
                inside.sort_by(|a, b| {
                    a.abs()
                        .total_cmp(&b.abs())
                        .then(a.re.total_cmp(&b.re))
                        .then(a.im.total_cmp(&b.im))
                });
                // Each eigenvector extraction is independent, so the sorted list fans
                // out across the pool.  When the QBD blocks are banded-profitable the
                // extraction is shifted inverse iteration on one packed banded LU of
                // Q(z)ᵀ per eigenvalue (O(s·b²) instead of the dense O(s³) null-space
                // path, which remains the certified fallback).  `try_par_map` reports
                // the smallest-indexed failure, which is exactly the one a serial loop
                // over the same sorted order would have hit first.
                let eigenvectors: Vec<Vec<Complex>> =
                    self.pool.try_par_map(&inside, |z| -> Result<Vec<Complex>> {
                        let u = problem.left_eigenvector(*z)?;
                        certify(z, &u)?;
                        Ok(u)
                    })?;
                if let Some(cache) = &self.cache {
                    cache.store_eigensystem(
                        config,
                        self.options.unit_disk_margin,
                        crate::cache::EigenEntry {
                            eigenvalues: inside.clone(),
                            eigenvectors: eigenvectors.clone(),
                        },
                    )?;
                }
                (inside, eigenvectors)
            }
        };

        // 2. Boundary equations: block-tridiagonal system over v_0..v_{N-1} and γ.
        let boundary = solve_boundary(qbd, &eigenvalues, &eigenvectors, &self.pool)?;

        // 3. Assemble the solution and normalise.
        SpectralSolution::assemble(config, qbd, eigenvalues, eigenvectors, boundary, self.options)
    }
}

impl QueueSolver for SpectralExpansionSolver {
    fn name(&self) -> &'static str {
        "spectral expansion (exact)"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// Raw (un-normalised) boundary unknowns: `v_0..v_{N-1}` followed by the coefficient
/// vector `γ`.
struct BoundaryUnknowns {
    levels: Vec<Vec<Complex>>,
    gamma: Vec<Complex>,
}

/// Builds and solves the boundary block-tridiagonal system: the real boundary
/// rows shared with the matrix-geometric solver (`QbdMatrices::boundary_system`),
/// closed by the complex `γ` coupling above row `N − 1` and the complex level-`N`
/// equation.
fn solve_boundary(
    qbd: &QbdMatrices,
    eigenvalues: &[Complex],
    eigenvectors: &[Vec<Complex>],
    pool: &ThreadPool,
) -> Result<BoundaryUnknowns> {
    let s = qbd.order();
    let servers = qbd.servers();

    // U_mat(j): s×s complex matrix whose k-th row is u_k · z_k^j.
    let u_mat = |level: u32| -> CMatrix {
        CMatrix::from_fn(s, s, |k, i| eigenvectors[k][i] * eigenvalues[k].powi(level))
    };
    // C is diagonal, so every U·C product below is a column scaling (`O(s²)`)
    // instead of a dense complex matmul (`O(s³)`).
    let u_mat_c = |level: u32| -> Result<CMatrix> {
        let mut m = u_mat(level);
        m.scale_columns(qbd.c())?;
        Ok(m)
    };

    // Row N−1 couples to γ through v_N = γ·U_mat(N): −(U_mat(N)·C)ᵀ.  At N = 1 that
    // row is the pinned level 0, so the pin mode's row of the coupling is zeroed.
    let mut gamma_coupling = u_mat_c(servers as u32)?.transpose();
    if servers == 1 {
        let pin = qbd.skeleton().pin_mode();
        if let Some(row) = gamma_coupling.as_mut_slice().chunks_exact_mut(s).nth(pin) {
            row.fill(Complex::ZERO);
        }
    }
    let upper = &gamma_coupling * Complex::from_real(-1.0);
    // Level N: −v_{N−1}·B + γ·[U_N·(Dᴬ+B+C−A) − U_{N+1}·C] = 0.
    let mut term1 = CMatrix::zeros(s, s);
    term1.gemm_with(
        Complex::ONE,
        &u_mat(servers as u32),
        &CMatrix::from_real(&qbd.local_matrix(servers)),
        Complex::ZERO,
        pool,
    )?;
    let term2 = u_mat_c(servers as u32 + 1)?;
    let closing = (&term1 - &term2).transpose();

    let system = qbd.boundary_system::<f64>()?;
    let solution = match system.solve_with_complex_closing(&upper, &closing, pool) {
        Ok(x) => x,
        Err(LinalgError::Singular { .. }) => {
            let mut system = qbd.boundary_system::<Complex>()?;
            system.set_upper(servers - 1, upper)?;
            system.set_diagonal(servers, closing)?;
            system.solve_dense()?
        }
        Err(e) => return Err(e.into()),
    };
    let gamma = solution[servers].clone();
    let levels = solution[..servers].to_vec();
    Ok(BoundaryUnknowns { levels, gamma })
}

/// One term of the spectral expansion: the eigenvalue `z_k` together with the
/// coefficient-weighted eigenvector `w_k = γ_k·u_k` and its component sum.
#[derive(Debug, Clone)]
struct SpectralTerm {
    z: Complex,
    weighted_vector: Vec<Complex>,
    weighted_sum: Complex,
}

/// The exact steady-state solution produced by [`SpectralExpansionSolver`].
#[derive(Debug, Clone)]
pub struct SpectralSolution {
    servers: usize,
    arrival_rate: f64,
    mode_count: usize,
    /// Probability vectors of the boundary levels `0..N-1`.
    boundary: Vec<Vec<f64>>,
    terms: Vec<SpectralTerm>,
    mean_queue_length: f64,
    max_imaginary_residue: f64,
}

impl SpectralSolution {
    fn assemble(
        config: &SystemConfig,
        qbd: &QbdMatrices,
        eigenvalues: Vec<Complex>,
        eigenvectors: Vec<Vec<Complex>>,
        boundary: BoundaryUnknowns,
        options: SpectralOptions,
    ) -> Result<Self> {
        let s = qbd.order();
        let servers = qbd.servers();

        // Fold the coefficients γ_k into the eigenvectors.
        let mut terms: Vec<SpectralTerm> = eigenvalues
            .iter()
            .zip(&eigenvectors)
            .zip(&boundary.gamma)
            .map(|((z, u), gamma)| {
                let weighted_vector: Vec<Complex> = u.iter().map(|c| *c * *gamma).collect();
                let weighted_sum = weighted_vector.iter().copied().sum();
                SpectralTerm { z: *z, weighted_vector, weighted_sum }
            })
            .collect();

        // Total (un-normalised) probability mass.
        let boundary_mass: Complex =
            boundary.levels.iter().map(|v| v.iter().copied().sum::<Complex>()).sum();
        let tail_mass: Complex = terms
            .iter()
            .map(|t| t.weighted_sum * t.z.powi(servers as u32) / (Complex::ONE - t.z))
            .sum();
        let total = boundary_mass + tail_mass;
        if total.abs() < 1e-300 {
            return Err(ModelError::SpectralFailure(
                "total probability mass vanished during normalisation".into(),
            ));
        }
        let max_imag = (total.im / total.abs()).abs();

        // Normalise: divide every unknown by the total mass.
        let boundary_real: Vec<Vec<f64>> =
            boundary.levels.iter().map(|v| v.iter().map(|c| (*c / total).re).collect()).collect();
        for term in &mut terms {
            for w in &mut term.weighted_vector {
                *w /= total;
            }
            term.weighted_sum /= total;
        }

        // Track how far from real the normalised solution is.
        let mut max_imaginary_residue = max_imag;
        for c in boundary.levels.iter().flatten() {
            let residue = (*c / total).im.abs();
            if residue > max_imaginary_residue {
                max_imaginary_residue = residue;
            }
        }
        if max_imaginary_residue > options.reality_tolerance {
            return Err(ModelError::SpectralFailure(format!(
                "probabilities retain imaginary residue {max_imaginary_residue:.3e}"
            )));
        }

        // Mean queue length:
        //   L = Σ_{j<N} j·(v_j·1) + Σ_k w_k_sum · z^N (N − (N−1)z) / (1−z)².
        let boundary_part: f64 =
            boundary_real.iter().enumerate().map(|(j, v)| j as f64 * v.iter().sum::<f64>()).sum();
        let tail_part: Complex = terms
            .iter()
            .map(|t| {
                let one_minus = Complex::ONE - t.z;
                t.weighted_sum
                    * t.z.powi(servers as u32)
                    * (Complex::from_real(servers as f64) - t.z * (servers as f64 - 1.0))
                    / (one_minus * one_minus)
            })
            .sum();
        let mean_queue_length = boundary_part + tail_part.re;

        Ok(SpectralSolution {
            servers,
            arrival_rate: config.arrival_rate(),
            mode_count: s,
            boundary: boundary_real,
            terms,
            mean_queue_length,
            max_imaginary_residue,
        })
    }

    /// The eigenvalues `z_k` of the characteristic polynomial inside the unit disk,
    /// sorted by increasing modulus.
    pub fn eigenvalues(&self) -> Vec<Complex> {
        self.terms.iter().map(|t| t.z).collect()
    }

    /// The dominant (largest-modulus) eigenvalue; it is real and positive for an
    /// ergodic queue and governs the geometric tail decay.
    pub fn dominant_eigenvalue(&self) -> f64 {
        self.terms.last().map(|t| t.z.re).unwrap_or(0.0)
    }

    /// The largest imaginary residue observed when converting the (theoretically real)
    /// probabilities from complex arithmetic; a solver-quality diagnostic.
    pub fn max_imaginary_residue(&self) -> f64 {
        self.max_imaginary_residue
    }

    /// Number of servers `N` of the solved configuration.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Joint probabilities of the boundary levels `0..N−1` (level → mode → probability).
    pub fn boundary_levels(&self) -> &[Vec<f64>] {
        &self.boundary
    }
}

impl QueueSolution for SpectralSolution {
    fn mode_count(&self) -> usize {
        self.mode_count
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        if mode >= self.mode_count {
            return 0.0;
        }
        if level < self.servers {
            self.boundary[level][mode]
        } else {
            self.terms.iter().map(|t| (t.weighted_vector[mode] * t.z.powi(level as u32)).re).sum()
        }
    }

    fn mode_marginal(&self) -> Vec<f64> {
        (0..self.mode_count)
            .map(|mode| {
                let boundary: f64 = self.boundary.iter().map(|v| v[mode]).sum();
                let tail: f64 = self
                    .terms
                    .iter()
                    .map(|t| {
                        (t.weighted_vector[mode] * t.z.powi(self.servers as u32)
                            / (Complex::ONE - t.z))
                            .re
                    })
                    .sum();
                boundary + tail
            })
            .collect()
    }

    fn mean_queue_length(&self) -> f64 {
        self.mean_queue_length
    }

    fn tail_probability(&self, level: usize) -> f64 {
        if level + 1 >= self.servers {
            // P(Z > level) = Σ_k w_sum z^{level+1}/(1−z)
            self.terms
                .iter()
                .map(|t| (t.weighted_sum * t.z.powi(level as u32 + 1) / (Complex::ONE - t.z)).re)
                .sum()
        } else {
            let below: f64 = (0..=level).map(|j| self.level_probability(j)).sum();
            (1.0 - below).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerLifecycle;
    use crate::solution::consistency_violations;

    fn solve(servers: usize, lambda: f64, lifecycle: ServerLifecycle) -> SpectralSolution {
        let config = SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap();
        SpectralExpansionSolver::default().solve_detailed(&config).unwrap()
    }

    #[test]
    fn mm1_limit_no_breakdowns() {
        // A single server that is essentially always operative: the queue behaves as an
        // M/M/1 with ρ = λ/µ, whose queue-length distribution is geometric.
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let solution = solve(1, 0.6, lifecycle);
        let rho: f64 = 0.6;
        for j in 0..20 {
            let expected = (1.0 - rho) * rho.powi(j as i32);
            assert!(
                (solution.level_probability(j) - expected).abs() < 1e-6,
                "level {j}: {} vs {expected}",
                solution.level_probability(j)
            );
        }
        assert!((solution.mean_queue_length() - rho / (1.0 - rho)).abs() < 1e-5);
        assert!((solution.dominant_eigenvalue() - rho).abs() < 1e-6);
    }

    #[test]
    fn mm2_limit_matches_erlang_formula() {
        // Two always-operative servers: M/M/2 with λ = 1.2, µ = 1.
        let lifecycle = ServerLifecycle::exponential(1e-9, 1e3).unwrap();
        let solution = solve(2, 1.2, lifecycle);
        // M/M/c closed form for c = 2: p0 = (1-ρ)/(1+ρ) with ρ = λ/(2µ),
        // L = 2ρ + ρ(2ρ)²p0/(2!(1-ρ)²) … use the standard Erlang-C based formula.
        let rho: f64 = 0.6;
        let p0 = (1.0 - rho) / (1.0 + rho);
        let lq = (2.0 * rho).powi(2) * rho * p0 / (2.0 * (1.0 - rho) * (1.0 - rho));
        let l = lq + 2.0 * rho;
        assert!(
            (solution.mean_queue_length() - l).abs() < 1e-4,
            "L = {} vs {l}",
            solution.mean_queue_length()
        );
    }

    #[test]
    fn solution_is_internally_consistent() {
        let solution = solve(3, 2.0, ServerLifecycle::paper_fitted().unwrap());
        let violations = consistency_violations(&solution, 60, 1e-7);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(solution.max_imaginary_residue() < 1e-7);
        assert_eq!(solution.eigenvalues().len(), solution.mode_count());
        assert_eq!(solution.servers(), 3);
        assert_eq!(solution.boundary_levels().len(), 3);
    }

    #[test]
    fn mode_marginal_matches_environment_product_form() {
        // The environment evolves independently of the queue, so the mode marginal must
        // equal the multinomial stationary distribution.
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let config = SystemConfig::new(4, 3.0, 1.0, lifecycle.clone()).unwrap();
        let solution = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        let qbd = QbdMatrices::new(&config).unwrap();
        let expected = qbd.modes().stationary_distribution(&lifecycle);
        for (got, want) in solution.mode_marginal().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "mode marginal {got} vs {want}");
        }
    }

    #[test]
    fn unstable_configuration_is_rejected() {
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let config = SystemConfig::new(2, 5.0, 1.0, lifecycle).unwrap();
        assert!(matches!(
            SpectralExpansionSolver::default().solve_detailed(&config),
            Err(ModelError::Unstable { .. })
        ));
    }

    #[test]
    fn single_server_with_breakdowns_matches_truncated_reference() {
        // Cross-checked more broadly in the integration tests; here a small smoke test
        // that probabilities decay geometrically with the dominant eigenvalue.
        let lifecycle = ServerLifecycle::exponential(0.2, 1.0).unwrap();
        let solution = solve(1, 0.5, lifecycle);
        let z = solution.dominant_eigenvalue();
        assert!(z > 0.0 && z < 1.0);
        let p20 = solution.level_probability(20);
        let p21 = solution.level_probability(21);
        assert!((p21 / p20 - z).abs() < 1e-6);
    }

    #[test]
    fn little_law_holds() {
        let solution = solve(5, 3.5, ServerLifecycle::paper_fitted().unwrap());
        assert!((solution.mean_response_time() - solution.mean_queue_length() / 3.5).abs() < 1e-12);
    }

    #[test]
    fn level_probabilities_sum_to_one() {
        let solution = solve(4, 3.0, ServerLifecycle::paper_fitted().unwrap());
        let mut total = 0.0;
        for j in 0..2000 {
            total += solution.level_probability(j);
        }
        total += solution.tail_probability(1999);
        assert!((total - 1.0).abs() < 1e-9, "total probability {total}");
    }
}
