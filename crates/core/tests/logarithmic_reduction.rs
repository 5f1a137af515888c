//! Equivalence guarantees for the logarithmic-reduction `R`-matrix solver.
//!
//! The rewrite of [`MatrixGeometricSolver`] from the natural fixed-point iteration to
//! Latouche–Ramaswamy logarithmic reduction must be a pure speed change: the `R`
//! matrix, and everything derived from it, has to agree with the legacy iteration
//! (kept here as the oracle [`rate_matrix_fixed_point`]) to solver tolerance on
//! arbitrary stable configurations — homogeneous and heterogeneous — and the full
//! solution has to keep matching the spectral expansion, including at the `N = 24`
//! heterogeneous scale the old kernels could not reach comfortably.

use proptest::prelude::*;
use urs_core::{
    MatrixGeometricOptions, MatrixGeometricSolver, QbdMatrices, QueueSolution, ServerClass,
    ServerLifecycle, SpectralExpansionSolver, SystemConfig,
};
use urs_linalg::{LuDecomposition, Matrix, Workspace};

/// The natural fixed-point iteration `R ← −(Q0 + R²·Q2)·Q1⁻¹` under the default
/// solver options: the linear-convergence reference the logarithmic reduction is
/// pinned against.  Returns `R` and the number of iterations, or `None` if the
/// iteration does not converge within the budget.
///
/// No explicit inverse is formed: `Q1` is factorised once up front and every step
/// performs one right solve against the factors.
fn rate_matrix_fixed_point(qbd: &QbdMatrices) -> Option<(Matrix, usize)> {
    let options = MatrixGeometricOptions::default();
    let s = qbd.order();
    let (q0, q2) = (qbd.q0(), qbd.q2());
    let q1_lu = LuDecomposition::from_matrix(qbd.q1()).ok()?;
    let mut ws = Workspace::new();
    let mut r = Matrix::zeros(s, s);
    let mut r_squared = Matrix::zeros(s, s);
    let mut rhs = Matrix::zeros(s, s);
    let mut next = Matrix::zeros(s, s);
    for iteration in 1..=options.max_iterations {
        r_squared.gemm(1.0, &r, &r, 0.0).ok()?;
        rhs.copy_from(&q0).ok()?;
        rhs.gemm(1.0, &r_squared, &q2, 1.0).ok()?;
        rhs.scale_mut(-1.0);
        // next·Q1 = −(Q0 + R²·Q2)
        q1_lu.solve_right_matrix_into(&rhs, &mut next, &mut ws).ok()?;
        let diff = (&next - &r).max_abs();
        std::mem::swap(&mut r, &mut next);
        if diff < options.tolerance {
            return Some((r, iteration));
        }
    }
    None
}

fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
    SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
}

/// A genuinely mixed two-class fleet of `2·half` servers with exponential lifecycles
/// (small per-class phase spaces, so the product mode space stays `(half+1)²`).
fn mixed_fleet(half: usize, lambda: f64) -> SystemConfig {
    SystemConfig::heterogeneous(
        lambda,
        vec![
            ServerClass::new(half, 1.4, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap(),
            ServerClass::new(half, 0.8, ServerLifecycle::exponential(0.02, 0.5).unwrap()).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn reduction_and_fixed_point_agree_on_the_paper_model() {
    for (servers, lambda) in [(2usize, 1.0), (3, 2.0), (4, 3.3), (5, 2.5)] {
        let qbd = QbdMatrices::new(&paper_config(servers, lambda)).unwrap();
        let solver = MatrixGeometricSolver::default();
        let (lr, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
        let (fp, iterations) = rate_matrix_fixed_point(&qbd).unwrap();
        let diff = (&lr - &fp).max_abs();
        assert!(diff < 1e-10, "N={servers}, λ={lambda}: |R_lr − R_fp| = {diff}");
        assert!(
            depth <= iterations,
            "logarithmic reduction ({depth}) must not need more steps than \
             the fixed point ({iterations})"
        );
    }
}

#[test]
fn logarithmic_reduction_matches_fixed_point_iteration() {
    let qbd = QbdMatrices::new(&paper_config(3, 2.5)).unwrap();
    let (lr, depth) = MatrixGeometricSolver::default().rate_matrix_with_depth(&qbd).unwrap();
    let (fp, iterations) = rate_matrix_fixed_point(&qbd).unwrap();
    assert!(lr.approx_eq(&fp, 1e-10), "max diff {}", (&lr - &fp).max_abs());
    // The whole point: quadratic vs linear convergence.
    assert!(depth < 64, "reduction depth {depth}");
    assert!(iterations > depth, "fixed point took {iterations}, reduction {depth}");
}

#[test]
fn reduction_and_fixed_point_agree_on_mixed_fleets() {
    let qbd = QbdMatrices::new(&mixed_fleet(3, 4.0)).unwrap();
    let solver = MatrixGeometricSolver::default();
    let (lr, _) = solver.rate_matrix_with_depth(&qbd).unwrap();
    let (fp, _) = rate_matrix_fixed_point(&qbd).unwrap();
    assert!((&lr - &fp).max_abs() < 1e-10);
    // Both must satisfy the defining quadratic to solver accuracy.
    let residual = &(&qbd.q0() + &lr.matmul(&qbd.q1()).unwrap())
        + &lr.matmul(&lr).unwrap().matmul(&qbd.q2()).unwrap();
    assert!(residual.max_abs() < 1e-10, "residual {}", residual.max_abs());
}

#[test]
fn cross_solver_agreement_at_n24_heterogeneous() {
    // 24 servers in two classes: a 13×13 = 169-mode product space.  The point of the
    // kernel rewrite is that *both* exact solvers handle this comfortably and still
    // agree with each other.
    let config = mixed_fleet(12, 18.0);
    assert_eq!(config.servers(), 24);
    let mg = MatrixGeometricSolver::default().solve_detailed(&config).unwrap();
    let spectral = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
    let rel = (mg.mean_queue_length() - spectral.mean_queue_length()).abs()
        / spectral.mean_queue_length();
    assert!(rel < 1e-7, "mean queue length disagreement: {rel}");
    for level in 0..40 {
        assert!(
            (mg.level_probability(level) - spectral.level_probability(level)).abs() < 1e-8,
            "level {level}"
        );
    }
    // Observability: the reduction depth is reported and small (quadratic convergence).
    assert!(mg.reduction_depth() > 0 && mg.reduction_depth() < 64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On random stable homogeneous configurations the two R algorithms coincide and
    /// the reduction is never slower (in iteration count) than the fixed point.
    #[test]
    fn reduction_matches_fixed_point_on_random_configs(
        servers in 1usize..5,
        utilisation in 0.2_f64..0.9,
    ) {
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let lambda = utilisation * servers as f64 * lifecycle.availability();
        let config = SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap();
        let qbd = QbdMatrices::new(&config).unwrap();
        let solver = MatrixGeometricSolver::default();
        let (lr, depth) = solver.rate_matrix_with_depth(&qbd).unwrap();
        let (fp, iterations) = rate_matrix_fixed_point(&qbd).unwrap();
        prop_assert!((&lr - &fp).max_abs() < 1e-9);
        prop_assert!(depth <= iterations);
    }
}
