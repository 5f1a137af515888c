//! The geometric (heavy-traffic) approximation (Section 3.2 of the paper).
//!
//! The exact spectral expansion keeps all `s` eigenvalues inside the unit disk.  The
//! approximation discards every term except the one belonging to the eigenvalue with
//! the largest modulus, `z_s` (always real and positive), yielding
//!
//! ```text
//! v_j ≈ u_s/(u_s·1) · (1 − z_s) · z_s^j ,    j = 0, 1, …
//! ```
//!
//! i.e. a geometric queue-length distribution that is *independent* of the operational
//! mode.  The approximation requires only one eigenvalue/eigenvector pair, is immune to
//! the ill-conditioning that affects the exact solution for large `N`, and is
//! asymptotically exact in heavy traffic (Mitrani 2005) — exactly the behaviour
//! reproduced in Figure 8.
//!
//! # Finding `z_s` alone
//!
//! For `z ∈ (0, 1)` the characteristic matrix `Q(z) = λI + z·Q1 + z²·C` is Metzler:
//! its off-diagonal entries `z·a_ik` are non-negative.  Its Perron root χ(z), the
//! real eigenvalue of largest real part, is Neuts' caudal characteristic (Neuts
//! 1981): χ(0) = λ > 0 and χ(1) = 0, and for a stable queue χ is positive on
//! `(0, z_s)` and negative on `(z_s, 1)`.  So `z_s` is the root of χ in `(0, 1)` and
//! `u_s` is the left Perron vector of `Q(z_s)`.
//!
//! The sign of χ needs no eigenvalue: χ(z) < 0 exactly when `−Q(z)` is a nonsingular
//! M-matrix, which holds exactly when every pivot of its unpivoted LU is positive
//! (Berman & Plemmons 1994).  That elimination creates no fill outside the band of
//! `Q1`, so the solver bisects on it at `O(s·b²)` per step, where `b` is the
//! bandwidth, and then extracts `u_s` by banded inverse iteration
//! ([`QuadraticEigenProblem::left_eigenvector`]).  The dense `2s × 2s` companion
//! eigensolve the spectral solver runs is never needed here.

use std::sync::Arc;

use urs_linalg::{BandedMatrix, Complex, Matrix, QuadraticEigenProblem};

use crate::cache::SolverCache;
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::qbd::QbdMatrices;
use crate::solution::{QueueSolution, QueueSolver};
use crate::spectral::SpectralOptions;
use crate::Result;

/// The geometric approximation solver.
///
/// # Example
///
/// ```
/// use urs_core::{GeometricApproximation, QueueSolver, ServerLifecycle, SystemConfig};
///
/// # fn main() -> Result<(), urs_core::ModelError> {
/// let config = SystemConfig::new(10, 9.5, 1.0, ServerLifecycle::paper_fitted()?)?;
/// let approx = GeometricApproximation::default().solve(&config)?;
/// assert!(approx.mean_queue_length() > 9.0);
/// # Ok(())
/// # }
/// ```
///
/// In a sweep, attach a [`SolverCache`] with [`with_cache`](Self::with_cache) so grid
/// points that differ only in the arrival rate share one QBD skeleton.  The
/// approximation neither reads nor stores eigensystems: it finds its one
/// eigenvalue without the spectral solver's eigensolve.
#[derive(Debug, Clone)]
pub struct GeometricApproximation {
    /// How close to 1 a decay rate may lie: the root is sought in `(0, 1 − margin]`.
    unit_disk_margin: f64,
    cache: Option<Arc<SolverCache>>,
}

impl Default for GeometricApproximation {
    fn default() -> Self {
        GeometricApproximation { unit_disk_margin: 1e-9, cache: None }
    }
}

impl GeometricApproximation {
    /// Creates the approximation with an explicit unit-disk margin: the decay rate is
    /// sought in `(0, 1 − margin]`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the margin is not positive and
    /// finite (mirroring the validation of
    /// [`SpectralOptions`](crate::SpectralOptions) keys — a non-positive margin would
    /// admit the root of `Q(z)` at 1 as a decay rate).
    pub fn with_margin(unit_disk_margin: f64) -> Result<Self> {
        if !(unit_disk_margin.is_finite() && unit_disk_margin > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "unit_disk_margin",
                value: unit_disk_margin,
                constraint: "must be finite and positive",
            });
        }
        Ok(GeometricApproximation { unit_disk_margin, cache: None })
    }

    /// The unit-disk margin in use.
    pub fn margin(&self) -> f64 {
        self.unit_disk_margin
    }

    /// Attaches a [`SolverCache`] whose QBD skeletons the solves share.
    pub fn with_cache(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// Solves the model, returning the concrete [`GeometricSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unstable`] for non-ergodic configurations and
    /// [`ModelError::SpectralFailure`] when no decay rate lies in `(0, 1 − margin]`
    /// or its eigenvector fails the residual check or is not a non-negative vector.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<GeometricSolution> {
        config.ensure_stable()?;
        let qbd = match &self.cache {
            Some(cache) => {
                QbdMatrices::with_skeleton(cache.skeleton(config)?, config.arrival_rate())
            }
            None => QbdMatrices::new(config)?,
        };
        let q1 = qbd.q1();
        let decay_rate = bisect_decay_rate(&qbd, &q1, self.unit_disk_margin)?;
        let scale = q1.max_abs().max(1.0);
        let problem = QuadraticEigenProblem::new(qbd.q0(), q1, qbd.q2())?;
        let z = Complex::from_real(decay_rate);
        let u = problem.left_eigenvector(z)?;
        let residual = problem.residual(z, &u)?;
        if residual > SpectralOptions::default().residual_tolerance * scale {
            return Err(ModelError::SpectralFailure(format!(
                "left eigenvector residual {residual:.3e} at z = {decay_rate} exceeds tolerance",
            )));
        }
        assemble_solution(config, decay_rate, &u)
    }
}

/// The decay rate `z_s`: the root in `(0, 1 − margin]` of the Perron root χ(z) of
/// `Q(z)`, by bisection on the sign of χ.  The bracket narrows until its ends are
/// adjacent floats; the upper end, the smallest point found with χ < 0, is returned.
///
/// # Errors
///
/// Returns [`ModelError::SpectralFailure`] when `−Q(1 − margin)` is not an M-matrix:
/// then no root lies in the bracket.
fn bisect_decay_rate(qbd: &QbdMatrices, q1: &Matrix, margin: f64) -> Result<f64> {
    let (kl, ku) = qbd.q1_bandwidths();
    let mut band = BandedMatrix::zeros(qbd.order(), kl, ku);
    let mut chi_negative = |z: f64| {
        fill_negated_characteristic(&mut band, q1, qbd.arrival_rate(), qbd.c(), z);
        band.eliminate_unpivoted()
    };
    let (mut lo, mut hi) = (0.0, 1.0 - margin);
    if hi <= lo || !chi_negative(hi) {
        return Err(ModelError::SpectralFailure(format!(
            "no decay rate in (0, {hi}]: −Q({hi}) is not an M-matrix"
        )));
    }
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return Ok(hi);
        }
        if chi_negative(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Writes `−Q(z) = −(λI + z·Q1 + z²·C)` into `band`, which has the bandwidths of
/// `Q1`; each entry uses the expression order of
/// [`QuadraticEigenProblem::evaluate`].
fn fill_negated_characteristic(
    band: &mut BandedMatrix,
    q1: &Matrix,
    arrival_rate: f64,
    c: &[f64],
    z: f64,
) {
    let (kl, ku) = (band.lower_bandwidth(), band.upper_bandwidth());
    let z2 = z * z;
    for (i, &c_i) in c.iter().enumerate() {
        let j0 = i.saturating_sub(kl);
        for (j, &q) in q1.row(i).iter().enumerate().skip(j0).take(i + ku + 1 - j0) {
            let value = if i == j { (arrival_rate + z * q) + z2 * c_i } else { z * q };
            band.set(i, j, -value);
        }
    }
}

/// Normalises the dominant left eigenvector into a probability vector over the modes
/// and assembles the geometric solution.
fn assemble_solution(
    config: &SystemConfig,
    decay_rate: f64,
    u: &[Complex],
) -> Result<GeometricSolution> {
    // The eigenvector of a real eigenvalue can be taken real; normalise it to a
    // probability vector over the modes.
    let mut real_u: Vec<f64> = u.iter().map(|c| c.re).collect();
    let sum: f64 = real_u.iter().sum();
    if sum.abs() < 1e-300 {
        return Err(ModelError::SpectralFailure(
            "dominant eigenvector has vanishing component sum".into(),
        ));
    }
    for value in &mut real_u {
        *value /= sum;
    }
    // The stationary mode distribution is non-negative; flip sign conventions if
    // necessary and reject genuinely mixed-sign vectors.
    if real_u.iter().any(|p| *p < -1e-8) {
        return Err(ModelError::SpectralFailure(
            "dominant eigenvector is not a non-negative vector".into(),
        ));
    }
    for value in &mut real_u {
        *value = value.max(0.0);
    }
    Ok(GeometricSolution {
        arrival_rate: config.arrival_rate(),
        decay_rate,
        mode_distribution: real_u,
    })
}

impl QueueSolver for GeometricApproximation {
    fn name(&self) -> &'static str {
        "geometric approximation"
    }

    fn solve(&self, config: &SystemConfig) -> Result<Box<dyn QueueSolution>> {
        Ok(Box::new(self.solve_detailed(config)?))
    }
}

/// The approximate solution: a geometric queue-length distribution with decay rate
/// `z_s`, independent of the operational mode.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricSolution {
    arrival_rate: f64,
    decay_rate: f64,
    mode_distribution: Vec<f64>,
}

impl GeometricSolution {
    /// The dominant eigenvalue `z_s` (the geometric decay rate of the queue length).
    pub fn decay_rate(&self) -> f64 {
        self.decay_rate
    }
}

impl QueueSolution for GeometricSolution {
    fn mode_count(&self) -> usize {
        self.mode_distribution.len()
    }

    fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    fn state_probability(&self, mode: usize, level: usize) -> f64 {
        if mode >= self.mode_distribution.len() {
            return 0.0;
        }
        self.mode_distribution[mode] * (1.0 - self.decay_rate) * self.decay_rate.powi(level as i32)
    }

    fn level_probability(&self, level: usize) -> f64 {
        (1.0 - self.decay_rate) * self.decay_rate.powi(level as i32)
    }

    fn mode_marginal(&self) -> Vec<f64> {
        self.mode_distribution.clone()
    }

    fn mean_queue_length(&self) -> f64 {
        self.decay_rate / (1.0 - self.decay_rate)
    }

    fn tail_probability(&self, level: usize) -> f64 {
        self.decay_rate.powi(level as i32 + 1)
    }
}

/// Convenience: the dominant eigenvalue used by the approximation, exposed for
/// diagnostics and the Figure 8 experiment without building the full solution object.
///
/// # Errors
///
/// Same conditions as [`GeometricApproximation::solve_detailed`].
pub fn dominant_eigenvalue(config: &SystemConfig) -> Result<f64> {
    Ok(GeometricApproximation::default().solve_detailed(config)?.decay_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServerClass, ServerLifecycle};
    use crate::solution::consistency_violations;
    use crate::spectral::SpectralExpansionSolver;

    fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
        SystemConfig::new(servers, lambda, 1.0, ServerLifecycle::paper_fitted().unwrap()).unwrap()
    }

    #[test]
    fn approximation_is_a_valid_distribution() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(5, 4.0)).unwrap();
        let violations = consistency_violations(&solution, 50, 1e-9);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(solution.decay_rate() > 0.0 && solution.decay_rate() < 1.0);
    }

    #[test]
    fn decay_rate_matches_exact_dominant_eigenvalue() {
        // The bisected root against the spectral solver's companion-QR eigenvalue,
        // over N = 1 (three modes) to 16, light to heavy load, and two fleets.
        let lifecycle = ServerLifecycle::paper_fitted().unwrap();
        let fleet = |fast: usize, slow: usize| {
            SystemConfig::heterogeneous(
                1.0,
                vec![
                    ServerClass::new(fast, 1.5, lifecycle.clone()).unwrap(),
                    ServerClass::new(slow, 1.0, ServerLifecycle::exponential(0.05, 1.0).unwrap())
                        .unwrap(),
                ],
            )
            .unwrap()
        };
        let mut bases: Vec<SystemConfig> =
            [1, 2, 3, 4, 8, 12, 16].iter().map(|&n| paper_config(n, 0.5)).collect();
        bases.push(fleet(8, 4));
        bases.push(fleet(4, 2));
        for base in &bases {
            for rho in [0.5, 0.9, 0.99] {
                let config = base.with_arrival_rate(rho * base.effective_capacity()).unwrap();
                let approx = GeometricApproximation::default().solve_detailed(&config).unwrap();
                let exact = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
                let gap = (approx.decay_rate() - exact.dominant_eigenvalue()).abs();
                assert!(gap <= 1e-10, "N = {}, rho = {rho}: gap {gap:.3e}", config.servers());
                assert_eq!(dominant_eigenvalue(&config).unwrap(), approx.decay_rate());
            }
        }
    }

    #[test]
    fn margin_that_excludes_the_decay_rate_is_a_spectral_failure() {
        // z_s ≈ 0.9 here, so no root lies in (0, 0.5]; a margin of 1 leaves no
        // bracket at all.
        let config = paper_config(4, 0.9 * paper_config(4, 1.0).effective_capacity());
        let z = GeometricApproximation::default().solve_detailed(&config).unwrap().decay_rate();
        assert!(z > 0.5, "decay rate {z}");
        for margin in [0.5, 1.0, 3.0] {
            let approx = GeometricApproximation::with_margin(margin).unwrap();
            assert!(
                matches!(approx.solve_detailed(&config), Err(ModelError::SpectralFailure(_))),
                "margin {margin}"
            );
        }
        // A margin just inside the decay rate still finds it, bit for bit.
        let near = GeometricApproximation::with_margin(0.99 * (1.0 - z)).unwrap();
        assert_eq!(near.solve_detailed(&config).unwrap().decay_rate().to_bits(), z.to_bits());
    }

    #[test]
    fn approximation_improves_with_load() {
        // Relative error of L should shrink as the load grows (Figure 8's message).
        // The paper's Figure 8 shows a visible gap at ρ ≈ 0.9 that closes only as the
        // load approaches saturation, so the final error bound is deliberately loose.
        let mut previous_error = f64::INFINITY;
        for &lambda in &[6.0, 8.0, 9.3, 9.8, 9.95] {
            let config = paper_config(10, lambda);
            let exact = SpectralExpansionSolver::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let approx = GeometricApproximation::default()
                .solve_detailed(&config)
                .unwrap()
                .mean_queue_length();
            let rel_error = (approx - exact).abs() / exact;
            assert!(
                rel_error < previous_error + 1e-9,
                "relative error should not grow with load: {rel_error} after {previous_error}"
            );
            previous_error = rel_error;
        }
        assert!(previous_error < 0.05, "heavy-traffic error should be small: {previous_error}");
    }

    #[test]
    fn unstable_configuration_is_rejected() {
        let config = paper_config(3, 5.0);
        assert!(matches!(
            GeometricApproximation::default().solve_detailed(&config),
            Err(ModelError::Unstable { .. })
        ));
    }

    #[test]
    fn mode_marginal_is_a_probability_vector() {
        let solution =
            GeometricApproximation::default().solve_detailed(&paper_config(6, 5.0)).unwrap();
        let marginal = solution.mode_marginal();
        assert!((marginal.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(marginal.iter().all(|p| *p >= 0.0));
    }
}
