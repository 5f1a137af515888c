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

use std::sync::Arc;

use urs_linalg::Complex;

use crate::cache::{EigenEntry, SolverCache};
use crate::config::SystemConfig;
use crate::error::ModelError;
use crate::qbd::QbdMatrices;
use crate::solution::{QueueSolution, QueueSolver};
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
/// When the approximation is compared against the exact solution on the same grid
/// (Figures 8 and 9), attach the *same* [`SolverCache`] to both solvers with
/// [`with_cache`](Self::with_cache): the approximation then reuses the eigensystem
/// the spectral solver factorised for the identical `(skeleton, λ)` instead of
/// re-solving the quadratic eigenproblem.
#[derive(Debug, Clone)]
pub struct GeometricApproximation {
    /// Margin used to separate eigenvalues inside the unit disk from the one at 1.
    unit_disk_margin: f64,
    cache: Option<Arc<SolverCache>>,
}

impl Default for GeometricApproximation {
    fn default() -> Self {
        GeometricApproximation { unit_disk_margin: 1e-9, cache: None }
    }
}

impl GeometricApproximation {
    /// Creates the approximation with an explicit unit-disk classification margin.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when the margin is not positive and
    /// finite (mirroring the validation of
    /// [`SpectralOptions`](crate::SpectralOptions) keys — a non-positive margin would
    /// misclassify the eigenvalue at 1 as "inside the unit disk").
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

    /// The unit-disk classification margin in use.
    pub fn margin(&self) -> f64 {
        self.unit_disk_margin
    }

    /// Attaches a [`SolverCache`]; share it with a
    /// [`SpectralExpansionSolver`](crate::SpectralExpansionSolver) so the two solvers
    /// factorise each `(skeleton, λ)` eigenproblem once between them.
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
    /// [`ModelError::SpectralFailure`] if no admissible dominant eigenvalue is found.
    pub fn solve_detailed(&self, config: &SystemConfig) -> Result<GeometricSolution> {
        config.ensure_stable()?;
        let margin = self.unit_disk_margin;
        // A cached eigensystem answers outright: both producers store the dominant
        // eigenvector.  An entry without it is treated as a miss.
        if let Some(cache) = &self.cache {
            if let Some(entry) = cache.lookup_eigensystem(config, margin)? {
                let dominant = dominant_index(&entry.eigenvalues)?;
                if let Some(u) = &entry.eigenvectors[dominant] {
                    return assemble_solution(config, entry.eigenvalues[dominant], u);
                }
            }
        }
        let qbd = match &self.cache {
            Some(cache) => {
                QbdMatrices::with_skeleton(cache.skeleton(config)?, config.arrival_rate())
            }
            None => QbdMatrices::new(config)?,
        };
        let problem = urs_linalg::QuadraticEigenProblem::new(qbd.q0(), qbd.q1(), qbd.q2())?;
        let inside: Vec<Complex> =
            problem.eigenvalues_inside_unit_disk(margin)?.iter().map(|e| e.z).collect();
        let dominant = dominant_index(&inside)?;
        let u = problem.left_eigenvector(inside[dominant])?;
        // Publish the eigenvalues plus the dominant eigenvector so later solves
        // (either solver) can reuse them.
        if let Some(cache) = &self.cache {
            let eigenvectors = (0..inside.len())
                .map(|i| if i == dominant { Some(u.clone()) } else { None })
                .collect();
            cache.store_eigensystem(
                config,
                margin,
                EigenEntry { eigenvalues: inside.clone(), eigenvectors },
            )?;
        }
        assemble_solution(config, inside[dominant], &u)
    }
}

/// Index of the dominant admissible eigenvalue: the largest real positive one.
///
/// # Errors
///
/// Returns [`ModelError::SpectralFailure`] when no real positive eigenvalue exists.
fn dominant_index(eigenvalues: &[Complex]) -> Result<usize> {
    eigenvalues
        .iter()
        .enumerate()
        .filter(|(_, z)| z.im.abs() < 1e-8 && z.re > 0.0)
        .max_by(|(_, a), (_, b)| a.re.total_cmp(&b.re))
        .map(|(i, _)| i)
        .ok_or_else(|| {
            ModelError::SpectralFailure(
                "no real positive eigenvalue found inside the unit disk".into(),
            )
        })
}

/// Normalises the dominant left eigenvector into a probability vector over the modes
/// and assembles the geometric solution.
fn assemble_solution(
    config: &SystemConfig,
    dominant: Complex,
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
        decay_rate: dominant.re,
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
    use crate::config::ServerLifecycle;
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
        let config = paper_config(4, 3.0);
        let approx = GeometricApproximation::default().solve_detailed(&config).unwrap();
        let exact = SpectralExpansionSolver::default().solve_detailed(&config).unwrap();
        assert!((approx.decay_rate() - exact.dominant_eigenvalue()).abs() < 1e-8);
        assert!((dominant_eigenvalue(&config).unwrap() - approx.decay_rate()).abs() < 1e-12);
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
