//! Golden-bits gate for the numerical kernels and the solvers built on them.
//!
//! Every kernel of `urs-linalg` promises results that depend only on its inputs:
//! not on the thread count, not on how rows are grouped, not on which storage
//! (dense, banded, packed diagonal) carries the operand.  This suite pins those
//! results to recorded values.  Fixed-seed LCG inputs run through gemm (serial
//! and pooled), LU factorisation, the left, matrix and right solves, the
//! determinant, the banded matvec/gemm/LU/solves, the block-tridiagonal solve
//! (real and complex wherever both exist) and full spectral, matrix-geometric,
//! approximation and response-time solves at small `N`, plus spectral solves at
//! the solve ladder's sizes.  The `f64::to_bits` of every output is folded into
//! an FNV-1a digest per group and compared with the constant recorded below.
//!
//! A mismatch means some output changed in at least one bit.  The suite runs in
//! CI under `URS_THREADS=1` and `URS_THREADS=4` (the pooled variants also use
//! `ThreadPool::default()`, which reads that variable).

use urs_core::{
    GeometricApproximation, MatrixGeometricSolver, QueueSolution, QueueSolver, ResponseAnalysis,
    ServerClass, ServerLifecycle, SpectralExpansionSolver, SystemConfig, ThreadPool,
};
use urs_dist::HyperExponential;
use urs_linalg::{
    BandedLu, BandedMatrix, BlockTridiagonal, CBandedLu, CBandedMatrix, CMatrix, CluDecomposition,
    Complex, LuDecomposition, Matrix, RealBlockTridiagonal, Workspace,
};

/// 64-bit FNV-1a over the bit patterns of every value fed in.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn c(&mut self, z: Complex) {
        self.f(z.re);
        self.f(z.im);
    }

    fn reals(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.f(x);
        }
    }

    fn complexes(&mut self, zs: &[Complex]) {
        self.word(zs.len() as u64);
        for &z in zs {
            self.c(z);
        }
    }
}

/// Deterministic uniform(-0.5, 0.5) stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    /// A value that is an exact zero with probability about `zero_share`.
    fn sparse(&mut self, zero_share: f64) -> f64 {
        let gate = self.next() + 0.5;
        let v = self.next();
        if gate < zero_share {
            0.0
        } else {
            v
        }
    }

    fn complex(&mut self) -> Complex {
        Complex::new(self.next(), self.next())
    }

    fn sparse_complex(&mut self, zero_share: f64) -> Complex {
        let gate = self.next() + 0.5;
        let z = self.complex();
        if gate < zero_share {
            Complex::ZERO
        } else {
            z
        }
    }
}

fn pools() -> [ThreadPool; 3] {
    [ThreadPool::serial(), ThreadPool::new(4), ThreadPool::default()]
}

fn check(group: &str, digest: &Digest, expected: u64) {
    assert_eq!(
        digest.0, expected,
        "golden digest of `{group}` changed: got {:#018x}, recorded {expected:#018x}",
        digest.0
    );
}

fn real_square(rng: &mut Lcg, n: usize, zero_share: f64, diag: f64) -> Matrix {
    let mut a = Matrix::from_fn(n, n, |_, _| rng.sparse(zero_share));
    for i in 0..n {
        a[(i, i)] += diag;
    }
    a
}

fn complex_square(rng: &mut Lcg, n: usize, zero_share: f64, diag: f64) -> CMatrix {
    let mut a = CMatrix::from_fn(n, n, |_, _| rng.sparse_complex(zero_share));
    for i in 0..n {
        a[(i, i)] += Complex::from_real(diag);
    }
    a
}

#[test]
fn real_gemm_bits() {
    let mut rng = Lcg(101);
    let mut d = Digest::new();
    // Sparse and fully dense left operands, shapes that cross the k/j tiles and
    // leave a row remainder after grouping by four.
    for &(m, k, n, zero_share) in &[(37, 70, 300, 0.3), (42, 131, 77, 0.0), (5, 3, 2, 0.5)] {
        let a = Matrix::from_fn(m, k, |_, _| rng.sparse(zero_share));
        let b = Matrix::from_fn(k, n, |_, _| rng.next());
        let c0 = Matrix::from_fn(m, n, |_, _| rng.next());
        for &(alpha, beta) in &[(1.5, 0.5), (1.0, 0.0), (-1.0, 1.0)] {
            for pool in pools() {
                let mut c = c0.clone();
                c.gemm_with(alpha, &a, &b, beta, &pool).unwrap();
                d.reals(c.as_slice());
            }
            let mut c = c0.clone();
            c.gemm(alpha, &a, &b, beta).unwrap();
            d.reals(c.as_slice());
        }
        d.reals(a.matmul(&b).unwrap().as_slice());
        let v: Vec<f64> = (0..k).map(|_| rng.sparse(0.2)).collect();
        d.reals(&a.matvec(&v).unwrap());
        let u: Vec<f64> = (0..m).map(|_| rng.sparse(0.2)).collect();
        d.reals(&a.vecmat(&u).unwrap());
    }
    check("real gemm", &d, 0xe4f3_68af_07e6_11a6);
}

#[test]
fn complex_gemm_bits() {
    let mut rng = Lcg(202);
    let mut d = Digest::new();
    for &(m, k, n, zero_share) in &[(29, 45, 140, 0.3), (21, 40, 33, 0.0), (3, 2, 5, 0.5)] {
        let a = CMatrix::from_fn(m, k, |_, _| rng.sparse_complex(zero_share));
        let b = CMatrix::from_fn(k, n, |_, _| rng.complex());
        let c0 = CMatrix::from_fn(m, n, |_, _| rng.complex());
        let coefficients = [
            (Complex::new(1.5, -0.25), Complex::new(0.5, 0.5)),
            (Complex::ONE, Complex::ZERO),
            (Complex::from_real(-1.0), Complex::ONE),
        ];
        for &(alpha, beta) in &coefficients {
            for pool in pools() {
                let mut c = c0.clone();
                c.gemm_with(alpha, &a, &b, beta, &pool).unwrap();
                d.complexes(c.as_slice());
            }
            let mut c = c0.clone();
            c.gemm(alpha, &a, &b, beta).unwrap();
            d.complexes(c.as_slice());
        }
        d.complexes(a.matmul(&b).unwrap().as_slice());
        let v: Vec<Complex> = (0..k).map(|_| rng.sparse_complex(0.2)).collect();
        d.complexes(&a.matvec(&v).unwrap());
        let u: Vec<Complex> = (0..m).map(|_| rng.sparse_complex(0.2)).collect();
        d.complexes(&a.vecmat(&u).unwrap());
    }
    check("complex gemm", &d, 0x7e50_2f3d_9f57_bcaa);
}

#[test]
fn real_lu_and_solves_bits() {
    let mut rng = Lcg(303);
    let mut d = Digest::new();
    let mut ws = Workspace::new();
    // Dense, sparse (exact-zero skips) and multi-panel sizes.
    for &(n, zero_share) in &[(61, 0.0), (61, 0.6), (100, 0.3), (7, 0.2)] {
        let a = real_square(&mut rng, n, zero_share, 2.0);
        for pool in pools() {
            let lu = LuDecomposition::from_matrix_with(a.clone(), &pool).unwrap();
            d.f(lu.determinant());
            d.reals(lu.into_matrix().as_slice());
        }
        let lu = LuDecomposition::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.sparse(0.1)).collect();
        d.reals(&lu.solve(&b).unwrap());
        let rhs = Matrix::from_fn(n, 5, |_, _| rng.sparse(0.3));
        d.reals(lu.solve_matrix(&rhs).unwrap().as_slice());
        let mut out = Matrix::zeros(n, 5);
        lu.solve_matrix_into(&rhs, &mut out).unwrap();
        d.reals(out.as_slice());
        // Nine right-hand rows: two groups of four plus a remainder row.
        let brow = Matrix::from_fn(9, n, |_, _| rng.sparse(0.3));
        for pool in pools() {
            let mut x = Matrix::zeros(9, n);
            lu.solve_right_matrix_into_with(&brow, &mut x, &mut ws, &pool).unwrap();
            d.reals(x.as_slice());
        }
        let mut x = Matrix::zeros(9, n);
        lu.solve_right_matrix_into(&brow, &mut x, &mut ws).unwrap();
        d.reals(x.as_slice());
        let diag: Vec<f64> = (0..n).map(|_| rng.sparse(0.2)).collect();
        for pool in pools() {
            let mut x = Matrix::zeros(n, n);
            lu.solve_right_diagonal_into_with(&diag, &mut x, &mut ws, &pool).unwrap();
            d.reals(x.as_slice());
        }
        d.reals(a.inverse().unwrap().as_slice());
        d.reals(&a.solve_left(&b).unwrap());
        d.f(a.determinant().unwrap());
    }
    // A singular matrix: tolerant factor and zero determinant.
    let mut s = real_square(&mut rng, 12, 0.0, 1.0);
    for i in 0..12 {
        s[(i, 5)] = 0.0;
    }
    let lu = LuDecomposition::new_allow_singular(&s).unwrap();
    d.word(u64::from(lu.is_singular()));
    d.f(lu.determinant());
    d.reals(lu.into_matrix().as_slice());
    d.f(s.determinant().unwrap());
    check("real lu", &d, 0xab4a_fc2f_4f19_b24f);
}

#[test]
fn complex_lu_and_solves_bits() {
    let mut rng = Lcg(404);
    let mut d = Digest::new();
    let mut ws = Workspace::new();
    for &(n, zero_share) in &[(53, 0.0), (53, 0.6), (30, 0.3), (6, 0.2)] {
        let a = complex_square(&mut rng, n, zero_share, 2.0);
        for pool in pools() {
            let lu = CluDecomposition::from_matrix_with(a.clone(), &pool).unwrap();
            d.f(lu.smallest_pivot());
            d.c(lu.determinant());
            d.complexes(lu.into_matrix().as_slice());
        }
        let lu = CluDecomposition::new(&a).unwrap();
        let b: Vec<Complex> = (0..n).map(|_| rng.sparse_complex(0.1)).collect();
        d.complexes(&lu.solve(&b).unwrap());
        let rhs = CMatrix::from_fn(n, 5, |_, _| rng.sparse_complex(0.3));
        let mut out = CMatrix::zeros(n, 5);
        lu.solve_matrix_into(&rhs, &mut out).unwrap();
        d.complexes(out.as_slice());
        let brow = CMatrix::from_fn(9, n, |_, _| rng.sparse_complex(0.3));
        for pool in pools() {
            let mut x = CMatrix::zeros(9, n);
            lu.solve_right_matrix_into_with(&brow, &mut x, &mut ws, &pool).unwrap();
            d.complexes(x.as_slice());
        }
        let mut x = CMatrix::zeros(9, n);
        lu.solve_right_matrix_into(&brow, &mut x, &mut ws).unwrap();
        d.complexes(x.as_slice());
        d.c(a.determinant().unwrap());
    }
    // Null vectors of a rank-deficient matrix: row 3 = row 0 + 2·row 1.
    let mut s = complex_square(&mut rng, 8, 0.0, 1.0);
    for j in 0..8 {
        s[(3, j)] = s[(0, j)] + s[(1, j)] * 2.0;
    }
    let lu = CluDecomposition::new_allow_singular(&s).unwrap();
    d.f(lu.smallest_pivot());
    d.complexes(&lu.null_vector().unwrap());
    d.complexes(&lu.left_null_vector().unwrap());
    check("complex lu", &d, 0x4abd_04f7_89fa_e54e);
}

#[test]
fn banded_kernels_bits() {
    let mut rng = Lcg(505);
    let mut d = Digest::new();
    for &(n, kl, ku, diag) in &[(40, 3, 5, 4.0), (33, 6, 2, 1e-3), (9, 0, 3, 2.0)] {
        let a = BandedMatrix::from_fn(n, kl, ku, |i, j| {
            let v = rng.sparse(0.2);
            if i == j {
                v + diag
            } else {
                v
            }
        });
        let v: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        let mut y = vec![0.0; n];
        a.matvec_into(&v, &mut y).unwrap();
        d.reals(&y);
        let b = Matrix::from_fn(n, 7, |_, _| rng.next());
        let mut c = Matrix::from_fn(n, 7, |_, _| rng.next());
        a.gemm_into(1.5, &b, 0.5, &mut c).unwrap();
        d.reals(c.as_slice());
        let lu = BandedLu::new(&a).unwrap();
        d.f(lu.determinant());
        let rhs: Vec<f64> = (0..n).map(|_| rng.next()).collect();
        d.reals(&lu.solve(&rhs).unwrap());
        let bm = Matrix::from_fn(n, 4, |_, _| rng.sparse(0.2));
        let mut out = Matrix::zeros(n, 4);
        lu.solve_matrix_into(&bm, &mut out).unwrap();
        d.reals(out.as_slice());
    }
    for &(n, kl, ku, diag) in &[(40, 4, 2, 4.0), (31, 2, 6, 1e-3), (8, 3, 0, 2.0)] {
        let a = CBandedMatrix::from_fn(n, kl, ku, |i, j| {
            let z = rng.sparse_complex(0.2);
            if i == j {
                z + Complex::from_real(diag)
            } else {
                z
            }
        });
        let v: Vec<Complex> = (0..n).map(|_| rng.complex()).collect();
        let mut y = vec![Complex::ZERO; n];
        a.matvec_into(&v, &mut y).unwrap();
        d.complexes(&y);
        let lu = CBandedLu::new(&a).unwrap();
        d.f(lu.smallest_pivot());
        d.c(lu.determinant());
        let rhs: Vec<Complex> = (0..n).map(|_| rng.complex()).collect();
        let mut x = vec![Complex::ZERO; n];
        lu.solve_into(&rhs, &mut x).unwrap();
        d.complexes(&x);
        lu.solve_regularized_into(&rhs, &mut x, 1e-2).unwrap();
        d.complexes(&x);
    }
    check("banded", &d, 0xb72b_5a32_b73f_e749);
}

#[test]
fn block_tridiagonal_bits() {
    let mut rng = Lcg(606);
    let mut d = Digest::new();
    let (k, s) = (7, 6);
    // Complex system: dense lower blocks, alternating diagonal and dense uppers.
    let mut sys = BlockTridiagonal::new(k, s).unwrap();
    for i in 0..k {
        sys.set_diagonal(i, complex_square(&mut rng, s, 0.2, 6.0)).unwrap();
        if i > 0 {
            sys.set_lower(i, CMatrix::from_fn(s, s, |_, _| rng.sparse_complex(0.3))).unwrap();
        }
        if i + 1 < k {
            let upper = if i % 2 == 0 {
                let mut u = CMatrix::zeros(s, s);
                for r in 0..s {
                    u[(r, r)] = rng.complex();
                }
                u
            } else {
                CMatrix::from_fn(s, s, |_, _| rng.sparse_complex(0.3))
            };
            sys.set_upper(i, upper).unwrap();
        }
        sys.set_rhs(i, (0..s).map(|_| rng.sparse_complex(0.2)).collect()).unwrap();
    }
    for x in sys.solve().unwrap() {
        d.complexes(&x);
    }
    for pool in pools() {
        for x in sys.solve_with(&pool).unwrap() {
            d.complexes(&x);
        }
    }
    for x in sys.solve_dense().unwrap() {
        d.complexes(&x);
    }
    // Real system: dense and packed-diagonal couplings side by side.
    let mut real = RealBlockTridiagonal::new(k, s).unwrap();
    for i in 0..k {
        real.set_diagonal(i, real_square(&mut rng, s, 0.2, 6.0)).unwrap();
        if i > 0 {
            if i % 2 == 0 {
                real.set_lower_diagonal(i, (0..s).map(|_| rng.next()).collect()).unwrap();
            } else {
                real.set_lower(i, Matrix::from_fn(s, s, |_, _| rng.sparse(0.3))).unwrap();
            }
        }
        if i + 1 < k {
            match i % 3 {
                0 => real.set_upper_diagonal(i, (0..s).map(|_| rng.next()).collect()).unwrap(),
                1 => {
                    let diag: Vec<f64> = (0..s).map(|_| rng.next()).collect();
                    real.set_upper(i, Matrix::from_diagonal(&diag)).unwrap();
                }
                _ => real.set_upper(i, Matrix::from_fn(s, s, |_, _| rng.sparse(0.3))).unwrap(),
            }
        }
        real.set_rhs(i, (0..s).map(|_| rng.sparse(0.2)).collect()).unwrap();
    }
    for x in real.solve().unwrap() {
        d.reals(&x);
    }
    for pool in pools() {
        for x in real.solve_with(&pool).unwrap() {
            d.reals(&x);
        }
    }
    for x in real.solve_dense().unwrap() {
        d.reals(&x);
    }
    check("block tridiagonal", &d, 0x8718_cb5b_155a_5296);
}

fn paper_config(servers: usize, lambda: f64) -> SystemConfig {
    let operative = HyperExponential::with_mean_and_scv(34.62, 4.6).unwrap();
    let lifecycle = ServerLifecycle::with_exponential_repair(operative, 25.0).unwrap();
    SystemConfig::new(servers, lambda, 1.0, lifecycle).unwrap()
}

fn solution_bits(d: &mut Digest, solution: &dyn QueueSolution, levels: usize) {
    d.word(solution.mode_count() as u64);
    d.f(solution.mean_queue_length());
    d.reals(&solution.mode_marginal());
    for level in 0..levels {
        for mode in 0..solution.mode_count() {
            d.f(solution.state_probability(mode, level));
        }
        d.f(solution.tail_probability(level));
    }
}

#[test]
fn solver_bits_at_n8() {
    let config = paper_config(8, 7.2);
    let mut d = Digest::new();
    for pool in pools() {
        let spectral = SpectralExpansionSolver::default().with_pool(pool.clone());
        solution_bits(&mut d, spectral.solve(&config).unwrap().as_ref(), 14);
        let mg = MatrixGeometricSolver::default().with_pool(pool);
        let detailed = mg.solve_detailed(&config).unwrap();
        d.reals(detailed.rate_matrix().as_slice());
        solution_bits(&mut d, &detailed, 14);
    }
    check("solvers at N = 8", &d, 0xe447_a0e2_59ce_6a43);
}

#[test]
fn response_time_bits() {
    let config = paper_config(4, 3.2);
    let analysis = ResponseAnalysis::new(&config).unwrap();
    let mut d = Digest::new();
    d.f(analysis.mean_response_time());
    for &s in &[Complex::new(0.5, 0.0), Complex::new(0.3, 2.0), Complex::new(1.0, -7.5)] {
        d.c(analysis.lst(s).unwrap());
    }
    d.reals(&analysis.response_time_percentiles(&[0.5, 0.95]).unwrap());
    check("response time at N = 4", &d, 0xa572_1a99_4aea_787d);
}

/// The small configurations of the boundary edge cases: `N = 1, 2, 3` and a
/// 4 + 2 two-class fleet.
fn edge_configs() -> [SystemConfig; 4] {
    let fleet = SystemConfig::heterogeneous(
        5.5,
        vec![
            ServerClass::new(4, 1.0, paper_config(1, 0.5).lifecycle().clone()).unwrap(),
            ServerClass::new(2, 1.5, ServerLifecycle::exponential(0.05, 1.0).unwrap()).unwrap(),
        ],
    )
    .unwrap();
    [paper_config(1, 0.8), paper_config(2, 1.6), paper_config(3, 2.5), fleet]
}

/// The boundary system's edge cases: at `N = 1` the level-0 pin row is also the
/// row that couples to the expansion coefficients, and at `N = 2, 3` the first
/// and last boundary rows are adjacent.  A 4 + 2 two-class fleet covers the
/// class-aware departure matrices.
#[test]
fn boundary_edge_bits() {
    let configs = edge_configs();
    let mut d = Digest::new();
    for config in &configs {
        for pool in [ThreadPool::serial(), ThreadPool::default()] {
            let spectral = SpectralExpansionSolver::default().with_pool(pool.clone());
            solution_bits(&mut d, spectral.solve(config).unwrap().as_ref(), 8);
            let mg = MatrixGeometricSolver::default().with_pool(pool);
            let detailed = mg.solve_detailed(config).unwrap();
            d.reals(detailed.rate_matrix().as_slice());
            solution_bits(&mut d, &detailed, 8);
        }
    }
    for config in &configs[..2] {
        let analysis = ResponseAnalysis::new(config).unwrap();
        d.f(analysis.mean_response_time());
        for &s in &[Complex::new(0.5, 0.0), Complex::new(0.3, 2.0)] {
            d.c(analysis.lst(s).unwrap());
        }
        d.reals(&analysis.response_time_percentiles(&[0.5, 0.95]).unwrap());
    }
    check("boundary edge cases", &d, 0x70d7_6631_e3e9_a73f);
}

/// The geometric approximation on the configurations of the two tests above:
/// the `N = 8` configuration and the boundary edge cases.
#[test]
fn approximation_bits() {
    let approx = GeometricApproximation::default();
    let mut d = Digest::new();
    solution_bits(&mut d, approx.solve(&paper_config(8, 7.2)).unwrap().as_ref(), 14);
    for config in &edge_configs() {
        solution_bits(&mut d, approx.solve(config).unwrap().as_ref(), 8);
    }
    check("approximation", &d, 0x7aa2_3db2_aab2_a440);
}

/// The fitted lifecycle of Figures 5, 8 and 9 (H2 operative periods, repairs
/// at rate 25).
fn figure5_lifecycle() -> ServerLifecycle {
    let operative = HyperExponential::new(&[0.7246, 0.2754], &[0.1663, 0.0091]).unwrap();
    ServerLifecycle::with_exponential_repair(operative, 25.0).unwrap()
}

/// `classes` at utilisation 0.9 of their effective capacity.
fn at_utilisation_0_9(classes: Vec<ServerClass>) -> SystemConfig {
    let capacity = SystemConfig::heterogeneous(1.0, classes.clone()).unwrap().effective_capacity();
    SystemConfig::heterogeneous(0.9 * capacity, classes).unwrap()
}

/// The spectral solver at the sizes of the solve ladder: `N = 16` and an 8 + 4
/// mixed fleet at utilisation 0.9.  Their boundary systems have 17 and 13 block
/// rows of 153 and 225 modes, far past the small configurations above.
#[test]
fn spectral_bits_at_ladder_sizes() {
    let fleet = vec![
        ServerClass::new(8, 1.0, figure5_lifecycle()).unwrap(),
        ServerClass::new(4, 1.5, ServerLifecycle::exponential(0.1, 2.0).unwrap()).unwrap(),
    ];
    let configs = [
        at_utilisation_0_9(vec![ServerClass::new(16, 1.0, figure5_lifecycle()).unwrap()]),
        at_utilisation_0_9(fleet),
    ];
    let mut d = Digest::new();
    for config in &configs {
        for pool in [ThreadPool::serial(), ThreadPool::default()] {
            let spectral = SpectralExpansionSolver::default().with_pool(pool);
            let solution = spectral.solve_detailed(config).unwrap();
            d.f(solution.mean_queue_length());
            for level in solution.boundary_levels() {
                d.reals(level);
            }
            for level in 0..60 {
                d.f(solution.tail_probability(level));
            }
        }
    }
    check("spectral at ladder sizes", &d, 0x9786_9d76_04fa_31f9);
}
