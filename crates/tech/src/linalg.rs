//! Tiny dense linear-algebra helpers for the curve fitters and the
//! thermal solvers.
//!
//! These routines are intentionally minimal: the technology models only
//! ever solve small (≤ 8×8) systems arising from least-squares normal
//! equations, and every thermal RC network the chip model solves is one
//! 12-node core tile (ten EV6 blocks, the spreader and the sink).
//!
//! The workhorse is [`LuFactorization`]: an LU decomposition with partial
//! pivoting that is computed once (O(n³)) and then reused for any number
//! of right-hand sides (O(n²) each). The thermal fixpoint and transient
//! solvers exploit this heavily — their conductance matrices never change
//! between iterations, only the right-hand side does.
//!
//! Failures are values, not panics: a dimension mismatch or a numerically
//! singular matrix comes back as a typed [`LinalgError`], so callers that
//! feed these routines generated or user-supplied systems (the property
//! harness in `tlp-check` does both) can diagnose instead of unwinding.

use core::fmt;

/// Relative pivot tolerance: a pivot whose magnitude falls below
/// `PIVOT_RTOL × max|aᵢⱼ|` declares the matrix numerically singular.
///
/// An exact-zero (or absolute `1e-30`) test lets near-singular systems
/// through and produces garbage solutions whose components are scaled by
/// `1/pivot`; scaling the threshold by the matrix magnitude makes the
/// test meaningful for both the O(1)-conductance thermal matrices and the
/// O(10⁶)-entry normal equations of the curve fitters.
const PIVOT_RTOL: f64 = 1e-12;

/// Errors from the dense solvers and fitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// An input slice has the wrong length for the declared dimensions.
    ShapeMismatch {
        /// Which input was malformed (`"matrix"`, `"rhs"`, ...).
        what: &'static str,
        /// The length the declared dimensions demand.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// The matrix is numerically singular: some pivot, after partial
    /// pivoting, fell below `1e-12 × max|aᵢⱼ|`.
    Singular {
        /// Dimension of the offending system.
        n: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} has length {got}, expected {expected} for the declared dimensions"
            ),
            LinalgError::Singular { n } => {
                write!(f, "{n}×{n} matrix is numerically singular")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// An LU decomposition with partial pivoting of a small dense matrix.
///
/// Factor once with [`LuFactorization::factor`] (O(n³)), then call
/// [`LuFactorization::solve`] for each right-hand side (O(n²)). The
/// thermal steady-state and implicit-Euler transient solvers keep one of
/// these per conductance matrix and amortize the factorization over every
/// fixpoint iteration and time step.
///
/// # Examples
///
/// ```
/// use tlp_tech::linalg::LuFactorization;
///
/// let a = vec![2.0, 1.0, 1.0, 3.0];
/// let lu = LuFactorization::factor(2, &a).unwrap();
/// let x = lu.solve(&[3.0, 5.0]);
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// let y = lu.solve(&[1.0, 0.0]); // second solve reuses the factorization
/// assert!((2.0 * y[0] + y[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LuFactorization {
    n: usize,
    /// Packed factors, row-major: strictly-lower entries hold L (unit
    /// diagonal implied), the diagonal and above hold U.
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

impl LuFactorization {
    /// Factors the row-major `n×n` matrix `a`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] if `a.len() != n*n` or `n == 0`.
    /// - [`LinalgError::Singular`] if some pivot, after partial pivoting,
    ///   has magnitude below `1e-12` times the largest entry of `a`.
    pub fn factor(n: usize, a: &[f64]) -> Result<Self, LinalgError> {
        if n == 0 || a.len() != n * n {
            return Err(LinalgError::ShapeMismatch {
                what: "matrix",
                expected: n * n,
                got: a.len(),
            });
        }
        let mut lu = a.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        // Scale for the relative pivot test: the largest finite magnitude
        // in the input. An all-zero (or all-NaN) matrix gets scale 0 and
        // fails the first pivot test.
        let scale = lu
            .iter()
            .map(|x| x.abs())
            .filter(|x| x.is_finite())
            .fold(0.0, f64::max);
        let threshold = PIVOT_RTOL * scale;

        // NaN-safe pivot magnitude: a NaN ranks below every finite value
        // (plain total_cmp would rank positive NaN above +∞ and elect a
        // poisoned row even when finite pivots exist).
        let mag = |x: f64| {
            let a = x.abs();
            if a.is_nan() {
                f64::NEG_INFINITY
            } else {
                a
            }
        };

        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&i, &j| mag(lu[i * n + col]).total_cmp(&mag(lu[j * n + col])))
                .expect("non-empty pivot candidates");
            let pivot_abs = lu[pivot_row * n + col].abs();
            // NaN fails is_finite, so a poisoned pivot is rejected too.
            let pivot_ok = pivot_abs.is_finite() && pivot_abs > threshold;
            if !pivot_ok {
                return Err(LinalgError::Singular { n });
            }
            if pivot_row != col {
                for k in 0..n {
                    lu.swap(col * n + k, pivot_row * n + k);
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu[col * n + col];
            for row in (col + 1)..n {
                let factor = lu[row * n + col] / pivot;
                lu[row * n + col] = factor; // store L below the diagonal
                if factor == 0.0 {
                    continue;
                }
                for k in (col + 1)..n {
                    lu[row * n + k] -= factor * lu[col * n + k];
                }
            }
        }
        tlp_obs::metrics::LINALG_LU_FACTORS.incr();
        tlp_obs::metrics::HIST_LU_DIMENSION.record(n as u64);
        Ok(Self { n, lu, perm })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors (O(n²)).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.n()` — this is the validated hot path of
    /// the thermal solvers; a mismatched right-hand side there is a
    /// programming error, not an input condition.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        tlp_obs::metrics::LINALG_LU_SOLVES.incr();
        let n = self.n;
        assert_eq!(b.len(), n, "rhs must have length n");
        // Apply the row permutation, then forward-substitute L (unit
        // diagonal) and back-substitute U, all in one buffer.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for row in 1..n {
            let mut acc = x[row];
            for (l, xk) in self.lu[row * n..row * n + row].iter().zip(x.iter()) {
                acc -= l * xk;
            }
            x[row] = acc;
        }
        for row in (0..n).rev() {
            let mut acc = x[row];
            for (u, xk) in self.lu[row * n + row + 1..(row + 1) * n]
                .iter()
                .zip(x[row + 1..].iter())
            {
                acc -= u * xk;
            }
            x[row] = acc / self.lu[row * n + row];
        }
        x
    }
}

/// Solves `A·x = b` for a small dense square system by Gaussian elimination
/// with partial pivoting.
///
/// `a` is row-major, `n×n`; `b` has length `n`. One-shot convenience over
/// [`LuFactorization`] — callers that solve the same matrix repeatedly
/// should factor once and reuse it.
///
/// # Errors
///
/// - [`LinalgError::ShapeMismatch`] if `a.len() != n*n`, `n == 0`, or
///   `b.len() != n`.
/// - [`LinalgError::Singular`] if the matrix is numerically singular
///   (scaled pivot tolerance; see [`LuFactorization::factor`]).
///
/// # Examples
///
/// ```
/// let a = vec![2.0, 1.0, 1.0, 3.0];
/// let b = vec![3.0, 5.0];
/// let x = tlp_tech::linalg::solve_dense(2, &a, &b).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
pub fn solve_dense(n: usize, a: &[f64], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            what: "rhs",
            expected: n,
            got: b.len(),
        });
    }
    LuFactorization::factor(n, a).map(|lu| lu.solve(b))
}

/// Solves the linear least-squares problem `min ‖X·c − y‖²` via the normal
/// equations, where `X` is `rows×cols` row-major.
///
/// # Errors
///
/// - [`LinalgError::ShapeMismatch`] if the dimensions of `x` and `y` are
///   inconsistent with `rows × cols`.
/// - [`LinalgError::Singular`] if the normal matrix is numerically
///   singular (a rank-deficient design matrix is reported instead of
///   producing a garbage fit).
pub fn least_squares(
    rows: usize,
    cols: usize,
    x: &[f64],
    y: &[f64],
) -> Result<Vec<f64>, LinalgError> {
    if x.len() != rows * cols {
        return Err(LinalgError::ShapeMismatch {
            what: "design matrix",
            expected: rows * cols,
            got: x.len(),
        });
    }
    if y.len() != rows {
        return Err(LinalgError::ShapeMismatch {
            what: "target",
            expected: rows,
            got: y.len(),
        });
    }
    // Normal matrix Xᵀ·X (cols×cols) and Xᵀ·y.
    let mut xtx = vec![0.0; cols * cols];
    let mut xty = vec![0.0; cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            xty[i] += row[i] * y[r];
            for j in i..cols {
                xtx[i * cols + j] += row[i] * row[j];
            }
        }
    }
    // Mirror the upper triangle.
    for i in 0..cols {
        for j in 0..i {
            xtx[i * cols + j] = xtx[j * cols + i];
        }
    }
    solve_dense(cols, &xtx, &xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve_dense(2, &a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solves_3x3_with_pivoting() {
        // First pivot is zero; forces a row swap.
        let a = vec![0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 3.0];
        let b = vec![5.0, 6.0, 13.0];
        let x = solve_dense(3, &a, &b).unwrap();
        // Verify A·x = b.
        for (i, &bi) in b.iter().enumerate() {
            let got: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
            assert!((got - bi).abs() < 1e-10, "row {i}: {got} != {bi}");
        }
    }

    #[test]
    fn factorization_solves_many_rhs() {
        let a = vec![4.0, 1.0, 0.0, 1.0, 4.0, 1.0, 0.0, 1.0, 4.0];
        let lu = LuFactorization::factor(3, &a).unwrap();
        assert_eq!(lu.n(), 3);
        for rhs in [[1.0, 0.0, 0.0], [0.5, -2.0, 7.0], [3.0, 3.0, 3.0]] {
            let x = lu.solve(&rhs);
            for i in 0..3 {
                let got: f64 = (0..3).map(|j| a[i * 3 + j] * x[j]).sum();
                assert!((got - rhs[i]).abs() < 1e-12, "row {i}: {got} != {}", rhs[i]);
            }
        }
    }

    #[test]
    fn factorization_matches_one_shot_solve() {
        let a = vec![0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0, 3.0];
        let b = vec![5.0, 6.0, 13.0];
        let via_lu = LuFactorization::factor(3, &a).unwrap().solve(&b);
        let one_shot = solve_dense(3, &a, &b).unwrap();
        assert_eq!(via_lu, one_shot);
    }

    #[test]
    fn singular_matrix_returns_typed_error() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert_eq!(
            solve_dense(2, &a, &[1.0, 2.0]),
            Err(LinalgError::Singular { n: 2 })
        );
    }

    #[test]
    fn near_singular_matrix_is_reported_not_garbage() {
        // Rows differ by one part in 10¹³: far beyond any meaningful
        // precision for the fitters. The old absolute 1e-30 pivot floor
        // accepted this system and returned components of order 10¹³; the
        // scaled tolerance reports it as singular.
        let eps = 1e-13;
        let a = vec![1.0, 2.0, 2.0, 4.0 + eps];
        assert!(solve_dense(2, &a, &[1.0, 2.0]).is_err());
        assert_eq!(
            LuFactorization::factor(2, &a),
            Err(LinalgError::Singular { n: 2 })
        );
    }

    #[test]
    fn ill_conditioned_normal_equations_are_refused() {
        // Two nearly identical columns make XᵀX numerically singular; the
        // fit must be refused rather than fabricated.
        let rows = 6;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for r in 0..rows {
            let t = r as f64;
            x.extend_from_slice(&[t, t * (1.0 + 1e-15)]);
            y.push(t);
        }
        assert_eq!(
            least_squares(rows, 2, &x, &y),
            Err(LinalgError::Singular { n: 2 })
        );
    }

    #[test]
    fn scaled_tolerance_accepts_uniformly_tiny_systems() {
        // A well-conditioned matrix whose entries are all ~1e-20 would
        // fail any absolute pivot floor near that magnitude; the relative
        // test sails through.
        let s = 1e-20;
        let a = vec![2.0 * s, 1.0 * s, 1.0 * s, 3.0 * s];
        let x = solve_dense(2, &a, &[3.0 * s, 5.0 * s]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-10);
        assert!((x[1] - 1.4).abs() < 1e-10);
    }

    #[test]
    fn all_zero_matrix_is_singular() {
        assert!(LuFactorization::factor(2, &[0.0; 4]).is_err());
    }

    #[test]
    fn nan_matrix_is_singular_not_propagated() {
        let a = vec![f64::NAN, 1.0, 1.0, f64::NAN];
        assert!(LuFactorization::factor(2, &a).is_err());
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        // y = 3 + 2t sampled without noise.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &t in &ts {
            x.extend_from_slice(&[1.0, t]);
            y.push(3.0 + 2.0 * t);
        }
        let c = least_squares(ts.len(), 2, &x, &y).unwrap();
        assert!((c[0] - 3.0).abs() < 1e-10);
        assert!((c[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual_with_noise() {
        // Overdetermined with symmetric perturbation: the fit must pass
        // between the perturbed points.
        let x = vec![1.0, 0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0];
        let y = vec![1.1, 0.9, 3.1, 2.9];
        let c = least_squares(4, 2, &x, &y).unwrap();
        let resid: f64 = (0..4)
            .map(|r| {
                let pred = c[0] + c[1] * x[r * 2 + 1];
                (pred - y[r]).powi(2)
            })
            .sum();
        // Any line through the data has residual >= the LS optimum; the
        // analytic optimum for this data set is 1.152.
        assert!(
            resid > 0.0 && (resid - 1.152).abs() < 1e-9,
            "residual {resid}"
        );
    }

    #[test]
    fn bad_matrix_shape_is_a_typed_error() {
        assert_eq!(
            solve_dense(2, &[1.0, 2.0, 3.0], &[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch {
                what: "matrix",
                expected: 4,
                got: 3,
            })
        );
        assert_eq!(
            LuFactorization::factor(0, &[]),
            Err(LinalgError::ShapeMismatch {
                what: "matrix",
                expected: 0,
                got: 0,
            })
        );
    }

    #[test]
    fn bad_rhs_length_is_a_typed_error() {
        assert_eq!(
            solve_dense(2, &[1.0, 0.0, 0.0, 1.0], &[1.0]),
            Err(LinalgError::ShapeMismatch {
                what: "rhs",
                expected: 2,
                got: 1,
            })
        );
    }

    #[test]
    fn bad_design_shape_is_a_typed_error() {
        assert!(matches!(
            least_squares(3, 2, &[1.0; 5], &[1.0; 3]),
            Err(LinalgError::ShapeMismatch {
                what: "design matrix",
                ..
            })
        ));
        assert!(matches!(
            least_squares(3, 2, &[1.0; 6], &[1.0; 2]),
            Err(LinalgError::ShapeMismatch { what: "target", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "rhs must have length n")]
    fn cached_solve_keeps_hot_path_assert() {
        let lu = LuFactorization::factor(2, &[1.0, 0.0, 0.0, 1.0]).unwrap();
        let _ = lu.solve(&[1.0]);
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<LinalgError>();
        let s = LinalgError::Singular { n: 3 }.to_string();
        assert!(s.starts_with(char::is_numeric) || s.starts_with(char::is_lowercase));
        assert!(s.contains("singular"));
        let m = LinalgError::ShapeMismatch {
            what: "rhs",
            expected: 4,
            got: 2,
        }
        .to_string();
        assert!(m.contains("rhs") && m.contains('4') && m.contains('2'));
    }
}
