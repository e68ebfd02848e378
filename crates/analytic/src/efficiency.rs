//! Nominal parallel-efficiency curves (paper Eq. 6).
//!
//! The nominal parallel efficiency `εn(N) = T₁ / (N·T_N)` at equal clock
//! characterizes an application's parallel behaviour independent of power
//! considerations. The analytical model consumes it as a function of the
//! core count `N`; this module provides the standard shapes plus measured
//! tables.

use crate::error::AnalyticError;

/// A nominal parallel-efficiency curve `εn(N)`.
///
/// # Examples
///
/// ```
/// use tlp_analytic::EfficiencyCurve;
///
/// // The imaginary application marked in the paper's Fig. 1 has
/// // efficiency decreasing with N:
/// let app = EfficiencyCurve::table(vec![(2, 0.9), (4, 0.8), (8, 0.65), (16, 0.5), (32, 0.35)])?;
/// assert!((app.at(8)? - 0.65).abs() < 1e-12);
/// // Between table entries, the curve interpolates:
/// let mid = app.at(6)?;
/// assert!(mid < 0.8 && mid > 0.65);
/// # Ok::<(), tlp_analytic::AnalyticError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EfficiencyCurve {
    /// Perfect scalability: `εn(N) = 1` for all `N` (the Fig. 2 assumption).
    Perfect,
    /// A fixed efficiency independent of `N`.
    Constant(f64),
    /// Amdahl's law with serial fraction `s`:
    /// `εn(N) = 1 / (s·N + (1−s))`.
    Amdahl {
        /// Serial fraction in `[0, 1]`.
        serial_fraction: f64,
    },
    /// Geometric decay: efficiency multiplies by `retention` with each
    /// doubling of the core count (`εn(N) = retention^log2(N)`).
    Geometric {
        /// Efficiency retained per doubling, in `(0, 1]`.
        retention: f64,
    },
    /// A measured table of `(N, εn)` points with log-N linear
    /// interpolation; queries outside the table clamp to its ends.
    Table(Vec<(usize, f64)>),
}

impl EfficiencyCurve {
    /// Builds a validated table curve from measured points.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidEfficiency`] if the table is empty,
    /// core counts are not strictly increasing, or any efficiency is
    /// non-positive or above 2 (superlinear speedups beyond 2× efficiency
    /// indicate a measurement bug).
    pub fn table(points: Vec<(usize, f64)>) -> Result<Self, AnalyticError> {
        if points.is_empty() {
            return Err(AnalyticError::InvalidEfficiency {
                value: f64::NAN,
                reason: "efficiency table is empty",
            });
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(AnalyticError::InvalidEfficiency {
                    value: w[1].1,
                    reason: "table core counts must be strictly increasing",
                });
            }
        }
        for &(n, e) in &points {
            if n == 0 {
                return Err(AnalyticError::InvalidEfficiency {
                    value: e,
                    reason: "core count zero in table",
                });
            }
            if !(e > 0.0 && e <= 2.0) {
                return Err(AnalyticError::InvalidEfficiency {
                    value: e,
                    reason: "efficiency must lie in (0, 2]",
                });
            }
        }
        Ok(EfficiencyCurve::Table(points))
    }

    /// Evaluates `εn(N)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyticError::InvalidCoreCount`] for `n == 0`, or
    /// [`AnalyticError::InvalidEfficiency`] if the curve's parameters are
    /// out of range.
    pub fn at(&self, n: usize) -> Result<f64, AnalyticError> {
        if n == 0 {
            return Err(AnalyticError::InvalidCoreCount { n, max: usize::MAX });
        }
        if n == 1 {
            // εn(1) is 1 by definition.
            return Ok(1.0);
        }
        match self {
            EfficiencyCurve::Perfect => Ok(1.0),
            EfficiencyCurve::Constant(e) => {
                if *e > 0.0 && *e <= 2.0 {
                    Ok(*e)
                } else {
                    Err(AnalyticError::InvalidEfficiency {
                        value: *e,
                        reason: "constant efficiency must lie in (0, 2]",
                    })
                }
            }
            EfficiencyCurve::Amdahl { serial_fraction } => {
                let s = *serial_fraction;
                if !(0.0..=1.0).contains(&s) {
                    return Err(AnalyticError::InvalidEfficiency {
                        value: s,
                        reason: "serial fraction must lie in [0, 1]",
                    });
                }
                Ok(1.0 / (s * n as f64 + (1.0 - s)))
            }
            EfficiencyCurve::Geometric { retention } => {
                let r = *retention;
                if !(r > 0.0 && r <= 1.0) {
                    return Err(AnalyticError::InvalidEfficiency {
                        value: r,
                        reason: "retention must lie in (0, 1]",
                    });
                }
                Ok(r.powf((n as f64).log2()))
            }
            EfficiencyCurve::Table(points) => {
                let x = (n as f64).ln();
                if n <= points[0].0 {
                    return Ok(points[0].1);
                }
                if n >= points[points.len() - 1].0 {
                    return Ok(points[points.len() - 1].1);
                }
                let idx = points.partition_point(|&(pn, _)| pn < n);
                let (n0, e0) = points[idx - 1];
                let (n1, e1) = points[idx];
                if n0 == n {
                    return Ok(e0);
                }
                let x0 = (n0 as f64).ln();
                let x1 = (n1 as f64).ln();
                Ok(e0 + (e1 - e0) * (x - x0) / (x1 - x0))
            }
        }
    }

    /// The speedup implied at `N` cores with no frequency scaling:
    /// `S(N) = N·εn(N)`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`EfficiencyCurve::at`].
    pub fn nominal_speedup(&self, n: usize) -> Result<f64, AnalyticError> {
        Ok(n as f64 * self.at(n)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_at_one_core_is_one_for_all_shapes() {
        let curves = [
            EfficiencyCurve::Perfect,
            EfficiencyCurve::Constant(0.5),
            EfficiencyCurve::Amdahl {
                serial_fraction: 0.1,
            },
            EfficiencyCurve::Geometric { retention: 0.9 },
            EfficiencyCurve::table(vec![(2, 0.8)]).unwrap(),
        ];
        for c in curves {
            assert_eq!(c.at(1).unwrap(), 1.0, "{c:?}");
        }
    }

    #[test]
    fn amdahl_matches_closed_form() {
        let c = EfficiencyCurve::Amdahl {
            serial_fraction: 0.05,
        };
        // S(16) = 1/(0.05 + 0.95/16) = 9.143 → ε = 0.571
        let e = c.at(16).unwrap();
        assert!((e - 1.0 / (0.05 * 16.0 + 0.95)).abs() < 1e-12);
        assert!((c.nominal_speedup(16).unwrap() - 16.0 * e).abs() < 1e-12);
    }

    #[test]
    fn geometric_decays_per_doubling() {
        let c = EfficiencyCurve::Geometric { retention: 0.8 };
        assert!((c.at(2).unwrap() - 0.8).abs() < 1e-12);
        assert!((c.at(4).unwrap() - 0.64).abs() < 1e-12);
        assert!((c.at(32).unwrap() - 0.8f64.powi(5)).abs() < 1e-12);
    }

    #[test]
    fn table_interpolates_in_log_n() {
        let c = EfficiencyCurve::table(vec![(2, 0.9), (8, 0.5)]).unwrap();
        // At N=4, halfway in log2 space between 2 and 8.
        assert!((c.at(4).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn table_clamps_outside_range() {
        let c = EfficiencyCurve::table(vec![(4, 0.8), (16, 0.5)]).unwrap();
        assert_eq!(c.at(2).unwrap(), 0.8);
        assert_eq!(c.at(32).unwrap(), 0.5);
    }

    #[test]
    fn table_rejects_bad_input() {
        assert!(EfficiencyCurve::table(vec![]).is_err());
        assert!(EfficiencyCurve::table(vec![(4, 0.8), (4, 0.7)]).is_err());
        assert!(EfficiencyCurve::table(vec![(2, 0.0)]).is_err());
        assert!(EfficiencyCurve::table(vec![(2, 2.5)]).is_err());
        assert!(EfficiencyCurve::table(vec![(0, 0.5)]).is_err());
    }

    #[test]
    fn superlinear_efficiency_within_bounds_is_allowed() {
        // The paper notes εn can exceed 1 (aggregate cache effects).
        let c = EfficiencyCurve::table(vec![(2, 1.1), (4, 1.05)]).unwrap();
        assert!(c.at(2).unwrap() > 1.0);
    }

    #[test]
    fn zero_cores_is_rejected() {
        assert!(EfficiencyCurve::Perfect.at(0).is_err());
    }

    #[test]
    fn invalid_parameters_reported_lazily() {
        let bad = EfficiencyCurve::Constant(3.0);
        assert!(bad.at(2).is_err());
        let bad = EfficiencyCurve::Amdahl {
            serial_fraction: 1.5,
        };
        assert!(bad.at(2).is_err());
        let bad = EfficiencyCurve::Geometric { retention: 0.0 };
        assert!(bad.at(2).is_err());
    }
}
