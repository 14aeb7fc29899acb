//! The application-specific feature map `φ : R^d → R^{d'}`.
//!
//! `φ` is the part of a scalar product query that is known ahead of time and
//! can therefore be indexed — e.g. the paper's Example 1 maps a household's
//! `(active, reactive, voltage, current)` to `(active, voltage·current)`,
//! and Example 2 maps a pair of moving objects to the seven monomials
//! `X₁…X₇` of their squared-distance polynomial.

use crate::table::FeatureTable;
use crate::{PlanarError, Result};

/// A fixed, known-apriori map from raw points to feature space.
pub trait FeatureMap {
    /// Dimensionality `d` of the raw input points.
    fn input_dim(&self) -> usize;

    /// Dimensionality `d'` of the feature space the index lives in.
    fn output_dim(&self) -> usize;

    /// Compute `φ(x)` into `out` (which has length `output_dim()`).
    fn apply(&self, x: &[f64], out: &mut [f64]);

    /// Convenience: materialize `φ(x)` as a fresh vector.
    fn map(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.output_dim()];
        self.apply(x, &mut out);
        out
    }

    /// Apply the map to a whole dataset, producing the [`FeatureTable`] the
    /// index is built over.
    ///
    /// # Errors
    ///
    /// [`PlanarError::DimensionMismatch`] when a point has the wrong arity,
    /// [`PlanarError::NotFinite`] when `φ` produces NaN/∞.
    fn map_all<'a>(&self, points: impl IntoIterator<Item = &'a [f64]>) -> Result<FeatureTable> {
        let points = points.into_iter();
        let mut table = FeatureTable::with_capacity(self.output_dim(), points.size_hint().0)?;
        let mut buf = vec![0.0; self.output_dim()];
        for x in points {
            if x.len() != self.input_dim() {
                return Err(PlanarError::DimensionMismatch {
                    expected: self.input_dim(),
                    found: x.len(),
                });
            }
            self.apply(x, &mut buf);
            table.push_row(&buf)?;
        }
        Ok(table)
    }
}

/// The identity map `φ(x) = x`: with it, Problem 1 reduces to half-space
/// range searching and Problem 2 to the hyperplane-to-nearest-point query
/// (paper Remark 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityMap {
    dim: usize,
}

impl IdentityMap {
    /// Identity on `R^dim`.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl FeatureMap for IdentityMap {
    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
    }
}

/// A feature map defined by a closure, for ad-hoc `φ`s.
///
/// ```
/// use planar_core::{FeatureMap, FnFeatureMap};
/// // Example 1 of the paper: (active, reactive, voltage, current)
/// //   ↦ (active, voltage·current)
/// let phi = FnFeatureMap::new(4, 2, |x, out| {
///     out[0] = x[0];
///     out[1] = x[2] * x[3];
/// });
/// assert_eq!(phi.map(&[5.0, 0.2, 230.0, 2.0]), vec![5.0, 460.0]);
/// ```
pub struct FnFeatureMap<F: Fn(&[f64], &mut [f64])> {
    input_dim: usize,
    output_dim: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64])> FnFeatureMap<F> {
    /// Wrap a closure computing `φ`.
    pub fn new(input_dim: usize, output_dim: usize, f: F) -> Self {
        Self {
            input_dim,
            output_dim,
            f,
        }
    }
}

impl<F: Fn(&[f64], &mut [f64])> FeatureMap for FnFeatureMap<F> {
    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn output_dim(&self) -> usize {
        self.output_dim
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        (self.f)(x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_map_roundtrips() {
        let m = IdentityMap::new(3);
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.output_dim(), 3);
        assert_eq!(m.map(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fn_map_applies_closure() {
        let m = FnFeatureMap::new(2, 3, |x, out| {
            out[0] = x[0];
            out[1] = x[1];
            out[2] = x[0] * x[1];
        });
        assert_eq!(m.map(&[2.0, 3.0]), vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn map_all_builds_table() {
        let m = FnFeatureMap::new(1, 2, |x, out| {
            out[0] = x[0];
            out[1] = x[0] * x[0];
        });
        let pts: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0], vec![3.0]];
        let t = m.map_all(pts.iter().map(|p| p.as_slice())).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.row(2), &[3.0, 9.0]);
    }

    #[test]
    fn map_all_rejects_bad_arity_and_nan() {
        let m = IdentityMap::new(2);
        let bad: Vec<Vec<f64>> = vec![vec![1.0]];
        assert!(m.map_all(bad.iter().map(|p| p.as_slice())).is_err());

        let nan_map = FnFeatureMap::new(1, 1, |_x, out| out[0] = f64::NAN);
        let pts: Vec<Vec<f64>> = vec![vec![1.0]];
        assert_eq!(
            nan_map.map_all(pts.iter().map(|p| p.as_slice())),
            Err(PlanarError::NotFinite)
        );
    }
}
