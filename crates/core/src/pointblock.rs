//! Flat, wire-shaped point blocks for the ingest hot path.
//!
//! A [`PointBlock`] is the zero-nesting form of an ingest batch: one
//! contiguous row-major `Vec<f64>` plus the dimension, with optional
//! weights alongside. It exists so points can travel from the binary wire
//! format (`bin1` frames carry contiguous little-endian f64 runs) into
//! [`fc_geom::Dataset`] without ever materializing a `Vec<Vec<f64>>` —
//! no per-point allocation, no pointer-chasing, and a memory layout the
//! distance kernels in `fc-clustering` can stream through.

use fc_geom::{Dataset, Points};

use crate::error::FcError;

/// A flat, validated batch of points: `data[i*dim .. (i+1)*dim]` is row
/// `i`, with `weights[i]` its weight when weights are present.
///
/// Invariants (enforced by every constructor):
/// - `dim > 0` and `data.len()` is a non-zero multiple of `dim`;
/// - every coordinate is finite;
/// - `weights`, when present, has exactly one finite, non-negative entry
///   per row.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBlock {
    data: Vec<f64>,
    dim: usize,
    weights: Option<Vec<f64>>,
}

impl PointBlock {
    /// Builds a block from a flat row-major buffer and optional weights.
    pub fn new(data: Vec<f64>, dim: usize, weights: Option<Vec<f64>>) -> Result<Self, FcError> {
        if dim == 0 {
            return Err(FcError::InvalidParameter(
                "point dimension must be at least 1".into(),
            ));
        }
        if data.is_empty() {
            return Err(FcError::EmptyData);
        }
        if !data.len().is_multiple_of(dim) {
            return Err(FcError::InvalidParameter(format!(
                "flat buffer of {} coordinates is not a multiple of dim {dim}",
                data.len()
            )));
        }
        if !data.iter().all(|x| x.is_finite()) {
            return Err(FcError::InvalidParameter(
                "point coordinates must be finite".into(),
            ));
        }
        if let Some(w) = &weights {
            if w.len() != data.len() / dim {
                return Err(FcError::InvalidParameter(format!(
                    "{} weights for {} points",
                    w.len(),
                    data.len() / dim
                )));
            }
            if !w.iter().all(|x| x.is_finite() && *x >= 0.0) {
                return Err(FcError::InvalidParameter(
                    "weights must be finite and non-negative".into(),
                ));
            }
        }
        Ok(Self { data, dim, weights })
    }

    /// Flattens a weighted dataset into a block. Unit weights are kept —
    /// a round-trip through a block preserves the dataset exactly.
    pub fn from_dataset(data: &Dataset) -> Self {
        Self {
            data: data.points().as_flat().to_vec(),
            dim: data.dim(),
            weights: Some(data.weights().to_vec()),
        }
    }

    /// Converts the block into a dataset, reusing the flat buffer.
    pub fn into_dataset(self) -> Result<Dataset, FcError> {
        let pts = Points::from_flat(self.data, self.dim)
            .map_err(|e| FcError::InvalidParameter(format!("invalid point block: {e:?}")))?;
        match self.weights {
            None => Ok(Dataset::unweighted(pts)),
            Some(w) => Dataset::weighted(pts, w)
                .map_err(|e| FcError::InvalidParameter(format!("invalid weights: {e:?}"))),
        }
    }

    /// Number of points in the block.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the block is empty (never true for a validated block).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The flat row-major coordinate buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Per-point weights, if the block carries any.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Total weight of the block (`len() as f64` when unweighted).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            None => self.len() as f64,
            Some(w) => w.iter().sum(),
        }
    }

    /// Iterates rows as slices (no allocation).
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_dataset() {
        let block = PointBlock::new(vec![0.0, 1.0, 2.0, 3.0], 2, Some(vec![1.5, 2.5])).unwrap();
        assert_eq!(block.len(), 2);
        assert_eq!(block.dim(), 2);
        assert_eq!(block.total_weight(), 4.0);
        let data = block.clone().into_dataset().unwrap();
        assert_eq!(PointBlock::from_dataset(&data), block);
    }

    #[test]
    fn constructors_validate() {
        assert!(PointBlock::new(vec![], 2, None).is_err());
        assert!(PointBlock::new(vec![1.0], 0, None).is_err());
        assert!(PointBlock::new(vec![1.0, 2.0, 3.0], 2, None).is_err());
        assert!(PointBlock::new(vec![f64::NAN, 0.0], 2, None).is_err());
        assert!(PointBlock::new(vec![1.0, 2.0], 2, Some(vec![1.0, 2.0])).is_err());
        assert!(PointBlock::new(vec![1.0, 2.0], 2, Some(vec![-1.0])).is_err());
    }
}
