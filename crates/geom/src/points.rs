//! Dense row-major point store.
//!
//! Every dataset in this workspace is a flat `Vec<f64>` of length `n * dim`,
//! interpreted as `n` points of dimension `dim`. Rows are returned as slices,
//! so hot loops (distance evaluation, grid hashing) operate on contiguous
//! memory without indirection.

use crate::error::GeomError;

/// An `n × d` matrix of `f64` holding `n` points of dimension `d`.
///
/// The flat layout is row-major: point `i` occupies
/// `data[i * dim .. (i + 1) * dim]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Points {
    data: Vec<f64>,
    dim: usize,
}

impl Points {
    /// Creates a point store from a flat row-major buffer.
    ///
    /// Returns [`GeomError::RaggedBuffer`] when `data.len()` is not a
    /// multiple of `dim`.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Result<Self, GeomError> {
        if dim == 0 || !data.len().is_multiple_of(dim) {
            return Err(GeomError::RaggedBuffer {
                len: data.len(),
                dim,
            });
        }
        Ok(Self { data, dim })
    }

    /// Creates a point store from a slice of rows, checking that all rows
    /// share the same dimension.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, GeomError> {
        let Some(first) = rows.first() else {
            return Err(GeomError::EmptyInput);
        };
        let dim = first.len();
        if dim == 0 {
            return Err(GeomError::RaggedBuffer { len: 0, dim });
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(GeomError::DimensionMismatch {
                    expected: dim,
                    got: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { data, dim })
    }

    /// An empty store of the given dimension, useful as an accumulator.
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// A store of `n` zero points.
    pub fn zeros(n: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            data: vec![0.0; n * dim],
            dim,
        }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the store holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow point `i` as a slice of length `dim`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrow point `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The backing flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing flat buffer.
    #[inline]
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterate over rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Appends a point, checking its dimension.
    pub fn push(&mut self, point: &[f64]) -> Result<(), GeomError> {
        if point.len() != self.dim {
            return Err(GeomError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        self.data.extend_from_slice(point);
        Ok(())
    }

    /// Appends all points from `other` (must share the dimension).
    pub fn extend(&mut self, other: &Points) -> Result<(), GeomError> {
        if other.dim != self.dim {
            return Err(GeomError::DimensionMismatch {
                expected: self.dim,
                got: other.dim,
            });
        }
        self.data.extend_from_slice(&other.data);
        Ok(())
    }

    /// A new store containing the rows at `indices`, in order (duplicates
    /// allowed — the same row may be gathered several times, which is exactly
    /// what sampling with replacement needs).
    pub fn gather(&self, indices: &[usize]) -> Points {
        let mut data = Vec::with_capacity(indices.len() * self.dim);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Points {
            data,
            dim: self.dim,
        }
    }

    /// Reserve capacity for `additional` more points.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional * self.dim);
    }
}

impl<'a> IntoIterator for &'a Points {
    type Item = &'a [f64];
    type IntoIter = std::slice::ChunksExact<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_flat_round_trip() {
        let p = Points::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(p.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_rejects_ragged() {
        assert!(matches!(
            Points::from_flat(vec![1.0, 2.0, 3.0], 2),
            Err(GeomError::RaggedBuffer { len: 3, dim: 2 })
        ));
        assert!(Points::from_flat(vec![1.0], 0).is_err());
    }

    #[test]
    fn from_rows_checks_dimensions() {
        let ok = Points::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(ok.len(), 2);
        let bad = Points::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(
            bad,
            Err(GeomError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(Points::from_rows(&[]), Err(GeomError::EmptyInput)));
    }

    #[test]
    fn push_and_extend() {
        let mut p = Points::empty(2);
        p.push(&[1.0, 2.0]).unwrap();
        p.push(&[3.0, 4.0]).unwrap();
        assert!(p.push(&[1.0]).is_err());
        let q = Points::from_flat(vec![5.0, 6.0], 2).unwrap();
        p.extend(&q).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.row(2), &[5.0, 6.0]);
        let r = Points::empty(3);
        assert!(p.extend(&r).is_err());
    }

    #[test]
    fn gather_allows_duplicates() {
        let p = Points::from_flat(vec![0.0, 1.0, 2.0, 3.0], 2).unwrap();
        let g = p.gather(&[1, 1, 0]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.row(0), &[2.0, 3.0]);
        assert_eq!(g.row(1), &[2.0, 3.0]);
        assert_eq!(g.row(2), &[0.0, 1.0]);
    }

    #[test]
    fn row_mut_mutates_in_place() {
        let mut p = Points::zeros(2, 2);
        p.row_mut(1)[0] = 7.0;
        assert_eq!(p.row(1), &[7.0, 0.0]);
        assert_eq!(p.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn iter_yields_all_rows() {
        let p = Points::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let rows: Vec<&[f64]> = p.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
        let rows2: Vec<&[f64]> = (&p).into_iter().collect();
        assert_eq!(rows, rows2);
    }

    #[test]
    fn zeros_and_empty() {
        let z = Points::zeros(3, 4);
        assert_eq!(z.len(), 3);
        assert!(z.as_flat().iter().all(|&x| x == 0.0));
        let e = Points::empty(4);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
