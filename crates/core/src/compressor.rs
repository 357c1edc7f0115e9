//! The uniform API over every compression method in the evaluation.

use fc_clustering::CostKind;
use fc_geom::Dataset;
use rand::RngCore;

use crate::coreset::Coreset;
use crate::error::FcError;

/// Parameters shared by all compressors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionParams {
    /// Number of clusters the compression should support.
    pub k: usize,
    /// Target coreset size (the paper uses `m = m_scalar · k`).
    pub m: usize,
    /// Objective: k-means (`z = 2`) or k-median (`z = 1`).
    pub kind: CostKind,
}

impl CompressionParams {
    /// Standard parameterization `m = m_scalar · k` (Section 5.2 defaults to
    /// `m_scalar = 40`). Rejects `k = 0` and any `m_scalar` that would
    /// produce `m < k` — including the silent `m = 0` and the overflowing
    /// `m_scalar · k` that the unchecked multiplication used to let through.
    pub fn with_scalar(k: usize, m_scalar: usize, kind: CostKind) -> Result<Self, FcError> {
        if k == 0 {
            return Err(FcError::InvalidK);
        }
        let m = m_scalar
            .checked_mul(k)
            .ok_or(FcError::CoresetSizeOverflow { k, m_scalar })?;
        let params = Self { k, m, kind };
        params.validate()?;
        Ok(params)
    }

    /// Checks the structural invariants every compressor assumes:
    /// `k ≥ 1` and `m ≥ k` (a coreset must be able to hold one point per
    /// cluster). Directly-constructed params should be validated before
    /// first use; [`Self::with_scalar`] and `Plan` do it for you.
    pub fn validate(&self) -> Result<(), FcError> {
        if self.k == 0 {
            return Err(FcError::InvalidK);
        }
        if self.m < self.k {
            return Err(FcError::InvalidCoresetSize {
                m: self.m,
                k: self.k,
            });
        }
        Ok(())
    }

    /// [`Self::validate`] plus the data-dependent checks: the dataset must
    /// be non-empty and at least as large as the target size `m`.
    pub fn validate_for(&self, data: &Dataset) -> Result<(), FcError> {
        self.validate()?;
        if data.is_empty() {
            return Err(FcError::EmptyData);
        }
        if self.m > data.len() {
            return Err(FcError::CoresetLargerThanData {
                m: self.m,
                n: data.len(),
            });
        }
        Ok(())
    }
}

/// A point-set compressor: uniform sampling, the coreset family, or any
/// future strategy. Object-safe so suites of methods can be iterated and the
/// streaming layer can compose them as black boxes (Section 5.4).
pub trait Compressor: Send + Sync {
    /// Compresses `data` to (about) `params.m` weighted points.
    ///
    /// Implementations may assume structurally valid parameters
    /// ([`CompressionParams::validate`]) and non-empty data; callers that
    /// cannot guarantee this should use [`Self::try_compress`].
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset;

    /// Fallible front door: validates `params` against `data`
    /// ([`CompressionParams::validate_for`]) and only then compresses, so
    /// no invalid-parameter input can reach a panicking invariant.
    fn try_compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Result<Coreset, crate::error::FcError> {
        params.validate_for(data)?;
        Ok(self.compress(rng, data, params))
    }
}

// Smart pointers and references to compressors are compressors themselves,
// so owners of a `Box<dyn Compressor>` / `Arc<dyn Compressor>` (the serving
// engine shares one across shard threads) and borrowers alike can hand them
// to APIs taking `impl Compressor`.
impl<C: Compressor + ?Sized> Compressor for &C {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        (**self).compress(rng, data, params)
    }
}

impl<C: Compressor + ?Sized> Compressor for Box<C> {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        (**self).compress(rng, data, params)
    }
}

impl<C: Compressor + ?Sized> Compressor for std::sync::Arc<C> {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        (**self).compress(rng, data, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn with_scalar_multiplies() {
        let p = CompressionParams::with_scalar(100, 40, CostKind::KMeans).unwrap();
        assert_eq!(p.m, 4000);
        assert_eq!(p.k, 100);
    }

    #[test]
    fn with_scalar_rejects_degenerate_parameters() {
        assert_eq!(
            CompressionParams::with_scalar(0, 40, CostKind::KMeans).unwrap_err(),
            FcError::InvalidK
        );
        // m_scalar = 0 used to silently produce m = 0.
        assert_eq!(
            CompressionParams::with_scalar(5, 0, CostKind::KMeans).unwrap_err(),
            FcError::InvalidCoresetSize { m: 0, k: 5 }
        );
        // ... and huge scalars used to wrap around.
        assert_eq!(
            CompressionParams::with_scalar(3, usize::MAX, CostKind::KMeans).unwrap_err(),
            FcError::CoresetSizeOverflow {
                k: 3,
                m_scalar: usize::MAX
            }
        );
    }

    #[test]
    fn validate_for_checks_the_data() {
        let p = CompressionParams::with_scalar(2, 10, CostKind::KMeans).unwrap();
        let small = Coreset::new(Dataset::from_flat(vec![1.0, 2.0], 2).unwrap());
        assert_eq!(
            p.validate_for(small.dataset()).unwrap_err(),
            FcError::CoresetLargerThanData { m: 20, n: 1 }
        );
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert_eq!(p.validate_for(&empty).unwrap_err(), FcError::EmptyData);
        let direct = CompressionParams {
            k: 4,
            m: 2,
            kind: CostKind::KMeans,
        };
        assert_eq!(
            direct.validate().unwrap_err(),
            FcError::InvalidCoresetSize { m: 2, k: 4 }
        );
    }

    #[test]
    fn try_compress_surfaces_validation_errors() {
        struct Panicky;
        impl Compressor for Panicky {
            fn compress(
                &self,
                _rng: &mut dyn RngCore,
                _data: &Dataset,
                _params: &CompressionParams,
            ) -> Coreset {
                panic!("must not be reached on invalid input");
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        let params = CompressionParams {
            k: 2,
            m: 10,
            kind: CostKind::KMeans,
        };
        assert_eq!(
            Panicky.try_compress(&mut rng, &empty, &params).unwrap_err(),
            FcError::EmptyData
        );
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_boxed(_: Box<dyn Compressor>) {}
    }

    #[test]
    fn pointer_wrappers_are_compressors() {
        fn compress_with<C: Compressor>(c: &C, data: &Dataset) -> Coreset {
            let params = CompressionParams {
                k: 1,
                m: 1,
                kind: CostKind::KMeans,
            };
            c.compress(&mut rand::rngs::StdRng::seed_from_u64(0), data, &params)
        }
        struct Identity;
        impl Compressor for Identity {
            fn compress(
                &self,
                _rng: &mut dyn RngCore,
                data: &Dataset,
                _params: &CompressionParams,
            ) -> Coreset {
                Coreset::new(data.clone())
            }
        }
        let data = Dataset::from_flat(vec![1.0, 2.0], 2).unwrap();
        let boxed: Box<dyn Compressor> = Box::new(Identity);
        let arc: std::sync::Arc<dyn Compressor> = std::sync::Arc::new(Identity);
        assert_eq!(compress_with(&&Identity, &data).dataset(), &data);
        assert_eq!(compress_with(&boxed, &data).dataset(), &data);
        assert_eq!(compress_with(&arc, &data).dataset(), &data);
    }
}
