//! Shifted-grid cell identification.
//!
//! All three quadtree algorithms reduce to the same primitive: quantise a
//! point against a randomly shifted grid of a given cell side and identify
//! the occupied cells with a dictionary (Algorithm 2 line 4). The
//! quantisation is done **once** per algorithm, at the finest level it will
//! ever look at (`quantise`, `n·d` divisions, in place when it owns the
//! coordinates): grid sides are exact
//! power-of-two multiples of each other and share one shift, so the cell
//! coordinate `s` levels coarser is exactly `c >> s` — every coarser grid is
//! a bit prefix, as in RASTER's tile truncation. The dictionary is a
//! `RowInterner`: exact integer rows, dense ids in first-appearance order,
//! `O(rows)` to reset, no allocation per row.

use std::borrow::Cow;

/// Integer grid coordinate of `x` in a grid of pitch `side` shifted by
/// `shift`: `⌊(x − shift) / side⌋`, saturating at the `i64` range.
#[inline]
pub fn grid_coord(x: f64, shift: f64, side: f64) -> i64 {
    // `q.floor() as i64` without the libm call: truncate, then step down
    // when truncation rounded a negative non-integer up.
    let q = (x - shift) / side;
    let truncated = q as i64;
    truncated.saturating_sub(i64::from(truncated as f64 > q))
}

/// Quantises row-major coordinates against one grid:
/// `cells[i·d + j] = min(grid_coord(x_ij, shift_j, side), max_cell)` with
/// `d = shift.len()`. Owned coordinates are quantised in place — each cell
/// is written over its coordinate, and the buffer then changes type where
/// it lies (an `f64` and an `i64` share size and alignment, so the collect
/// reuses the allocation); borrowed ones into a fresh buffer. Also returns,
/// per dimension, the OR over rows of each cell coordinate XOR the first
/// row's: the bits on which some row differs from the first, gathered in
/// the same pass.
pub(crate) fn quantise(
    coords: Cow<'_, [f64]>,
    shift: &[f64],
    side: f64,
    max_cell: i64,
) -> (Vec<i64>, Vec<i64>) {
    let dim = shift.len();
    let cell = |x: f64, s: f64| grid_coord(x, s, side).min(max_cell);
    let first: Vec<i64> = coords[..dim]
        .iter()
        .zip(shift)
        .map(|(&x, &s)| cell(x, s))
        .collect();
    let mut differing = vec![0i64; dim];
    let cells = match coords {
        Cow::Owned(mut coords) => {
            for row in coords.chunks_exact_mut(dim) {
                let columns = shift.iter().zip(&first).zip(differing.iter_mut());
                for (x, ((&s, &c0), acc)) in row.iter_mut().zip(columns) {
                    let c = cell(*x, s);
                    *acc |= c ^ c0;
                    *x = f64::from_bits(c as u64);
                }
            }
            coords.into_iter().map(|x| x.to_bits() as i64).collect()
        }
        Cow::Borrowed(coords) => {
            let mut cells = Vec::with_capacity(coords.len());
            for row in coords.chunks_exact(dim) {
                let columns = shift.iter().zip(&first).zip(differing.iter_mut());
                cells.extend(row.iter().zip(columns).map(|(&x, ((&s, &c0), acc))| {
                    let c = cell(x, s);
                    *acc |= c ^ c0;
                    c
                }));
            }
            cells
        }
    };
    (cells, differing)
}

const EMPTY: u32 = u32::MAX;

/// A dictionary of distinct integer rows: [`intern`](Self::intern) returns
/// a dense id per distinct row, numbered in first-appearance order. Rows
/// are compared exactly (the hash only picks the probe start), and the
/// table is sized per [`reset`](Self::reset), so reusing one interner
/// across many small row sets costs time linear in each set.
#[derive(Debug, Default)]
pub(crate) struct RowInterner {
    width: usize,
    /// Number of interned rows.
    len: usize,
    /// The interned rows, `width` columns each, in id order.
    rows: Vec<i64>,
    /// Open-addressing table of row ids; the first `mask + 1` slots are live.
    slots: Vec<u32>,
    mask: usize,
    /// One odd multiplier per column: the row hash is their dot product
    /// with the row, so columns mix independently of each other.
    multipliers: Vec<u64>,
}

impl RowInterner {
    /// Forgets every row and prepares for at most `max_rows` distinct rows
    /// of `width` columns.
    pub(crate) fn reset(&mut self, width: usize, max_rows: usize) {
        self.width = width;
        self.len = 0;
        self.rows.clear();
        let live = (2 * max_rows).next_power_of_two().max(2);
        if self.slots.len() < live {
            self.slots.resize(live, EMPTY);
        }
        self.slots[..live].fill(EMPTY);
        self.mask = live - 1;
        while self.multipliers.len() < width {
            // The splitmix64 output for this column's index, forced odd.
            let mut z = (self.multipliers.len() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            self.multipliers.push((z ^ (z >> 31)) | 1);
        }
    }

    /// Id of `row`, interning it first if it is new.
    #[inline]
    pub(crate) fn intern(&mut self, row: &[i64]) -> u32 {
        debug_assert_eq!(row.len(), self.width);
        let dot = row
            .iter()
            .zip(&self.multipliers)
            .fold(0u64, |acc, (&c, &m)| {
                acc.wrapping_add((c as u64).wrapping_mul(m))
            });
        let hash = (dot ^ (dot >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut slot = (hash >> 32) as usize & self.mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                let id = self.len as u32;
                debug_assert!(2 * self.len <= self.mask, "more rows than reset allowed");
                self.slots[slot] = id;
                self.rows.extend_from_slice(row);
                self.len += 1;
                return id;
            }
            // Element by element: a slice `==` would call `memcmp` for the
            // one or two words a key usually has.
            if self.row(id).iter().zip(row).all(|(a, b)| a == b) {
                return id;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Number of distinct rows interned since the last reset.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The row with the given id.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[i64] {
        let at = id as usize * self.width;
        &self.rows[at..at + self.width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_coord_quantizes() {
        assert_eq!(grid_coord(0.5, 0.0, 1.0), 0);
        assert_eq!(grid_coord(1.5, 0.0, 1.0), 1);
        assert_eq!(grid_coord(-0.5, 0.0, 1.0), -1);
        // Shift moves the boundaries.
        assert_eq!(grid_coord(0.5, 0.6, 1.0), -1);
    }

    #[test]
    fn grid_coord_is_floor_with_saturation() {
        for q in [
            0.0,
            -0.0,
            2.0,
            -2.0,
            2.5,
            -2.5,
            1e-320,
            -1e-320,
            9.2e18,
            -9.2e18,
            9.3e18,
            -9.3e18,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(grid_coord(q, 0.0, 1.0), q.floor() as i64, "q = {q}");
        }
    }

    #[test]
    fn coarser_cells_are_bit_prefixes() {
        // The identity every caller relies on: quantise once at the finest
        // side, shift right for every coarser power-of-two multiple.
        let side = 0.3 * f64::powi(2.0, -20);
        for &x in &[0.0, 0.1, -0.1, 7.25, -7.25, 1234.567, -9876.54321, 1e-9] {
            let fine = grid_coord(x, 0.37, side);
            for up in 0..40 {
                let coarse = grid_coord(x, 0.37, side * f64::powi(2.0, up));
                assert_eq!(fine >> up, coarse, "x = {x}, {up} levels up");
            }
        }
    }

    #[test]
    fn quantise_is_row_major_and_capped() {
        let coords = [0.5, 1.5, 2.5, 3.5];
        for cow in [Cow::Borrowed(&coords[..]), Cow::Owned(coords.to_vec())] {
            let (cells, differing) = quantise(cow.clone(), &[0.0, 1.0], 1.0, i64::MAX);
            assert_eq!(cells, [0, 0, 2, 2]);
            assert_eq!(differing, [2, 2]);
            let (cells, differing) = quantise(cow, &[0.0, 1.0], 1.0, 1);
            assert_eq!(cells, [0, 0, 1, 1]);
            assert_eq!(differing, [1, 1]);
        }
    }

    #[test]
    fn quantise_rewrites_an_owned_buffer_in_place() {
        let coords: Vec<f64> = (0..96).map(|i| f64::from(i) * 0.37 - 9.0).collect();
        let at = coords.as_ptr() as usize;
        let expected: Vec<i64> = coords
            .chunks_exact(3)
            .flat_map(|row| {
                row.iter()
                    .zip([0.1, 0.2, 0.3])
                    .map(|(&x, s)| grid_coord(x, s, 0.5))
            })
            .collect();
        let (fresh, _) = quantise(Cow::Borrowed(&coords), &[0.1, 0.2, 0.3], 0.5, i64::MAX);
        let (cells, differing) = quantise(Cow::Owned(coords), &[0.1, 0.2, 0.3], 0.5, i64::MAX);
        assert_eq!(cells.as_ptr() as usize, at);
        assert_eq!(cells, expected);
        assert_eq!(fresh, expected);
        for (j, &bits) in differing.iter().enumerate() {
            let or = cells
                .iter()
                .skip(j)
                .step_by(3)
                .fold(0, |acc, &c| acc | (c ^ cells[j]));
            assert_eq!(bits, or);
        }
    }

    #[test]
    fn interner_numbers_rows_in_first_appearance_order() {
        let mut rows = RowInterner::default();
        rows.reset(2, 4);
        assert_eq!(rows.intern(&[3, -3]), 0);
        assert_eq!(rows.intern(&[3, -4]), 1);
        assert_eq!(rows.intern(&[3, -3]), 0);
        assert_eq!(rows.intern(&[i64::MIN, i64::MAX]), 2);
        assert_eq!(rows.intern(&[3, -4]), 1);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(2), [i64::MIN, i64::MAX]);
    }

    #[test]
    fn interner_reset_forgets_and_resizes() {
        let mut rows = RowInterner::default();
        rows.reset(1, 1_000);
        for v in 0..1_000 {
            assert_eq!(rows.intern(&[v * 1024]), v as u32);
        }
        assert_eq!(rows.len(), 1_000);
        // A smaller, wider set on the same interner starts from scratch.
        rows.reset(3, 2);
        assert_eq!(rows.len(), 0);
        assert_eq!(rows.intern(&[0, 0, 1024]), 0);
        assert_eq!(rows.intern(&[0, 1024, 0]), 1);
        assert_eq!(rows.intern(&[0, 0, 1024]), 0);
    }
}
