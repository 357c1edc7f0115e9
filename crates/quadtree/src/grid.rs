//! Shifted-grid cell identification.
//!
//! All three quadtree algorithms reduce to the same primitive: quantise a
//! point against a randomly shifted grid of a given cell side and identify
//! the occupied cells with a dictionary (Algorithm 2 line 4). Grid sides are
//! exact power-of-two multiples of each other and share one shift, so the
//! cell coordinate `s` levels coarser is exactly `c >> s` — every coarser
//! grid is a bit prefix, as in RASTER's tile truncation. Crude-Approx and
//! Reduce-Spread quantise once, at the finest level they look at
//! ([`grid_coord`]). The quadtree quantises in `WINDOW`-level windows of
//! `u16` cells: below a cell its rows share, the next sixteen levels of any
//! coordinate are sixteen bits, and four of them make one `u64` word, so a
//! row of `d` cells is `⌈d/4⌉` words that XOR, OR and mask four cells at a
//! time. The first window covers every row (`first_window`); a later one
//! only the rows of a node that still share one cell at the end of the
//! previous window (`next_window`). The dictionary is a `RowInterner`:
//! exact integer rows, dense ids in first-appearance order, `O(rows)` to
//! reset, no allocation per row.

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

/// 2^52: the sum of this and a float in `[0, 2^52)` is that float rounded
/// to an integer, held in the sum's low mantissa bits.
const MAGIC: f64 = 4_503_599_627_370_496.0;

/// Levels in one window of quadtree cells: a cell coordinate relative to a
/// cell its rows share, this many levels further down, fits a `u16`.
pub(crate) const WINDOW: u32 = 16;

/// Window cells per word: cell `j` of a row is lane `j % 4` (bits
/// `16·(j % 4)` up) of the row's word `j / 4`; the lanes past the last
/// dimension are zero in every row.
pub(crate) const LANES: usize = 4;

/// The OR of a word's four cells.
#[inline]
pub(crate) fn fold_lanes(word: u64) -> u16 {
    (word | word >> 16 | word >> 32 | word >> 48) as u16
}

/// The OR over `rows` of each row's words XOR `first`'s, folded to one cell.
fn differing<'a>(first: &[u64], rows: impl Iterator<Item = &'a [u64]>) -> u16 {
    let any = rows.fold(0, |acc, row| {
        row.iter()
            .zip(first)
            .fold(acc, |acc, (&w, &w0)| acc | (w ^ w0))
    });
    fold_lanes(any)
}

/// Quantises one row: `scratch[j] = cell(x_j, origin_j)` in a pass of its
/// own, so that the divisions run several to an instruction, then packed
/// into the row's words.
#[inline]
fn quantise_row(
    words: &mut [u64],
    coords: &[f64],
    origin: &[f64],
    scratch: &mut [u16],
    cell: impl Fn(f64, f64) -> u16,
) {
    for ((c, &x), &o) in scratch.iter_mut().zip(coords).zip(origin) {
        *c = cell(x, o);
    }
    for (word, four) in words.iter_mut().zip(scratch.chunks(LANES)) {
        *word = four
            .iter()
            .rev()
            .fold(0, |word, &c| word << 16 | u64::from(c));
    }
}

/// The quadtree's first window: each row's cells `min(grid_coord(x_ij,
/// origin_j, side), cap)` with `cap < 2^16`, `⌈d/4⌉` words a row for
/// `d = origin.len()`, and the OR over rows and dimensions of each cell XOR
/// its first row's. Every coordinate lies at or above its origin, so the
/// quotient is not negative (a NaN one counts as 0, as in `grid_coord`),
/// and capping it before the floor is capping the floor.
pub(crate) fn first_window(coords: &[f64], origin: &[f64], side: f64, cap: u16) -> (Vec<u64>, u16) {
    let dim = origin.len();
    let words = dim.div_ceil(LANES);
    let cap = f64::from(cap);
    let cell = |x: f64, o: f64| {
        // The floor of the capped quotient in float arithmetic alone, so
        // that a row quantises several cells to an instruction: adding
        // 2^52 rounds to an integer, a step down where that rounded up
        // makes it the floor, and the sum's low mantissa bits are it.
        let q = ((x - o) / side).max(0.0).min(cap);
        let rounded = (q + MAGIC) - MAGIC;
        let floor = rounded - f64::from(u8::from(rounded > q));
        (floor + MAGIC).to_bits() as u16
    };
    let mut cells = vec![0; coords.len() / dim * words];
    let mut scratch = vec![0; dim];
    for (row, x) in cells.chunks_exact_mut(words).zip(coords.chunks_exact(dim)) {
        quantise_row(row, x, origin, &mut scratch, cell);
    }
    let any = differing(&cells[..words], cells.chunks_exact(words));
    (cells, any)
}

/// Re-quantises the given rows of `cells` (indexed by row, as
/// [`first_window`] lays them out) at the window that ends at the level of
/// pitch `side`, and returns the OR over the rows and dimensions of each
/// cell XOR the first row's. The rows share one cell `span ≤ WINDOW` levels
/// up, so each full coordinate `min(grid_coord(x, o, side), cap)` differs
/// from the others only in its low `span` bits, which are what is kept.
pub(crate) fn next_window(
    coords: &[f64],
    origin: &[f64],
    rows: &[u32],
    cells: &mut [u64],
    (side, cap, span): (f64, i64, u32),
) -> u16 {
    debug_assert!(span <= WINDOW);
    let dim = origin.len();
    let words = dim.div_ceil(LANES);
    let low = (1i64 << span) - 1;
    let cell = |x: f64, o: f64| (grid_coord(x, o, side).min(cap) & low) as u16;
    let mut scratch = vec![0; dim];
    for &i in rows {
        let (row, x) = (i as usize * words, i as usize * dim);
        quantise_row(
            &mut cells[row..][..words],
            &coords[x..][..dim],
            origin,
            &mut scratch,
            cell,
        );
    }
    let row = |i: u32| &cells[i as usize * words..][..words];
    differing(row(rows[0]), rows.iter().map(|&i| row(i)))
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

    /// [`intern`](Self::intern) of a one-column row, the same id for the
    /// same row; for a caller whose rows are one word wide, it skips the
    /// column loops.
    #[inline]
    pub(crate) fn intern_word(&mut self, word: i64) -> u32 {
        debug_assert_eq!(self.width, 1);
        let dot = (word as u64).wrapping_mul(self.multipliers[0]);
        let hash = (dot ^ (dot >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut slot = (hash >> 32) as usize & self.mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                let id = self.len as u32;
                debug_assert!(2 * self.len <= self.mask, "more rows than reset allowed");
                self.slots[slot] = id;
                self.rows.push(word);
                self.len += 1;
                return id;
            }
            if self.rows[id as usize] == word {
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

    /// Cell `j` of row `i` of a window.
    fn cell(cells: &[u64], dim: usize, i: usize, j: usize) -> u16 {
        (cells[i * dim.div_ceil(LANES) + j / LANES] >> (16 * (j % LANES))) as u16
    }

    #[test]
    fn first_window_is_grid_coord_capped() {
        let coords: Vec<f64> = (0..90).map(|i| f64::from(i) * 0.37 - 9.0).collect();
        // Five dimensions: two words a row, the second with three empty lanes.
        let origin = [-9.5, -9.25, -9.0, -9.0, -10.0];
        for (side, cap) in [(0.5, u16::MAX), (0.5, 15), (1e-4, u16::MAX), (40.0, 0)] {
            let (cells, any) = first_window(&coords, &origin, side, cap);
            assert_eq!(cells.len(), 18 * 2);
            let mut or = 0;
            for (i, row) in coords.chunks_exact(5).enumerate() {
                for (j, (&x, &o)) in row.iter().zip(&origin).enumerate() {
                    let expected = grid_coord(x, o, side).min(i64::from(cap)) as u16;
                    assert_eq!(cell(&cells, 5, i, j), expected, "side {side}, cap {cap}");
                    or |= expected ^ cell(&cells, 5, 0, j);
                }
                assert_eq!(cells[2 * i + 1] >> 16, 0, "lanes past the last dimension");
            }
            assert_eq!(any, or);
        }
    }

    #[test]
    fn first_window_floors_exactly() {
        // Quotients on, one ulp either side of and halfway between the
        // integers of the window, past its cap, and the non-finite ones;
        // one dimension, so each is its own row.
        let mut xs = vec![
            -0.0,
            f64::NAN,
            f64::INFINITY,
            65_535.999_999_999,
            65_536.0,
            1e300,
        ];
        for k in (0..=65_536u32).step_by(7).chain([1, 2, 3, 65_534, 65_535]) {
            let k = f64::from(k);
            xs.extend([k, k + 0.5, f64::from_bits(k.to_bits() + 1)]);
            if k > 0.0 {
                xs.push(f64::from_bits(k.to_bits() - 1));
            }
        }
        for cap in [u16::MAX, 1_000, 0] {
            let (cells, _) = first_window(&xs, &[0.0], 1.0, cap);
            for (&x, &c) in xs.iter().zip(&cells) {
                let expected = grid_coord(x, 0.0, 1.0).min(i64::from(cap));
                assert_eq!(c, expected as u64, "x = {x}, cap {cap}");
            }
        }
    }

    #[test]
    fn next_window_keeps_the_bits_below_the_shared_cell() {
        // Three rows that share a cell 16 levels above the side quantised
        // at, and one row elsewhere that the call must leave alone.
        let side = 2f64.powi(-20);
        let coords = [0.75, 0.75 + 3.0 * side, 0.75 + 40_000.0 * side, 0.25];
        let mut cells = vec![7u64; 4];
        let any = next_window(
            &coords,
            &[0.0],
            &[2, 0, 1],
            &mut cells,
            (side, (1 << 20) - 1, 16),
        );
        let low = |x: f64| (grid_coord(x, 0.0, side) & 0xFFFF) as u64;
        assert_eq!(cells, [low(0.75), low(coords[1]), low(coords[2]), 7]);
        assert_eq!(
            u64::from(any),
            (cells[0] ^ cells[2]) | (cells[1] ^ cells[2])
        );
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
    fn intern_word_is_intern_of_a_one_column_row() {
        let mut rows = RowInterner::default();
        rows.reset(1, 64);
        for (i, v) in [5i64, -5, 5, i64::MIN, 0, -5, 1 << 40, 0]
            .into_iter()
            .enumerate()
        {
            let id = if i % 2 == 0 {
                rows.intern_word(v)
            } else {
                rows.intern(&[v])
            };
            assert_eq!(rows.row(id), [v]);
        }
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.intern_word(1 << 40), 4);
        assert_eq!(rows.intern(&[i64::MIN]), 2);
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
