//! The sectional coagulation model: physics shared by the reference and
//! distributed implementations.

/// Integration step for the explicit Euler update.
pub const DT: f32 = 1e-3;

/// Model parameters and state.
#[derive(Clone)]
pub struct NanoModel {
    /// Number of size sections (paper setup: `K = 3240`, making the
    /// coefficient matrix `K²·4 B ≈ 42 MB`).
    pub sections: usize,
    /// Base collision kernel, row-major `K × K` (constant part).
    pub coeff_base: Vec<f32>,
    /// Section concentrations.
    pub n: Vec<f32>,
}

/// The largest section count the model takes: `K² < 2³¹`, so every
/// `i + j + 2` and `i·j + 1` of the coefficient table is an exact `i32`.
pub(crate) const MAX_SECTIONS: usize = 46_340;

/// Refuse a section count the coefficient table's index math cannot
/// represent. [`NanoModel::new`] (and through it [`reference_simulation`])
/// and `run_nanopowder` start here, on the caller's thread, before
/// anything is allocated or a world exists.
pub(crate) fn check_sections(sections: usize) {
    assert!(
        sections <= MAX_SECTIONS,
        "nanopowder takes at most {MAX_SECTIONS} sections (K² < 2³¹), got {sections}"
    );
}

/// Row `i` of the coefficient table: `β(i,j) = (i+j+2) / √(i·j+1) · 10⁻³`
/// for `j` in `0..sections`.
///
/// The indices are `i32`, not `usize`: the baseline `x86-64` target has a
/// packed `i32 → f32` conversion and no packed `usize → f32` one, so with
/// `i32` rustc turns the row into packed convert, `sqrtps` and `divps`.
/// Every lane computes the scalar expression on the same operands in the
/// same order. IEEE `sqrt` and division are correctly rounded, and `i32 →
/// f32` rounds the same integer the same way `usize → f32` does, so the
/// bits are those of the `usize` loop (`tests::new_spec`) while
/// [`check_sections`] holds.
fn coefficient_row(i: usize, sections: usize) -> impl Iterator<Item = f32> {
    let i = i as i32;
    (0..sections as i32).map(move |j| ((i + j + 2) as f32) / ((i * j + 1) as f32).sqrt() * 1e-3)
}

impl NanoModel {
    /// Build the model: a smooth synthetic Brownian-like collision kernel
    /// `β(i,j) ~ (i+j+2)/(i·j+1)` scaled into f32 range, and an initial
    /// concentration spectrum concentrated in the smallest sections.
    ///
    /// Panics if `sections` exceeds 46,340: the table's `i32` index math
    /// needs `K² < 2³¹`.
    pub fn new(sections: usize) -> Self {
        check_sections(sections);
        // Extended row by row rather than zeroed and then written: the
        // table is `4·K²` bytes.
        let mut coeff_base = Vec::with_capacity(sections * sections);
        for i in 0..sections {
            coeff_base.extend(coefficient_row(i, sections));
        }
        let n = (0..sections)
            .map(|i| 1.0f32 / ((i + 1) as f32 * (i + 1) as f32))
            .collect();
        NanoModel {
            sections,
            coeff_base,
            n,
        }
    }

    /// Per-step temperature scaling of the collision kernel — the reason
    /// the coefficients must be redistributed every step, as in the
    /// paper's application.
    pub fn theta(step: usize) -> f32 {
        1.0 + 0.01 * (step as f32 + 1.0)
    }

    /// The scaled coefficient rows `[r0, r1)` for `step`, row-major.
    pub fn scaled_rows(&self, step: usize, r0: usize, r1: usize) -> Vec<f32> {
        let th = Self::theta(step);
        self.coeff_base[r0 * self.sections..r1 * self.sections]
            .iter()
            .map(|&c| c * th)
            .collect()
    }

    /// Host-side nucleation/condensation: a cheap serial update of the
    /// smallest sections (stands in for the "other phenomena" the paper's
    /// host thread computes).
    pub fn host_phase(&mut self, step: usize) {
        let th = Self::theta(step);
        let k = self.sections.min(16);
        for i in 0..k {
            // nucleation feeds the smallest sections, condensation drains
            // them slightly into the next one.
            let nuc = 1e-4 / (i + 1) as f32 * th;
            self.n[i] += nuc;
            if i + 1 < self.sections {
                let cond = self.n[i] * 1e-3;
                self.n[i] -= cond;
                self.n[i + 1] += cond * 0.5;
            }
        }
    }

    /// Apply a computed coagulation rate vector.
    pub fn integrate(&mut self, dn: &[f32]) {
        assert_eq!(dn.len(), self.sections);
        for (n, d) in self.n.iter_mut().zip(dn) {
            *n = (*n + DT * d).max(0.0);
        }
    }
}

/// Coagulation rates for rows `[r0, r1)`: the discrete Smoluchowski
/// equation with kernel rows `coeff` (already temperature-scaled, local
/// row-major of width `n.len()`):
///
/// `dN_i = ½ Σ_{j≤i} β_{i,j} N_j N_{i−j}  −  N_i Σ_j β_{i,j} N_j`
///
/// This loop (gain triangular + loss full row) is the `O(K²)` kernel the
/// devices execute; identical code runs in the reference, so distributed
/// results are bitwise comparable.
///
/// Each row is two `f32` sums in `j` order (`tests::coagulation_spec`).
/// One row alone is a chain of dependent adds, so the rows advance eight
/// at a time: every row keeps its own `gain` and `loss` accumulators and
/// adds the same terms to them in the same order, and interleaving
/// independent chains changes their latency, not their bits. Rows left
/// over when `r1 − r0` is not a multiple of eight take the one-row loop.
pub fn coagulation_step(coeff: &[f32], n: &[f32], r0: usize, r1: usize, out: &mut [f32]) {
    let k = n.len();
    assert_eq!(coeff.len(), (r1 - r0) * k, "coefficient rows shape");
    assert_eq!(out.len(), r1 - r0);
    let whole = (r1 - r0) / ROW_BLOCK * ROW_BLOCK;
    let (head, tail) = out.split_at_mut(whole);
    for (b, out) in head.chunks_exact_mut(ROW_BLOCK).enumerate() {
        let at = b * ROW_BLOCK;
        let rows = &coeff[at * k..(at + ROW_BLOCK) * k];
        coagulation_rows(rows, n, r0 + at, out);
    }
    for (i, out) in (r0 + whole..r1).zip(tail) {
        let row = &coeff[(i - r0) * k..(i - r0 + 1) * k];
        let mut gain = 0.0f32;
        for j in 0..=i {
            gain += row[j] * n[j] * n[i - j];
        }
        let mut loss = 0.0f32;
        for j in 0..k {
            loss += row[j] * n[j];
        }
        *out = 0.5 * gain - n[i] * loss;
    }
}

/// Rows [`coagulation_step`] advances together.
const ROW_BLOCK: usize = 8;

/// [`coagulation_step`] for the [`ROW_BLOCK`] rows `i..i + ROW_BLOCK`.
/// Row `i + q` sums `gain` over the prefix `j ≤ i` every row of the block
/// shares, then over its own tail `i < j ≤ i + q`; it sums `loss` over the
/// same prefix, then over the suffix `j > i`. In the prefix the loss term
/// `β·N_j` is also the gain term's first product, so it is rounded once
/// and used twice.
fn coagulation_rows(rows: &[f32], n: &[f32], i: usize, out: &mut [f32]) {
    let k = n.len();
    let row: [&[f32]; ROW_BLOCK] = std::array::from_fn(|q| &rows[q * k..][..k]);
    let mut gain = [0.0f32; ROW_BLOCK];
    let mut loss = [0.0f32; ROW_BLOCK];
    let prefix: [&[f32]; ROW_BLOCK] = std::array::from_fn(|q| &row[q][..=i]);
    for (j, &nj) in n[..=i].iter().enumerate() {
        // `mirror[q]` is `n[i + q - j]`.
        let mirror = &n[i - j..][..ROW_BLOCK];
        for q in 0..ROW_BLOCK {
            let p = prefix[q][j] * nj;
            gain[q] += p * mirror[q];
            loss[q] += p;
        }
    }
    for q in 1..ROW_BLOCK {
        for j in i + 1..=i + q {
            gain[q] += row[q][j] * n[j] * n[i + q - j];
        }
    }
    let suffix: [&[f32]; ROW_BLOCK] = std::array::from_fn(|q| &row[q][i + 1..]);
    for (j, &nj) in n[i + 1..].iter().enumerate() {
        for q in 0..ROW_BLOCK {
            loss[q] += suffix[q][j] * nj;
        }
    }
    for q in 0..ROW_BLOCK {
        out[q] = 0.5 * gain[q] - n[i + q] * loss[q];
    }
}

/// Number of pair interactions evaluated for rows `[r0, r1)` (gain
/// triangle + full loss rows) — drives the device-time model.
pub fn pair_count(k: usize, r0: usize, r1: usize) -> usize {
    let gain: usize = (r0..r1).map(|i| i + 1).sum();
    gain + (r1 - r0) * k
}

/// Run the whole simulation single-threaded (the validation oracle).
/// Returns the final concentration vector. Panics, through
/// [`NanoModel::new`], if `sections` exceeds 46,340.
pub fn reference_simulation(sections: usize, steps: usize) -> Vec<f32> {
    let mut m = NanoModel::new(sections);
    let mut dn = vec![0.0f32; sections];
    for step in 0..steps {
        m.host_phase(step);
        let rows = m.scaled_rows(step, 0, sections);
        coagulation_step(&rows, &m.n, 0, sections, &mut dn);
        m.integrate(&dn);
    }
    m.n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_initialization_is_positive_and_decreasing() {
        let m = NanoModel::new(64);
        assert!(m.n.iter().all(|&x| x > 0.0));
        assert!(m.n[0] > m.n[10]);
        assert_eq!(m.coeff_base.len(), 64 * 64);
    }

    #[test]
    fn theta_scales_rows() {
        let m = NanoModel::new(8);
        let r = m.scaled_rows(4, 2, 3);
        let expect: Vec<f32> = m.coeff_base[16..24]
            .iter()
            .map(|&c| c * NanoModel::theta(4))
            .collect();
        assert_eq!(r, expect);
    }

    #[test]
    fn coagulation_conserves_sign_structure() {
        let m = NanoModel::new(32);
        let rows = m.scaled_rows(0, 0, 32);
        let mut dn = vec![0.0f32; 32];
        coagulation_step(&rows, &m.n, 0, 32, &mut dn);
        // Smallest section only loses (no gain pairs besides 0+0).
        assert!(dn[31].abs() < dn[0].abs() * 1e3, "rates finite");
        assert!(dn.iter().any(|&d| d < 0.0), "loss exists");
    }

    #[test]
    fn block_decomposition_matches_full_run() {
        let m = NanoModel::new(48);
        let rows_full = m.scaled_rows(1, 0, 48);
        let mut full = vec![0.0f32; 48];
        coagulation_step(&rows_full, &m.n, 0, 48, &mut full);
        let mut blocked = vec![0.0f32; 48];
        for (r0, r1) in [(0usize, 16usize), (16, 40), (40, 48)] {
            let rows = m.scaled_rows(1, r0, r1);
            coagulation_step(&rows, &m.n, r0, r1, &mut blocked[r0..r1]);
        }
        assert_eq!(full, blocked, "row blocking is exact");
    }

    #[test]
    fn pair_count_totals() {
        let k = 10;
        let total = pair_count(k, 0, k);
        assert_eq!(total, (1..=k).sum::<usize>() + k * k);
        let split = pair_count(k, 0, 4) + pair_count(k, 4, 10);
        assert_eq!(split, total);
    }

    #[test]
    fn reference_simulation_is_deterministic_and_finite() {
        let a = reference_simulation(64, 5);
        let b = reference_simulation(64, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| x.is_finite() && *x >= 0.0));
    }

    /// The scalar loop that defines rows `[i0, i1)` of the coefficient
    /// table: `usize` indices, one element at a time.
    fn new_spec(sections: usize, i0: usize, i1: usize) -> Vec<f32> {
        let mut rows = vec![0.0f32; (i1 - i0) * sections];
        for i in i0..i1 {
            for j in 0..sections {
                rows[(i - i0) * sections + j] =
                    ((i + j + 2) as f32) / ((i * j + 1) as f32).sqrt() * 1e-3;
            }
        }
        rows
    }

    /// The scalar loop that defines `coagulation_step`: one row at a time,
    /// `gain` and `loss` each summed in `j` order.
    fn coagulation_spec(coeff: &[f32], n: &[f32], r0: usize, r1: usize, out: &mut [f32]) {
        let k = n.len();
        for i in r0..r1 {
            let row = &coeff[(i - r0) * k..(i - r0 + 1) * k];
            let mut gain = 0.0f32;
            for j in 0..=i {
                gain += row[j] * n[j] * n[i - j];
            }
            let mut loss = 0.0f32;
            for j in 0..k {
                loss += row[j] * n[j];
            }
            out[i - r0] = 0.5 * gain - n[i] * loss;
        }
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "length, {what}");
        for (c, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "element {c}, {what}");
        }
    }

    const SIZES: [usize; 13] = [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 257];

    /// Whole tables at 13 sizes, and single rows up to the largest size
    /// the model takes. Below `i·j + 1 = 2²⁴` every index is exact in
    /// `f32`, so only the large rows can tell the integer product from a
    /// floating one; in debug they also prove that no `i32` overflows.
    #[test]
    fn new_matches_the_scalar_spec_bit_for_bit() {
        for k in SIZES {
            assert_bits(
                &NanoModel::new(k).coeff_base,
                &new_spec(k, 0, k),
                &format!("K {k}"),
            );
        }
        let mut rng = simtime::XorShift64::new(27);
        for k in [4_097, 20_000, MAX_SECTIONS] {
            let random = std::array::from_fn::<_, 4, _>(|_| rng.gen_range_usize(4_096, k));
            for i in [0, 1, k / 2, k - 2, k - 1].into_iter().chain(random) {
                let got: Vec<f32> = coefficient_row(i, k).collect();
                assert_bits(&got, &new_spec(k, i, i + 1), &format!("K {k} row {i}"));
            }
        }
    }

    #[test]
    fn sections_up_to_the_i32_bound_are_accepted() {
        check_sections(MAX_SECTIONS);
        let square = |k: usize| (k * k) as u64;
        assert!(square(MAX_SECTIONS) < 1 << 31);
        assert!(square(MAX_SECTIONS + 1) >= 1 << 31);
    }

    /// Every block length from 0 to two row blocks and one more, at the
    /// start, the end and a random offset of 13 section counts, against
    /// the scalar spec, bit for bit. Coefficients take either sign and
    /// concentrations span twenty binary orders, so a reassociated product
    /// or a split sum rounds differently somewhere.
    #[test]
    fn coagulation_matches_the_scalar_spec_bit_for_bit() {
        const SENTINEL: f32 = -777.0;
        fn spread(rng: &mut simtime::XorShift64) -> f32 {
            1.0 / (1u32 << rng.gen_range_usize(0, 21)) as f32
        }
        let mut rng = simtime::XorShift64::new(27);
        for k in SIZES {
            let n: Vec<f32> = (0..k)
                .map(|_| (rng.next_f32() + 0.5) * spread(&mut rng))
                .collect();
            for len in 0..=(2 * ROW_BLOCK + 1).min(k) {
                for r0 in [0, k - len, rng.gen_range_usize(0, k - len + 1)] {
                    let r1 = r0 + len;
                    let coeff: Vec<f32> = (0..len * k)
                        .map(|_| (rng.next_f32() - 0.5) * spread(&mut rng))
                        .collect();
                    let mut want = vec![SENTINEL; len];
                    let mut got = want.clone();
                    coagulation_spec(&coeff, &n, r0, r1, &mut want);
                    coagulation_step(&coeff, &n, r0, r1, &mut got);
                    assert_bits(&got, &want, &format!("K {k}, rows {r0}..{r1}"));
                }
            }
        }
    }
}
