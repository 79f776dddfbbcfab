//! The physics, pinned: the bits of `reference_jacobi`'s residual, an
//! `fnv1a` over the bits of its final field, and the bits of that field's
//! interior checksum. Every other Himeno oracle — the variants in
//! `variants.rs`, the recovery tests, the benchmark's bitwise check —
//! compares against `reference_jacobi`, so a kernel that is wrong the same
//! way everywhere passes them all. These rows were recorded before the
//! residual was summed in lanes and are never re-recorded: a mismatch is a
//! finding.

use himeno::{interior_checksum, reference_jacobi, GridSize};
use simtime::fnv1a;

fn hash(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// `(size, iters, gosa.to_bits(), fnv1a(p), interior_checksum(p).to_bits())`.
#[rustfmt::skip]
const PINNED: &[(GridSize, usize, u64, u64, u64)] = &[
    (GridSize::Xs, 1, 0x3f7a47a524020000, 0xb42ddb0eba40699b, 0x40d36a5c1e025dc0),
    (GridSize::Xs, 4, 0x3f77c890c15a0000, 0x11b72427430acfa4, 0x40d375b95dc05fe0),
    (GridSize::S, 3, 0x3f6a637872f1b400, 0x4a291eed3cf6aa89, 0x41045cae6e6eff5a),
    (GridSize::M, 2, 0x3f5b987fb9a62e40, 0xa7b273dbf09157a9, 0x4134d6ef4531bf2e),
    (GridSize::Custom(9, 33, 1031), 3, 0x401483fadef0a400, 0xe1e98c0afa43f8e8, 0x40f1afd9f0cac500),
];

#[test]
fn reference_solve_reproduces_its_pinned_bits() {
    let mut table = String::new();
    let mut moved = 0;
    for &(size, iters, gosa, field, sum) in PINNED {
        let (mi, mj, mk) = size.dims();
        let r = reference_jacobi(size, iters);
        let got = (
            r.gosa.to_bits(),
            hash(&r.p),
            interior_checksum(&r.p, mj, mk, 1..mi - 1).to_bits(),
        );
        let same = got == (gosa, field, sum);
        moved += usize::from(!same);
        table.push_str(&format!(
            "    (GridSize::{size:?}, {iters}, {:#018x}, {:#018x}, {:#018x}),{}\n",
            got.0,
            got.1,
            got.2,
            if same { "" } else { " // moved" }
        ));
    }
    assert_eq!(moved, 0, "{moved} pinned row(s) moved; measured:\n{table}");
}
