//! The physics, pinned: `fnv1a` over the bits of the coefficient table and
//! of the serial reference. Every other nanopowder oracle — the
//! distributed runs in `distributed.rs`, the benchmark's bitwise check,
//! `results/fig10.txt` — compares against `reference_simulation`, so a
//! kernel that is wrong the same way everywhere passes them all. These
//! rows were recorded before the kernels were vectorised and are never
//! re-recorded: a mismatch is a finding.

use nanopowder::{reference_simulation, NanoModel};
use simtime::fnv1a;

fn hash(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// `(K, fnv1a(NanoModel::new(K).coeff_base), fnv1a(reference_simulation(K, 1)),
/// fnv1a(reference_simulation(K, 3)))`.
#[rustfmt::skip]
const PINNED: &[(usize, u64, u64, u64)] = &[
    (48, 0xc21c8e2a4fefac6d, 0xf2689dc76c0c27ce, 0xc4864bd4d24d1d9f),
    (333, 0xa9018fd12b5d9944, 0x657a1e9228ea770f, 0x453a0233cf8a48c1),
    (1024, 0xa85df5d1657436de, 0x5be159df042f71b5, 0xd842c6709d03c9e3),
    (2048, 0x16589a91cac83d25, 0x3c33224a79041a03, 0x74e9206d68a3471d),
];

#[test]
fn coefficient_table_and_reference_reproduce_their_pinned_bits() {
    let mut table = String::new();
    let mut moved = 0;
    for &(k, coeff, one, three) in PINNED {
        let got = (
            k,
            hash(&NanoModel::new(k).coeff_base),
            hash(&reference_simulation(k, 1)),
            hash(&reference_simulation(k, 3)),
        );
        moved += usize::from(got != (k, coeff, one, three));
        table.push_str(&format!(
            "    ({}, {:#018x}, {:#018x}, {:#018x}),{}\n",
            got.0,
            got.1,
            got.2,
            got.3,
            if got == (k, coeff, one, three) {
                ""
            } else {
                " // moved"
            }
        ));
    }
    assert_eq!(moved, 0, "{moved} pinned row(s) moved; measured:\n{table}");
}
