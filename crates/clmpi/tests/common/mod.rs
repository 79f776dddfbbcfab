//! What the committed fingerprint tables share.

/// Measure every committed row (`measure` gets the committed row and
/// returns the measured one) and fail with the measured table, each row
/// printed by `show`, if any moved — ready to paste, though a change that
/// does not mean to move virtual time must not need to.
pub fn check_rows<R: Copy + PartialEq>(
    rows: &[R],
    measure: impl Fn(R) -> R,
    show: impl Fn(R) -> String,
) {
    let mut table = String::new();
    let mut moved = 0;
    for &want in rows {
        let got = measure(want);
        moved += usize::from(got != want);
        let mark = if got == want { "" } else { " // moved" };
        table.push_str(&format!("    {},{mark}\n", show(got)));
    }
    assert_eq!(
        moved, 0,
        "{moved} committed row(s) moved; measured:\n{table}"
    );
}
