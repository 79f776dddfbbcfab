//! The panic-path ratchet baseline: a committed count of `unwrap(` /
//! `expect(` / `panic!` / `unreachable!` occurrences per crate — what it
//! ships (`[<crate>]`: `src/` outside `#[cfg(test)]` modules) apart from
//! its test code (`[<crate>.tests]`: those modules and `tests/`) — stored
//! in `crates/checker/baseline.toml` and parsed by this hand-rolled reader
//! (the workspace has zero external dependencies, so no `toml` crate).
//!
//! Grammar — a strict subset of TOML, enough for the ratchet:
//!
//! ```toml
//! # comment
//! [crate-name]
//! unwrap = 12
//! expect = 3
//! panic = 1
//! unreachable = 0
//!
//! [crate-name.tests]
//! unwrap = 40
//!
//! [allow]
//! lock-lifetime = 2
//! ```
//!
//! The `[allow]` section pins the count of `// checker-allow(<pass>):`
//! markers per pass, so a new suppression is as visible in review as a
//! new panic path.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-crate counts of the four panic-path forms.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub unwrap: usize,
    pub expect: usize,
    pub panic: usize,
    pub unreachable: usize,
}

/// Baseline table, ordered by section name so serialization is canonical.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Keyed by section name: `<crate>` or `<crate>.tests`.
    pub crates: BTreeMap<String, Counts>,
    /// `checker-allow(<pass>)` marker counts, keyed by pass id.
    pub allows: BTreeMap<String, usize>,
}

impl Baseline {
    /// Parse `baseline.toml` text. Returns `Err(line-number, message)` on
    /// anything outside the grammar — a malformed baseline must fail the
    /// build loudly, not silently reset the ratchet to zero.
    pub fn parse(text: &str) -> Result<Baseline, (u32, String)> {
        let mut out = Baseline::default();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let name = name.trim().to_string();
                if name != "allow" {
                    out.crates.entry(name.clone()).or_default();
                }
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err((lineno, format!("expected `key = value`, got `{line}`")));
            };
            let Some(section) = &current else {
                return Err((lineno, "key outside any [crate] section".to_string()));
            };
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| (lineno, format!("`{}` is not a count", value.trim())))?;
            if section == "allow" {
                out.allows.insert(key.trim().to_string(), n);
                continue;
            }
            let counts = out.crates.get_mut(section).expect("section inserted above");
            match key.trim() {
                "unwrap" => counts.unwrap = n,
                "expect" => counts.expect = n,
                "panic" => counts.panic = n,
                "unreachable" => counts.unreachable = n,
                other => return Err((lineno, format!("unknown key `{other}`"))),
            }
        }
        Ok(out)
    }

    /// Canonical serialization, suitable for committing.
    pub fn serialize(&self) -> String {
        let mut s = String::from(
            "# Panic-path and allow-marker ratchet baseline (checker pass 3).\n\
             # Counts of unwrap( / expect( / panic! / unreachable! tokens per library\n\
             # crate, comments and strings excluded: [<crate>] is src/ outside\n\
             # #[cfg(test)] modules, [<crate>.tests] those modules and tests/; plus\n\
             # checker-allow(<pass>) marker counts in [allow].\n\
             # New code may only move these numbers DOWN. After an improvement,\n\
             # regenerate with: cargo run -p checker -- --write-baseline\n",
        );
        for (krate, c) in &self.crates {
            let _ = write!(
                s,
                "\n[{krate}]\nunwrap = {}\nexpect = {}\npanic = {}\nunreachable = {}\n",
                c.unwrap, c.expect, c.panic, c.unreachable
            );
        }
        if !self.allows.is_empty() {
            s.push_str("\n[allow]\n");
            for (pass, n) in &self.allows {
                let _ = writeln!(s, "{pass} = {n}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let b = Baseline::parse(
            "# hi\n[clmpi]\nunwrap = 3\nexpect=2\nunreachable = 4\n\n[simtime]\npanic = 1\n\
             \n[allow]\nlock-lifetime = 2\ndeterminism = 1\n",
        )
        .expect("valid baseline parses");
        assert_eq!(b.crates["clmpi"].unwrap, 3);
        assert_eq!(b.crates["clmpi"].expect, 2);
        assert_eq!(b.crates["clmpi"].unreachable, 4);
        assert_eq!(b.crates["simtime"].panic, 1);
        assert_eq!(b.allows["lock-lifetime"], 2);
        assert_eq!(b.allows["determinism"], 1);
        assert!(
            !b.crates.contains_key("allow"),
            "[allow] is not a crate section"
        );
        assert_eq!(
            Baseline::parse(&b.serialize()).expect("canonical form reparses"),
            b
        );
    }

    #[test]
    fn malformed_baseline_is_an_error_not_zero() {
        assert!(Baseline::parse("unwrap = 3").is_err(), "key before section");
        assert!(Baseline::parse("[c]\nunwrap three").is_err(), "no `=`");
        assert!(
            Baseline::parse("[c]\nunwrap = many").is_err(),
            "not a count"
        );
        assert!(Baseline::parse("[c]\nunknown = 3").is_err(), "unknown key");
    }
}
