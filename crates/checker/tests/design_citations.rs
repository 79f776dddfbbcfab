//! Tier-1: every citation of a DESIGN.md section by number in the code,
//! the tests, the benchmark, the examples, CI and the verify notes names
//! a `## N.` section of DESIGN.md, and every quoted title after it names
//! a heading or a bold lead inside that section. A renamed or removed
//! section fails here instead of leaving a reader at a dead end.

use std::fs;
use std::path::{Path, PathBuf};

use checker::workspace_root;

/// The trees scanned, relative to the workspace root.
const SCANNED: [&str; 7] = [
    "crates",
    "src",
    "tests",
    "benchmark",
    "examples",
    ".github",
    ".claude",
];

/// What a citation starts with. Spelled in two pieces so this file does
/// not cite anything itself.
fn marker() -> String {
    ["DESIGN", ".md §"].concat()
}

/// `text` as one line: each line's leading comment marker (`//!`, `///`,
/// `//`, `#`) and indentation dropped, so a citation wrapped across
/// comment lines reads as written.
fn flatten(text: &str) -> String {
    let strip = |line: &str| {
        let line = line.trim_start();
        ["//!", "///", "//", "#"]
            .iter()
            .find_map(|m| line.strip_prefix(m))
            .unwrap_or(line)
            .trim()
            .to_string()
    };
    text.lines().map(strip).collect::<Vec<_>>().join(" ")
}

/// Every citation in `text`: the section id and the quoted titles after
/// it, in order.
fn citations(text: &str) -> Vec<(String, Vec<String>)> {
    let flat = flatten(text);
    let marker = marker();
    let mut found = Vec::new();
    for (at, _) in flat.match_indices(&marker) {
        let rest = &flat[at + marker.len()..];
        let id: String = rest
            .chars()
            .take_while(char::is_ascii_alphanumeric)
            .collect();
        let mut rest = &rest[id.len()..];
        let mut titles = Vec::new();
        loop {
            let next = rest.trim_start_matches([',', ' ']);
            let skipped = rest.len() - next.len();
            // The first title may follow the id directly or after a
            // comma; a later one only after a comma.
            if !next.starts_with('"') || (!titles.is_empty() && !rest[..skipped].contains(',')) {
                break;
            }
            let Some(end) = next[1..].find('"') else {
                break;
            };
            titles.push(next[1..1 + end].to_string());
            rest = &next[end + 2..];
        }
        found.push((id, titles));
    }
    found
}

/// DESIGN.md's `## N.` sections: id and body.
fn sections(design: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in design.lines() {
        let heading = line.strip_prefix("## ").and_then(|h| h.split_once(". "));
        match (heading, out.last_mut()) {
            (Some((id, _)), _) => out.push((id.to_string(), String::new())),
            (None, Some((_, body))) => {
                body.push_str(line);
                body.push('\n');
            }
            (None, None) => {}
        }
    }
    out
}

/// The titles a section offers: its headings and the bold text that
/// leads a line or bullet, each with trailing `.` / `:` and runs of
/// whitespace normalised away.
fn offered(body: &str) -> Vec<String> {
    let tidy = |t: &str| {
        let t = t.split_whitespace().collect::<Vec<_>>().join(" ");
        t.trim_end_matches(['.', ':']).to_string()
    };
    let mut out = Vec::new();
    let lines: Vec<&str> = body.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let line = line.trim_start();
        if let Some(h) = line.strip_prefix('#') {
            out.push(tidy(h.trim_start_matches('#')));
            continue;
        }
        let lead = line
            .strip_prefix("* ")
            .or(line.strip_prefix("- "))
            .unwrap_or(line);
        let Some(bold) = lead.strip_prefix("**") else {
            continue;
        };
        // A bold lead may wrap onto the next lines.
        let joined = std::iter::once(bold)
            .chain(lines[i + 1..].iter().take(3).copied())
            .collect::<Vec<_>>()
            .join(" ");
        if let Some((title, _)) = joined.split_once("**") {
            out.push(tidy(title));
        }
    }
    out
}

/// What is wrong with each citation in `text` against `design`'s
/// sections, one line each.
fn dead_ends(text: &str, design: &[(String, String)]) -> Vec<String> {
    let mut wrong = Vec::new();
    for (id, titles) in citations(text) {
        let Some((_, body)) = design.iter().find(|(s, _)| *s == id) else {
            wrong.push(format!("§{id}: no such section"));
            continue;
        };
        let offered = offered(body);
        for title in titles {
            let title = title.split_whitespace().collect::<Vec<_>>().join(" ");
            if !offered.iter().any(|o| o.starts_with(&title)) {
                wrong.push(format!("§{id} \"{title}\": no such heading or bold lead"));
            }
        }
    }
    wrong
}

/// Every file under `dir`, skipping build output and git metadata.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).into_iter().flatten().flatten();
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn every_design_citation_names_a_section_and_its_titles() {
    let root = workspace_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let design = sections(&design);
    assert!(design.len() > 10, "DESIGN.md has its sections");
    let mut paths = Vec::new();
    for dir in SCANNED {
        files(&root.join(dir), &mut paths);
    }
    let (mut cited, mut wrong) = (0, Vec::new());
    for path in paths {
        // Binary files and anything that is not UTF-8 cite nothing.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        cited += citations(&text).len();
        for w in dead_ends(&text, &design) {
            wrong.push(format!(
                "{}: {w}",
                path.strip_prefix(&root).unwrap_or(&path).display()
            ));
        }
    }
    assert!(
        cited > 30,
        "sanity: the workspace cites DESIGN.md {cited} times"
    );
    assert!(
        wrong.is_empty(),
        "dead DESIGN.md citations:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn a_missing_section_or_title_is_a_dead_end() {
    let design = sections(
        "intro\n## 3. Crates\n* **The piece table.** A map.\n**Host kernels** lead a paragraph.\n\
         ## 14. Core\n### Allocator: a world's memory\n* **A bold lead that\n  wraps.** Text.\n",
    );
    let cite = |rest: &str| format!("// see {}{rest}\n", marker());
    let good = [
        cite("3 \"The piece table\", \"Host kernels\")"),
        cite("14, \"Allocator\""),
        cite("14 \"A bold lead\n// that wraps\""),
        cite("3 for the crates"),
    ];
    for text in &good {
        assert_eq!(dead_ends(text, &design), Vec::<String>::new(), "{text}");
    }
    assert_eq!(
        dead_ends(&cite("99 \"Anything\""), &design),
        ["§99: no such section"]
    );
    assert_eq!(
        dead_ends(&cite("3 \"Landed extents\", \"Host kernels\""), &design),
        ["§3 \"Landed extents\": no such heading or bold lead"]
    );
    assert_eq!(
        dead_ends(&cite("14 \"The piece table\""), &design),
        ["§14 \"The piece table\": no such heading or bold lead"]
    );
}
