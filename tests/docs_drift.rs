//! Docs that cannot drift: the tier-1 stage list is written in four places
//! (`scripts/tier1.sh` three times, the CI matrix once) and counted in
//! prose in README. They must agree. (README's fault-matrix cell count is
//! checked where the count is computed: `crates/core/tests/faults.rs`.)

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The words after `marker` on the first line of `text` that contains it,
/// up to a closing `)` or `]` if there is one.
fn words_after(text: &str, marker: &str) -> Vec<String> {
    let line = text
        .lines()
        .find(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("no line containing {marker:?}"));
    let rest = &line[line.find(marker).expect("just found") + marker.len()..];
    let list = rest.split([')', ']']).next().expect("split yields one");
    list.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn tier1_stage_list_agrees_everywhere() {
    let sh = read("scripts/tier1.sh");
    let default_run = words_after(&sh, "set -- ");
    assert!(
        default_run.len() >= 2,
        "default stage list: {default_run:?}"
    );
    assert_eq!(words_after(&sh, "#   stages: "), default_run, "usage line");
    let case_arm = sh
        .lines()
        .find(|l| l.trim_end().ends_with(") ;;") && l.contains(" | "))
        .expect("run_stage case arm");
    assert_eq!(words_after(case_arm, ""), default_run, "case arm");
    assert_eq!(
        words_after(&sh, "(stages: "),
        default_run,
        "unknown-stage message"
    );
    for stage in &default_run {
        assert!(sh.contains(&format!("stage_{stage}() {{")), "stage_{stage}");
    }

    let ci = read(".github/workflows/ci.yml");
    assert_eq!(words_after(&ci, "stage: ["), default_run, "CI job matrix");

    const WORDS: [&str; 16] = [
        "zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
        "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    ];
    let claim = format!("all {} stages", WORDS[default_run.len()]);
    assert!(
        read("README.md").contains(&claim),
        "README must say {claim:?}"
    );
}
