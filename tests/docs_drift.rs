//! Docs that cannot drift: the tier-1 stage list is written in four places
//! (`scripts/tier1.sh` three times, the CI matrix once) and counted in
//! prose in README. They must agree. (README's fault-matrix cell count is
//! checked where the count is computed: `crates/core/tests/faults.rs`.)
//! EXPERIMENTS.md's paper-vs-measured tables, and its tables of the
//! beyond-paper figures, must print the numbers in
//! `results/BENCH_paper.json`, which the tier-1 `paper` stage regenerates.

use std::collections::HashMap;
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

/// `results/BENCH_paper.json`: flat `"key": value` lines.
fn bench_paper() -> HashMap<String, f64> {
    read("results/BENCH_paper.json")
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            let v = v.trim().trim_end_matches(',').parse().ok()?;
            Some((k.trim().trim_matches('"').to_string(), v))
        })
        .collect()
}

/// The first markdown table after the line starting with `heading`: its
/// header cells, then each row's cells, with `**` emphasis removed.
fn md_table(doc: &str, heading: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let cells = |l: &str| -> Vec<String> {
        let l = l.trim().trim_matches('|');
        l.split('|').map(|c| c.trim().replace("**", "")).collect()
    };
    let mut lines = doc
        .lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip_while(|l| !l.starts_with('|'));
    let header = cells(
        lines
            .next()
            .unwrap_or_else(|| panic!("no table under {heading:?}")),
    );
    let rows = lines.skip(1).take_while(|l| l.starts_with('|'));
    (header, rows.map(cells).collect())
}

/// Check every cell past the first column of the table under `heading`
/// against `json` at the precision the cell prints; `key` names the JSON
/// key of (row label, column header). Returns how many cells it checked.
fn check_table(
    doc: &str,
    json: &HashMap<String, f64>,
    heading: &str,
    key: impl Fn(&str, &str) -> String,
) -> usize {
    let (header, rows) = md_table(doc, heading);
    let mut checked = 0;
    for row in &rows {
        for (col, cell) in header.iter().zip(row).skip(1) {
            // "—" marks a cell with no row of its own.
            if cell == "—" {
                continue;
            }
            let key = key(&row[0], col);
            // A ratio prints as "12.5×"; a count may group digits: "3 328".
            let cell = cell.trim_end_matches('×');
            let (num, unit) = match cell.rsplit_once(' ') {
                Some((n, u)) if !u.starts_with(|c: char| c.is_ascii_digit()) => (n, u),
                _ => (cell, ""),
            };
            let num = num.replace(' ', "");
            let scale = match unit {
                "MB" => (1u64 << 20) as f64,
                "s" | "" => 1.0,
                u => panic!("{heading}: unit {u:?} in {cell:?}"),
            };
            let decimals = num.split_once('.').map_or(0, |(_, d)| d.len());
            let v = json
                .get(&key)
                .unwrap_or_else(|| panic!("{heading}: no {key} in results/BENCH_paper.json"));
            assert_eq!(
                format!("{:.*}", decimals, v / scale),
                num,
                "EXPERIMENTS.md {heading} | {} | {col} says {cell:?}; \
                 results/BENCH_paper.json has {key} = {v}",
                row[0]
            );
            checked += 1;
        }
    }
    checked
}

/// A Table 1 cell's key: `row` is a stage name, `col` "paper U" / "ours C"
/// / ... for the uncompressed, compressed and forked modes.
fn table1_key(part: &str, stages: &[(&str, &str)], row: &str, col: &str) -> String {
    let stage = stages
        .iter()
        .find(|s| s.0 == row)
        .unwrap_or_else(|| panic!("Table 1 row {row:?}"))
        .1;
    let (who, mode) = col.split_once(' ').expect("'paper U' or 'ours U'");
    let mode = match mode {
        "U" => "uncompressed",
        "C" => "compressed",
        "F" => "forked",
        m => panic!("Table 1 column {m:?}"),
    };
    let paper = if who == "paper" { ".paper" } else { "" };
    format!("table1.{mode}.{part}.{stage}{paper}")
}

#[test]
fn experiments_tables_match_bench_paper_json() {
    let doc = read("EXPERIMENTS.md");
    let json = bench_paper();
    let ckpt = [
        ("Suspend user threads", "suspend_s"),
        ("Elect FD leaders", "elect_s"),
        ("Drain kernel buffers", "drain_s"),
        ("Write checkpoint", "write_s"),
        ("Refill kernel buffers", "refill_s"),
        ("Total", "total_s"),
    ];
    let n = check_table(&doc, &json, "### Table 1(a)", |row, col| {
        table1_key("ckpt", &ckpt, row, col)
    });
    assert_eq!(n, 36, "Table 1(a): 6 stages x 3 modes x (paper, ours)");

    let restart = [
        ("Restore files and ptys", "files_s"),
        ("Reconnect sockets", "sockets_s"),
        ("Restore memory/threads", "memory_s"),
        ("Refill kernel buffers", "refill_s"),
        ("Total", "total_s"),
    ];
    let n = check_table(&doc, &json, "### Table 1(b)", |row, col| {
        table1_key("restart", &restart, row, col)
    });
    assert_eq!(n, 20, "Table 1(b): 5 steps x 2 modes x (paper, ours)");

    let n = check_table(&doc, &json, "## §5.1 RunCMS", |row, col| {
        let q = match row {
            "dynamic libraries" => "libraries",
            "in-memory image" => "raw_bytes",
            "checkpoint time" => "ckpt_s",
            "restart time" => "restart_s",
            "gzip'd image" => "image_bytes",
            r => panic!("RunCMS row {r:?}"),
        };
        let paper = if col == "paper" { ".paper" } else { "" };
        format!("runcms.{q}{paper}")
    });
    assert_eq!(n, 10, "RunCMS: 5 quantities x (paper, measured)");

    let n = check_table(&doc, &json, "## Figure 4", |row, col| {
        let app = match row {
            "Baseline[3]" => "baseline_3",
            "ParGeant4[2]" => "pargeant4_2",
            "NAS/LU[3]" => "nas_lu_3",
            "NAS/BT[3]" => "nas_bt_3",
            "NAS/IS[3]" => "nas_is_3",
            r => panic!("Figure 4 row {r:?}"),
        };
        let (mode, q) = match col {
            "raw ckpt" => ("raw", "ckpt_mean_s"),
            "raw size" => ("raw", "image_bytes"),
            "gzip ckpt" => ("gz", "ckpt_mean_s"),
            "gzip size" => ("gz", "image_bytes"),
            c => panic!("Figure 4 column {c:?}"),
        };
        format!("fig4.{mode}.{app}.{q}")
    });
    assert_eq!(n, 20, "Figure 4: 5 representative apps x 4 columns");

    let n = check_table(&doc, &json, "## Figure 6", |row, col| {
        let gb = row.strip_suffix(" GB").expect("'<n> GB' rows");
        let q = match col {
            "ckpt (ours)" => "ckpt_mean_s",
            "restart (ours)" => "restart_s",
            c => panic!("Figure 6 column {c:?}"),
        };
        format!("fig6.gb_{gb}.{q}")
    });
    assert_eq!(n, 8, "Figure 6: 4 memory sizes x (ckpt, restart)");

    let n = check_table(
        &doc,
        &json,
        "## Incremental checkpoint store",
        |row, col| {
            let wl = match row {
                "NAS/MG (4×2)" => "nas_mg",
                "NAS/IS (4×2)" => "nas_is",
                "RunCMS" => "runcms",
                r => panic!("store row {r:?}"),
            };
            let gen_mode = col.strip_prefix("gen ").and_then(|c| c.split_once(' '));
            let (gen, mode) = gen_mode.unwrap_or_else(|| panic!("store column {col:?}"));
            format!("ckptstore.{wl}.gen_{gen}.{mode}_bytes")
        },
    );
    assert_eq!(n, 12, "store: 3 workloads x 2 generations x (full, store)");

    let n = check_table(
        &doc,
        &json,
        "### Incremental dirty-region capture",
        |row, col| {
            let mode = match col {
                "full capture" => "full",
                "incremental" => "incr",
                "speedup" => return "ckptstore.incr_speedup_ratio".to_string(),
                c => panic!("incremental column {c:?}"),
            };
            match row.strip_prefix("gen ") {
                Some(gen) => format!("ckptstore.idlehog.gen_{gen}.{mode}_ckpt_s"),
                None => format!("ckptstore.{mode}_gen2_total_s"),
            }
        },
    );
    assert_eq!(
        n, 9,
        "incremental: 4 rows x (full, incremental) + the speedup"
    );

    let n = check_table(
        &doc,
        &json,
        "## Perceived downtime vs. total",
        |row, col| {
            let wl = match row {
                "NAS/MG (4×2)" => "mg",
                "RunCMS" => "cms",
                r => panic!("downtime row {r:?}"),
            };
            let q = match col {
                "inline total" => "inline_total_s",
                "forked perceived" => "forked_pause_s",
                "forked total" => "forked_total_s",
                "total/perceived" => "forked_ratio",
                "forked perceived after kill → restart" => "forked_pause_after_restart_s",
                c => panic!("downtime column {c:?}"),
            };
            format!("downtime.{wl}_{q}")
        },
    );
    assert_eq!(n, 10, "downtime: 2 workloads x 5 columns");

    let n = check_table(&doc, &json, "## Coordinator scale-out", |row, col| {
        let q = match col {
            "flat root msgs/gen" => "flat_n{}_root_msgs_per_gen",
            "hier root msgs/gen" => "hier_n{}_root_msgs_per_gen",
            "reduction" => "n{}_root_msgs_reduction_ratio",
            "flat ckpt" => "flat_n{}_ckpt_s",
            "hier ckpt" => "hier_n{}_ckpt_s",
            c => panic!("scale column {c:?}"),
        };
        format!("scale.scale_{}", q.replace("{}", row))
    });
    assert_eq!(n, 40, "scale: N = 16 … 16384 x 5 columns");
}
