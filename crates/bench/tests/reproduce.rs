//! The committed `results/` tree is the golden: a fresh `repro_all` run
//! must rewrite every file under it, and print `results/repro_all.log`,
//! byte for byte.
//!
//! The run happens in a new directory under the system temp dir. No
//! `[workspace]` manifest sits above it, so the bins take it as their
//! workspace root and never write into the checkout. The worker count
//! comes from `BENCH_JOBS` as for any `repro_all` run; the output must not
//! depend on it.
//!
//! To re-bless after a change that means to move a figure:
//!
//! ```sh
//! cargo run --release -p bench --bin repro_all > results/repro_all.log
//! git diff results/
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The log of a full run; it sits in `results/` but no bin writes it.
const LOG: &str = "repro_all.log";

/// Every file under `dir`, as `/`-separated paths relative to it.
fn files_under(dir: &Path) -> BTreeSet<String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("read results dir") {
            let path = entry.expect("results dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root");
                let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
                out.insert(parts.join("/"));
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(dir, dir, &mut out);
    out
}

/// `None` when equal, else where `actual` first departs from `expected`:
/// the 1-based line and both versions of it.
fn first_difference(expected: &[u8], actual: &[u8]) -> Option<String> {
    if expected == actual {
        return None;
    }
    let expected = String::from_utf8_lossy(expected);
    let actual = String::from_utf8_lossy(actual);
    let mut exp_lines = expected.split_inclusive('\n');
    let mut act_lines = actual.split_inclusive('\n');
    for line in 1.. {
        match (exp_lines.next(), act_lines.next()) {
            (Some(e), Some(a)) if e == a => continue,
            (e, a) => {
                let show = |l: Option<&str>| {
                    l.map_or("<end of file>".to_string(), |l| {
                        format!("{:?}", l.trim_end_matches('\n'))
                    })
                };
                return Some(format!(
                    "line {line}\n  expected: {}\n  actual:   {}",
                    show(e),
                    show(a)
                ));
            }
        }
    }
    unreachable!("two different texts differ on some line")
}

#[test]
fn repro_all_rewrites_the_committed_results_byte_for_byte() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos();
    let run_dir: PathBuf =
        std::env::temp_dir().join(format!("bench-reproduce-{}-{stamp}", std::process::id()));
    std::fs::create_dir_all(&run_dir).expect("create run dir");

    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .current_dir(&run_dir)
        .stderr(Stdio::inherit())
        .output()
        .expect("start repro_all");
    assert!(out.status.success(), "repro_all exited with {}", out.status);

    let mut mismatches = Vec::new();
    let expected_log = std::fs::read(golden.join(LOG)).expect("read results/repro_all.log");
    if let Some(at) = first_difference(&expected_log, &out.stdout) {
        mismatches.push(format!("stdout vs results/{LOG}: {at}"));
    }

    let mut expected_files = files_under(&golden);
    expected_files.remove(LOG);
    let written = files_under(&run_dir.join("results"));
    for missing in expected_files.difference(&written) {
        mismatches.push(format!("results/{missing}: not written by the run"));
    }
    for extra in written.difference(&expected_files) {
        mismatches.push(format!(
            "results/{extra}: written by the run but not committed"
        ));
    }
    for name in expected_files.intersection(&written) {
        let expected = std::fs::read(golden.join(name)).expect("read committed result");
        let actual = std::fs::read(run_dir.join("results").join(name)).expect("read new result");
        if let Some(at) = first_difference(&expected, &actual) {
            mismatches.push(format!("results/{name}: {at}"));
        }
    }

    assert!(
        mismatches.is_empty(),
        "{} of the committed results differ from a fresh run (kept in {}); first: {}\nall:\n  {}",
        mismatches.len(),
        run_dir.display(),
        mismatches[0],
        mismatches.join("\n  ")
    );
    std::fs::remove_dir_all(&run_dir).expect("remove run dir");
}
