//! Command line: `run`, `compare`, `selfcheck`.

use crate::compare::{compare, load_set, print_rows, Verdict};
use crate::run::{print, run, RunOpts};
use crate::workloads::{Fault, WORKLOADS};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage:
  run --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick] [--out-dir <dir>]
      one workload in this process: prints every metric as `name value unit`, writes
      <out-dir>/<workload>.json (traced: <workload>.layers.json and trace-<workload>.json),
      ends with one JSON line, exits non-zero if an output check failed
  compare <dir A> <dir B>
      one row per (workload, metric): both medians, B/A-1, the bound, ok / worse / unresolved;
      exits non-zero if any row is worse
  selfcheck [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick] [--out-dir <dir>]
      runs every workload twice, each in its own process, and compares the two sets;
      exits non-zero if any row is worse
workloads: bulk_staged bulk_streamed small_files svc_streamed
defaults: --seed 1 --seconds 20 --out-dir benchmark/out";

/// Flags shared by `run` and `selfcheck`.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f =
        Flags { workload: None, seed: 1, seconds: 20.0, trace: false, quick: false, out_dir: "benchmark/out".into() };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value("a workload name")?),
            "--seed" => f.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                f.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(f.seconds.is_finite() && f.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--out-dir" => f.out_dir = value("a directory")?.into(),
            "--quick" => f.quick = true,
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            "--trace" => {
                f.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        f.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(f)
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let f = parse_flags(args)?;
    let workload = f.workload.ok_or("run needs --workload")?;
    let opts = RunOpts {
        workload,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        quick: f.quick,
        out_dir: f.out_dir,
        fault: Fault::None,
    };
    let result = run(&opts)?;
    print(&result);
    Ok(result.exit_code())
}

fn compare_dirs(a: &Path, b: &Path) -> Result<Vec<crate::compare::Row>, String> {
    let rows = compare(&load_set(a)?, &load_set(b)?)?;
    print_rows(&rows);
    Ok(rows)
}

fn compare_command(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else { return Err("compare needs two directories".to_string()) };
    let rows = compare_dirs(Path::new(a), Path::new(b))?;
    Ok(i32::from(rows.iter().any(|r| r.verdict == Verdict::Worse)))
}

/// Every workload twice, each run in a process of its own so that
/// `peak_rss_MB` is the workload's and not the sum of what ran before it.
fn selfcheck_command(args: &[String]) -> Result<i32, String> {
    let f = parse_flags(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let sets = [f.out_dir.join("selfcheck-a"), f.out_dir.join("selfcheck-b")];
    for set in &sets {
        if set.exists() {
            std::fs::remove_dir_all(set).map_err(|e| format!("{}: {e}", set.display()))?;
        }
        let traced: &[bool] = if f.trace { &[false, true] } else { &[false] };
        for workload in WORKLOADS {
            for &trace in traced {
                let mut child = std::process::Command::new(&exe);
                child.args(["run", "--workload", workload, "--seed", &f.seed.to_string()]);
                child.args(["--seconds", &f.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
                child.arg("--out-dir").arg(set);
                if f.quick {
                    child.arg("--quick");
                }
                eprintln!("selfcheck: {workload}{} -> {}", if trace { " (traced)" } else { "" }, set.display());
                let status =
                    child.stdout(std::process::Stdio::null()).status().map_err(|e| format!("{workload}: {e}"))?;
                if !status.success() {
                    return Err(format!("{workload}: run exited with {status}"));
                }
            }
        }
    }
    let rows = compare_dirs(&sets[0], &sets[1])?;
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "selfcheck: {} rows, {} worse, {} unresolved",
        rows.len(),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(i32::from(count(Verdict::Worse) > 0))
}

/// Runs the command line and returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => selfcheck_command(rest),
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_takes_an_optional_value() {
        let f = flags(&["--workload", "bulk_staged", "--seed", "9", "--seconds", "12", "--trace", "0"]).unwrap();
        assert_eq!((f.workload.as_deref(), f.seed, f.seconds, f.trace), (Some("bulk_staged"), 9, 12.0, false));
        assert!(flags(&["--trace", "1"]).unwrap().trace);
        assert!(flags(&["--trace"]).unwrap().trace);
        let f = flags(&["--trace", "--quick"]).unwrap();
        assert!(f.trace && f.quick);
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(flags(&["--seed"]).is_err());
        assert!(flags(&["--seed", "x"]).is_err());
        assert!(flags(&["--seconds", "0"]).is_err());
        assert!(flags(&["--bogus"]).is_err());
        assert_eq!(main(vec!["nothing".to_string()]), 2);
    }
}
