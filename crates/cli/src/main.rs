//! `experiments` — regenerates every table and figure of the P-OPT paper.
//!
//! Usage:
//!
//! ```text
//! experiments <exp> [--scale tiny|small|standard] [--small] [--jobs N] [--out DIR]
//! experiments all   [--scale S] [--jobs N] [--out DIR]
//! experiments sweep [exp...] [--scale S] [--jobs N] [--out DIR]
//! experiments list
//! ```
//!
//! `<exp>` is one of: table1 table2 table3 table4 fig2 fig4 fig7 fig10
//! fig11 fig12a fig12b fig13 fig14 fig15 fig16, or one of the extension
//! studies ext1 (parallel execution) ext2 (prefetching) ext3 (full policy
//! zoo) ext4 (context switches) ext5 (tie-break ablation) ext6 (huge-page
//! requirement). Results are printed and written as `.txt`/`.csv` under
//! `--out` (default `results/`).
//!
//! `sweep` runs the selected experiments (default: all) through the
//! orchestration harness: cells scheduled across `--jobs` workers, shared
//! prerequisites deduped through an on-disk artifact cache, and a resume
//! journal so a killed sweep restarted with the same arguments finishes
//! only the unfinished cells. Output CSVs are byte-identical to the serial
//! runs at any `--jobs` level. A sweep with failing cells completes the
//! healthy ones, reports the failures, and exits nonzero.

use popt_cli::exec::Session;
use popt_cli::experiments::{emit_tables, find_experiment, Runner, EXPERIMENTS};
use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: experiments <exp>|all|list [--scale S] [--small] [--jobs N] [--out DIR]");
    eprintln!("       experiments sweep [exp...] [--scale S] [--jobs N] [--out DIR]");
    eprintln!("       experiments trace record|replay|info ... (see: experiments trace --help)");
    eprintln!("       experiments oracle [--sets N] [--ways N] [--seed S] [--deep] [FILE...]");
    eprintln!("experiments:");
    for (name, desc, _) in EXPERIMENTS {
        eprintln!("  {name:8} {desc}");
    }
}

struct Cli {
    scale: Scale,
    jobs: usize,
    out: Option<PathBuf>,
    names: Vec<String>,
    inject_fail: Option<String>,
}

fn parse_args(args: Vec<String>) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        scale: Scale::Standard,
        jobs: 1,
        out: None,
        names: Vec::new(),
        inject_fail: None,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--small" => cli.scale = Scale::Small,
            "--scale" => {
                let v = iter.next().ok_or("--scale needs tiny|small|standard")?;
                cli.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale: {v}"))?;
            }
            "--jobs" => {
                let v = iter.next().ok_or("--jobs needs a positive integer")?;
                cli.jobs = popt_cli::runner::parse_threads(&v)
                    .ok_or_else(|| format!("bad --jobs value: {v}"))?;
            }
            "--out" => {
                cli.out = Some(PathBuf::from(iter.next().ok_or("--out needs a directory")?));
            }
            "--inject-fail" => {
                cli.inject_fail = Some(iter.next().ok_or("--inject-fail needs a pattern")?);
            }
            "--help" | "-h" => return Ok(None),
            name if !name.starts_with('-') => cli.names.push(name.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(cli))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The trace and oracle subcommands have their own flag vocabulary;
    // dispatch before the classic parser sees them.
    match args.first().map(String::as_str) {
        Some("trace") => return popt_cli::trace_cmd::trace_main(args.split_off(1)),
        Some("oracle") => return popt_cli::oracle_cmd::oracle_main(args.split_off(1)),
        _ => {}
    }
    let cli = match parse_args(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let Some((first, rest)) = cli.names.split_first() else {
        usage();
        return ExitCode::FAILURE;
    };
    match first.as_str() {
        "list" => {
            usage();
            ExitCode::SUCCESS
        }
        "sweep" => {
            let opts = SweepOptions {
                scale: cli.scale,
                jobs: cli.jobs,
                out: cli.out.unwrap_or_else(|| PathBuf::from("results/sweep")),
                only: rest.to_vec(),
                inject_fail: cli.inject_fail,
            };
            match run_sweep(&opts) {
                Ok(summary) if summary.failed.is_empty() => ExitCode::SUCCESS,
                Ok(summary) => {
                    eprintln!(
                        "sweep finished with failed experiments: {}",
                        summary.failed.join(", ")
                    );
                    ExitCode::FAILURE
                }
                Err(err) => {
                    eprintln!("sweep failed: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        selected => {
            if !rest.is_empty() {
                eprintln!("only one experiment may be named (or use: sweep {selected} ...)");
                usage();
                return ExitCode::FAILURE;
            }
            let to_run: Vec<&(&str, &str, Runner)> = if selected == "all" {
                EXPERIMENTS.iter().collect()
            } else {
                match find_experiment(selected) {
                    Some(e) => vec![e],
                    None => {
                        eprintln!("unknown experiment: {selected}");
                        usage();
                        return ExitCode::FAILURE;
                    }
                }
            };
            let out = cli.out.unwrap_or_else(|| PathBuf::from("results"));
            let session = Session::parallel(cli.jobs);
            for (name, desc, runner) in to_run {
                eprintln!(">>> {name}: {desc} ({:?} scale)", cli.scale);
                let started = std::time::Instant::now();
                let tables = runner(&session, cli.scale);
                if let Err(err) = emit_tables(&tables, &out, name) {
                    eprintln!("failed to write {name}: {err}");
                    return ExitCode::FAILURE;
                }
                eprintln!("<<< {name} done in {:.1}s", started.elapsed().as_secs_f64());
            }
            ExitCode::SUCCESS
        }
    }
}
