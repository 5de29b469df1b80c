//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (or all three with `all`) and prints, as the last
//! line of standard output, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A human summary goes to standard error, and
//! a record with the seed and build environment is appended to
//! `$CARGO_TARGET_DIR/perfbench/results.jsonl` (default `.bench_build`).
//! A run at the default seed also writes its digests there as
//! `pins-<workload>.txt`, in the form of the files under `pins/`.

use perfbench::graphs::DEFAULT_SEED;
use perfbench::report::{declared, result_line, valid_name, Metric};
use perfbench::workloads::{self, RunOptions, RunResult, Workload};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <pr-graphaware|zoo-std|sweep-small|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// First line of a command's output, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(cmd);
    command.args(args);
    // Never report the revision of a repository above the working tree.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The emitted metrics must be exactly the declared ones, with the
/// declared units, validly named.
fn check_declared(metrics: &[Metric], key: &str) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let mut want = declared(&text, key)?;
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    if let Some((bad, _)) = got.iter().find(|(n, _)| !valid_name(n)) {
        return Err(format!("invalid metric name {bad}"));
    }
    want.sort();
    got.sort();
    if want != got {
        return Err(format!(
            "emitted {key} metrics {got:?} differ from BENCHMARK.json {want:?}"
        ));
    }
    Ok(())
}

fn summarize(workload: Workload, args: &Args, env: &str, result: &RunResult) {
    eprintln!(
        "== perfbench {} seed={} trace={} {env}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let failed_ratio = result.failed as f64 / result.attempted.max(1) as f64;
    eprintln!(
        "   checks: {} attempted, {} failed (failed_ratio {failed_ratio})",
        result.attempted, result.failed
    );
    for e in result.errors.iter().take(20) {
        eprintln!("   FAIL {e}");
    }
    for m in result.end_to_end.iter().chain(&result.per_layer) {
        eprintln!("   {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn record(
    base: &Path,
    workload: Workload,
    args: &Args,
    env: &str,
    result: &RunResult,
) -> std::io::Result<()> {
    std::fs::create_dir_all(base)?;
    let metrics: Vec<String> = result
        .end_to_end
        .iter()
        .chain(&result.per_layer)
        .map(|m| format!("\"{}\":{}", m.name, m.value))
        .collect();
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},{env},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(base.join("results.jsonl"))?;
    file.write_all(line.as_bytes())?;
    if args.seed == DEFAULT_SEED {
        let pins = format!(
            "# Digests of {} at the default seed, written by a perfbench run at seed 0\n{}",
            workload.name(),
            perfbench::checks::format_pins(&result.digests)
        );
        std::fs::write(base.join(format!("pins-{}.txt", workload.name())), pins)?;
    }
    if let Some(spans) = &result.spans {
        std::fs::write(
            base.join(format!("spans-{}-{}.jsonl", workload.name(), args.seed)),
            spans,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Rereference Matrix preprocessing would otherwise add its own
    // threads beside the benchmark's workers.
    std::env::set_var("POPT_THREADS", "1");
    let base =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench");
    let env = format!(
        "\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\"",
        probe("git", &["rev-parse", "--short", "HEAD"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        probe("rustc", &["--version"]),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: base.join(format!("work-{}", std::process::id())),
    };
    let mut lines = Vec::new();
    let mut all_ok = true;
    for &workload in &args.workloads {
        let result = match workloads::run(workload, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench {}: {e}", workload.name());
                let _ = std::fs::remove_dir_all(&opts.work);
                return ExitCode::FAILURE;
            }
        };
        summarize(workload, &args, &env, &result);
        if let Err(e) = record(&base, workload, &args, &env, &result) {
            eprintln!("perfbench: cannot write the run record: {e}");
        }
        let (metrics, key) = if args.trace {
            (&result.per_layer, "per_layer")
        } else {
            (&result.end_to_end, "end_to_end")
        };
        if let Err(e) = check_declared(metrics, key) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
        all_ok &= result.failed == 0;
        if args.workloads.len() > 1 {
            let failed_ratio = result.failed as f64 / result.attempted.max(1) as f64;
            lines.push(format!(
                "{:<14} {:<40} {:>18} ratio",
                workload.name(),
                "failed_ratio",
                failed_ratio
            ));
            // Untraced, the per-layer list holds the exact simulated
            // figures (P-OPT/T-OPT against DRRIP, the zoo's MPKI).
            let simulated = if args.trace {
                &[][..]
            } else {
                &result.per_layer
            };
            for m in metrics.iter().chain(simulated) {
                lines.push(format!(
                    "{:<14} {:<40} {:>18.6} {}",
                    workload.name(),
                    m.name,
                    m.value,
                    m.unit
                ));
            }
        } else {
            lines.push(result_line(result.attempted, result.failed, metrics));
        }
    }
    let _ = std::fs::remove_dir_all(&opts.work);
    for line in lines {
        println!("{line}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
