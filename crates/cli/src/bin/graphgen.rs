//! `graphgen` — generate, convert and inspect graph files.
//!
//! ```text
//! graphgen gen   <kind> <out.bin> [--scale N | --vertices N] [--edges M] [--seed S]
//!                                 [--communities C]
//! graphgen conv  <in> <out.bin>            # edge list / MatrixMarket / binary -> binary
//! graphgen stats <path>                    # Table III-style summary
//! graphgen reref <path> <out.rrm> [--pull|--push] [--bits N]
//!                                           # precompute a Rereference Matrix
//! ```
//!
//! `kind` ∈ {urand, kron, powerlaw, community, mesh}. The binary format is
//! `popt_graph::io::write_binary`. Every numeric flag is range-checked: a
//! bad value is a usage error (exit 1), never a wrapped value or a panic.
//! To record an application's access trace from a graph file, use
//! `experiments trace record --graph <path>`.

use popt_graph::{generators, io, stats, Graph};
use std::ops::RangeInclusive;
use std::process::ExitCode;

/// Largest `--scale`: vertex ids are `u32`, so `2^scale` vertices must fit.
const MAX_SCALE: u64 = 31;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  graphgen gen <urand|kron|powerlaw|community|mesh> <out> \
         [--scale N(0..=31)|--vertices N] [--edges M] [--seed S] [--communities C]\n  \
         graphgen conv <in> <out>\n  graphgen stats <path>\n  \
         graphgen reref <path> <out.rrm> [--push] [--bits N(2..=16)]"
    );
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("graphgen: {msg}");
    usage()
}

/// The value of `name` in `args`, parsed and checked against `range`:
/// `Ok(None)` when the flag is absent, an error when it is present without
/// an in-range integer value.
fn flag<T: TryFrom<u64>>(
    args: &[String],
    name: &str,
    range: RangeInclusive<u64>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    let out_of_range = || {
        format!(
            "{name} {raw}: expected an integer in {}..={}",
            range.start(),
            range.end()
        )
    };
    let value: u64 = raw.parse().map_err(|_| out_of_range())?;
    if !range.contains(&value) {
        return Err(out_of_range());
    }
    T::try_from(value).map(Some).map_err(|_| out_of_range())
}

/// The `--bits` of `graphgen reref`: the quantization width, 2..=16.
fn reref_bits(args: &[String]) -> Result<u8, String> {
    Ok(flag(args, "--bits", 2..=16)?.unwrap_or(8))
}

fn generate(kind: &str, args: &[String]) -> Result<Graph, String> {
    let scale: u32 = flag(args, "--scale", 0..=MAX_SCALE)?.unwrap_or(16);
    let vertices: usize = flag(args, "--vertices", 1..=u64::from(u32::MAX))?.unwrap_or(1 << scale);
    let edges = match flag(args, "--edges", 0..=u64::MAX)? {
        Some(edges) => edges,
        None => vertices
            .checked_mul(4)
            .ok_or("default edge count (4 x vertices) overflows")?,
    };
    let seed = flag(args, "--seed", 0..=u64::MAX)?.unwrap_or(42);
    let communities = flag(args, "--communities", 1..=u64::from(u32::MAX))?.unwrap_or(64);
    Ok(match kind {
        "urand" => generators::uniform_random(vertices, edges, seed),
        "kron" => generators::rmat(scale, edges, generators::RmatParams::KRONECKER, seed),
        "powerlaw" => generators::rmat(scale, edges, generators::RmatParams::POWER_LAW, seed),
        "community" => generators::community(vertices, edges, communities, 0.95, seed),
        "mesh" => {
            let side = (vertices as f64).sqrt() as usize;
            generators::mesh(side.max(2), 0, seed)
        }
        other => return Err(format!("unknown graph kind: {other}")),
    })
}

fn print_stats(g: &Graph) {
    let s = stats::graph_stats(g);
    println!("vertices      {}", s.num_vertices);
    println!("edges         {}", s.num_edges);
    println!("avg degree    {:.2}", s.average_degree);
    println!("max out-deg   {}", s.max_out_degree);
    println!("max in-deg    {}", s.max_in_degree);
    println!("degree gini   {:.3}", s.degree_gini);
}

fn read_graph(path: &str) -> Result<Graph, String> {
    io::read_path(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn create(path: &str) -> Result<std::fs::File, String> {
    std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))
}

fn write_graph(g: &Graph, path: &str) -> Result<(), String> {
    io::write_binary(g, create(path)?).map_err(|e| format!("write failed: {e}"))?;
    print_stats(g);
    Ok(())
}

/// `graphgen reref <path> <out.rrm> ...` with its `--bits` already checked.
fn reref(args: &[String], bits: u8) -> Result<(), String> {
    // The paper's amortization story (Section VII-D): the matrix is
    // algorithm agnostic — build it once per graph and reuse it across
    // applications.
    let g = read_graph(&args[1])?;
    let push = args.iter().any(|a| a == "--push");
    let transpose = if push { g.in_csr() } else { g.out_csr() };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (matrix, report) = popt_core::preprocess::timed_build(
        transpose,
        16,
        1,
        popt_core::Quantization::new(bits),
        popt_core::Encoding::InterIntra,
        threads,
    );
    popt_core::serialize::write_matrix(&matrix, create(&args[2])?)
        .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "built in {:.1} ms ({} threads): {} lines x {} epochs, column {} KB, total {} KB",
        report.duration.as_secs_f64() * 1000.0,
        report.threads,
        matrix.num_lines(),
        matrix.num_epochs(),
        matrix.column_bytes() / 1024,
        matrix.total_bytes() / 1024,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") if args.len() >= 3 => match generate(&args[1], &args[3..]) {
            Ok(g) => write_graph(&g, &args[2]),
            Err(msg) => return usage_error(&msg),
        },
        Some("conv") if args.len() == 3 => {
            read_graph(&args[1]).and_then(|g| write_graph(&g, &args[2]))
        }
        Some("stats") if args.len() == 2 => read_graph(&args[1]).map(|g| print_stats(&g)),
        Some("reref") if args.len() >= 3 => match reref_bits(&args[3..]) {
            Ok(bits) => reref(&args, bits),
            Err(msg) => return usage_error(&msg),
        },
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn out_of_range_and_malformed_flags_are_usage_errors() {
        for bad in [
            &["--scale", "70"][..],
            &["--scale", "32"],
            &["--scale", "-1"],
            &["--scale"],
            &["--vertices", "0"],
            &["--vertices", "4294967296"],
            &["--vertices", "many"],
            &["--edges", "-4"],
            &["--edges", "18446744073709551616"],
            &["--seed", "-1"],
            &["--seed", "18446744073709551616"],
            &["--seed", "0x2a"],
            &["--communities", "0"],
        ] {
            assert!(
                generate("urand", &args(bad)).is_err(),
                "{bad:?} was accepted"
            );
        }
        for bad in [
            &["--bits", "264"][..],
            &["--bits", "1"],
            &["--bits", "17"],
            &["--bits"],
        ] {
            assert!(reref_bits(&args(bad)).is_err(), "{bad:?} was accepted");
        }
        assert!(generate("ring", &[]).is_err());
    }

    #[test]
    fn in_range_flags_take_effect() {
        let urand = &args(&[
            "--vertices",
            "100",
            "--edges",
            "300",
            "--seed",
            "18446744073709551615",
        ]);
        assert_eq!(generate("urand", urand).unwrap().num_vertices(), 100);
        let kron = generate("kron", &args(&["--scale", "6"])).unwrap();
        assert_eq!(kron.num_vertices(), 64);
        assert_eq!(reref_bits(&args(&[])), Ok(8));
        assert_eq!(reref_bits(&args(&["--bits", "2"])), Ok(2));
        assert_eq!(reref_bits(&args(&["--bits", "16"])), Ok(16));
    }
}
