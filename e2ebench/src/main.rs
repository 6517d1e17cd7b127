//! End-to-end, layer-by-layer benchmark of Whirlpool.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload library-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one seeded workload against the library and daemon APIs,
//! checks every answer against an oracle computed outside the timed
//! region, and prints each metric by name and unit. The last line of
//! standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics from a separate traced run with
//! `--trace 1`. Exits 1 when any check fails, 2 on a usage error.
//! See `README.md` beside this package for the workloads and metrics.

mod common;
mod corpus_lazy;
mod doc_warm;
mod layers;
mod library_warm;
mod report;
mod serve_open;
mod spans;
mod stats;

use common::Args;
use report::Report;
use spans::Tracer;

const WORKLOADS: &[&str] = &["library-warm", "serve-open"];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => usage(&format!("unknown workload {:?}", a.workload)),
        Err(e) => usage(&e),
    };
    let mut rep = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "library-warm" => library_warm::run,
        "serve-open" => serve_open::run,
        _ => unreachable!("checked above"),
    };
    if let Err(e) = run(&args, &mut rep, &mut tracer) {
        eprintln!("e2ebench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    if tracer.is_on() {
        let path =
            common::out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            rep.broken.push(format!("writing {}: {e}", path.display()));
        }
    }
    for problem in rep.failures.iter().chain(&rep.broken) {
        eprintln!("e2ebench: {}: check failed: {problem}", args.workload);
    }
    print!("{}", rep.render(&args.workload, args.trace));
    if !rep.correct() {
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "e2ebench: {problem}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}
