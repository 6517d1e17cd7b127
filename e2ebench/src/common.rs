//! Pieces every workload shares: arguments, scratch space, the query
//! mix, and the engine configuration.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Duration;
use whirlpool_core::{ContextOptions, EvalOptions, MetricsSnapshot};
use whirlpool_xml::{write_document, Document, WriteOptions};

use crate::report::Report;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !seconds.is_finite() || seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }

    /// A generator seeded from the run seed and a per-purpose salt, so
    /// input streams stay independent of each other.
    pub fn rng(&self, salt: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }
}

/// Directory the run's generated files live in, under `.e2ebench/` in
/// the working directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = out_dir().join(format!("work-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where traces and scratch files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".e2ebench")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Serializes a generated document: the XML text the program is given.
pub fn xml_text(doc: &Document) -> String {
    write_document(doc, &WriteOptions::default())
}

/// Queries over XMark items: the paper's Q1-Q3, the wildcard and
/// attribute query Q4, and a value-equality query.
pub const ITEM_QUERIES: &[&str] = &[
    whirlpool_xmark::queries::Q1,
    whirlpool_xmark::queries::Q2,
    whirlpool_xmark::queries::Q3,
    whirlpool_xmark::queries::Q4,
    "//item[./quantity = '1' and ./name]",
];

/// Queries over bibliographic catalogs (written against the canonical
/// seller schema; the other schemas match through relaxation).
pub const BOOK_QUERIES: &[&str] = &[
    whirlpool_xmark::bib::CATALOG_QUERY,
    "//book[./title and ./author]",
    "//book[./title and ./isbn and ./price]",
    "//book[./info/publisher/name and ./title]",
];

pub const KS: &[usize] = &[1, 15, 100];

/// A seeded mix of operations, by default (query, k) pairs. Each
/// family contributes its operations; every block of consecutive
/// operations holds each one exactly once, families taking turns, in
/// seeded order within a family. Loops stop only at block boundaries,
/// so every operation is run equally often and the latency percentiles
/// do not depend on where a run happened to stop.
pub struct Mix<T = (&'static str, usize)> {
    rng: SmallRng,
    families: Vec<Vec<T>>,
    block: Vec<T>,
    at: usize,
}

/// Every (query, k) pair of `queries` × [`KS`].
pub fn pairs(queries: &[&'static str]) -> Vec<(&'static str, usize)> {
    queries
        .iter()
        .flat_map(|&q| KS.iter().map(move |&k| (q, k)))
        .collect()
}

/// Every (document, query, k) triple of documents `0..docs` ×
/// `queries` × [`KS`].
pub fn triples(docs: usize, queries: &[&'static str]) -> Vec<(usize, &'static str, usize)> {
    (0..docs)
        .flat_map(|d| pairs(queries).into_iter().map(move |(q, k)| (d, q, k)))
        .collect()
}

impl Mix {
    /// One family per query list, each holding its queries × [`KS`].
    pub fn new(rng: SmallRng, families: &[&[&'static str]]) -> Mix {
        Mix::of(rng, families.iter().map(|queries| pairs(queries)).collect())
    }
}

impl<T: Copy> Mix<T> {
    pub fn of(rng: SmallRng, families: Vec<Vec<T>>) -> Mix<T> {
        Mix {
            rng,
            families,
            block: Vec::new(),
            at: 0,
        }
    }

    /// True before the first operation and after each completed block.
    pub fn at_block_start(&self) -> bool {
        self.at == self.block.len()
    }

    pub fn next(&mut self) -> T {
        if self.at_block_start() {
            let mut shuffled = self.families.clone();
            for f in &mut shuffled {
                shuffle(&mut self.rng, f);
            }
            let longest = shuffled.iter().map(Vec::len).max().unwrap_or(0);
            self.block = (0..longest)
                .flat_map(|i| shuffled.iter().filter_map(move |f| f.get(i).copied()))
                .collect();
            self.at = 0;
        }
        self.at += 1;
        self.block[self.at - 1]
    }
}

/// Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// The CLI's defaults: Whirlpool-S, min-alive routing, max-final queue,
/// sparse normalization, engine event tracing off.
pub fn eval_options(k: usize) -> EvalOptions {
    EvalOptions::top_k(k)
}

/// The context options [`whirlpool_core::evaluate_view`] derives from
/// `options`.
pub fn context_options(options: &EvalOptions) -> ContextOptions {
    ContextOptions {
        relax: options.relax,
        selectivity_sample: options.selectivity_sample,
        op_cost: options.op_cost,
        pooling: options.pooling,
        op_batching: options.op_batching,
    }
}

/// Engine counters summed over a run's operations, reported per
/// operation.
#[derive(Default)]
pub struct EngineTotals {
    sum: MetricsSnapshot,
    ops: u64,
}

impl EngineTotals {
    pub fn add(&mut self, m: &MetricsSnapshot) {
        self.sum.absorb(m);
        self.ops += 1;
    }

    pub fn report(&self, rep: &mut Report) {
        if self.ops == 0 {
            return;
        }
        let per_op = |v: u64| v as f64 / self.ops as f64;
        rep.set("core.engine.server_ops", per_op(self.sum.server_ops));
        rep.set(
            "core.engine.partials_created",
            per_op(self.sum.partials_created),
        );
        rep.set(
            "core.engine.pruned_frac",
            if self.sum.partials_created == 0 {
                0.0
            } else {
                self.sum.pruned as f64 / self.sum.partials_created as f64
            },
        );
        rep.set("core.engine.pool_hit_rate", self.sum.pool_hit_rate());
    }
}

/// Share of operations whose (input, query, k) already occurred earlier
/// in the run: the property a per-query cache could exploit.
pub fn repeat_frac<K: Ord + Clone>(keys: &[K]) -> f64 {
    if keys.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::BTreeSet::new();
    let repeats = keys.iter().filter(|k| !seen.insert((*k).clone())).count();
    repeats as f64 / keys.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "library-warm",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "library-warm");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 3.0);
        assert!(a.trace);
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
    }

    #[test]
    fn repeat_share_counts_second_and_later_occurrences() {
        assert_eq!(repeat_frac(&[1, 2, 1, 1]), 0.5);
        assert_eq!(repeat_frac(&[1, 2, 3]), 0.0);
        assert_eq!(repeat_frac::<u8>(&[]), 0.0);
    }

    #[test]
    fn mix_blocks_hold_every_pair_once_with_families_alternating() {
        let a = args(&["--workload", "x", "--seed", "3"]).unwrap();
        let mut mix = Mix::new(a.rng(0), &[&["//a", "//b"], &["//c"]]);
        assert!(mix.at_block_start());
        for _ in 0..3 {
            let block: Vec<_> = (0..9).map(|_| mix.next()).collect();
            assert!(mix.at_block_start());
            // Families alternate while both have pairs left.
            for i in 0..6 {
                assert_eq!(block[i].0 == "//c", i % 2 == 1, "{block:?}");
            }
            let mut sorted = block.clone();
            sorted.sort();
            let mut expected: Vec<_> = ["//a", "//b", "//c"]
                .iter()
                .flat_map(|&q| KS.iter().map(move |&k| (q, k)))
                .collect();
            expected.sort();
            assert_eq!(sorted, expected);
        }
    }

    #[test]
    fn mix_of_any_operations_runs_each_once_per_block() {
        let a = args(&["--workload", "x", "--seed", "4"]).unwrap();
        let ops = triples(3, &["//a", "//b"]);
        assert_eq!(ops.len(), 18);
        let mut mix = Mix::of(a.rng(0), vec![ops.clone()]);
        let mut blocks = Vec::new();
        for _ in 0..2 {
            let block: Vec<_> = (0..18).map(|_| mix.next()).collect();
            assert!(mix.at_block_start());
            let mut sorted = block.clone();
            sorted.sort();
            let mut expected = ops.clone();
            expected.sort();
            assert_eq!(sorted, expected);
            blocks.push(block);
        }
        assert_ne!(blocks[0], blocks[1], "each block is shuffled afresh");
    }

    #[test]
    fn seeds_give_repeatable_independent_streams() {
        let a = args(&["--workload", "x", "--seed", "5"]).unwrap();
        let draw_all = |salt| {
            let mut r = a.rng(salt);
            (0..8).map(|_| r.gen_range(0..1000u32)).collect::<Vec<_>>()
        };
        assert_eq!(draw_all(1), draw_all(1));
        assert_ne!(draw_all(1), draw_all(2));
    }
}
