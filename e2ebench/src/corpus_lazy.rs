//! The collection half of `library-warm`: a directory of snapshot
//! shards, 16 XMark auction shards and 48 bibliographic-catalog shards,
//! opened with `Collection::open_dir` under a residency cap below
//! either query family's working set. Its operations alternate item and
//! book queries: each family's ceilings prune the other family's shards
//! before attach, and attach and eviction churn inside a family.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use whirlpool_core::{
    collection_answers_equivalent, evaluate_collection, Algorithm, Collection, CollectionAnswer,
    CollectionOptions,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::Normalization;
use whirlpool_store::save_snapshot;
use whirlpool_xmark::bib::{generate_catalog, CatalogConfig};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::parse_document;

use crate::common::{self, Args, EngineTotals, Mix, BOOK_QUERIES, ITEM_QUERIES};
use crate::layers::Pairing;
use crate::report::Report;
use crate::spans::{Tracer, OP, PROBE};

const AUCTION_SHARDS: usize = 16;
const AUCTION_BYTES: usize = 150_000;
const CATALOG_SHARDS: usize = 48;
const CATALOG_BOOKS: usize = 300;
/// Below both families' working sets (16 and 48 shards).
const MAX_RESIDENT: usize = 8;

struct Outcome {
    key: (&'static str, usize),
    answers: Vec<CollectionAnswer>,
    exact: bool,
}

/// `CollectionMetrics` summed over the operations.
#[derive(Default)]
struct Totals {
    shards: usize,
    visited: usize,
    pruned_before_attach: usize,
    attaches: u64,
    evictions: u64,
    /// Visited shards holding at least one final answer.
    useful: usize,
}

/// The shard directory, the collection opened over it, and the
/// operations run on it.
pub struct Corpus {
    shards: Vec<(String, String)>,
    dir: PathBuf,
    collection: Option<Collection>,
    mix: Mix,
    outcomes: Vec<Outcome>,
    totals: Totals,
}

impl Corpus {
    /// Generates the shards; their snapshots go to `dir`, which holds
    /// nothing else.
    pub fn new(args: &Args, dir: &Path) -> Corpus {
        let mut shards = Vec::new();
        for i in 0..AUCTION_SHARDS {
            let doc = generate(&GeneratorConfig {
                target_bytes: AUCTION_BYTES,
                seed: args.seed.wrapping_mul(7919).wrapping_add(i as u64),
                max_items: None,
            });
            shards.push((format!("auction-{i:02}.wps"), common::xml_text(&doc)));
        }
        for i in 0..CATALOG_SHARDS {
            let doc = generate_catalog(&CatalogConfig {
                books: CATALOG_BOOKS,
                seed: args.seed.wrapping_mul(104_729).wrapping_add(i as u64),
                title_pool: 40,
            });
            shards.push((format!("catalog-{i:02}.wps"), common::xml_text(&doc)));
        }
        Corpus {
            shards,
            dir: dir.to_path_buf(),
            collection: None,
            mix: Mix::new(args.rng(2), &[ITEM_QUERIES, BOOK_QUERIES]),
            outcomes: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// One set-up: parse, index and write every shard, then open the
    /// directory (one peek per shard) under the residency cap.
    pub fn set_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // The previous collection may map files about to be rewritten.
        self.collection = None;
        for (name, xml) in &self.shards {
            let doc = tr
                .time("xml.parse", || parse_document(xml))
                .map_err(|e| format!("parse {name}: {e}"))?;
            let index = tr.time("index.build", || TagIndex::build(&doc));
            tr.time("store.save", || {
                save_snapshot(&doc, &index, self.dir.join(name))
            })
            .map_err(|e| format!("save {name}: {e}"))?;
        }
        let opened = tr
            .time("store.peek", || Collection::open_dir(&self.dir))
            .map_err(|e| format!("open_dir: {e}"))?;
        opened.set_max_resident(MAX_RESIDENT);
        self.collection = Some(opened);
        Ok(())
    }

    pub fn xml_bytes(&self) -> f64 {
        self.shards.iter().map(|(_, x)| x.len() as f64).sum()
    }

    pub fn wps_bytes(&self) -> Result<f64, String> {
        let mut bytes = 0.0;
        for (name, _) in &self.shards {
            bytes += std::fs::metadata(self.dir.join(name))
                .map_err(|e| e.to_string())?
                .len() as f64;
        }
        Ok(bytes)
    }

    /// True before the first operation and after each whole block of
    /// (query, k) pairs.
    pub fn at_block_start(&self) -> bool {
        self.mix.at_block_start()
    }

    /// Runs the next operation of the mix as operation `op`; returns its
    /// wall time.
    pub fn op(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        pairing: &mut Pairing,
        engine: &mut EngineTotals,
        rep: &mut Report,
    ) -> Result<Duration, String> {
        let (q, k) = self.mix.next();
        let collection = self.collection.as_ref().ok_or("corpus not set up")?;
        let query = |tr: &mut Tracer| {
            let t = Instant::now();
            let root = tr.begin(OP);
            let pattern = tr
                .time("pattern.parse", || parse_pattern(q))
                .map_err(|e| format!("{q}: {e}"))?;
            let result = tr.time("core.collection.eval", || {
                evaluate_collection(
                    collection,
                    &pattern,
                    &Algorithm::WhirlpoolS,
                    &common::eval_options(k),
                    Normalization::Sparse,
                    &CollectionOptions::default(),
                )
            });
            tr.end(root);
            let wall = t.elapsed();
            // `evaluate_collection` builds its corpus model inside; a
            // side call, outside the operation's wall, times that step.
            if tr.is_on() {
                let probe = tr.begin(PROBE);
                tr.time("score.corpus_stats", || collection.corpus_stats(&pattern));
                tr.end(probe);
            }
            Ok((wall, result))
        };
        let (wall, result, twin) = pairing.run(tr, op, query)?;
        if let Some(twin) = twin {
            if !collection_answers_equivalent(&result.answers, &twin.answers, 1e-9) {
                rep.broken.push(format!(
                    "traced answers differ from untraced: corpus {q} k={k}"
                ));
            }
        }
        let m = result.collection_metrics;
        let t = &mut self.totals;
        t.shards += m.shards_total;
        t.visited += m.shards_visited;
        t.pruned_before_attach += m.shards_pruned_before_attach;
        t.attaches += m.shards_attached;
        t.evictions += m.shard_evictions;
        t.useful += result
            .answers
            .iter()
            .map(|a| a.shard)
            .collect::<BTreeSet<_>>()
            .len();
        engine.add(&result.metrics);
        self.outcomes.push(Outcome {
            key: (q, k),
            exact: result.completeness.is_exact(),
            answers: result.answers,
        });
        Ok(wall)
    }

    /// Checks every answer against scan-all over a fresh, uncapped
    /// opening of the same directory, once per distinct (query, k).
    pub fn check(&self, rep: &mut Report) -> Result<(), String> {
        let reference = Collection::open_dir(&self.dir).map_err(|e| format!("open_dir: {e}"))?;
        let mut oracle: BTreeMap<(&str, usize), Vec<CollectionAnswer>> = BTreeMap::new();
        for o in &self.outcomes {
            let (q, k) = o.key;
            let expected = oracle.entry(o.key).or_insert_with(|| {
                let pattern = parse_pattern(q).expect("benchmark queries parse");
                evaluate_collection(
                    &reference,
                    &pattern,
                    &Algorithm::WhirlpoolS,
                    &common::eval_options(k),
                    Normalization::Sparse,
                    &CollectionOptions::scan_all(),
                )
                .answers
            });
            rep.check(if !o.exact {
                Some(format!("corpus {q} k={k}: truncated answer"))
            } else if !collection_answers_equivalent(&o.answers, expected, 1e-9) {
                Some(format!("corpus {q} k={k}: answers differ from scan-all"))
            } else {
                None
            });
        }
        Ok(())
    }

    /// Sets the `core.collection` counters, per collection operation.
    pub fn report(&self, rep: &mut Report) {
        let t = &self.totals;
        let per_op = |v: f64| v / self.outcomes.len().max(1) as f64;
        rep.set("core.collection.shards_visited", per_op(t.visited as f64));
        rep.set(
            "core.collection.pruned_before_attach_frac",
            t.pruned_before_attach as f64 / t.shards.max(1) as f64,
        );
        rep.set("core.collection.attaches", per_op(t.attaches as f64));
        rep.set("core.collection.evictions", per_op(t.evictions as f64));
        rep.set(
            "core.collection.useful_visit_frac",
            t.useful as f64 / t.visited.max(1) as f64,
        );
    }

    /// The operations run, as keys for the repeated-operation share.
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        self.outcomes
            .iter()
            .map(|o| format!("corpus {} k={}", o.key.0, o.key.1))
    }
}
