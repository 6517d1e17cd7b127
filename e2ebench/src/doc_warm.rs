//! The single-document half of `library-warm`: 10 MB of XMark as four
//! documents of ~2.5 MB, each built into a snapshot and attached at
//! set-up; each operation runs one item query at k ∈ {1, 15, 100} on
//! one document. Engine, score model and context do the
//! per-operation work; parse and store run only in set-up.
//!
//! Four independently seeded documents rather than one of 10 MB: one
//! pass of the five queries over a single 10 MB document cost 348-449
//! ms across six seeds, while over four documents the draws average
//! out, so the latency percentiles describe the workload rather than
//! one draw.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use whirlpool_core::{
    answers_equivalent, evaluate_view, evaluate_with_context, Algorithm, QueryContext, RankedAnswer,
};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_store::{save_snapshot, Snapshot};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::parse_document;

use crate::common::{self, Args, EngineTotals, Mix, ITEM_QUERIES};
use crate::layers::Pairing;
use crate::report::Report;
use crate::spans::{Tracer, OP};

/// Documents, and the serialized size of each.
const DOCS: usize = 4;
const DOC_BYTES: usize = 2_500_000;

/// An operation: a query at a k on one of the documents.
type Key = (usize, &'static str, usize);

/// One query's outcome, kept for the answer check after the loop.
struct Outcome {
    key: Key,
    answers: Vec<RankedAnswer>,
    exact: bool,
}

/// The documents, their snapshots, and the operations run on them.
pub struct Docs {
    xmls: Vec<String>,
    paths: Vec<PathBuf>,
    snapshots: Vec<Snapshot>,
    mix: Mix<Key>,
    outcomes: Vec<Outcome>,
}

impl Docs {
    /// Generates the documents; their snapshots go to `dir`.
    pub fn new(args: &Args, dir: &Path) -> Docs {
        let xmls = (0..DOCS as u64)
            .map(|i| {
                common::xml_text(&generate(&GeneratorConfig {
                    target_bytes: DOC_BYTES,
                    seed: args.seed.wrapping_mul(DOCS as u64).wrapping_add(i),
                    max_items: None,
                }))
            })
            .collect();
        Docs {
            xmls,
            paths: (0..DOCS)
                .map(|i| dir.join(format!("doc-{i}.wps")))
                .collect(),
            snapshots: Vec::new(),
            mix: Mix::of(args.rng(1), vec![common::triples(DOCS, ITEM_QUERIES)]),
            outcomes: Vec::new(),
        }
    }

    /// One set-up: parse, index, write and attach every document.
    pub fn set_up(&mut self, tr: &mut Tracer) -> Result<(), String> {
        // The previous attaches map the files about to be rewritten.
        self.snapshots.clear();
        for (xml, path) in self.xmls.iter().zip(&self.paths) {
            let doc = tr
                .time("xml.parse", || parse_document(xml))
                .map_err(|e| format!("parse: {e}"))?;
            let index = tr.time("index.build", || TagIndex::build(&doc));
            tr.time("store.save", || save_snapshot(&doc, &index, path))
                .map_err(|e| format!("save: {e}"))?;
            drop((doc, index));
            let attached = tr
                .time("store.attach", || Snapshot::attach(path))
                .map_err(|e| format!("attach: {e}"))?;
            self.snapshots.push(attached);
        }
        Ok(())
    }

    pub fn xml_bytes(&self) -> f64 {
        self.xmls.iter().map(|x| x.len() as f64).sum()
    }

    pub fn wps_bytes(&self) -> Result<f64, String> {
        let mut bytes = 0.0;
        for path in &self.paths {
            bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
        }
        Ok(bytes)
    }

    /// True before the first operation and after each whole block of
    /// (document, query, k) triples.
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
        let key = self.mix.next();
        let (d, q, k) = key;
        let (doc, index) = (self.snapshots[d].doc_view(), self.snapshots[d].index_view());
        let query = |tr: &mut Tracer| {
            let t = Instant::now();
            let root = tr.begin(OP);
            let result = {
                let pattern = tr
                    .time("pattern.parse", || parse_pattern(q))
                    .map_err(|e| format!("{q}: {e}"))?;
                let model = tr.time("score.model", || {
                    TfIdfModel::build_view(doc, index, &pattern, Normalization::Sparse)
                });
                let options = common::eval_options(k);
                let ctx = tr.time("core.context.new", || {
                    QueryContext::new_view(
                        doc,
                        index,
                        &pattern,
                        &model,
                        common::context_options(&options),
                    )
                });
                tr.time("core.engine.eval", || {
                    evaluate_with_context(&ctx, &Algorithm::WhirlpoolS, &options)
                })
            };
            tr.end(root);
            Ok((t.elapsed(), result))
        };
        let (wall, result, twin) = pairing.run(tr, op, query)?;
        if let Some(twin) = twin {
            if !answers_equivalent(&result.answers, &twin.answers, 1e-9) {
                rep.broken.push(format!(
                    "traced answers differ from untraced: doc {d} {q} k={k}"
                ));
            }
        }
        engine.add(&result.metrics);
        self.outcomes.push(Outcome {
            key,
            exact: result.completeness.is_exact(),
            answers: result.answers,
        });
        Ok(wall)
    }

    /// Checks every answer against LockStep-NoPrun, evaluated once per
    /// distinct (document, query, k).
    pub fn check(&self, rep: &mut Report) {
        let mut oracle: BTreeMap<Key, Vec<RankedAnswer>> = BTreeMap::new();
        for o in &self.outcomes {
            let (d, q, k) = o.key;
            let expected = oracle.entry(o.key).or_insert_with(|| {
                let (doc, index) = (self.snapshots[d].doc_view(), self.snapshots[d].index_view());
                let pattern = parse_pattern(q).expect("benchmark queries parse");
                let model = TfIdfModel::build_view(doc, index, &pattern, Normalization::Sparse);
                evaluate_view(
                    doc,
                    index,
                    &pattern,
                    &model,
                    &Algorithm::LockStepNoPrune,
                    &common::eval_options(k),
                )
                .answers
            });
            rep.check(if !o.exact {
                Some(format!("doc {d} {q} k={k}: truncated answer"))
            } else if !answers_equivalent(&o.answers, expected, 1e-9) {
                Some(format!(
                    "doc {d} {q} k={k}: answers differ from LockStep-NoPrun"
                ))
            } else {
                None
            });
        }
    }

    /// The operations run, as keys for the repeated-operation share.
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        self.outcomes
            .iter()
            .map(|o| format!("doc-{} {} k={}", o.key.0, o.key.1, o.key.2))
    }
}
