//! `library-warm`: the library called in process, everything prepared
//! at set-up. A closed loop with one client alternates two kinds of
//! operation: an item query on one of four attached XMark documents
//! ([`Docs`]), where engine, score model and context do the work, and a
//! query over a lazily opened 64-shard collection ([`Corpus`]), where
//! shard pruning, attach and eviction do. Parse and store run only in
//! set-up, which builds both.
//!
//! One workload rather than one per half: on the 2-core x86-64 VM the
//! benchmark was tuned on, speed drifts by ±15 % from one 2-second
//! window to the next, and a run averages that drift only over its own
//! length. Two workloads in all, instead of four, leave room for 55-s
//! runs instead of 25-s ones within the benchmark's time budget.

use std::time::{Duration, Instant};

use crate::common::{self, Args, EngineTotals, WorkDir};
use crate::corpus_lazy::Corpus;
use crate::doc_warm::Docs;
use crate::layers::{fill_layers, total_s, Pairing};
use crate::report::Report;
use crate::spans::{Tracer, SETUP};
use crate::stats::{median, Latency};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: u64 = 5;

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let work = WorkDir::new("library-warm").map_err(|e| format!("work dir: {e}"))?;
    let (doc_dir, shard_dir) = (work.path().join("docs"), work.path().join("shards"));
    for dir in [&doc_dir, &shard_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("work dir: {e}"))?;
    }
    let mut docs = Docs::new(args, &doc_dir);
    let mut corpus = Corpus::new(args, &shard_dir);

    let mut setup_s = Vec::new();
    for i in 0..SETUPS {
        tr.set_op(i);
        let t = Instant::now();
        let root = tr.begin(SETUP);
        docs.set_up(tr)?;
        corpus.set_up(tr)?;
        tr.end(root);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let xml_bytes = docs.xml_bytes() + corpus.xml_bytes();
    let wps_bytes = docs.wps_bytes()? + corpus.wps_bytes()?;

    // The kinds take turns until the time is up; then each finishes its
    // current block, so every operation of a mix runs equally often.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut pairing = Pairing::default();
    let mut engine = EngineTotals::default();
    let mut latencies = Vec::new();
    let loop_start = Instant::now();
    let mut op = 0u64;
    loop {
        let doc_turn = if loop_start.elapsed() < budget {
            op % 2 == 0
        } else if !docs.at_block_start() {
            true
        } else if !corpus.at_block_start() {
            false
        } else {
            break;
        };
        tr.set_op(op);
        let wall = if doc_turn {
            docs.op(tr, op, &mut pairing, &mut engine, rep)?
        } else {
            corpus.op(tr, op, &mut pairing, &mut engine, rep)?
        };
        latencies.push(common::ms(wall));
        op += 1;
    }
    let loop_wall = loop_start.elapsed();
    let peak_rss_mb = common::peak_rss_mb();

    // Oracles, outside the timed loop.
    docs.check(rep);
    corpus.check(rep)?;

    let lat = Latency::of(&latencies).ok_or("no operation completed")?;
    rep.op_samples = lat.n;
    rep.set("setup_s", median(&setup_s).expect("set-ups ran"));
    rep.set("op_p50_ms", lat.p50);
    rep.set("op_p90_ms", lat.p90);
    rep.set("ops_per_s", op as f64 / loop_wall.as_secs_f64());
    rep.set("peak_rss_mb", peak_rss_mb);
    rep.set("disk_bytes_per_input_byte", wps_bytes / xml_bytes);

    if tr.is_on() {
        fill_layers(rep, tr.spans());
        rep.set(
            "xml.parse_mb_s",
            xml_bytes * SETUPS as f64 / 1e6 / total_s(tr.spans(), "xml.parse"),
        );
        engine.report(rep);
        pairing.report(rep);
        corpus.report(rep);
        rep.set("store.bytes_written", wps_bytes);
        let keys: Vec<String> = docs.keys().chain(corpus.keys()).collect();
        rep.set("loadgen.repeat_frac", common::repeat_frac(&keys));
        rep.set("loadgen.op_samples", lat.n as f64);
    }
    Ok(())
}
