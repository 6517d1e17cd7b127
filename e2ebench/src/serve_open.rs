//! `serve-open`: a `whirlpool_serve` daemon (2 workers, 2 admission
//! tokens) over a registry of four XMark documents of 0.1-0.4 MB and one
//! bibliographic catalog, all booted from snapshots. An open loop
//! offers a fixed request rate from two client threads, each holding at
//! most one connection; a seeded eighth of the requests query the
//! whole registry as a collection. Latency runs from when a request was
//! due, so a stall also charges the requests queued behind it.
//!
//! Four documents of graded sizes rather than one: with one document
//! the latencies fall into a few clusters (cheap, middling and costly
//! queries), the median sat on the edge between two of them, and the
//! costliest query's cost depended on the one document drawn (Q3 took
//! 36-45 ms on four 2 MB documents queried in turn in one process).
//! Graded sizes spread the clusters into a continuous range and average
//! the seed's draw over four documents.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::Rng;
use whirlpool_core::{evaluate, evaluate_collection, Algorithm, Collection, CollectionOptions};
use whirlpool_index::TagIndex;
use whirlpool_pattern::parse_pattern;
use whirlpool_score::{Normalization, TfIdfModel};
use whirlpool_serve::{start, DocState, Json, Registry, ServeConfig, ServerHandle};
use whirlpool_store::save_snapshot;
use whirlpool_xmark::bib::{generate_catalog, CatalogConfig};
use whirlpool_xmark::{generate, GeneratorConfig};
use whirlpool_xml::{parse_document, Document};

use crate::common::{self, Args, Mix, WorkDir, BOOK_QUERIES, ITEM_QUERIES};
use crate::layers::{fill_layers, total_s};
use crate::report::Report;
use crate::spans::{Tracer, OP, SETUP};
use crate::stats::{median, percentile, Latency};

/// Sizes of the XMark documents, named `auction-0`, `auction-1`, ...
/// Small, so that HTTP, admission and the registry are a large part of
/// each request: the costliest requests swing most with the host's
/// speed, and on documents of 0.25-1 MB `op_p90_ms` spread 0.26 over
/// ten runs against 0.14 on these.
const AUCTION_BYTES: &[usize] = &[100_000, 200_000, 300_000, 400_000];
const CATALOG_BOOKS: usize = 2_000;
/// Offered load, requests per second: well below what the daemon can
/// serve, so queueing adds to latency without amplifying the host's own
/// speed swings.
const RATE: f64 = 30.0;
const CLIENTS: usize = 2;
/// One request in this many queries the whole registry. Item queries
/// over all five documents are the costliest requests; at one request
/// in eight the costliest of them make 4 % of requests, well inside the
/// top tenth, so `op_p90_ms` falls among single-document requests
/// instead of on the edge between the two kinds.
const COLLECTION_EVERY: usize = 8;
const SETUPS: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Request {
    collection: bool,
    /// The XMark document a single-document request targets.
    doc: usize,
    query: &'static str,
    k: usize,
}

impl Request {
    fn body(&self) -> String {
        let target = if self.collection {
            "\"collection\": true".to_string()
        } else {
            format!("\"doc\": \"auction-{}\"", self.doc)
        };
        format!(
            "{{{target}, \"query\": \"{}\", \"k\": {}}}",
            whirlpool_serve::escape(self.query),
            self.k
        )
    }
}

/// What the load generator saw of one request.
struct Sent {
    request: Request,
    due: Instant,
    sent: Instant,
    done: Instant,
    reply: Result<(u16, String), String>,
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon serves one
/// request per connection); returns the status and body.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    conn.write_all(
        format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {response:?}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// The answer scores of a 200 reply, best first, if the daemon
/// answered exactly.
fn exact_scores(body: &str) -> Result<(Vec<f64>, f64), String> {
    let v = Json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let outcome = v.get("outcome").and_then(Json::as_str).unwrap_or("?");
    let completeness = v.get("completeness").and_then(Json::as_str).unwrap_or("?");
    if outcome != "exact" || completeness != "exact" {
        return Err(format!("{outcome}/{completeness} answer"));
    }
    let Some(Json::Arr(answers)) = v.get("answers") else {
        return Err("reply has no answers".into());
    };
    let scores = answers
        .iter()
        .map(|a| {
            a.get("score")
                .and_then(Json::as_f64)
                .ok_or("answer without score")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let elapsed = v
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .ok_or("reply has no elapsed_ms")?;
    Ok((scores, elapsed))
}

/// The same request evaluated in process: Whirlpool-S under the
/// daemon's defaults, on a single document or on both as a collection.
fn oracle_scores(
    auctions: &[(Document, TagIndex)],
    registry: &Collection,
    r: &Request,
) -> Vec<f64> {
    let pattern = parse_pattern(r.query).expect("benchmark queries parse");
    let options = common::eval_options(r.k);
    if r.collection {
        evaluate_collection(
            registry,
            &pattern,
            &Algorithm::WhirlpoolS,
            &options,
            Normalization::Sparse,
            &CollectionOptions::default(),
        )
        .answers
        .iter()
        .map(|a| a.score.value())
        .collect()
    } else {
        let (doc, index) = &auctions[r.doc];
        let model = TfIdfModel::build(doc, index, &pattern, Normalization::Sparse);
        evaluate(
            doc,
            index,
            &pattern,
            &model,
            &Algorithm::WhirlpoolS,
            &options,
        )
        .answers
        .iter()
        .map(|a| a.score.value())
        .collect()
    }
}

/// Reads `/metrics` and returns the named counters.
fn daemon_counters(addr: SocketAddr) -> Result<BTreeMap<&'static str, u64>, String> {
    let (status, body) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let v = Json::parse(&body).map_err(|e| format!("/metrics is not JSON: {e}"))?;
    let mut out = BTreeMap::new();
    for name in [
        "admitted",
        "exact",
        "degraded",
        "timed_out",
        "shed",
        "rejected",
        "inflight",
    ] {
        let n = v
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/metrics lacks {name}"))?;
        out.insert(name, n);
    }
    Ok(out)
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let work = WorkDir::new("serve-open").map_err(|e| format!("work dir: {e}"))?;
    let auctions = AUCTION_BYTES.len();
    let mut inputs: Vec<(String, String)> = AUCTION_BYTES
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let doc = generate(&GeneratorConfig {
                target_bytes: bytes,
                seed: args
                    .seed
                    .wrapping_mul(auctions as u64)
                    .wrapping_add(i as u64),
                max_items: None,
            });
            (format!("auction-{i}"), common::xml_text(&doc))
        })
        .collect();
    inputs.push((
        "catalog".to_string(),
        common::xml_text(&generate_catalog(&CatalogConfig {
            books: CATALOG_BOOKS,
            seed: args.seed,
            title_pool: 40,
        })),
    ));
    let xml_bytes: f64 = inputs.iter().map(|(_, x)| x.len() as f64).sum();

    let config = ServeConfig {
        workers: 2,
        max_inflight: 2,
        ..ServeConfig::default()
    };
    let mut setup_s = Vec::new();
    let mut daemon: Option<ServerHandle> = None;
    for i in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.shutdown();
        }
        tr.set_op(i);
        let t = Instant::now();
        let root = tr.begin(SETUP);
        let mut registry = Registry::new();
        for (name, xml) in &inputs {
            let path = work.path().join(format!("{name}.wps"));
            let doc = tr
                .time("xml.parse", || parse_document(xml))
                .map_err(|e| format!("parse {name}: {e}"))?;
            let index = tr.time("index.build", || TagIndex::build(&doc));
            tr.time("store.save", || save_snapshot(&doc, &index, &path))
                .map_err(|e| format!("save {name}: {e}"))?;
            drop((doc, index));
            let state = tr
                .time("store.attach", || DocState::attach(name.as_str(), &path))
                .map_err(|e| format!("attach {name}: {e}"))?;
            registry.insert(state);
        }
        let handle = tr
            .time("serve.start", || start(config.clone(), registry))
            .map_err(|e| format!("start: {e}"))?;
        tr.end(root);
        setup_s.push(t.elapsed().as_secs_f64());
        daemon = Some(handle);
    }
    let daemon = daemon.expect("at least one set-up");
    let addr = daemon.addr();
    let wps_bytes: f64 = inputs
        .iter()
        .map(|(name, _)| {
            std::fs::metadata(work.path().join(format!("{name}.wps"))).map(|m| m.len() as f64)
        })
        .sum::<Result<f64, _>>()
        .map_err(|e| e.to_string())?;

    // The schedule: request i is due at i / RATE seconds; one in every
    // COLLECTION_EVERY, at a seeded position, is a collection query.
    let mut doc_mix = Mix::of(args.rng(1), vec![common::triples(auctions, ITEM_QUERIES)]);
    let mut collection_mix = Mix::new(args.rng(2), &[ITEM_QUERIES, BOOK_QUERIES]);
    let mut positions = args.rng(3);
    let total = (args.seconds * RATE).ceil() as usize;
    let mut plan = Vec::with_capacity(total);
    while plan.len() < total {
        let at = positions.gen_range(0..COLLECTION_EVERY);
        for j in 0..COLLECTION_EVERY {
            let (doc, query, k) = if j == at {
                let (query, k) = collection_mix.next();
                (0, query, k)
            } else {
                doc_mix.next()
            };
            plan.push(Request {
                collection: j == at,
                doc,
                query,
                k,
            });
        }
    }
    plan.truncate(total);

    let before = daemon_counters(addr)?;
    let start_at = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let trace_on = tr.is_on();
    let origin = tr.origin();
    let per_client: Vec<(Vec<(usize, Sent)>, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (plan, next) = (&plan, &next);
                scope.spawn(move || {
                    let mut traced = Tracer::with_origin(trace_on, origin);
                    let mut untraced = Tracer::with_origin(false, origin);
                    let mut log = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&request) = plan.get(i) else { break };
                        let due = start_at + Duration::from_secs_f64(i as f64 / RATE);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        // Every other request is traced, for the overhead.
                        let t = if i % 2 == 0 {
                            &mut traced
                        } else {
                            &mut untraced
                        };
                        t.set_op(i as u64);
                        let root = t.begin_at(OP, due);
                        let sent = Instant::now();
                        let reply = t.time("serve.request", || {
                            http(addr, "POST", "/query", &request.body())
                        });
                        let done = Instant::now();
                        t.end(root);
                        log.push((
                            i,
                            Sent {
                                request,
                                due,
                                sent,
                                done,
                                reply,
                            },
                        ));
                    }
                    (log, traced)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut log: Vec<(usize, Sent)> = Vec::new();
    for (l, traced) in per_client {
        log.extend(l);
        tr.absorb(traced);
    }
    log.sort_by_key(|(i, _)| *i);
    let peak_rss_mb = common::peak_rss_mb();

    // Quiesce, then read the daemon's own counters.
    let quiet_by = Instant::now() + Duration::from_secs(10);
    while daemon.inflight() > 0 && Instant::now() < quiet_by {
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = daemon_counters(addr)?;
    daemon.shutdown();
    let delta = |name: &str| after[name] - before[name];
    if after["inflight"] != 0
        || after["admitted"] != after["exact"] + after["degraded"] + after["timed_out"]
    {
        rep.broken.push(format!(
            "/metrics conservation violated at quiescence: {after:?}"
        ));
    }

    // Answer check against in-process evaluation, outside the run.
    let mut registry = Collection::new();
    for (name, xml) in &inputs {
        registry
            .add_source(name.as_str(), xml)
            .map_err(|e| format!("parse {name}: {e}"))?;
    }
    let mut parsed = Vec::new();
    for (name, xml) in &inputs[..auctions] {
        let doc = parse_document(xml).map_err(|e| format!("parse {name}: {e}"))?;
        let index = TagIndex::build(&doc);
        parsed.push((doc, index));
    }
    let mut oracle: BTreeMap<Request, Vec<f64>> = BTreeMap::new();
    let mut latencies = Vec::new();
    let (mut traced_lat, mut untraced_lat) = (Duration::ZERO, Duration::ZERO);
    let mut late = Vec::new();
    let (mut server_ms, mut outside_ms) = (Vec::new(), Vec::new());
    let mut completed = 0usize;
    let mut last_done = start_at;
    for (i, s) in &log {
        let problem = match &s.reply {
            Err(e) => Some(e.clone()),
            Ok((200, body)) => match exact_scores(body) {
                Err(e) => Some(e),
                Ok((scores, elapsed)) => {
                    server_ms.push(elapsed);
                    outside_ms.push(common::ms(s.done - s.sent) - elapsed);
                    let expected = oracle
                        .entry(s.request)
                        .or_insert_with(|| oracle_scores(&parsed, &registry, &s.request));
                    let same = scores.len() == expected.len()
                        && scores
                            .iter()
                            .zip(expected.iter())
                            .all(|(a, b)| (a - b).abs() < 1e-5);
                    (!same).then(|| "scores differ from in-process evaluation".to_string())
                }
            },
            Ok((status, _)) => Some(format!("HTTP {status}")),
        };
        let r = &s.request;
        completed += usize::from(problem.is_none());
        rep.check(problem.map(|p| {
            let target = if r.collection {
                "collection".to_string()
            } else {
                format!("auction-{}", r.doc)
            };
            format!("{} k={} on {target}: {p}", r.query, r.k)
        }));
        last_done = last_done.max(s.done);
        latencies.push(common::ms(s.done - s.due));
        late.push(common::ms(s.sent.saturating_duration_since(s.due)));
        if i % 2 == 0 {
            traced_lat += s.done - s.due;
        } else {
            untraced_lat += s.done - s.due;
        }
    }

    let lat = Latency::of(&latencies).ok_or("no request completed")?;
    rep.op_samples = lat.n;
    rep.set("setup_s", median(&setup_s).expect("set-ups ran"));
    rep.set("op_p50_ms", lat.p50);
    rep.set("op_p90_ms", lat.p90);
    rep.set(
        "ops_per_s",
        completed as f64 / last_done.duration_since(start_at).as_secs_f64(),
    );
    rep.set("peak_rss_mb", peak_rss_mb);
    rep.set("disk_bytes_per_input_byte", wps_bytes / xml_bytes);

    if tr.is_on() {
        fill_layers(rep, tr.spans());
        rep.set(
            "xml.parse_mb_s",
            xml_bytes * SETUPS as f64 / 1e6 / total_s(tr.spans(), "xml.parse"),
        );
        rep.set("store.bytes_written", wps_bytes);
        rep.set("serve.server_ms", median(&server_ms).unwrap_or(0.0));
        rep.set("serve.outside_ms", median(&outside_ms).unwrap_or(0.0));
        rep.set("serve.shed", delta("shed") as f64);
        rep.set("serve.rejected", delta("rejected") as f64);
        rep.set("serve.degraded", delta("degraded") as f64);
        late.sort_by(f64::total_cmp);
        rep.set("loadgen.late_p90_ms", percentile(&late, 0.9).unwrap_or(0.0));
        let keys: Vec<_> = log.iter().map(|(_, s)| s.request).collect();
        rep.set("loadgen.repeat_frac", common::repeat_frac(&keys));
        rep.set("loadgen.op_samples", lat.n as f64);
        // Even requests are traced, odd ones not.
        let traced_n = log.len().div_ceil(2) as f64;
        let untraced_n = (log.len() / 2).max(1) as f64;
        rep.set(
            "trace.overhead_frac",
            (traced_lat.as_secs_f64() / traced_n) / (untraced_lat.as_secs_f64() / untraced_n) - 1.0,
        );
    }
    Ok(())
}
