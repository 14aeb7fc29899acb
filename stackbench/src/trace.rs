//! The traced pass: the same op sequence again, and after each socket op's
//! client span closes, the op replayed through the library's public
//! functions with a span around each call — `Engine::snapshot`, the
//! sharded `query_with`/`top_k_with`, each `shard(pos)` call,
//! `wire::encode_response` plus `read_frame`/`decode_response` on the reply
//! actually received, and (every `SCAN_EVERY`-th read) `SeqScan`. Nothing
//! is traced inside the program, so a layer's self time inside a call it
//! cannot see into is a difference of spans: `shard.self_us` is the
//! sharded call minus its per-shard calls replayed on their own.

use crate::oracle::fingerprint;
use crate::plan::{Op, Spec};
use crate::stack::{served, top_k_query, Stack};
use planar_core::{
    ExecutionConfig, FeatureTable, InequalityQuery, QueryScratch, QueryStats, SeqScan, TopKStats,
};
use planar_serve::{wire, Request, ServerMetrics};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `SeqScan` costs ~17 ms at n = 1M, so it is replayed on one read in
/// this many to keep the traced pass short.
const SCAN_EVERY: u64 = 8;
const ROOT: u32 = u32::MAX;

/// One recorded span. `tag` is the shard position for per-shard calls.
pub struct Span {
    req: u32,
    name: &'static str,
    tag: u32,
    parent: u32,
    start: Instant,
    end: Instant,
}

/// Per-op samples of the traced pass.
#[derive(Default)]
pub struct Layers {
    pub client_us: Vec<f64>,
    pub server_us: Vec<f64>,
    pub net_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub shard_us: Vec<f64>,
    pub shard_self_us: Vec<f64>,
    pub skew: Vec<f64>,
    pub planar_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub unexplained_us: Vec<f64>,
    pub scan_ms: Vec<f64>,
    pub resp_bytes: u64,
    pub reads: u64,
    /// Sums over reads of the engine's own counters.
    pub ii_rows: u64,
    pub verified: u64,
    pub matched: u64,
    pub checked: u64,
    pub rows: u64,
    pub quant_lanes: u64,
    pub writes: u64,
    pub write_ns: Vec<f64>,
    pub clone_us: u64,
    pub clone_bytes: u64,
    pub fsyncs: u64,
    pub batches: u64,
    pub coalesced: u64,
    pub fps: Vec<u64>,
    pub failed: usize,
    pub first_failure: Option<String>,
}

/// Append a span; returns its index for use as a parent.
fn record(
    spans: &mut Vec<Span>,
    req: usize,
    name: &'static str,
    tag: u32,
    parent: u32,
    start: Instant,
    end: Instant,
) -> u32 {
    spans.push(Span {
        req: req as u32,
        name,
        tag,
        parent,
        start,
        end,
    });
    (spans.len() - 1) as u32
}

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Server-side enqueue→answer time summed over all answered requests, µs.
fn server_sum_us(m: &ServerMetrics, top_k: bool) -> f64 {
    let h = if top_k {
        &m.topk_latency
    } else {
        &m.query_latency
    };
    h.mean_us() * h.count() as f64
}

/// Run `ops` traced. `scan_table` is the table `SeqScan` is timed on.
pub fn traced_pass(
    spec: &Spec,
    stack: &mut Stack,
    reqs: &[Request],
    pool: &[InequalityQuery],
    ops: &[Op],
    next_id: &mut u32,
    scan_table: &FeatureTable,
) -> (Layers, Vec<Span>) {
    let mut l = Layers::default();
    let mut spans: Vec<Span> = Vec::with_capacity(ops.len() * 12);
    let metrics = stack.server.metrics();
    let top_k = spec.top_k.is_some();
    let batches0 = metrics.batches.load(std::sync::atomic::Ordering::Relaxed);
    let coalesced0 = metrics.coalesced.load(std::sync::atomic::Ordering::Relaxed);
    let exec = ExecutionConfig::serial();
    let mut scratch = QueryScratch::new();

    for (i, op) in ops.iter().enumerate() {
        let Op::Read(qi) = op else {
            let (e0, f0) = (stack.engine.epoch_stats(), stack.engine.fsync_count());
            let t0 = Instant::now();
            let r = stack.engine.write(op, *next_id);
            let t1 = Instant::now();
            record(&mut spans, i, "client.write", 0, ROOT, t0, t1);
            let (e1, f1) = (stack.engine.epoch_stats(), stack.engine.fsync_count());
            if matches!(op, Op::Insert(_)) {
                *next_id += 1;
            }
            l.fps.push(0);
            if let Err(e) = r {
                l.failed += 1;
                l.first_failure.get_or_insert(format!("traced op {i}: {e}"));
                continue;
            }
            l.writes += 1;
            l.write_ns.push((t1 - t0).as_nanos() as f64);
            l.clone_us += e1.clone_micros - e0.clone_micros;
            l.clone_bytes += e1.clone_bytes - e0.clone_bytes;
            l.fsyncs += f1 - f0;
            continue;
        };

        let server0 = server_sum_us(&metrics, top_k);
        let t0 = Instant::now();
        let reply = served(stack.client.call(&reqs[*qi]));
        let t1 = Instant::now();
        record(&mut spans, i, "client.read", 0, ROOT, t0, t1);
        let server = server_sum_us(&metrics, top_k) - server0;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                l.fps.push(0);
                l.failed += 1;
                l.first_failure.get_or_insert(format!("traced op {i}: {e}"));
                continue;
            }
        };
        l.fps.push(fingerprint(&reply));

        // Replay through the library.
        let r0 = Instant::now();
        let snap = stack.engine.snapshot();
        let r1 = Instant::now();
        let q = &pool[*qi];
        let tk = top_k_query(spec, q);
        let stats = match &tk {
            Some(tk) => {
                let out = snap
                    .top_k_with(tk, &exec, &mut scratch)
                    .expect("a query the server just answered replays");
                l.matched += out.neighbors.len() as u64;
                Stats::TopK(out.shard_stats)
            }
            None => Stats::Query(
                snap.query_with(q, &exec, &mut scratch)
                    .expect("a query the server just answered replays")
                    .shard_stats,
            ),
        };
        let r2 = Instant::now();
        let mut shard_times = Vec::with_capacity(snap.num_shards());
        let mut shard_spans = Vec::with_capacity(snap.num_shards());
        for pos in 0..snap.num_shards() {
            let shard = snap.shard(pos).expect("shard in range");
            let p0 = Instant::now();
            match &tk {
                Some(tk) => drop(black_box(shard.top_k_with(tk, &exec, &mut scratch))),
                None => drop(black_box(shard.query_with(q, &exec, &mut scratch))),
            }
            let p1 = Instant::now();
            shard_times.push(us(p0, p1));
            shard_spans.push((pos as u32, p0, p1));
        }
        let e0 = Instant::now();
        let bytes = wire::encode_response(&reply);
        let e1 = Instant::now();
        let decoded = wire::read_frame(&mut bytes.as_slice())
            .ok()
            .flatten()
            .and_then(|(kind, body)| wire::decode_response(kind, &body));
        let e2 = Instant::now();
        black_box(decoded);
        let scan = l.reads.is_multiple_of(SCAN_EVERY).then(|| {
            let s0 = Instant::now();
            let scan = SeqScan::new(scan_table);
            match &tk {
                Some(tk) => drop(black_box(scan.top_k(tk))),
                None => drop(black_box(scan.evaluate(q))),
            }
            (s0, Instant::now())
        });

        let root = record(
            &mut spans,
            i,
            "replay",
            0,
            ROOT,
            r0,
            scan.map_or(e2, |s| s.1),
        );
        record(&mut spans, i, "engine.snapshot", 0, root, r0, r1);
        let sharded = record(&mut spans, i, "shard.query_with", 0, root, r1, r2);
        for (pos, p0, p1) in shard_spans {
            record(&mut spans, i, "planar.query_with", pos, sharded, p0, p1);
        }
        record(&mut spans, i, "wire.encode_response", 0, root, e0, e1);
        record(&mut spans, i, "wire.decode_response", 0, root, e1, e2);
        if let Some((s0, s1)) = scan {
            record(&mut spans, i, "scan.seq_scan", 0, root, s0, s1);
            l.scan_ms.push(us(s0, s1) / 1e3);
        }

        let client = us(t0, t1);
        let shard_total: f64 = shard_times.iter().sum();
        let shard_max = shard_times.iter().cloned().fold(0.0, f64::max);
        l.client_us.push(client);
        l.server_us.push(server);
        l.net_us.push(client - server);
        l.snapshot_us.push(us(r0, r1));
        l.shard_us.push(us(r1, r2));
        l.shard_self_us.push(us(r1, r2) - shard_total);
        l.skew
            .push(shard_max / (shard_total / shard_times.len() as f64));
        l.planar_us.extend(&shard_times);
        l.encode_us.push(us(e0, e1));
        l.decode_us.push(us(e1, e2));
        l.unexplained_us
            .push(client - us(r0, r1) - us(r1, r2) - us(e0, e1) - us(e1, e2));
        l.resp_bytes += bytes.len() as u64;
        l.reads += 1;
        stats.add_to(&mut l);
    }
    l.batches = metrics.batches.load(std::sync::atomic::Ordering::Relaxed) - batches0;
    l.coalesced = metrics.coalesced.load(std::sync::atomic::Ordering::Relaxed) - coalesced0;
    (l, spans)
}

/// Per-shard statistics of one replayed read.
enum Stats {
    Query(Vec<QueryStats>),
    TopK(Vec<TopKStats>),
}

impl Stats {
    fn add_to(&self, l: &mut Layers) {
        match self {
            Stats::Query(shards) => {
                for s in shards {
                    l.ii_rows += s.intermediate as u64;
                    l.verified += s.verified as u64;
                    l.matched += s.matched as u64;
                    l.checked += s.verified as u64;
                    l.rows += s.n as u64;
                    l.quant_lanes += s.quant.lanes as u64;
                }
            }
            Stats::TopK(shards) => {
                for s in shards {
                    l.ii_rows += s.intermediate as u64;
                    l.verified += s.verified as u64;
                    l.checked += s.checked() as u64;
                    l.rows += s.n as u64;
                }
            }
        }
    }
}

/// Write the spans as JSON lines, times in µs from the first span.
pub fn write_spans(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let Some(origin) = spans.iter().map(|s| s.start).min() else {
        return out.flush();
    };
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"req\":{},\"name\":\"{}\",\"shard\":{},\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.req,
            s.name,
            s.tag,
            parent,
            us(origin, s.start),
            us(origin, s.end)
        )?;
    }
    out.flush()
}
