//! End-to-end benchmark of the planar serving stack.
//!
//! ```text
//! stackbench --workload <ineq_t1|topk_t3|mixed_rw> --seed <n> --seconds <s> --trace <0|1> [--n <rows>]
//! ```
//!
//! One run: seeded inputs → set-up (three times with `--trace 0`, median
//! reported) → untimed correctness gate → warm-up → timed closed loop →
//! untimed answer, final-state and durability gates. `--trace 1` then
//! runs the same ops again with per-layer spans (see `trace.rs`) and
//! reports the per-layer metrics instead of the end-to-end ones. The last
//! stdout line is the JSON result; README.md explains every metric.

mod oracle;
mod plan;
mod report;
mod stack;
mod trace;
mod window;

use plan::{Inputs, Op, Spec, DIM, WORKLOADS};
use report::{group_medians, median, percentile, ratio, result_line, Metrics};
use stack::{requests, setup, Res, SetupTimes, Stack};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use window::Window;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Scratch space inside the working directory (durable engines' WALs).
const TMP_DIR: &str = ".bench_tmp";
/// Where the traced run writes its spans.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: stackbench --workload <ineq_t1|topk_t3|mixed_rw> --seed <n> \
                     --seconds <s> --trace <0|1> [--n <rows>] [--corrupt-gate]";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    n: usize,
    /// Tamper with one gate answer (self-test of the oracle gate).
    corrupt_gate: bool,
}

fn value<T: FromStr>(flag: &str, v: &str) -> Res<T> {
    v.parse().map_err(|_| format!("bad value for {flag}: {v}"))
}

fn parse_args() -> Res<Args> {
    let mut it = std::env::args().skip(1);
    let (mut spec, mut seed, mut seconds, mut trace, mut n) = (None, None, None, None, None);
    let mut corrupt_gate = false;
    while let Some(flag) = it.next() {
        if flag == "--corrupt-gate" {
            corrupt_gate = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == v);
                spec = Some(*w.ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value::<u64>(&flag, &v)?),
            "--seconds" => seconds = Some(value::<f64>(&flag, &v)?),
            "--trace" => trace = Some(value::<u8>(&flag, &v)? != 0),
            "--n" => n = Some(value::<usize>(&flag, &v)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spec: Spec = spec.ok_or("--workload is required")?;
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        n: n.unwrap_or(spec.n).max(1000),
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        corrupt_gate,
    })
}

/// Why a run ended early.
enum Stop {
    /// A correctness or durability gate failed: reported as `correct: false`.
    Gate {
        what: &'static str,
        why: String,
        attempted: usize,
        failed: usize,
    },
    /// The stack could not be built or run.
    Fatal(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Fatal(e)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(TMP_DIR).join(format!("{}-{}", args.spec.name, std::process::id()));
    let outcome = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(Stop::Gate {
            what,
            why,
            attempted,
            failed,
        }) => {
            eprintln!("stackbench: {what} gate failed: {why}");
            println!(
                "{}",
                result_line(false, attempted.max(1), failed, &Metrics::default())
            );
            ExitCode::from(1)
        }
        Err(Stop::Fatal(e)) => {
            eprintln!("stackbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Builds stacks for one run, each durable one in a fresh directory.
struct Stacks<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    tmp: &'a Path,
    built: usize,
}

impl Stacks<'_> {
    fn next(&mut self) -> Res<Stack> {
        self.built += 1;
        let dir = self
            .spec
            .durable
            .then(|| self.tmp.join(format!("wal-{}", self.built)));
        setup(self.spec, &self.inputs.data, dir.as_deref())
    }
}

fn run(args: &Args, tmp: &Path) -> Result<String, Stop> {
    let spec = &args.spec;
    let timed_ops = (args.seconds * spec.nominal_ops_per_s).round() as usize;
    let inputs = plan::make_inputs(spec, args.n, args.seed, timed_ops);
    let reqs = requests(spec, &inputs.pool);
    let provenance = report::provenance(spec.name, args.seed, args.n, args.trace);
    println!(
        "stackbench {} seed={} n={} pool={} warmup_ops={} timed_ops={}",
        spec.name,
        args.seed,
        args.n,
        inputs.pool.len(),
        inputs.warmup,
        inputs.timed().len()
    );
    println!("provenance {provenance}");
    let mut stacks = Stacks {
        spec,
        inputs: &inputs,
        tmp,
        built: 0,
    };
    let mut u = untraced(args, &inputs, &reqs, &mut stacks)?;
    let e2e = EndToEnd::of(&u, &inputs);

    if !args.trace {
        let totals: Vec<f64> = u.setup_times.iter().map(SetupTimes::total).collect();
        let timed = inputs.timed().len();
        let mut m = Metrics::default();
        m.add("setup_s", median(&totals), "s", totals.len());
        m.add("read_p50_ms", e2e.read_p50_ms, "ms", u.w.read_ns.len());
        m.add("read_p90_ms", e2e.read_p90_ms, "ms", u.w.read_ns.len());
        m.add("ops_per_s", ratio(timed as f64, u.w.wall_s), "1/s", timed);
        m.add("space_amp", u.space_amp, "ratio", 1);
        m.print("end-to-end (untraced)");
        let mut extra = Metrics::default();
        extra.add("write_p50_ms", e2e.write_p50_ms, "ms", u.w.write_ns.len());
        extra.add("write_p90_ms", e2e.write_p90_ms, "ms", u.w.write_ns.len());
        extra.add("wal_amp", e2e.wal_amp, "ratio", u.w.write_ns.len());
        extra.add("fail_frac", e2e.fail_frac, "ratio", u.attempted);
        extra.add("read_all_p50_ms", e2e.all_p50_ms, "ms", u.w.read_ns.len());
        extra.add("read_all_p90_ms", e2e.all_p90_ms, "ms", u.w.read_ns.len());
        extra.print("end-to-end, workload-specific (report only)");
        return Ok(result_line(true, u.attempted, u.failed, &m));
    }

    // Traced pass: the same ops again, up to about a third of the timed
    // window (whole passes over the pool, so the query mix is the
    // window's); replaying every op makes a traced op ~3× as long, and the
    // per-layer medians need no more samples. Reads leave the engine as it
    // was; the durable engine is set up afresh so the writes replay
    // exactly.
    let traced = inputs.traced();
    let mut next_id = args.n as u32;
    let mut stack = match u.kept.take() {
        Some(s) => s,
        None => {
            let mut s = stacks.next()?;
            let warm = window::run(&mut s, &reqs, &inputs.ops[..inputs.warmup], &mut next_id);
            u.attempted += inputs.warmup;
            u.failed += warm.failed;
            s
        }
    };
    let wal0 = stack.dir.as_deref().map_or(0, dir_bytes);
    let (l, spans) = trace::traced_pass(
        spec,
        &mut stack,
        &reqs,
        &inputs.pool,
        traced,
        &mut next_id,
        &inputs.table,
    );
    let wal_growth = stack
        .dir
        .as_deref()
        .map_or(0, dir_bytes)
        .saturating_sub(wal0);
    drop(stack.shutdown());
    u.attempted += traced.len();
    u.failed += l.failed;
    if let Some(e) = &l.first_failure {
        eprintln!("stackbench: first failed traced op: {e}");
    }
    if let Err(why) = oracle::check_fingerprints(&l.fps, &u.expected, traced) {
        return Err(Stop::Gate {
            what: "traced answer",
            why,
            attempted: u.attempted,
            failed: u.failed,
        });
    }
    let spans_path = PathBuf::from(OUT_DIR).join(format!("{}.spans.jsonl", spec.name));
    if let Err(e) = trace::write_spans(&spans_path, &provenance, &spans) {
        eprintln!("stackbench: could not write {}: {e}", spans_path.display());
    }

    let m = layer_metrics(&u, &e2e, &l, wal_growth, inputs.timed().len());
    m.print("per-layer (traced)");
    predictions(spec, &m);
    Ok(result_line(true, u.attempted, u.failed, &m))
}

/// What the untraced part of a run measured.
struct Untraced {
    setup_times: Vec<SetupTimes>,
    w: Window,
    space_amp: f64,
    wal_growth: u64,
    recover_s: f64,
    /// The oracle's fingerprint of each timed op's answer.
    expected: Vec<u64>,
    /// The read-only stack, kept for the traced pass.
    kept: Option<Stack>,
    attempted: usize,
    failed: usize,
}

/// Set up, gate, warm up and run the timed window, then run the answer,
/// final-state and durability gates.
fn untraced(
    args: &Args,
    inputs: &Inputs,
    reqs: &[planar_serve::Request],
    stacks: &mut Stacks,
) -> Result<Untraced, Stop> {
    let spec = &args.spec;
    // Read-only workloads spread the timed window over the three stacks,
    // a third on each, with a warm-up before each third: the host's speed
    // drifts by ±10 % over tens of seconds, and sampling it at three
    // moments a set-up apart averages that drift (and three memory
    // layouts) instead of betting the run on one. The durable workload's
    // writes build on each other, so it runs all its ops on the last
    // stack.
    let setups = if args.trace { 1 } else { SETUPS };
    let parts = if spec.durable { 1 } else { setups };
    let timed = inputs.timed();
    let warmup = &inputs.ops[..inputs.warmup.div_ceil(parts)];
    let mut setup_times = Vec::new();
    let mut pool_fps = Vec::new();
    let mut w = Window::default();
    let mut warm_failed = 0;
    let mut next_id = args.n as u32;
    let mut wal_growth = 0;
    let mut stack = loop {
        let mut s = stacks.next()?;
        setup_times.push(s.times);
        // The last `parts` stacks each run one part.
        if let Some(part) = (setup_times.len() - 1).checked_sub(setups - parts) {
            if part == 0 {
                pool_fps =
                    oracle::gate_pool(spec, inputs, &mut s, args.corrupt_gate).map_err(|why| {
                        Stop::Gate {
                            what: "pool",
                            why,
                            attempted: inputs.pool.len(),
                            failed: 0,
                        }
                    })?;
            }
            warm_failed += window::run(&mut s, reqs, warmup, &mut next_id).failed;
            let ops = &timed[part * timed.len() / parts..(part + 1) * timed.len() / parts];
            let wal0 = s.dir.as_deref().map_or(0, dir_bytes);
            w.extend(window::run(&mut s, reqs, ops, &mut next_id));
            wal_growth += s.dir.as_deref().map_or(0, dir_bytes).saturating_sub(wal0);
        }
        if setup_times.len() == setups {
            break s;
        }
        drop(s.shutdown());
    };
    let snap = stack.engine.snapshot();
    let space_amp = snap.memory_usage() as f64 / (snap.len() * DIM * 8) as f64;
    let partitioner = snap.partitioner().clone();
    drop(snap);
    let attempted = timed.len() + parts * warmup.len();
    let failed = warm_failed + w.failed;
    if let Some(e) = &w.first_failure {
        eprintln!("stackbench: first failed op: {e}");
    }
    let gate = |what, why| Stop::Gate {
        what,
        why,
        attempted,
        failed,
    };

    let mut mirror = spec
        .durable
        .then(|| oracle::Mirror::new(&inputs.table, partitioner));
    let expected = oracle::expected_per_op(spec, inputs, &pool_fps, mirror.as_mut());
    oracle::check_fingerprints(&w.fps, &expected, timed).map_err(|why| gate("answer", why))?;
    let mut recover_s = 0.0;
    let kept = match &mirror {
        None => Some(stack),
        Some(mirror) => {
            oracle::gate_final(spec, inputs, &mut stack, mirror)
                .map_err(|why| gate("final-state", why))?;
            let dir = stack.dir.clone().expect("durable stack has a directory");
            drop(stack.shutdown());
            recover_s = oracle::gate_durable(spec, inputs, &dir, mirror)
                .map_err(|why| gate("durability", why))?;
            let _ = std::fs::remove_dir_all(&dir);
            None
        }
    };
    Ok(Untraced {
        setup_times,
        w,
        space_amp,
        wal_growth,
        recover_s,
        expected,
        kept,
        attempted,
        failed,
    })
}

/// The end-to-end figures of the untraced window.
struct EndToEnd {
    /// Median and 90th percentile over pool queries of each query's
    /// median latency.
    read_p50_ms: f64,
    read_p90_ms: f64,
    /// Median and 90th percentile over all timed reads.
    all_p50_ms: f64,
    all_p90_ms: f64,
    write_p50_ms: f64,
    write_p90_ms: f64,
    wal_amp: f64,
    fail_frac: f64,
}

impl EndToEnd {
    fn of(u: &Untraced, inputs: &Inputs) -> Self {
        let user_bytes: u64 = inputs.timed().iter().map(Op::user_bytes).sum();
        // Each pool query's median latency over its timed repeats: a host
        // hiccup or a cache refilled after a write slows a few repeats of
        // a query, not its median, so percentiles over these medians leave
        // host noise out of the latency of the query mix.
        let read_queries = inputs.timed().iter().filter_map(|op| match op {
            Op::Read(q) => Some(*q),
            _ => None,
        });
        let per_query = group_medians(
            read_queries.zip(u.w.read_ns.iter().copied()),
            inputs.pool.len(),
        );
        EndToEnd {
            read_p50_ms: median(&per_query) / 1e6,
            read_p90_ms: percentile(&per_query, 0.9) / 1e6,
            all_p50_ms: median(&u.w.read_ns) / 1e6,
            all_p90_ms: percentile(&u.w.read_ns, 0.9) / 1e6,
            write_p50_ms: percentile(&u.w.write_ns, 0.5) / 1e6,
            write_p90_ms: percentile(&u.w.write_ns, 0.9) / 1e6,
            wal_amp: ratio(u.wal_growth as f64, user_bytes as f64),
            fail_frac: ratio(u.failed as f64, u.attempted as f64),
        }
    }
}

/// The per-layer metrics of a traced run (README.md has the table).
fn layer_metrics(
    u: &Untraced,
    e2e: &EndToEnd,
    l: &trace::Layers,
    traced_wal_growth: u64,
    timed: usize,
) -> Metrics {
    let st = u.setup_times[0];
    let reads = l.reads as usize;
    let writes = l.writes as usize;
    let per_read = |x: u64| ratio(x as f64, l.reads as f64);
    let per_write = |x: u64| ratio(x as f64, l.writes as f64);
    let client_p50 = median(&l.client_us);
    let (enc, dec) = (median(&l.encode_us), median(&l.decode_us));
    let shard_us = median(&l.shard_us);
    let write_p50_us = percentile(&l.write_ns, 0.5) / 1e3;
    let checked = ratio(l.checked as f64, l.rows as f64);
    let n_writes = u.w.write_ns.len();
    let mut m = Metrics::default();
    m.add("serve.server_us", median(&l.server_us), "us", reads);
    m.add("serve.net_us", median(&l.net_us), "us", reads);
    m.add(
        "serve.batch_depth",
        ratio(l.coalesced as f64, l.batches as f64),
        "count",
        l.batches as usize,
    );
    m.add("wire.encode_us", enc, "us", reads);
    m.add("wire.decode_us", dec, "us", reads);
    m.add("wire.resp_bytes", per_read(l.resp_bytes), "bytes", reads);
    m.add(
        "wire.share_pct",
        100.0 * ratio(enc + dec, client_p50),
        "%",
        reads,
    );
    m.add(
        "concurrent.snapshot_us",
        median(&l.snapshot_us),
        "us",
        reads,
    );
    m.add("concurrent.clone_us", per_write(l.clone_us), "us", writes);
    m.add(
        "concurrent.clone_bytes",
        per_write(l.clone_bytes),
        "bytes",
        writes,
    );
    m.add(
        "concurrent.clone_share_pct",
        100.0 * ratio(per_write(l.clone_us), write_p50_us),
        "%",
        writes,
    );
    m.add("wal.fsyncs_per_write", per_write(l.fsyncs), "count", writes);
    m.add(
        "wal.bytes_per_write",
        per_write(traced_wal_growth),
        "bytes",
        writes,
    );
    m.add(
        "wal.recover_s",
        u.recover_s,
        "s",
        usize::from(u.recover_s > 0.0),
    );
    m.add("wal.amp", e2e.wal_amp, "ratio", n_writes);
    m.add("write.p50_ms", e2e.write_p50_ms, "ms", n_writes);
    m.add("write.p90_ms", e2e.write_p90_ms, "ms", n_writes);
    m.add("shard.query_us", shard_us, "us", reads);
    m.add("shard.self_us", median(&l.shard_self_us), "us", reads);
    m.add("shard.skew", median(&l.skew), "ratio", reads);
    m.add(
        "planar.query_us",
        median(&l.planar_us),
        "us",
        l.planar_us.len(),
    );
    m.add("index.ii_rows", per_read(l.ii_rows), "count", reads);
    m.add(
        "index.verified_per_match",
        ratio(l.verified as f64, l.matched as f64),
        "ratio",
        reads,
    );
    m.add("index.pruned_frac", 1.0 - checked, "ratio", reads);
    m.add("index.checked_pct", 100.0 * checked, "%", reads);
    m.add(
        "kernel.bytes",
        per_read(l.verified * (DIM as u64) * 8),
        "bytes",
        reads,
    );
    m.add("quant.lanes", per_read(l.quant_lanes), "count", reads);
    m.add("scan.query_ms", median(&l.scan_ms), "ms", l.scan_ms.len());
    m.add(
        "scan.speedup",
        ratio(median(&l.scan_ms) * 1e3, shard_us),
        "ratio",
        l.scan_ms.len(),
    );
    m.add("setup.datagen_s", st.datagen, "s", 1);
    m.add("setup.build_s", st.build, "s", 1);
    m.add("setup.create_s", st.create, "s", 1);
    m.add("proc.rss_mb", window::peak_rss_mb(), "MB", 1);
    m.add(
        "proc.cpu_ms_per_op",
        ratio(u.w.cpu_s * 1e3, timed as f64),
        "ms",
        timed,
    );
    m.add("trace.client_us", client_p50, "us", reads);
    m.add(
        "trace.overhead_us",
        client_p50 - e2e.all_p50_ms * 1e3,
        "us",
        reads,
    );
    m.add(
        "trace.unexplained_us",
        median(&l.unexplained_us),
        "us",
        reads,
    );
    m.add("ops.fail_frac", e2e.fail_frac, "ratio", u.attempted);
    m
}

/// Say whether the layer predictions of README.md held on this run.
fn predictions(spec: &Spec, m: &Metrics) {
    let verdict = |ok: bool| if ok { "held" } else { "NOT held" };
    let share = m.get("wire.share_pct");
    match spec.name {
        "ineq_t1" => println!(
            "prediction: wire share of read latency large on ineq_t1 (>= 25%): {share:.1}% {}",
            verdict(share >= 25.0)
        ),
        "topk_t3" => println!(
            "prediction: wire share of read latency small on topk_t3 (< 5%): {share:.1}% {}",
            verdict(share < 5.0)
        ),
        _ => {
            let clone = m.get("concurrent.clone_share_pct");
            let fsyncs = m.get("wal.fsyncs_per_write");
            println!(
                "prediction: clone dominates write latency on mixed_rw (>= 50%): {clone:.1}% {}",
                verdict(clone >= 50.0)
            );
            println!(
                "prediction: one fsync per write: {fsyncs} {}",
                verdict(fsyncs == 1.0)
            );
        }
    }
    let lanes = m.get("quant.lanes");
    println!(
        "prediction: quant.lanes = 0 under defaults: {lanes} {}",
        verdict(lanes == 0.0)
    );
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(md) if md.is_dir() => dir_bytes(&e.path()),
                    Ok(md) => md.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}
