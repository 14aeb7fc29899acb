//! The closed loop: one load thread, one binary-protocol connection,
//! each op waiting for its reply. The timed loop does only the op, two
//! clock reads, and a fingerprint of the reply into preallocated vectors.

use crate::oracle::fingerprint;
use crate::plan::Op;
use crate::stack::{served, Stack};
use planar_serve::Request;
use std::time::Instant;

/// What one pass over a slice of ops recorded.
#[derive(Default)]
pub struct Window {
    /// Client-observed latency of each read, ns.
    pub read_ns: Vec<f64>,
    /// Latency of each acked write, ns.
    pub write_ns: Vec<f64>,
    /// Reply fingerprint per op (0 for writes and failures).
    pub fps: Vec<u64>,
    /// Wall time of the pass, s.
    pub wall_s: f64,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// Process CPU seconds (all threads) spent during the pass.
    pub cpu_s: f64,
}

impl Window {
    /// Append another pass's records.
    pub fn extend(&mut self, other: Window) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.fps.extend(other.fps);
        self.wall_s += other.wall_s;
        self.failed += other.failed;
        self.cpu_s += other.cpu_s;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Run `ops` in order. `next_id` is the id the next insert must get.
pub fn run(stack: &mut Stack, reqs: &[Request], ops: &[Op], next_id: &mut u32) -> Window {
    let mut w = Window {
        read_ns: Vec::with_capacity(ops.len()),
        write_ns: Vec::with_capacity(ops.len()),
        fps: Vec::with_capacity(ops.len()),
        ..Window::default()
    };
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = match op {
            Op::Read(q) => served(stack.client.call(&reqs[*q])).map(|r| fingerprint(&r)),
            write => stack.engine.write(write, *next_id).map(|()| 0),
        };
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as f64;
        if op.is_write() {
            w.write_ns.push(ns);
        } else {
            w.read_ns.push(ns);
        }
        if matches!(op, Op::Insert(_)) {
            *next_id += 1;
        }
        match outcome {
            Ok(fp) => w.fps.push(fp),
            Err(e) => {
                w.fps.push(0);
                w.failed += 1;
                w.first_failure.get_or_insert(format!("op {i}: {e}"));
            }
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w.cpu_s = cpu_seconds() - cpu0;
    w
}

/// User + system CPU time of this process from `/proc/self/stat`, at the
/// kernel's 100 Hz tick (0 where procfs is absent).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
