//! Correctness and durability gates. All of it runs outside the timed
//! windows: the timed loop only stores an order-independent fingerprint of
//! each reply, and the fingerprints are compared here afterwards.

use crate::plan::{mix64, Inputs, Op, Spec};
use crate::stack::{requests, served, top_k_query, Res, Stack};
use planar_core::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, FeatureTable, InequalityQuery,
    Partitioner, SeqScan, VecStore, WalOptions,
};
use planar_serve::Response;
use std::path::Path;
use std::time::Instant;

/// Order-independent digest of an answer: inequality answers come back in
/// shard-concatenation order, so they are compared as id sets; top-k
/// answers as exact `(id, distance)` pairs.
pub fn fingerprint(reply: &Response) -> u64 {
    match reply {
        Response::Matches { ids, .. } => fp_ids(ids),
        Response::Neighbors { neighbors, .. } => fp_pairs(neighbors),
        _ => 0,
    }
}

pub fn fp_ids(ids: &[u32]) -> u64 {
    ids.iter().fold(mix64(ids.len() as u64), |h, &id| {
        h.wrapping_add(mix64(u64::from(id) + 1))
    })
}

pub fn fp_pairs(pairs: &[(u32, f64)]) -> u64 {
    pairs
        .iter()
        .fold(mix64(!(pairs.len() as u64)), |h, &(id, d)| {
            h.wrapping_add(mix64(u64::from(id) ^ mix64(d.to_bits())))
        })
}

/// Check one served answer against the oracle's; `Ok` holds the
/// oracle's fingerprint.
pub fn compare(served: &Response, want: &Expected) -> Res<u64> {
    match (served, want) {
        (Response::Matches { ids, .. }, Expected::Ids(want)) => {
            let mut got = ids.clone();
            got.sort_unstable();
            if &got == want {
                Ok(fp_ids(want))
            } else {
                Err(format!(
                    "id set differs: served {} ids, oracle {}",
                    got.len(),
                    want.len()
                ))
            }
        }
        (Response::Neighbors { neighbors, .. }, Expected::Pairs(want)) => {
            if neighbors == want {
                Ok(fp_pairs(want))
            } else {
                Err(format!(
                    "top-k pairs differ: served {:?}…, oracle {:?}…",
                    neighbors.first(),
                    want.first()
                ))
            }
        }
        _ => Err(format!("reply kind does not match the query: {served:?}")),
    }
}

/// An oracle answer: sorted ids, or exact top-k pairs.
pub enum Expected {
    Ids(Vec<u32>),
    Pairs(Vec<(u32, f64)>),
}

/// The `SeqScan` answer for `q` over `table`, keeping only live ids.
pub fn scan_answer(
    spec: &Spec,
    table: &FeatureTable,
    live: &[bool],
    q: &InequalityQuery,
) -> Expected {
    let scan = SeqScan::new(table);
    match top_k_query(spec, q) {
        Some(tk) => Expected::Pairs(scan.top_k(&tk).expect("pool queries match the table")),
        None => {
            let mut ids = scan.evaluate(q).expect("pool queries match the table");
            ids.retain(|&id| live[id as usize]);
            Expected::Ids(ids)
        }
    }
}

/// The untimed gate before timing: every pool query over the socket must
/// equal `SeqScan` over the generated table. Returns each pool query's
/// expected fingerprint. `corrupt` tampers with the first served answer
/// (used by the self-test that the gate trips).
pub fn gate_pool(spec: &Spec, inputs: &Inputs, stack: &mut Stack, corrupt: bool) -> Res<Vec<u64>> {
    let live = vec![true; inputs.table.len()];
    let reqs = requests(spec, &inputs.pool);
    let mut fps = Vec::with_capacity(reqs.len());
    for (i, (q, req)) in inputs.pool.iter().zip(&reqs).enumerate() {
        let mut reply =
            served(stack.client.call(req)).map_err(|e| format!("gate query {i}: {e}"))?;
        if corrupt && i == 0 {
            tamper(&mut reply);
        }
        let want = scan_answer(spec, &inputs.table, &live, q);
        fps.push(compare(&reply, &want).map_err(|e| format!("gate query {i}: {e}"))?);
    }
    Ok(fps)
}

fn tamper(reply: &mut Response) {
    match reply {
        Response::Matches { ids, .. } => match ids.first_mut() {
            Some(id) => *id ^= 1,
            None => ids.push(0),
        },
        Response::Neighbors { neighbors, .. } => match neighbors.first_mut() {
            Some(p) => p.1 = f64::from_bits(p.1.to_bits() ^ 1),
            None => neighbors.push((0, 0.0)),
        },
        _ => {}
    }
}

/// The benchmark's own copy of the rows: indexed by global id, with a
/// live flag per id and each row's shard (fixed at insert time).
pub struct Mirror {
    pub table: FeatureTable,
    pub live: Vec<bool>,
    pub shard: Vec<usize>,
    partitioner: Partitioner,
}

impl Mirror {
    pub fn new(table: &FeatureTable, partitioner: Partitioner) -> Self {
        let shard = table
            .iter()
            .map(|(id, row)| partitioner.route(id, row))
            .collect();
        Mirror {
            table: table.clone(),
            live: vec![true; table.len()],
            shard,
            partitioner,
        }
    }

    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Read(_) => {}
            Op::Insert(row) => {
                let id = self.table.push_row(row).expect("planned rows are finite");
                self.live.push(true);
                self.shard.push(self.partitioner.route(id, row));
            }
            Op::Update(id, row) => self.table.update_row(*id, row).expect("planned id exists"),
            Op::Delete(id) => self.live[*id as usize] = false,
        }
    }

    pub fn live_rows(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
}

/// Replay the op sequence over a mirror and return, per timed op, the
/// fingerprint the oracle expects (0 for writes). For read-only workloads
/// this is the pool gate's fingerprint of the op's query.
pub fn expected_per_op(
    spec: &Spec,
    inputs: &Inputs,
    pool_fps: &[u64],
    mirror: Option<&mut Mirror>,
) -> Vec<u64> {
    let Some(mirror) = mirror else {
        return inputs
            .timed()
            .iter()
            .map(|op| match op {
                Op::Read(q) => pool_fps[*q],
                _ => 0,
            })
            .collect();
    };
    // Answers only change at writes, so cache per query between writes.
    let mut cache: Vec<Option<u64>> = vec![None; inputs.pool.len()];
    let mut out = Vec::with_capacity(inputs.timed().len());
    for (i, op) in inputs.ops.iter().enumerate() {
        let fp =
            match op {
                Op::Read(q) if i >= inputs.warmup => *cache[*q].get_or_insert_with(|| {
                    match scan_answer(spec, &mirror.table, &mirror.live, &inputs.pool[*q]) {
                        Expected::Ids(ids) => fp_ids(&ids),
                        Expected::Pairs(p) => fp_pairs(&p),
                    }
                }),
                Op::Read(_) => 0,
                write => {
                    mirror.apply(write);
                    cache.iter_mut().for_each(|c| *c = None);
                    0
                }
            };
        if i >= inputs.warmup {
            out.push(fp);
        }
    }
    out
}

/// Compare the fingerprints recorded in a timed window with the oracle's.
pub fn check_fingerprints(got: &[u64], want: &[u64], ops: &[Op]) -> Res<()> {
    for (i, ((g, w), op)) in got.iter().zip(want).zip(ops).enumerate() {
        if !op.is_write() && g != w {
            return Err(format!(
                "timed op {i}: served answer differs from the oracle"
            ));
        }
    }
    Ok(())
}

/// Final-state gate: every pool query over the socket equals `SeqScan`
/// over the mirror.
pub fn gate_final(spec: &Spec, inputs: &Inputs, stack: &mut Stack, mirror: &Mirror) -> Res<()> {
    for (i, (q, req)) in inputs
        .pool
        .iter()
        .zip(requests(spec, &inputs.pool))
        .enumerate()
    {
        let reply = served(stack.client.call(&req)).map_err(|e| format!("final query {i}: {e}"))?;
        compare(&reply, &scan_answer(spec, &mirror.table, &mirror.live, q))
            .map_err(|e| format!("final query {i}: {e}"))?;
    }
    Ok(())
}

/// Durability gate: reopen the WAL directory (the engine must already be
/// dropped) and require every acked write: each id's liveness, each live
/// row's values, and every pool answer. Returns the recovery time in s.
pub fn gate_durable(spec: &Spec, inputs: &Inputs, dir: &Path, mirror: &Mirror) -> Res<f64> {
    let t0 = Instant::now();
    let (engine, _report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
        dir,
        WalOptions::default(),
        ConcurrencyConfig::default(),
    )
    .map_err(|e| format!("reopen: {e}"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    let snap = engine.snapshot();
    if snap.len() != mirror.live_rows() {
        return Err(format!(
            "recovered {} live rows, acked state has {}",
            snap.len(),
            mirror.live_rows()
        ));
    }
    // Local ids are dense per shard in global-id order (nothing compacts).
    let mut next_local = vec![0usize; snap.num_shards()];
    for (id, row) in mirror.table.iter() {
        let (shard, live) = (mirror.shard[id as usize], mirror.live[id as usize]);
        let local = next_local[shard];
        next_local[shard] += 1;
        if snap.is_live(id) != live {
            return Err(format!(
                "id {id}: recovered liveness {} != acked {live}",
                !live
            ));
        }
        let got = snap.shard(shard).map(|s| s.table().row(local as u32));
        if live && got != Some(row) {
            return Err(format!("id {id}: recovered row differs from the acked row"));
        }
    }
    for (i, q) in inputs.pool.iter().enumerate() {
        let got = match top_k_query(spec, q) {
            Some(tk) => Response::Neighbors {
                neighbors: snap.top_k(&tk).map_err(|e| e.to_string())?.neighbors,
                provenance: Default::default(),
            },
            None => Response::Matches {
                ids: snap.query(q).map_err(|e| e.to_string())?.matches,
                provenance: Default::default(),
            },
        };
        compare(&got, &scan_answer(spec, &mirror.table, &mirror.live, q))
            .map_err(|e| format!("recovered query {i}: {e}"))?;
    }
    Ok(recover_s)
}
