//! Property tests for the concurrent execution layer (`core::concurrent`):
//!
//! 1. **Snapshot isolation** — a reader pinned to epoch *E* never observes
//!    a mutation from epoch *E + 1*, across random mutation traces: every
//!    pin answers bit-identically to a serial twin frozen at pin time.
//! 2. **Concurrent ≡ serialized** — readers racing a live writer record
//!    `(epoch, answer)` pairs; replaying the mutation stream serially must
//!    reproduce every recorded answer exactly, so concurrent execution is
//!    indistinguishable from some serial schedule.
//! 3. **Group commit never acks-then-loses** — a crash injected at every
//!    append position (failed, torn, or post-append) under
//!    `FsyncPolicy::Always` must leave every *acknowledged* mutation
//!    recoverable; the faulted mutation itself may or may not survive, but
//!    recovery always lands on a clean prefix of the attempted stream.
//! 4. **Reclaim-and-replay ≡ a serial twin** — every epoch any of the four
//!    wrappers (or a replica applying shipped frames) publishes, whether
//!    built by replaying the reclaimed spare or by a fallback clone,
//!    persists byte-for-byte like a single-threaded set given the same
//!    changes, with reader pins steering writes onto both paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use planar_core::fault::{arm_wal_fault, disarm_wal_fault, TempDir, WalFaultKind};
use planar_core::replicate::ChannelTransport;
use planar_core::{
    Cmp, ConcurrencyConfig, ConcurrentDurablePlanarIndexSet, ConcurrentDurableShardedIndexSet,
    ConcurrentPlanarIndexSet, ConcurrentShardedIndexSet, EpochStats, FailoverConfig, FeatureTable,
    FsyncPolicy, IndexConfig, InequalityQuery, Mutation, ParameterDomain, PlanarIndexSet, Primary,
    QuantAutotuneConfig, QuantPolicy, QuantTier, ReadConsistency, Replica, ShardConfig,
    ShardedIndexSet, VecStore, WalOptions,
};
use proptest::prelude::*;

/// The WAL fault trigger is process-global; crash-sweep cases serialize on
/// this lock so an armed fault is never consumed by a neighbor's writer.
static WAL_LOCK: Mutex<()> = Mutex::new(());

/// One step of a mutation trace. `pick` indexes the live-id list modulo
/// its length, so traces are valid by construction. No `Compact`: these
/// traces also drive per-epoch oracles, which rely on stable ids.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<f64>),
    Update(u16, Vec<f64>),
    Delete(u16),
}

/// A mutation as actually applied (picks resolved to concrete ids), in
/// LSN/epoch order.
#[derive(Debug, Clone)]
enum Applied {
    Insert(Vec<f64>),
    Update(u32, Vec<f64>),
    Delete(u32),
}

#[derive(Debug, Clone)]
struct Trace {
    dim: usize,
    rows: Vec<Vec<f64>>,
    ops: Vec<Op>,
    probes: Vec<(Vec<f64>, f64)>,
    budget: usize,
}

fn trace() -> impl Strategy<Value = Trace> {
    (1..=3usize).prop_flat_map(|dim| {
        let row = prop::collection::vec(0.1..50.0_f64, dim);
        let op = prop_oneof![
            5 => row.clone().prop_map(Op::Insert),
            3 => (any::<u16>(), row.clone()).prop_map(|(pick, r)| Op::Update(pick, r)),
            3 => any::<u16>().prop_map(Op::Delete),
        ];
        (
            Just(dim),
            prop::collection::vec(row, 3..12),
            prop::collection::vec(op, 1..14),
            prop::collection::vec(
                (prop::collection::vec(0.1..10.0_f64, dim), -50.0..150.0_f64),
                1..4,
            ),
            1..4usize,
        )
            .prop_map(|(dim, rows, ops, probes, budget)| Trace {
                dim,
                rows,
                ops,
                probes,
                budget,
            })
    })
}

fn build_planar(t: &Trace) -> PlanarIndexSet<VecStore> {
    let table = FeatureTable::from_rows(t.dim, t.rows.clone()).unwrap();
    let domain = ParameterDomain::uniform_continuous(t.dim, 0.1, 10.0).unwrap();
    PlanarIndexSet::build(table, domain, IndexConfig::with_budget(t.budget)).unwrap()
}

fn probe_queries(t: &Trace) -> Vec<InequalityQuery> {
    t.probes
        .iter()
        .map(|(coeffs, b)| InequalityQuery::new(coeffs.clone(), Cmp::Leq, *b).unwrap())
        .collect()
}

fn answers(set: &PlanarIndexSet<VecStore>, queries: &[InequalityQuery]) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|q| set.query(q).unwrap().sorted_ids())
        .collect()
}

/// Resolve the trace ops against a live-id list, returning the concrete
/// mutation stream a writer would apply (insert ids are `base + #prior
/// inserts` because deletes are tombstones and nothing compacts).
fn resolve_ops(t: &Trace) -> Vec<Applied> {
    let mut live: Vec<u32> = (0..t.rows.len() as u32).collect();
    let mut next_id = t.rows.len() as u32;
    let mut applied = Vec::new();
    for op in &t.ops {
        match op {
            Op::Insert(row) => {
                live.push(next_id);
                next_id += 1;
                applied.push(Applied::Insert(row.clone()));
            }
            Op::Update(pick, row) if !live.is_empty() => {
                let id = live[*pick as usize % live.len()];
                applied.push(Applied::Update(id, row.clone()));
            }
            Op::Delete(pick) if !live.is_empty() => {
                let slot = *pick as usize % live.len();
                let id = live.remove(slot);
                applied.push(Applied::Delete(id));
            }
            _ => {}
        }
    }
    applied
}

fn apply_one(set: &mut PlanarIndexSet<VecStore>, a: &Applied) {
    match a {
        Applied::Insert(row) => {
            set.insert_point(row).unwrap();
        }
        Applied::Update(id, row) => set.update_point(*id, row).unwrap(),
        Applied::Delete(id) => set.delete_point(*id).unwrap(),
    }
}

/// Serial-prefix oracle: the base set with the first `prefix` mutations
/// applied — what epoch `1 + prefix` (publish cadence 1) must answer.
fn oracle_prefix(t: &Trace, applied: &[Applied], prefix: usize) -> PlanarIndexSet<VecStore> {
    let mut set = build_planar(t);
    for a in &applied[..prefix] {
        apply_one(&mut set, a);
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot isolation, deterministically interleaved: pin a snapshot
    /// before every mutation, apply the whole trace, then demand each pin
    /// still answers exactly as the serial twin did at pin time — i.e. no
    /// pin ever observed a later epoch's mutation.
    #[test]
    fn pinned_epochs_never_observe_later_mutations(t in trace()) {
        let queries = probe_queries(&t);
        let applied = resolve_ops(&t);
        let conc = ConcurrentPlanarIndexSet::new(build_planar(&t), ConcurrencyConfig::default());
        let mut twin = build_planar(&t);

        let mut pins = Vec::with_capacity(applied.len() + 1);
        for a in &applied {
            // Record the pin and the serial twin's answers at pin time.
            pins.push((conc.snapshot(), answers(&twin, &queries)));
            match a {
                Applied::Insert(row) => {
                    prop_assert_eq!(
                        conc.insert_point(row).unwrap(),
                        twin.insert_point(row).unwrap()
                    );
                }
                Applied::Update(id, row) => {
                    conc.update_point(*id, row).unwrap();
                    twin.update_point(*id, row).unwrap();
                }
                Applied::Delete(id) => {
                    conc.delete_point(*id).unwrap();
                    twin.delete_point(*id).unwrap();
                }
            }
        }
        pins.push((conc.snapshot(), answers(&twin, &queries)));

        // Every pin answers as of its own epoch, not the final state.
        for (i, (snap, frozen)) in pins.iter().enumerate() {
            prop_assert_eq!(snap.epoch(), 1 + i as u64, "publish cadence 1: one epoch per mutation");
            prop_assert_eq!(&answers(snap, &queries), frozen, "pin {} drifted", i);
        }
        // And the grace-period ledger balances: dropping all pins lets
        // every retired epoch be reclaimed.
        drop(pins);
        conc.reclaim();
        let stats = conc.epoch_stats();
        prop_assert_eq!(stats.retired_live, 0);
        prop_assert_eq!(stats.reclaimed, stats.published);
    }

    /// Concurrent reads ≡ serialized execution: readers race a live writer
    /// and log `(epoch, answers)` observations; a serial replay of the
    /// mutation stream must reproduce every observation bit-identically.
    #[test]
    fn concurrent_reads_match_serialized_replay(t in trace()) {
        let queries = probe_queries(&t);
        let applied = resolve_ops(&t);
        let conc = ConcurrentPlanarIndexSet::new(build_planar(&t), ConcurrencyConfig::default());
        let stop = AtomicBool::new(false);

        let mut observations: Vec<Vec<(u64, Vec<Vec<u32>>)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..2 {
                handles.push(s.spawn(|| {
                    let mut seen = Vec::new();
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = conc.snapshot();
                        // Epochs are monotone from any single reader's view.
                        assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch();
                        seen.push((snap.epoch(), answers(&snap, &queries)));
                    }
                    seen
                }));
            }
            for a in &applied {
                match a {
                    Applied::Insert(row) => {
                        conc.insert_point(row).unwrap();
                    }
                    Applied::Update(id, row) => conc.update_point(*id, row).unwrap(),
                    Applied::Delete(id) => conc.delete_point(*id).unwrap(),
                }
            }
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                observations.push(h.join().unwrap());
            }
        });

        // Serialized replay: epoch e == base + first (e − 1) mutations.
        // Build each prefix oracle once, lazily.
        let mut oracles: Vec<Option<Vec<Vec<u32>>>> = vec![None; applied.len() + 1];
        for seen in &observations {
            for (epoch, got) in seen {
                let prefix = (*epoch - 1) as usize;
                prop_assert!(prefix <= applied.len(), "epoch beyond the mutation stream");
                let want = oracles[prefix].get_or_insert_with(|| {
                    answers(&oracle_prefix(&t, &applied, prefix), &queries)
                });
                prop_assert_eq!(got, want, "epoch {} diverged from serial replay", epoch);
            }
        }
    }
}

/// Run the trace through a group-committing durable set with a WAL fault
/// armed at append `nth`, and return `(acked, attempted)` — the count of
/// acknowledged mutations and the full enqueued stream (acked prefix plus,
/// possibly, the faulted mutation).
fn run_with_fault(
    dir: &std::path::Path,
    t: &Trace,
    applied: &[Applied],
    nth: u64,
    kind: WalFaultKind,
) -> (usize, usize) {
    arm_wal_fault(nth, kind);
    let conc = ConcurrentDurablePlanarIndexSet::create(
        dir,
        build_planar(t),
        WalOptions::default(), // Always: an Ok return promises durability
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut acked = 0usize;
    let mut attempted = 0usize;
    for a in applied {
        let res = match a {
            Applied::Insert(row) => conc.insert_point(row).map(|_| ()),
            Applied::Update(id, row) => conc.update_point(*id, row),
            Applied::Delete(id) => conc.delete_point(*id),
        };
        attempted += 1;
        match res {
            Ok(()) => acked += 1,
            // First error is the faulted mutation itself: it was enqueued
            // (and possibly hit the disk) but never acknowledged. The
            // queue fail-stops, so nothing later is enqueued.
            Err(_) => break,
        }
    }
    disarm_wal_fault();
    drop(conc); // the "kill": best-effort drop flush fails fail-stop-clean
    (acked, attempted)
}

/// One crash-sweep case: recovery must (a) not hard-error, (b) recover a
/// clean prefix at least `acked` long — **no acknowledged mutation is ever
/// lost** — and (c) answer bit-identically to that prefix's serial oracle.
fn check_crash_case(t: &Trace, nth: u64, kind: WalFaultKind) {
    let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = TempDir::new("conc-crash-sweep").unwrap();
    let dir = tmp.path().join("idx");
    let applied = resolve_ops(t);
    let (acked, attempted) = run_with_fault(&dir, t, &applied, nth, kind);

    let (recovered, report) = ConcurrentDurablePlanarIndexSet::<VecStore>::open(
        &dir,
        WalOptions::default(),
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let replayed = report.wal_replayed;
    assert!(
        replayed >= acked,
        "ack-then-lose: {acked} mutations acknowledged, only {replayed} recovered ({kind:?} at {nth})"
    );
    assert!(
        replayed <= attempted,
        "recovery invented mutations: {replayed} > {attempted} attempted"
    );
    let queries = probe_queries(t);
    let oracle = oracle_prefix(t, &applied, replayed);
    let snap = recovered.snapshot();
    assert_eq!(
        answers(&snap, &queries),
        answers(&oracle, &queries),
        "recovered state diverged from the serial prefix oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Group-commit crash sweep: for every mutation position and every
    /// fault flavor (append fails; append tears mid-frame; writer dies
    /// right after the append — the "between ack and fsync" window),
    /// acknowledged mutations must always be recoverable.
    #[test]
    fn group_commit_never_acks_then_loses(t in trace(), torn_keep in 0usize..12) {
        let count = resolve_ops(&t).len() as u64;
        for nth in 0..count {
            check_crash_case(&t, nth, WalFaultKind::FailAppend);
            check_crash_case(&t, nth, WalFaultKind::TornAppend { keep: torn_keep });
            check_crash_case(&t, nth, WalFaultKind::CrashAfterAppend);
        }
        // And the no-fault control arm: everything acks, everything recovers.
        check_crash_case(&t, count + 1, WalFaultKind::FailAppend);
    }
}

/// Deterministic ack-lag convergence for the group-committing wrapper:
/// under a lazy policy the acked watermark trails appends, and `sync()`
/// (or a forced flush) converges the two — the observable contract the
/// `WalHealth::{appended_lsn, acked_lsn}` split exists for.
#[test]
fn acked_and_appended_converge_after_sync() {
    let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tmp = TempDir::new("conc-acklag").unwrap();
    let t = Trace {
        dim: 2,
        rows: vec![vec![1.0, 2.0], vec![3.0, 1.0], vec![2.0, 2.0]],
        ops: Vec::new(),
        probes: vec![(vec![1.0, 1.0], 8.0)],
        budget: 2,
    };
    let conc = ConcurrentDurablePlanarIndexSet::create(
        tmp.path(),
        build_planar(&t),
        WalOptions::default().fsync(planar_core::FsyncPolicy::EveryN(64)),
        ConcurrencyConfig::default(),
    )
    .unwrap();
    for i in 0..9 {
        conc.insert_point(&[1.0 + i as f64, 2.0]).unwrap();
    }
    let h = conc.wal_health();
    assert_eq!(h.appended_lsn, 9);
    assert!(
        h.ack_lag() > 0,
        "EveryN(64) must be lagging after 9 records"
    );
    conc.sync().unwrap();
    let h = conc.wal_health();
    assert_eq!(h.acked_lsn, h.appended_lsn);
    assert_eq!(h.ack_lag(), 0);
}

// ---------------------------------------------------------------------------
// Reclaim-and-replay publication: every published epoch ≡ a serial twin
// ---------------------------------------------------------------------------

/// One scripted writer step. Picks index the live-id list modulo its
/// length; `Batch` carries `(kind, pick, row)` with kind 0/1/2 =
/// insert/update/delete.
#[derive(Debug, Clone)]
enum Step {
    Insert(Vec<f64>),
    Update(u16, Vec<f64>),
    Delete(u16),
    Batch(Vec<(u8, u16, Vec<f64>)>),
    Compact,
    Quant(u8),
    Checkpoint,
}

/// A writer script: the base rows, the steps, how many publishes a
/// reader pin taken before each step is held across (0 = no pin), and
/// the publish cadence.
#[derive(Debug, Clone)]
struct Script {
    rows: Vec<Vec<f64>>,
    steps: Vec<(Step, u8)>,
    publish_every: usize,
}

fn script(quant: bool) -> impl Strategy<Value = Script> {
    let row = || prop::collection::vec(0.5..9.5_f64, 2);
    let quant_weight = if quant { 1 } else { 0 };
    let step = prop_oneof![
        6 => row().prop_map(Step::Insert),
        3 => (any::<u16>(), row()).prop_map(|(p, r)| Step::Update(p, r)),
        3 => any::<u16>().prop_map(Step::Delete),
        2 => prop::collection::vec((0..3u8, any::<u16>(), row()), 1..5).prop_map(Step::Batch),
        1 => Just(Step::Compact),
        quant_weight => (0..3u8).prop_map(Step::Quant),
        1 => Just(Step::Checkpoint),
    ];
    (
        prop::collection::vec(row(), 6..16),
        prop::collection::vec((step, 0..4u8), 4..24),
        1..4usize,
    )
        .prop_map(|(rows, steps, publish_every)| Script {
            rows,
            steps,
            publish_every,
        })
}

fn domain2() -> ParameterDomain {
    ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap()
}

fn twin_planar(rows: &[Vec<f64>]) -> PlanarIndexSet<VecStore> {
    let table = FeatureTable::from_rows(2, rows.to_vec()).unwrap();
    PlanarIndexSet::build(table, domain2(), IndexConfig::with_budget(3)).unwrap()
}

fn twin_sharded(rows: &[Vec<f64>]) -> ShardedIndexSet<VecStore> {
    let table = FeatureTable::from_rows(2, rows.to_vec()).unwrap();
    ShardedIndexSet::build(
        table,
        domain2(),
        IndexConfig::with_budget(3),
        ShardConfig::round_robin(2),
    )
    .unwrap()
}

fn policy(tier: u8) -> QuantPolicy {
    match tier {
        0 => QuantPolicy::off(),
        1 => QuantPolicy::tier(QuantTier::I8),
        _ => QuantPolicy::tier(QuantTier::I16),
    }
}

/// The single-threaded twin every published epoch must equal.
enum Twin {
    Planar(Box<PlanarIndexSet<VecStore>>),
    Sharded(Box<ShardedIndexSet<VecStore>>),
}

impl Twin {
    fn bytes(&self) -> Vec<u8> {
        match self {
            Twin::Planar(t) => t.to_bytes().to_vec(),
            Twin::Sharded(t) => t.to_bytes().to_vec(),
        }
    }

    fn is_live(&self, id: u32) -> bool {
        match self {
            Twin::Planar(t) => t.is_live(id),
            Twin::Sharded(t) => t.is_live(id),
        }
    }

    fn apply(&mut self, m: &Mutation) {
        match (self, m) {
            (Twin::Planar(t), Mutation::Insert { row }) => drop(t.insert_point(row).unwrap()),
            (Twin::Planar(t), Mutation::Update { id, row }) => t.update_point(*id, row).unwrap(),
            (Twin::Planar(t), Mutation::Delete { id }) => t.delete_point(*id).unwrap(),
            (Twin::Sharded(t), Mutation::Insert { row }) => drop(t.insert_point(row).unwrap()),
            (Twin::Sharded(t), Mutation::Update { id, row }) => t.update_point(*id, row).unwrap(),
            (Twin::Sharded(t), Mutation::Delete { id }) => t.delete_point(*id).unwrap(),
        }
    }
}

/// The four concurrent wrappers behind one scripted interface.
enum Subject {
    Planar(Box<ConcurrentPlanarIndexSet<VecStore>>),
    Sharded(Box<ConcurrentShardedIndexSet<VecStore>>),
    DurablePlanar(Box<ConcurrentDurablePlanarIndexSet<VecStore>>),
    DurableSharded(Arc<ConcurrentDurableShardedIndexSet<VecStore>>),
}

/// A reader pin on either set type, held only to keep its epoch alive.
type Pin = Box<dyn std::any::Any>;

macro_rules! each {
    ($subject:expr, $w:ident => $body:expr) => {
        match $subject {
            Subject::Planar($w) => $body,
            Subject::Sharded($w) => $body,
            Subject::DurablePlanar($w) => $body,
            Subject::DurableSharded($w) => $body,
        }
    };
}

impl Subject {
    fn epoch(&self) -> u64 {
        each!(self, w => w.snapshot().epoch())
    }

    fn bytes(&self) -> Vec<u8> {
        each!(self, w => w.snapshot().to_bytes().to_vec())
    }

    fn stats(&self) -> EpochStats {
        each!(self, w => w.epoch_stats())
    }

    fn pin(&self) -> Pin {
        each!(self, w => Box::new(w.snapshot()))
    }

    fn publish(&self) {
        each!(self, w => drop(w.publish()));
    }

    fn apply(&self, m: &Mutation) {
        match m {
            Mutation::Insert { row } => each!(self, w => drop(w.insert_point(row).unwrap())),
            Mutation::Update { id, row } => each!(self, w => w.update_point(*id, row).unwrap()),
            Mutation::Delete { id } => each!(self, w => w.delete_point(*id).unwrap()),
        }
    }

    /// Apply a batch as one publish where the wrapper has a batch API;
    /// the in-memory sharded wrapper has none and takes it one by one.
    fn batch(&self, muts: &[Mutation]) -> bool {
        match self {
            Subject::Planar(w) => drop(w.apply_batch(muts).unwrap()),
            Subject::DurablePlanar(w) => drop(w.apply_batch(muts).unwrap()),
            Subject::DurableSharded(w) => drop(w.apply_batch(muts).unwrap()),
            Subject::Sharded(_) => return false,
        }
        true
    }

    /// Compact the subject and the twin alike. The durable planar
    /// wrapper has no compaction; it checkpoints instead.
    fn compact(&self, twin: &mut Twin) {
        match (self, twin) {
            (Subject::Planar(w), Twin::Planar(t)) => assert_eq!(w.compact(), t.compact()),
            (Subject::Sharded(w), Twin::Sharded(t)) => assert_eq!(w.compact(0.0), t.compact(0.0)),
            (Subject::DurableSharded(w), Twin::Sharded(t)) => {
                assert_eq!(w.compact(0.0).unwrap(), t.compact(0.0));
            }
            (Subject::DurablePlanar(_), twin) => self.checkpoint(twin),
            _ => unreachable!("subject and twin kinds match"),
        }
    }

    /// Checkpoint a durable subject: it retunes quantization from an
    /// empty window (no reads run here), as the twin does.
    fn checkpoint(&self, twin: &mut Twin) {
        let cfg = QuantAutotuneConfig::default();
        match (self, twin) {
            (Subject::DurablePlanar(w), Twin::Planar(t)) => {
                w.checkpoint().unwrap();
                t.retune_quantization(&cfg);
            }
            (Subject::DurableSharded(w), Twin::Sharded(t)) => {
                w.checkpoint().unwrap();
                t.retune_quantization(&cfg);
            }
            _ => {}
        }
    }

    fn set_quant(&self, twin: &mut Twin, p: QuantPolicy) {
        each!(self, w => w.set_quant_policy(p));
        match twin {
            Twin::Planar(t) => t.set_quant_policy(p),
            Twin::Sharded(t) => t.set_quant_policy(p),
        }
    }
}

/// Drives a script against one subject and its twin, checking the
/// persisted bytes of every epoch the subject publishes and retiring
/// reader pins once they have been held across their publishes.
struct Driver {
    subject: Subject,
    twin: Twin,
    /// Global ids handed out so far (the id bound for live-id picks).
    next_id: u32,
    pins: Vec<(Pin, u64)>,
}

impl Driver {
    fn live(&self) -> Vec<u32> {
        (0..self.next_id)
            .filter(|&id| self.twin.is_live(id))
            .collect()
    }

    /// Resolve picks into concrete mutations against the live ids.
    fn resolve(&mut self, ops: &[(u8, u16, Vec<f64>)]) -> Vec<Mutation> {
        let mut live = self.live();
        let mut muts = Vec::new();
        for (kind, pick, row) in ops {
            match kind {
                0 => {
                    live.push(self.next_id);
                    self.next_id += 1;
                    muts.push(Mutation::Insert { row: row.clone() });
                }
                _ if live.is_empty() => {}
                1 => muts.push(Mutation::Update {
                    id: live[*pick as usize % live.len()],
                    row: row.clone(),
                }),
                _ => muts.push(Mutation::Delete {
                    id: live.remove(*pick as usize % live.len()),
                }),
            }
        }
        muts
    }

    fn step(&mut self, step: &Step, hold: u8) {
        if hold > 0 {
            self.pins.push((self.subject.pin(), u64::from(hold)));
        }
        let before = self.subject.epoch();
        match step {
            Step::Insert(row) => self.mutate(&[(0, 0, row.clone())]),
            Step::Update(pick, row) => self.mutate(&[(1, *pick, row.clone())]),
            Step::Delete(pick) => self.mutate(&[(2, *pick, Vec::new())]),
            Step::Batch(ops) => {
                let muts = self.resolve(ops);
                if muts.is_empty() {
                } else if self.subject.batch(&muts) {
                    muts.iter().for_each(|m| self.twin.apply(m));
                } else {
                    // One publish check per mutation: a later one may
                    // stage on top of an epoch published mid-batch.
                    for m in &muts {
                        let before = self.subject.epoch();
                        self.subject.apply(m);
                        self.twin.apply(m);
                        self.check_since(before);
                    }
                    return;
                }
            }
            Step::Compact => {
                self.subject.compact(&mut self.twin);
                if let Twin::Planar(t) = &self.twin {
                    self.next_id = t.table().len() as u32;
                }
            }
            Step::Quant(tier) => self.subject.set_quant(&mut self.twin, policy(*tier)),
            Step::Checkpoint => self.subject.checkpoint(&mut self.twin),
        }
        self.check_since(before);
    }

    fn mutate(&mut self, ops: &[(u8, u16, Vec<f64>)]) {
        for m in self.resolve(ops) {
            self.subject.apply(&m);
            self.twin.apply(&m);
        }
    }

    /// If the subject published since `before`, its epoch must persist
    /// exactly as the twin does, and pins age by the publishes seen.
    fn check_since(&mut self, before: u64) {
        let published = self.subject.epoch() - before;
        if published == 0 {
            return;
        }
        assert_eq!(
            self.subject.bytes(),
            self.twin.bytes(),
            "epoch {} diverged from the single-threaded twin",
            self.subject.epoch()
        );
        for pin in &mut self.pins {
            pin.1 = pin.1.saturating_sub(published);
        }
        self.pins.retain(|(_, left)| *left > 0);
    }

    fn publish(&mut self) {
        let before = self.subject.epoch();
        self.subject.publish();
        self.check_since(before);
    }

    fn insert(&mut self, row: [f64; 2]) {
        self.step(&Step::Insert(row.to_vec()), 0);
        self.publish();
    }

    /// Run `script`, then an epilogue that forces both publication paths:
    /// unpinned writes must replay the spare, and a write whose spare a
    /// reader still pins must fall back to a clone.
    fn run(mut self, script: &Script) -> Self {
        for (step, hold) in &script.steps {
            self.step(step, *hold);
        }
        self.pins.clear();
        self.publish();
        let s0 = self.subject.stats();
        self.insert([2.0, 3.0]);
        self.insert([4.0, 1.0]);
        let s1 = self.subject.stats();
        assert!(s1.replays > s0.replays, "unpinned writes replay the spare");
        let pin = self.subject.pin();
        self.insert([5.0, 5.0]);
        self.insert([6.0, 2.0]);
        drop(pin);
        let s2 = self.subject.stats();
        assert!(s2.clones > s1.clones, "a pinned spare forces a clone");
        assert!(s2.replays > 0 && s2.clones > 1);
        self
    }
}

fn driver(kind: usize, script: &Script, dir: &std::path::Path) -> Driver {
    let cfg = ConcurrencyConfig::default().publish_every(script.publish_every);
    let rows = &script.rows;
    let (subject, twin) = match kind {
        0 => (
            Subject::Planar(Box::new(ConcurrentPlanarIndexSet::new(
                twin_planar(rows),
                cfg,
            ))),
            Twin::Planar(Box::new(twin_planar(rows))),
        ),
        1 => (
            Subject::Sharded(Box::new(ConcurrentShardedIndexSet::new(
                twin_sharded(rows),
                cfg,
            ))),
            Twin::Sharded(Box::new(twin_sharded(rows))),
        ),
        2 => (
            Subject::DurablePlanar(Box::new(
                ConcurrentDurablePlanarIndexSet::create(
                    dir,
                    twin_planar(rows),
                    WalOptions::default().fsync(FsyncPolicy::OnCheckpoint),
                    cfg,
                )
                .unwrap(),
            )),
            Twin::Planar(Box::new(twin_planar(rows))),
        ),
        _ => (
            Subject::DurableSharded(Arc::new(
                ConcurrentDurableShardedIndexSet::create(
                    dir,
                    twin_sharded(rows),
                    WalOptions::default().fsync(FsyncPolicy::OnCheckpoint),
                    cfg,
                )
                .unwrap(),
            )),
            Twin::Sharded(Box::new(twin_sharded(rows))),
        ),
    };
    Driver {
        subject,
        twin,
        next_id: rows.len() as u32,
        pins: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every epoch each wrapper publishes — by replaying the reclaimed
    /// spare or by a fallback clone — persists byte-for-byte like a
    /// single-threaded twin given the same mutations, compactions,
    /// checkpoints and quantization policies, while reader pins held
    /// across 0–3 publishes steer writes onto both paths.
    #[test]
    fn published_epochs_persist_like_a_serial_twin(s in script(true)) {
        let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for kind in 0..4 {
            let tmp = TempDir::new("conc-replay").unwrap();
            driver(kind, &s, &tmp.path().join("idx")).run(&s);
        }
    }

    /// Replication: a replica applies shipped frames through the
    /// reclaim-and-replay writer too. After every primary step it must
    /// persist like the twin, and its promotion hands over that state.
    /// (Quantization policies are not WAL-logged, so they stay out of
    /// this script.)
    #[test]
    fn replicas_replay_shipped_frames_like_a_serial_twin(s in script(false)) {
        let _guard = WAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let pdir = TempDir::new("conc-replay-p").unwrap();
        let rdir = TempDir::new("conc-replay-r").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
        let mut d = driver(3, &s, pdir.path());
        let Subject::DurableSharded(store) = &d.subject else { unreachable!() };
        let mut primary = Primary::from_shared(Arc::clone(store), FailoverConfig::default());
        let down = ChannelTransport::new();
        let up = ChannelTransport::new();
        primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
        let mut replica: Replica<VecStore> = Replica::new(
            rdir.path().join("r0"),
            0,
            Box::new(down),
            Box::new(up),
            opts,
            FailoverConfig::default(),
        );
        let mut now = 0u64;
        let mut pins = Vec::new();
        for (step, hold) in &s.steps {
            d.step(step, 0);
            primary.store().sync().unwrap();
            let appended = primary.store().wal_health().appended_lsn;
            for _ in 0..64 {
                if replica.applied_lsn() >= appended {
                    break;
                }
                now += 150;
                primary.pump(now).unwrap();
                replica.poll(now).unwrap();
            }
            prop_assert_eq!(replica.applied_lsn(), appended);
            let read = replica.follower_read(ReadConsistency::Any).unwrap();
            prop_assert_eq!(read.snapshot.to_bytes().to_vec(), d.twin.bytes());
            // Follower reads pinned across the next `hold` steps.
            pins.retain_mut(|(_, left): &mut (_, u8)| {
                *left -= 1;
                *left > 0
            });
            if *hold > 0 {
                pins.push((read.snapshot, *hold));
            }
        }
        // Each shipped batch publishes once, from one replay or clone.
        let stats = replica.epoch_stats().unwrap();
        prop_assert_eq!(stats.replays + stats.clones, stats.published);
        drop(pins);
        drop(primary);
        drop(d.subject);
        let promoted = replica.promote(ConcurrencyConfig::default()).unwrap();
        prop_assert_eq!(promoted.store().snapshot().to_bytes().to_vec(), d.twin.bytes());
    }
}
