//! Failover promotion sweep: a primary replicates to two followers, is
//! killed at a proptest-chosen mutation index (with only a partial,
//! proptest-chosen amount of shipping done), the best follower is
//! elected and promoted, and the promoted state must be exactly a
//! prefix of the primary's history:
//!
//! - every mutation the primary saw replication-acked is present,
//! - unacked mutations are present-or-absent (they may have shipped),
//! - the promoted answers are bit-identical to the primary's historical
//!   answers at the promoted LSN — never a divergent third state.
//!
//! Plus: the deposed primary's late appends are fenced — a peer that
//! adopted the new term rejects them and the old primary's `pump`
//! returns the typed `Fenced` error.

use planar_core::replicate::ChannelTransport;
use planar_core::{
    elect, Cmp, ConcurrencyConfig, ConcurrentShardedIndexSet, FailoverConfig, FeatureTable,
    FsyncPolicy, IndexConfig, InequalityQuery, ParameterDomain, PlanarError, Primary,
    ReadConsistency, Replica, ShardConfig, ShardedIndexSet, TempDir, VecStore, WalOptions,
};
use proptest::prelude::*;

fn build_sharded(n: usize) -> ShardedIndexSet<VecStore> {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![1.0 + (i % 11) as f64, 1.0 + (i % 6) as f64])
        .collect();
    let table = FeatureTable::from_rows(2, rows).unwrap();
    let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
    ShardedIndexSet::build(
        table,
        domain,
        IndexConfig::with_budget(3),
        ShardConfig::round_robin(3),
    )
    .unwrap()
}

fn probes() -> Vec<InequalityQuery> {
    [10.0, 14.0, 18.0]
        .iter()
        .map(|&b| InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap())
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(f64, f64),
    Update(u16, f64),
    Delete(u16),
}

fn trace() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0.5f64..9.5, 0.5f64..9.5).prop_map(|(a, b)| Op::Insert(a, b)),
            1 => (0u16..1000, 0.5f64..9.5).prop_map(|(p, v)| Op::Update(p, v)),
            1 => (0u16..1000).prop_map(Op::Delete),
        ],
        4..32,
    )
}

/// Apply `op` to the primary, resolving picks against the live-id list
/// so every operation is valid. Returns false if the op degenerated to
/// a no-op (nothing live to update/delete).
fn apply(store: &ConcurrentShardedIndexSet<VecStore>, live: &mut Vec<u32>, op: &Op) -> bool {
    match op {
        Op::Insert(a, b) => {
            let id = store.insert_point(&[*a, *b]).unwrap();
            live.push(id);
            true
        }
        Op::Update(pick, v) => {
            if live.is_empty() {
                return false;
            }
            let id = live[*pick as usize % live.len()];
            store.update_point(id, &[*v, 1.0 + *v]).unwrap();
            true
        }
        Op::Delete(pick) => {
            if live.is_empty() {
                return false;
            }
            let idx = *pick as usize % live.len();
            let id = live.swap_remove(idx);
            store.delete_point(id).unwrap();
            true
        }
    }
}

/// One full kill-promote-verify run. `rounds_per_step` throttles how
/// much replication happens between mutations (0 = the replicas see
/// nothing until the final partial shipping), `tail_rounds` controls how
/// much of the tail ships before the kill.
fn kill_and_promote(t: &[Op], rounds_per_step: usize, tail_rounds: usize) {
    let pdir = TempDir::new("failover_p").unwrap();
    let rdir = TempDir::new("failover_r").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = ConcurrentShardedIndexSet::create(
        pdir.path(),
        build_sharded(30),
        opts,
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut primary = Primary::new(store, FailoverConfig::default()).unwrap();
    let mut replicas: Vec<Replica<VecStore>> = Vec::new();
    for r in 0..2u32 {
        let down = ChannelTransport::new();
        let up = ChannelTransport::new();
        primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
        replicas.push(Replica::new(
            rdir.path().join(format!("r{r}")),
            r,
            Box::new(down),
            Box::new(up),
            opts,
            FailoverConfig::default(),
        ));
    }

    // history[lsn] = probe answers after the mutation that produced
    // `lsn` (history[0] = the seed state).
    let mut history: Vec<Vec<Vec<u32>>> = Vec::new();
    let record = |primary: &Primary<VecStore>, history: &mut Vec<Vec<Vec<u32>>>| {
        let snap = primary.store().snapshot();
        history.push(
            probes()
                .iter()
                .map(|q| snap.query(q).unwrap().sorted_ids())
                .collect(),
        );
    };
    record(&primary, &mut history);

    let mut now = 0u64;
    let mut live: Vec<u32> = Vec::new();
    for op in t {
        if apply(primary.store(), &mut live, op) {
            record(&primary, &mut history);
        }
        for _ in 0..rounds_per_step {
            now += 150;
            primary.pump(now).unwrap();
            for r in &mut replicas {
                r.poll(now).unwrap();
            }
        }
    }
    // Partial tail shipping, then the primary "dies" mid-replication.
    primary.store().sync().unwrap();
    for _ in 0..tail_rounds {
        now += 150;
        primary.pump(now).unwrap();
        for r in &mut replicas {
            r.poll(now).unwrap();
        }
    }
    let acked_watermark = primary
        .replica_health()
        .iter()
        .map(|h| h.acked_lsn)
        .max()
        .unwrap_or(0);
    let appended = primary.store().wal_health().appended_lsn;
    drop(primary);

    // Elect the best follower: it must hold at least the best acked LSN.
    let Some(winner) = elect(&replicas) else {
        assert_eq!(acked_watermark, 0, "an acked replica must be electable");
        return;
    };
    let winner = replicas.swap_remove(winner);
    assert!(
        winner.acked_lsn() >= acked_watermark,
        "elect must pick a replica covering the acked watermark"
    );
    let promoted_lsn = winner.applied_lsn();
    let promoted = winner.promote(ConcurrencyConfig::default()).unwrap();

    // Prefix consistency: the promoted state answers exactly as the
    // primary did at `promoted_lsn` — acked mutations present, unacked
    // present-or-absent, never a third state.
    assert!(promoted_lsn >= acked_watermark);
    assert!(promoted_lsn <= appended);
    let want = &history[promoted_lsn as usize];
    let snap = promoted.store().snapshot();
    for (q, expect) in probes().iter().zip(want) {
        assert_eq!(&snap.query(q).unwrap().sorted_ids(), expect);
    }

    // The promoted primary is live: it accepts writes under its new term
    // and can checkpoint.
    promoted.store().insert_point(&[5.0, 5.0]).unwrap();
    let mut promoted = promoted;
    promoted.checkpoint().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill the primary at every replication progress level the strategy
    /// reaches: fully-caught-up followers, partially shipped tails, and
    /// followers that never saw a frame.
    #[test]
    fn promotion_preserves_every_acked_mutation(
        t in trace(),
        rounds_per_step in 0usize..3,
        tail_rounds in 0usize..6,
    ) {
        kill_and_promote(&t, rounds_per_step, tail_rounds);
    }
}

/// Deterministic end-to-end failover: primary dies, lease expires, the
/// promoted follower serves identical answers, and the deposed primary
/// is fenced by the term check when it tries to ship late appends.
#[test]
fn deposed_primary_is_fenced() {
    let pdir = TempDir::new("failover_fence_p").unwrap();
    let rdir = TempDir::new("failover_fence_r").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = ConcurrentShardedIndexSet::create(
        pdir.path(),
        build_sharded(30),
        opts,
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut old_primary = Primary::new(store, FailoverConfig::default()).unwrap();
    let down = ChannelTransport::new();
    let up = ChannelTransport::new();
    old_primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
    let mut follower: Replica<VecStore> = Replica::new(
        rdir.path().join("r0"),
        0,
        Box::new(down),
        Box::new(up),
        opts,
        FailoverConfig::default(),
    );
    let mut now = 0u64;
    for i in 0..12 {
        old_primary
            .store()
            .insert_point(&[2.0 + i as f64, 3.0])
            .unwrap();
    }
    old_primary.store().sync().unwrap();
    for _ in 0..16 {
        now += 150;
        old_primary.pump(now).unwrap();
        follower.poll(now).unwrap();
    }
    let appended = old_primary.store().wal_health().appended_lsn;
    assert_eq!(follower.applied_lsn(), appended);
    let old_term = old_primary.term();

    // The primary goes silent; the follower's lease expires.
    now += 10_000;
    assert!(!follower.primary_alive(now));
    let mut promoted = follower.promote(ConcurrencyConfig::default()).unwrap();
    assert_eq!(promoted.term(), old_term + 1);

    // A second follower joins the promoted primary and adopts its term.
    let down2 = ChannelTransport::new();
    let up2 = ChannelTransport::new();
    promoted.add_replica(Box::new(down2.clone()), Box::new(up2.clone()));
    let mut f2: Replica<VecStore> = Replica::new(
        rdir.path().join("r1"),
        1,
        Box::new(down2.clone()),
        Box::new(up2.clone()),
        opts,
        FailoverConfig::default(),
    );
    promoted.store().insert_point(&[9.0, 9.0]).unwrap();
    promoted.store().sync().unwrap();
    for _ in 0..16 {
        now += 150;
        promoted.pump(now).unwrap();
        f2.poll(now).unwrap();
    }
    assert_eq!(f2.term(), old_term + 1);
    let read = f2.follower_read(ReadConsistency::ReadYourWrites).unwrap();
    let psnap = promoted.store().snapshot();
    for q in probes() {
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            psnap.query(&q).unwrap().sorted_ids()
        );
    }

    // The deposed primary comes back, writes, and tries to ship to a
    // peer that has adopted the new term. `f2` already holds
    // `old_term + 1`; the deposed primary attaches to the *same*
    // channel pair (clones share the queue), so its stale-term traffic
    // lands in front of the high-term peer.
    let mut drain: Box<dyn planar_core::Transport> = Box::new(up2.clone());
    while drain.recv().unwrap().is_some() {}
    old_primary.add_replica(Box::new(down2.clone()), Box::new(up2.clone()));
    old_primary.store().insert_point(&[8.0, 8.0]).unwrap();
    old_primary.store().sync().unwrap();
    let mut fenced = None;
    for _ in 0..32 {
        now += 150;
        match old_primary.pump(now) {
            Ok(()) => {}
            Err(e) => {
                fenced = Some(e);
                break;
            }
        }
        let _ = f2.poll(now);
    }
    match fenced {
        Some(PlanarError::Fenced { term, observed }) => {
            assert_eq!(term, old_term);
            assert_eq!(observed, old_term + 1);
        }
        other => panic!("expected Fenced, got {other:?}"),
    }
    assert!(
        f2.stats().rejects > 0,
        "the high-term peer must have rejected the stale-term traffic"
    );
    // The late append never reached the promoted timeline: the peer
    // still answers as the promoted primary does.
    let read = f2.follower_read(ReadConsistency::Any).unwrap();
    let psnap = promoted.store().snapshot();
    for q in probes() {
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            psnap.query(&q).unwrap().sorted_ids()
        );
    }
}
