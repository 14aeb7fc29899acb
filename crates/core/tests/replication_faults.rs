//! Fault-injection sweep over the replication transport: the scheduled
//! send is dropped, duplicated, reordered, torn mid-message, or
//! bit-flipped, at every interesting send index. In every case the
//! replica must either heal (converge to answers bit-identical to the
//! primary) or fail loudly with divergence provenance — it must never
//! serve a wrong answer, and bounded reads must never return stale data
//! without the typed `ReplicaLag` error.

use std::sync::Mutex;

use planar_core::fault::{arm_transport_fault, disarm_transport_fault, TransportFaultKind};
use planar_core::replicate::ChannelTransport;
use planar_core::replicate::FaultyTransport;
use planar_core::{
    Cmp, ConcurrencyConfig, ConcurrentShardedIndexSet, FailoverConfig, FeatureTable, FsyncPolicy,
    IndexConfig, InequalityQuery, ParameterDomain, PlanarError, Primary, ReadConsistency, Replica,
    ReplicationStats, ShardConfig, ShardedIndexSet, TempDir, VecStore, WalOptions,
};

/// The transport fault trigger is process-global; scenarios serialize.
static LOCK: Mutex<()> = Mutex::new(());

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

/// Run one primary→replica scenario with `kind` armed on the `nth` send
/// of the down transport: four write bursts with replication turns in
/// between, then a generous settle. Returns the replica's final stats.
///
/// Panics unless the replica ends bit-identical to the primary (healed)
/// — none of the injected faults is allowed to diverge a replica, and a
/// diverged replica would fail the `follower_read` below loudly.
fn run_scenario(nth: u64, kind: TransportFaultKind) -> ReplicationStats {
    let pdir = TempDir::new("repl_fault_p").unwrap();
    let rdir = TempDir::new("repl_fault_r").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = ConcurrentShardedIndexSet::create(
        pdir.path(),
        build_sharded(40),
        opts,
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut primary = Primary::new(store, FailoverConfig::default()).unwrap();

    let down = ChannelTransport::new();
    let up = ChannelTransport::new();
    arm_transport_fault(nth, kind);
    primary.add_replica(
        Box::new(FaultyTransport::new(down.clone())),
        Box::new(up.clone()),
    );
    let mut replica: Replica<VecStore> = Replica::new(
        rdir.path().join("r0"),
        0,
        Box::new(down),
        Box::new(up),
        opts,
        FailoverConfig::default(),
    );

    let mut now = 0u64;
    for burst in 0..4u64 {
        for i in 0..6 {
            primary
                .store()
                .insert_point(&[2.0 + (i % 5) as f64, 2.0 + burst as f64])
                .unwrap();
        }
        if burst == 2 {
            primary.store().update_point(3, &[4.0, 4.0]).unwrap();
            primary.store().delete_point(5).unwrap();
        }
        primary.store().sync().unwrap();
        for _ in 0..3 {
            now += 100;
            primary.pump(now).unwrap();
            replica.poll(now).unwrap();
        }
        // A bounded read during catch-up is a typed error or a correct
        // answer — never silently stale.
        let appended = primary.store().wal_health().appended_lsn;
        match replica.follower_read(ReadConsistency::AtLeast(appended)) {
            Ok(read) => {
                assert_eq!(read.applied_lsn, appended);
                let psnap = primary.store().snapshot();
                for q in probes() {
                    assert_eq!(
                        read.snapshot.query(&q).unwrap().sorted_ids(),
                        psnap.query(&q).unwrap().sorted_ids()
                    );
                }
            }
            Err(PlanarError::ReplicaLag { required, applied }) => {
                assert_eq!(required, appended);
                assert!(applied < appended);
            }
            Err(PlanarError::Persist(msg)) => {
                assert!(
                    msg.contains("not installed a snapshot"),
                    "unexpected persist error mid-catch-up: {msg}"
                );
            }
            Err(other) => panic!("unexpected follower read error: {other}"),
        }
    }

    // Settle: the retransmit/backoff machinery must heal every injected
    // fault within a bounded number of turns.
    for _ in 0..64 {
        now += 300;
        primary.pump(now).unwrap();
        replica.poll(now).unwrap();
        let appended = primary.store().wal_health().appended_lsn;
        if replica.is_seeded() && replica.applied_lsn() >= appended {
            break;
        }
    }
    disarm_transport_fault();

    assert_eq!(
        replica.divergence(),
        None,
        "fault {kind:?}@{nth} must heal, not diverge"
    );
    let appended = primary.store().wal_health().appended_lsn;
    assert_eq!(
        replica.applied_lsn(),
        appended,
        "fault {kind:?}@{nth} failed to heal"
    );
    let read = replica
        .follower_read(ReadConsistency::AtLeast(appended))
        .unwrap();
    let psnap = primary.store().snapshot();
    for q in probes() {
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            psnap.query(&q).unwrap().sorted_ids(),
            "fault {kind:?}@{nth} produced a wrong answer"
        );
    }
    replica.stats()
}

/// Sweep a fault kind over the first few send indices (seed, early
/// frames, heartbeats) and return the summed stats.
fn sweep(kind: TransportFaultKind) -> ReplicationStats {
    let mut total = ReplicationStats::default();
    for nth in 0..6 {
        let s = run_scenario(nth, kind);
        total.corrupt_messages += s.corrupt_messages;
        total.corrupt_frames += s.corrupt_frames;
        total.duplicate_frames += s.duplicate_frames;
        total.reordered_frames += s.reordered_frames;
        total.applied_frames += s.applied_frames;
        total.snapshots += s.snapshots;
    }
    total
}

#[test]
fn dropped_sends_heal_via_retransmit() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let total = sweep(TransportFaultKind::DropSend);
    assert!(total.applied_frames > 0);
}

#[test]
fn duplicated_sends_are_dropped_by_lsn() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let total = sweep(TransportFaultKind::DuplicateSend);
    assert!(
        total.duplicate_frames > 0 || total.snapshots > 6,
        "at least one duplicated message must have been detected: {total:?}"
    );
}

#[test]
fn reordered_delivery_is_staged_back_into_order() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let total = sweep(TransportFaultKind::ReorderPair);
    assert!(total.applied_frames > 0);
}

#[test]
fn torn_messages_are_rejected_and_retransmitted() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Tear at several depths: inside the magic, inside the header,
    // inside the frame payload.
    for keep in [3usize, 20, 60] {
        let mut total = ReplicationStats::default();
        for nth in 0..4 {
            let s = run_scenario(nth, TransportFaultKind::Torn { keep });
            total.corrupt_messages += s.corrupt_messages;
        }
        assert!(
            total.corrupt_messages > 0,
            "torn messages (keep={keep}) must be detected, not applied"
        );
    }
}

#[test]
fn bit_flipped_frames_never_apply() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Flip bits across the message: magic, type byte, frame bodies, CRC.
    for offset in [0usize, 8, 30, 80, 200] {
        let mut detected = 0u64;
        for nth in 0..4 {
            let s = run_scenario(
                nth,
                TransportFaultKind::BitFlip {
                    offset,
                    bit: (offset % 8) as u8,
                },
            );
            detected += s.corrupt_messages + s.corrupt_frames;
        }
        assert!(
            detected > 0,
            "bit flip at offset {offset} must be detected, not applied"
        );
    }
}

/// The up (ack) pipe faulted: acks are lost, the primary retransmits,
/// and the replica's LSN staging absorbs the duplicates.
#[test]
fn lost_acks_cause_retransmit_not_divergence() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pdir = TempDir::new("repl_fault_ack").unwrap();
    let rdir = TempDir::new("repl_fault_ackr").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = ConcurrentShardedIndexSet::create(
        pdir.path(),
        build_sharded(30),
        opts,
        ConcurrencyConfig::default(),
    )
    .unwrap();
    let mut primary = Primary::new(store, FailoverConfig::default()).unwrap();
    let down = ChannelTransport::new();
    let up = ChannelTransport::new();
    // Ack #1 (the first post-seed ack) is dropped on the up pipe.
    arm_transport_fault(1, TransportFaultKind::DropSend);
    primary.add_replica(Box::new(down.clone()), Box::new(up.clone()));
    let mut replica: Replica<VecStore> = Replica::new(
        rdir.path().join("r0"),
        0,
        Box::new(down),
        Box::new(FaultyTransport::new(up)),
        opts,
        FailoverConfig::default(),
    );
    for i in 0..10 {
        primary
            .store()
            .insert_point(&[2.0 + i as f64, 3.0])
            .unwrap();
    }
    primary.store().sync().unwrap();
    let mut now = 0u64;
    for _ in 0..64 {
        now += 300;
        primary.pump(now).unwrap();
        replica.poll(now).unwrap();
        let appended = primary.store().wal_health().appended_lsn;
        if replica.applied_lsn() >= appended && primary.replication_acked(appended) {
            break;
        }
    }
    disarm_transport_fault();
    let appended = primary.store().wal_health().appended_lsn;
    assert_eq!(replica.applied_lsn(), appended);
    assert!(
        primary.replication_acked(appended),
        "a later cumulative ack must cover the lost one"
    );
    assert_eq!(replica.divergence(), None);
}
