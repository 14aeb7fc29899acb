//! Socket-level chaos sweep over networked replication: a
//! [`ChaosProxy`] sits between a replica's `TcpTransport` and the serve
//! listener hosting the primary, injecting partitions, latency,
//! mid-chunk truncation, connection resets, duplicated bytes, and
//! silent byte loss at every early chunk index. Every schedule must end
//! with the replica bit-identical to the primary — the transport layer
//! detects desync, resets, redials, and the Hello/resume handshake
//! heals the gap — or fail loudly typed; a replica is never allowed to
//! silently diverge.
//!
//! The second sweep kills the primary outright (proxy torn down,
//! listener shut down) after every quorum-acked mutation index, elects
//! and promotes a follower over the network, and asserts the
//! quorum-ack contract end to end: every write confirmed under
//! `AckPolicy::Quorum(1)` is present on the new primary, and the
//! surviving follower re-wires to it and heals bit-identical. There is
//! no third state.

use planar_core::fault::{ChaosFault, ChaosProxy};
use planar_core::{
    elect, AckPolicy, Cmp, ConcurrencyConfig, ConcurrentShardedIndexSet, FailoverConfig,
    FeatureTable, FsyncPolicy, IndexConfig, InequalityQuery, ParameterDomain, Primary,
    ReadConsistency, Replica, ShardConfig, ShardedIndexSet, TcpLinkOptions, TcpTransport, TempDir,
    VecStore, WalOptions,
};
use planar_serve::{ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

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

/// A query that matches every row the tests ever insert.
fn catch_all() -> InequalityQuery {
    InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, 1e6).unwrap()
}

/// Fast reconnects so a 20-scenario sweep stays in CI budget.
fn link_opts() -> TcpLinkOptions {
    TcpLinkOptions {
        backoff_base_ms: 5,
        backoff_cap_ms: 100,
        ..TcpLinkOptions::default()
    }
}

fn durable_store(dir: &std::path::Path, n: usize) -> Arc<ConcurrentShardedIndexSet<VecStore>> {
    Arc::new(
        ConcurrentShardedIndexSet::create(
            dir,
            build_sharded(n),
            WalOptions::default().fsync(FsyncPolicy::EveryN(4)),
            ConcurrencyConfig::default(),
        )
        .unwrap(),
    )
}

/// Attach any ship connections the listener has sniffed since the last
/// call. Chaos kills connections mid-stream; the replica's transport
/// redials through the proxy and each fresh connection surfaces here as
/// a new endpoint to hand the primary (the dead link is reaped by
/// `pump`).
fn adopt_new_links(server: &ServerHandle, primary: &mut Primary<VecStore>) {
    while let Some(ep) = server.accept_replica(Duration::from_millis(1)) {
        primary.add_replica_pending(Box::new(ep.clone()), Box::new(ep));
    }
}

/// One primary (behind a serve listener) and one TCP replica dialing it
/// through a chaos proxy with `inject` applied before traffic starts.
/// Four write bursts flow while the fault fires; then the scenario
/// settles and the replica must be bit-identical to the primary.
fn run_chaos_scenario(label: &str, inject: impl FnOnce(&planar_core::fault::ChaosCtl)) {
    let pdir = TempDir::new("chaos_p").unwrap();
    let rdir = TempDir::new("chaos_r").unwrap();
    let store = durable_store(pdir.path(), 40);
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let proxy = ChaosProxy::start(server.addr()).unwrap();
    let ctl = proxy.ctl();
    inject(&ctl);

    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default()).unwrap();
    let link = TcpTransport::new(proxy.addr(), link_opts());
    let mut replica = Replica::<VecStore>::new(
        rdir.path().join("r0"),
        0,
        Box::new(link.clone()),
        Box::new(link),
        WalOptions::default().fsync(FsyncPolicy::EveryN(4)),
        FailoverConfig::default(),
    );

    let mut now = 0u64;
    for burst in 0..4u64 {
        for i in 0..6 {
            store
                .insert_point(&[2.0 + (i % 5) as f64, 2.0 + burst as f64])
                .unwrap();
        }
        if burst == 2 {
            store.update_point(3, &[4.0, 4.0]).unwrap();
            store.delete_point(5).unwrap();
        }
        store.sync().unwrap();
        for _ in 0..20 {
            now += 10;
            adopt_new_links(&server, &mut primary);
            primary.pump(now).unwrap();
            let _ = replica.poll(now);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Chaos over: heal partitions/latency and let the link settle. The
    // one-shot byte faults have either fired by now or never will.
    ctl.reset_all();
    ctl.set_partitioned(false);
    ctl.set_delay_ms(0);
    let target = store.wal_health().appended_lsn;
    for _ in 0..5000 {
        now += 10;
        adopt_new_links(&server, &mut primary);
        primary.pump(now).unwrap();
        let _ = replica.poll(now);
        if replica.is_seeded() && replica.applied_lsn() >= target {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    // The contract: heal bit-identical or fail loudly typed. A replica
    // that diverged says so with provenance; one that silently served
    // wrong answers would fail the probe comparison below.
    assert_eq!(
        replica.divergence(),
        None,
        "{label}: chaos must heal, not diverge"
    );
    assert!(
        replica.is_seeded() && replica.applied_lsn() >= target,
        "{label}: replica failed to heal (applied {} of {target})",
        replica.applied_lsn(),
    );
    let read = replica
        .follower_read(ReadConsistency::AtLeast(target))
        .unwrap();
    let psnap = store.snapshot();
    for q in probes() {
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            psnap.query(&q).unwrap().sorted_ids(),
            "{label}: follower served a wrong answer"
        );
    }
    server.shutdown();
}

/// Sweep one fault kind across the first few downstream chunk indices
/// (the snapshot seed, early frames, heartbeats).
fn sweep(name: &str, fault: ChaosFault) {
    for at_chunk in 0..4u64 {
        run_chaos_scenario(&format!("{name}@chunk{at_chunk}"), |ctl| {
            ctl.arm(at_chunk, fault);
        });
    }
}

#[test]
fn truncated_chunks_heal_by_reconnect() {
    // Tear inside the length prefix / magic, and deeper in the payload.
    sweep("truncate3", ChaosFault::Truncate { keep: 3 });
}

#[test]
fn truncated_payloads_heal_by_reconnect() {
    sweep("truncate20", ChaosFault::Truncate { keep: 20 });
}

#[test]
fn connection_resets_heal_by_reconnect() {
    sweep("reset", ChaosFault::Reset);
}

#[test]
fn duplicated_bytes_are_detected_or_deduplicated() {
    sweep("duplicate", ChaosFault::Duplicate);
}

#[test]
fn silent_byte_loss_desyncs_loudly_and_heals() {
    sweep("drop", ChaosFault::Drop);
}

#[test]
fn partition_stalls_then_heals_without_reseed_storm() {
    run_chaos_scenario("partition", |ctl| ctl.set_partitioned(true));
}

#[test]
fn injected_latency_slows_but_never_diverges() {
    run_chaos_scenario("delay", |ctl| ctl.set_delay_ms(5));
}

// ---------------------------------------------------------------------------
// Kill-the-primary sweep: quorum acks survive failover over the network.
// ---------------------------------------------------------------------------

/// Writes per scenario; the sweep kills the primary after each index.
const KILL_WRITES: usize = 6;

/// One replication turn: adopt fresh ship connections, pump the
/// primary, poll every replica, breathe so the relay threads run.
fn turn(
    server: &ServerHandle,
    primary: &mut Primary<VecStore>,
    replicas: &mut [Replica<VecStore>],
    now: &mut u64,
) {
    *now += 10;
    adopt_new_links(server, primary);
    primary.pump(*now).unwrap();
    for r in replicas.iter_mut() {
        let _ = r.poll(*now);
    }
    std::thread::sleep(Duration::from_millis(1));
}

/// Run quorum-acked traffic over TCP, kill the primary after write
/// `kill_after` confirms, promote the best follower, and verify the
/// quorum contract: confirmed writes all present, surviving follower
/// heals bit-identical against the new primary. An unconfirmed
/// in-flight write may land or be lost — but both nodes must agree.
fn run_kill_scenario(kill_after: usize) {
    let pdir = TempDir::new("kill_p").unwrap();
    let rdir = TempDir::new("kill_r").unwrap();
    let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(4));
    let store = durable_store(pdir.path(), 40);
    let server = Server::start(Arc::clone(&store), ServeConfig::default()).unwrap();
    let proxy = ChaosProxy::start(server.addr()).unwrap();
    let mut primary = Primary::from_shared(Arc::clone(&store), FailoverConfig::default()).unwrap();
    primary.set_ack_policy(AckPolicy::Quorum(1));

    let mut replicas: Vec<Replica<VecStore>> = (0..2)
        .map(|i| {
            let link = TcpTransport::new(proxy.addr(), link_opts());
            Replica::new(
                rdir.path().join(format!("r{i}")),
                i,
                Box::new(link.clone()),
                Box::new(link),
                opts,
                FailoverConfig::default(),
            )
        })
        .collect();

    let mut now = 0u64;

    // Seed both replicas before traffic starts.
    for _ in 0..5000 {
        turn(&server, &mut primary, &mut replicas, &mut now);
        if replicas.iter().all(Replica::is_seeded) {
            break;
        }
    }
    assert!(
        replicas.iter().all(Replica::is_seeded),
        "kill@{kill_after}: replicas failed to seed over TCP"
    );

    // Quorum-acked writes, killing the primary after index `kill_after`.
    let mut confirmed_ids = Vec::new();
    for j in 0..KILL_WRITES {
        let id = store.insert_point(&[3.0 + j as f64, 3.0]).unwrap();
        store.sync().unwrap();
        let lsn = store.wal_health().appended_lsn;
        let mut ok = false;
        for _ in 0..5000 {
            turn(&server, &mut primary, &mut replicas, &mut now);
            if primary.quorum_confirmed(lsn) {
                ok = true;
                break;
            }
        }
        assert!(ok, "kill@{kill_after}: write {j} never quorum-confirmed");
        confirmed_ids.push(id);
        if j == kill_after {
            break;
        }
    }
    // One more write left in flight — applied locally, never confirmed.
    store.insert_point(&[20.0, 20.0]).unwrap();
    store.sync().unwrap();

    // Chaos-kill: the proxy dies, the listener shuts down, the primary
    // object is dropped. The replicas' transports keep redialing a dead
    // address under backoff.
    drop(primary);
    drop(proxy);
    server.shutdown();

    // Elect and promote the best follower; serve it on a fresh listener.
    let winner = elect(&replicas).expect("a seeded, non-diverged follower to elect");
    let promoted = replicas
        .swap_remove(winner)
        .promote(ConcurrencyConfig::default())
        .unwrap();
    let new_store = promoted.shared_store();
    let new_server = Server::start(Arc::clone(&new_store), ServeConfig::default()).unwrap();
    let mut new_primary = promoted;
    let mut follower = replicas.pop().unwrap();
    let link = TcpTransport::new(new_server.addr(), link_opts());
    follower.rewire(Box::new(link.clone()), Box::new(link));

    // Every quorum-confirmed write survived the failover.
    let all = catch_all();
    let ids = new_store.snapshot().query(&all).unwrap().sorted_ids();
    for id in &confirmed_ids {
        assert!(
            ids.binary_search(id).is_ok(),
            "kill@{kill_after}: quorum-acked id {id} lost in failover"
        );
    }

    // The surviving follower re-wires over TCP and heals bit-identical.
    let mut follower_vec = vec![follower];
    for _ in 0..5000 {
        turn(&new_server, &mut new_primary, &mut follower_vec, &mut now);
        let target = new_store.wal_health().appended_lsn;
        let f = &follower_vec[0];
        if f.is_seeded() && f.applied_lsn() >= target {
            break;
        }
    }
    let follower = &follower_vec[0];
    assert_eq!(
        follower.divergence(),
        None,
        "kill@{kill_after}: follower diverged after failover"
    );
    let target = new_store.wal_health().appended_lsn;
    assert!(
        follower.is_seeded() && follower.applied_lsn() >= target,
        "kill@{kill_after}: follower failed to heal against the new primary"
    );
    let read = follower
        .follower_read(ReadConsistency::AtLeast(target))
        .unwrap();
    let psnap = new_store.snapshot();
    for q in probes().into_iter().chain([all]) {
        assert_eq!(
            read.snapshot.query(&q).unwrap().sorted_ids(),
            psnap.query(&q).unwrap().sorted_ids(),
            "kill@{kill_after}: follower and new primary disagree"
        );
    }
    new_server.shutdown();
}

#[test]
fn quorum_acked_writes_survive_primary_kill_at_every_index() {
    for kill_after in 0..KILL_WRITES {
        run_kill_scenario(kill_after);
    }
}
