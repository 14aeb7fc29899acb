//! Epoch-based snapshot isolation: **concurrent readers under a single
//! writer**, without reader locks on the query path.
//!
//! Every engine in this crate answers queries through `&self` but mutates
//! through `&mut self` — correct, but reader-excluding: a process serving
//! a mixed read/write workload had to serialize query batches behind every
//! mutation. This module converts the mutation path into an **epoch
//! scheme**, behind one engine, [`ConcurrentShardedIndexSet`] (a one-shard
//! set is the unsharded topology):
//!
//! * the published state lives in an [`EpochCell`] as an immutable
//!   `Arc<ShardedIndexSet>`; readers call
//!   [`ConcurrentShardedIndexSet::snapshot`] — one brief `RwLock` read and
//!   an `Arc` clone — and then run `query_batch`/`top_k_batch` against
//!   the snapshot with **no further synchronization**, for as long as
//!   they like;
//! * a single writer (serialized by an internal mutex, so any thread may
//!   call the mutation methods) applies mutations to a **staged set** and
//!   *publishes* it by moving it into the cell — a pointer swap under a
//!   write lock held for nanoseconds;
//! * publication is **reclaim-and-replay** (a left-right double buffer):
//!   the epoch a publish displaces becomes the writer's *spare* once its
//!   last reader pin drops. The next mutation takes the spare back,
//!   replays the records logged since it was current — the same
//!   deterministic apply WAL recovery relies on — and goes on from there,
//!   so a write costs the rows it touches, not a copy of the whole set.
//!   When a reader still pins the spare, or a change that is no logged
//!   record broke the log (a compaction, or a quantization change that
//!   moved a policy), the writer clones the current epoch instead; it
//!   never waits for a reader. [`EpochStats`] counts both paths;
//! * retired epochs park on a reclamation list until the last reader
//!   pins drop — a **grace period** enforced by `Arc` reference counts,
//!   observable through [`EpochStats`].
//!
//! Readers pinned to epoch *E* never observe a mutation from epoch
//! *E + 1*: an answer computed against a snapshot is bit-identical to
//! single-threaded execution against the state at publish time (the
//! proptests in `tests/concurrent_proptests.rs` hold this across random
//! interleavings, and check every published epoch's persisted bytes
//! against a single-threaded twin).
//!
//! The constructor picks durability. [`ConcurrentShardedIndexSet::new`]
//! serves from memory; [`ConcurrentShardedIndexSet::create`] and
//! [`ConcurrentShardedIndexSet::open`] compose the epoch scheme with a
//! **group-commit** write-ahead log per shard (`core::wal::GroupCommitQueue`):
//! mutations from any number of threads append to a commit queue, one
//! leader fsyncs for the whole group, and every waiter is acknowledged by
//! that single fsync — collapsing the `FsyncPolicy::Always` latency curve
//! toward `EveryN(64)` while preserving "acknowledged ⇒ durable".
//!
//! ```
//! use planar_core::concurrent::{ConcurrencyConfig, ConcurrentShardedIndexSet};
//! use planar_core::{Cmp, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain,
//!                   ShardConfig, ShardedIndexSet};
//!
//! let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0], vec![4.0, 2.0]]).unwrap();
//! let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
//! let set: ShardedIndexSet = ShardedIndexSet::build(
//!     table, domain, IndexConfig::with_budget(4), ShardConfig::round_robin(1),
//! ).unwrap();
//! let conc = ConcurrentShardedIndexSet::new(set, ConcurrencyConfig::default());
//!
//! let snap = conc.snapshot();              // readers pin an epoch…
//! conc.insert_point(&[9.0, 9.0]).unwrap(); // …while a writer publishes the next
//! let q = InequalityQuery::new(vec![1.0, 2.0], Cmp::Leq, 9.0).unwrap();
//! assert_eq!(snap.len(), 2);               // the pinned epoch is frozen
//! assert_eq!(conc.snapshot().len(), 3);    // a fresh pin sees the mutation
//! assert!(snap.query(&q).is_ok());
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use crate::persist::{SaveOptions, ShardedRecoveryReport};
use crate::shard::ShardedIndexSet;
use crate::store::{KeyStore, VecStore};
use crate::table::PointId;
use crate::wal::{
    ensure_fresh_dir, read_manifest, shard_wal_dir, snapshot_path, sweep_snapshots, validate_row,
    walerr, write_manifest, FsyncPolicy, GroupCommitQueue, GroupCommitStats, Lsn, Manifest,
    Mutation, MutationAck, QuorumGate, WalHealth, WalOptions, WalRecord, WalWriter,
};
use crate::{PlanarError, Result};

// ---------------------------------------------------------------------------
// Epoch cell
// ---------------------------------------------------------------------------

/// Tuning for the epoch publish cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyConfig {
    /// Publish a new epoch after this many staged mutations (default 1:
    /// every mutation is immediately visible to new snapshots). Larger
    /// values bound how many records each publish's spare must replay
    /// (and how often a pinned spare forces a fallback clone), at the cost
    /// of bounded snapshot staleness; batch mutations
    /// ([`ConcurrentShardedIndexSet::apply_batch`]) always publish at the
    /// end of the batch.
    pub publish_every: usize,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        Self { publish_every: 1 }
    }
}

impl ConcurrencyConfig {
    /// Set the publish cadence (clamped to ≥ 1).
    pub fn publish_every(mut self, n: usize) -> Self {
        self.publish_every = n.max(1);
        self
    }
}

#[derive(Debug)]
struct Versioned<T> {
    epoch: u64,
    value: T,
}

/// A read pin on one published epoch. Dereferences to the underlying set;
/// holding it keeps that epoch's state alive (and unreclaimed) for as
/// long as the reader needs it. Cheap to clone (an `Arc` bump).
#[derive(Debug)]
pub struct Snapshot<T> {
    inner: Arc<Versioned<T>>,
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Snapshot<T> {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }
}

impl<T> std::ops::Deref for Snapshot<T> {
    type Target = T;

    fn deref(&self) -> &Self::Target {
        &self.inner.value
    }
}

/// Point-in-time epoch bookkeeping, stamped into [`crate::StatsSnapshot`]
/// via [`crate::StatsAggregator::record_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochStats {
    /// The currently published epoch.
    pub epoch: u64,
    /// Epochs published over the cell's lifetime.
    pub published: u64,
    /// Retired epochs still parked in their grace period (a reader pin
    /// keeps them alive).
    pub retired_live: usize,
    /// Retired epochs reclaimed after their grace period ended (freed, or
    /// kept as the writer's spare).
    pub reclaimed: u64,
    /// Fallback full clones of the current epoch: the writer's first
    /// change, and any change whose spare was still pinned or whose log a
    /// non-record change broke.
    pub clones: u64,
    /// Heap bytes deep-copied by those clones (the cloned set's reported
    /// memory usage at clone time).
    pub clone_bytes: u64,
    /// Wall-clock microseconds spent inside those clones.
    pub clone_micros: u64,
    /// Spares reclaimed and brought up to date by replaying the log.
    pub replays: u64,
    /// Records replayed onto those spares.
    pub replayed_records: u64,
    /// Wall-clock microseconds spent replaying.
    pub replay_micros: u64,
}

/// Count, volume and time of one kind of writer catch-up work.
#[derive(Debug, Default)]
struct Ledger {
    count: AtomicU64,
    volume: AtomicU64,
    nanos: AtomicU64,
}

impl Ledger {
    fn record(&self, volume: usize, elapsed: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.volume.fetch_add(volume as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, u64, u64) {
        (
            self.count.load(Ordering::Relaxed),
            self.volume.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) / 1_000,
        )
    }
}

/// Retired epochs in their grace period, plus the writer's spare.
#[derive(Debug)]
struct Retired<T> {
    pinned: Vec<Arc<Versioned<T>>>,
    /// The epoch the last publish displaced, when its publisher asked to
    /// reuse it.
    spare_epoch: Option<u64>,
    /// That epoch's state, once its grace period ended.
    spare: Option<T>,
}

/// The publish/retire/reclaim core: an atomically swappable `Arc` plus a
/// grace-period list of retired epochs.
///
/// `load` is a brief `RwLock` read (many readers proceed in parallel and
/// are never blocked by a publish in progress — publishes hold the write
/// lock only for the pointer swap). Retired epochs are reclaimed once
/// their `Arc` strong count shows no outstanding reader pins.
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<Versioned<T>>>,
    retired: Mutex<Retired<T>>,
    published: AtomicU64,
    reclaimed: AtomicU64,
    clones: Ledger,
    replays: Ledger,
}

impl<T> EpochCell<T> {
    /// Wrap `value` as epoch 1.
    pub fn new(value: T) -> Self {
        Self {
            current: RwLock::new(Arc::new(Versioned { epoch: 1, value })),
            retired: Mutex::new(Retired {
                pinned: Vec::new(),
                spare_epoch: None,
                spare: None,
            }),
            published: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            clones: Ledger::default(),
            replays: Ledger::default(),
        }
    }

    /// Record one full clone's cost (called by the writer, which knows
    /// how to measure its set's heap footprint).
    pub fn record_clone(&self, bytes: usize, elapsed: Duration) {
        self.clones.record(bytes, elapsed);
    }

    /// Record one spare replay's cost: how many records it re-applied.
    fn record_replay(&self, records: usize, elapsed: Duration) {
        self.replays.record(records, elapsed);
    }

    fn read_current(&self) -> Arc<Versioned<T>> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    fn lock_retired(&self) -> MutexGuard<'_, Retired<T>> {
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch.
    pub fn load(&self) -> Snapshot<T> {
        Snapshot {
            inner: self.read_current(),
        }
    }

    /// Publish `value` as the next epoch: swap the pointer, retire the
    /// previous epoch into its grace period, and opportunistically reclaim
    /// anything whose grace period already ended. Returns the new epoch.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_keeping(value, false)
    }

    /// [`Self::publish`], optionally keeping the displaced epoch as the
    /// spare [`Self::take_spare`] hands back once no reader pins it.
    fn publish_keeping(&self, value: T, keep_spare: bool) -> u64 {
        let (epoch, old) = {
            let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
            let epoch = cur.epoch + 1;
            let old = std::mem::replace(&mut *cur, Arc::new(Versioned { epoch, value }));
            (epoch, old)
        };
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.lock_retired();
        retired.spare_epoch = keep_spare.then_some(old.epoch);
        // A spare nobody took is one epoch too old for the new log.
        retired.spare = None;
        retired.pinned.push(old);
        self.reclaim_locked(&mut retired);
        epoch
    }

    fn reclaim_locked(&self, retired: &mut Retired<T>) -> usize {
        let mut freed = 0;
        for arc in std::mem::take(&mut retired.pinned) {
            // Unwrapping succeeds only when the retire list holds the only
            // reference: no reader can mint a new pin from it (pins come
            // only from `current`), so the grace period is over.
            match Arc::try_unwrap(arc) {
                Ok(v) => {
                    freed += 1;
                    if retired.spare_epoch == Some(v.epoch) {
                        retired.spare = Some(v.value);
                    }
                }
                Err(arc) => retired.pinned.push(arc),
            }
        }
        self.reclaimed.fetch_add(freed as u64, Ordering::Relaxed);
        freed
    }

    /// Hand the writer the epoch the last publish displaced, if it was
    /// kept and no reader pins it any more. Asked at most once per
    /// publish: a spare still pinned now is left to its grace period.
    fn take_spare(&self) -> Option<T> {
        let mut retired = self.lock_retired();
        self.reclaim_locked(&mut retired);
        retired.spare_epoch = None;
        retired.spare.take()
    }

    /// Sweep the retired list now, returning how many epochs were freed.
    /// (Publishes sweep opportunistically; this is for quiescent periods.)
    pub fn reclaim(&self) -> usize {
        let mut retired = self.lock_retired();
        self.reclaim_locked(&mut retired)
    }

    /// Current epoch bookkeeping.
    pub fn stats(&self) -> EpochStats {
        let retired_live = self.lock_retired().pinned.len();
        let (clones, clone_bytes, clone_micros) = self.clones.read();
        let (replays, replayed_records, replay_micros) = self.replays.read();
        EpochStats {
            epoch: self.read_current().epoch,
            published: self.published.load(Ordering::Relaxed),
            retired_live,
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            clones,
            clone_bytes,
            clone_micros,
            replays,
            replayed_records,
            replay_micros,
        }
    }

    /// Consume the cell, returning the current epoch's state (cloned when
    /// a reader still pins it).
    fn into_current(self) -> T
    where
        T: Clone,
    {
        let arc = self.current.into_inner().unwrap_or_else(|e| e.into_inner());
        Arc::try_unwrap(arc).map_or_else(|arc| arc.value.clone(), |v| v.value)
    }
}

// ---------------------------------------------------------------------------
// Epoch writer: reclaim-and-replay publication
// ---------------------------------------------------------------------------

/// A logged change to the staged set: the shard it applied to and its
/// record.
type Logged = (usize, WalRecord);

/// The single writer's side of an [`EpochCell`]: the staged next epoch,
/// and the record logs that let a displaced epoch be reused instead of
/// cloning the current one on every publish.
#[derive(Debug)]
struct EpochWriter<S: KeyStore + Clone> {
    /// The next epoch under construction; `None` until the first change
    /// after a publish.
    staged: Option<ShardedIndexSet<S>>,
    /// Records applied to `staged` since the current epoch; `None` once a
    /// change the log cannot replay touched it.
    pending: Option<Vec<Logged>>,
    /// Records that turn the cell's spare into the current epoch; `None`
    /// when no spare was kept.
    log: Option<Vec<Logged>>,
    /// Mutations staged since the last publish.
    dirty: usize,
    publish_every: usize,
}

impl<S: KeyStore + Clone> EpochWriter<S> {
    fn new(cfg: ConcurrencyConfig) -> Self {
        Self {
            staged: None,
            pending: None,
            log: None,
            dirty: 0,
            publish_every: cfg.publish_every.max(1),
        }
    }

    /// The staged set, materialized on the first change after a publish.
    fn stage(&mut self, cell: &EpochCell<ShardedIndexSet<S>>) -> &mut ShardedIndexSet<S> {
        if self.staged.is_none() {
            self.staged = Some(self.materialize(cell));
            self.pending = Some(Vec::new());
        }
        self.staged.as_mut().expect("materialized above")
    }

    /// A private copy of the current epoch: the spare with the log
    /// replayed onto it, or a clone when the spare is pinned or no log
    /// exists. Either way the copy starts a fresh quantization window, so
    /// an epoch's window counts only the reads made against it.
    fn materialize(&mut self, cell: &EpochCell<ShardedIndexSet<S>>) -> ShardedIndexSet<S> {
        if let Some(log) = self.log.take() {
            if let Some(mut spare) = cell.take_spare() {
                let start = Instant::now();
                // Reset first: a replayed compaction retunes from the
                // window, which was empty when it first ran.
                spare.reset_quant_window();
                if log
                    .iter()
                    .all(|(shard, rec)| spare.replay_record(*shard, 0, rec).is_ok())
                {
                    cell.record_replay(log.len(), start.elapsed());
                    return spare;
                }
                debug_assert!(false, "a logged record failed to replay onto the spare");
            }
        }
        let current = cell.load();
        let start = Instant::now();
        let copy = ShardedIndexSet::clone(&current);
        cell.record_clone(current.memory_usage(), start.elapsed());
        copy.reset_quant_window();
        copy
    }

    /// Read the latest state: staged if any, else the current epoch.
    fn read<R>(
        &self,
        cell: &EpochCell<ShardedIndexSet<S>>,
        f: impl FnOnce(&ShardedIndexSet<S>) -> R,
    ) -> R {
        match &self.staged {
            Some(set) => f(set),
            None => f(&cell.load()),
        }
    }

    /// Log a mutation already applied to the staged set.
    fn record(&mut self, shard: usize, rec: WalRecord) {
        if let Some(pending) = &mut self.pending {
            pending.push((shard, rec));
        }
        self.dirty += 1;
    }

    /// Apply a validated point mutation to the staged set and log it.
    fn apply(
        &mut self,
        cell: &EpochCell<ShardedIndexSet<S>>,
        shard: usize,
        rec: WalRecord,
    ) -> Result<MutationAck> {
        let res = apply_record(self.stage(cell), &rec);
        match &res {
            Ok(_) => self.record(shard, rec),
            // A failed pre-validated apply may have changed part of the set.
            Err(_) => self.pending = None,
        }
        res
    }

    /// The staged set, for a change the log cannot replay (compaction):
    /// the next publish keeps no spare.
    fn unlogged(&mut self, cell: &EpochCell<ShardedIndexSet<S>>) -> &mut ShardedIndexSet<S> {
        self.stage(cell);
        self.pending = None;
        self.staged.as_mut().expect("staged above")
    }

    /// Run a quantization change (policy, retune) on the staged set. It
    /// breaks the log only when it changed a policy: otherwise it reset
    /// no more than the observation window, which a replayed spare
    /// starts empty anyway.
    fn requantize<R>(
        &mut self,
        cell: &EpochCell<ShardedIndexSet<S>>,
        f: impl FnOnce(&mut ShardedIndexSet<S>) -> R,
    ) -> R {
        let set = self.stage(cell);
        let before = set.quant_policies();
        let out = f(&mut *set);
        if set.quant_policies() != before {
            self.pending = None;
        }
        out
    }

    /// Publish once [`ConcurrencyConfig::publish_every`] mutations are staged.
    fn settle(&mut self, cell: &EpochCell<ShardedIndexSet<S>>) {
        if self.dirty >= self.publish_every {
            self.publish(cell);
        }
    }

    /// Move the staged set into the cell as the next epoch. The displaced
    /// epoch becomes the spare when the pending log can rebuild it.
    fn publish(&mut self, cell: &EpochCell<ShardedIndexSet<S>>) -> u64 {
        self.stage(cell);
        let set = self.staged.take().expect("staged above");
        self.log = self.pending.take();
        self.dirty = 0;
        cell.publish_keeping(set, self.log.is_some())
    }

    /// The latest state, consuming writer and cell.
    fn into_latest(self, cell: EpochCell<ShardedIndexSet<S>>) -> ShardedIndexSet<S> {
        self.staged.unwrap_or_else(|| {
            let set = cell.into_current();
            set.reset_quant_window();
            set
        })
    }
}

/// Apply one validated point mutation to a staged set.
fn apply_record<S: KeyStore + Clone>(
    set: &mut ShardedIndexSet<S>,
    rec: &WalRecord,
) -> Result<MutationAck> {
    match rec {
        WalRecord::Insert { id, row } => {
            let got = set.insert_point(row).map_err(internal_apply)?;
            if got != *id {
                return Err(PlanarError::Internal(format!(
                    "staged insert assigned global id {got}, routing predicted {id}"
                )));
            }
            Ok(MutationAck::Inserted(got))
        }
        WalRecord::Update { id, row } => {
            set.update_point(*id, row).map_err(internal_apply)?;
            Ok(MutationAck::Updated)
        }
        WalRecord::Delete { id } => {
            set.delete_point(*id).map_err(internal_apply)?;
            Ok(MutationAck::Deleted)
        }
        _ => Err(PlanarError::Internal(
            "only point mutations are routed".into(),
        )),
    }
}

fn internal_apply(e: PlanarError) -> PlanarError {
    PlanarError::Internal(format!(
        "pre-validated mutation failed to apply to the staged copy: {e}"
    ))
}

/// Validate a batch and route each mutation to its shard: inserts by the
/// partitioner, updates and deletes by the owning shard (points born
/// earlier in the batch route to their recorded shard, killed points are
/// gone).
fn route_batch<S: KeyStore + Clone>(
    set: &ShardedIndexSet<S>,
    muts: &[Mutation],
) -> Result<Vec<Logged>> {
    let dim = set.dim();
    let mut born: Vec<(PointId, usize)> = Vec::new();
    let mut killed: Vec<PointId> = Vec::new();
    let mut next = set.next_global();
    let shard_of = |id: PointId, born: &[(PointId, usize)], killed: &[PointId]| {
        if killed.contains(&id) {
            return Err(PlanarError::PointNotFound(id));
        }
        if let Some(&(_, shard)) = born.iter().find(|&&(b, _)| b == id) {
            return Ok(shard);
        }
        set.shard_of(id).ok_or(PlanarError::PointNotFound(id))
    };
    let mut routed = Vec::with_capacity(muts.len());
    for m in muts {
        match m {
            Mutation::Insert { row } => {
                validate_row(dim, row)?;
                let shard = set.partitioner().route(next, row);
                routed.push((
                    shard,
                    WalRecord::Insert {
                        id: next,
                        row: row.clone(),
                    },
                ));
                born.push((next, shard));
                next += 1;
            }
            Mutation::Update { id, row } => {
                validate_row(dim, row)?;
                let shard = shard_of(*id, &born, &killed)?;
                routed.push((
                    shard,
                    WalRecord::Update {
                        id: *id,
                        row: row.clone(),
                    },
                ));
            }
            Mutation::Delete { id } => {
                let shard = shard_of(*id, &born, &killed)?;
                routed.push((shard, WalRecord::Delete { id: *id }));
                killed.push(*id);
            }
        }
    }
    Ok(routed)
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// `OnCheckpoint` group mode still writes (without fsync) once this many
/// records are queued, so the in-memory commit queue stays bounded.
const LAZY_FLUSH_RECORDS: u64 = 512;

/// Acknowledge `lsn` on `queue` per the fsync policy: `Always` joins (or
/// leads) a commit group and returns only once durable; the bounded-loss
/// policies return immediately, flushing the queue when due.
fn ack_lsn(queue: &GroupCommitQueue, fsync: FsyncPolicy, lsn: Lsn) -> Result<()> {
    let due = match fsync {
        FsyncPolicy::Always => return queue.wait_durable(lsn),
        FsyncPolicy::EveryN(n) => u64::from(n.max(1)),
        FsyncPolicy::OnCheckpoint => LAZY_FLUSH_RECORDS,
    };
    if queue.ack_lag() >= due {
        queue.flush(false)?;
    }
    Ok(())
}

/// A durable engine's write-ahead side: one group-commit queue per shard
/// WAL, the directory checkpoints go to, and the ack policy.
#[derive(Debug)]
struct Wal {
    queues: Vec<GroupCommitQueue>,
    dir: PathBuf,
    fsync: FsyncPolicy,
    save_opts: SaveOptions,
}

impl Wal {
    /// Acknowledge, per shard, the last LSN logged on it (`None`: the
    /// shard was not touched).
    fn ack(&self, touched: &[Option<Lsn>]) -> Result<()> {
        for (queue, lsn) in self.queues.iter().zip(touched) {
            if let Some(lsn) = lsn {
                ack_lsn(queue, self.fsync, *lsn)?;
            }
        }
        Ok(())
    }
}

/// The writer state: the epoch writer plus the WAL position and
/// checkpoint generation it advances under the same lock (an in-memory
/// engine never reads the last two).
#[derive(Debug)]
struct Writer<S: KeyStore + Clone> {
    epochs: EpochWriter<S>,
    next_lsn: Lsn,
    generation: u64,
}

// ---------------------------------------------------------------------------
// The concurrent engine
// ---------------------------------------------------------------------------

/// A [`ShardedIndexSet`] behind an [`EpochCell`]: lock-free snapshot
/// reads from any number of threads (snapshots answer through the
/// shard-aware `query_batch`/`top_k_batch` fan-out), mutations from any
/// thread serialized by an internal writer mutex. See the module docs for
/// the epoch lifecycle. A one-shard set is the unsharded topology.
///
/// The constructor picks durability. [`Self::new`] serves from memory.
/// [`Self::create`] and [`Self::open`] add **one group-commit queue per
/// shard WAL**: every mutation is write-ahead logged into its shard's
/// queue, applied to the staged set in LSN order, and — under
/// [`FsyncPolicy::Always`] — acknowledged only once a commit-group
/// leader's fsync covers its LSN. Mutations routed to different shards
/// commit through independent queues (independent fsync leaders);
/// mutations hitting the same shard share commit groups. The global LSN
/// order is still assigned under the writer mutex, so recovery's
/// cross-shard replay order is exactly the acknowledged order.
#[derive(Debug)]
pub struct ConcurrentShardedIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<ShardedIndexSet<S>>,
    writer: Mutex<Writer<S>>,
    /// The write-ahead log; `None` for an in-memory engine.
    wal: Option<Wal>,
}

/// The durable engine's former name. In-memory and durable engines are
/// one type, picked by the constructor; the name stays because the
/// benchmark harness under `stackbench/` names it, and that harness must
/// build unchanged against every revision it compares.
pub type ConcurrentDurableShardedIndexSet<S = VecStore> = ConcurrentShardedIndexSet<S>;

impl<S: KeyStore + Clone> ConcurrentShardedIndexSet<S> {
    /// Wrap `set` for concurrent in-memory serving.
    pub fn new(set: ShardedIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        Self::assemble(set, cfg, None, 1, 0)
    }

    /// Initialize `dir` as a durable home for `set` — snapshot generation
    /// 1, the manifest at watermark 0, one empty WAL per shard — and wrap
    /// it for concurrent serving.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure or if `dir` already holds
    /// a durable index.
    pub fn create(
        dir: impl AsRef<Path>,
        set: ShardedIndexSet<S>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref();
        ensure_fresh_dir(dir)?;
        set.save_to(snapshot_path(dir, 1))?;
        write_manifest(
            dir,
            Manifest {
                generation: 1,
                watermark: 0,
                term: 0,
            },
        )?;
        let wals = (0..set.num_shards())
            .map(|shard| WalWriter::open_repair(&shard_wal_dir(dir, shard), opts).map(|w| w.0))
            .collect::<Result<Vec<_>>>()?;
        let next_lsn = wals.iter().map(WalWriter::last_lsn).max().unwrap_or(0) + 1;
        let dir = dir.to_path_buf();
        Ok(Self::from_wals(
            set,
            wals,
            dir,
            1,
            next_lsn,
            SaveOptions::default(),
            cfg,
        ))
    }

    /// Open a durable directory and wrap it for concurrent serving: load
    /// the newest valid snapshot ([`ShardedIndexSet::load_or_recover`]
    /// semantics), repair every shard's WAL tail, and replay each shard's
    /// records above the manifest's LSN watermark. The report carries
    /// snapshot *and* replay provenance; its `shard_watermarks` give each
    /// shard's last applied LSN. Torn tails are truncated and reported —
    /// never an error.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if the directory was never initialized
    /// ([`Self::create`]), on real I/O failures, on replay divergence, or
    /// if the snapshot core itself is unrecoverable.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let dir = dir.as_ref();
        let m = read_manifest(dir)?;
        let (mut set, mut report) =
            ShardedIndexSet::<S>::load_or_recover(snapshot_path(dir, m.generation))?;
        let mut wals = Vec::with_capacity(set.num_shards());
        let mut watermarks = vec![m.watermark; set.num_shards()];
        let mut max_lsn = m.watermark;
        for (shard, watermark) in watermarks.iter_mut().enumerate() {
            let (mut wal, scan) = WalWriter::open_repair(&shard_wal_dir(dir, shard), opts)?;
            // The manifest carries the authoritative replication term;
            // adopt it if it is ahead of anything the segments carry.
            wal.set_term(m.term);
            for (lsn, rec) in scan.frames.iter().filter(|(lsn, _)| *lsn > m.watermark) {
                set.replay_record(shard, *lsn, rec)?;
                *watermark = *lsn;
                report.wal_replayed += 1;
            }
            report.wal_dropped += scan.dropped_records;
            report.wal_torn_bytes += scan.torn_bytes;
            max_lsn = max_lsn.max(wal.last_lsn()).max(*watermark);
            wals.push(wal);
        }
        report.shard_watermarks = watermarks;
        sweep_snapshots(dir, m.generation);
        let (dir, next_lsn) = (dir.to_path_buf(), max_lsn + 1);
        let engine = Self::from_wals(
            set,
            wals,
            dir,
            m.generation,
            next_lsn,
            SaveOptions::default(),
            cfg,
        );
        Ok((engine, report))
    }

    /// A durable engine over shard WALs already open for appending — what
    /// `create`, `open` and failover promotion build. The caller
    /// guarantees `set` is exactly the replay of `wals` over snapshot
    /// `generation` in `dir`.
    pub(crate) fn from_wals(
        set: ShardedIndexSet<S>,
        wals: Vec<WalWriter>,
        dir: PathBuf,
        generation: u64,
        next_lsn: Lsn,
        save_opts: SaveOptions,
        cfg: ConcurrencyConfig,
    ) -> Self {
        let fsync = wals
            .first()
            .map_or(FsyncPolicy::Always, |w| w.options().fsync);
        let wal = Wal {
            queues: wals.into_iter().map(GroupCommitQueue::new).collect(),
            dir,
            fsync,
            save_opts,
        };
        Self::assemble(set, cfg, Some(wal), next_lsn, generation)
    }

    fn assemble(
        set: ShardedIndexSet<S>,
        cfg: ConcurrencyConfig,
        wal: Option<Wal>,
        next_lsn: Lsn,
        generation: u64,
    ) -> Self {
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(Writer {
                epochs: EpochWriter::new(cfg),
                next_lsn,
                generation,
            }),
            wal,
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, Writer<S>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The write-ahead log, or a typed error for an in-memory engine.
    fn durable(&self) -> Result<&Wal> {
        self.wal
            .as_ref()
            .ok_or_else(|| walerr("this engine was built in memory and has no write-ahead log"))
    }

    /// Pin the current epoch for reading. Queries on the snapshot are the
    /// plain [`ShardedIndexSet`] API (`query`, `query_batch`,
    /// `top_k_batch`, …) and run with no synchronization whatsoever.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<S>> {
        self.cell.load()
    }

    /// Route the mutations `route` returns against the latest state, log
    /// them (durable engines only), apply them to the staged set, and
    /// publish — now for a `batch`, else per the cadence. Acknowledges
    /// per touched shard after releasing the writer lock.
    fn commit(
        &self,
        batch: bool,
        route: impl FnOnce(&ShardedIndexSet<S>) -> Result<Vec<Logged>>,
    ) -> Result<Vec<MutationAck>> {
        let (acks, touched) = {
            let mut w = self.lock_writer();
            let routed = w.epochs.read(&self.cell, route)?;
            if routed.is_empty() {
                return Ok(Vec::new());
            }
            let touched = self.log(&mut w, &routed)?;
            let mut acks = Vec::with_capacity(routed.len());
            for (shard, rec) in routed {
                acks.push(w.epochs.apply(&self.cell, shard, rec)?);
            }
            if batch {
                w.epochs.publish(&self.cell);
            } else {
                w.epochs.settle(&self.cell);
            }
            (acks, touched)
        };
        if let Some(wal) = &self.wal {
            wal.ack(&touched)?;
        }
        Ok(acks)
    }

    /// Enqueue `routed` at consecutive LSNs on each record's shard queue
    /// (nothing in memory). Returns the last LSN logged per shard.
    fn log(&self, w: &mut Writer<S>, routed: &[Logged]) -> Result<Vec<Option<Lsn>>> {
        let Some(wal) = &self.wal else {
            return Ok(Vec::new());
        };
        let mut touched = vec![None; wal.queues.len()];
        for (lsn, (shard, rec)) in (w.next_lsn..).zip(routed) {
            wal.queues[*shard].enqueue(lsn, rec.clone())?;
            touched[*shard] = Some(lsn);
        }
        w.next_lsn += routed.len() as Lsn;
        Ok(touched)
    }

    /// Insert routed by the partitioner; publishes per
    /// [`ConcurrencyConfig::publish_every`]. On a durable engine under
    /// `Always` the returned id is durable.
    ///
    /// # Errors
    ///
    /// Row validation errors before logging; [`PlanarError::Persist`] if
    /// the commit group's append/fsync failed (the mutation is *not*
    /// acknowledged).
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let acks = self.commit(false, |set| {
            validate_row(set.dim(), row)?;
            let id = set.next_global();
            let rec = WalRecord::Insert {
                id,
                row: row.to_vec(),
            };
            Ok(vec![(set.partitioner().route(id, row), rec)])
        })?;
        match acks[..] {
            [MutationAck::Inserted(id)] => Ok(id),
            _ => unreachable!("an insert acks as Inserted"),
        }
    }

    /// Update on the point's shard. See [`ShardedIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// As [`Self::insert_point`], plus [`PlanarError::PointNotFound`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        self.commit(false, |set| {
            validate_row(set.dim(), row)?;
            let shard = set.shard_of(id).ok_or(PlanarError::PointNotFound(id))?;
            let rec = WalRecord::Update {
                id,
                row: row.to_vec(),
            };
            Ok(vec![(shard, rec)])
        })
        .map(drop)
    }

    /// Delete on the point's shard. See [`ShardedIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// As [`Self::update_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        self.commit(false, |set| {
            let shard = set.shard_of(id).ok_or(PlanarError::PointNotFound(id))?;
            Ok(vec![(shard, WalRecord::Delete { id })])
        })
        .map(drop)
    }

    /// Apply a whole mutation batch under one writer-lock acquisition:
    /// validated and routed up front (updates and deletes may target
    /// points born earlier in the batch), logged contiguously in global
    /// LSN order, applied, published as **one** epoch so readers observe
    /// it atomically, and acknowledged with at most one fsync **per
    /// touched shard** under `Always`. Returns per-mutation acks in batch
    /// order.
    ///
    /// # Errors
    ///
    /// Validation errors before anything is logged or applied (the batch
    /// is all-or-nothing); [`PlanarError::Persist`] on append/fsync
    /// failure.
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        self.commit(true, |set| route_batch(set, muts))
    }

    /// Threshold-gated compaction (see [`ShardedIndexSet::compact`]);
    /// always publishes. A durable engine first logs the marker to
    /// **every** shard's queue at one shared LSN. Readers keep serving
    /// pinned epochs.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn compact(&self, threshold: f64) -> Result<Vec<usize>> {
        let (compacted, lsn) = {
            let mut w = self.lock_writer();
            let lsn = w.next_lsn;
            if let Some(wal) = &self.wal {
                let rec = WalRecord::Compact {
                    threshold: Some(threshold),
                };
                for queue in &wal.queues {
                    queue.enqueue(lsn, rec.clone())?;
                }
                w.next_lsn = lsn + 1;
            }
            let set = w.epochs.unlogged(&self.cell);
            // Reader observations land on the published epoch's tuner;
            // fold them in so each compacted shard's internal retune sees
            // the workload.
            set.adopt_quant_window(&self.snapshot());
            let compacted = set.compact(threshold);
            w.epochs.publish(&self.cell);
            (compacted, lsn)
        };
        if let Some(wal) = &self.wal {
            wal.ack(&vec![Some(lsn); wal.queues.len()])?;
        }
        Ok(compacted)
    }

    /// Force every shard's queue to stable storage now, regardless of the
    /// fsync policy. Afterwards `wal_health()` shows
    /// `acked_lsn == appended_lsn`.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure, or when the
    /// engine is in-memory.
    pub fn sync(&self) -> Result<()> {
        for queue in &self.durable()?.queues {
            queue.flush(true)?;
        }
        Ok(())
    }

    /// Checkpoint-then-truncate across every shard: log a `Checkpoint`
    /// marker, fsync, write the next snapshot generation, publish it in
    /// the manifest, then drop the covered WAL segments. Every step is
    /// crash-safe. Mutations block for the duration; readers keep serving
    /// from pinned epochs. Returns the new watermark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure, or when the engine is
    /// in-memory.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let wal = self.durable()?;
        let mut w = self.lock_writer();
        let watermark = w.next_lsn;
        for queue in &wal.queues {
            queue.enqueue(watermark, WalRecord::Checkpoint { watermark })?;
            queue.flush(true)?;
        }
        w.next_lsn = watermark + 1;
        // Checkpoint cadence doubles as the autotuner's retune point;
        // adopt reader observations from the published epoch first, and
        // the snapshot below then carries the freshly chosen tiers. The
        // policy is derived state, so it needs no WAL record: replay
        // without it yields identical answers, just unfiltered.
        let generation = w.generation + 1;
        w.epochs.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(&crate::quant::QuantAutotuneConfig::default());
        });
        w.epochs.stage(&self.cell).save_to_with(
            snapshot_path(&wal.dir, generation),
            &mut crate::fault::StdIo,
            &wal.save_opts,
        )?;
        write_manifest(
            &wal.dir,
            Manifest {
                generation,
                watermark,
                term: self.term(),
            },
        )?;
        w.generation = generation;
        for queue in &wal.queues {
            queue.with_writer(|wal| wal.truncate_all(watermark + 1))?;
        }
        sweep_snapshots(&wal.dir, generation);
        Ok(watermark)
    }

    /// Per-shard quantization policies on the latest writer state (the
    /// next publish carries them to readers).
    pub fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy> {
        self.lock_writer()
            .epochs
            .read(&self.cell, ShardedIndexSet::quant_policies)
    }

    /// Install one quantization policy on every shard; always publishes
    /// so readers get the re-encoded mirror immediately. Derived state —
    /// not WAL-logged, so a crash before the next checkpoint recovers
    /// with the tiers from the last snapshot (answers are identical under
    /// any tier by contract).
    pub fn set_quant_policy(&self, policy: crate::quant::QuantPolicy) {
        let mut w = self.lock_writer();
        w.epochs
            .requantize(&self.cell, |set| set.set_quant_policy(policy));
        w.epochs.publish(&self.cell);
    }

    /// Fold reader observations into each shard's tuner, retune every
    /// shard (see [`crate::quant::retune`]), and publish. Returns the
    /// policy now active per shard.
    pub fn retune_quantization(
        &self,
        cfg: &crate::quant::QuantAutotuneConfig,
    ) -> Vec<crate::quant::QuantPolicy> {
        let mut w = self.lock_writer();
        let policies = w.epochs.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(cfg)
        });
        w.epochs.publish(&self.cell);
        policies
    }

    /// Publish the staged state now, regardless of the dirty counter.
    /// Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.lock_writer().epochs.publish(&self.cell)
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }

    /// Epoch bookkeeping (publish count, grace-period population, clone
    /// and replay ledgers).
    pub fn epoch_stats(&self) -> EpochStats {
        self.cell.stats()
    }

    /// WAL health merged across every shard's queue (the merge keeps the
    /// most conservative `acked_lsn`); the default for an in-memory
    /// engine.
    pub fn wal_health(&self) -> WalHealth {
        let mut h = WalHealth::default();
        for queue in self.wal.iter().flat_map(|wal| &wal.queues) {
            h.merge(&queue.health());
        }
        h
    }

    /// Group-commit amortization counters summed across shards; the
    /// default for an in-memory engine.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for queue in self.wal.iter().flat_map(|wal| &wal.queues) {
            let s = queue.stats();
            total.fsyncs += s.fsyncs;
            total.committed_records += s.committed_records;
            total.max_group = total.max_group.max(s.max_group);
        }
        total
    }

    /// Data fsyncs summed across every shard's WAL writer (0 in memory).
    pub fn fsync_count(&self) -> u64 {
        self.wal
            .iter()
            .flat_map(|wal| &wal.queues)
            .map(GroupCommitQueue::fsync_count)
            .sum()
    }

    /// Recover every shard's group-commit queue from a fail-stop
    /// append/fsync error: revalidate the log tail on disk, re-append any
    /// applied-but-undurable records the failed drain parked, and resume
    /// accepting mutations. Acks issued before the error still hold —
    /// they were covered by an fsync at ack time and reopen never
    /// truncates below the synced watermark. Healthy queues are
    /// untouched; the merged health keeps the most conservative acked
    /// watermark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if any shard's tail repair fails (the
    /// queue stays fail-stopped and can be reopened again), or when the
    /// engine is in-memory.
    pub fn reopen_wal(&self) -> Result<WalHealth> {
        let mut h = WalHealth::default();
        for queue in &self.durable()?.queues {
            h.merge(&queue.reopen()?);
        }
        Ok(h)
    }

    /// Install a replication [`QuorumGate`] on every shard's commit
    /// queue: `FsyncPolicy::Always` acknowledgements are then released
    /// only once the gate confirms the covering LSN (or fail typed with
    /// [`crate::PlanarError::QuorumTimeout`]). Installed by
    /// [`crate::replicate::Primary::set_ack_policy`]; the same gate
    /// instance must be the one the primary publishes replica
    /// confirmations into.
    pub fn install_quorum_gate(&self, gate: QuorumGate) {
        for queue in self.wal.iter().flat_map(|wal| &wal.queues) {
            queue.set_gate(Some(gate.clone()));
        }
    }

    /// Remove any installed quorum gate: acknowledgements revert to
    /// local-durability-only.
    pub fn clear_quorum_gate(&self) {
        for queue in self.wal.iter().flat_map(|wal| &wal.queues) {
            queue.set_gate(None);
        }
    }

    /// The durable directory this engine checkpoints into (`None` in
    /// memory).
    pub(crate) fn dir(&self) -> Option<&Path> {
        self.wal.as_ref().map(|wal| wal.dir.as_path())
    }

    /// Highest replication term across the shard WAL writers (0 in
    /// memory).
    pub(crate) fn term(&self) -> u64 {
        self.wal
            .iter()
            .flat_map(|wal| &wal.queues)
            .map(GroupCommitQueue::term)
            .max()
            .unwrap_or(0)
    }

    /// Replication apply path: replay a contiguous batch of shipped WAL
    /// records into the staged set through the same `replay_record` logic
    /// recovery uses (divergence checks included), then publish **once**
    /// for the whole batch.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on replay divergence (e.g. an insert id
    /// already assigned): the staged set may be mid-batch, so the caller
    /// must treat the replica as diverged and stop applying.
    pub(crate) fn replay_replicated(&self, frames: &[(usize, Lsn, WalRecord)]) -> Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let mut w = self.lock_writer();
        for (shard, lsn, rec) in frames {
            if let Err(e) = w.epochs.stage(&self.cell).replay_record(*shard, *lsn, rec) {
                w.epochs.pending = None;
                return Err(e);
            }
            w.epochs.record(*shard, rec.clone());
        }
        w.epochs.publish(&self.cell);
        Ok(())
    }

    /// Consume the engine, returning the latest (staged, else published)
    /// set — the failover-promotion handoff.
    pub fn into_staged(self) -> ShardedIndexSet<S> {
        let writer = self.writer.into_inner().unwrap_or_else(|e| e.into_inner());
        writer.epochs.into_latest(self.cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ParameterDomain;
    use crate::fault::TempDir;
    use crate::multi::IndexConfig;
    use crate::query::{Cmp, InequalityQuery};
    use crate::shard::ShardConfig;
    use crate::table::FeatureTable;
    use crate::VecStore;

    fn set_of(rows: Vec<Vec<f64>>, budget: usize, shards: usize) -> ShardedIndexSet {
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        ShardedIndexSet::<VecStore>::build(
            table,
            domain,
            IndexConfig::with_budget(budget),
            ShardConfig::round_robin(shards),
        )
        .unwrap()
    }

    /// The unsharded topology: one shard.
    fn small_set(n: usize) -> ShardedIndexSet {
        let rows = (0..n)
            .map(|i| vec![1.0 + (i % 13) as f64, 1.0 + (i % 7) as f64])
            .collect();
        set_of(rows, 4, 1)
    }

    fn probe(b: f64) -> InequalityQuery {
        InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap()
    }

    #[test]
    fn snapshots_pin_epochs_and_reclaim_after_grace() {
        let conc = ConcurrentShardedIndexSet::new(small_set(40), ConcurrencyConfig::default());
        let pinned = conc.snapshot();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.len(), 40);

        conc.insert_point(&[3.0, 3.0]).unwrap();
        conc.insert_point(&[4.0, 4.0]).unwrap();
        // The pin still answers from epoch 1.
        assert_eq!(pinned.len(), 40);
        let now = conc.snapshot();
        assert_eq!(now.epoch(), 3);
        assert_eq!(now.len(), 42);

        // Epoch 2 had no pins → already reclaimed; epoch 1 waits for ours.
        let stats = conc.epoch_stats();
        assert_eq!(stats.published, 2);
        assert_eq!(stats.retired_live, 1);
        assert_eq!(stats.reclaimed, 1);

        drop(pinned);
        assert_eq!(conc.reclaim(), 1, "grace period ends with the last pin");
        assert_eq!(conc.epoch_stats().retired_live, 0);
    }

    #[test]
    fn concurrent_publishers_each_get_the_epoch_they_assigned() {
        let cell = EpochCell::new(0u64);
        let start = std::sync::Barrier::new(2);
        let mut epochs: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u64)
                .map(|t| {
                    let (cell, start) = (&cell, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..5000)
                            .map(|i| cell.publish(t * 10_000 + i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<u64>>()
        });
        epochs.sort_unstable();
        assert_eq!(
            epochs,
            (2..=10_001).collect::<Vec<u64>>(),
            "two publishers must never both report one epoch"
        );
    }

    #[test]
    fn writes_replay_the_spare_and_clone_only_when_it_is_pinned() {
        let conc = ConcurrentShardedIndexSet::new(small_set(40), ConcurrencyConfig::default());
        let mut twin = small_set(40);
        for i in 0..6 {
            let row = [1.0 + i as f64, 2.0];
            assert_eq!(
                conc.insert_point(&row).unwrap(),
                twin.insert_point(&row).unwrap()
            );
        }
        let stats = conc.epoch_stats();
        assert_eq!(stats.clones, 1, "only the first write clones");
        assert_eq!((stats.replays, stats.replayed_records), (5, 5));

        // Pin the current epoch: the next write still replays (its spare
        // is the epoch before), but displaces the pinned epoch, so the
        // write after it finds its spare pinned and falls back to a clone.
        let pin = conc.snapshot();
        conc.delete_point(3).unwrap();
        twin.delete_point(3).unwrap();
        conc.update_point(5, &[9.0, 9.0]).unwrap();
        twin.update_point(5, &[9.0, 9.0]).unwrap();
        let stats = conc.epoch_stats();
        assert_eq!((stats.clones, stats.replays), (2, 6));
        assert_eq!(pin.len(), 46, "the pinned epoch stays frozen");
        drop(pin);

        assert_eq!(conc.snapshot().to_bytes(), twin.to_bytes());
        // Re-installing the active policy keeps the log; a policy change
        // breaks it, and the write after it clones.
        let i8 = crate::quant::QuantPolicy::tier(crate::quant::QuantTier::I8);
        for (policy, clones) in [(crate::quant::QuantPolicy::off(), 2), (i8, 3), (i8, 3)] {
            conc.set_quant_policy(policy);
            twin.set_quant_policy(policy);
            conc.insert_point(&[7.0, 7.0]).unwrap();
            twin.insert_point(&[7.0, 7.0]).unwrap();
            assert_eq!(conc.epoch_stats().clones, clones, "after {policy:?}");
            assert_eq!(conc.snapshot().to_bytes(), twin.to_bytes());
        }
    }

    #[test]
    fn a_checkpoint_that_keeps_the_policy_keeps_the_replay_log() {
        let tmp = TempDir::new("conc_ckpt_replay").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
        let cfg = ConcurrencyConfig::default();
        let conc = ConcurrentShardedIndexSet::create(tmp.path(), small_set(20), opts, cfg).unwrap();
        conc.insert_point(&[2.0, 4.0]).unwrap();
        conc.checkpoint().unwrap();
        conc.insert_point(&[3.0, 4.0]).unwrap();
        conc.insert_point(&[4.0, 4.0]).unwrap();
        let stats = conc.epoch_stats();
        assert_eq!(
            (stats.clones, stats.replays),
            (1, 2),
            "no clone after the checkpoint"
        );
    }

    #[test]
    fn batch_publishes_one_epoch_and_matches_serial() {
        let conc = ConcurrentShardedIndexSet::new(small_set(30), ConcurrencyConfig::default());
        let mut twin = small_set(30);
        let muts = vec![
            Mutation::Insert {
                row: vec![2.0, 9.0],
            },
            Mutation::Insert {
                row: vec![7.0, 1.0],
            },
            Mutation::Update {
                id: 30,
                row: vec![6.0, 6.0],
            },
            Mutation::Delete { id: 3 },
        ];
        let acks = conc.apply_batch(&muts).unwrap();
        assert_eq!(acks[0], MutationAck::Inserted(30));
        assert_eq!(acks[1], MutationAck::Inserted(31));
        twin.insert_point(&[2.0, 9.0]).unwrap();
        twin.insert_point(&[7.0, 1.0]).unwrap();
        twin.update_point(30, &[6.0, 6.0]).unwrap();
        twin.delete_point(3).unwrap();

        let snap = conc.snapshot();
        assert_eq!(snap.epoch(), 2, "one epoch for the whole batch");
        for b in [8.0, 12.0, 20.0] {
            assert_eq!(
                snap.query(&probe(b)).unwrap().sorted_ids(),
                twin.query(&probe(b)).unwrap().sorted_ids()
            );
        }
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let conc = ConcurrentShardedIndexSet::new(small_set(10), ConcurrencyConfig::default());
        let muts = vec![
            Mutation::Insert {
                row: vec![2.0, 2.0],
            },
            Mutation::Delete { id: 999 },
        ];
        assert!(matches!(
            conc.apply_batch(&muts),
            Err(PlanarError::PointNotFound(999))
        ));
        assert_eq!(conc.snapshot().len(), 10, "nothing applied");
        assert_eq!(conc.snapshot().epoch(), 1, "nothing published");
    }

    #[test]
    fn publish_cadence_batches_epochs() {
        let cfg = ConcurrencyConfig::default().publish_every(4);
        let conc = ConcurrentShardedIndexSet::new(small_set(10), cfg);
        for i in 0..3 {
            conc.insert_point(&[2.0 + i as f64, 2.0]).unwrap();
        }
        assert_eq!(conc.snapshot().len(), 10, "below cadence: not yet visible");
        conc.insert_point(&[9.0, 9.0]).unwrap();
        assert_eq!(conc.snapshot().len(), 14, "4th mutation publishes");
        conc.insert_point(&[9.5, 9.5]).unwrap();
        assert_eq!(conc.snapshot().len(), 14);
        assert_eq!(conc.publish(), 3, "manual publish flushes the remainder");
        assert_eq!(conc.snapshot().len(), 15);
    }

    #[test]
    fn sharded_snapshots_match_twin() {
        let build = || {
            let rows = (0..60)
                .map(|i| vec![1.0 + (i % 11) as f64, 1.0 + (i % 6) as f64])
                .collect();
            set_of(rows, 3, 3)
        };
        let conc = ConcurrentShardedIndexSet::new(build(), ConcurrencyConfig::default());
        let mut twin = build();
        let pinned = conc.snapshot();
        for i in 0..10 {
            let row = vec![2.0 + (i % 5) as f64, 3.0];
            assert_eq!(
                conc.insert_point(&row).unwrap(),
                twin.insert_point(&row).unwrap()
            );
        }
        conc.delete_point(2).unwrap();
        twin.delete_point(2).unwrap();
        assert_eq!(pinned.len(), 60, "pinned epoch is frozen");
        let now = conc.snapshot();
        for b in [8.0, 14.0] {
            assert_eq!(
                now.query(&probe(b)).unwrap().sorted_ids(),
                twin.query(&probe(b)).unwrap().sorted_ids()
            );
        }
    }

    /// Readers race a writer across epochs; every reader answer must be
    /// internally consistent with the epoch it pinned. This test is the
    /// ThreadSanitizer smoke target wired into CI (`tsan_smoke` in its
    /// name is load-bearing).
    #[test]
    fn tsan_smoke_readers_race_writer() {
        let conc = std::sync::Arc::new(ConcurrentShardedIndexSet::new(
            small_set(50),
            ConcurrencyConfig::default(),
        ));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let conc = std::sync::Arc::clone(&conc);
                let stop = std::sync::Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = conc.snapshot();
                        let out = snap.query(&probe(12.0)).unwrap();
                        // Snapshot immutability: re-running on the same pin
                        // is bit-identical even mid-mutation-stream.
                        assert_eq!(
                            out.sorted_ids(),
                            snap.query(&probe(12.0)).unwrap().sorted_ids()
                        );
                    }
                });
            }
            for i in 0..64 {
                conc.insert_point(&[1.0 + (i % 9) as f64, 2.0]).unwrap();
                if i % 16 == 0 {
                    conc.reclaim();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(conc.snapshot().len(), 114);
    }

    #[test]
    fn in_memory_engine_refuses_durability_calls_with_typed_errors() {
        let conc = ConcurrentShardedIndexSet::new(small_set(10), ConcurrencyConfig::default());
        assert!(conc.dir().is_none());
        conc.insert_point(&[2.0, 2.0]).unwrap();
        assert_eq!(conc.compact(0.0).unwrap(), Vec::<usize>::new());
        assert!(matches!(conc.sync(), Err(PlanarError::Persist(_))));
        assert!(matches!(conc.checkpoint(), Err(PlanarError::Persist(_))));
        assert!(matches!(conc.reopen_wal(), Err(PlanarError::Persist(_))));
        assert_eq!(conc.wal_health(), WalHealth::default());
        assert_eq!(conc.group_commit_stats(), GroupCommitStats::default());
        assert_eq!(conc.fsync_count(), 0);
        // The refusals changed nothing: the insert is still served.
        assert_eq!(conc.snapshot().len(), 11);
        assert_eq!(conc.epoch_stats().published, 2);
    }

    #[test]
    fn durable_concurrent_group_commit_roundtrip() {
        let tmp = TempDir::new("conc_durable").unwrap();
        let opts = WalOptions::default(); // Always: every ack durable
        let conc = std::sync::Arc::new(
            ConcurrentShardedIndexSet::create(
                tmp.path(),
                small_set(40),
                opts,
                ConcurrencyConfig::default(),
            )
            .unwrap(),
        );
        assert!(conc.dir().is_some());
        // 4 mutator threads share commit groups.
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let conc = std::sync::Arc::clone(&conc);
                s.spawn(move || {
                    for i in 0..8 {
                        conc.insert_point(&[1.0 + t as f64, 1.0 + i as f64])
                            .unwrap();
                    }
                });
            }
        });
        let health = conc.wal_health();
        assert_eq!(health.appended_lsn, 32);
        assert_eq!(health.acked_lsn, 32, "Always: every ack durable");
        assert_eq!(health.ack_lag(), 0);
        let gc = conc.group_commit_stats();
        assert_eq!(gc.committed_records, 32);
        assert!(gc.fsyncs <= 32);
        assert_eq!(conc.snapshot().len(), 72);

        // Kill without checkpoint; recovery must replay all 32.
        drop(conc);
        let (recovered, report) = ConcurrentShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 32);
        assert_eq!(recovered.snapshot().len(), 72);
    }

    #[test]
    fn durable_concurrent_checkpoint_truncates_and_reopens() {
        let tmp = TempDir::new("conc_ckpt").unwrap();
        let opts = WalOptions::default().fsync(FsyncPolicy::EveryN(8));
        let conc = ConcurrentShardedIndexSet::create(
            tmp.path(),
            small_set(20),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        for i in 0..10 {
            conc.insert_point(&[2.0 + i as f64, 4.0]).unwrap();
        }
        let lag_before = conc.wal_health().ack_lag();
        conc.sync().unwrap();
        let h = conc.wal_health();
        assert_eq!(
            h.acked_lsn, h.appended_lsn,
            "acked and appended converge after sync (lag was {lag_before})"
        );
        let watermark = conc.checkpoint().unwrap();
        assert_eq!(watermark, 11);
        conc.delete_point(5).unwrap();
        drop(conc);
        let (recovered, report) = ConcurrentShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 1, "only the post-checkpoint delete");
        assert!(!recovered.snapshot().is_live(5));
    }

    #[test]
    fn sharded_durable_concurrent_routes_and_recovers() {
        let tmp = TempDir::new("conc_shard_durable").unwrap();
        let opts = WalOptions::default(); // Always
        let build = || {
            let rows = (0..30)
                .map(|i| vec![1.0 + (i % 9) as f64, 1.0 + (i % 5) as f64])
                .collect();
            set_of(rows, 3, 3)
        };
        let conc = ConcurrentShardedIndexSet::create(
            tmp.path(),
            build(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        let mut twin = build();

        let pinned = conc.snapshot();
        let muts: Vec<Mutation> = (0..6)
            .map(|i| Mutation::Insert {
                row: vec![2.0 + i as f64, 4.0],
            })
            .collect();
        let acks = conc.apply_batch(&muts).unwrap();
        assert_eq!(acks.len(), 6);
        for m in &muts {
            if let Mutation::Insert { row } = m {
                twin.insert_point(row).unwrap();
            }
        }
        conc.delete_point(4).unwrap();
        twin.delete_point(4).unwrap();
        assert_eq!(pinned.len(), 30, "pinned epoch is frozen");
        let h = conc.wal_health();
        assert_eq!(h.appended_lsn, 7);
        assert_eq!(h.acked_lsn, 7, "Always: acked durable across shards");

        let watermark = conc.checkpoint().unwrap();
        assert_eq!(watermark, 8);
        conc.insert_point(&[8.0, 8.0]).unwrap();
        twin.insert_point(&[8.0, 8.0]).unwrap();
        drop(conc);

        let (recovered, report) = ConcurrentShardedIndexSet::<VecStore>::open(
            tmp.path(),
            opts,
            ConcurrencyConfig::default(),
        )
        .unwrap();
        assert_eq!(report.wal_replayed, 1, "only the post-checkpoint insert");
        let snap = recovered.snapshot();
        for b in [8.0, 14.0] {
            assert_eq!(
                snap.query(&probe(b)).unwrap().sorted_ids(),
                twin.query(&probe(b)).unwrap().sorted_ids()
            );
        }
    }
}
