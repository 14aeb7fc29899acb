//! Epoch-based snapshot isolation: **concurrent readers under a single
//! writer**, without reader locks on the query path.
//!
//! Every engine in this crate answers queries through `&self` but mutates
//! through `&mut self` — correct, but reader-excluding: a process serving
//! a mixed read/write workload had to serialize query batches behind every
//! mutation. This module converts the mutation path into an **epoch
//! scheme**:
//!
//! * the published state lives in an [`EpochCell`] as an immutable
//!   `Arc<PlanarIndexSet>` (or `Arc<ShardedIndexSet>`); readers call
//!   [`ConcurrentPlanarIndexSet::snapshot`] — one brief `RwLock` read and
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
//! [`ConcurrentDurablePlanarIndexSet`] composes the epoch scheme with the
//! **group-commit** write-ahead log (`core::wal::GroupCommitQueue`):
//! mutations from any number of threads append to a commit queue, one
//! leader fsyncs for the whole group, and every waiter is acknowledged by
//! that single fsync — collapsing the `FsyncPolicy::Always` latency curve
//! toward `EveryN(64)` while preserving "acknowledged ⇒ durable".
//!
//! ```
//! use planar_core::concurrent::{ConcurrencyConfig, ConcurrentPlanarIndexSet};
//! use planar_core::{Cmp, FeatureTable, IndexConfig, InequalityQuery, ParameterDomain,
//!                   PlanarIndexSet};
//!
//! let table = FeatureTable::from_rows(2, vec![vec![1.0, 1.0], vec![4.0, 2.0]]).unwrap();
//! let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
//! let set: PlanarIndexSet = PlanarIndexSet::build(table, domain, IndexConfig::with_budget(4)).unwrap();
//! let conc = ConcurrentPlanarIndexSet::new(set, ConcurrencyConfig::default());
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

use crate::multi::PlanarIndexSet;
use crate::persist::{RecoveryReport, SaveOptions, ShardedRecoveryReport};
use crate::shard::ShardedIndexSet;
use crate::store::{KeyStore, VecStore};
use crate::table::PointId;
use crate::wal::{
    snapshot_path, sweep_snapshots, validate_batch, validate_row, write_manifest,
    DurablePlanarIndexSet, DurableShardedIndexSet, FsyncPolicy, GroupCommitQueue, GroupCommitStats,
    Lsn, Manifest, Mutation, MutationAck, QuorumGate, WalHealth, WalOptions, WalRecord,
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
    /// ([`ConcurrentPlanarIndexSet::apply_batch`]) always publish at the
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

    /// Record one full clone's cost (called by the wrappers, which know
    /// how to measure their set's heap footprint).
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

/// The index sets an [`EpochWriter`] stages: applied to and replayed
/// through the same record logic WAL recovery uses.
trait EpochSet: Clone {
    /// Apply one validated point mutation.
    fn apply(&mut self, rec: &WalRecord) -> Result<MutationAck>;
    /// Re-apply one logged record, applied first on `shard`.
    fn replay(&mut self, shard: usize, rec: &WalRecord) -> Result<()>;
    /// Heap bytes, charged to the clone ledger.
    fn heap_bytes(&self) -> usize;
    /// Start a fresh quantization observation window.
    fn reset_quant_window(&self);
    /// The quantization policy of each shard (one for an unsharded set).
    fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy>;
}

impl<S: KeyStore + Clone> EpochSet for PlanarIndexSet<S> {
    fn apply(&mut self, rec: &WalRecord) -> Result<MutationAck> {
        apply_planar_record(self, rec)
    }

    fn replay(&mut self, _shard: usize, rec: &WalRecord) -> Result<()> {
        apply_planar_record(self, rec).map(drop)
    }

    fn heap_bytes(&self) -> usize {
        self.memory_usage()
    }

    fn reset_quant_window(&self) {
        PlanarIndexSet::reset_quant_window(self);
    }

    fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy> {
        vec![self.quant_policy()]
    }
}

impl<S: KeyStore + Clone> EpochSet for ShardedIndexSet<S> {
    fn apply(&mut self, rec: &WalRecord) -> Result<MutationAck> {
        apply_sharded_record(self, rec)
    }

    fn replay(&mut self, shard: usize, rec: &WalRecord) -> Result<()> {
        self.replay_record(shard, 0, rec)
    }

    fn heap_bytes(&self) -> usize {
        self.memory_usage()
    }

    fn reset_quant_window(&self) {
        ShardedIndexSet::reset_quant_window(self);
    }

    fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy> {
        ShardedIndexSet::quant_policies(self)
    }
}

/// A logged change to the staged set: the shard it applied to (0 for an
/// unsharded set) and its record.
type Logged = (usize, WalRecord);

/// The single writer's side of an [`EpochCell`]: the staged next epoch,
/// and the record logs that let a displaced epoch be reused instead of
/// cloning the current one on every publish.
#[derive(Debug)]
struct EpochWriter<T> {
    /// The next epoch under construction; `None` until the first change
    /// after a publish.
    staged: Option<T>,
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

impl<T: EpochSet> EpochWriter<T> {
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
    fn stage(&mut self, cell: &EpochCell<T>) -> &mut T {
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
    fn materialize(&mut self, cell: &EpochCell<T>) -> T {
        if let Some(log) = self.log.take() {
            if let Some(mut spare) = cell.take_spare() {
                let start = Instant::now();
                // Reset first: a replayed compaction retunes from the
                // window, which was empty when it first ran.
                spare.reset_quant_window();
                if log
                    .iter()
                    .all(|(shard, rec)| spare.replay(*shard, rec).is_ok())
                {
                    cell.record_replay(log.len(), start.elapsed());
                    return spare;
                }
                debug_assert!(false, "a logged record failed to replay onto the spare");
            }
        }
        let current = cell.load();
        let start = Instant::now();
        let copy = T::clone(&current);
        cell.record_clone(current.heap_bytes(), start.elapsed());
        copy.reset_quant_window();
        copy
    }

    /// Read the latest state: staged if any, else the current epoch.
    fn read<R>(&self, cell: &EpochCell<T>, f: impl FnOnce(&T) -> R) -> R {
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
    fn apply(&mut self, cell: &EpochCell<T>, shard: usize, rec: WalRecord) -> Result<MutationAck> {
        let res = self.stage(cell).apply(&rec);
        match &res {
            Ok(_) => self.record(shard, rec),
            // A failed pre-validated apply may have changed part of the set.
            Err(_) => self.pending = None,
        }
        res
    }

    /// The staged set, for a change the log cannot replay (compaction):
    /// the next publish keeps no spare.
    fn unlogged(&mut self, cell: &EpochCell<T>) -> &mut T {
        self.stage(cell);
        self.pending = None;
        self.staged.as_mut().expect("staged above")
    }

    /// Run a quantization change (policy, retune) on the staged set. It
    /// breaks the log only when it changed a policy: otherwise it reset
    /// no more than the observation window, which a replayed spare
    /// starts empty anyway.
    fn requantize<R>(&mut self, cell: &EpochCell<T>, f: impl FnOnce(&mut T) -> R) -> R {
        let set = self.stage(cell);
        let before = set.quant_policies();
        let out = f(&mut *set);
        if set.quant_policies() != before {
            self.pending = None;
        }
        out
    }

    /// Publish once [`ConcurrencyConfig::publish_every`] mutations are staged.
    fn settle(&mut self, cell: &EpochCell<T>) {
        if self.dirty >= self.publish_every {
            self.publish(cell);
        }
    }

    /// Move the staged set into the cell as the next epoch. The displaced
    /// epoch becomes the spare when the pending log can rebuild it.
    fn publish(&mut self, cell: &EpochCell<T>) -> u64 {
        self.stage(cell);
        let set = self.staged.take().expect("staged above");
        self.log = self.pending.take();
        self.dirty = 0;
        cell.publish_keeping(set, self.log.is_some())
    }

    /// The latest state, consuming writer and cell.
    fn into_latest(self, cell: EpochCell<T>) -> T {
        self.staged.unwrap_or_else(|| {
            let set = cell.into_current();
            set.reset_quant_window();
            set
        })
    }
}

// ---------------------------------------------------------------------------
// Concurrent planar set (in-memory)
// ---------------------------------------------------------------------------

/// A [`PlanarIndexSet`] behind an [`EpochCell`]: lock-free snapshot reads
/// from any number of threads, mutations from any thread serialized by an
/// internal writer mutex. See the module docs for the epoch lifecycle.
#[derive(Debug)]
pub struct ConcurrentPlanarIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<PlanarIndexSet<S>>,
    writer: Mutex<EpochWriter<PlanarIndexSet<S>>>,
}

impl<S: KeyStore + Clone> ConcurrentPlanarIndexSet<S> {
    /// Wrap `set` for concurrent serving.
    pub fn new(set: PlanarIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(EpochWriter::new(cfg)),
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, EpochWriter<PlanarIndexSet<S>>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch for reading. Queries on the snapshot are the
    /// plain [`PlanarIndexSet`] API (`query`, `query_batch`, `top_k_batch`,
    /// …) and run with no synchronization whatsoever.
    pub fn snapshot(&self) -> Snapshot<PlanarIndexSet<S>> {
        self.cell.load()
    }

    /// Serialized insert; publishes per [`ConcurrencyConfig::publish_every`].
    ///
    /// # Errors
    ///
    /// See [`PlanarIndexSet::insert_point`].
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let mut w = self.lock_writer();
        let id = w.stage(&self.cell).insert_point(row)?;
        w.record(
            0,
            WalRecord::Insert {
                id,
                row: row.to_vec(),
            },
        );
        w.settle(&self.cell);
        Ok(id)
    }

    /// Serialized update. See [`PlanarIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// See [`PlanarIndexSet::update_point`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        let mut w = self.lock_writer();
        w.stage(&self.cell).update_point(id, row)?;
        w.record(
            0,
            WalRecord::Update {
                id,
                row: row.to_vec(),
            },
        );
        w.settle(&self.cell);
        Ok(())
    }

    /// Serialized delete. See [`PlanarIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// See [`PlanarIndexSet::delete_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        let mut w = self.lock_writer();
        w.stage(&self.cell).delete_point(id)?;
        w.record(0, WalRecord::Delete { id });
        w.settle(&self.cell);
        Ok(())
    }

    /// Apply a whole mutation batch under one writer-lock acquisition and
    /// publish exactly one epoch at the end, so readers observe the batch
    /// atomically. Returns per-mutation acks in batch order.
    ///
    /// # Errors
    ///
    /// Validation errors before anything is applied (the batch is
    /// all-or-nothing against the staged set).
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        let mut w = self.lock_writer();
        let records = w.read(&self.cell, |set| {
            let next_id = set.table().len() as PointId;
            validate_batch(set.dim(), next_id, |id| set.is_live(id), muts)
        })?;
        let mut acks = Vec::with_capacity(records.len());
        for rec in records {
            acks.push(w.apply(&self.cell, 0, rec)?);
        }
        if !acks.is_empty() {
            w.publish(&self.cell);
        }
        Ok(acks)
    }

    /// Serialized compaction (renumbers ids — see
    /// [`PlanarIndexSet::compact`]); always publishes.
    pub fn compact(&self) -> Vec<Option<PointId>> {
        let mut w = self.lock_writer();
        let set = w.unlogged(&self.cell);
        // Reader observations land on the published epoch's tuner; fold
        // them in so compact's internal retune sees the workload.
        set.adopt_quant_window(&self.snapshot());
        let remap = set.compact();
        w.publish(&self.cell);
        remap
    }

    /// The quantization policy active on the latest writer state (the
    /// next publish carries it to readers).
    pub fn quant_policy(&self) -> crate::quant::QuantPolicy {
        self.lock_writer()
            .read(&self.cell, PlanarIndexSet::quant_policy)
    }

    /// Install a quantization policy (see
    /// [`PlanarIndexSet::set_quant_policy`]); always publishes so readers
    /// get the re-encoded mirror immediately.
    pub fn set_quant_policy(&self, policy: crate::quant::QuantPolicy) {
        let mut w = self.lock_writer();
        w.requantize(&self.cell, |set| set.set_quant_policy(policy));
        w.publish(&self.cell);
    }

    /// Fold reader observations into the staged tuner, retune (see
    /// [`crate::quant::retune`]), and publish the chosen policy.
    pub fn retune_quantization(
        &self,
        cfg: &crate::quant::QuantAutotuneConfig,
    ) -> crate::quant::QuantPolicy {
        let mut w = self.lock_writer();
        let policy = w.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(cfg)
        });
        w.publish(&self.cell);
        policy
    }

    /// Publish the staged state now, regardless of the dirty counter.
    /// Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.lock_writer().publish(&self.cell)
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
}

fn apply_planar_record<S: KeyStore + Clone>(
    set: &mut PlanarIndexSet<S>,
    rec: &WalRecord,
) -> Result<MutationAck> {
    match rec {
        WalRecord::Insert { id, row } => {
            let got = set.insert_point(row).map_err(internal_apply)?;
            if got != *id {
                return Err(PlanarError::Internal(format!(
                    "staged insert assigned id {got}, batch validation predicted {id}"
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
            "only point mutations are batch-applied".into(),
        )),
    }
}

fn internal_apply(e: PlanarError) -> PlanarError {
    PlanarError::Internal(format!(
        "pre-validated mutation failed to apply to the staged copy: {e}"
    ))
}

// ---------------------------------------------------------------------------
// Concurrent sharded set (in-memory)
// ---------------------------------------------------------------------------

/// A [`ShardedIndexSet`] behind an [`EpochCell`]: the sharded counterpart
/// of [`ConcurrentPlanarIndexSet`] (same epoch lifecycle, same publish
/// cadence; snapshots answer through the shard-aware
/// `query_batch`/`top_k_batch` fan-out).
#[derive(Debug)]
pub struct ConcurrentShardedIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<ShardedIndexSet<S>>,
    writer: Mutex<EpochWriter<ShardedIndexSet<S>>>,
}

impl<S: KeyStore + Clone> ConcurrentShardedIndexSet<S> {
    /// Wrap `set` for concurrent serving.
    pub fn new(set: ShardedIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(EpochWriter::new(cfg)),
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, EpochWriter<ShardedIndexSet<S>>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch for reading.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<S>> {
        self.cell.load()
    }

    /// Serialized insert routed by the partitioner. See
    /// [`ShardedIndexSet::insert_point`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::insert_point`].
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let mut w = self.lock_writer();
        let set = w.stage(&self.cell);
        let id = set.insert_point(row)?;
        let shard = set.shard_of(id).expect("a fresh insert is live");
        w.record(
            shard,
            WalRecord::Insert {
                id,
                row: row.to_vec(),
            },
        );
        w.settle(&self.cell);
        Ok(id)
    }

    /// Serialized update. See [`ShardedIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::update_point`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        let mut w = self.lock_writer();
        w.stage(&self.cell).update_point(id, row)?;
        // Replayed updates and deletes find their shard by id.
        w.record(
            0,
            WalRecord::Update {
                id,
                row: row.to_vec(),
            },
        );
        w.settle(&self.cell);
        Ok(())
    }

    /// Serialized delete. See [`ShardedIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::delete_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        let mut w = self.lock_writer();
        w.stage(&self.cell).delete_point(id)?;
        w.record(0, WalRecord::Delete { id });
        w.settle(&self.cell);
        Ok(())
    }

    /// Serialized threshold-gated compaction; always publishes. See
    /// [`ShardedIndexSet::compact`].
    pub fn compact(&self, threshold: f64) -> Vec<usize> {
        let mut w = self.lock_writer();
        let set = w.unlogged(&self.cell);
        // Fold reader observations in so each compacted shard's internal
        // retune sees the workload (see the planar wrapper's `compact`).
        set.adopt_quant_window(&self.snapshot());
        let compacted = set.compact(threshold);
        w.publish(&self.cell);
        compacted
    }

    /// Per-shard quantization policies on the latest writer state.
    pub fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy> {
        self.lock_writer()
            .read(&self.cell, ShardedIndexSet::quant_policies)
    }

    /// Install one quantization policy on every shard; always publishes.
    pub fn set_quant_policy(&self, policy: crate::quant::QuantPolicy) {
        let mut w = self.lock_writer();
        w.requantize(&self.cell, |set| set.set_quant_policy(policy));
        w.publish(&self.cell);
    }

    /// Fold reader observations into each shard's tuner, retune every
    /// shard, and publish. Returns the policy now active per shard.
    pub fn retune_quantization(
        &self,
        cfg: &crate::quant::QuantAutotuneConfig,
    ) -> Vec<crate::quant::QuantPolicy> {
        let mut w = self.lock_writer();
        let policies = w.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(cfg)
        });
        w.publish(&self.cell);
        policies
    }

    /// Publish the staged state now. Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.lock_writer().publish(&self.cell)
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }

    /// Epoch bookkeeping.
    pub fn epoch_stats(&self) -> EpochStats {
        self.cell.stats()
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
            if let Err(e) = w.stage(&self.cell).replay_record(*shard, *lsn, rec) {
                w.pending = None;
                return Err(e);
            }
            w.record(*shard, rec.clone());
        }
        w.publish(&self.cell);
        Ok(())
    }

    /// Consume the wrapper, returning the latest (staged, else published)
    /// set — the failover-promotion handoff.
    pub fn into_staged(self) -> ShardedIndexSet<S> {
        let writer = self.writer.into_inner().unwrap_or_else(|e| e.into_inner());
        writer.into_latest(self.cell)
    }
}

// ---------------------------------------------------------------------------
// Durable wrappers: epochs + group commit
// ---------------------------------------------------------------------------

/// The writer state of a durable wrapper: the epoch writer plus the WAL
/// position and checkpoint generation it advances under the same lock.
#[derive(Debug)]
struct DurableWriter<T> {
    epochs: EpochWriter<T>,
    next_lsn: Lsn,
    generation: u64,
}

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

/// Epoch snapshot reads **plus** group-commit durability: the concurrent
/// counterpart of [`DurablePlanarIndexSet`]. Mutations may be issued from
/// any number of threads through `&self`; each one is write-ahead logged
/// into a commit queue, applied to the staged set in LSN order, and —
/// under [`FsyncPolicy::Always`] — acknowledged only once a commit-group
/// leader's fsync covers its LSN. Concurrent mutators therefore share
/// fsyncs instead of paying one each, and concurrent readers never block:
/// they run against pinned epoch snapshots throughout.
#[derive(Debug)]
pub struct ConcurrentDurablePlanarIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<PlanarIndexSet<S>>,
    writer: Mutex<DurableWriter<PlanarIndexSet<S>>>,
    queue: GroupCommitQueue,
    dir: PathBuf,
    fsync: FsyncPolicy,
    save_opts: SaveOptions,
}

impl<S: KeyStore + Clone> ConcurrentDurablePlanarIndexSet<S> {
    /// Initialize `dir` as a durable home for `set` and wrap it for
    /// concurrent serving. See [`DurablePlanarIndexSet::create`].
    ///
    /// # Errors
    ///
    /// See [`DurablePlanarIndexSet::create`].
    pub fn create(
        dir: impl AsRef<Path>,
        set: PlanarIndexSet<S>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<Self> {
        DurablePlanarIndexSet::create(dir, set, opts).map(|d| Self::from_durable(d, cfg))
    }

    /// Open a durable directory (recovering as
    /// [`PlanarIndexSet::open_durable`] does) and wrap it for concurrent
    /// serving.
    ///
    /// # Errors
    ///
    /// See [`PlanarIndexSet::open_durable`].
    pub fn open(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let (durable, report) = PlanarIndexSet::<S>::open_durable(dir, opts)?;
        Ok((Self::from_durable(durable, cfg), report))
    }

    /// Re-wrap a single-writer durable set for concurrent serving: the
    /// WAL writer moves into a group-commit queue and the set into an
    /// epoch cell.
    pub fn from_durable(durable: DurablePlanarIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        let (set, wal, dir, generation, next_lsn, save_opts) = durable.into_parts();
        let fsync = wal.options().fsync;
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(DurableWriter {
                epochs: EpochWriter::new(cfg),
                next_lsn,
                generation,
            }),
            queue: GroupCommitQueue::new(wal),
            dir,
            fsync,
            save_opts,
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, DurableWriter<PlanarIndexSet<S>>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch for reading.
    pub fn snapshot(&self) -> Snapshot<PlanarIndexSet<S>> {
        self.cell.load()
    }

    /// Log `rec` at the next LSN, apply it to the staged set and publish
    /// when due. Returns the LSN to acknowledge and the apply's ack.
    fn log_and_apply(
        &self,
        w: &mut DurableWriter<PlanarIndexSet<S>>,
        rec: WalRecord,
    ) -> Result<(Lsn, MutationAck)> {
        let lsn = w.next_lsn;
        self.queue.enqueue(lsn, rec.clone())?;
        w.next_lsn = lsn + 1;
        let ack = w.epochs.apply(&self.cell, 0, rec)?;
        w.epochs.settle(&self.cell);
        Ok((lsn, ack))
    }

    /// Group-committed insert. See [`PlanarIndexSet::insert_point`];
    /// under `Always` the returned id is durable.
    ///
    /// # Errors
    ///
    /// Validation errors before logging, [`PlanarError::Persist`] if the
    /// commit group's append/fsync failed (the mutation is *not*
    /// acknowledged).
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let (lsn, ack) = {
            let mut w = self.lock_writer();
            let id = w.epochs.read(&self.cell, |set| {
                validate_row(set.dim(), row).map(|()| set.table().len() as PointId)
            })?;
            let rec = WalRecord::Insert {
                id,
                row: row.to_vec(),
            };
            self.log_and_apply(&mut w, rec)?
        };
        ack_lsn(&self.queue, self.fsync, lsn)?;
        match ack {
            MutationAck::Inserted(id) => Ok(id),
            _ => unreachable!("insert acks as Inserted"),
        }
    }

    /// Group-committed update. See [`PlanarIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// As [`Self::insert_point`], plus [`PlanarError::PointNotFound`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        let lsn = {
            let mut w = self.lock_writer();
            w.epochs.read(&self.cell, |set| {
                validate_row(set.dim(), row)?;
                if set.is_live(id) {
                    Ok(())
                } else {
                    Err(PlanarError::PointNotFound(id))
                }
            })?;
            let rec = WalRecord::Update {
                id,
                row: row.to_vec(),
            };
            self.log_and_apply(&mut w, rec)?.0
        };
        ack_lsn(&self.queue, self.fsync, lsn)
    }

    /// Group-committed delete. See [`PlanarIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// As [`Self::update_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        let lsn = {
            let mut w = self.lock_writer();
            if !w.epochs.read(&self.cell, |set| set.is_live(id)) {
                return Err(PlanarError::PointNotFound(id));
            }
            self.log_and_apply(&mut w, WalRecord::Delete { id })?.0
        };
        ack_lsn(&self.queue, self.fsync, lsn)
    }

    /// Group-committed mutation batch: the whole batch is validated up
    /// front, logged contiguously, applied, published as **one** epoch,
    /// and acknowledged by a single fsync (under `Always`). This is the
    /// highest-throughput durable write path.
    ///
    /// # Errors
    ///
    /// As [`DurablePlanarIndexSet::apply_batch`].
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        if muts.is_empty() {
            return Ok(Vec::new());
        }
        let (last_lsn, acks) = {
            let mut w = self.lock_writer();
            let records = w.epochs.read(&self.cell, |set| {
                let next_id = set.table().len() as PointId;
                validate_batch(set.dim(), next_id, |id| set.is_live(id), muts)
            })?;
            let first_lsn = w.next_lsn;
            for (i, rec) in records.iter().enumerate() {
                self.queue.enqueue(first_lsn + i as Lsn, rec.clone())?;
            }
            w.next_lsn = first_lsn + records.len() as Lsn;
            let mut acks = Vec::with_capacity(records.len());
            for rec in records {
                acks.push(w.epochs.apply(&self.cell, 0, rec)?);
            }
            w.epochs.publish(&self.cell);
            (w.next_lsn - 1, acks)
        };
        ack_lsn(&self.queue, self.fsync, last_lsn)?;
        Ok(acks)
    }

    /// Force everything queued to stable storage now, regardless of the
    /// fsync policy. Afterwards `wal_health()` shows
    /// `acked_lsn == appended_lsn`.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn sync(&self) -> Result<()> {
        self.queue.flush(true)
    }

    /// Checkpoint-then-truncate (see
    /// [`DurablePlanarIndexSet::checkpoint`]). Takes the writer lock, so
    /// mutations block for the duration; readers keep serving from their
    /// pinned epochs throughout.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let mut w = self.lock_writer();
        let watermark = w.next_lsn;
        self.queue
            .enqueue(watermark, WalRecord::Checkpoint { watermark })?;
        w.next_lsn = watermark + 1;
        self.queue.flush(true)?;
        // Checkpoint cadence doubles as the autotuner's retune point;
        // adopt reader observations from the published epoch first, and
        // the snapshot below then carries the freshly chosen tier. The
        // policy is derived state, so it needs no WAL record: replay
        // without it yields identical answers, just unfiltered.
        let generation = w.generation + 1;
        w.epochs.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(&crate::quant::QuantAutotuneConfig::default());
        });
        w.epochs.stage(&self.cell).save_to_with(
            snapshot_path(&self.dir, generation),
            &mut crate::fault::StdIo,
            &self.save_opts,
        )?;
        write_manifest(
            &self.dir,
            Manifest {
                generation,
                watermark,
                term: self.queue.term(),
            },
        )?;
        w.generation = generation;
        self.queue
            .with_writer(|wal| wal.truncate_all(watermark + 1))?;
        sweep_snapshots(&self.dir, generation);
        Ok(watermark)
    }

    /// Install a quantization policy; always publishes. Derived state —
    /// not WAL-logged, so a crash before the next checkpoint recovers
    /// with the tier from the last snapshot (answers are identical under
    /// any tier by contract).
    pub fn set_quant_policy(&self, policy: crate::quant::QuantPolicy) {
        let mut w = self.lock_writer();
        w.epochs
            .requantize(&self.cell, |set| set.set_quant_policy(policy));
        w.epochs.publish(&self.cell);
    }

    /// The quantization policy active on the latest writer state.
    pub fn quant_policy(&self) -> crate::quant::QuantPolicy {
        self.lock_writer()
            .epochs
            .read(&self.cell, PlanarIndexSet::quant_policy)
    }

    /// Publish the staged state now. Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.lock_writer().epochs.publish(&self.cell)
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }

    /// Epoch bookkeeping.
    pub fn epoch_stats(&self) -> EpochStats {
        self.cell.stats()
    }

    /// WAL health including the group-commit watermarks
    /// (`acked_lsn`/`appended_lsn`).
    pub fn wal_health(&self) -> WalHealth {
        self.queue.health()
    }

    /// Group-commit amortization counters (fsyncs, records per fsync).
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.queue.stats()
    }

    /// Data fsyncs issued by the underlying WAL writer since opening.
    pub fn fsync_count(&self) -> u64 {
        self.queue.fsync_count()
    }

    /// Recover the group-commit queue from a fail-stop append/fsync
    /// error: revalidate the log tail on disk, re-append any applied-but-
    /// undurable records the failed drain parked, and resume accepting
    /// mutations. Acks issued before the error still hold — they were
    /// covered by an fsync at ack time and reopen never truncates below
    /// the synced watermark. No-op on a healthy queue.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if the tail repair itself fails (the
    /// queue stays fail-stopped and can be reopened again).
    pub fn reopen_wal(&self) -> Result<WalHealth> {
        self.queue.reopen()
    }
}

// ---------------------------------------------------------------------------
// Concurrent durable sharded set: epochs + per-shard group commit
// ---------------------------------------------------------------------------

/// The sharded counterpart of [`ConcurrentDurablePlanarIndexSet`]: epoch
/// snapshot reads over a [`ShardedIndexSet`] with **one group-commit
/// queue per shard WAL**. Mutations routed to different shards commit
/// through independent queues (independent fsync leaders); mutations
/// hitting the same shard share commit groups. The global LSN order is
/// still assigned under one writer mutex, so recovery's cross-shard
/// replay order is exactly the acknowledged order.
#[derive(Debug)]
pub struct ConcurrentDurableShardedIndexSet<S: KeyStore + Clone = VecStore> {
    cell: EpochCell<ShardedIndexSet<S>>,
    writer: Mutex<DurableWriter<ShardedIndexSet<S>>>,
    queues: Vec<GroupCommitQueue>,
    dir: PathBuf,
    fsync: FsyncPolicy,
    save_opts: SaveOptions,
}

impl<S: KeyStore + Clone> ConcurrentDurableShardedIndexSet<S> {
    /// Initialize `dir` as a durable home for `set` and wrap it for
    /// concurrent serving. See [`DurableShardedIndexSet::create`].
    ///
    /// # Errors
    ///
    /// See [`DurableShardedIndexSet::create`].
    pub fn create(
        dir: impl AsRef<Path>,
        set: ShardedIndexSet<S>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<Self> {
        DurableShardedIndexSet::create(dir, set, opts).map(|d| Self::from_durable(d, cfg))
    }

    /// Open a durable sharded directory (recovering as
    /// [`ShardedIndexSet::open_durable`] does) and wrap it for concurrent
    /// serving.
    ///
    /// # Errors
    ///
    /// See [`ShardedIndexSet::open_durable`].
    pub fn open(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        cfg: ConcurrencyConfig,
    ) -> Result<(Self, ShardedRecoveryReport)> {
        let (durable, report) = ShardedIndexSet::<S>::open_durable(dir, opts)?;
        Ok((Self::from_durable(durable, cfg), report))
    }

    /// Re-wrap a single-writer durable sharded set for concurrent
    /// serving: each shard's WAL writer moves into its own group-commit
    /// queue.
    pub fn from_durable(durable: DurableShardedIndexSet<S>, cfg: ConcurrencyConfig) -> Self {
        let (set, wals, dir, generation, next_lsn, save_opts) = durable.into_parts();
        let fsync = wals
            .first()
            .map(|w| w.options().fsync)
            .unwrap_or(FsyncPolicy::Always);
        let queues = wals.into_iter().map(GroupCommitQueue::new).collect();
        Self {
            cell: EpochCell::new(set),
            writer: Mutex::new(DurableWriter {
                epochs: EpochWriter::new(cfg),
                next_lsn,
                generation,
            }),
            queues,
            dir,
            fsync,
            save_opts,
        }
    }

    fn lock_writer(&self) -> MutexGuard<'_, DurableWriter<ShardedIndexSet<S>>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the current epoch for reading.
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<S>> {
        self.cell.load()
    }

    /// Install a replication [`QuorumGate`] on every shard's commit
    /// queue: `FsyncPolicy::Always` acknowledgements are then released
    /// only once the gate confirms the covering LSN (or fail typed with
    /// [`crate::PlanarError::QuorumTimeout`]). Installed by
    /// [`crate::replicate::Primary::set_ack_policy`]; the same gate
    /// instance must be the one the primary publishes replica
    /// confirmations into.
    pub fn install_quorum_gate(&self, gate: QuorumGate) {
        for q in &self.queues {
            q.set_gate(Some(gate.clone()));
        }
    }

    /// Remove any installed quorum gate: acknowledgements revert to
    /// local-durability-only.
    pub fn clear_quorum_gate(&self) {
        for q in &self.queues {
            q.set_gate(None);
        }
    }

    /// Acknowledge `lsn` on shard `shard` per the fsync policy.
    fn ack(&self, shard: usize, lsn: Lsn) -> Result<()> {
        ack_lsn(&self.queues[shard], self.fsync, lsn)
    }

    /// Log `rec` at the next LSN on `shard`'s queue, apply it to the
    /// staged set and publish when due. Returns the LSN and the ack.
    fn log_and_apply(
        &self,
        w: &mut DurableWriter<ShardedIndexSet<S>>,
        shard: usize,
        rec: WalRecord,
    ) -> Result<(Lsn, MutationAck)> {
        let lsn = w.next_lsn;
        self.queues[shard].enqueue(lsn, rec.clone())?;
        w.next_lsn = lsn + 1;
        let ack = w.epochs.apply(&self.cell, shard, rec)?;
        w.epochs.settle(&self.cell);
        Ok((lsn, ack))
    }

    /// Group-committed insert routed by the partitioner. See
    /// [`DurableShardedIndexSet::insert_point`].
    ///
    /// # Errors
    ///
    /// As [`DurableShardedIndexSet::insert_point`] (a commit-group
    /// append/fsync failure is *not* acknowledged).
    pub fn insert_point(&self, row: &[f64]) -> Result<PointId> {
        let (shard, lsn, ack) = {
            let mut w = self.lock_writer();
            let (id, shard) = w.epochs.read(&self.cell, |set| {
                validate_row(set.dim(), row)?;
                let id = set.next_global();
                Ok::<_, PlanarError>((id, set.partitioner().route(id, row)))
            })?;
            let rec = WalRecord::Insert {
                id,
                row: row.to_vec(),
            };
            let (lsn, ack) = self.log_and_apply(&mut w, shard, rec)?;
            (shard, lsn, ack)
        };
        self.ack(shard, lsn)?;
        match ack {
            MutationAck::Inserted(id) => Ok(id),
            _ => unreachable!("insert acks as Inserted"),
        }
    }

    /// Group-committed update on the point's shard. See
    /// [`DurableShardedIndexSet::update_point`].
    ///
    /// # Errors
    ///
    /// As [`DurableShardedIndexSet::update_point`].
    pub fn update_point(&self, id: PointId, row: &[f64]) -> Result<()> {
        let (shard, lsn) = {
            let mut w = self.lock_writer();
            let shard = w.epochs.read(&self.cell, |set| {
                validate_row(set.dim(), row)?;
                set.shard_of(id).ok_or(PlanarError::PointNotFound(id))
            })?;
            let rec = WalRecord::Update {
                id,
                row: row.to_vec(),
            };
            (shard, self.log_and_apply(&mut w, shard, rec)?.0)
        };
        self.ack(shard, lsn)
    }

    /// Group-committed delete on the point's shard. See
    /// [`DurableShardedIndexSet::delete_point`].
    ///
    /// # Errors
    ///
    /// As [`DurableShardedIndexSet::delete_point`].
    pub fn delete_point(&self, id: PointId) -> Result<()> {
        let (shard, lsn) = {
            let mut w = self.lock_writer();
            let shard = w
                .epochs
                .read(&self.cell, |set| set.shard_of(id))
                .ok_or(PlanarError::PointNotFound(id))?;
            let rec = WalRecord::Delete { id };
            (shard, self.log_and_apply(&mut w, shard, rec)?.0)
        };
        self.ack(shard, lsn)
    }

    /// Group-committed mutation batch routed across shards: validated up
    /// front, logged contiguously in global LSN order, applied, published
    /// as one epoch, then acknowledged with at most one fsync **per
    /// touched shard**.
    ///
    /// # Errors
    ///
    /// As [`DurableShardedIndexSet::apply_batch`].
    pub fn apply_batch(&self, muts: &[Mutation]) -> Result<Vec<MutationAck>> {
        if muts.is_empty() {
            return Ok(Vec::new());
        }
        let (acks, touched) = {
            let mut w = self.lock_writer();
            let routed = w.epochs.read(&self.cell, |set| route_batch(set, muts))?;
            let first_lsn = w.next_lsn;
            let mut touched: Vec<Option<Lsn>> = vec![None; self.queues.len()];
            for (i, (shard, rec)) in routed.iter().enumerate() {
                let lsn = first_lsn + i as Lsn;
                self.queues[*shard].enqueue(lsn, rec.clone())?;
                touched[*shard] = Some(lsn);
            }
            w.next_lsn = first_lsn + routed.len() as Lsn;
            let mut acks = Vec::with_capacity(routed.len());
            for (shard, rec) in routed {
                acks.push(w.epochs.apply(&self.cell, shard, rec)?);
            }
            w.epochs.publish(&self.cell);
            (acks, touched)
        };
        for (shard, last) in touched.iter().enumerate() {
            if let Some(lsn) = last {
                self.ack(shard, *lsn)?;
            }
        }
        Ok(acks)
    }

    /// Log-then-compact under group commit: the marker is broadcast to
    /// **every** shard's queue at one shared LSN, then each shard
    /// compacts (see [`DurableShardedIndexSet::compact`]). Readers keep
    /// serving pinned epochs; the compacted state publishes immediately.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn compact(&self, threshold: f64) -> Result<Vec<usize>> {
        let (reclaimed, lsn) = {
            let mut w = self.lock_writer();
            let lsn = w.next_lsn;
            let rec = WalRecord::Compact {
                threshold: Some(threshold),
            };
            for queue in &self.queues {
                queue.enqueue(lsn, rec.clone())?;
            }
            w.next_lsn = lsn + 1;
            let set = w.epochs.unlogged(&self.cell);
            // Fold reader observations in so each compacted shard's
            // internal retune sees the workload.
            set.adopt_quant_window(&self.snapshot());
            let reclaimed = set.compact(threshold);
            w.epochs.publish(&self.cell);
            (reclaimed, lsn)
        };
        for shard in 0..self.queues.len() {
            self.ack(shard, lsn)?;
        }
        Ok(reclaimed)
    }

    /// Force every shard's queue to stable storage now.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on append/fsync failure.
    pub fn sync(&self) -> Result<()> {
        for queue in &self.queues {
            queue.flush(true)?;
        }
        Ok(())
    }

    /// Checkpoint-then-truncate across every shard (see
    /// [`DurableShardedIndexSet::checkpoint`]). Mutations block for the
    /// duration; readers keep serving from pinned epochs.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] on I/O failure.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let mut w = self.lock_writer();
        let watermark = w.next_lsn;
        for queue in &self.queues {
            queue.enqueue(watermark, WalRecord::Checkpoint { watermark })?;
            queue.flush(true)?;
        }
        w.next_lsn = watermark + 1;
        // Retune each shard's quantization tier at checkpoint cadence —
        // see the durable planar twin above for why no WAL record exists.
        let generation = w.generation + 1;
        w.epochs.requantize(&self.cell, |set| {
            set.adopt_quant_window(&self.snapshot());
            set.retune_quantization(&crate::quant::QuantAutotuneConfig::default());
        });
        w.epochs.stage(&self.cell).save_to_with(
            snapshot_path(&self.dir, generation),
            &mut crate::fault::StdIo,
            &self.save_opts,
        )?;
        write_manifest(
            &self.dir,
            Manifest {
                generation,
                watermark,
                term: self.term(),
            },
        )?;
        w.generation = generation;
        for queue in &self.queues {
            queue.with_writer(|wal| wal.truncate_all(watermark + 1))?;
        }
        sweep_snapshots(&self.dir, generation);
        Ok(watermark)
    }

    /// Install one quantization policy on every shard; always publishes.
    /// Derived state — not WAL-logged (see the durable planar twin).
    pub fn set_quant_policy(&self, policy: crate::quant::QuantPolicy) {
        let mut w = self.lock_writer();
        w.epochs
            .requantize(&self.cell, |set| set.set_quant_policy(policy));
        w.epochs.publish(&self.cell);
    }

    /// Per-shard quantization policies on the latest writer state.
    pub fn quant_policies(&self) -> Vec<crate::quant::QuantPolicy> {
        self.lock_writer()
            .epochs
            .read(&self.cell, ShardedIndexSet::quant_policies)
    }

    /// Publish the staged state now. Returns the published epoch.
    pub fn publish(&self) -> u64 {
        self.lock_writer().epochs.publish(&self.cell)
    }

    /// Sweep retired epochs whose grace period ended.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }

    /// Epoch bookkeeping.
    pub fn epoch_stats(&self) -> EpochStats {
        self.cell.stats()
    }

    /// Aggregate WAL health across every shard's queue (the merge keeps
    /// the most conservative `acked_lsn`).
    pub fn wal_health(&self) -> WalHealth {
        let mut h = WalHealth::default();
        for queue in &self.queues {
            h.merge(&queue.health());
        }
        h
    }

    /// Group-commit counters summed across shards.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        let mut total = GroupCommitStats::default();
        for queue in &self.queues {
            let s = queue.stats();
            total.fsyncs += s.fsyncs;
            total.committed_records += s.committed_records;
            total.max_group = total.max_group.max(s.max_group);
        }
        total
    }

    /// Data fsyncs summed across every shard's WAL writer.
    pub fn fsync_count(&self) -> u64 {
        self.queues.iter().map(GroupCommitQueue::fsync_count).sum()
    }

    /// Recover every shard's group-commit queue from a fail-stop error
    /// (see [`ConcurrentDurablePlanarIndexSet::reopen_wal`]). Healthy
    /// queues are untouched; the merged health keeps the most
    /// conservative acked watermark.
    ///
    /// # Errors
    ///
    /// [`PlanarError::Persist`] if any shard's tail repair fails.
    pub fn reopen_wal(&self) -> Result<WalHealth> {
        let mut h = WalHealth::default();
        for queue in &self.queues {
            h.merge(&queue.reopen()?);
        }
        Ok(h)
    }

    /// The durable directory this set checkpoints into.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard WALs (= shard count).
    pub(crate) fn num_queues(&self) -> usize {
        self.queues.len()
    }

    /// Highest replication term across the shard WAL writers.
    pub(crate) fn term(&self) -> u64 {
        self.queues
            .iter()
            .map(GroupCommitQueue::term)
            .max()
            .unwrap_or(0)
    }
}

/// Validate a batch and route each mutation to its shard: inserts by the
/// partitioner, updates and deletes by the owning shard (points born
/// earlier in the batch route to their recorded shard, killed points are
/// gone).
fn route_batch<S: KeyStore + Clone>(
    set: &ShardedIndexSet<S>,
    muts: &[Mutation],
) -> Result<Vec<(usize, WalRecord)>> {
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

fn apply_sharded_record<S: KeyStore + Clone>(
    set: &mut ShardedIndexSet<S>,
    rec: &WalRecord,
) -> Result<MutationAck> {
    match rec {
        WalRecord::Insert { id, row } => {
            let got = set.insert_point(row).map_err(internal_apply)?;
            if got != *id {
                return Err(PlanarError::Internal(format!(
                    "staged insert assigned global id {got}, batch routing predicted {id}"
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
            "only point mutations are batch-applied".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ParameterDomain;
    use crate::fault::TempDir;
    use crate::multi::IndexConfig;
    use crate::query::{Cmp, InequalityQuery};
    use crate::table::FeatureTable;
    use crate::VecStore;

    fn small_set(n: usize) -> PlanarIndexSet<VecStore> {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0 + (i % 13) as f64, 1.0 + (i % 7) as f64])
            .collect();
        let table = FeatureTable::from_rows(2, rows).unwrap();
        let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
        PlanarIndexSet::build(table, domain, IndexConfig::with_budget(4)).unwrap()
    }

    fn probe(b: f64) -> InequalityQuery {
        InequalityQuery::new(vec![1.0, 1.5], Cmp::Leq, b).unwrap()
    }

    #[test]
    fn snapshots_pin_epochs_and_reclaim_after_grace() {
        let conc = ConcurrentPlanarIndexSet::new(small_set(40), ConcurrencyConfig::default());
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
        let conc = ConcurrentPlanarIndexSet::new(small_set(40), ConcurrencyConfig::default());
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
        let conc =
            ConcurrentDurablePlanarIndexSet::create(tmp.path(), small_set(20), opts, cfg).unwrap();
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
        let conc = ConcurrentPlanarIndexSet::new(small_set(30), ConcurrencyConfig::default());
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
        let conc = ConcurrentPlanarIndexSet::new(small_set(10), ConcurrencyConfig::default());
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
        let conc = ConcurrentPlanarIndexSet::new(small_set(10), cfg);
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
        use crate::shard::{ShardConfig, ShardedIndexSet};
        let build = || {
            let rows: Vec<Vec<f64>> = (0..60)
                .map(|i| vec![1.0 + (i % 11) as f64, 1.0 + (i % 6) as f64])
                .collect();
            let table = FeatureTable::from_rows(2, rows).unwrap();
            let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
            ShardedIndexSet::<VecStore>::build(
                table,
                domain,
                IndexConfig::with_budget(3),
                ShardConfig::round_robin(3),
            )
            .unwrap()
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
        let conc = std::sync::Arc::new(ConcurrentPlanarIndexSet::new(
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
    fn durable_concurrent_group_commit_roundtrip() {
        let tmp = TempDir::new("conc_durable").unwrap();
        let opts = WalOptions::default(); // Always: every ack durable
        let conc = std::sync::Arc::new(
            ConcurrentDurablePlanarIndexSet::create(
                tmp.path(),
                small_set(40),
                opts,
                ConcurrencyConfig::default(),
            )
            .unwrap(),
        );
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
        let (recovered, report) = ConcurrentDurablePlanarIndexSet::<VecStore>::open(
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
        let conc = ConcurrentDurablePlanarIndexSet::create(
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
        let (recovered, report) = ConcurrentDurablePlanarIndexSet::<VecStore>::open(
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
        use crate::shard::{ShardConfig, ShardedIndexSet};
        let tmp = TempDir::new("conc_shard_durable").unwrap();
        let opts = WalOptions::default(); // Always
        let build = || {
            let rows: Vec<Vec<f64>> = (0..30)
                .map(|i| vec![1.0 + (i % 9) as f64, 1.0 + (i % 5) as f64])
                .collect();
            let table = FeatureTable::from_rows(2, rows).unwrap();
            let domain = ParameterDomain::uniform_continuous(2, 0.5, 2.0).unwrap();
            ShardedIndexSet::<VecStore>::build(
                table,
                domain,
                IndexConfig::with_budget(3),
                ShardConfig::round_robin(3),
            )
            .unwrap()
        };
        let conc = ConcurrentDurableShardedIndexSet::create(
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

        let (recovered, report) = ConcurrentDurableShardedIndexSet::<VecStore>::open(
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
