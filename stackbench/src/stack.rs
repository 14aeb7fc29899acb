//! The stack under test: a `planar_serve::Client` over loopback into
//! `Server::start`, into a 4-shard concurrent engine (durable for the
//! read-write workload). Defaults everywhere: `ServeConfig::default()`,
//! serial `ExecutionConfig`, quantization off, `WalOptions::default()`.

use crate::plan::{Op, Spec, DIM, SHARDS};
use planar_core::{
    ConcurrencyConfig, ConcurrentDurableShardedIndexSet, ConcurrentShardedIndexSet, EpochStats,
    IndexConfig, InequalityQuery, ShardConfig, ShardedIndexSet, Snapshot, TopKQuery, VecStore,
    WalOptions,
};
use planar_datagen::queries::eq18_domain;
use planar_datagen::synthetic::SyntheticConfig;
use planar_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// The served engine.
pub enum Engine {
    Plain(Arc<ConcurrentShardedIndexSet<VecStore>>),
    Durable(Arc<ConcurrentDurableShardedIndexSet<VecStore>>),
}

impl Engine {
    pub fn snapshot(&self) -> Snapshot<ShardedIndexSet<VecStore>> {
        match self {
            Engine::Plain(e) => e.snapshot(),
            Engine::Durable(e) => e.snapshot(),
        }
    }

    pub fn epoch_stats(&self) -> EpochStats {
        match self {
            Engine::Plain(e) => e.epoch_stats(),
            Engine::Durable(e) => e.epoch_stats(),
        }
    }

    /// fsyncs issued by the WAL (0 without one).
    pub fn fsync_count(&self) -> u64 {
        match self {
            Engine::Plain(_) => 0,
            Engine::Durable(e) => e.fsync_count(),
        }
    }

    /// Apply one acked write; `expect_id` is the id an insert must get.
    pub fn write(&self, op: &Op, expect_id: u32) -> Res<()> {
        let Engine::Durable(e) = self else {
            return Err("writes need the durable engine".into());
        };
        let r = match op {
            Op::Insert(row) => e.insert_point(row).and_then(|id| {
                if id == expect_id {
                    Ok(())
                } else {
                    Err(planar_core::PlanarError::Internal(format!(
                        "insert got id {id}, plan expected {expect_id}"
                    )))
                }
            }),
            Op::Update(id, row) => e.update_point(*id, row),
            Op::Delete(id) => e.delete_point(*id),
            Op::Read(_) => return Err("not a write".into()),
        };
        r.map_err(|e| e.to_string())
    }

    /// Strong references to the engine (1 once the server has let go).
    fn strong_count(&self) -> usize {
        match self {
            Engine::Plain(e) => Arc::strong_count(e),
            Engine::Durable(e) => Arc::strong_count(e),
        }
    }
}

/// Wall-clock split of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen: f64,
    pub build: f64,
    /// Engine creation: the concurrent wrapper's staged copy, plus the
    /// durable snapshot write for the durable engine.
    pub create: f64,
    /// Server start until it has answered a first request.
    pub serve: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datagen + self.build + self.create + self.serve
    }
}

/// A running stack.
pub struct Stack {
    pub engine: Engine,
    pub server: ServerHandle,
    pub client: Client,
    /// The durable engine's directory.
    pub dir: Option<PathBuf>,
    pub times: SetupTimes,
}

/// Build and start the whole stack from `data`.
pub fn setup(spec: &Spec, data: &SyntheticConfig, dir: Option<&Path>) -> Res<Stack> {
    let t0 = Instant::now();
    let table = data.generate();
    let t1 = Instant::now();
    let set = ShardedIndexSet::<VecStore>::build(
        table,
        eq18_domain(DIM, spec.rq),
        IndexConfig::with_budget(spec.budget),
        ShardConfig::pilot_key_range(SHARDS),
    )
    .map_err(|e| format!("build: {e}"))?;
    let t2 = Instant::now();
    let engine = match dir {
        Some(dir) => Engine::Durable(Arc::new(
            ConcurrentDurableShardedIndexSet::create(
                dir,
                set,
                WalOptions::default(),
                ConcurrencyConfig::default(),
            )
            .map_err(|e| format!("durable create: {e}"))?,
        )),
        None => Engine::Plain(Arc::new(ConcurrentShardedIndexSet::new(
            set,
            ConcurrencyConfig::default(),
        ))),
    };
    let t3 = Instant::now();
    let server = match &engine {
        Engine::Plain(e) => Server::start(Arc::clone(e), ServeConfig::default()),
        Engine::Durable(e) => Server::start(Arc::clone(e), ServeConfig::default()),
    }
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .metrics()
        .map_err(|e| format!("first request: {e}"))?;
    let t4 = Instant::now();
    Ok(Stack {
        engine,
        server,
        client,
        dir: dir.map(Path::to_path_buf),
        times: SetupTimes {
            datagen: (t1 - t0).as_secs_f64(),
            build: (t2 - t1).as_secs_f64(),
            create: (t3 - t2).as_secs_f64(),
            serve: (t4 - t3).as_secs_f64(),
        },
    })
}

impl Stack {
    /// Stop the server and wait until it has released the engine, so the
    /// engine is freed before the next one is built (two 1M-row engines
    /// at once would double peak memory).
    pub fn shutdown(self) -> Engine {
        let Stack {
            engine,
            server,
            client,
            ..
        } = self;
        drop(client);
        server.shutdown();
        // Connection threads notice the closed socket within one poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.strong_count() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        engine
    }
}

/// The wire request for each pool query.
pub fn requests(spec: &Spec, pool: &[InequalityQuery]) -> Vec<Request> {
    pool.iter()
        .map(|q| match spec.top_k {
            Some(k) => Request::TopK {
                tenant: 0,
                deadline_us: 0,
                a: q.a().to_vec(),
                cmp: q.cmp(),
                b: q.b(),
                k: k as u32,
            },
            None => Request::Query {
                tenant: 0,
                deadline_us: 0,
                a: q.a().to_vec(),
                cmp: q.cmp(),
                b: q.b(),
            },
        })
        .collect()
}

/// The library form of pool query `q` for top-k workloads.
pub fn top_k_query(spec: &Spec, q: &InequalityQuery) -> Option<TopKQuery> {
    spec.top_k
        .map(|k| TopKQuery::new(q.clone(), k).expect("k is positive"))
}

/// A served answer, or why it counts as failed: any `Retry`, `Overload`
/// or `Error` reply, `partial` or `degraded` provenance, or I/O error.
pub fn served(reply: std::io::Result<Response>) -> Res<Response> {
    match reply {
        Ok(r @ Response::Matches { provenance, .. })
        | Ok(r @ Response::Neighbors { provenance, .. }) => {
            if provenance.partial || provenance.degraded {
                Err(format!("provenance {provenance:?}"))
            } else {
                Ok(r)
            }
        }
        Ok(other) => Err(format!("reply {other:?}")),
        Err(e) => Err(format!("i/o: {e}")),
    }
}
