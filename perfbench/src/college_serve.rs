//! `college_serve`: sparse New College scans into a durable service
//! (WAL plus a checkpoint every 64 epochs) while a planner reads.
//!
//! The writer client acks one scan at a time (`ingest` + `flush`); one
//! reader client, a planner, replans once per acknowledged scan with a
//! request on a fresh snapshot, ending with a change-subscription poll.
//! Each round ends with `shutdown` and a timed `MapService::recover`,
//! whose map must equal the last acknowledged snapshot.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omu_datasets::DatasetKind;
use omu_geometry::{KeyConverter, Scan};
use omu_map::{DurabilityPolicy, MapBuilder, MapError, MapService, MapSnapshot};

use crate::harness::{
    ack, millis, scans_per_publish, secs, Checks, Ctx, Layers, Live, Round, RssMark, Summary,
    Workload,
};
use crate::inputs::{self, Pose, QueryShape, RESOLUTION};
use crate::layers::{self, leaf_digest, wal_bytes_on_disk, ReplaySpec, StoreCounts, UnflushedDir};
use crate::planner::{self, Request, NODE_VISITS};
use crate::stats;
use crate::trace::{traced, Tracer};

const KIND: DatasetKind = DatasetKind::NewCollege;
/// Checkpoint period, in epochs (one epoch per acknowledged scan).
const CHECKPOINT_EPOCHS: u32 = 64;
/// Acks per statistics window: one checkpoint period, so every window
/// holds exactly one checkpoint-delayed ack and its tail (the
/// eleventh-slowest ack, p84) is never decided by how many of them it
/// caught. Wider windows push the tail up to where scheduling noise on
/// the two shared cores sets it (p96 of 256 acks spread 0.33 over five
/// seeds; p84 of 64 stayed within ±5 % between rounds).
const WINDOW: usize = CHECKPOINT_EPOCHS as usize;
/// Scans per round, each round into a fresh durable service: one for
/// set-up, then 32 windows.
const SCANS: usize = 1 + 32 * WINDOW;
/// Trajectory poses the scans are taken from (the dataset's own count).
const POSES: usize = 92_361;
/// Set-ups measured after the timed run, besides one per round.
const EXTRA_SETUPS: usize = 24;

pub struct CollegeServe {
    seed: u64,
    shape: QueryShape,
    scans: Vec<Scan>,
    /// Pose of each scan, and one beyond the last (where the robot
    /// heads next).
    poses: Vec<Pose>,
}

impl CollegeServe {
    pub fn new(seed: u64) -> Self {
        let mut poses = inputs::poses(KIND, POSES);
        poses.truncate(SCANS + 1);
        CollegeServe {
            seed,
            shape: QueryShape::of(KIND),
            scans: inputs::scans(KIND, seed, POSES, 0..SCANS),
            poses,
        }
    }

    /// A fresh durable service in `dir` and its first acknowledged scan;
    /// returns the service, that scan's snapshot and the time it took.
    fn set_up(
        &self,
        dir: &Path,
        counts: &Arc<StoreCounts>,
        checks: &mut Checks,
    ) -> Option<(MapService, MapSnapshot, f64)> {
        let setup = Instant::now();
        let spawned = store(dir, counts).and_then(|s| MapService::spawn(durable(s)));
        let service = checks.op("MapService::spawn", spawned)?;
        let first = service
            .ingest(self.scans[0].clone())
            .and_then(|()| service.flush());
        let snapshot = checks.op("first ingest + flush", first)?;
        Some((service, snapshot, secs(setup)))
    }

    /// Reader request `id` at the pose of scan `at`, heading for the next.
    fn request(&self, conv: &KeyConverter, at: usize, id: u64) -> Result<Request, MapError> {
        let template = inputs::query_template(&self.shape, self.seed, id);
        Request::at(
            conv,
            &self.shape,
            self.poses[at],
            self.poses[at + 1].0,
            &template,
        )
    }
}

fn builder() -> MapBuilder {
    MapBuilder::new(RESOLUTION).max_range(Some(inputs::max_range(KIND)))
}

/// The store of a durable service in `dir`, counting into `counts`.
fn store(dir: &Path, counts: &Arc<StoreCounts>) -> Result<Arc<UnflushedDir>, MapError> {
    let store = UnflushedDir::create(dir, Arc::clone(counts)).map_err(MapError::Io)?;
    Ok(Arc::new(store))
}

fn durable(store: Arc<UnflushedDir>) -> MapBuilder {
    builder().durability_store(store, DurabilityPolicy::EveryNEpochs(CHECKPOINT_EPOCHS))
}

fn recover(
    dir: &Path,
    counts: &Arc<StoreCounts>,
) -> Result<(MapService, omu_map::RecoveryReport), MapError> {
    let store = store(dir, counts)?;
    MapService::recover_with_store(store.clone(), durable(store))
}

/// What the reader client measured in one round.
#[derive(Default)]
struct Reader {
    latencies_ms: Vec<f64>,
    lagged: u64,
    checks: Checks,
}

impl CollegeServe {
    /// The planner: replans once per acknowledged scan — one request on
    /// the newest snapshot, centred on the newest acknowledged pose —
    /// and parks in between, until the writer raises `stop`. A closed
    /// loop of such requests keeps the reader's share of the two cores
    /// tied to the write rate rather than to how fast reads happen to
    /// run.
    fn read_loop(
        &self,
        service: &MapService,
        acked: &AtomicUsize,
        stop: &AtomicBool,
        first_id: u64,
        tracer: Option<&Tracer>,
    ) -> Reader {
        let mut out = Reader::default();
        let mut sub = service.subscribe();
        let mut i = 0u64;
        let mut seen = 0;
        // Acquire pairs with the writer's Release: the pose index read
        // here was stored after its scan was acknowledged.
        while !stop.load(Ordering::Acquire) {
            let at = acked.load(Ordering::Acquire);
            if at == seen {
                std::thread::park();
                continue;
            }
            seen = at;
            let id = first_id + i;
            let t = Instant::now();
            let result = traced(tracer, "request", id, None, |p| {
                let snapshot = traced(tracer, "map.snapshot", id, p, |_| service.snapshot());
                let request = self.request(snapshot.converter(), at, id)?;
                let answers = planner::serve(&snapshot, &self.shape, &request, tracer, id, p)?;
                match traced(tracer, "map.poll", id, p, |_| sub.poll()) {
                    Err(MapError::Lagged { .. }) => out.lagged += 1,
                    other => {
                        other?;
                    }
                }
                Ok::<_, MapError>(answers)
            });
            out.latencies_ms.push(millis(t));
            out.checks.op("planner request", result);
            i += 1;
        }
        out
    }
}

impl Workload for CollegeServe {
    fn live(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Live {
        let mut live = Live {
            window: Some(WINDOW),
            ..Live::default()
        };
        let mut checks = Checks::default();
        let mut reads: Vec<Vec<f64>> = Vec::new();
        let mut recovers = Vec::new();
        let (mut lagged, mut checkpoints, mut written, mut point_bytes) = (0, 0, 0, 0);
        let (mut wal_bytes, mut replayed) = (0, 0);
        let mut service_stats = None;
        let rss = RssMark::start();
        let start = Instant::now();

        while live.rounds.is_empty() || secs(start) < ctx.seconds {
            let round = live.rounds.len() as u64;
            let mut r = Round::default();
            let dir = ctx.fresh_dir(&format!("college-{round}"));
            let counts = Arc::new(StoreCounts::default());
            let Some((service, mut last, setup_s)) = self.set_up(&dir, &counts, &mut checks) else {
                break;
            };
            r.setup_s = setup_s;

            let acked = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let reader = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    self.read_loop(&service, &acked, &stop, round << 32 | 1 << 31, tracer)
                });
                for (i, scan) in self.scans.iter().enumerate().skip(1) {
                    let req = (round << 32) + i as u64;
                    let bytes = (scan.len() * std::mem::size_of::<omu_geometry::Point3>()) as u64;
                    let scan = scan.clone();
                    let t = Instant::now();
                    let result = ack(&service, scan, req, tracer);
                    r.latencies_ms.push(millis(t));
                    if let Some(snapshot) = checks.op("ingest + flush", result) {
                        last = snapshot;
                        point_bytes += bytes;
                        // Release pairs with the reader's Acquire.
                        acked.store(i, Ordering::Release);
                        reader.thread().unpark();
                    }
                }
                stop.store(true, Ordering::Release);
                reader.thread().unpark();
                reader.join().expect("reader client panicked")
            });
            lagged += reader.lagged;
            reads.push(reader.latencies_ms);
            checks.merge(reader.checks);
            service_stats = Some(service.service_stats());
            checks.op("MapService::shutdown", service.shutdown());
            checkpoints += StoreCounts::get(&counts.atomic_writes);
            written += counts.bytes_written();
            wal_bytes = wal_bytes_on_disk(&dir);

            if tracer.is_some() && !live.layers.contains_key(NODE_VISITS) {
                // Requests issued along the round's trajectory.
                let requests: Vec<Request> = (0..WINDOW)
                    .filter_map(|i| {
                        let at = i * (SCANS - 1) / WINDOW;
                        self.request(last.converter(), at, i as u64).ok()
                    })
                    .collect();
                planner::read_path_layers(&last, &self.shape, &requests, &mut live.layers);
            }
            // Only the digest is kept: the recovered map is not measured
            // beside a second copy.
            let expected = leaf_digest(&last.canonical_leaves());
            drop(last);

            // Recovery writes through its own counters: only the live
            // round's writes count towards write amplification.
            let recovery_counts = Arc::default();
            let t = Instant::now();
            if let Some((recovered, report)) =
                checks.op("MapService::recover", recover(&dir, &recovery_counts))
            {
                recovers.push(secs(t));
                replayed = report.replayed_batches;
                checks.check(
                    "recovered map == last acknowledged snapshot",
                    leaf_digest(&recovered.snapshot().canonical_leaves()) == expected,
                );
                checks.op("recovered MapService::shutdown", recovered.shutdown());
            }
            let _ = std::fs::remove_dir_all(&dir);
            live.rounds.push(r);
        }
        live.peak_rss_mb = rss.peak_mb();
        for i in 0..EXTRA_SETUPS {
            let dir = ctx.fresh_dir(&format!("college-setup-{i}"));
            if let Some((service, _, setup_s)) = self.set_up(&dir, &Arc::default(), &mut checks) {
                live.extra_setups_s.push(setup_s);
                checks.op("MapService::shutdown", service.shutdown());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        let acks = live.summary();
        live.name_timing("ack_ms", &acks, "ms", 1.0);
        live.name(
            "ingest_scans_per_s",
            acks.throughput,
            "1/s",
            "closed loop, 1 writer client",
        );
        let queries = Summary::of(&reads.iter().map(Vec::as_slice).collect::<Vec<_>>());
        live.name_timing("query_us", &queries, "us", 1e3);
        live.name(
            "queries_per_s",
            queries.throughput,
            "1/s",
            "1 reader client, one request per ack",
        );
        live.name(
            "recover_s",
            stats::median(&recovers).unwrap_or(0.0),
            "s",
            format!("median of {}", recovers.len()),
        );

        if tracer.is_some() {
            // Per round, so the figures do not grow with the host's speed.
            let rounds = live.rounds.len().max(1) as f64;
            live.layers.insert("map.lagged", lagged as f64 / rounds);
            if let Some(s) = service_stats {
                live.layers
                    .insert("map.scans_per_publish", scans_per_publish(&s));
            }
            live.layers
                .insert("durable.checkpoints", checkpoints as f64 / rounds);
            live.layers
                .insert("durable.replayed_batches", replayed as f64);
            live.layers.insert(
                "durable.wal_bytes_per_scan",
                if replayed == 0 {
                    0.0
                } else {
                    wal_bytes as f64 / replayed as f64
                },
            );
            live.layers.insert(
                "durable.write_amplification",
                written as f64 / point_bytes.max(1) as f64,
            );
        }
        live.checks = checks;
        live
    }

    fn replay(&self, ctx: &Ctx, tracer: &Tracer, layers: &mut Layers, checks: &mut Checks) {
        // The scans of one round; the journaled record size is the one
        // the live run measured on disk.
        let record = layers
            .get("durable.wal_bytes_per_scan")
            .copied()
            .unwrap_or(0.0);
        let spec = ReplaySpec {
            scans: &self.scans,
            max_range: inputs::max_range(KIND),
            record_bytes: Some(record.round().max(1.0) as usize),
        };
        layers::replay(ctx, &spec, tracer, layers, checks);
    }
}
