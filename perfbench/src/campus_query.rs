//! `campus_query`: read-only planner traffic on the Freiburg campus map,
//! the largest outdoor working set. The map is restored by
//! `MapService::recover` from a checkpoint plus a short WAL tail that
//! is prepared untimed; that restore is the workload's set-up.

use std::path::{Path, PathBuf};
use std::time::Instant;

use omu_datasets::DatasetKind;
use omu_geometry::{KeyConverter, Scan};
use omu_map::{ChangeSubscription, DurabilityPolicy, MapBuilder, MapError, MapService};
use omu_octree::OctreeF32;

use crate::harness::{millis, secs, Checks, Ctx, Layers, Live, Round, RssMark, Workload};
use crate::inputs::{self, Pose, QueryShape, RESOLUTION};
use crate::layers::{self, leaf_digest, wal_bytes_on_disk, ReplaySpec};
use crate::planner::{self, Answers, Request, NODE_VISITS};
use crate::trace::{traced, Tracer};

const KIND: DatasetKind = DatasetKind::FreiburgCampus;
/// Trajectory poses (the dataset's own scan count).
const POSES: usize = 81;
/// Scans folded into the checkpoint, spread over the whole campus loop.
const BASE: usize = 8;
/// Scans left in the WAL tail that recovery replays.
const TAIL: usize = 1;
/// Planner requests per statistics window, and poses the planner walks
/// along the campus loop (request `i` stands at pose `i % WINDOW`).
/// Every request has its own template, so windows are independent
/// draws and their median tail does not hinge on a few costly ones.
const WINDOW: usize = 250;
/// Planner requests per round (four windows); each round starts with a
/// recovery.
const REQUESTS: u64 = 4 * WINDOW as u64;
/// Every this many requests, one is a check request.
const CHECK_EVERY: u64 = 16;
/// Distinct check requests, answered by the directly built tree while
/// the inputs are prepared.
const CHECKS: usize = 64;

pub struct CampusQuery {
    seed: u64,
    shape: QueryShape,
    poses: Vec<Pose>,
    /// Answers of the directly built `OctreeF32` to each check request.
    expected: Vec<Answers>,
    /// Digest of that tree's canonical leaves.
    reference_digest: u64,
    /// Checkpoint plus WAL tail, written once; each recovery starts from
    /// a copy.
    prepared: PathBuf,
}

fn builder() -> MapBuilder {
    MapBuilder::new(RESOLUTION).max_range(Some(inputs::max_range(KIND)))
}

fn scans(seed: u64) -> Vec<Scan> {
    let stride = POSES / (BASE + TAIL);
    inputs::scans(KIND, seed, POSES, (0..BASE + TAIL).map(|i| i * stride))
}

/// Pose index, template index and, for a check request, check slot of
/// request `id`.
fn spec(id: u64) -> (usize, u64, Option<usize>) {
    if id.is_multiple_of(CHECK_EVERY) {
        let slot = (id / CHECK_EVERY) as usize % CHECKS;
        (slot * WINDOW / CHECKS, u64::MAX - slot as u64, Some(slot))
    } else {
        (id as usize % WINDOW, id, None)
    }
}

impl CampusQuery {
    pub fn new(ctx: &Ctx) -> Self {
        let scans = scans(ctx.seed);
        let prepared = ctx.fresh_dir("campus-prepared");
        let service = MapService::spawn(builder().durability(&prepared, DurabilityPolicy::Manual))
            .expect("a durable service spawns in an empty scratch directory");
        let ingest = |scans: &[Scan]| {
            for scan in scans {
                service.ingest(scan.clone()).expect("the writer is running");
            }
            service
                .flush()
                .expect("campus scan origins lie inside the map");
        };
        ingest(&scans[..BASE]);
        service
            .checkpoint()
            .expect("the checkpoint is written to the scratch directory");
        ingest(&scans[BASE..]);
        service.shutdown().expect("the writer shuts down cleanly");

        let mut bench = CampusQuery {
            seed: ctx.seed,
            shape: QueryShape::of(KIND),
            poses: inputs::poses(KIND, WINDOW),
            expected: Vec::new(),
            reference_digest: 0,
            prepared,
        };
        // The reference is dropped before anything is timed, so it does
        // not add to the measured memory.
        let reference = reference_tree(&scans);
        let conv = KeyConverter::new(RESOLUTION).expect("0.2 m is a valid resolution");
        bench.expected = (0..CHECKS as u64)
            .map(|slot| {
                let request = bench
                    .request(&conv, slot * CHECK_EVERY)
                    .expect("campus poses lie inside the map");
                planner::reference(&reference, &bench.shape, &request)
                    .expect("campus poses lie inside the map")
            })
            .collect();
        bench.reference_digest = leaf_digest(&reference.snapshot());
        bench
    }

    fn copy_prepared(&self, to: &Path) {
        for entry in std::fs::read_dir(&self.prepared).expect("prepared directory exists") {
            let entry = entry.expect("prepared directory is readable");
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .expect("scratch directory is writable");
        }
    }

    /// Request `id` of the run: the planner walks the campus loop, one
    /// pose per request, heading for the next.
    fn request(&self, conv: &KeyConverter, id: u64) -> Result<Request, MapError> {
        let (pose, template, _) = spec(id);
        let next = self.poses[(pose + 1) % WINDOW].0;
        let template = inputs::query_template(&self.shape, self.seed, template);
        Request::at(conv, &self.shape, self.poses[pose], next, &template)
    }

    fn serve(
        &self,
        service: &MapService,
        sub: &mut ChangeSubscription,
        id: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Answers, MapError> {
        traced(tracer, "request", id, None, |p| {
            let snapshot = traced(tracer, "map.snapshot", id, p, |_| service.snapshot());
            let request = self.request(snapshot.converter(), id)?;
            let answers = planner::serve(&snapshot, &self.shape, &request, tracer, id, p)?;
            traced(tracer, "map.poll", id, p, |_| sub.poll())?;
            Ok(answers)
        })
    }
}

/// The campus map built directly, without the service.
fn reference_tree(scans: &[Scan]) -> OctreeF32 {
    let mut tree = OctreeF32::new(RESOLUTION).expect("0.2 m is a valid resolution");
    tree.set_max_range(Some(inputs::max_range(KIND)));
    for scan in scans {
        tree.insert_scan_batched(scan)
            .expect("campus scan origins lie inside the map");
    }
    tree
}

impl Workload for CampusQuery {
    fn live(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Live {
        let mut live = Live {
            window: Some(WINDOW),
            ..Live::default()
        };
        let mut checks = Checks::default();
        let mut replayed = 0;
        let mut start = Instant::now();
        let mut rss = None;
        // Round 0 warms the process up after the input preparation (its
        // requests run ~20 % slower) and is not counted; the clock and
        // the memory mark start after it.
        let mut round = 0u64;
        let mut id = 0u64;
        while live.rounds.is_empty() || secs(start) < ctx.seconds {
            let warmup = round == 0;
            let tracer = if warmup { None } else { tracer };
            let mut r = Round::default();
            let dir = ctx.fresh_dir(&format!("campus-{round}"));
            self.copy_prepared(&dir);
            let setup = Instant::now();
            let Some((service, report)) =
                checks.op("MapService::recover", MapService::recover(&dir, builder()))
            else {
                break;
            };
            let mut sub = service.subscribe();
            let first = self.serve(&service, &mut sub, id, None);
            r.setup_s = secs(setup);
            checks.op("first planner request", first);
            replayed = report.replayed_batches;

            for _ in 0..REQUESTS {
                id += 1;
                let t = Instant::now();
                let served = self.serve(&service, &mut sub, id, tracer);
                r.latencies_ms.push(millis(t));
                if let Some(answers) = checks.op("planner request", served) {
                    if let (_, _, Some(slot)) = spec(id) {
                        checks.check(
                            "served answers == directly built OctreeF32",
                            answers == self.expected[slot],
                        );
                    }
                }
            }
            id += 1;
            if warmup {
                checks.check(
                    "recovered map == directly built OctreeF32",
                    leaf_digest(&service.snapshot().canonical_leaves()) == self.reference_digest,
                );
            } else if tracer.is_some() && !live.layers.contains_key(NODE_VISITS) {
                let snapshot = service.snapshot();
                let requests: Vec<Request> = (0..WINDOW as u64)
                    .filter_map(|i| self.request(snapshot.converter(), i).ok())
                    .collect();
                planner::read_path_layers(&snapshot, &self.shape, &requests, &mut live.layers);
            }
            checks.op("MapService::shutdown", service.shutdown());
            let _ = std::fs::remove_dir_all(&dir);
            if warmup {
                rss = Some(RssMark::start());
                start = Instant::now();
            } else {
                live.rounds.push(r);
            }
            round += 1;
        }
        live.peak_rss_mb = rss.map_or(0.0, |m| m.peak_mb());

        let s = live.summary();
        live.name_timing("query_us", &s, "us", 1e3);
        live.name(
            "queries_per_s",
            s.throughput,
            "1/s",
            "1 reader client, closed loop",
        );
        live.name("recover_s", live.setup_s(), "s", "recover + first request");
        if tracer.is_some() {
            live.layers
                .insert("durable.replayed_batches", replayed as f64);
            let wal = wal_bytes_on_disk(&self.prepared) as f64;
            live.layers
                .insert("durable.wal_bytes_per_scan", wal / TAIL as f64);
        }
        live.checks = checks;
        live
    }

    fn replay(&self, ctx: &Ctx, tracer: &Tracer, layers: &mut Layers, checks: &mut Checks) {
        let record = layers
            .get("durable.wal_bytes_per_scan")
            .copied()
            .unwrap_or(0.0);
        let scans = scans(self.seed);
        let spec = ReplaySpec {
            scans: &scans,
            max_range: inputs::max_range(KIND),
            record_bytes: Some(record.round().max(1.0) as usize),
        };
        let tree = layers::replay(ctx, &spec, tracer, layers, checks);
        checks.check(
            "replayed tree == directly built OctreeF32",
            leaf_digest(&tree.snapshot()) == self.reference_digest,
        );
    }
}
