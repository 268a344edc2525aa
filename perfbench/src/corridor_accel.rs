//! `corridor_accel`: corridor frames through the OMU accelerator model
//! (`Backend::Accelerator` at the paper's design point), the only
//! workload that exercises the `core` and `simhw` crates.
//!
//! Each frame reaches the model in `SLICES` contiguous slices, as a
//! spinning lidar driver streams one revolution; a request is one slice
//! and its latency is host time. Every repetition builds a fresh model
//! and feeds it the same frames, so its simulated statistics must
//! repeat exactly; the map must equal a `Backend::SoftwareFixed` replay
//! bit for bit.

use std::time::Instant;

use omu_core::{AccelStats, OmuConfig};
use omu_datasets::DatasetKind;
use omu_geometry::Scan;
use omu_map::{Backend, MapBuilder, OccupancyMap};

use crate::harness::{millis, secs, Checks, Ctx, Layers, Live, Round, RssMark, Workload};
use crate::inputs::{self, RESOLUTION};
use crate::layers::{self, leaf_digest, ReplaySpec};
use crate::trace::{traced, Tracer};

const KIND: DatasetKind = DatasetKind::Fr079Corridor;
/// Frames per repetition, taken at these of `POSES` corridor poses.
const FRAMES: [usize; 2] = [0, 8];
const POSES: usize = 17;
/// Slices each frame is delivered in.
const SLICES: usize = 128;
/// Slices per statistics window: a round's requests (all slices but the
/// first, which belongs to set-up) in three windows.
const WINDOW: usize = (FRAMES.len() * SLICES - 1) / 3;
/// Set-ups measured after the timed run, besides one per round.
const EXTRA_SETUPS: usize = 24;
/// The paper's OMU throughput on FR-079 corridor (Table IV).
const PAPER_FPS: f64 = 63.66;

pub struct CorridorAccel {
    frames: Vec<Scan>,
}

fn builder(backend: Backend) -> MapBuilder {
    MapBuilder::new(RESOLUTION)
        .max_range(Some(inputs::max_range(KIND)))
        .backend(backend)
}

/// The `(origin, slice)` requests of one frame.
fn slices(frame: &Scan) -> impl Iterator<Item = &[omu_geometry::Point3]> {
    let points = frame.cloud.points();
    points.chunks(points.len().div_ceil(SLICES).max(1))
}

impl CorridorAccel {
    pub fn new(seed: u64) -> Self {
        CorridorAccel {
            frames: inputs::scans(KIND, seed, POSES, FRAMES.into_iter()),
        }
    }

    /// Leaf digest of the fixed-point software replay of the same slices.
    fn reference_digest(&self) -> u64 {
        let mut map = builder(Backend::SoftwareFixed)
            .build()
            .expect("the default map configuration is valid");
        for frame in &self.frames {
            for slice in slices(frame) {
                map.insert_points(frame.origin, slice)
                    .expect("corridor origins lie inside the map");
            }
        }
        leaf_digest(&map.snapshot())
    }
}

/// Everything the model simulated in one repetition.
#[derive(Debug, Clone, PartialEq)]
struct Simulated {
    stats: AccelStats,
    sim_seconds: f64,
    energy_j: f64,
    sram_power_share: f64,
    sram_utilization: f64,
    morton_runs: u64,
}

impl Simulated {
    fn of(map: &OccupancyMap) -> Option<Self> {
        let accel = map.accelerator()?;
        Some(Simulated {
            stats: accel.stats(),
            sim_seconds: accel.elapsed_seconds(),
            energy_j: accel.energy_joules(),
            sram_power_share: accel.power_report().share_prefix("sram"),
            sram_utilization: accel.sram_utilization(),
            morton_runs: accel.morton_runs(),
        })
    }

    /// FNV-1a over every simulated statistic, so a change that only
    /// speeds up the simulator can show them unchanged.
    fn digest(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
            >> 16
    }
}

impl Workload for CorridorAccel {
    fn live(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Live {
        let mut live = Live {
            window: Some(WINDOW),
            ..Live::default()
        };
        let mut checks = Checks::default();
        let mut digests = Vec::new();
        let rss = RssMark::start();
        let start = Instant::now();
        let mut sims: Vec<Simulated> = Vec::new();
        let mut updates = 0u64;
        let mut host_s = 0.0;
        while live.rounds.is_empty() || secs(start) < ctx.seconds {
            let round = live.rounds.len() as u64;
            let mut r = Round::default();
            let setup = Instant::now();
            let built = builder(Backend::Accelerator(OmuConfig::default())).build();
            let Some(mut map) = checks.op("MapBuilder::build (accelerator)", built) else {
                break;
            };
            for (f, frame) in self.frames.iter().enumerate() {
                for (s, slice) in slices(frame).enumerate() {
                    let req = (round * FRAMES.len() as u64 + f as u64) * SLICES as u64 + s as u64;
                    let t = Instant::now();
                    let result = traced(tracer, "map.insert_points", req, None, |_| {
                        map.insert_points(frame.origin, slice)
                    });
                    let ms = millis(t);
                    host_s += ms / 1e3;
                    if f == 0 && s == 0 {
                        r.setup_s = secs(setup);
                    } else {
                        r.latencies_ms.push(ms);
                    }
                    if let Some(stats) =
                        checks.op("OccupancyMap::insert_points (accelerator)", result)
                    {
                        updates += stats.total_updates();
                    }
                }
            }
            digests.push(leaf_digest(&map.snapshot()));
            if let Some(sim) = Simulated::of(&map) {
                if let Some(previous) = sims.first() {
                    checks.check("simulated statistics repeat exactly", *previous == sim);
                }
                sims.push(sim);
            }
            live.rounds.push(r);
        }
        live.peak_rss_mb = rss.peak_mb();
        let (origin, first) = (self.frames[0].origin, slices(&self.frames[0]).next());
        for _ in 0..EXTRA_SETUPS {
            let setup = Instant::now();
            let built = builder(Backend::Accelerator(OmuConfig::default())).build();
            if let Some(mut map) = checks.op("MapBuilder::build (accelerator)", built) {
                let inserted = map.insert_points(origin, first.unwrap_or_default());
                checks.op("OccupancyMap::insert_points (accelerator)", inserted);
                live.extra_setups_s.push(secs(setup));
            }
        }
        let reference = self.reference_digest();
        for digest in digests {
            checks.check(
                "accelerator map == SoftwareFixed replay, bit for bit",
                digest == reference,
            );
        }

        let rounds = live.rounds.len() as f64;
        let frames = self.frames.len() as f64;
        live.name(
            "ingest_scans_per_s",
            frames * rounds / host_s,
            "1/s",
            "host time",
        );
        if let Some(sim) = sims.first() {
            let fps = frames / sim.sim_seconds;
            let error = (fps - PAPER_FPS) / PAPER_FPS * 100.0;
            live.name(
                "sim_fps",
                fps,
                "1/s",
                format!("paper {PAPER_FPS} FPS, error {error:+.1} %"),
            );
            live.name(
                "sim_energy_mj",
                sim.energy_j * 1e3,
                "mJ",
                format!("{} frames", self.frames.len()),
            );
            live.name(
                "sim_digest",
                sim.digest() as f64,
                "count",
                "FNV-1a of every simulated statistic",
            );
            if sim.stats.stall_cycles > sim.stats.wall_cycles {
                eprintln!(
                    "warning: core.stall_cycles ({}) exceed core.sim_cycles ({}); the scheduler's stall \
                     accounting is known to over-count",
                    sim.stats.stall_cycles, sim.stats.wall_cycles
                );
            }
            if tracer.is_some() {
                let l = &mut live.layers;
                l.insert("core.host_updates_per_s", updates as f64 / host_s);
                l.insert("core.sim_cycles", sim.stats.wall_cycles as f64);
                l.insert("core.stall_cycles", sim.stats.stall_cycles as f64);
                l.insert("core.sram_utilization", sim.sram_utilization);
                l.insert("core.load_imbalance", sim.stats.load_imbalance());
                l.insert("core.morton_runs", sim.morton_runs as f64);
                l.insert("core.sram_power_share", sim.sram_power_share);
                l.insert("core.sim_fps", fps);
                l.insert("core.sim_energy_mj", sim.energy_j * 1e3);
                l.insert("core.sim_digest", sim.digest() as f64);
            }
        }
        live.checks = checks;
        live
    }

    fn replay(&self, ctx: &Ctx, tracer: &Tracer, layers: &mut Layers, checks: &mut Checks) {
        let spec = ReplaySpec {
            scans: &self.frames,
            max_range: inputs::max_range(KIND),
            record_bytes: None,
        };
        layers::replay(ctx, &spec, tracer, layers, checks);
    }
}
