//! `corridor_ingest`: the paper's own workload. Dense FR-079 corridor
//! scans go into a fresh `MapService`; one writer client runs a closed
//! loop of `ingest` then `flush` per scan. Durability off, no readers.

use std::time::Instant;

use omu_datasets::DatasetKind;
use omu_geometry::Scan;
use omu_map::{MapBuilder, MapService};

use crate::harness::{
    ack, millis, scans_per_publish, secs, Checks, Ctx, Layers, Live, Round, RssMark, Workload,
};
use crate::inputs::{self, RESOLUTION};
use crate::layers::{self, leaf_digest, ReplaySpec};
use crate::trace::Tracer;

/// Scans per round: the whole FR-079 corridor run (Table II).
const SCANS: usize = 66;
const KIND: DatasetKind = DatasetKind::Fr079Corridor;
/// Set-ups measured after the timed run, besides one per round.
const EXTRA_SETUPS: usize = 8;

pub struct CorridorIngest {
    scans: Vec<Scan>,
}

fn builder() -> MapBuilder {
    MapBuilder::new(RESOLUTION).max_range(Some(inputs::max_range(KIND)))
}

impl CorridorIngest {
    pub fn new(seed: u64) -> Self {
        CorridorIngest {
            scans: inputs::scans(KIND, seed, SCANS, 0..SCANS),
        }
    }

    /// A fresh service and its first acknowledged scan; returns the
    /// service and the time that took.
    fn set_up(&self, checks: &mut Checks) -> Option<(MapService, f64)> {
        let first = self.scans[0].clone();
        let setup = Instant::now();
        let service = checks.op("MapService::spawn", MapService::spawn(builder()))?;
        let acked = service.ingest(first).and_then(|()| service.flush());
        checks.op("first ingest + flush", acked);
        Some((service, secs(setup)))
    }

    /// Leaf digest of an untimed serial `OccupancyMap` replay of one
    /// round.
    fn reference_digest(&self) -> u64 {
        let mut map = builder()
            .build()
            .expect("the default map configuration is valid");
        for scan in &self.scans {
            map.insert(scan)
                .expect("corridor scan origins lie inside the map");
        }
        leaf_digest(&map.snapshot())
    }
}

impl Workload for CorridorIngest {
    fn live(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Live {
        let mut live = Live::default();
        let mut checks = Checks::default();
        let mut service_stats = None;
        let mut digests = Vec::new();
        let rss = RssMark::start();
        let start = Instant::now();
        // Rounds of the whole dataset, each into a fresh service.
        while live.rounds.is_empty() || secs(start) < ctx.seconds {
            let round = live.rounds.len() as u64;
            let mut r = Round::default();
            let Some((service, setup_s)) = self.set_up(&mut checks) else {
                break;
            };
            r.setup_s = setup_s;

            let mut last = None;
            for (i, scan) in self.scans.iter().enumerate().skip(1) {
                let req = round * SCANS as u64 + i as u64;
                let scan = scan.clone();
                let t = Instant::now();
                let acked = ack(&service, scan, req, tracer);
                r.latencies_ms.push(millis(t));
                last = checks.op("ingest + flush", acked).or(last);
            }
            if let Some(snapshot) = last {
                digests.push(leaf_digest(&snapshot.canonical_leaves()));
            }
            service_stats = Some(service.service_stats());
            checks.op("MapService::shutdown", service.shutdown());
            live.rounds.push(r);
        }
        live.peak_rss_mb = rss.peak_mb();
        for _ in 0..EXTRA_SETUPS {
            if let Some((service, setup_s)) = self.set_up(&mut checks) {
                live.extra_setups_s.push(setup_s);
                checks.op("MapService::shutdown", service.shutdown());
            }
        }
        let reference = self.reference_digest();
        for digest in digests {
            checks.check(
                "final snapshot == serial OccupancyMap replay",
                digest == reference,
            );
        }

        if let Some(s) = service_stats {
            live.layers.insert("map.lagged", 0.0);
            live.layers
                .insert("map.scans_per_publish", scans_per_publish(&s));
        }
        let s = live.summary();
        live.name_timing("ack_ms", &s, "ms", 1.0);
        live.name(
            "ingest_scans_per_s",
            s.throughput,
            "1/s",
            "closed loop, 1 writer client",
        );
        live.checks = checks;
        live
    }

    fn replay(&self, ctx: &Ctx, tracer: &Tracer, layers: &mut Layers, checks: &mut Checks) {
        let spec = ReplaySpec {
            scans: &self.scans,
            max_range: inputs::max_range(KIND),
            record_bytes: None,
        };
        layers::replay(ctx, &spec, tracer, layers, checks);
    }
}
