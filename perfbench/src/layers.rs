//! The decomposed single-thread replay behind the per-layer numbers, and
//! the store the benchmark's durable services write through.
//!
//! The service's writer thread is opaque from outside, so the traced run
//! replays the workload's scans once more, calling each layer's public
//! functions in turn — `OccupancyMap::insert` (the fused path, with the
//! service's change detection) and `drain_changed_keys`, then
//! `ScanIntegrator::integrate_into`, `OctreeF32::apply_update_batch`,
//! `publish_snapshot` and a `DurableFile` append + sync per scan, and
//! finally `to_bytes` / `from_bytes` — each inside its own span.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use omu_geometry::{KeyConverter, Scan, VoxelKey};
use omu_map::{DurableDir, DurableFile, MapBuilder, RealDir};
use omu_octree::{BatchStats, OctreeF32};
use omu_raycast::{IntegrationMode, IntegrationStats, ScanIntegrator};

use crate::harness::{Checks, Ctx, Layers};
use crate::inputs::RESOLUTION;
use crate::trace::Tracer;

/// True when two canonical leaf lists match bit for bit.
pub fn same_leaves(a: &[(VoxelKey, u8, f32)], b: &[(VoxelKey, u8, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
}

/// FNV-1a over a canonical leaf list (keys, depths and value bits), so a
/// reference map can be checked against without being kept in memory.
pub fn leaf_digest(leaves: &[(VoxelKey, u8, f32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, depth, value) in leaves {
        let words = [
            k.x.into(),
            k.y.into(),
            k.z.into(),
            (*depth).into(),
            value.to_bits(),
        ];
        for w in words {
            for b in u32::to_le_bytes(w) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// What the replay needs to know about a workload.
#[derive(Debug)]
pub struct ReplaySpec<'a> {
    pub scans: &'a [Scan],
    pub max_range: f64,
    /// Size of one journaled scan record, when the workload is durable.
    pub record_bytes: Option<usize>,
}

/// Replays `spec.scans` layer by layer (spans named after the layer
/// call they wrap) and returns the directly built tree.
pub fn replay(
    ctx: &Ctx,
    spec: &ReplaySpec,
    tracer: &Tracer,
    layers: &mut Layers,
    checks: &mut Checks,
) -> OctreeF32 {
    // Built as `MapService` builds its map: with change detection, whose
    // changed keys the service drains at every publish for subscribers.
    let builder = MapBuilder::new(RESOLUTION)
        .max_range(Some(spec.max_range))
        .change_detection(true);
    let mut fused = builder
        .build()
        .expect("the default map configuration is valid");
    for (i, scan) in spec.scans.iter().enumerate() {
        let r = tracer.span("map.insert", i as u64, None, |_| fused.insert(scan));
        checks.op("OccupancyMap::insert", r);
        tracer.span("map.drain_changed", i as u64, None, |_| {
            fused.drain_changed_keys()
        });
    }
    let pool = fused.pool_stats().unwrap_or_default();
    layers.insert("pool.tasks_dispatched", pool.tasks_dispatched as f64);
    let ran = pool.tasks_run_by_caller + pool.tasks_run_by_workers;
    layers.insert(
        "pool.caller_share",
        if ran == 0 {
            0.0
        } else {
            pool.tasks_run_by_caller as f64 / ran as f64
        },
    );

    let conv = KeyConverter::new(RESOLUTION).expect("0.2 m is a valid resolution");
    let mut integrator =
        ScanIntegrator::new(conv, Some(spec.max_range), IntegrationMode::default());
    let mut tree = OctreeF32::new(RESOLUTION).expect("0.2 m is a valid resolution");
    tree.set_max_range(Some(spec.max_range));
    let mut wal = spec.record_bytes.map(|n| {
        let dir =
            RealDir::create(ctx.fresh_dir("replay-wal")).expect("scratch directory is writable");
        (
            dir.open_append("replay.log")
                .expect("scratch directory is writable"),
            vec![0xA5u8; n],
        )
    });
    let mut updates = Vec::new();
    let mut rays = IntegrationStats::default();
    let mut batch = BatchStats::default();
    let mut pinned = None;
    for (i, scan) in spec.scans.iter().enumerate() {
        let req = i as u64;
        tracer.span("replay.scan", req, None, |sid| {
            updates.clear();
            let r = tracer.span("raycast.integrate", req, Some(sid), |_| {
                integrator.integrate_into(scan, &mut updates)
            });
            if let Some(s) = checks.op("ScanIntegrator::integrate_into", r) {
                rays.merge(&s);
            }
            let b = tracer.span("octree.apply", req, Some(sid), |_| {
                tree.apply_update_batch(&updates)
            });
            batch.merge(&b);
            // Holding the latest snapshot pinned, as the service does,
            // makes the next scan's writes pay the row copy-on-write.
            pinned = Some(tracer.span("octree.publish", req, Some(sid), |_| {
                tree.publish_snapshot()
            }));
            if let Some((file, record)) = wal.as_mut() {
                let r = tracer.span("durable.append_sync", req, Some(sid), |_| {
                    file.append(record).and_then(|()| file.sync())
                });
                checks.op("DurableFile append + sync", r);
            }
        });
    }
    checks.check(
        "integrate_into + apply_update_batch == OccupancyMap::insert",
        same_leaves(&tree.snapshot(), &fused.snapshot()),
    );
    drop(fused);

    let updates = rays.total_updates() as f64;
    layers.insert("raycast.updates", updates);
    layers.insert(
        "raycast.lane_occupancy",
        integrator.packet_stats().lane_occupancy(),
    );
    layers.insert(
        "octree.coalesce_ratio",
        if batch.updates == 0 {
            0.0
        } else {
            batch.unique_leaves as f64 / batch.updates as f64
        },
    );
    layers.insert("octree.apply_updates", batch.updates as f64);
    let snap = tree.snapshot_stats();
    let copied = (snap.node_rows_copied + snap.leaf_rows_copied) as f64;
    layers.insert(
        "octree.rows_copied_per_publish",
        copied / snap.snapshots_published.max(1) as f64,
    );
    layers.insert(
        "octree.rows_awaiting_reclaim",
        snap.rows_awaiting_reclaim as f64,
    );
    drop(pinned);

    let bytes = tracer.span("octree.to_bytes", 0, None, |_| tree.to_bytes());
    let restored = tracer.span("octree.from_bytes", 0, None, |_| {
        OctreeF32::from_bytes(&bytes)
    });
    if let Some(restored) = checks.op("OctreeF32::from_bytes", restored) {
        checks.check(
            "from_bytes(to_bytes(tree)) == tree",
            same_leaves(&restored.snapshot(), &tree.snapshot()),
        );
    }
    layers.insert("octree.checkpoint_bytes", bytes.len() as f64);
    let mem = tree.memory_stats();
    layers.insert("octree.live_nodes", mem.live_nodes as f64);
    layers.insert("octree.heap_bytes", tree.heap_bytes() as f64);
    layers.insert("octree.bytes_per_node", mem.bytes_per_node());
    tree
}

/// Byte and call counts of an [`UnflushedDir`].
#[derive(Debug, Default)]
pub struct StoreCounts {
    pub append_bytes: AtomicU64,
    pub atomic_writes: AtomicU64,
    pub atomic_bytes: AtomicU64,
}

impl StoreCounts {
    pub fn get(v: &AtomicU64) -> u64 {
        v.load(Ordering::Relaxed)
    }

    pub fn bytes_written(&self) -> u64 {
        Self::get(&self.append_bytes) + Self::get(&self.atomic_bytes)
    }
}

/// A directory store that writes the files [`RealDir`] writes, the same
/// way (checkpoints to a temporary name, then renamed into place), but
/// leaves out the device flushes (`fsync`), and counts every byte.
///
/// The end-to-end runs keep the durable write path — WAL framing, the
/// group-commit thread, checkpoint serialization and file writes — but
/// not the disk's flush latency, which on a shared disk varied tenfold
/// from one run to the next. The traced replay measures that flush
/// separately (`durable.append_sync_us`, through a plain `RealDir`).
#[derive(Debug)]
pub struct UnflushedDir {
    root: PathBuf,
    inner: RealDir,
    counts: Arc<StoreCounts>,
}

impl UnflushedDir {
    pub fn create(root: &Path, counts: Arc<StoreCounts>) -> io::Result<Self> {
        Ok(UnflushedDir {
            root: root.to_owned(),
            inner: RealDir::create(root)?,
            counts,
        })
    }
}

struct UnflushedFile {
    inner: Box<dyn DurableFile>,
    counts: Arc<StoreCounts>,
}

// Relaxed throughout: the counters are statistics and publish no data.
impl DurableFile for UnflushedFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.counts
            .append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl DurableDir for UnflushedDir {
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.counts.atomic_writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .atomic_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        // Recovery ignores names with this prefix (`RealDir`'s own).
        let tmp = self.root.join(format!(".tmp-{name}"));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.root.join(name))
    }

    fn open_append(&self, name: &str) -> io::Result<Box<dyn DurableFile>> {
        Ok(Box::new(UnflushedFile {
            inner: self.inner.open_append(name)?,
            counts: Arc::clone(&self.counts),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// Total size of the WAL segments in `dir`, in bytes.
pub fn wal_bytes_on_disk(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_digest_sees_every_field() {
        let leaf = (VoxelKey::new(1, 2, 3), 16, 0.5f32);
        let base = leaf_digest(&[leaf]);
        assert_eq!(base, leaf_digest(&[leaf]));
        for changed in [
            (VoxelKey::new(1, 2, 4), 16, 0.5),
            (leaf.0, 15, 0.5),
            (leaf.0, 16, f32::from_bits(0.5f32.to_bits() + 1)),
        ] {
            assert_ne!(base, leaf_digest(&[changed]), "{changed:?}");
        }
        assert_ne!(base, leaf_digest(&[leaf, leaf]));
        assert_ne!(base, leaf_digest(&[]));
    }
}
