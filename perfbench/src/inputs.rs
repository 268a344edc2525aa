//! Seeded input generation. Everything a workload feeds the program —
//! scans and planner query sets — is made here from the workload seed,
//! before any timing starts; the program under test only ever sees the
//! generated values.

use omu_datasets::{Dataset, DatasetKind};
use omu_geometry::{Point3, Scan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An RNG for stream `stream` of `seed`: independent streams per scan
/// and per query set, so one input never depends on how many others
/// were drawn before it.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Map resolution of every workload (the paper's 0.2 m).
pub const RESOLUTION: f64 = 0.2;

/// A dataset's scans at the given trajectory indices, with sensor noise
/// drawn from `seed`. `poses` of the trajectory are spread over its
/// whole length.
pub fn scans(
    kind: DatasetKind,
    seed: u64,
    poses: usize,
    take: impl Iterator<Item = usize>,
) -> Vec<Scan> {
    let dataset = dataset(kind);
    let trajectory = dataset.trajectory().poses(poses);
    take.map(|i| {
        let (origin, yaw) = trajectory[i];
        dataset
            .scanner()
            .scan(dataset.scene(), origin, yaw, &mut rng(seed, i as u64))
    })
    .collect()
}

/// A trajectory pose: sensor origin and heading (yaw, radians).
pub type Pose = (Point3, f64);

/// `poses` trajectory poses spread over the whole run.
pub fn poses(kind: DatasetKind, poses: usize) -> Vec<Pose> {
    dataset(kind).trajectory().poses(poses)
}

fn dataset(kind: DatasetKind) -> Dataset {
    // Scene, scanner and trajectory do not depend on the scan count;
    // the smallest build avoids computing a large pose table twice.
    kind.build_scaled(f64::MIN_POSITIVE)
}

/// The mapping range of a dataset (OctoMap `maxrange`).
pub fn max_range(kind: DatasetKind) -> f64 {
    kind.spec().max_range
}

/// Radius of the robot a planner checks: the 0.3 m the repository's
/// planner-style examples probe with (`examples/collision_detection.rs`,
/// `examples/service.rs`).
pub const ROBOT_RADIUS: f64 = 0.3;

/// The size of a planner request on one dataset. Nothing in it is
/// free: it follows from the dataset's mapping range, its sensor's field
/// of view and the robot radius.
///
/// - Probe grid: a square of voxel keys at the pose's height, out to the
///   mapping range on every side, one key per robot diameter — the cells
///   of a local planner's costmap at robot resolution.
/// - Ray fan: horizontal rays over the sensor's azimuth field of view,
///   as long as the mapping range, spaced so that at that range adjacent
///   rays end at most one robot diameter apart (nothing robot-sized fits
///   between them).
/// - Collision probe: one sphere of the robot radius at the robot's next
///   trajectory pose.
#[derive(Debug, Clone, Copy)]
pub struct QueryShape {
    /// Mapping range (OctoMap `maxrange`), in metres.
    pub range: f64,
    /// Azimuth field of view of the dataset's sensor, in radians.
    pub azimuth_fov: f64,
}

impl QueryShape {
    pub fn of(kind: DatasetKind) -> Self {
        QueryShape {
            range: max_range(kind),
            azimuth_fov: dataset(kind).scanner().pattern().azimuth_fov,
        }
    }

    /// Probe-grid pitch in voxels: one robot diameter.
    pub fn cell(&self) -> i32 {
        (2.0 * ROBOT_RADIUS / RESOLUTION).round() as i32
    }

    /// Probe-grid half-width in cells: out to the mapping range.
    pub fn half_cells(&self) -> i32 {
        // The epsilon keeps 4.6 m / 0.2 m at 23 voxels, not 22.999….
        (self.range / RESOLUTION + 1e-9) as i32 / self.cell()
    }

    /// Probe keys per request.
    pub fn keys(&self) -> usize {
        let side = 2 * self.half_cells() as usize + 1;
        side * side
    }

    /// Rays per fan.
    pub fn rays(&self) -> usize {
        (self.azimuth_fov * self.range / (2.0 * ROBOT_RADIUS)).ceil() as usize
    }
}

/// The seeded part of one planner request: where, within one grid cell
/// and one ray spacing, its probe grid and ray fan sit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryTemplate {
    /// Offset of the probe grid from the pose key, in voxels (x, y).
    pub grid_offset: [i32; 2],
    /// Rotation of the ray fan, in radians.
    pub fan_offset: f64,
}

/// Request template `index` of `seed` (each from its own RNG stream).
pub fn query_template(shape: &QueryShape, seed: u64, index: u64) -> QueryTemplate {
    let mut rng = rng(seed, 1 << 63 | index);
    let cell = shape.cell();
    let spacing = shape.azimuth_fov / shape.rays() as f64;
    QueryTemplate {
        grid_offset: [rng.random_range(0..cell), rng.random_range(0..cell)],
        fan_offset: rng.random_range(-spacing / 2.0..spacing / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = scans(DatasetKind::NewCollege, 7, 1000, 0..3);
        let b = scans(DatasetKind::NewCollege, 7, 1000, 0..3);
        assert_eq!(a, b);
        let c = scans(DatasetKind::NewCollege, 8, 1000, 0..3);
        assert_ne!(a, c, "the seed sets the sensor noise");
    }

    #[test]
    fn templates_follow_the_seed() {
        let shape = QueryShape::of(DatasetKind::NewCollege);
        assert_eq!(query_template(&shape, 1, 5), query_template(&shape, 1, 5));
        assert_ne!(query_template(&shape, 1, 5), query_template(&shape, 2, 5));
    }

    #[test]
    fn request_sizes_follow_the_dataset() {
        // New College: 4.6 m range, 90° sensor; 0.2 m voxels, 0.6 m robot.
        let college = QueryShape::of(DatasetKind::NewCollege);
        assert_eq!(college.cell(), 3);
        assert_eq!(college.half_cells(), 7, "23 voxels of range / 3");
        assert_eq!(college.keys(), 15 * 15);
        assert_eq!(college.rays(), 13, "(pi/2 * 4.6 m) / 0.6 m, rounded up");
        // Freiburg campus: 15.5 m range, full-turn sensor.
        let campus = QueryShape::of(DatasetKind::FreiburgCampus);
        assert_eq!(campus.keys(), 51 * 51);
        assert_eq!(campus.rays(), 163, "(2 pi * 15.5 m) / 0.6 m, rounded up");
    }
}
