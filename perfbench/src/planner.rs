//! The planner request: what a motion planner asks a published map
//! snapshot for around the robot's pose — an occupancy batch over a
//! grid of voxel keys, a fan of query rays, and a sphere collision
//! probe (sizes: [`QueryShape`]).

use omu_geometry::{KeyConverter, Occupancy, Point3, VoxelKey};
use omu_map::{MapError, MapSnapshot};
use omu_octree::{OctreeF32, QueryCounters, RayCastResult};

use crate::harness::Layers;
use crate::inputs::{Pose, QueryShape, QueryTemplate, ROBOT_RADIUS};
use crate::trace::{traced, Tracer};

/// Query rays pass through unknown space (the planner asks what blocks
/// a straight path, not where knowledge ends).
const IGNORE_UNKNOWN: bool = true;

/// The first metric [`read_path_layers`] sets: a traced run takes the
/// read-path counters once, in its first measured round.
pub const NODE_VISITS: &str = "query.node_visits_per_probe";

/// Everything one request returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    pub occupancy: Vec<Occupancy>,
    pub rays: Vec<RayCastResult>,
    pub collides: bool,
}

/// One request's inputs, resolved against a map's key converter.
#[derive(Debug)]
pub struct Request {
    pub keys: Vec<VoxelKey>,
    pub rays: Vec<(Point3, Point3)>,
    pub sphere_center: Point3,
}

impl Request {
    /// The request of a robot at `pose` heading for `next`, sized by
    /// `shape` and placed by `template`.
    pub fn at(
        conv: &KeyConverter,
        shape: &QueryShape,
        (origin, yaw): Pose,
        next: Point3,
        template: &QueryTemplate,
    ) -> Result<Self, MapError> {
        let center = conv.coord_to_key(origin)?;
        let shift = |c: u16, d: i32| c.wrapping_add_signed(d as i16);
        let (cell, half) = (shape.cell(), shape.half_cells());
        let [gx, gy] = template.grid_offset;
        let mut keys = Vec::with_capacity(shape.keys());
        for i in -half..=half {
            keys.extend((-half..=half).map(|j| {
                VoxelKey::new(
                    shift(center.x, i * cell + gx),
                    shift(center.y, j * cell + gy),
                    center.z,
                )
            }));
        }
        let n = shape.rays();
        let rays = (0..n)
            .map(|k| {
                let az = yaw - shape.azimuth_fov / 2.0
                    + shape.azimuth_fov * (k as f64 + 0.5) / n as f64
                    + template.fan_offset;
                (origin, Point3::new(az.cos(), az.sin(), 0.0))
            })
            .collect();
        Ok(Request {
            keys,
            rays,
            sphere_center: next,
        })
    }
}

/// Serves `request` from `snapshot` through the public snapshot API,
/// with one span per call when tracing.
pub fn serve(
    snapshot: &MapSnapshot,
    shape: &QueryShape,
    request: &Request,
    tracer: Option<&Tracer>,
    id: u64,
    parent: Option<u64>,
) -> Result<Answers, MapError> {
    let occupancy = traced(tracer, "query.occupancy_batch", id, parent, |_| {
        snapshot.occupancy_batch_keys(&request.keys)
    });
    let rays = traced(tracer, "query.cast_rays", id, parent, |_| {
        snapshot.cast_rays(&request.rays, shape.range, IGNORE_UNKNOWN)
    })?;
    let collides = traced(tracer, "query.collides_sphere", id, parent, |_| {
        snapshot.collides_sphere(request.sphere_center, ROBOT_RADIUS)
    })?;
    Ok(Answers {
        occupancy,
        rays,
        collides,
    })
}

/// The same request answered by a directly built tree — the reference
/// the served answers are checked against.
pub fn reference(
    tree: &OctreeF32,
    shape: &QueryShape,
    request: &Request,
) -> Result<Answers, MapError> {
    Ok(Answers {
        occupancy: request.keys.iter().map(|&k| tree.occupancy(k)).collect(),
        rays: request
            .rays
            .iter()
            .map(|&(o, d)| tree.cast_ray(o, d, shape.range, IGNORE_UNKNOWN))
            .collect::<Result<_, _>>()?,
        collides: tree.collides_sphere(request.sphere_center, ROBOT_RADIUS)?,
    })
}

/// Read-path counters of `requests` through a cached-descent snapshot
/// reader (untimed): node visits per probe and the share of descent
/// levels reused from the cached path.
pub fn read_path_layers(
    snapshot: &MapSnapshot,
    shape: &QueryShape,
    requests: &[Request],
    layers: &mut Layers,
) {
    let MapSnapshot::Software(snap) = snapshot else {
        return;
    };
    let mut total = QueryCounters::default();
    for request in requests {
        let mut reader = snap.reader();
        let mut out = Vec::new();
        reader.query_batch(&request.keys, &mut out);
        for &(o, d) in &request.rays {
            let _ = reader.cast_ray(o, d, shape.range, IGNORE_UNKNOWN);
        }
        let _ = reader.collides_sphere(request.sphere_center, ROBOT_RADIUS);
        total.merge(reader.counters());
    }
    layers.insert(
        NODE_VISITS,
        total.node_visits as f64 / total.probes.max(1) as f64,
    );
    layers.insert("query.reused_level_share", total.prefix_reuse_rate());
}

#[cfg(test)]
mod tests {
    use super::*;
    use omu_datasets::DatasetKind;

    use crate::inputs::{query_template, RESOLUTION};

    #[test]
    fn request_follows_the_shape() {
        let shape = QueryShape::of(DatasetKind::NewCollege);
        let conv = KeyConverter::new(RESOLUTION).unwrap();
        let (origin, next) = (Point3::new(1.0, 2.0, 0.5), Point3::new(1.5, 2.0, 0.5));
        let template = query_template(&shape, 9, 0);
        let request = Request::at(&conv, &shape, (origin, 0.3), next, &template).unwrap();
        assert_eq!(request.keys.len(), shape.keys());
        assert_eq!(request.rays.len(), shape.rays());
        assert_eq!(request.sphere_center, next);
        let center = conv.coord_to_key(origin).unwrap();
        assert!(request.keys.iter().all(|k| k.z == center.z));
        let reach = (shape.half_cells() * shape.cell() + shape.cell()) as u16;
        assert!(request
            .keys
            .iter()
            .all(|k| k.x.abs_diff(center.x) <= reach && k.y.abs_diff(center.y) <= reach));
        for &(o, d) in &request.rays {
            assert_eq!(o, origin);
            assert!((d.norm() - 1.0).abs() < 1e-9 && d.z == 0.0);
        }
    }
}
