//! What every workload shares: the run context, the outcome of a
//! measured run, operation accounting, and process measurements.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use omu_geometry::Scan;
use omu_map::{MapError, MapService, MapSnapshot, ServiceStats};

use crate::stats;
use crate::trace::{traced, Tracer};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Settings of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of one measured run (rounds repeat until it is over).
    pub seconds: f64,
    /// Scratch directory (durable stores, traces) inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh, empty subdirectory of the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .expect("scratch directory inside the checkout must be writable");
        dir
    }
}

/// One metric of the human-readable report, named as in the benchmark's
/// documentation (`ack_ms_p50`, `query_us_tail`, `sim_fps`, …).
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Operations attempted and failed, with the first failures described.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// True once any correctness check (as opposed to an operation
    /// error) failed: the run is then wrong, not merely degraded.
    pub mismatch: bool,
}

impl Checks {
    /// Counts one operation; `Err` counts it failed.
    pub fn op<T, E: std::fmt::Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.mismatch = true;
            self.fail(format!("correctness check failed: {what}"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatch |= other.mismatch;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// One round: a fresh set-up followed by a fixed amount of foreground
/// work. Rounds repeat until the run's time is up; every timing metric
/// is computed per window (a round, or a fixed slice of one) and
/// reported as the median over windows.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Spawn / recover / build up to the first acknowledged request.
    pub setup_s: f64,
    /// Latency of each foreground request after set-up, in ms.
    pub latencies_ms: Vec<f64>,
}

/// Per-window statistics of a latency sample (a window is a round, or a
/// fixed slice of one), aggregated over windows by the median.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub windows: usize,
    pub p50: f64,
    /// Median over windows of each window's tail (the highest
    /// percentile with ten samples beyond it).
    pub tail: f64,
    pub tail_percentile: f64,
    /// Median request count per window.
    pub samples: f64,
    /// Median over windows of requests per second of request time.
    pub throughput: f64,
}

impl Summary {
    pub fn of(windows: &[&[f64]]) -> Self {
        let per = |f: &dyn Fn(&[f64]) -> Option<f64>| -> f64 {
            stats::median(&windows.iter().filter_map(|w| f(w)).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        Summary {
            windows: windows.len(),
            p50: per(&stats::median),
            tail: per(&|r| stats::tail(r).map(|t| t.value)),
            tail_percentile: per(&|r| stats::tail(r).map(|t| t.percentile)),
            samples: per(&|r| Some(r.len() as f64)),
            throughput: per(&|r| {
                let busy_s = r.iter().sum::<f64>() / 1e3;
                (busy_s > 0.0).then(|| r.len() as f64 / busy_s)
            }),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "median over {} windows; tail p{:.2} of {:.0} per window, 10 beyond",
            self.windows, self.tail_percentile, self.samples
        )
    }
}

/// The outcome of one measured run of a workload.
#[derive(Debug, Default)]
pub struct Live {
    pub rounds: Vec<Round>,
    /// Requests per statistics window, when a round holds several
    /// (`None`: each round is one window).
    pub window: Option<usize>,
    pub checks: Checks,
    /// The documented per-workload metrics, for the readable report.
    pub named: Vec<Named>,
    /// Per-layer values measured during this run.
    pub layers: Layers,
    /// Peak resident memory the timed run added ([`RssMark`]), in MB.
    pub peak_rss_mb: f64,
    /// Set-up times measured outside the rounds (after the timed run),
    /// so that `setup_s` is a median of many set-ups even when a run
    /// holds few rounds.
    pub extra_setups_s: Vec<f64>,
}

impl Live {
    pub fn summary(&self) -> Summary {
        let windows: Vec<&[f64]> = self
            .rounds
            .iter()
            .flat_map(|r| match self.window {
                Some(w) => r.latencies_ms.chunks_exact(w).collect(),
                None => vec![r.latencies_ms.as_slice()],
            })
            .collect();
        Summary::of(&windows)
    }

    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setups()).unwrap_or(0.0)
    }

    /// Every set-up time of the run: one per round, then the extra ones.
    pub fn setups(&self) -> Vec<f64> {
        let rounds = self.rounds.iter().map(|r| r.setup_s);
        rounds.chain(self.extra_setups_s.iter().copied()).collect()
    }

    pub fn name(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named.push(Named {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Names `<prefix>_p50` and `<prefix>_tail` of a summary taken in
    /// ms, scaled by `scale` into `unit`.
    pub fn name_timing(&mut self, prefix: &str, s: &Summary, unit: &'static str, scale: f64) {
        self.name(&format!("{prefix}_p50"), s.p50 * scale, unit, "");
        self.name(
            &format!("{prefix}_tail"),
            s.tail * scale,
            unit,
            s.describe(),
        );
    }
}

/// A workload: its inputs are generated once by its constructor, then
/// it can be measured (traced or not) and decomposed layer by layer.
pub trait Workload {
    /// One measured run of `ctx.seconds`, through the production API.
    fn live(&self, ctx: &Ctx, tracer: Option<&Tracer>) -> Live;

    /// The traced single-thread replay of the same inputs through each
    /// layer's public functions; fills `layers` and counts its checks.
    fn replay(&self, ctx: &Ctx, tracer: &Tracer, layers: &mut Layers, checks: &mut Checks);
}

/// One acknowledged scan: `ingest` then `flush`, the writer client's
/// request. Returns the snapshot the flush published.
pub fn ack(
    service: &MapService,
    scan: Scan,
    request: u64,
    tracer: Option<&Tracer>,
) -> Result<MapSnapshot, MapError> {
    traced(tracer, "ack", request, None, |p| {
        traced(tracer, "map.ingest", request, p, |_| service.ingest(scan))
            .and_then(|()| traced(tracer, "map.flush", request, p, |_| service.flush()))
    })
}

/// Scans the service applied per publish (its first, empty publish at
/// spawn excluded).
pub fn scans_per_publish(stats: &ServiceStats) -> f64 {
    stats.scans_ingested as f64 / stats.publishes.saturating_sub(1).max(1) as f64
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A field of `/proc/self/status` given in kB, in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only returns
    // free heap pages to the kernel; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// The memory a timed run adds on top of what was resident when it
/// began: the prepared inputs stay out of the figure, and so does every
/// reference a workload builds for its checks (those are built before
/// the mark with their memory returned, or after the peak is read).
#[derive(Debug, Clone, Copy)]
pub struct RssMark {
    base_mb: f64,
}

impl RssMark {
    /// Returns freed heap to the kernel, resets the process's
    /// high-water mark (`VmHWM`) to the current resident set, and
    /// remembers that resident set.
    pub fn start() -> Self {
        release_free_heap();
        // "5" resets the peak resident set size (Linux 4.0+).
        if std::fs::write("/proc/self/clear_refs", "5").is_err() {
            eprintln!("warning: could not reset VmHWM; peak_rss_mb includes the preparation");
        }
        RssMark {
            base_mb: status_mb("VmRSS:").unwrap_or(0.0),
        }
    }

    /// Peak resident set since [`RssMark::start`], minus the resident
    /// set at that moment, in MB.
    pub fn peak_mb(&self) -> f64 {
        status_mb("VmHWM:").map_or(0.0, |hwm| hwm - self.base_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_the_median_over_rounds() {
        // Three rounds of 20 requests: round k takes k+1 ms per request,
        // except one slow request per round.
        let rounds: Vec<Vec<f64>> = (1..=3)
            .map(|k| {
                let mut r = vec![k as f64; 20];
                r[0] = 100.0;
                r
            })
            .collect();
        let refs: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        let s = Summary::of(&refs);
        assert_eq!(s.windows, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail, 2.0, "the slow request is one of the ten beyond");
        assert_eq!(s.tail_percentile, 50.0);
        assert_eq!(s.samples, 20.0);
        // Round 2: 20 requests in (19 * 2 + 100) ms.
        assert!((s.throughput - 20.0 / 0.138).abs() < 1e-9);
    }

    #[test]
    fn checks_count_operations_and_mismatches() {
        let mut c = Checks::default();
        c.op::<(), &str>("ok", Ok(()));
        c.op::<(), &str>("bad", Err("boom"));
        assert!(
            !c.mismatch,
            "an operation error is a failure, not a mismatch"
        );
        c.check("equal", false);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.mismatch);
    }
}
