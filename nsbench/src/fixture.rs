//! Building a workload's world: the generated campus, the audit
//! pipeline, the extension scaffold and the wire server. This is what
//! `setup_s` times.

use crate::calib;
use crate::gen::Shape;
use crate::stats;
use extsec_campaign::{Profile, World, WorldSpec};
use extsec_core::ext::ExtensionId;
use extsec_core::services::ClockService;
use extsec_core::{
    AccessMode, AclEntry, AuditPipeline, ExtensionManifest, MonitorConfig, NsPath, Origin,
    PipelineConfig, SecurityClass, Subject,
};
use extsec_server::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Ordinary principals in every workload's world.
pub const PRINCIPALS: usize = 100_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// The extensible interface: the clock's `now`, specialized by one calm
/// extension for callers at or above `internal`.
pub const INTERFACE: &str = "/svc/clock/now";
/// Crosses its syscall gate into the clock's `ticks` (not extended, so
/// answered by the base service) and returns `-(ticks) - 1`: a
/// specialized call answers below zero, the base `now` above it.
pub const SPECIALIZATION_SRC: &str = "module nsbench_spec
import ticks = \"/svc/clock/ticks\" () -> int
func main() -> int
  push_int 0
  syscall ticks
  sub
  push_int 1
  sub
  ret
end
export main = main
";

/// The extension half of the world.
pub struct ExtScaffold {
    pub interface: NsPath,
    pub ext: ExtensionId,
    /// Callers whose class dominates this select the specialization.
    pub spec_class: SecurityClass,
    pub clock: Arc<ClockService>,
}

impl ExtScaffold {
    /// Mounts the clock service, marks `now` extensible and registers
    /// the calm specialization on it.
    pub fn install(world: &World) -> Result<ExtScaffold, String> {
        let monitor = &world.monitor;
        ClockService::install_public(monitor).map_err(|e| format!("clock install: {e}"))?;
        let clock = Arc::new(ClockService::new());
        world.runtime.mount_service(
            extsec_core::services::clock::CLOCK_SERVICE
                .parse()
                .map_err(|e| format!("{e}"))?,
            Arc::clone(&clock) as Arc<dyn extsec_core::Service>,
        );
        let interface: NsPath = INTERFACE.parse().map_err(|e| format!("{e}"))?;
        let admin = world.admin;
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&interface)?;
                ns.set_extensible(id, true)?;
                ns.update_protection(id, |p| {
                    p.acl
                        .push(AclEntry::allow_principal(admin, AccessMode::Extend))
                })
            })
            .map_err(|e| format!("interface: {e}"))?;
        let spec_class = monitor
            .lattice(|l| l.parse_class("internal"))
            .map_err(|e| format!("{e}"))?;
        let module = extsec_core::vm::asm::assemble(SPECIALIZATION_SRC)
            .map_err(|e| format!("specialization source: {e}"))?;
        let ext = world
            .runtime
            .load(
                module,
                ExtensionManifest {
                    name: "nsbench-spec".into(),
                    principal: admin,
                    origin: Origin::Local,
                    static_class: Some(spec_class.clone()),
                },
            )
            .map_err(|e| format!("load: {e}"))?;
        world
            .runtime
            .extend(ext, &interface, "main")
            .map_err(|e| format!("extend: {e}"))?;
        Ok(ExtScaffold {
            interface,
            ext,
            spec_class,
            clock,
        })
    }
}

/// Which optional parts a workload's world has.
#[derive(Clone, Copy)]
pub struct Parts {
    /// The audit ring on, with the persistent pipeline attached.
    pub audit: bool,
    pub ext: bool,
    pub server: bool,
}

/// A persistent audit pipeline over a fresh directory inside the
/// benchmark's own directory, removed again when dropped.
///
/// On disk rather than in memory: the log grows by ~25 MB for every
/// second of `local_mix`, which in memory would make `peak_rss_mib` track
/// how many decisions were audited instead of what the system holds.
pub struct AuditDir {
    pub pipeline: Arc<AuditPipeline>,
    dir: PathBuf,
}

impl AuditDir {
    fn create() -> Result<AuditDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "audit.{}.{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let pipeline = AuditPipeline::open_dir(&dir, PipelineConfig::default())
            .map_err(|e| format!("audit pipeline in {}: {e}", dir.display()))?;
        Ok(AuditDir {
            pipeline: Arc::new(pipeline),
            dir,
        })
    }
}

impl Drop for AuditDir {
    fn drop(&mut self) {
        self.pipeline.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A built world plus what the workload attached to it.
pub struct Fixture {
    pub world: World,
    pub ext: Option<ExtScaffold>,
    pub server: Option<Server>,
    /// One subject per principal, built after set-up so the load loops
    /// hand the monitor a ready subject.
    pub subjects: Vec<Subject>,
    /// Last, so the world and server let go of the monitor first.
    pub audit: Option<AuditDir>,
}

impl Fixture {
    fn build(seed: u64, parts: Parts) -> Result<Fixture, String> {
        let world = World::build(&WorldSpec::scaled(Profile::Campus, PRINCIPALS, seed));
        if !parts.audit {
            world.monitor.set_config(MonitorConfig {
                audit: false,
                ..world.monitor.config()
            });
        }
        // Attach before anything is audited, so every sequence number
        // the ring hands out is offered to the pipeline.
        let audit = if parts.audit {
            let audit = AuditDir::create()?;
            world
                .monitor
                .attach_audit_pipeline(Arc::clone(&audit.pipeline));
            Some(audit)
        } else {
            None
        };
        let ext = if parts.ext {
            Some(ExtScaffold::install(&world)?)
        } else {
            None
        };
        let server = if parts.server {
            Some(spawn_server(&world)?)
        } else {
            None
        };
        Ok(Fixture {
            world,
            ext,
            server,
            subjects: Vec::new(),
            audit,
        })
    }

    /// Builds the world [`SETUP_REPS`] times, each after dropping the
    /// previous one, and keeps the last. Returns it with the median
    /// set-up time in seconds, each scaled to the reference speed the
    /// kernel measured just before and after that set-up.
    pub fn timed(seed: u64, parts: Parts) -> Result<(Fixture, f64), String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut fixture = None;
        calib::rate(calib::SLICE);
        for _ in 0..SETUP_REPS {
            drop(fixture.take());
            let before = calib::rate(calib::SLICE);
            let start = Instant::now();
            fixture = Some(Fixture::build(seed, parts)?);
            let secs = start.elapsed().as_secs_f64();
            let speed = (before + calib::rate(calib::SLICE)) / 2.0;
            times.push(secs * speed / calib::REF_RATE);
        }
        let mut fixture = fixture.expect("SETUP_REPS > 0");
        fixture.subjects = (0..fixture.world.principals.len())
            .map(|i| fixture.world.subject(i))
            .collect();
        Ok((fixture, stats::median(&mut times)))
    }

    pub fn shape(&self) -> Shape {
        Shape {
            principals: self.world.principals.len(),
            leaves: self.world.leaves.len(),
            domains: self.world.domains.len(),
        }
    }
}

/// The wire front end over `world`'s monitor: one shard per core.
pub fn spawn_server(world: &World) -> Result<Server, String> {
    Server::spawn(
        Arc::clone(&world.monitor),
        "127.0.0.1:0",
        ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server spawn: {e}"))
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
