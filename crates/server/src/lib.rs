//! The networked name-server front end.
//!
//! The paper's architecture puts one reference monitor behind one name
//! server and routes *every* access through it (§2.3). This crate puts
//! that facility on the wire: a TCP server that exposes the monitor's
//! read API — check, batched check, list, explain, telemetry — through a
//! versioned, length-prefixed binary protocol, plus the client library
//! to drive it.
//!
//! The interesting properties live at the joints:
//!
//! - **Batching meets snapshots.** A request's checks run on the shard
//!   thread's pin on the monitor's published state, not on an `Arc` of
//!   it. A `BatchCheck` frame is answered in one
//!   [`ReferenceMonitor::view`](extsec_refmon::ReferenceMonitor::view)
//!   closure: a 64-check batch validates its subject once and its
//!   decisions are mutually consistent — they all describe the same
//!   published policy state, even while an administrator is revoking
//!   permissions concurrently.
//! - **The decoder is a perimeter.** The server parses attacker-supplied
//!   bytes with the same discipline the module verifier applies to
//!   untrusted code (`extsec_vm::wire`): every length bounded before
//!   allocation, every tag validated, malformed input answered with a
//!   typed error frame and never a panic.
//! - **Backpressure is accounted, not improvised.** A bounded accept
//!   queue, per-connection timeouts, frame and batch ceilings — each
//!   refusal increments a counter in [`ServerTelemetry`]. The wire
//!   `Telemetry` reply is one [`Metrics`](extsec_telemetry::Metrics):
//!   the monitor's dotted names (`refmon.*`, `audit.*`, `ext.*`) and
//!   the server's (`server.*`) in one document.
//!
//! **Trust model.** The server authenticates nothing: the client's
//! claimed principal and class are taken at face value (the class is
//! validated against the lattice, not attributed). The paper leaves
//! distributed authentication to future work, and so does this
//! reproduction — the server is a *policy evaluation* front end for
//! trusted callers (load generators, operators, sidecars), not an
//! authentication boundary. See DESIGN.md §6.9.
//!
//! # Quick start
//!
//! ```
//! use extsec_refmon::{MonitorBuilder, Subject};
//! use extsec_mac::Lattice;
//! use extsec_server::{Client, ClientConfig, Server, ServerConfig};
//!
//! let lattice = Lattice::build(["user", "system"], ["net"]).unwrap();
//! let mut builder = MonitorBuilder::new(lattice);
//! let alice = builder.add_principal("alice").unwrap();
//! let monitor = builder.build();
//!
//! let server = Server::spawn(monitor.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
//!
//! let subject = Subject::new(alice, monitor.lattice(|l| l.parse_class("user").unwrap()));
//! let decision = client
//!     .check(&subject, &"/svc".parse().unwrap(), extsec_acl::AccessMode::Read)
//!     .unwrap();
//! assert!(!decision.allowed()); // nothing granted yet
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.accepted, stats.closed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod proto;
mod reactor;
pub mod server;
pub mod telemetry;

pub use client::{Client, ClientConfig, ClientError, ClientStats};
pub use proto::{
    BatchItem, ErrorCode, Frame, FrameError, Opcode, ProtoError, Request, Response, MAX_AUDIT_GAPS,
    MAX_AUDIT_RECORDS, MAX_AUDIT_SEGMENTS, MAX_BATCH, MAX_FRAME, VERSION,
};
pub use server::{Server, ServerConfig};
pub use telemetry::{OpcodeCount, ServerTelemetry, ServerTelemetrySnapshot};
