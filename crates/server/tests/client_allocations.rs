//! A warm client's heap allocations do not grow with the batch: it
//! encodes a batch's borrowed subject and paths in place into a send
//! buffer it keeps, and reads the answer into a buffer it keeps, so what
//! is left is the answer itself.
//!
//! A counting global allocator counts, per thread, only while that
//! thread's `WATCHED` flag is set, so the server's shard threads and
//! other tests running in parallel do not count.

use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet};
use extsec_mac::{Lattice, SecurityClass};
use extsec_namespace::{NodeKind, NsPath, Protection};
use extsec_refmon::{Decision, DenyReason, MonitorBuilder, ReferenceMonitor, Subject};
use extsec_server::{Client, ClientConfig, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAllocator;

thread_local! {
    /// Whether this thread's allocations are counted.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while watched.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if WATCHED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with this thread watched; returns the heap allocations it
/// made.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    WATCHED.with(|w| w.set(true));
    f();
    WATCHED.with(|w| w.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

/// `/data/f0` … `/data/f63` under a publicly visible `/data`, every
/// even-numbered leaf readable by alice: her reads are allowed or denied
/// for want of an entry, and neither decision carries a path.
fn world() -> (Arc<ReferenceMonitor>, Subject, Vec<(NsPath, AccessMode)>) {
    let lattice = Lattice::build(["low"], Vec::<&str>::new()).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let alice = builder.add_principal("alice").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/data"), NodeKind::Domain, &visible)?;
            for i in 0..64 {
                let leaf = ns.insert(
                    &p("/data"),
                    &format!("f{i}"),
                    NodeKind::Object,
                    Protection::default(),
                )?;
                if i % 2 == 0 {
                    ns.update_protection(leaf, |prot| {
                        prot.acl.push(AclEntry::allow_principal_modes(
                            alice,
                            ModeSet::parse("r").unwrap(),
                        ));
                    })?;
                }
            }
            Ok(())
        })
        .unwrap();
    let subject = Subject::new(alice, monitor.lattice(|l| l.parse_class("low").unwrap()));
    let items = (0..64)
        .map(|i| (p(&format!("/data/f{i}")), AccessMode::Read))
        .collect();
    (monitor, subject, items)
}

#[test]
fn a_warm_batch_allocates_the_same_at_16_and_64_items() {
    let (monitor, subject, items) = world();
    let server = Server::spawn(monitor, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), ClientConfig::default()).unwrap();
    // Warm up: the client's buffers reach the size a 64-item batch needs.
    for len in [64, 16, 64] {
        client.batch_check(&subject, &items[..len]).unwrap();
    }
    let mut counted = Vec::new();
    for len in [16, 64] {
        let mut decisions = Vec::new();
        let allocations = allocations_in(|| {
            decisions = client.batch_check(&subject, &items[..len]).unwrap();
        });
        let want: Vec<Decision> = (0..len)
            .map(|i| match i % 2 {
                0 => Decision::Allow,
                _ => Decision::Deny(DenyReason::DacNoEntry),
            })
            .collect();
        assert_eq!(decisions, want);
        counted.push(allocations);
    }
    assert_eq!(
        counted[0], counted[1],
        "a 16-item batch made {} allocations, a 64-item one {}",
        counted[0], counted[1]
    );
    server.shutdown();
}
