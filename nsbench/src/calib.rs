//! A fixed reference kernel that measures how fast this machine runs
//! right now: hash-map lookups at random keys in a table of about
//! 70 MiB, so hashing and cache misses as on the name server's check
//! path, in code that no change to the system under test can touch.
//!
//! On a shared virtual machine the same build ran 1.4× faster in some
//! minutes than in others, with little CPU time stolen: the host's other
//! tenants slow each instruction. Every load thread runs this kernel for
//! [`SLICE`] as it enters a measuring window, and the scaled figures
//! express that window's rates and latencies at [`REF_RATE`]. `NOTES.md`
//! gives the spreads with and without scaling.

use std::collections::HashMap;
use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The reference speed scaled figures are expressed at, in lookups per
/// CPU second on one thread: about what a 2-vCPU Xeon VM at 2.0 GHz did
/// in its faster minutes.
pub const REF_RATE: f64 = 6.0e6;
/// How long one speed measurement runs.
pub const SLICE: Duration = Duration::from_millis(10);

const ENTRIES: u64 = 1 << 21;
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

static TABLE: OnceLock<HashMap<u64, u64>> = OnceLock::new();

fn table() -> &'static HashMap<u64, u64> {
    TABLE.get_or_init(|| (0..ENTRIES).map(|k| (k.wrapping_mul(SPREAD), k)).collect())
}

/// Lookups per second of CPU time of the reference kernel, run for `dur`
/// of wall time. Per CPU second, so that time this thread spent
/// preempted by the system's own threads or stolen by the host does not
/// read as a slow machine. The first call builds the table.
pub fn rate(dur: Duration) -> f64 {
    let t = table();
    let start = Instant::now();
    let cpu = thread_cpu();
    let mut x = start.elapsed().as_nanos() as u64 | 1;
    let (mut n, mut acc) = (0u64, 0u64);
    loop {
        for _ in 0..256 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = (x >> 43).wrapping_mul(SPREAD);
            acc = acc.wrapping_add(t.get(&key).copied().unwrap_or(0));
        }
        n += 256;
        let elapsed = start.elapsed();
        if elapsed >= dur {
            black_box(acc);
            let ran = thread_cpu().saturating_sub(cpu);
            let secs = if ran.is_zero() { elapsed } else { ran };
            return n as f64 / secs.as_secs_f64();
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU time the calling thread has run, to the nanosecond; zero if the
/// clock cannot be read.
fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux) for the whole call, and clock_gettime writes nothing
    // else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    match (rc, u64::try_from(ts.tv_sec), u32::try_from(ts.tv_nsec)) {
        (0, Ok(secs), Ok(nanos)) => Duration::new(secs, nanos),
        _ => Duration::ZERO,
    }
}
