//! The seeded workload generator shared by the workloads and the layer
//! probes.
//!
//! Every input the system under test receives comes from here, as a
//! function of the `--seed` argument alone: the Zipf-skewed
//! (principal, leaf, mode) streams, the wire batch-size mix and the
//! probes' write schedule. Nothing reads the system's state to decide
//! what to send next, so equal seeds give byte-identical op streams (see
//! [`digest`] and the tests below).

use extsec_core::AccessMode;
use std::collections::HashMap;

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one run.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// A Zipf distribution over `n` items with exponent `s`. Ranks map to
/// items through a permutation drawn from `rng`, so the hot items are
/// scattered over the world instead of being its first indices.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        assert!(
            n > 0 && n <= u32::MAX as usize,
            "zipf over 1..=u32::MAX items"
        );
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        let mut items: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            items.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.items[rank] as usize
    }
}

/// The dimensions of a generated world the streams index into.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub principals: usize,
    pub leaves: usize,
    /// Leaf `i` lives in domain `i % domains`; domains `8k..8k+8` share
    /// a parent directory.
    pub domains: usize,
}

/// What one local-mix op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `ReferenceMonitor::check(principal, leaf, mode)`.
    Check,
    /// `ExtRuntime::call` on the extensible interface as `principal`.
    Call,
}

/// One generated in-process op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub principal: u32,
    pub leaf: u32,
    pub mode: AccessMode,
}

/// One generated wire request: a single `Check` when it has one item,
/// else a `BatchCheck`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireReq {
    pub principal: u32,
    pub items: Vec<(u32, AccessMode)>,
}

/// One scheduled policy write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Write {
    /// Guarded `set_acl` adding a read grant for `principal`.
    Grant { leaf: u32, principal: u32 },
    /// Guarded `set_acl` restoring the leaf's ACL from before its grant.
    Revoke { leaf: u32, principal: u32 },
    /// `stage_bundle` → `activate_bundle` → `rollback` of a bundle that
    /// adds a read grant for `principal`.
    Bundle { leaf: u32, principal: u32 },
}

/// Share of local-mix ops that are extension calls, in percent.
pub const CALL_PERCENT: usize = 10;
/// Wire batch sizes, drawn with equal shares.
pub const BATCH_SIZES: [usize; 3] = [1, 16, 64];
/// Every `BUNDLE_EVERY`th write is a bundle cycle.
pub const BUNDLE_EVERY: usize = 10;

/// The one Zipf exponent of every skewed draw: principals, leaves and
/// the sibling groups of a wire batch. No trace of this system's traffic
/// exists to fit it to; 1.0 is Zipf's law in its classic form.
pub const ZIPF_S: f64 = 1.0;
/// Seeds the rank → item permutations. Which principals and leaves are
/// hot is the same on every run; `--seed` draws the sequence of ops from
/// them. With a seeded permutation the few hottest items, whose
/// decisions differ in cost, made throughput differ by seed more than
/// by run.
const HOT_ITEMS: u64 = 0x5eed;

/// The access mode of a generated op: Read, Execute and Write with equal
/// shares.
fn mode(rng: &mut Rng) -> AccessMode {
    [AccessMode::Read, AccessMode::Execute, AccessMode::Write][rng.below(3)]
}

struct Skew {
    principals: Zipf,
    leaves: Zipf,
}

impl Skew {
    fn new(shape: Shape, rng: &mut Rng) -> Skew {
        Skew {
            principals: Zipf::new(shape.principals, ZIPF_S, rng),
            leaves: Zipf::new(shape.leaves, ZIPF_S, rng),
        }
    }

    fn op(&self, kind: OpKind, rng: &mut Rng) -> Op {
        Op {
            kind,
            principal: self.principals.sample(rng) as u32,
            leaf: self.leaves.sample(rng) as u32,
            mode: mode(rng),
        }
    }
}

/// The local-mix stream of caller `thread`: Zipf checks with
/// [`CALL_PERCENT`] extension calls mixed in.
pub fn local_stream(seed: u64, thread: usize, shape: Shape, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x10 + thread as u64);
    let skew = Skew::new(shape, &mut Rng::new(HOT_ITEMS, 1));
    (0..len)
        .map(|_| {
            let kind = if rng.below(100) < CALL_PERCENT {
                OpKind::Call
            } else {
                OpKind::Check
            };
            skew.op(kind, &mut rng)
        })
        .collect()
}

/// A pool of wire requests for connection `thread`, each of a size drawn
/// from [`BATCH_SIZES`]. A batch's leaves come from one Zipf-chosen group
/// of eight sibling domains, so its paths share ancestors.
pub fn wire_pool(seed: u64, thread: usize, shape: Shape, len: usize) -> Vec<WireReq> {
    let mut rng = Rng::new(seed, 0x30 + thread as u64);
    let skew = Skew::new(shape, &mut Rng::new(HOT_ITEMS, 1));
    let groups = shape.domains.div_ceil(8);
    let group_skew = Zipf::new(groups, ZIPF_S, &mut Rng::new(HOT_ITEMS, 2));
    (0..len)
        .map(|_| {
            let size = BATCH_SIZES[rng.below(BATCH_SIZES.len())];
            let group = group_skew.sample(&mut rng);
            let mut leaves: Vec<u32> = (group * 8..(group * 8 + 8).min(shape.domains))
                .flat_map(|d| (d..shape.leaves).step_by(shape.domains))
                .map(|leaf| leaf as u32)
                .collect();
            for i in (1..leaves.len()).rev() {
                leaves.swap(i, rng.below(i + 1));
            }
            WireReq {
                principal: skew.principals.sample(&mut rng) as u32,
                items: (0..size)
                    .map(|i| (leaves[i % leaves.len()], mode(&mut rng)))
                    .collect(),
            }
        })
        .collect()
}

/// A write schedule: grant/revoke toggles on Zipf-chosen leaves (a leaf
/// with an outstanding grant is revoked next time it comes up), with a
/// bundle cycle as every [`BUNDLE_EVERY`]th write.
pub fn write_schedule(seed: u64, shape: Shape, len: usize) -> Vec<Write> {
    let mut rng = Rng::new(seed, 0x40);
    let skew = Skew::new(shape, &mut Rng::new(HOT_ITEMS, 1));
    let mut granted: HashMap<u32, u32> = HashMap::new();
    (0..len)
        .map(|k| {
            let leaf = skew.leaves.sample(&mut rng) as u32;
            if k % BUNDLE_EVERY == BUNDLE_EVERY - 1 {
                let principal = skew.principals.sample(&mut rng) as u32;
                return Write::Bundle { leaf, principal };
            }
            match granted.remove(&leaf) {
                Some(principal) => Write::Revoke { leaf, principal },
                None => {
                    let principal = skew.principals.sample(&mut rng) as u32;
                    granted.insert(leaf, principal);
                    Write::Grant { leaf, principal }
                }
            }
        })
        .collect()
}

/// FNV-1a over a stream's bytes: equal digests for equal streams.
#[cfg(test)]
pub fn digest<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for byte in format!("{item:?};").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        principals: 1000,
        leaves: 200,
        domains: 25,
    };

    #[test]
    fn equal_seeds_give_identical_streams() {
        assert_eq!(
            digest(&local_stream(7, 0, SHAPE, 5000)),
            digest(&local_stream(7, 0, SHAPE, 5000))
        );
        assert_eq!(
            digest(&wire_pool(7, 1, SHAPE, 500)),
            digest(&wire_pool(7, 1, SHAPE, 500))
        );
        assert_eq!(
            digest(&write_schedule(7, SHAPE, 500)),
            digest(&write_schedule(7, SHAPE, 500))
        );
    }

    #[test]
    fn seeds_and_threads_give_different_streams() {
        let base = digest(&local_stream(7, 0, SHAPE, 5000));
        assert_ne!(base, digest(&local_stream(8, 0, SHAPE, 5000)));
        assert_ne!(base, digest(&local_stream(7, 1, SHAPE, 5000)));
        assert_ne!(
            digest(&write_schedule(7, SHAPE, 500)),
            digest(&write_schedule(8, SHAPE, 500))
        );
    }

    #[test]
    fn local_stream_mixes_calls_modes_and_skews_keys() {
        let ops = local_stream(3, 0, SHAPE, 30_000);
        let calls = ops.iter().filter(|op| op.kind == OpKind::Call).count();
        assert!((2400..3600).contains(&calls), "{calls} calls");
        for m in [AccessMode::Read, AccessMode::Execute, AccessMode::Write] {
            let n = ops.iter().filter(|op| op.mode == m).count();
            assert!(n.abs_diff(10_000) < 600, "{m:?}: {n}");
        }
        let mut counts = vec![0usize; SHAPE.leaves];
        for op in &ops {
            counts[op.leaf as usize] += 1;
        }
        counts.sort_unstable();
        // Zipf(1.0) over 200 leaves: the hottest leaf takes ~17 %.
        assert!(counts[SHAPE.leaves - 1] > ops.len() / 10);
        assert!(ops
            .iter()
            .all(|op| (op.principal as usize) < SHAPE.principals));
    }

    #[test]
    fn wire_batches_have_equal_shares_and_share_a_parent() {
        let pool = wire_pool(5, 0, SHAPE, 3000);
        for size in BATCH_SIZES {
            let n = pool.iter().filter(|r| r.items.len() == size).count();
            assert!(n.abs_diff(1000) < 120, "size {size}: {n} of 3000");
        }
        for req in &pool {
            let groups: Vec<usize> = req
                .items
                .iter()
                .map(|&(leaf, _)| leaf as usize % SHAPE.domains / 8)
                .collect();
            assert!(groups.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn writes_toggle_each_leaf_and_bundle_periodically() {
        let schedule = write_schedule(9, SHAPE, 1000);
        let mut open: HashMap<u32, u32> = HashMap::new();
        for (k, write) in schedule.iter().enumerate() {
            match *write {
                Write::Bundle { .. } => assert_eq!(k % BUNDLE_EVERY, BUNDLE_EVERY - 1),
                Write::Grant { leaf, principal } => {
                    assert!(open.insert(leaf, principal).is_none());
                }
                Write::Revoke { leaf, principal } => {
                    assert_eq!(open.remove(&leaf), Some(principal));
                }
            }
        }
    }

    #[test]
    fn zipf_sample_stays_in_range_and_is_skewed() {
        let mut rng = Rng::new(1, 0);
        let zipf = Zipf::new(50, 1.0, &mut rng);
        let mut counts = [0usize; 50];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 10 * min.max(1), "max {max} min {min}");
    }
}
