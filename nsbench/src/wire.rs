//! `wire_mix`: the reactor `Server` on loopback with audit off. One
//! connection per core, each driven closed loop at depth 1 by its own
//! `Client`, sending a seeded mix of single checks and 16- and 64-item
//! batches whose paths share ancestors.

use crate::fixture::{nproc, Fixture, Parts};
use crate::gen::{self, WireReq};
use crate::run::{PhaseOut, Workload};
use extsec_core::{AccessMode, Decision, NsPath, Subject};
use extsec_server::{Client, ClientConfig, ClientError};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests in each connection's pool; a connection cycles its pool.
const POOL_LEN: usize = 1024;
/// Every `ORACLE_EVERY`th request is re-decided in process.
const ORACLE_EVERY: u64 = 64;

/// One pooled request, resolved to the paths it names.
pub struct Req {
    pub principal: usize,
    pub items: Vec<(NsPath, AccessMode)>,
}

/// Resolves generated requests against the world's leaves.
pub fn resolve(fx: &Fixture, reqs: Vec<WireReq>) -> Vec<Req> {
    reqs.into_iter()
        .map(|r| Req {
            principal: r.principal as usize,
            items: r
                .items
                .into_iter()
                .map(|(leaf, mode)| (fx.world.leaves[leaf as usize].clone(), mode))
                .collect(),
        })
        .collect()
}

pub struct Wire {
    fx: Fixture,
    pools: Vec<Vec<Req>>,
    cursors: Vec<usize>,
}

impl Wire {
    pub fn setup(seed: u64) -> Result<(Wire, f64), String> {
        let parts = Parts {
            audit: false,
            ext: false,
            server: true,
        };
        let (fx, setup_s) = Fixture::timed(seed, parts)?;
        let shape = fx.shape();
        let pools: Vec<Vec<Req>> = (0..nproc())
            .map(|t| resolve(&fx, gen::wire_pool(seed, t, shape, POOL_LEN)))
            .collect();
        let wire = Wire {
            cursors: vec![0; pools.len()],
            pools,
            fx,
        };
        Ok((wire, setup_s))
    }
}

impl Workload for Wire {
    fn fixture(&mut self) -> &mut Fixture {
        &mut self.fx
    }

    fn phase(&mut self, dur: Duration) -> PhaseOut {
        let start = Instant::now();
        let addr = self
            .fx
            .server
            .as_ref()
            .expect("wire_mix runs a server")
            .local_addr();
        let fx = &self.fx;
        let outs: Vec<(PhaseOut, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .pools
                .iter()
                .zip(&self.cursors)
                .map(|(pool, &cursor)| {
                    s.spawn(move || connection(fx, addr, pool, cursor, start, dur))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread"))
                .collect()
        });
        let mut out = PhaseOut::new(start, dur);
        for ((part, cursor), slot) in outs.into_iter().zip(&mut self.cursors) {
            out.absorb(part);
            *slot = cursor;
        }
        out
    }
}

/// The wire clients' settings: no retries, so that every `Busy` refusal
/// and every transport error reaches the caller and counts as a failure,
/// and no latency sample holds a retry's backoff sleep.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    }
}

/// Sends one pooled request and returns its decisions.
pub fn send(
    client: &mut Client,
    subject: &Subject,
    req: &Req,
) -> Result<Vec<Decision>, ClientError> {
    if let [(path, mode)] = req.items.as_slice() {
        client.check(subject, path, *mode).map(|d| vec![d])
    } else {
        client.batch_check(subject, &req.items)
    }
}

fn connection(
    fx: &Fixture,
    addr: SocketAddr,
    pool: &[Req],
    mut cursor: usize,
    start: Instant,
    dur: Duration,
) -> (PhaseOut, usize) {
    let until = start + dur;
    let mut out = PhaseOut::new(start, dur);
    let mut client = match Client::connect(addr, client_config()) {
        Ok(client) => client,
        Err(e) => {
            out.ops += 1;
            out.fail(format!("connect {addr}: {e}"));
            return (out, cursor);
        }
    };
    let mut sent = 0u64;
    loop {
        let req = &pool[cursor % pool.len()];
        cursor += 1;
        let subject = &fx.subjects[req.principal];
        let begin = Instant::now();
        let result = send(&mut client, subject, req);
        let end = Instant::now();
        let decided = result.as_ref().map_or(0, |d| d.len() as u64);
        let window = out.done(end, decided);
        window.read.record(end - begin);
        if req.items.len() == 64 {
            window.heavy.record(end - begin);
        }
        sent += 1;
        match result {
            Ok(decisions) if decisions.len() == req.items.len() => {
                if sent.is_multiple_of(ORACLE_EVERY) {
                    for ((path, mode), wire) in req.items.iter().zip(&decisions) {
                        let local = fx.world.monitor.check(subject, path, *mode);
                        if local != *wire {
                            out.fail(format!(
                                "wire {subject} {path} {mode:?}: wire {wire:?}, in-process {local:?}"
                            ));
                        }
                    }
                }
            }
            Ok(decisions) => out.fail(format!(
                "{} decisions for {} items",
                decisions.len(),
                req.items.len()
            )),
            Err(ClientError::Busy { retry_after_ms }) => {
                out.busy += 1;
                out.fail(format!("busy, retry after {retry_after_ms} ms"));
            }
            Err(e) => out.fail(format!("request: {e}")),
        }
        if end >= until {
            return (out, cursor);
        }
    }
}
