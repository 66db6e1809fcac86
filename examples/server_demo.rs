//! The paper's applet scenario, served over TCP: spawn the name-server
//! front end on an ephemeral port, drive the §2.2 access matrix through
//! the wire client, and print the metrics one wire call returns.
//!
//! Run with `cargo run --example server_demo`.

use extsec::scenarios::{applet_scenario, APPLET_FILES};
use extsec::server::{Client, ClientConfig, Server, ServerConfig};
use extsec::services::fs::FsService;
use extsec::AccessMode;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = applet_scenario()?;
    let monitor = Arc::clone(&sc.system.monitor);
    monitor.telemetry().set_enabled(true);

    let server = Server::spawn(monitor, "127.0.0.1:0", ServerConfig::default())?;
    println!("serving the reference monitor on {}\n", server.local_addr());

    let mut client = Client::connect(server.local_addr(), ClientConfig::default())?;
    client.ping()?;

    // The §2.2 access matrix, but every cell is a wire round trip — and
    // each row is ONE batched frame answered from one policy snapshot.
    let modes = [
        (AccessMode::Read, 'r'),
        (AccessMode::Write, 'w'),
        (AccessMode::WriteAppend, 'a'),
    ];
    println!("access matrix over the wire (r = read, w = overwrite, a = append):\n");
    print!("{:<12}", "");
    for (path, _) in APPLET_FILES {
        print!("{path:<20}");
    }
    println!();
    for (name, subject) in sc.subjects() {
        let mut items = Vec::new();
        for (path, _) in APPLET_FILES {
            let node = FsService::node_path(path)?;
            for (mode, _) in modes {
                items.push((node.clone(), mode));
            }
        }
        let decisions = client.batch_check(subject, &items)?;
        print!("{name:<12}");
        for (file_idx, _) in APPLET_FILES.iter().enumerate() {
            let mut cell = String::new();
            for (mode_idx, (_, sym)) in modes.iter().enumerate() {
                let allowed = decisions[file_idx * modes.len() + mode_idx].allowed();
                cell.push(if allowed { *sym } else { '-' });
            }
            print!("{cell:<20}");
        }
        println!();
    }

    // One denial, explained end to end through the wire.
    let node = FsService::node_path("dept-2/report")?;
    let explanation = client.explain(&sc.applet_d1, &node, AccessMode::Read)?;
    println!("\nwhy is department-1 denied department-2's report?\n{explanation}");

    // One wire call returns every metric: the monitor's stage timings
    // and counters, and the server's own.
    let metrics = client.telemetry()?;
    println!("\nmetrics over the wire:\n{metrics}");

    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, stats.closed, "no connection slot leaked");
    Ok(())
}
