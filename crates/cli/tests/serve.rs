//! `ldctl serve` lifecycle tests against the real binary: readiness
//! line, remote stats, graceful quit, and the SIGKILL-and-restart
//! crash path with client-side exactly-once reconciliation.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ld_client::{BlockRef, Client, ClientConfig, Durability, ListRef, Txn};

fn temp_image(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("ldctl-serve-{}-{name}.img", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn ldctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldctl"))
}

fn format_image(image: &str) {
    let status = ldctl()
        .args([
            "format",
            image,
            "--size",
            "16777216",
            "--block-size",
            "512",
            "--segment-bytes",
            "8192",
        ])
        .stdout(Stdio::null())
        .status()
        .expect("run ldctl format");
    assert!(status.success());
}

/// A running `ldctl serve` child plus the address it bound.
struct Serve {
    child: Child,
    addr: String,
}

fn spawn_serve(image: &str) -> Serve {
    let mut child = ldctl()
        .args(["serve", image, "--addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ldctl serve");
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read readiness line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
        .to_string();
    Serve { child, addr }
}

fn quick() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        max_retries: 4,
        retry_backoff: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

fn payload(client: u64, wid: u64) -> Vec<u8> {
    let mut data = vec![0u8; 512];
    data[..8].copy_from_slice(&client.to_le_bytes());
    data[8..16].copy_from_slice(&wid.to_le_bytes());
    data
}

#[test]
fn serve_roundtrip_remote_stats_and_graceful_quit() {
    let image = temp_image("graceful");
    format_image(&image);
    let mut serve = spawn_serve(&image);

    let mut c = Client::connect(&serve.addr, 11, 1, quick()).unwrap();
    let mut txn = Txn::new();
    let l = txn.new_list();
    let b = txn.new_block(ListRef::Slot(l), None);
    txn.write(BlockRef::Slot(b), &payload(11, 1));
    let out = c.commit(&txn, 1, Durability::Lazy).unwrap();
    assert!(!out.deduped);
    drop(c);

    // `ldctl stats --remote` against the live server.
    let stats = ldctl()
        .args(["stats", "--remote", &serve.addr, "--json"])
        .output()
        .expect("run ldctl stats --remote");
    assert!(stats.status.success());
    let json = String::from_utf8_lossy(&stats.stdout);
    assert!(json.contains("\"server\""), "no server section: {json}");
    assert!(
        json.contains("\"sessions_opened\""),
        "no session counters: {json}"
    );

    // Graceful quit: the lazy commit must be flushed on the way down.
    serve
        .child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"quit\n")
        .unwrap();
    let done = serve.child.wait_with_output().expect("serve exits");
    assert!(done.status.success(), "serve failed: {done:?}");
    let text = String::from_utf8_lossy(&done.stdout);
    assert!(text.contains("shut down cleanly"), "{text}");

    let mut serve2 = spawn_serve(&image);
    let mut c = Client::connect(&serve2.addr, 11, 1, quick()).unwrap();
    assert!(c.lookup(1).unwrap().is_some(), "lazy commit lost by quit");
    assert_eq!(c.read(out.ids[1]).unwrap(), payload(11, 1));
    drop(c);
    serve2
        .child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"quit\n")
        .unwrap();
    assert!(serve2.child.wait().unwrap().success());
    let _ = std::fs::remove_file(&image);
}

/// SIGKILL the server mid-workload, restart it on the same image, and
/// reconcile: acknowledged sync commits must have survived (the floor
/// the handshake answers is at or past them); the write-ids past it
/// are replayed; the per-client list then holds exactly one block per
/// write_id.
#[test]
fn serve_survives_sigkill_with_exactly_once_reconciliation() {
    let image = temp_image("sigkill");
    format_image(&image);
    let mut serve = spawn_serve(&image);
    let client_id = 21u64;

    let mut c = Client::connect(&serve.addr, client_id, 1, quick()).unwrap();
    let mut setup = Txn::new();
    setup.new_list();
    let list = c.commit(&setup, 1, Durability::Sync).unwrap().ids[0];

    // Commit until the process is killed under us.
    let mut acked: Vec<u64> = Vec::new();
    let mut attempted = 1u64;
    for wid in 2..500u64 {
        if wid == 40 {
            serve.child.kill().expect("SIGKILL the server");
        }
        let mut txn = Txn::new();
        let b = txn.new_block(ListRef::Id(list), None);
        txn.write(BlockRef::Slot(b), &payload(client_id, wid));
        attempted = wid;
        match c.commit(&txn, wid, Durability::Sync) {
            Ok(_) => acked.push(wid),
            Err(_) => break,
        }
    }
    serve.child.wait().expect("killed server reaped");
    assert!(acked.len() >= 30, "too few commits before the kill");

    // Restart on the same image; recovery rebuilds the client's row.
    let mut serve2 = spawn_serve(&image);
    let mut c = Client::connect(&serve2.addr, client_id, 1, quick()).unwrap();

    let floor = c.floor();
    for wid in &acked {
        assert!(*wid <= floor, "acked write_id {wid} lost by SIGKILL");
    }
    assert!(c.lookup(floor).unwrap().is_some());
    for wid in floor + 1..=attempted {
        assert_eq!(c.lookup(wid).unwrap(), None);
        let mut txn = Txn::new();
        let b = txn.new_block(ListRef::Id(list), None);
        txn.write(BlockRef::Slot(b), &payload(client_id, wid));
        let out = c.commit(&txn, wid, Durability::Sync).unwrap();
        assert!(!out.deduped);
    }

    let blocks = c.list_blocks(list).unwrap();
    assert_eq!(
        blocks.len() as u64,
        attempted - 1,
        "exactly one block per wid"
    );
    let mut wids: Vec<u64> = blocks
        .iter()
        .map(|b| {
            let data = c.read(*b).unwrap();
            assert_eq!(u64::from_le_bytes(data[..8].try_into().unwrap()), client_id);
            u64::from_le_bytes(data[8..16].try_into().unwrap())
        })
        .collect();
    wids.sort_unstable();
    assert_eq!(wids, (2..=attempted).collect::<Vec<u64>>());

    drop(c);
    serve2
        .child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"quit\n")
        .unwrap();
    assert!(serve2.child.wait().unwrap().success());
    let _ = std::fs::remove_file(&image);
}
