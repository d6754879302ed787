//! `cdvm-serve` — run the fleet simulation service on localhost.
//!
//! ```text
//! cdvm-serve [--port N] [--workers N] [--scale F] [--cold]
//!            [--global-cap N] [--tenant-cap N]
//!            [--persist-dir PATH] [--machines LIST] [--apps LIST]
//!            [--capture] [--no-spans]
//! ```
//!
//! `--capture` (or `CDVM_CAPTURE=1`) arms the VM flight recorder on
//! every stamped instance so `GET /jobs/<id>/trace` returns the merged
//! service + VM Perfetto timeline; `--no-spans` (or `CDVM_SPANS=0`)
//! disarms per-job span recording (the timing-neutrality check).
//!
//! Serves the Winstone2004 catalog on the chosen machines (default:
//! every co-designed VM configuration). `POST /drain` (or SIGINT-less
//! environments: any shutdown path that calls drain) finishes in-flight
//! jobs and persists the healthy warm images under `--persist-dir`.

use std::path::PathBuf;
use std::sync::Arc;

use cdvm_serve::api::{parse_machine, ApiServer};
use cdvm_serve::{ServeConfig, Service};
use cdvm_uarch::MachineKind;
use cdvm_workloads::winstone2004;

/// The command line: the service settings, parsed over
/// [`ServeConfig::default`], plus what only the binary needs.
struct Args {
    cfg: ServeConfig,
    port: u16,
    persist_dir: Option<PathBuf>,
    machines: Vec<MachineKind>,
    apps: Option<Vec<String>>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cdvm-serve [--port N] [--workers N] [--scale F] [--cold] \
         [--global-cap N] [--tenant-cap N] \
         [--persist-dir PATH] [--machines vm.soft,vm.be,...] [--apps a,b,...] \
         [--capture] [--no-spans]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = ServeConfig::default();
    cfg.spans = cdvm_core::trace::env_switch("CDVM_SPANS", cfg.spans);
    cfg.pool.capture = cdvm_core::trace::env_switch("CDVM_CAPTURE", cfg.pool.capture);
    let mut args = Args {
        cfg,
        port: 7199,
        persist_dir: None,
        machines: vec![
            MachineKind::VmSoft,
            MachineKind::VmBe,
            MachineKind::VmFe,
            MachineKind::VmInterp,
        ],
        apps: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = |it: &mut dyn Iterator<Item = String>| match it.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--port" => args.port = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--workers" => args.cfg.workers = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--scale" => args.cfg.scale = val(&mut it).parse().unwrap_or_else(|_| usage()),
            "--cold" => args.cfg.pool.warm = false,
            "--global-cap" => {
                args.cfg.global_queue_cap = val(&mut it).parse().unwrap_or_else(|_| usage());
            }
            "--tenant-cap" => {
                args.cfg.tenant_queue_cap = val(&mut it).parse().unwrap_or_else(|_| usage());
            }
            "--persist-dir" => args.persist_dir = Some(PathBuf::from(val(&mut it))),
            "--machines" => {
                args.machines = val(&mut it)
                    .split(',')
                    .map(|m| parse_machine(m).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--apps" => {
                args.apps = Some(val(&mut it).split(',').map(str::to_string).collect());
            }
            "--capture" => args.cfg.pool.capture = true,
            "--no-spans" => args.cfg.spans = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() {
    let mut args = parse_args();
    let profiles = winstone2004();
    let catalog = &mut args.cfg.catalog;
    for kind in &args.machines {
        for p in &profiles {
            if args
                .apps
                .as_ref()
                .is_none_or(|apps| apps.iter().any(|a| a == p.name))
            {
                catalog.push((*kind, p.clone()));
            }
        }
    }
    if catalog.is_empty() {
        eprintln!("cdvm-serve: empty catalog (check --apps)");
        std::process::exit(2);
    }
    eprintln!(
        "cdvm-serve: preparing {} golden images (scale {}, {}) ...",
        catalog.len(),
        args.cfg.scale,
        if args.cfg.pool.warm { "warm" } else { "cold" }
    );
    let service = Arc::new(Service::start(args.cfg));
    let server = match ApiServer::bind(Arc::clone(&service), args.port, args.persist_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cdvm-serve: bind 127.0.0.1:{} failed: {e}", args.port);
            std::process::exit(1);
        }
    };
    eprintln!("cdvm-serve: listening on http://{}", server.addr());
    eprintln!(
        "cdvm-serve: POST /jobs | GET /jobs/<id> | GET /jobs/<id>/spans | \
         GET /jobs/<id>/trace | GET /healthz | GET /metrics | POST /drain"
    );
    // Serve until a drain has fully *completed* — in-flight jobs
    // terminal, workers joined, images persisted (`is_drained`, not
    // `is_draining`, which flips at drain start) — and the connection
    // that requested it has been answered. Exiting any earlier would
    // abandon in-flight jobs and drop the drain response.
    loop {
        std::thread::sleep(std::time::Duration::from_millis(200));
        if service.is_drained() && server.active_connections() == 0 {
            eprintln!("cdvm-serve: drained; exiting");
            break;
        }
    }
    drop(server);
}
