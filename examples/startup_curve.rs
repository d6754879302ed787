//! Startup curves for one Winstone-like application on all machine
//! configurations — a single-app, console-sized version of Figs. 2/8.
//!
//! The curves come straight from the flight recorder's log-spaced
//! series (the same data every bench exports as `<bench>.series.json`).
//!
//! ```sh
//! cargo run --release --example startup_curve [app] [scale] [--series] [--perfetto]
//!     [--save <image>] [--resume <image>]
//! ```
//!
//! `--series` / `--perfetto` additionally dump the runs' flight-recorder
//! contents as `target/figures/startup_curve.series.json` and
//! `startup_curve.trace.json` (the latter loads in
//! <https://ui.perfetto.dev>).
//!
//! `--save <image>` writes the VM.soft run's warm translation-state
//! image (crash-safely: temp file + fsync + atomic rename) at the
//! architected end. `--resume <image>` additionally runs VM.soft a
//! second time resumed from that image and prints the cold-vs-warm
//! startup delta table. A corrupt or mismatched image never aborts the
//! run — restore salvages what it can or falls back to a cold boot and
//! says so.

use cdvm_bench::emit_telemetry;
use cdvm_core::{FlightRecorder, Status, System, Telemetry, TelemetryConfig};
use cdvm_uarch::MachineKind;
use cdvm_workloads::{build_app, winstone2004};

/// Removes `--flag <value>` from `args`, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        eprintln!("{flag} requires a path argument");
        std::process::exit(1);
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
}

/// The flight recorder every run below arms.
fn recorder(t: &Telemetry) -> &FlightRecorder {
    t.recorder.as_deref().expect("telemetry armed")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let export = args.iter().any(|a| a == "--series" || a == "--perfetto");
    args.retain(|a| a != "--series" && a != "--perfetto");
    let save_path = take_flag(&mut args, "--save");
    let resume_path = take_flag(&mut args, "--resume");
    let app_name = args.first().map(String::as_str).unwrap_or("Excel");
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.02);

    let profiles = winstone2004();
    let profile = profiles
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(app_name))
        .unwrap_or_else(|| {
            eprintln!("unknown app {app_name}; available:");
            for p in &profiles {
                eprintln!("  {}", p.name);
            }
            std::process::exit(1);
        });

    println!("app: {}  scale: {scale}\n", profile.name);
    let mut flights = Vec::new();
    for kind in [
        MachineKind::RefSuperscalar,
        MachineKind::VmSoft,
        MachineKind::VmBe,
        MachineKind::VmFe,
    ] {
        let wl = build_app(profile, scale);
        let mut sys = System::new(kind, wl.mem, wl.entry);
        sys.set_telemetry(TelemetryConfig::full());
        loop {
            // The flight recorder samples the cumulative-instruction
            // curve at every slice boundary; no manual sampler needed.
            let st = sys.run_slice(4096);
            if st != Status::Running {
                assert_eq!(st, Status::Halted);
                break;
            }
        }
        println!(
            "{:<18} finished in {:>12} cycles ({} instructions)",
            kind.label(),
            sys.cycles(),
            sys.x86_retired()
        );
        if kind == MachineKind::VmSoft {
            if let Some(path) = save_path.as_deref() {
                match sys.save_image(std::path::Path::new(path)) {
                    Ok(()) => println!("  saved warm image to {path}"),
                    Err(e) => eprintln!("  warm-image save failed: {e}"),
                }
            }
        }
        flights.push((format!("{kind}/{}", profile.name), sys.take_telemetry()));
    }

    // Warm-restore leg: VM.soft again, resumed from a saved image.
    let warm_flight = resume_path.as_deref().map(|path| {
        let wl = build_app(profile, scale);
        let mut sys = System::new(MachineKind::VmSoft, wl.mem, wl.entry);
        sys.set_telemetry(TelemetryConfig::full());
        let outcome = sys.restore_image_bytes(&std::fs::read(path).unwrap_or_default());
        match (outcome.is_cold_boot(), outcome.error) {
            (false, None) => println!("VM.soft (warm)     restored {} sections from {path}", outcome.applied),
            (false, Some(e)) => println!(
                "VM.soft (warm)     degraded restore from {path}: {} applied, {} dropped ({e})",
                outcome.applied, outcome.dropped
            ),
            (true, e) => println!(
                "VM.soft (warm)     image unusable, cold boot instead ({})",
                e.map_or_else(|| "empty image".into(), |e| e.to_string())
            ),
        }
        while sys.run_slice(4096) == Status::Running {}
        println!(
            "{:<18} finished in {:>12} cycles ({} instructions)",
            "VM.soft (warm)",
            sys.cycles(),
            sys.x86_retired()
        );
        (
            format!("VM.soft-warm/{}", profile.name),
            sys.take_telemetry(),
        )
    });

    // Print the aggregate-IPC table at log-spaced points, normalized to
    // the reference's final aggregate IPC.
    let reference = recorder(&flights[0].1);
    let norm = reference
        .instr_samples()
        .last()
        .map(|p| p.rate())
        .unwrap_or(1.0);
    println!(
        "\n{:>12} {:>8} {:>8} {:>8} {:>8}",
        "cycles", "Ref", "VM.soft", "VM.be", "VM.fe"
    );
    let end = flights
        .iter()
        .filter_map(|(_, t)| recorder(t).instr_samples().last().map(|p| p.cycles))
        .max()
        .unwrap_or(1000);
    let mut c = 1000u64;
    while c <= end {
        print!("{c:>12}");
        for (_, t) in &flights {
            let rec = recorder(t);
            let last = rec.instr_samples().last().map_or(0, |p| p.cycles);
            let probe = c.min(last);
            let v = rec.instr_value_at(probe).unwrap_or(0.0);
            print!(" {:>8.3}", v / probe.max(1) as f64 / norm);
        }
        println!();
        c *= 4;
    }
    println!("\n(normalized aggregate IPC; 1.0 = reference steady state)");

    // Cold-vs-warm delta table: what the image bought during startup.
    if let Some(warm) = &warm_flight {
        let cold = recorder(&flights[1].1);
        let wrec = recorder(&warm.1);
        let ipc_at = |rec: &FlightRecorder, c: u64| -> f64 {
            let last = rec.instr_samples().last().map_or(0, |p| p.cycles);
            let probe = c.min(last);
            rec.instr_value_at(probe).unwrap_or(0.0) / probe.max(1) as f64
        };
        println!(
            "\ncold vs warm VM.soft startup (aggregate IPC):\n{:>12} {:>10} {:>10} {:>9}",
            "cycles", "cold", "warm", "delta"
        );
        let end = [cold, wrec]
            .iter()
            .filter_map(|r| r.instr_samples().last().map(|p| p.cycles))
            .max()
            .unwrap_or(1000);
        let mut c = 1000u64;
        while c <= end {
            let cv = ipc_at(cold, c);
            let wv = ipc_at(wrec, c);
            let delta = if cv > 0.0 {
                format!("{:>+8.1}%", (wv / cv - 1.0) * 100.0)
            } else if wv > 0.0 {
                "warm only".into()
            } else {
                format!("{:>+8.1}%", 0.0)
            };
            println!("{c:>12} {cv:>10.3} {wv:>10.3} {delta:>9}");
            c *= 4;
        }
    }

    if export {
        flights.extend(warm_flight);
        emit_telemetry("startup_curve", flights.iter().map(|(label, t)| (label, t)));
    }
}
