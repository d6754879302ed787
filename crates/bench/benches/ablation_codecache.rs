//! Ablation: code-cache capacity vs re-translation cost — the
//! multitasking concern of §1.1 ("a limited code cache size can cause
//! hotspot re-translations when a switched-out task resumes").


#![allow(clippy::unwrap_used, clippy::panic)]
use cdvm_bench::*;
use cdvm_core::{Status, System, TelemetryConfig};
use cdvm_stats::Table;
use cdvm_uarch::{MachineConfig, MachineKind};
use cdvm_workloads::{build_app, winstone2004};

fn main() {
    let scale = env_scale();
    banner("Ablation", "code-cache capacity vs re-translation", scale);

    let profile = &winstone2004()[3]; // IE: biggest footprint
    let sizes_kib = [64usize, 128, 256, 512, 1024, 4096];

    let mut table = Table::new(&[
        "BBT cache (KiB)",
        "flushes",
        "retranslated insts",
        "BBT xlate %",
        "finish cycles (M)",
    ]);
    let mut csv = String::from("kib,flushes,retranslated,bbt_xlate_pct,cycles_m\n");
    let mut runs = Vec::new();
    let mut flights = Vec::new();
    for &kib in &sizes_kib {
        let wl = build_app(profile, scale);
        let mut cfg = MachineConfig::preset(MachineKind::VmSoft);
        cfg.bbt_cache_bytes = kib << 10;
        let mut sys = System::with_config(cfg, wl.mem, wl.entry);
        sys.set_telemetry(TelemetryConfig::full());
        let st = sys.run_to_completion(u64::MAX);
        assert_eq!(st, Status::Halted);
        let vm = sys.vm.as_ref().unwrap();
        let flushes = vm.bbt_cache.stats().flushes;
        let retrans = vm.stats.bbt_retranslated_insts;
        let frac =
            100.0 * sys.timing.category_cycles(cdvm_uarch::CycleCat::BbtXlate) / sys.timing.cycles_f();
        table.row_owned(vec![
            kib.to_string(),
            flushes.to_string(),
            retrans.to_string(),
            format!("{frac:.2}"),
            format!("{:.2}", sys.cycles() as f64 / 1e6),
        ]);
        csv.push_str(&format!(
            "{kib},{flushes},{retrans},{frac:.3},{:.3}\n",
            sys.cycles() as f64 / 1e6
        ));
        let mut m = system_metrics(profile.name, &mut sys);
        m.set("bbt_cache_kib", kib);
        runs.push(m);
        flights.push((
            format!("{} bbt={kib}KiB", profile.name),
            sys.take_telemetry(),
        ));
    }
    println!("{}", table.to_markdown());
    println!("(undersized caches thrash: every flush forces cold code back through");
    println!(" Δ_BBT, the startup overhead the hardware assists attack)");
    write_artifact("ablation_codecache.csv", &csv);
    emit_telemetry(
        "ablation_codecache",
        flights.iter().map(|(label, t)| (label, t)),
    );
    emit_metrics("ablation_codecache", scale, runs);
}
