//! The paper's startup evaluation — Figs. 2, 8, 9, 10 and 11 and Eq. 1 —
//! derived from two job matrices that run each (machine, app) pair once:
//! [`LONG_MACHINES`] at [`LONG_RUN`]× trace length feeds Figs. 2, 8, 9
//! and 11, and [`SHORT_MACHINES`] at 1× feeds Fig. 10 and Eq. 1.
//!
//! The `startup_figures` bench renders every figure from these
//! derivations, and the tier-1 pin `BENCH_figures.json` holds the
//! headline numbers ([`long_headline`], [`short_headline`]) that the
//! same code computes at [`PIN_SCALE`].

use cdvm_core::model;
use cdvm_stats::{arith_mean, breakeven_cycles, harmonic_mean, Metrics, Table};
use cdvm_uarch::{CycleCat, MachineConfig, MachineKind};

use crate::{ascii_plot, format_cycles, write_artifact, CurveResult};

/// Machines of the long matrix: all five, in the paper's order.
pub const LONG_MACHINES: [MachineKind; 5] = MachineKind::ALL;

/// Trace stretch of the long matrix: the paper draws its startup curves
/// from 500M-instruction traces, five times its 100M breakdowns.
pub const LONG_RUN: f64 = 5.0;

/// Machines of the short (1×) matrix.
pub const SHORT_MACHINES: [MachineKind; 2] = [MachineKind::VmSoft, MachineKind::VmBe];

/// The VMs whose per-app breakeven Fig. 9 draws.
pub const BREAKEVEN_MACHINES: [MachineKind; 3] =
    [MachineKind::VmSoft, MachineKind::VmBe, MachineKind::VmFe];

/// The machines of Fig. 11, the reference first.
pub const ACTIVITY_MACHINES: [MachineKind; 4] = [
    MachineKind::RefSuperscalar,
    MachineKind::VmSoft,
    MachineKind::VmBe,
    MachineKind::VmFe,
];

/// Cycle points at which the headline records Fig. 11's decoder activity.
pub const ACTIVITY_POINTS: [u64; 3] = [30_000, 100_000, 1_000_000];

/// Workload scale of the `BENCH_figures.json` pin, fixed (independent of
/// `CDVM_SCALE`) and small enough for a debug tier-1 run.
pub const PIN_SCALE: f64 = 0.001;

/// Key fragment naming a machine in the headline documents (`vmsoft`,
/// `refsuperscalar`, …).
fn key(kind: MachineKind) -> String {
    format!("{kind:?}").to_lowercase()
}

fn runs_of(results: &[CurveResult], kind: MachineKind) -> impl Iterator<Item = &CurveResult> {
    results.iter().filter(move |r| r.kind == kind)
}

/// The apps of a matrix, in the order its reference runs list them.
pub fn apps(results: &[CurveResult]) -> Vec<&str> {
    runs_of(results, MachineKind::RefSuperscalar)
        .map(|r| r.app.as_str())
        .collect()
}

/// IPC over the last half of a run (steady-state estimate).
pub fn tail_ipc(r: &CurveResult) -> f64 {
    let half = r.cycles / 2;
    let at_half = r.instrs.value_at(half).unwrap_or(0.0);
    (r.x86_retired as f64 - at_half) / (r.cycles - half) as f64
}

/// `kind`'s steady-state IPC over an app set: the harmonic mean of its
/// runs' tail rates. The reference's is the paper's normalisation basis.
pub fn steady_ipc(results: &[CurveResult], kind: MachineKind) -> f64 {
    harmonic_mean(&runs_of(results, kind).map(tail_ipc).collect::<Vec<_>>())
}

/// `kind`'s steady-state IPC normalized by the reference's: the flat
/// "VM steady state" line of Figs. 2 and 8.
pub fn steady_normalized_ipc(results: &[CurveResult], kind: MachineKind) -> f64 {
    steady_ipc(results, kind) / steady_ipc(results, MachineKind::RefSuperscalar)
}

/// Mean normalized aggregate-IPC curve across apps for one machine, at
/// log-spaced probe points (from 1,000 cycles, ×1.4 per point).
pub fn mean_curve(results: &[CurveResult], kind: MachineKind, norm: f64) -> Vec<(u64, f64)> {
    probe_points(results, kind)
        .map(|c| {
            let rates: Vec<f64> = runs_of(results, kind)
                .map(|r| {
                    // Clamp beyond end-of-trace to the final aggregate
                    // (the paper's "Finish" column).
                    let cc = c.min(r.cycles);
                    let v = r.instrs.value_at(cc).unwrap_or(0.0);
                    if cc > 0 && v > 0.0 {
                        v / cc as f64
                    } else {
                        1e-9
                    }
                })
                .collect();
            (c, harmonic_mean(&rates) / norm)
        })
        .collect()
}

/// Mean decoder-activity curve (fraction of cycles active) for one
/// machine, at [`mean_curve`]'s probe points.
pub fn mean_activity_curve(results: &[CurveResult], kind: MachineKind) -> Vec<(u64, f64)> {
    probe_points(results, kind)
        .map(|c| (c, decoder_activity_at(results, kind, c)))
        .collect()
}

/// Fig. 11 at one point: the mean fraction of the first `c` cycles in
/// which `kind`'s x86 decode logic was active (a run that ended earlier
/// counts up to its end).
pub fn decoder_activity_at(results: &[CurveResult], kind: MachineKind, c: u64) -> f64 {
    let fractions: Vec<f64> = runs_of(results, kind)
        .map(|r| {
            let cc = c.min(r.cycles);
            (r.activity.value_at(cc).unwrap_or(0.0) / cc as f64).min(1.0)
        })
        .collect();
    arith_mean(&fractions)
}

fn probe_points(results: &[CurveResult], kind: MachineKind) -> impl Iterator<Item = u64> {
    let max_cycles = runs_of(results, kind).map(|r| r.cycles).max().unwrap_or(0);
    std::iter::successors(Some(1000u64), |&c| Some((c as f64 * 1.4) as u64))
        .take_while(move |&c| c <= max_cycles)
}

/// Instructions `kind` has retired by `probe` cycles over those the
/// reference has, summed across apps (the text anchors of Figs. 2 and 8).
pub fn retired_vs_ref_at(results: &[CurveResult], kind: MachineKind, probe: u64) -> f64 {
    let retired = |k| -> f64 {
        runs_of(results, k)
            .map(|r| r.instrs.value_at(probe.min(r.cycles)).unwrap_or(0.0))
            .sum()
    };
    retired(kind) / retired(MachineKind::RefSuperscalar).max(1.0)
}

/// Fig. 9: the cycle at which `kind` has retired as many of `app`'s
/// instructions as the reference. `None` when it does not catch up
/// before the reference finishes (the paper's ">trace" bars), or when a
/// thinned matrix lacks either run ([`crate::Matrix::take_results`] has
/// announced that).
pub fn breakeven(results: &[CurveResult], kind: MachineKind, app: &str) -> Option<u64> {
    let run = |k| runs_of(results, k).find(|r| r.app == app);
    breakeven_cycles(
        &run(MachineKind::RefSuperscalar)?.instrs,
        &run(kind)?.instrs,
    )
}

/// Fig. 10: the percentage of a run's cycles spent in `cat`.
pub fn share(r: &CurveResult, cat: CycleCat) -> f64 {
    let total: f64 = r.breakdown.iter().sum();
    r.breakdown[cat as usize] / total * 100.0
}

/// [`share`] averaged over `kind`'s runs.
pub fn mean_share(results: &[CurveResult], kind: MachineKind, cat: CycleCat) -> f64 {
    arith_mean(
        &runs_of(results, kind)
            .map(|r| share(r, cat))
            .collect::<Vec<_>>(),
    )
}

/// Eq. 1 for one run: the model's terms from the run's measured static
/// footprints (`CurveResult::m_bbt`, `m_sbt`), and the translation
/// cycles the run really spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq1 {
    /// M_BBT·Δ_BBT, in native instructions.
    pub bbt: f64,
    /// M_SBT·Δ_SBT, in native instructions.
    pub sbt: f64,
    /// Both terms in cycles, at the VMM's IPC.
    pub model_cycles: f64,
    /// Measured BBT plus SBT translation cycles.
    pub measured: f64,
}

/// Eq. 1's terms for one run, with its machine's Δ_BBT and Δ_SBT.
pub fn eq1_terms(r: &CurveResult) -> Eq1 {
    let cfg = MachineConfig::preset(r.kind);
    let (bbt, sbt) = model::translation_overhead(
        r.m_bbt,
        cfg.bbt_sw_native_instrs,
        r.m_sbt,
        cfg.sbt_native_instrs,
    );
    Eq1 {
        bbt,
        sbt,
        model_cycles: (bbt + sbt) / cfg.vmm_ipc,
        measured: r.breakdown[CycleCat::BbtXlate as usize]
            + r.breakdown[CycleCat::SbtXlate as usize],
    }
}

/// Measured over modeled translation cycles, averaged over the VM.soft
/// runs Eq. 1 is validated on.
pub fn eq1_ratio(results: &[CurveResult]) -> f64 {
    let ratios: Vec<f64> = runs_of(results, MachineKind::VmSoft)
        .map(|r| {
            let e = eq1_terms(r);
            e.measured / e.model_cycles
        })
        .collect();
    arith_mean(&ratios)
}

/// Adds the long matrix's headline numbers to `into`, under
/// figure-qualified keys: both steady-state lines (Fig. 2's VM.soft,
/// Fig. 8's VM.fe), every per-app breakeven of Fig. 9 (`-1` for
/// ">trace"), and Fig. 11's decoder activity at [`ACTIVITY_POINTS`].
pub fn long_headline(results: &[CurveResult], into: &mut Metrics) {
    into.set(
        "fig2_vmsoft_steady_normalized_ipc",
        steady_normalized_ipc(results, MachineKind::VmSoft),
    )
    .set(
        "fig8_vmfe_steady_normalized_ipc",
        steady_normalized_ipc(results, MachineKind::VmFe),
    );
    for kind in BREAKEVEN_MACHINES {
        for app in apps(results) {
            let cycles = breakeven(results, kind, app).map_or(-1, |c| c as i64);
            into.set(&format!("fig9_{}_{app}_breakeven", key(kind)), cycles);
        }
    }
    for kind in ACTIVITY_MACHINES {
        for c in ACTIVITY_POINTS {
            into.set(
                &format!("fig11_{}_decoder_activity_at_{c}", key(kind)),
                decoder_activity_at(results, kind, c),
            );
        }
    }
}

/// Adds the short matrix's headline numbers to `into`: Fig. 10's BBT
/// shares and Eq. 1's per-app terms and mean measured/model ratio.
pub fn short_headline(results: &[CurveResult], into: &mut Metrics) {
    let (be, soft) = (MachineKind::VmBe, MachineKind::VmSoft);
    into.set(
        "fig10_vmbe_bbt_overhead_pct",
        mean_share(results, be, CycleCat::BbtXlate),
    )
    .set(
        "fig10_vmbe_bbt_emu_pct",
        mean_share(results, be, CycleCat::BbtEmu),
    )
    .set(
        "fig10_vmsoft_bbt_overhead_pct",
        mean_share(results, soft, CycleCat::BbtXlate),
    );
    for r in runs_of(results, soft) {
        let e = eq1_terms(r);
        let app = &r.app;
        into.set(&format!("eq1_{app}_m_bbt"), r.m_bbt)
            .set(&format!("eq1_{app}_m_sbt"), r.m_sbt)
            .set(&format!("eq1_{app}_bbt_native_insts"), e.bbt)
            .set(&format!("eq1_{app}_sbt_native_insts"), e.sbt)
            .set(&format!("eq1_{app}_measured_xlate_cycles"), e.measured);
    }
    into.set("eq1_measured_over_model_ratio", eq1_ratio(results));
}

/// One curve of a figure: its label, its CSV column and its points.
pub type Curve<'a> = (&'a str, &'a str, Vec<(u64, f64)>);

/// Prints a figure's curves as an ASCII plot and a markdown table (every
/// fourth point, cells formatted by `cell`) and writes every point to
/// the CSV artifact `file` (`{:.4}`). The curves share their probe
/// points, the first one sets the rows, and a shorter curve reads 0 past
/// its end.
pub fn render_curves(
    file: &str,
    title: &str,
    y_max: f64,
    curves: &[Curve],
    cell: fn(f64) -> String,
) {
    let plotted: Vec<(&str, &[(u64, f64)])> =
        curves.iter().map(|(l, _, p)| (*l, p.as_slice())).collect();
    println!();
    println!("{}", ascii_plot(title, &plotted, y_max));
    let mut heads = vec!["cycles"];
    heads.extend(curves.iter().map(|(l, _, _)| *l));
    let mut table = Table::new(&heads);
    let mut csv = String::from("cycles");
    for (_, column, _) in curves {
        csv.push_str(&format!(",{column}"));
    }
    csv.push('\n');
    let rows: &[(u64, f64)] = curves.first().map_or(&[], |(_, _, p)| p);
    for (i, &(c, _)) in rows.iter().enumerate() {
        let vals: Vec<f64> = curves
            .iter()
            .map(|(_, _, p)| p.get(i).map_or(0.0, |p| p.1))
            .collect();
        if i % 4 == 0 {
            let mut row = vec![format_cycles(c)];
            row.extend(vals.iter().map(|&v| cell(v)));
            table.row_owned(row);
        }
        csv.push_str(&c.to_string());
        for v in vals {
            csv.push_str(&format!(",{v:.4}"));
        }
        csv.push('\n');
    }
    println!("{}", table.to_markdown());
    write_artifact(file, &csv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_matrix;

    /// The headline numbers of every figure are pinned exactly:
    /// `BENCH_figures.json` must equal this run's document key for key,
    /// so a one-cycle change to any breakeven or Eq. 1 footprint fails
    /// here. Rewrite the file, as the golden fixture is rewritten, with
    /// `CDVM_GOLDEN_REGEN=1 cargo test -p cdvm-bench --lib headline`.
    #[test]
    fn headline_numbers_match_bench_figures_exactly() {
        let mut pins = Metrics::new();
        pins.set("bench", "startup_figures").set("scale", PIN_SCALE);
        for (machines, length_mult, headline) in [
            (
                &LONG_MACHINES[..],
                LONG_RUN,
                long_headline as fn(&_, &mut _),
            ),
            (&SHORT_MACHINES[..], 1.0, short_headline),
        ] {
            let matrix = run_matrix(machines, PIN_SCALE, length_mult);
            assert!(matrix.is_complete(), "{:?}", matrix.failures);
            headline(&matrix.results, &mut pins);
        }
        crate::tests::assert_pinned("BENCH_figures.json", &pins);
    }
}
