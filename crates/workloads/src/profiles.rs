//! The ten calibrated application profiles.

/// Parameters describing one synthetic application.
///
/// Scale-free quantities are specified at the paper's reference length of
/// 100M dynamic instructions; [`build_app`](crate::build_app) scales them
/// to the requested run length.
#[derive(Debug, Clone)]
pub struct AppProfile {
    /// Application name (the Winstone2004 Business member it stands for).
    pub name: &'static str,
    /// Deterministic generator seed.
    pub seed: u64,
    /// Number of leaf functions at reference scale (sets the static
    /// footprint; ≈30 instructions per function).
    pub funcs: usize,
    /// Zipf skew of the function-call distribution (higher = hotter
    /// hotspot, smaller hot set).
    pub zipf_s: f64,
    /// Dispatcher calls at reference scale.
    pub calls: usize,
    /// Mean inner-loop trip count of hot functions (hot code dynamic
    /// weight).
    pub inner_loop: u32,
    /// Probability that consecutive ALU ops form dependence chains
    /// (fusion friendliness; `Project` is the low outlier).
    pub chain_prob: f64,
    /// Fraction of body operations touching memory.
    pub mem_ratio: f64,
    /// Probability a function performs a `REP MOVS` block copy
    /// (complex-instruction path).
    pub rep_prob: f64,
    /// Data working set in KiB.
    pub data_kb: u32,
    /// Number of phases the schedule is divided into (program phase
    /// behaviour: later phases touch fresh code).
    pub phases: usize,
}

/// The ten Winstone2004 Business stand-ins.
///
/// Footprints, skews and behaviours vary the way the paper's
/// per-benchmark results do; `Project` gets low `chain_prob` (its VM
/// steady-state gain is only ≈3%, so it never breaks even in Fig. 9) and
/// `Winzip` is REP-heavy.
pub fn winstone2004() -> Vec<AppProfile> {
    let base = AppProfile {
        name: "",
        seed: 0,
        funcs: 5000,
        zipf_s: 1.05,
        calls: 1_200_000,
        inner_loop: 24,
        chain_prob: 0.55,
        mem_ratio: 0.35,
        rep_prob: 0.02,
        data_kb: 1024,
        phases: 6,
    };
    vec![
        AppProfile {
            name: "Access",
            seed: 0xACCE55,
            funcs: 5200,
            data_kb: 2048,
            mem_ratio: 0.42,
            ..base.clone()
        },
        AppProfile {
            name: "Excel",
            seed: 0xE8CE1,
            funcs: 4800,
            zipf_s: 1.15,
            inner_loop: 32,
            chain_prob: 0.62,
            ..base.clone()
        },
        AppProfile {
            name: "FrontPage",
            seed: 0xF407,
            funcs: 4400,
            zipf_s: 1.1,
            phases: 8,
            ..base.clone()
        },
        AppProfile {
            name: "IE",
            seed: 0x1E1E,
            funcs: 6000,
            zipf_s: 0.95,
            data_kb: 3072,
            phases: 10,
            ..base.clone()
        },
        AppProfile {
            name: "Norton",
            seed: 0x12407,
            funcs: 3600,
            zipf_s: 1.2,
            inner_loop: 40,
            rep_prob: 0.05,
            ..base.clone()
        },
        AppProfile {
            name: "Outlook",
            seed: 0x0071,
            funcs: 5600,
            zipf_s: 1.0,
            data_kb: 2048,
            ..base.clone()
        },
        AppProfile {
            name: "PowerPoint",
            seed: 0x9097,
            funcs: 5000,
            zipf_s: 1.08,
            chain_prob: 0.58,
            ..base.clone()
        },
        AppProfile {
            name: "Project",
            seed: 0x9507,
            funcs: 5400,
            zipf_s: 0.9,
            chain_prob: 0.18,
            mem_ratio: 0.5,
            ..base.clone()
        },
        AppProfile {
            name: "Winzip",
            seed: 0x217,
            funcs: 3000,
            zipf_s: 1.3,
            inner_loop: 48,
            rep_prob: 0.12,
            ..base.clone()
        },
        AppProfile {
            name: "Word",
            seed: 0x0D0C,
            funcs: 5200,
            zipf_s: 1.05,
            chain_prob: 0.6,
            ..base
        },
    ]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn ten_distinct_apps() {
        let apps = winstone2004();
        assert_eq!(apps.len(), 10);
        let mut names: Vec<_> = apps.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "names unique");
        let mut seeds: Vec<_> = apps.iter().map(|a| a.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10, "seeds unique");
    }

    #[test]
    fn project_is_the_low_fusion_outlier() {
        let apps = winstone2004();
        let project = apps.iter().find(|a| a.name == "Project").unwrap();
        for a in &apps {
            if a.name != "Project" {
                assert!(project.chain_prob < a.chain_prob);
            }
        }
    }
}
