//! The correctness check: every machine must reach the reference
//! machine's architected end state, and every served job must match a
//! cold batch run of the same `(machine, app)` pair.
//!
//! Nothing here reads host time or depends on thread interleaving: the
//! compared values are architected state, retired counts and modeled
//! cycles, which the simulator produces deterministically.

use std::collections::BTreeMap;

use cdvm_core::{fnv1a64, System};
use cdvm_mem::Memory;
use cdvm_uarch::MachineKind;
use cdvm_workloads::DATA_BASE;

/// A batch job's architected end state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndState {
    /// General-purpose registers.
    pub gpr: [u32; 8],
    /// EFLAGS bits.
    pub flags: u32,
    /// `System::cpu().eip` after HLT. Reported, not compared: after a HLT
    /// retired in translated code the VM lanes report a stale EIP.
    pub eip: u32,
    /// Retired guest instructions.
    pub retired: u64,
    /// FNV-1a of the guest data region (`DATA_BASE`, `data_kb` KiB).
    pub data_fnv: u64,
    /// Modeled cycles.
    pub cycles: u64,
}

impl EndState {
    /// Reads the end state of a halted system.
    pub fn capture(sys: &mut System, data_kb: u32) -> EndState {
        let cpu = sys.cpu();
        let mut data = vec![0u8; data_kb as usize * 1024];
        sys.mem.read_bytes(DATA_BASE, &mut data);
        EndState {
            gpr: cpu.gpr,
            flags: cpu.flags.bits(),
            eip: cpu.eip,
            retired: sys.x86_retired(),
            data_fnv: fnv1a64(&data),
            cycles: sys.cycles(),
        }
    }

    /// The fingerprint `cdvm-serve` reports as `arch_fnv`: GPRs, EIP and
    /// the retired count, little-endian, through FNV-1a.
    pub fn serve_fnv(&self) -> u64 {
        let mut arch = Vec::with_capacity(8 * 4 + 4 + 8);
        for r in self.gpr {
            arch.extend_from_slice(&r.to_le_bytes());
        }
        arch.extend_from_slice(&self.eip.to_le_bytes());
        arch.extend_from_slice(&self.retired.to_le_bytes());
        fnv1a64(&arch)
    }
}

/// Compares `got` against the reference machine's end state on GPRs,
/// EFLAGS, retired count and data-region hash. Returns one line per
/// mismatching field.
pub fn against_reference(label: &str, got: &EndState, reference: &EndState) -> Vec<String> {
    let mut out = Vec::new();
    for (i, (g, r)) in got.gpr.iter().zip(reference.gpr.iter()).enumerate() {
        if g != r {
            out.push(format!("{label}: gpr[{i}] {g:#x} != ref {r:#x}"));
        }
    }
    if got.flags != reference.flags {
        out.push(format!(
            "{label}: eflags {:#x} != ref {:#x}",
            got.flags, reference.flags
        ));
    }
    if got.retired != reference.retired {
        out.push(format!(
            "{label}: retired {} != ref {}",
            got.retired, reference.retired
        ));
    }
    if got.data_fnv != reference.data_fnv {
        out.push(format!(
            "{label}: data fnv {:016x} != ref {:016x}",
            got.data_fnv, reference.data_fnv
        ));
    }
    out
}

/// One served job's result as the service reported it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// Machine the job ran on.
    pub machine: MachineKind,
    /// Index of the app in the workload's app list.
    pub app: usize,
    /// The job's last reported state (`completed`, `failed`, ...).
    pub state: String,
    /// The service's failure message, if any.
    pub message: String,
    /// Modeled cycles.
    pub cycles: u64,
    /// Retired guest instructions.
    pub x86_retired: u64,
    /// Architected-state fingerprint.
    pub arch_fnv: u64,
}

/// Checks that every served job completed, that each matches a cold
/// batch run (`reference` maps each `(machine, app)` pair to its batch end
/// state), and that all jobs of one pair report the same modeled cycles.
/// Returns one line per failure.
pub fn served(jobs: &[Served], reference: &BTreeMap<(u8, usize), EndState>) -> Vec<String> {
    let mut out = Vec::new();
    let mut cycles: BTreeMap<(u8, usize), u64> = BTreeMap::new();
    for j in jobs {
        if j.state != "completed" {
            out.push(format!(
                "{:?}/app{}: served job ended {} {}",
                j.machine, j.app, j.state, j.message
            ));
            continue;
        }
        let key = (j.machine as u8, j.app);
        let Some(r) = reference.get(&key) else {
            out.push(format!("{:?}/app{}: no batch reference", j.machine, j.app));
            continue;
        };
        if j.x86_retired != r.retired {
            out.push(format!(
                "{:?}/app{}: served retired {} != batch {}",
                j.machine, j.app, j.x86_retired, r.retired
            ));
        }
        if j.arch_fnv != r.serve_fnv() {
            out.push(format!(
                "{:?}/app{}: served arch_fnv {:016x} != batch {:016x}",
                j.machine,
                j.app,
                j.arch_fnv,
                r.serve_fnv()
            ));
        }
        let first = *cycles.entry(key).or_insert(j.cycles);
        if first != j.cycles {
            out.push(format!(
                "{:?}/app{}: served cycles {} != {} of an earlier job of the pair",
                j.machine, j.app, j.cycles, first
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> EndState {
        EndState {
            gpr: [1, 2, 3, 4, 5, 6, 7, 8],
            flags: 0x46,
            eip: 0x40_0027,
            retired: 1000,
            data_fnv: 0xabcd,
            cycles: 5000,
        }
    }

    #[test]
    fn identical_states_pass_and_eip_and_cycles_are_not_compared() {
        let r = state();
        let mut g = state();
        g.eip = 0x40_0000;
        g.cycles = 7000;
        assert!(against_reference("vm.soft", &g, &r).is_empty());
    }

    #[test]
    fn a_changed_gpr_fails() {
        let r = state();
        let mut g = state();
        g.gpr[3] ^= 1;
        let errs = against_reference("vm.be", &g, &r);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("gpr[3]"));
    }

    #[test]
    fn a_changed_flag_or_count_fails() {
        let r = state();
        let mut g = state();
        g.flags ^= 0x40;
        g.retired += 1;
        assert_eq!(against_reference("vm.fe", &g, &r).len(), 2);
    }

    #[test]
    fn a_changed_memory_word_fails() {
        // Capture two systems whose data regions differ in one word.
        use cdvm_mem::GuestMem;
        use cdvm_x86::Asm;
        let mut asm = Asm::new(0x40_0000);
        asm.hlt();
        let mut mem = GuestMem::new();
        mem.load(0x40_0000, &asm.finish());
        let mut a = System::new(MachineKind::RefSuperscalar, mem.clone(), 0x40_0000);
        let mut b = System::new(MachineKind::RefSuperscalar, mem, 0x40_0000);
        a.run_to_completion(u64::MAX);
        b.run_to_completion(u64::MAX);
        b.mem.write_u32(DATA_BASE + 512, 0xdead_beef);
        let ra = EndState::capture(&mut a, 1);
        let rb = EndState::capture(&mut b, 1);
        let errs = against_reference("ref", &rb, &ra);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("data fnv"));
    }

    fn served_job(cycles: u64, retired: u64, arch_fnv: u64) -> Served {
        Served {
            machine: MachineKind::VmSoft,
            app: 0,
            state: "completed".to_string(),
            message: String::new(),
            cycles,
            x86_retired: retired,
            arch_fnv,
        }
    }

    #[test]
    fn served_jobs_match_their_batch_reference() {
        let r = state();
        let mut refs = BTreeMap::new();
        refs.insert((MachineKind::VmSoft as u8, 0), r);
        let ok = served_job(4000, r.retired, r.serve_fnv());
        assert!(served(&[ok.clone(), ok.clone()], &refs).is_empty());
        // A changed job result: fingerprint, count or cycles.
        let bad_fnv = served_job(4000, r.retired, r.serve_fnv() ^ 1);
        assert_eq!(served(&[bad_fnv], &refs).len(), 1);
        let bad_count = served_job(4000, r.retired + 1, r.serve_fnv());
        assert_eq!(served(&[bad_count], &refs).len(), 1);
        let other_cycles = served_job(4001, r.retired, r.serve_fnv());
        assert_eq!(served(&[ok.clone(), other_cycles], &refs).len(), 1);
        // A pair without a reference is a failure, not a pass.
        let mut stray = ok.clone();
        stray.app = 9;
        assert_eq!(served(&[stray], &refs).len(), 1);
    }

    #[test]
    fn a_served_job_that_did_not_complete_fails() {
        let r = state();
        let mut refs = BTreeMap::new();
        refs.insert((MachineKind::VmSoft as u8, 0), r);
        let ok = served_job(4000, r.retired, r.serve_fnv());
        for (state, message) in [("failed", "guest fault"), ("expired", ""), ("running", "")] {
            let mut j = served_job(0, 0, 0);
            j.state = state.to_string();
            j.message = message.to_string();
            // Another job of the same pair completing does not hide it.
            let errs = served(&[ok.clone(), j], &refs);
            assert_eq!(errs.len(), 1, "{state}");
            assert!(errs[0].contains(state) && errs[0].contains(message));
        }
    }
}
