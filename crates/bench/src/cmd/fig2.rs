//! Figure 2: IPC, LLC miss rates, and speedups from 1 to 4 Skylake
//! cores (4 chains). The LLC-bound workloads saturate below 2×.

use super::{Args, ExitCode};
use bayes_archsim::{characterize, Platform, SimConfig};

pub fn run(_: &Args) -> ExitCode {
    crate::banner(
        "Figure 2",
        "Scaling 1→4 Skylake cores with 4 chains; workloads sorted by 4-core LLC MPKI.",
    );
    let sky = Platform::skylake();
    let mut rows = Vec::new();
    for m in crate::measure_all(1.0, 30, 42) {
        let run = |cores| {
            characterize(
                &m.sig,
                &sky,
                &SimConfig {
                    cores,
                    chains: m.sig.default_chains,
                    iters: m.sig.default_iters,
                },
            )
        };
        let r1 = run(1);
        let r2 = run(2);
        let r4 = run(4);
        rows.push((
            m.sig.name.clone(),
            [r1.ipc, r2.ipc, r4.ipc],
            [r1.llc_mpki, r2.llc_mpki, r4.llc_mpki],
            [1.0, r1.time_s / r2.time_s, r1.time_s / r4.time_s],
        ));
    }
    rows.sort_by(|a, b| a.2[2].total_cmp(&b.2[2]));
    println!(
        "{:<10} | {:>5} {:>5} {:>5} | {:>6} {:>6} {:>6} | {:>5} {:>5} {:>5}",
        "name", "ipc1", "ipc2", "ipc4", "mpki1", "mpki2", "mpki4", "spd1", "spd2", "spd4"
    );
    for (name, ipc, mpki, spd) in rows {
        println!(
            "{:<10} | {:>5.2} {:>5.2} {:>5.2} | {:>6.2} {:>6.2} {:>6.2} | {:>5.2} {:>5.2} {:>5.2}",
            name, ipc[0], ipc[1], ipc[2], mpki[0], mpki[1], mpki[2], spd[0], spd[1], spd[2]
        );
    }
    ExitCode::SUCCESS
}
