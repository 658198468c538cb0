//! Table II: a summary of experiment platforms.

use bayes_archsim::Platform;
use bayes_obs::Event;

fn main() {
    let trace = bayes_bench::trace_recorder_from_args();
    bayes_bench::banner("Table II", "A summary of experiment platforms.");
    println!(
        "{:<10} {:<12} {:<10} {:>9} {:>11} {:>6} {:>9} {:>16} {:>8}",
        "Codename",
        "Processor #",
        "Microarch",
        "Tech (nm)",
        "Turbo (GHz)",
        "Cores",
        "LLC (MB)",
        "Bandwidth (GB/s)",
        "TDP (W)"
    );
    for p in Platform::table2() {
        if trace.enabled() {
            trace.record(Event::Platform {
                name: p.name.to_string(),
                processor: p.processor.to_string(),
                cores: p.cores as u64,
                llc_bytes: p.llc_bytes as u64,
                mem_bw_gbs: p.mem_bw_gbs,
                tdp_w: p.tdp_w,
            });
        }
        println!(
            "{:<10} {:<12} {:<10} {:>9} {:>11.1} {:>6} {:>9} {:>16.1} {:>8.0}",
            p.name,
            p.processor,
            p.microarch,
            p.tech_nm,
            p.turbo_ghz,
            p.cores,
            p.llc_bytes / (1024 * 1024),
            p.mem_bw_gbs,
            p.tdp_w
        );
    }
    trace.flush();
}
