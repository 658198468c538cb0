//! `bayes`: every table, figure and tool of the harness as one
//! program; `bayes --help` lists the commands.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bayes_bench::cli::main(&args)
}
