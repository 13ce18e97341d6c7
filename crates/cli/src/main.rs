//! `socflow-cli` — the command-line face of the reproduction.
//!
//! ```text
//! socflow-cli plan  [--socs N] [--groups G]
//! socflow-cli train [--model M] [--dataset D] [--method X] [--socs N]
//!               [--groups G] [--epochs E] [--samples S] [--json]
//!               [--auto [--auto-budget N]]
//! socflow-cli tune  [--model M] [--dataset D] [--method X] [--socs N]
//!               [--groups G] [--auto-budget N] [--json]
//! socflow-cli compare [--model M] [--dataset D] [--socs N] [--epochs E]
//! socflow-cli tidal [--socs N] [--seed S]
//! socflow-cli fleet [--servers N] [--jobs M] [--policy tidal|fifo] [--socs N]
//!               [--horizon H] [--interarrival S] [--seed S] [--json]
//! socflow-cli trace summarize <run.jsonl>
//! socflow-cli bench <suite> [--fast] [--json <path>]
//! socflow-cli info
//! ```

mod args;
mod bench;
mod commands;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{}", commands::usage());
        std::process::exit(2);
    }
    let cmd = argv.remove(0);
    if args::asks_for_help(&argv) {
        println!("{}", commands::usage());
        return;
    }
    // `trace` and `bench` take positional operands, not `--flag value` pairs
    if cmd == "trace" || cmd == "bench" {
        let outcome = if cmd == "trace" {
            commands::trace(&argv)
        } else {
            bench::bench(&argv)
        };
        if let Err(e) = outcome {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let opts = match args::Options::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    // the pool size never changes a result, only wall-clock time
    if let Some(t) = opts.threads {
        socflow_tensor::runtime::set_threads(t);
    }
    let outcome = match cmd.as_str() {
        "plan" => commands::plan(&opts),
        "train" => commands::train(&opts),
        "tune" => commands::tune(&opts),
        "compare" => commands::compare(&opts),
        "tidal" => commands::tidal(&opts),
        "fleet" => commands::fleet(&opts),
        "info" => commands::info(),
        "help" | "--help" | "-h" => {
            println!("{}", commands::usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
