//! Regenerates the evaluation from the one table of experiments,
//! [`simd2_bench::experiments::EXPERIMENTS`].
//!
//! ```text
//! reproduce list        every experiment's name and what it regenerates
//! reproduce <name>...   print the named reports to stdout
//! reproduce all         write every report to results/<name>.txt, and the
//!                       Figure-11 event stream to results/telemetry/
//! ```
//!
//! Run from the repository root: `all` leaves `git status` clean when
//! nothing observable changed.

use std::fs;
use std::path::Path;

use simd2_bench::experiments::{Experiment, EXPERIMENTS};
use simd2_bench::{cli, fig11};

const USAGE: &str = "reproduce list | all | <name>...";

enum Mode {
    List,
    All,
    Print(Vec<&'static Experiment>),
}

fn main() {
    let mode = cli::parse(USAGE, |flags| match flags.positionals().as_slice() {
        [] => Err("name an experiment, `all` or `list`".to_owned()),
        [one] if one == "list" => Ok(Mode::List),
        [one] if one == "all" => Ok(Mode::All),
        names => names
            .iter()
            .map(|name| {
                EXPERIMENTS
                    .iter()
                    .find(|e| e.name == *name)
                    .ok_or_else(|| format!("no experiment named `{name}` (see `reproduce list`)"))
            })
            .collect::<Result<_, _>>()
            .map(Mode::Print),
    });
    match mode {
        Mode::List => {
            for e in &EXPERIMENTS {
                println!("{:<20} {}", e.name, e.what);
            }
        }
        Mode::Print(selected) => {
            for e in selected {
                print!("{}", (e.render)());
            }
        }
        Mode::All => {
            let dir = Path::new("results");
            fs::create_dir_all(dir).expect("create results/");
            for e in &EXPERIMENTS {
                let path = dir.join(e.name).with_extension("txt");
                fs::write(&path, (e.render)()).expect("write the report");
                println!("{:<20} -> {}", e.name, path.display());
            }
            let events = dir.join("telemetry/fig11_apps.jsonl");
            fig11::export_events(&events).expect("write the Figure-11 event stream");
            println!("{:<20} -> {}", "fig11_apps events", events.display());
        }
    }
}
