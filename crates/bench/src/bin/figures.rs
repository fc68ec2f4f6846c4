//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p cubebench --bin figures            # everything
//! cargo run --release -p cubebench --bin figures fig10 tab3 # a subset
//! cargo run --release -p cubebench --bin figures --csv out/ # also CSV files
//! ```
//!
//! An unknown figure name exits 2 and lists the known ones. The routed
//! figures' schedules are checked statically by `cubecheck --all-figures`.

use cubebench::experiments as exp;
use cubebench::SeriesSet;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv_dir: Option<String> = None;
    let mut plot = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--csv" {
            csv_dir = Some(it.next().unwrap_or_else(|| {
                eprintln!("--csv needs a directory");
                std::process::exit(2);
            }));
        } else if a == "--plot" {
            plot = true;
        } else {
            wanted.push(a);
        }
    }

    type Gen = fn() -> SeriesSet;
    let numeric: &[(&str, Gen)] = &[
        ("fig9", exp::fig9),
        ("fig10", exp::fig10),
        ("fig11", exp::fig11),
        ("fig12", exp::fig12),
        ("fig13", exp::fig13),
        ("fig14a", exp::fig14a),
        ("fig14b", exp::fig14b),
        ("fig15", exp::fig15),
        ("fig16", exp::fig16),
        ("fig17", exp::fig17),
        ("fig18", exp::fig18),
        ("fig19", exp::fig19),
        ("tab3", exp::tab3),
        ("thm2", exp::thm2),
        ("breakeven", exp::breakeven),
        ("ablation_bopt", exp::ablation_bopt),
        ("pipeline", exp::pipeline),
        ("ablation_convert", exp::ablation_convert),
    ];
    type TextGen = fn() -> String;
    let textual: &[(&str, TextGen)] = &[
        ("tab1", exp::tables12 as TextGen),
        ("fig1", exp::partition_grids as TextGen),
        ("fig4", exp::fig4 as TextGen),
        ("fig7", exp::fig7 as TextGen),
        ("trace", exp::trace as TextGen),
        ("recommend", exp::recommend as TextGen),
    ];

    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let selected = |name: &str| run_all || wanted.iter().any(|w| w == name);

    let known =
        || numeric.iter().map(|&(name, _)| name).chain(textual.iter().map(|&(name, _)| name));
    if let Some(unknown) = wanted.iter().find(|w| *w != "all" && !known().any(|k| k == *w)) {
        // Exit 2 before generating anything, as `cubecheck` does for an
        // unknown workload: a typo must not pass for an empty selection.
        eprintln!("figures: unknown figure '{unknown}'; nothing was generated");
        eprintln!("known figures:");
        for name in known() {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
    }

    for (name, f) in textual {
        if selected(name) {
            println!("==== {name} ====");
            println!("{}", f());
        }
    }
    // Compute the selected figures in parallel (a generator's own par_map
    // over its point grid is a plain loop on its worker, and the level
    // that forks when one figure is selected); print in declaration
    // order so the output is byte-identical to a sequential run.
    let chosen: Vec<(&str, Gen)> =
        numeric.iter().copied().filter(|(name, _)| selected(name)).collect();
    let sets = cubesim::par::par_map(&chosen, |&(_, f)| f());
    for ((name, _), set) in chosen.iter().zip(&sets) {
        {
            println!("==== {name} ====");
            print!("{}", set.to_table());
            if plot {
                print!("\n{}", set.to_ascii_chart(64, 16));
            }
            println!();
            if let Some(dir) = &csv_dir {
                let path = format!("{dir}/{name}.csv");
                let mut file = std::fs::File::create(&path).expect("create csv");
                file.write_all(set.to_csv().as_bytes()).expect("write csv");
                eprintln!("wrote {path}");
            }
        }
    }
}
