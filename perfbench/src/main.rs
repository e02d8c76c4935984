//! One benchmark run: `sgm-perfbench --workload <name> --seed <n>
//! [--traced]` trains once and prints one JSON line of results on
//! stdout. `perfbench/run.py` drives it.

use sgm_perfbench::{run_rep, workload, WORKLOADS};

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: sgm-perfbench --workload <{}> --seed <u64> [--traced]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut traced) = (None, None, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => name = args.next(),
            "--seed" => seed = args.next().and_then(|s| s.parse::<u64>().ok()),
            "--traced" => traced = true,
            _ => usage(),
        }
    }
    let (Some(w), Some(seed)) = (name.as_deref().and_then(workload), seed) else {
        usage()
    };
    println!("{}", run_rep(&w, seed, traced).to_json());
}
