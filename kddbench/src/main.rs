//! `kddbench` command line.
//!
//! ```text
//! kddbench --workload <fin1-miss|fin2-read|zipf-hot-r6|fig9-model>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the human-readable report, then the result as the last line:
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when any op failed, any read returned the wrong bytes, or a
//! self-check failed; 2 on a usage error.

use kddbench::{run, Opts, Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("kddbench: {msg}");
    eprintln!(
        "usage: kddbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    let Some(workload) = workload else { usage("--workload is required") };
    let report = run(&Opts { workload, seed, seconds, trace, size: Size::Full });
    print!("{}", report.render_text());
    println!("{}", report.render_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
