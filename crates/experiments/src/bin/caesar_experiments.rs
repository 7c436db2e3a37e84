//! `caesar-experiments` — regenerate every figure of the CAESAR paper.
//!
//! ```text
//! caesar-experiments [all|fig3|fig4|fig5|fig6|fig7|fig8|headline|theory|sampling|braids|compression|bursts|tails|ablate|compare|throughput|zoo|cluster]...
//!                    [--scale tiny|small|default|full] [--out DIR]
//! ```
//!
//! Tables are printed to stdout; CSV series land in `--out`
//! (default `results/`).

use experiments::{ablate, exts, fig3, fig4, fig5, fig6, fig7, fig8, headline, theory, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use support::testkit::INJECTED_PANIC;

/// The zoo sweep injects worker panics by design (the flow-churn
/// stress plan); they are caught by the online supervisor, so don't
/// let the default hook splat a backtrace for each one. Genuine panics
/// still print normally.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains(INJECTED_PANIC))
            .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.contains(INJECTED_PANIC)))
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

const USAGE: &str = "usage: caesar-experiments [EXPERIMENT]... [--scale tiny|small|default|full] [--out DIR]

paper figures:    fig3 fig4 fig5 fig6 fig7 fig8 headline
validation:       theory        (empirical checks of the paper's Section 4)
extensions:       compare       (every scheme, one trace, equal memory)
                  ablate        (k / y / policy / M / L design space)
                  sampling      (vs NetFlow-style sampling)
                  braids        (vs Counter Braids and VHC)
                  compression   (SAC vs DISCO vs ANLS vs CEDAR)
                  bursts        (arrival burstiness tolerance)
                  tails         (power-law vs log-normal sensitivity)
                  throughput    (max sustainable line rate)
                  zoo           (per-workload accuracy/stress sweep)
                  cluster       (per-node vs merged cluster-view accuracy)
or `all` for everything. Tables print to stdout; CSV + SVG artifacts
land in --out (default results/).";

struct Args {
    figures: Vec<String>,
    scale: Scale,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut scale = Scale::Default;
    let mut out = PathBuf::from("results");
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" | "--list" => {
                return Err(USAGE.into());
            }
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() {
        figures.push("all".into());
    }
    Ok(Args { figures, scale, out })
}

fn main() -> ExitCode {
    silence_injected_panics();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let wanted = |name: &str| {
        args.figures.iter().any(|f| f == name || f == "all")
    };
    let mut csvs: Vec<(String, String)> = Vec::new();
    let mut ran_any = false;

    if wanted("fig3") {
        let r = fig3::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("fig4") {
        let r = fig4::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("fig5") {
        let r = fig5::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("fig6") {
        let r = fig6::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("fig7") {
        let r = fig7::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("fig8") {
        let r = fig8::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("headline") {
        let r = headline::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("theory") {
        let r = theory::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("sampling") {
        let r = exts::sampling_comparison(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("braids") {
        let r = exts::braids_comparison(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("throughput") {
        let r = experiments::throughput::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        let c = experiments::throughput::construction_scaling(args.scale, &[1, 2, 4], 3);
        println!("{}", c.render());
        csvs.extend(c.to_csv());
        ran_any = true;
    }
    if wanted("compare") {
        let r = experiments::harness::compare_all(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        csvs.extend(r.to_svg());
        ran_any = true;
    }
    if wanted("ablate") {
        let r = ablate::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("tails") {
        let r = exts::tail_sensitivity(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("bursts") {
        let r = exts::burst_tolerance(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("zoo") {
        let r = experiments::zoo::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("cluster") {
        let r = experiments::cluster_view::run(args.scale);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }
    if wanted("compression") {
        let r = exts::compression_comparison(12, 200);
        println!("{}", r.render());
        csvs.extend(r.to_csv());
        ran_any = true;
    }

    if !ran_any {
        eprintln!("nothing to run: unknown experiment(s) {:?}\n{USAGE}", args.figures);
        return ExitCode::FAILURE;
    }

    if !csvs.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("cannot create {}: {e}", args.out.display());
            return ExitCode::FAILURE;
        }
        for (name, content) in &csvs {
            let path = args.out.join(name);
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("wrote {} CSV/SVG artifacts to {}", csvs.len(), args.out.display());
    }
    ExitCode::SUCCESS
}
