//! Prints the paper's figures 6-9 as text tables over all four
//! configurations, including the `ast-interp` column that lagbench does
//! not time, or the optimizer ablation table.
//!
//! Usage:
//! `cargo run --release -p lagoon-bench --bin figures -- [fig6|fig7|fig8|fig9|all] [reps]`
//! `cargo run --release -p lagoon-bench --bin figures -- ablation [reps]`
//!
//! Each cell keeps the best of `reps` timed runs (default 3), compile
//! time excluded as in the paper, and every configuration must produce
//! the same value. Any other argument prints usage and exits 2.

use lagoon_bench::{ablation_table, format_figure, measure_figure, Figure};

const USAGE: &str = "usage: figures [fig6|fig7|fig8|fig9|all|ablation] [reps]";

/// What one invocation prints.
#[derive(Debug, PartialEq)]
enum Mode {
    /// These figures' tables, with `reps` timed runs per cell.
    Figures(Vec<Figure>, usize),
    /// The ablation table, with `reps` timed runs per cell.
    Ablation(usize),
}

/// Parses the arguments after the program name.
fn parse_mode(args: &[String]) -> Result<Mode, String> {
    if args.len() > 2 {
        return Err(format!("unexpected argument {:?}", args[2]));
    }
    let reps = match args.get(1) {
        None => 3,
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err(format!("reps must be a positive integer, got {s:?}")),
        },
    };
    let figures = match args.first().map_or("all", String::as_str) {
        "fig6" => vec![Figure::Fig6],
        "fig7" => vec![Figure::Fig7],
        "fig8" => vec![Figure::Fig8],
        "fig9" => vec![Figure::Fig9],
        "all" => vec![Figure::Fig6, Figure::Fig7, Figure::Fig8, Figure::Fig9],
        "ablation" => return Ok(Mode::Ablation(reps)),
        other => return Err(format!("unknown mode {other:?}")),
    };
    Ok(Mode::Figures(figures, reps))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_mode(&args).unwrap_or_else(|e| {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let result = match mode {
        Mode::Figures(figures, reps) => figures.into_iter().try_for_each(|figure| {
            let rows = measure_figure(figure, reps)?;
            println!("{}\n", format_figure(figure, &rows));
            Ok(())
        }),
        Mode::Ablation(reps) => ablation_table(reps).map(|table| println!("{table}")),
    };
    if let Err(e) = result {
        eprintln!("figures: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_mode(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn modes_parse_with_default_and_explicit_reps() {
        let all = vec![Figure::Fig6, Figure::Fig7, Figure::Fig8, Figure::Fig9];
        assert_eq!(parse(&[]), Ok(Mode::Figures(all.clone(), 3)));
        assert_eq!(parse(&["all", "5"]), Ok(Mode::Figures(all, 5)));
        assert_eq!(
            parse(&["fig8", "1"]),
            Ok(Mode::Figures(vec![Figure::Fig8], 1))
        );
        assert_eq!(parse(&["fig9"]), Ok(Mode::Figures(vec![Figure::Fig9], 3)));
        assert_eq!(parse(&["ablation"]), Ok(Mode::Ablation(3)));
        assert_eq!(parse(&["ablation", "2"]), Ok(Mode::Ablation(2)));
    }

    #[test]
    fn unknown_modes_and_bad_reps_are_rejected() {
        for args in [
            &["nonsense"][..],
            &["bench7", "500"],
            &["bench4", "1", "out.json"],
            &["fig8", "0"],
            &["fig8", "many"],
            &["fig8", "1", "extra"],
        ] {
            assert!(parse(args).is_err(), "{args:?} parsed");
        }
    }
}
