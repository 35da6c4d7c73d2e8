//! Prints the paper's evaluation tables regenerated against the synthetic
//! workloads.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qfe-bench --bin experiments --release -- [all|table1|…|table7|initial-size|entropy|user-study|ablation|chaos|cluster]… [--paper-scale] [--fleet-sessions N]
//! ```
//!
//! The default scale is `Small` (reduced cardinalities, runs in seconds);
//! `--paper-scale` uses the paper's dataset cardinalities and δ = 1 s.
//! `--fleet-sessions N` sizes the chaos and cluster fleets. An unknown
//! scenario or flag prints the usage line and exits with status 2.

use qfe_bench::{
    ablation_estimator, chaos_fleet_json, chaos_fleet_summary, cluster_chaos_json,
    cluster_chaos_summary, extra_entropy, extra_initial_size, run_chaos_fleet, run_cluster_chaos,
    table1, table2, table3, table4, table5, table6, table7, user_study, ChaosFleetConfig,
    ClusterChaosConfig, Scale,
};

/// Every scenario name the binary accepts.
const SCENARIOS: [&str; 14] = [
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "initial-size",
    "entropy",
    "user-study",
    "ablation",
    "chaos",
    "cluster",
];

/// A parsed command line.
#[derive(Debug)]
struct Options {
    scale: Scale,
    fleet_sessions: Option<usize>,
    /// Selected scenarios, each one of [`SCENARIOS`]; never empty.
    selections: Vec<String>,
}

impl Options {
    fn wants(&self, name: &str) -> bool {
        self.selections.iter().any(|s| s == "all" || s == name)
    }
}

/// Parses the arguments after the program name. An unknown scenario, an
/// unknown flag or a malformed `--fleet-sessions` is an error.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        scale: Scale::Small,
        fleet_sessions: None,
        selections: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper-scale" => options.scale = Scale::Paper,
            "--fleet-sessions" => {
                let n = args.next().and_then(|v| v.parse::<usize>().ok());
                options.fleet_sessions =
                    Some(n.ok_or_else(|| "--fleet-sessions needs a number".to_string())?);
            }
            a if SCENARIOS.contains(&a) => options.selections.push(a.to_string()),
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            a => return Err(format!("unknown scenario `{a}`")),
        }
    }
    if options.selections.is_empty() {
        options.selections.push("all".to_string());
    }
    Ok(options)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!(
                "{e}\nusage: experiments [{}]… [--paper-scale] [--fleet-sessions N]",
                SCENARIOS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (scale, fleet_sessions) = (options.scale, options.fleet_sessions);
    let want = |name: &str| options.wants(name);

    println!("QFE reproduction experiments (scale: {scale:?})\n");
    if want("table1") {
        println!("{}", table1(scale));
    }
    if want("table2") {
        println!("{}", table2(scale));
    }
    if want("table3") {
        println!("{}", table3(scale));
    }
    if want("table4") {
        println!("{}", table4(scale));
    }
    if want("table5") {
        println!("{}", table5(scale));
    }
    if want("table6") {
        println!("{}", table6(scale));
    }
    if want("table7") {
        println!("{}", table7(scale));
    }
    if want("initial-size") {
        println!("{}", extra_initial_size(scale));
    }
    if want("entropy") {
        println!("{}", extra_entropy(scale));
    }
    if want("user-study") {
        println!("{}", user_study(scale));
    }
    if want("ablation") {
        println!("{}", ablation_estimator(scale));
    }
    if want("chaos") {
        let config = ChaosFleetConfig {
            sessions: fleet_sessions.unwrap_or(ChaosFleetConfig::default().sessions),
            ..ChaosFleetConfig::default()
        };
        let report = run_chaos_fleet(&config);
        println!("{}", chaos_fleet_summary(&config, &report));
        let json = chaos_fleet_json(&config, &report);
        let path = "BENCH_chaos.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        if report.lost_sessions > 0 || report.duplicate_answer_effects > 0 {
            eprintln!(
                "chaos fleet FAILED its exactly-once guarantee: {} lost, {} duplicated",
                report.lost_sessions, report.duplicate_answer_effects
            );
            std::process::exit(1);
        }
    }
    if want("cluster") {
        let config = ClusterChaosConfig {
            sessions: fleet_sessions.unwrap_or(ClusterChaosConfig::default().sessions),
            ..ClusterChaosConfig::default()
        };
        let report = run_cluster_chaos(&config);
        println!("{}", cluster_chaos_summary(&config, &report));
        let json = cluster_chaos_json(&config, &report);
        let path = "BENCH_cluster.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        if report.lost_sessions > 0 || report.duplicate_effects > 0 {
            eprintln!(
                "cluster chaos FAILED its exactly-once guarantee: {} lost, {} duplicated",
                report.lost_sessions, report.duplicate_effects
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn known_scenario_is_selected_alone() {
        let options = parse(&["table3"]).unwrap();
        assert_eq!(options.selections, vec!["table3"]);
        assert_eq!(options.scale, Scale::Small);
        assert!(options.wants("table3"));
        assert!(!options.wants("table4"));
    }

    #[test]
    fn all_and_no_selection_select_everything() {
        for args in [&["all"][..], &[][..]] {
            let options = parse(args).unwrap();
            assert!(SCENARIOS.iter().all(|s| options.wants(s)), "{args:?}");
        }
    }

    #[test]
    fn paper_scale_flag_sets_the_scale() {
        let options = parse(&["--paper-scale", "table1"]).unwrap();
        assert_eq!(options.scale, Scale::Paper);
        assert_eq!(options.selections, vec!["table1"]);
    }

    #[test]
    fn fleet_sessions_takes_a_number() {
        let options = parse(&["chaos", "--fleet-sessions", "8"]).unwrap();
        assert_eq!(options.fleet_sessions, Some(8));
        assert_eq!(options.selections, vec!["chaos"]);
        assert!(parse(&["--fleet-sessions"]).is_err());
        assert!(parse(&["--fleet-sessions", "many"]).is_err());
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let err = parse(&["table3", "no-such-scenario"]).unwrap_err();
        assert!(err.contains("no-such-scenario"), "{err}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["table3", "--fast"]).unwrap_err();
        assert!(err.contains("--fast"), "{err}");
    }
}
