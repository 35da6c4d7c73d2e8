//! Prints the paper's evaluation tables regenerated against the synthetic
//! workloads.
//!
//! Usage:
//!
//! ```text
//! cargo run -p qfe-bench --bin experiments --release -- [all|table1|…|table7|initial-size|entropy|user-study|ablation|manager|qbo-batch|service|chaos|cluster] [--paper-scale] [--fleet-sessions N]
//! ```
//!
//! The default scale is `Small` (reduced cardinalities, runs in seconds);
//! `--paper-scale` uses the paper's dataset cardinalities and δ = 1 s.

use qfe_bench::{
    ablation_estimator, chaos_fleet_json, chaos_fleet_summary, cluster_chaos_json,
    cluster_chaos_summary, extra_entropy, extra_initial_size, manager_report, qbo_batch_json,
    qbo_batch_measurements, qbo_batch_report, run_chaos_fleet, run_cluster_chaos,
    run_service_fleet, service_fleet_json, service_fleet_summary, table1, table2, table3, table4,
    table5, table6, table7, user_study, ChaosFleetConfig, ClusterChaosConfig, Scale,
    ServiceFleetConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--paper-scale") {
        Scale::Paper
    } else {
        Scale::Small
    };
    let mut fleet_sessions = None;
    let mut selections: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fleet-sessions" => {
                i += 1;
                fleet_sessions = args.get(i).and_then(|v| v.parse::<usize>().ok());
                if fleet_sessions.is_none() {
                    eprintln!("--fleet-sessions needs a number");
                    std::process::exit(2);
                }
            }
            a if a.starts_with("--") => {}
            a => selections.push(a),
        }
        i += 1;
    }
    let selections = if selections.is_empty() {
        vec!["all"]
    } else {
        selections
    };

    let run_all = selections.contains(&"all");
    let want = |name: &str| run_all || selections.contains(&name);

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
    if want("manager") {
        println!("{}", manager_report());
    }
    if want("qbo-batch") {
        let (rows, join_rows) = qbo_batch_measurements(scale, 80, 3);
        println!("{}", qbo_batch_report(&rows, join_rows));
        let json = qbo_batch_json(scale, &rows, join_rows);
        let path = "BENCH_qbo.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    if want("service") {
        let config = ServiceFleetConfig {
            sessions: fleet_sessions.unwrap_or(ServiceFleetConfig::default().sessions),
            ..ServiceFleetConfig::default()
        };
        let report = run_service_fleet(&config);
        println!("{}", service_fleet_summary(&config, &report));
        let json = service_fleet_json(&config, &report);
        let path = "BENCH_service.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
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
