//! Per-round values recorded with the benchmark for the pinned dataset
//! seeds of `qfe_bench::Scale::Small`: for each example, each shown round's
//! (dbCost + resultCost, skyline pairs kept, pick cost evaluations, whether
//! the skyline stopped at δ). Every run's sessions must repeat them, up to
//! the first round where the skyline stopped at δ and the values differ
//! (see `check` in `main.rs`). Regenerate with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --record`
//! only when a change is meant to alter what the user sees.

pub fn key(example: &str) -> String {
    format!("small:{example}")
}

pub fn rounds(key: &str) -> Option<Rounds> {
    RECORDED.iter().find(|(k, _)| *k == key).map(|(_, r)| *r)
}

/// (effort, skyline pairs kept, pick cost evaluations, cut at δ) per round.
pub type Rounds = &'static [(usize, usize, usize, bool)];

#[rustfmt::skip]
const RECORDED: &[(&str, Rounds)] = &[
    ("small:scientific/Q1", &[(6, 3, 6, true), (5, 702, 1214, false), (5, 623, 879, false), (6, 525, 525, false), (5, 2198, 2198, false)]),
    ("small:scientific/Q2", &[(5, 48, 304, false), (6, 195, 227, false), (5, 163, 276, false), (5, 578, 578, false), (6, 480, 480, false), (5, 1088, 1088, false)]),
    ("small:baseball/Q3", &[(4, 36, 360, false), (4, 342, 2134, false), (4, 53, 179, false), (4, 100, 1380, false), (8, 35, 803, false), (5, 4, 4, false)]),
    ("small:adult/U1", &[(4, 487, 487, false), (4, 70, 1094, false), (5, 47, 1071, false), (5, 6, 17, false)]),
    ("small:adult/U2", &[(4, 1, 1, false), (4, 8, 16, false), (4, 7, 31, false), (5, 8, 85, false), (4, 13, 13, false), (4, 156, 156, false)]),
];
