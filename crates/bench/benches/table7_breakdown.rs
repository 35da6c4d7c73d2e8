//! Table 7 bench: one Database-Generator invocation (Algorithm 2: skyline +
//! pick + modify) — the first-iteration work whose breakdown Table 7 reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qfe_bench::{candidates_for, default_params, Scale};
use qfe_core::{DatabaseGenerator, GenerationContext};

fn bench(c: &mut Criterion) {
    let scale = Scale::Small;
    let workload = scale.scientific();
    let generator = DatabaseGenerator::new(default_params(scale));
    let target = workload.query("Q2").unwrap().clone();
    let result = workload.example_result("Q2").unwrap();
    let full = candidates_for(&workload.database, &target, 40);

    let mut group = c.benchmark_group("table7_breakdown");
    group.sample_size(10);
    for size in [5usize, 10, 20, 40] {
        let candidates: Vec<_> = full.iter().take(size.min(full.len())).cloned().collect();
        if candidates.len() < 2 {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(candidates.len()),
            &candidates,
            |b, candidates| {
                b.iter(|| {
                    GenerationContext::new(&workload.database, &result, candidates)
                        .and_then(|ctx| generator.generate_with_context(&ctx))
                        .map(|g| g.partition.group_count())
                        .unwrap_or(0)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
