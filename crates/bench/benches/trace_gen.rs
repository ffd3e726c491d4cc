//! Criterion microbenchmarks: synthetic image generation and walker
//! throughput.

use btbx_trace::synth::{ProgramImage, SynthParams, SyntheticTrace};
use btbx_trace::TraceSource;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("image_generate");
    group.sample_size(10);
    for funcs in [100usize, 800] {
        group.bench_function(format!("{funcs}_funcs"), |b| {
            let params = SynthParams::server(funcs);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(ProgramImage::generate(&params, seed))
            });
        });
    }
    group.finish();
}

fn bench_walker(c: &mut Criterion) {
    let image = ProgramImage::generate(&SynthParams::server(400), 7);
    let mut trace = SyntheticTrace::new(image, "bench", 7);
    let mut group = c.benchmark_group("walker");
    group.throughput(Throughput::Elements(1));
    group.bench_function("next_instr", |b| {
        b.iter(|| black_box(trace.next_instr()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_generation, bench_walker
}
criterion_main!(benches);
