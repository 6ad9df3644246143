//! Micro-benchmarks of the tidset intersection kernels: linear merge vs
//! bitmap word-AND, across densities bracketing the 1/64 break-even the
//! adaptive backend choice is built on.

use arm_vertical::{and_words, intersect_linear, TidSet};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const UNIVERSE: u32 = 65_536;

/// Deterministic sorted tid sample of `len` ids out of [`UNIVERSE`].
fn sample(len: usize, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(len);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32 % UNIVERSE
    };
    while out.len() < len {
        out.push(next());
        if out.len() == len {
            out.sort_unstable();
            out.dedup();
        }
    }
    out
}

fn bench_intersection_by_density(c: &mut Criterion) {
    // Density as tids per 64-transaction word; 1.0 = the break-even.
    for (label, frac) in [
        ("d1-256", 256usize),
        ("d1-64", 64),
        ("d1-16", 16),
        ("d1-4", 4),
    ] {
        let len = UNIVERSE as usize / frac;
        let a = sample(len, 0xA5A5);
        let b = sample(len, 0x5A5A);
        let words = (UNIVERSE as usize).div_ceil(64);
        let (abm, bbm) = (
            TidSet::Sorted(a.clone()).to_bitmap(words),
            TidSet::Sorted(b.clone()).to_bitmap(words),
        );
        let (aw, bw) = match (&abm, &bbm) {
            (TidSet::Bitmap { words: x, .. }, TidSet::Bitmap { words: y, .. }) => {
                (x.clone(), y.clone())
            }
            _ => unreachable!(),
        };
        let mut g = c.benchmark_group(format!("intersection/{label}"));
        g.bench_function("linear", |bch| {
            let mut out = Vec::with_capacity(len);
            bch.iter(|| {
                out.clear();
                intersect_linear(black_box(&a), black_box(&b), &mut out);
                out.len()
            })
        });
        g.bench_function("word-and", |bch| {
            let mut out = Vec::with_capacity(words);
            bch.iter(|| and_words(black_box(&aw), black_box(&bw), &mut out))
        });
        g.finish();
    }
}

criterion_group!(intersection, bench_intersection_by_density);
criterion_main!(intersection);
