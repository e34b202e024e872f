//! Integration: the final state of every benchmark suite, hashed, is
//! the one recorded below. The kernels' functional bodies may be
//! rewritten for speed, but each output's sequence of floating-point
//! operations is part of the kernel's definition (the `kernels` crate
//! doc), so every bit of every suite's answer must stay as it was.
//!
//! The small odd scales run in every `cargo test`; they leave lane
//! remainders in every kernel that settles outputs side by side. The
//! paper-scale digests (the `tests/experiment_shapes.rs` scales) take
//! too long for a debug build and are ignored there; run them with
//! `cargo test --release --test suite_digests -- --ignored`.

use benchmarks::runners::reference_after_iters;
use benchmarks::Bench;
use gpu_sim::TypedData;

/// FNV-1a over each array's element count and the little-endian bytes
/// of every element, in array order.
fn digest(state: &[TypedData]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in state {
        eat(&(a.len() as u64).to_le_bytes());
        match a {
            TypedData::F32(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            TypedData::F64(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            TypedData::I32(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
            TypedData::U8(v) => eat(v),
        }
    }
    h
}

/// Run each suite, `Bench::ALL` order, at its scale for two iterations
/// (so a refreshed input is re-written once) and compare the digest of
/// its final state with the recorded one.
fn assert_digests(scales: [usize; 6], want: [&str; 6]) {
    for ((b, scale), want) in Bench::ALL.iter().zip(scales).zip(want) {
        let spec = b.build(scale);
        let got = format!("{:016x}", digest(&reference_after_iters(&spec, 2)));
        assert_eq!(got, want, "{} at scale {scale}", spec.name);
    }
}

#[test]
fn every_suite_ends_in_its_recorded_state_at_small_odd_scales() {
    // VEC, B&S, IMG, ML, HITS, DL.
    assert_digests(
        [1001, 777, 37, 301, 999, 21],
        [
            "3da5533f941d2a53",
            "db855ff0ad9b7263",
            "3f6fe2cd8c53f420",
            "df61fe80e1ab8cbd",
            "517e37aac0d3cf7f",
            "0d619a83b7dc1065",
        ],
    );
}

#[test]
#[ignore = "paper scales: run in release with --ignored"]
fn every_suite_ends_in_its_recorded_state_at_the_paper_scales() {
    assert_digests(
        [800_000, 60_000, 160, 2_000, 10_000, 46],
        [
            "50a3cf0a559d0a33",
            "710b3eeaabe94101",
            "3733e1e9d3af41f2",
            "9831ade517f6788c",
            "27e6f78e1e1c0ecc",
            "d31fb13b08218752",
        ],
    );
}
