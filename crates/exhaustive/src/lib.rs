#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # exhaustive — every small input, once
//!
//! The enumerators the workspace's exhaustive checks share: a property
//! is checked on every input up to a bound stated in its doc comment,
//! each input enumerated once, in canonical order, so a check's verdict
//! depends only on its bound. Only the crates' test builds depend on
//! this crate.

/// Every sequence of 1 to `len` symbols drawn from `0..n`: shorter ones
/// first, each length in lexicographic order.
pub fn sequences(n: usize, len: u32) -> impl Iterator<Item = Vec<usize>> {
    (1..=len).flat_map(move |l| {
        (0..n.pow(l)).map(move |code| (0..l).rev().map(|p| code / n.pow(p) % n).collect())
    })
}

/// Whether ids (devices, values, tenants) are numbered in order of
/// first use, which leaves out most renamings of an input already
/// enumerated.
pub fn first_use(ids: impl IntoIterator<Item = u64>) -> bool {
    let mut next = 0;
    ids.into_iter().all(|id| {
        next += u64::from(id == next);
        id < next
    })
}
