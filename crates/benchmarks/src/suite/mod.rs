//! Generators for the six benchmark plans (§V-B, Fig. 6).

pub(crate) mod bs;
pub(crate) mod dl;
pub(crate) mod hits;
pub(crate) mod img;
pub(crate) mod ml;
pub(crate) mod vec;
