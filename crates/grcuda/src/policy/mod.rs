//! The scheduler's policy layer: *what* to decide is fixed by the
//! scheduler core (one computation DAG, one stream manager, one engine
//! spanning every device); *how* to decide is declared here.
//!
//! Two decisions are taken per computational element at launch time.
//! A decision is a trait only when it has a second implementor or a
//! way in for one:
//!
//! * **Device selection** ([`DeviceSelectionPolicy`], a trait:
//!   [`crate::GrCuda::with_topology`] takes any boxed implementor) —
//!   which device runs the computation. The policy sees the DAG context
//!   of the vertex being scheduled ([`PlacementCtx`]): where its parents
//!   ran, how many argument bytes already reside on each device, what
//!   moving the rest would cost, each device's in-flight load and free
//!   memory — transfer prices and the partitioner's node hint assembled
//!   only when the policy declares it reads them ([`Reads`]; the
//!   default is both). The eight
//!   built-ins ([`PlacementPolicy`]) are one ranked selection over a
//!   preset table — a row is two candidate filters (the partitioner's
//!   hinted node, the devices the arguments fit on) and a lexicographic
//!   order ending in the device id — so a new policy is a new row, and
//!   what it reads follows from the row (see [`device`]).
//! * **Stream retrieval** (not a trait: one rule set, no way in for
//!   another) — which CUDA stream on the chosen device carries it.
//!   [`crate::stream_manager::StreamManager::assign`] applies the
//!   paper's §IV-C rules in place — first child on the parent's stream,
//!   FIFO reuse of drained streams, create on demand — with the
//!   ablation variants selected by the two [`crate::Options`] enums
//!   ([`crate::DepStreamPolicy`] × [`crate::StreamReusePolicy`]).
//!
//! The separation mirrors deterministic work-partitioning frameworks:
//! partitioning policy is declared, tie-breaks included; execution
//! mechanism (dependency inference, events, retire/compact, bounded
//! state) is shared. Every device count and every policy combination
//! produces bit-identical numeric results — policies only move work,
//! never reorder conflicting accesses, because ordering always comes
//! from the shared DAG.

mod device;

pub use device::{DeviceSelectionPolicy, PlacementCtx, PlacementPolicy, Reads};

#[cfg(test)]
pub(crate) use device::BASE_CTX;

// A test-only module, named for what it asserts; its path is the id
// CI records these tests under.

/// The adaptive preset's ledger, observed through the choices it causes.
#[cfg(test)]
mod adaptive {
    mod tests {
        use crate::policy::BASE_CTX;
        use crate::policy::{PlacementCtx, PlacementPolicy};

        fn root_ctx<'a>(
            est: &'a [f64],
            inflight: &'a [usize],
            prior: Option<f64>,
        ) -> PlacementCtx<'a> {
            PlacementCtx {
                device_count: est.len(),
                est_transfer_time: est,
                inflight,
                duration_prior: prior,
                ..BASE_CTX
            }
        }

        #[test]
        fn ledger_splits_a_mixed_fanout_that_counts_cannot() {
            let mut p = PlacementPolicy::Adaptive.build();
            let est = [0.0, 0.0];
            // One long root (predicted 3 s) then three short roots (1 s
            // each): the seconds ledger routes every short to the other
            // device. A count-based policy would give the long device a
            // short kernel too.
            assert_eq!(p.select(&root_ctx(&est, &[0, 0], Some(3.0))), 0);
            assert_eq!(p.select(&root_ctx(&est, &[2, 0], Some(1.0))), 1);
            assert_eq!(p.select(&root_ctx(&est, &[2, 2], Some(1.0))), 1);
            assert_eq!(p.select(&root_ctx(&est, &[2, 4], Some(1.0))), 1);
            // Both devices now owe 3 s: a root that charges nothing
            // sees a tie, which falls through to load either way.
            assert_eq!(p.select(&root_ctx(&est, &[1, 2], None)), 0);
            assert_eq!(p.select(&root_ctx(&est, &[2, 1], None)), 1);
        }

        #[test]
        fn without_priors_it_is_transfer_aware() {
            let mut p = PlacementPolicy::Adaptive.build();
            // No priors yet: the ledger never grows, so placement follows
            // transfer estimates (ties → load → id) exactly.
            assert_eq!(p.select(&root_ctx(&[2e-3, 1e-3], &[0, 5], None)), 1);
            assert_eq!(p.select(&root_ctx(&[1e-3, 1e-3], &[3, 1], None)), 1);
            assert_eq!(p.select(&root_ctx(&[1e-3, 1e-3], &[2, 2], None)), 0);
        }

        #[test]
        fn capacity_filter_skips_full_devices_like_memory_aware() {
            let mut p = PlacementPolicy::Adaptive.build();
            // Device 0 is cheapest but has no headroom for the arguments.
            let c = PlacementCtx {
                device_count: 2,
                resident_bytes: &[0, 2048],
                est_transfer_time: &[0.0, 1e-3],
                inflight: &[0, 4],
                free_bytes: &[1024, 2048],
                arg_bytes: 4096,
                ..BASE_CTX
            };
            assert_eq!(p.select(&c), 1);
            // Nothing fits: degrade to the most-free device.
            let none = PlacementCtx {
                free_bytes: &[256, 1024],
                resident_bytes: &[0, 0],
                ..c
            };
            assert_eq!(p.select(&none), 1);
        }

        #[test]
        fn ledger_resets_when_every_device_goes_idle() {
            let mut p = PlacementPolicy::Adaptive.build();
            let est = [0.0, 0.0];
            assert_eq!(p.select(&root_ctx(&est, &[0, 0], Some(5.0))), 0);
            // A sync drained everything: the next all-idle decision starts
            // from a clean ledger, so the tie goes back to device 0.
            assert_eq!(p.select(&root_ctx(&est, &[0, 0], Some(1.0))), 0);
            // Device 0 now owes that 1 s, not 6 s and not nothing.
            assert_eq!(p.select(&root_ctx(&[0.0, 0.5], &[1, 1], None)), 1);
            assert_eq!(p.select(&root_ctx(&[0.0, 2.0], &[1, 1], None)), 0);
        }

        #[test]
        fn non_roots_do_not_charge_the_ledger() {
            let mut p = PlacementPolicy::Adaptive.build();
            let dependent = PlacementCtx {
                device_count: 2,
                parent_devices: &[1],
                inflight: &[1, 1],
                duration_prior: Some(2.0),
                ..BASE_CTX
            };
            assert_eq!(p.select(&dependent), 0);
            // Had the dependent charged device 0, this root would avoid it.
            let root = root_ctx(&[0.0, 0.0], &[1, 1], Some(2.0));
            assert_eq!(p.select(&root), 0, "dependents are free");
            // Device 0 owes the root's 2 s; a dependent does not queue
            // behind it.
            assert_eq!(p.select(&root_ctx(&[0.0, 0.0], &[1, 1], None)), 1);
            assert_eq!(p.select(&dependent), 0);
        }
    }
}
