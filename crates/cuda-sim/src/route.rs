//! Migration routing: which links an array crosses to become resident
//! on a device. [`route`] is the only place that decision is made; the
//! placement estimate ([`Route::cost`]) and the copies actually
//! submitted (`Inner::execute` in [`crate::context`]) both consume its
//! answer, so what is priced is what moves.

use gpu_sim::{LinkId, Time, Topology};

use crate::memory::{ArrayState, Residency};

/// How an array's current copy reaches a target device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A current copy is already on the target: nothing moves.
    InPlace,
    /// The host copy is current: one H2D leg over the target's host
    /// link.
    HostLeg,
    /// The only current copy sits on a device with a direct link to the
    /// target: one peer-to-peer DMA over that link, no host involvement.
    Peer(LinkId),
    /// The only current copy sits on an unlinked device: D2H on the
    /// source, a NIC forward when the source is on another node, then
    /// H2D onto the target.
    Staged {
        /// The NIC link joining the two nodes (`None` in-node).
        nic: Option<LinkId>,
    },
}

/// The route `st`'s current copy takes to `target` over `topo`.
/// (Inlined with [`Route::cost`] into the placement probe, which asks
/// once per candidate device per argument of every launch.)
#[inline]
pub(crate) fn route(st: &ArrayState, target: u32, topo: &Topology) -> Route {
    match st.residency {
        Residency::Host => Route::HostLeg,
        _ if st.device == target => Route::InPlace,
        Residency::Both => Route::HostLeg,
        Residency::Device => match topo.d2d_link(st.device, target) {
            Some(link) => Route::Peer(link),
            None => Route::Staged {
                nic: topo.nic_link(topo.node_of(st.device), topo.node_of(target)),
            },
        },
    }
}

impl Route {
    /// Estimated seconds to move `bytes` to `target` along this route:
    /// one uncontended `latency + bytes / bandwidth` leg per link
    /// crossed. Every leg carries its link's fixed latency, so small
    /// arrays do not spuriously favor the host-mediated route (two legs,
    /// two setups) over a low-latency peer link.
    #[inline]
    pub(crate) fn cost(self, bytes: usize, target: u32, topo: &Topology) -> Time {
        let leg = |l: LinkId| {
            let link = topo.link(l);
            link.latency + bytes as f64 / link.bandwidth
        };
        match self {
            Route::InPlace => 0.0,
            Route::HostLeg => leg(topo.host_link(target)),
            Route::Peer(link) => leg(link),
            Route::Staged { nic } => {
                let mut t = 2.0 * leg(topo.host_link(target));
                if let Some(link) = nic {
                    t += leg(link);
                }
                t
            }
        }
    }
}
