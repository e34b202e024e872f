//! Contention-free execution-time bound (Fig. 9).
//!
//! Builds a [`metrics::critical_path()`] instance from a benchmark plan:
//! every input array contributes a transfer node over the device's host
//! link (its latency plus the bytes at full bandwidth), every
//! kernel a node with its *solo* duration on the target device, linked by
//! the plan's dependency edges. The result is the finish time on a
//! hypothetical machine where nothing ever contends — the denominator of
//! the paper's Fig. 9 ("how far each benchmark is from its theoretical
//! contention-free peak performance").

use std::collections::HashMap;

use gpu_sim::{DeviceProfile, Topology};
use metrics::{critical_path, PathNode};

use crate::spec::{BenchSpec, PlanArg};

/// Contention-free completion time of one iteration. Cold (`warm ==
/// false`): every array is transferred. Warm — the steady state Fig. 9
/// divides by: only the streaming inputs (re-written by the host each
/// iteration) pay a transfer; everything else is already
/// device-resident.
pub fn contention_free_time(spec: &BenchSpec, dev: &DeviceProfile, warm: bool) -> f64 {
    let buffers: Vec<gpu_sim::DataBuffer> = spec
        .arrays
        .iter()
        .map(|a| gpu_sim::DataBuffer::new(a.init.clone()))
        .collect();
    let topo = Topology::pcie_only(1, dev);
    let host = topo.link(topo.host_link(0));

    let mut nodes: Vec<PathNode> = Vec::new();
    // One transfer node per array, created lazily at first use.
    let mut transfer_node: HashMap<usize, usize> = HashMap::new();
    // Map op index -> node index.
    let mut op_node: Vec<usize> = Vec::with_capacity(spec.ops.len());

    for op in &spec.ops {
        let mut deps: Vec<usize> = Vec::new();
        for a in &op.args {
            if let PlanArg::Arr(k) = a {
                if warm && !spec.arrays[*k].refresh_each_iter {
                    continue; // already resident in steady state
                }
                let t = *transfer_node.entry(*k).or_insert_with(|| {
                    nodes.push(PathNode {
                        duration: host.latency + spec.arrays[*k].byte_len() as f64 / host.bandwidth,
                        deps: vec![],
                    });
                    nodes.len() - 1
                });
                deps.push(t);
            }
        }
        for d in &op.deps {
            deps.push(op_node[*d]);
        }
        let (bufs, scalars) = spec.op_inputs(op, &buffers);
        let cost = (op.def.cost)(&bufs, &scalars);
        let (solo, _) = cost.solo_profile(op.grid, dev);
        nodes.push(PathNode {
            duration: solo + dev.launch_overhead,
            deps,
        });
        op_node.push(nodes.len() - 1);
    }
    critical_path(&nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scales, Bench};

    #[test]
    fn bound_is_positive_and_scales() {
        let dev = DeviceProfile::gtx1660_super();
        for b in Bench::ALL {
            let small = contention_free_time(&b.build(scales::tiny(b)), &dev, false);
            assert!(small > 0.0, "{:?}", b);
        }
        let s1 = contention_free_time(&Bench::Vec.build(100_000), &dev, false);
        let s2 = contention_free_time(&Bench::Vec.build(1_000_000), &dev, false);
        assert!(s2 > 2.0 * s1);
    }

    #[test]
    fn faster_device_has_lower_bound() {
        let spec = Bench::Ml.build(2_000);
        let t960 = contention_free_time(&spec, &DeviceProfile::gtx960(), false);
        let tp100 = contention_free_time(&spec, &DeviceProfile::tesla_p100(), false);
        assert!(tp100 < t960, "{tp100} vs {t960}");
    }

    #[test]
    fn bound_is_below_any_serial_sum() {
        // The critical path can never exceed the sum of all node solo
        // durations + all transfers.
        let dev = DeviceProfile::tesla_p100();
        let spec = Bench::Img.build(64);
        let bound = contention_free_time(&spec, &dev, false);
        let buffers: Vec<gpu_sim::DataBuffer> = spec
            .arrays
            .iter()
            .map(|a| gpu_sim::DataBuffer::new(a.init.clone()))
            .collect();
        let serial_sum: f64 = spec
            .ops
            .iter()
            .map(|op| {
                let (bufs, scalars) = spec.op_inputs(op, &buffers);
                let cost = (op.def.cost)(&bufs, &scalars);
                cost.solo_profile(op.grid, &dev).0 + dev.launch_overhead
            })
            .sum::<f64>()
            + spec.footprint_bytes() as f64 / dev.pcie_bw
            + spec.arrays.len() as f64 * dev.launch_overhead;
        assert!(bound <= serial_sum + 1e-9, "{bound} vs {serial_sum}");
    }
}
