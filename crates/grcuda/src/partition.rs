//! Deterministic DAG partitioning across cluster nodes.
//!
//! On a multi-node machine ([`gpu_sim::Cluster`]) a placement mistake is
//! no longer a PCIe hop — it is a D2H + NIC + H2D round trip. The right
//! moment to avoid that cost is *before* per-vertex placement: a batch
//! submitted through [`crate::GrCuda::launch_batch`] is a whole subgraph,
//! so the scheduler can shard it across nodes to minimize the bytes that
//! must cross the network, then let the in-node policy pick the GPU.
//!
//! The pre-pass here follows the deterministic-partitioning shape of
//! Bobpp-style frameworks: the *policy* (which node) is a pure function
//! of the submitted batch, with every tie broken on vertex id — no
//! hashing, no randomness — so the same batch always shards the same
//! way:
//!
//! 1. **Seed by connected components.** Two launches sharing an array
//!    argument are connected; components are the natural unsplittable
//!    units (assigning one entirely to a node costs zero cut bytes).
//! 2. **Greedy bin-pack whole components** onto the least-loaded node,
//!    largest component first (ties: smallest member vertex id, then
//!    lowest node id).
//! 3. **BFS-grow split** only components larger than the fair share:
//!    grow a part from the smallest unassigned vertex id, repeatedly
//!    absorbing the frontier vertex with the most connecting bytes
//!    (ties: lowest vertex id) until the part reaches the share, then
//!    start the next part.
//!
//! [`crate::PlacementPolicy::NodeAware`] consumes the resulting
//! per-vertex node hints ([`crate::PlacementCtx::node_hint`]): it ranks
//! only the hinted node's GPUs, the way transfer-aware placement ranks
//! the whole machine.

/// The result of partitioning one submitted batch across cluster nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPartition {
    /// Node assigned to each batch item, indexed like the input batch.
    pub assignment: Vec<u32>,
    /// Bytes of array arguments shared across parts: for every value
    /// referenced from `k` distinct nodes, its size counts `k - 1`
    /// times (each extra node implies one cross-node replica).
    pub cut_bytes: usize,
    /// Number of distinct nodes actually used.
    pub parts: usize,
}

/// Shard a submitted batch across `nodes` to minimize cut bytes.
///
/// Each item is described by its array arguments as `(value id, bytes)`
/// pairs (duplicates within an item are ignored). The result is a pure,
/// deterministic function of the input: identical batches produce
/// bit-identical assignments, and `nodes <= 1` maps everything to node
/// 0 with zero cut.
pub fn partition_batch(items: &[Vec<(u64, usize)>], nodes: usize) -> BatchPartition {
    let n = items.len();
    if nodes <= 1 || n == 0 {
        return BatchPartition {
            assignment: vec![0; n],
            cut_bytes: 0,
            parts: usize::from(n > 0),
        };
    }

    // Every distinct (value, item) use, sorted by value then item, so
    // the uses of one value are a contiguous run with its items
    // ascending. A value an item names twice counts once, at the size
    // given first (the sort is stable). Values are numbered by run —
    // ascending id — which nothing below depends on: sizes and gains
    // are integer sums and every tie breaks on the item index.
    let mut uses: Vec<(u64, u32, usize)> = Vec::with_capacity(items.iter().map(Vec::len).sum());
    for (i, args) in items.iter().enumerate() {
        uses.extend(args.iter().map(|&(v, bytes)| (v, i as u32, bytes)));
    }
    uses.sort_by_key(|u| (u.0, u.1));
    uses.dedup_by_key(|u| (u.0, u.1));

    // Value s is referenced by `uses[value_start[s]..value_start[s + 1]]`
    // and is as large as its largest use; an item weighs what its uses
    // say. `item_values[item_start[i]..item_start[i + 1]]` are the
    // values item i references.
    let mut value_start: Vec<usize> = Vec::with_capacity(uses.len() + 1);
    let mut value_bytes: Vec<usize> = Vec::with_capacity(uses.len());
    let mut weight = vec![0usize; n];
    let mut item_start = vec![0usize; n + 1];
    for (k, &(v, i, bytes)) in uses.iter().enumerate() {
        if k == 0 || uses[k - 1].0 != v {
            value_start.push(k);
            value_bytes.push(0);
        }
        let size = value_bytes.last_mut().expect("pushed above");
        *size = (*size).max(bytes);
        weight[i as usize] += bytes;
        item_start[i as usize + 1] += 1;
    }
    value_start.push(uses.len());
    for i in 0..n {
        item_start[i + 1] += item_start[i];
    }
    let mut item_values = vec![0u32; uses.len()];
    let mut cursor = item_start.clone();
    for slot in 0..value_bytes.len() {
        for &(_, i, _) in &uses[value_start[slot]..value_start[slot + 1]] {
            item_values[cursor[i as usize]] = slot as u32;
            cursor[i as usize] += 1;
        }
    }
    let refs = |slot: usize| {
        uses[value_start[slot]..value_start[slot + 1]]
            .iter()
            .map(|u| u.1 as usize)
    };

    // Union-find over items through shared values.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for slot in 0..value_bytes.len() {
        let mut items = refs(slot);
        let mut prev = items.next().expect("a value has a use");
        for next in items {
            let (a, b) = (find(&mut parent, prev), find(&mut parent, next));
            if a != b {
                // Root at the smaller id, so representatives are stable.
                parent[a.max(b)] = a.min(b);
            }
            prev = next;
        }
    }

    // Components, members ascending by construction.
    let mut comp_of_root = vec![usize::MAX; n];
    let mut comps: Vec<(usize, Vec<usize>)> = Vec::new(); // (weight, members)
    for (i, &w) in weight.iter().enumerate() {
        let r = find(&mut parent, i);
        if comp_of_root[r] == usize::MAX {
            comp_of_root[r] = comps.len();
            comps.push((0, Vec::new()));
        }
        let c = &mut comps[comp_of_root[r]];
        c.0 += w;
        c.1.push(i);
    }
    // Largest first; ties toward the smallest member vertex id.
    comps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1[0].cmp(&b.1[0])));

    let total: usize = weight.iter().sum();
    let target = total.div_ceil(nodes).max(1);
    let mut load = vec![0usize; nodes];
    let mut assignment = vec![0u32; n];
    let least_loaded =
        |load: &[usize]| (0..load.len()).min_by_key(|&d| (load[d], d)).unwrap_or(0) as u32;

    // Per-item state of the BFS growth, indexed by item like `weight`:
    // placed in an earlier part, in the part being grown, bytes shared
    // with the part being grown.
    let mut assigned = vec![false; n];
    let mut in_s = vec![false; n];
    let mut gain = vec![0usize; n];
    for (comp_weight, members) in &comps {
        if *comp_weight <= target {
            let node = least_loaded(&load);
            load[node as usize] += comp_weight;
            for &i in members {
                assignment[i] = node;
            }
            continue;
        }
        // Oversized component: carve fair-share parts by BFS growth.
        while let Some(seed) = members.iter().copied().find(|&i| !assigned[i]) {
            let mut part: Vec<usize> = Vec::new();
            let mut part_weight = 0usize;
            let absorb = |i: usize,
                          part: &mut Vec<usize>,
                          part_weight: &mut usize,
                          in_s: &mut [bool],
                          gain: &mut [usize]| {
                part.push(i);
                *part_weight += weight[i];
                in_s[i] = true;
                gain[i] = 0;
                for &slot in &item_values[item_start[i]..item_start[i + 1]] {
                    for j in refs(slot as usize) {
                        if !in_s[j] && !assigned[j] {
                            gain[j] += value_bytes[slot as usize];
                        }
                    }
                }
            };
            absorb(seed, &mut part, &mut part_weight, &mut in_s, &mut gain);
            while part_weight < target {
                // Frontier vertex with the most connecting bytes; ties
                // break to the lowest vertex id (members are ascending).
                let next = members
                    .iter()
                    .copied()
                    .filter(|&j| !in_s[j] && !assigned[j] && gain[j] > 0)
                    .max_by(|&a, &b| gain[a].cmp(&gain[b]).then(b.cmp(&a)));
                let Some(j) = next else { break };
                absorb(j, &mut part, &mut part_weight, &mut in_s, &mut gain);
            }
            let node = least_loaded(&load);
            load[node as usize] += part_weight;
            for &i in &part {
                assignment[i] = node;
                assigned[i] = true;
                in_s[i] = false;
            }
            // Reset gains touched while growing this part.
            for &i in members {
                gain[i] = 0;
            }
        }
    }

    // Cut accounting: each value pays once per extra node touching it.
    let mut cut_bytes = 0usize;
    let mut seen_nodes: Vec<u32> = Vec::new();
    for (slot, bytes) in value_bytes.iter().enumerate() {
        seen_nodes.clear();
        for i in refs(slot) {
            if !seen_nodes.contains(&assignment[i]) {
                seen_nodes.push(assignment[i]);
            }
        }
        cut_bytes += bytes * seen_nodes.len().saturating_sub(1);
    }
    let mut used: Vec<u32> = Vec::new();
    for &a in &assignment {
        if !used.contains(&a) {
            used.push(a);
        }
    }
    BatchPartition {
        assignment,
        cut_bytes,
        parts: used.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BASE_CTX;
    use crate::policy::{PlacementCtx, PlacementPolicy};

    const MIB: usize = 1 << 20;

    /// A dependent chain of `k` items over fresh values `base..`: item i
    /// shares value `base + i` with item i+1.
    fn chain(k: usize, base: u64, bytes: usize) -> Vec<Vec<(u64, usize)>> {
        (0..k)
            .map(|i| {
                let mut args = vec![(base + i as u64, bytes)];
                if i + 1 < k {
                    args.push((base + i as u64 + 1, bytes));
                }
                args
            })
            .collect()
    }

    #[test]
    fn independent_chains_land_whole_on_separate_nodes_with_zero_cut() {
        let mut items = chain(4, 0, MIB);
        items.extend(chain(4, 100, MIB));
        let p = partition_batch(&items, 2);
        assert_eq!(p.cut_bytes, 0, "whole components never pay cut");
        assert_eq!(p.parts, 2);
        // Each chain is one component on one node.
        assert!(p.assignment[..4].iter().all(|&a| a == p.assignment[0]));
        assert!(p.assignment[4..].iter().all(|&a| a == p.assignment[4]));
        assert_ne!(p.assignment[0], p.assignment[4]);
    }

    #[test]
    fn single_node_assigns_everything_to_node_zero() {
        let items = chain(6, 0, MIB);
        let p = partition_batch(&items, 1);
        assert_eq!(p.assignment, vec![0; 6]);
        assert_eq!(p.cut_bytes, 0);
        assert_eq!(p.parts, 1);
    }

    #[test]
    fn oversized_component_splits_contiguously_with_one_cut_value() {
        // One 8-item chain, 2 nodes: BFS growth from vertex 0 absorbs
        // the chain in order, so the split is contiguous and exactly one
        // shared value crosses.
        let items = chain(8, 0, MIB);
        let p = partition_batch(&items, 2);
        assert_eq!(p.parts, 2);
        let flips = p.assignment.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "chain split in one place: {:?}", p.assignment);
        assert_eq!(p.cut_bytes, MIB, "exactly the boundary value crosses");
    }

    #[test]
    fn assignment_is_invariant_under_value_id_relabeling() {
        // Relabeling value ids scrambles HashMap bucket order; the
        // assignment must not move (all tie-breaks are on vertex id).
        let mut items = chain(5, 0, MIB);
        items.extend(chain(3, 50, 2 * MIB));
        items.push(vec![(200, 512)]);
        let relabeled: Vec<Vec<(u64, usize)>> = items
            .iter()
            .map(|args| {
                args.iter()
                    .map(|&(v, b)| (v.wrapping_mul(1_000_003).wrapping_add(17), b))
                    .collect()
            })
            .collect();
        for nodes in [2, 3, 4] {
            let a = partition_batch(&items, nodes);
            let b = partition_batch(&relabeled, nodes);
            assert_eq!(a, b, "nodes={nodes}");
        }
    }

    /// One sweep of the fork/join program `placement_cluster` submits
    /// per batch: every group forks its source into two arms (one
    /// folding in a shared read-only array) and joins them, then joins
    /// its join with another group's and folds that back into its
    /// source. Array sizes differ by group so gains rarely tie.
    ///
    /// Modelled on `fork_join` in `benchmark/src/gen.rs`, with a fixed
    /// partner formula in place of its seeded draws. The recorded
    /// assignments below pin this generator: change it and they fail.
    fn fork_join_batch(groups: u64) -> Vec<Vec<(u64, usize)>> {
        let size = |g: u64| (1 + g as usize % 3) * MIB;
        let mut items = Vec::new();
        for g in 0..groups {
            let (b, s) = (5 * g, size(g));
            let cold = (1000 + (g * 7) % 4, 4 * MIB);
            items.push(vec![(b, s), (b + 1, s)]);
            items.push(vec![(b, s), cold, (b + 2, s)]);
            items.push(vec![(b + 1, s), (b + 2, s), (b + 3, s)]);
        }
        for g in 0..groups {
            let (b, s) = (5 * g, size(g));
            let partner = (g + 1 + (g * 7 + 3) % (groups - 1)) % groups;
            items.push(vec![
                (b + 3, s),
                (5 * partner + 3, size(partner)),
                (b + 4, s),
            ]);
            items.push(vec![(b + 4, s), (b, s)]);
        }
        items
    }

    /// `partition_batch` on `items`, the assignment as one digit per
    /// item.
    fn sharded(items: &[Vec<(u64, usize)>], nodes: usize) -> (String, usize, usize) {
        let p = partition_batch(items, nodes);
        let digits = p.assignment.iter().map(|a| a.to_string()).collect();
        (digits, p.cut_bytes, p.parts)
    }

    #[test]
    fn fork_join_batches_shard_as_recorded() {
        // Recorded from the partitioner before its position map and
        // value table became dense vectors: seeds, gains and tie-breaks
        // are the same, so assignments, cut bytes and part counts are.
        let golden = [
            (
                (16, 2),
                "00000011110100010111000000011111100010111111110100001111001101000011010011111111",
                27_262_976,
                2,
            ),
            (
                (16, 3),
                "00011111120200011122000000021222220220211122222200111212001102000022021222112222",
                49_283_072,
                3,
            ),
            ((6, 4), "333000110222333301330011223313", 26_214_400, 4),
            ((2, 2), "0001110001", 4_194_304, 2),
        ];
        for ((groups, nodes), assignment, cut, parts) in golden {
            let got = sharded(&fork_join_batch(groups), nodes);
            assert_eq!(
                got,
                (assignment.to_string(), cut, parts),
                "{groups} groups on {nodes} nodes"
            );
        }
    }

    #[test]
    fn repeated_arguments_and_disagreeing_sizes_shard_as_recorded() {
        // A value named twice by one item counts once, at the size
        // given first; a value is as large as its largest use; an item
        // without arrays is a component of its own.
        let items = vec![
            vec![(7, 100), (7, 900), (8, 50)],
            vec![(8, 70), (9, 10)],
            vec![(9, 10), (7, 300)],
            vec![(20, 500)],
            vec![],
            vec![(21, 1), (20, 400)],
        ];
        assert_eq!(sharded(&items, 2), ("111010".to_string(), 0, 2));
        assert_eq!(sharded(&items, 3), ("222011".to_string(), 500, 3));
    }

    #[test]
    fn node_aware_honors_the_hint_and_delegates_without_one() {
        let mut p = PlacementPolicy::NodeAware.build();
        // Device 0 is globally cheapest, but the hint pins node 1.
        let ctx = PlacementCtx {
            parent_devices: &[0, 3],
            resident_bytes: &[0, 0, 0, 4096],
            est_transfer_time: &[0.0, 1e-3, 2e-3, 1e-3],
            inflight: &[0, 0, 5, 0],
            node_hint: Some(1),
            node_of: &[0, 0, 1, 1],
            ..BASE_CTX
        };
        assert_eq!(p.select(&ctx), 3, "cheapest GPU within the hinted node");
        let unhinted = PlacementCtx {
            node_hint: None,
            ..ctx
        };
        assert_eq!(p.select(&unhinted), 0, "no hint: plain transfer-aware");
    }

    #[test]
    fn node_aware_falls_back_when_the_hint_names_no_device() {
        let mut p = PlacementPolicy::NodeAware.build();
        let ctx = PlacementCtx {
            device_count: 2,
            est_transfer_time: &[1e-3, 0.0],
            node_hint: Some(7),
            node_of: &[0, 0],
            ..BASE_CTX
        };
        assert_eq!(p.select(&ctx), 1, "unknown node: machine-wide choice");
        // A node whose GPU range leaves the machine is no hint either.
        let beyond = PlacementCtx {
            est_transfer_time: &[0.0, 1e-3],
            node_hint: Some(1),
            node_of: &[0, 1, 1],
            ..ctx
        };
        assert_eq!(p.select(&beyond), 0, "range past the last device");
    }
}
