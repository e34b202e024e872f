//! Graphviz DOT export of a computation DAG, used by the `fig6` suite to
//! render the benchmark structures of the paper's Fig. 6 and by the
//! multi-GPU scheduler to visualize device placement.

use crate::graph::{ComputationDag, MemNoteKind};

/// Fill colors cycled per device (Graphviz X11 names), chosen to stay
/// readable with black monospace labels.
const DEVICE_COLORS: [&str; 8] = [
    "lightblue",
    "palegreen",
    "lightsalmon",
    "plum",
    "khaki",
    "lightcyan",
    "mistyrose",
    "lightgray",
];

/// Render the DAG in Graphviz DOT syntax. Vertices are labeled with
/// their kernel name and current dependency set; edges with the value
/// that caused the dependency (dashed for read-only uses), mirroring how
/// the paper draws its figures.
///
/// Scheduling metadata is rendered when present: vertices are filled
/// with a per-device color (and labeled `@devN`) once a placement policy
/// assigned them, and edges that crossed devices are drawn bold and
/// labeled with the bytes migrated to satisfy them — red with a `via
/// host` tag when the move staged through the host, blue with a `p2p`
/// tag when it went over a direct peer link — making multi-GPU schedules
/// and interconnect usage visually debuggable.
///
/// Under a finite device-memory configuration the memory manager's
/// actions are rendered too: each eviction a computation forced appears
/// as an orange note node with a dotted edge *from* the vertex
/// (`spilled` when a real device→host copy moved the data, `dropped`
/// for free drops of clean copies), and each ahead-of-launch prefetch
/// as a green note node with a dotted edge *into* the vertex.
///
/// A non-empty `node_of` draws cluster-node boundaries: devices are
/// grouped by `node_of` (indexed by device id, as [`gpu_sim`-style]
/// topologies report it) and every node's placed vertices are boxed in
/// a Graphviz `subgraph cluster_N`. Migration edges that crossed a node
/// boundary (stamped via
/// [`crate::graph::ComputationDag::annotate_migration_route`]) are
/// drawn bold magenta with a `cross-node` tag, visually separating NIC
/// round trips from in-node peer or host-staged moves. Unplaced
/// vertices render outside any box; an empty `node_of` is the plain
/// single-box drawing.
///
/// [`gpu_sim`-style]: ../gpu_sim/index.html
pub fn to_dot(dag: &ComputationDag, title: &str, node_of: &[u32]) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", escape(title)));
    out.push_str("  rankdir=TB;\n  node [shape=ellipse, fontname=\"monospace\"];\n");
    let vertex_line = |v: &crate::vertex::Vertex| {
        let set: Vec<String> = v.dep_set.iter().map(|x| format!("v{}", x.0)).collect();
        let mut attrs = String::new();
        let mut styles: Vec<&str> = Vec::new();
        let label_dev = match v.device {
            Some(d) => {
                let color = DEVICE_COLORS[d as usize % DEVICE_COLORS.len()];
                attrs.push_str(&format!(", fillcolor={color}"));
                styles.push("filled");
                format!("\\n@dev{d}")
            }
            None => String::new(),
        };
        if !v.active {
            styles.push("dotted");
        }
        if !styles.is_empty() {
            attrs.push_str(&format!(", style=\"{}\"", styles.join(",")));
        }
        format!(
            "  n{} [label=\"{}{}\\n{{{}}}\"{}];\n",
            v.id.0,
            escape(v.label),
            label_dev,
            set.join(","),
            attrs,
        )
    };
    // Node the vertex belongs to, when the machine is clustered and the
    // vertex was placed on a known device.
    let node_home = |v: &crate::vertex::Vertex| -> Option<u32> {
        v.device.and_then(|d| node_of.get(d as usize).copied())
    };
    if node_of.is_empty() {
        for v in dag.vertices() {
            out.push_str(&vertex_line(v));
        }
    } else {
        let nodes = node_of.iter().copied().max().unwrap_or(0) as usize + 1;
        for nd in 0..nodes {
            let mut body = String::new();
            for v in dag.vertices() {
                if node_home(v) == Some(nd as u32) {
                    body.push_str("  ");
                    body.push_str(&vertex_line(v));
                }
            }
            if !body.is_empty() {
                out.push_str(&format!(
                    "  subgraph cluster_{nd} {{\n    label=\"node {nd}\";\n    style=dashed;\n"
                ));
                out.push_str(&body);
                out.push_str("  }\n");
            }
        }
        for v in dag.vertices() {
            if node_home(v).is_none() {
                out.push_str(&vertex_line(v));
            }
        }
    }
    for e in dag.edges() {
        let mut label = format!("v{}", e.value.0);
        let mut attrs = String::new();
        if e.migrated_bytes > 0 {
            if e.cross_node {
                label.push_str(&format!(
                    "\\n{} migrated (cross-node)",
                    human_bytes(e.migrated_bytes)
                ));
                attrs.push_str(", style=bold, color=magenta");
            } else if e.p2p {
                label.push_str(&format!(
                    "\\n{} migrated (p2p)",
                    human_bytes(e.migrated_bytes)
                ));
                attrs.push_str(", style=bold, color=blue");
            } else {
                label.push_str(&format!(
                    "\\n{} migrated (via host)",
                    human_bytes(e.migrated_bytes)
                ));
                attrs.push_str(", style=bold, color=red");
            }
        } else if e.redundant {
            // Transitively-covered edge (see
            // [`crate::graph::ComputationDag::mark_redundant_edges`]):
            // kept for bookkeeping, rendered de-emphasized.
            label.push_str("\\n(redundant)");
            attrs.push_str(", style=dashed, color=gray");
        } else if e.read_only {
            attrs.push_str(", style=dashed");
        }
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{}\"{}];\n",
            e.from.0, e.to.0, label, attrs,
        ));
    }
    for (i, note) in dag.mem_notes().iter().enumerate() {
        let size = human_bytes(note.bytes);
        match note.kind {
            MemNoteKind::Evicted { spilled } => {
                let how = if spilled { "spilled" } else { "dropped" };
                out.push_str(&format!(
                    "  mem{i} [label=\"evict v{}\\n{size} {how}\", shape=note, \
                     fontname=\"monospace\", color=orange];\n",
                    note.value.0,
                ));
                out.push_str(&format!(
                    "  n{} -> mem{i} [style=dotted, color=orange];\n",
                    note.vertex.0,
                ));
            }
            MemNoteKind::Prefetched => {
                out.push_str(&format!(
                    "  mem{i} [label=\"prefetch v{}\\n{size}\", shape=note, \
                     fontname=\"monospace\", color=green];\n",
                    note.value.0,
                ));
                out.push_str(&format!(
                    "  mem{i} -> n{} [style=dotted, color=green];\n",
                    note.vertex.0,
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

fn human_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::{ArgAccess, ElementKind, Value};

    #[test]
    fn dot_contains_vertices_and_edges() {
        let mut dag = ComputationDag::new();
        let (_, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (_, _) = dag.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(Value(0)), ArgAccess::write(Value(1))],
        );
        let dot = to_dot(&dag, "t", &[]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("n0 ->") || dot.contains("n0 -> n1"));
        assert!(dot.contains("K1"));
        assert!(
            dot.contains("style=dashed"),
            "read-only edge must be dashed"
        );
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn quotes_are_escaped() {
        let mut dag = ComputationDag::new();
        let (_, _) = dag.add_computation(
            ElementKind::Kernel,
            "K\"x\"",
            vec![ArgAccess::write(Value(0))],
        );
        let dot = to_dot(&dag, "a\"b", &[]);
        assert!(dot.contains("K\\\"x\\\""));
        assert!(dot.contains("a\\\"b"));
    }

    #[test]
    fn devices_color_vertices_and_migrations_label_edges() {
        let mut dag = ComputationDag::new();
        let (k1, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (k2, _) = dag.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(Value(0)), ArgAccess::write(Value(1))],
        );
        dag.set_device(k1, 0);
        dag.set_device(k2, 1);
        dag.annotate_migration_route(k2, Value(0), 4 << 20, false, false);
        let dot = to_dot(&dag, "multi", &[]);
        assert!(dot.contains("@dev0") && dot.contains("@dev1"));
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(dot.contains("fillcolor=palegreen"));
        assert!(dot.contains("4.0 MiB migrated (via host)"));
        assert!(dot.contains("style=bold, color=red"));
        assert!(!dot.contains("color=blue"), "no p2p edge was annotated");
    }

    #[test]
    fn p2p_and_host_migration_edges_are_styled_differently() {
        // A three-step chain whose first hop crosses an NVLink (P2P) and
        // whose second crosses islands (host-mediated): the render must
        // distinguish them by color and tag, with byte labels on both.
        let mut dag = ComputationDag::new();
        let (k1, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (k2, _) = dag.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(Value(0)), ArgAccess::write(Value(1))],
        );
        // Annotated the way the scheduler does it: each vertex as it is
        // placed, before the next one is added.
        dag.set_device(k1, 0);
        dag.set_device(k2, 1);
        dag.annotate_migration_route(k2, Value(0), 4 << 20, true, false);
        let (k3, _) = dag.add_computation(
            ElementKind::Kernel,
            "K3",
            vec![ArgAccess::read(Value(1)), ArgAccess::write(Value(2))],
        );
        dag.set_device(k3, 2);
        dag.annotate_migration_route(k3, Value(1), 3 << 10, false, false);
        // Only the newest vertex's incoming edges are ever scanned: a
        // late annotation of an older vertex changes nothing.
        dag.annotate_migration_route(k2, Value(0), 1, false, true);
        let p2p_edges: Vec<_> = dag.edges().iter().filter(|e| e.p2p).collect();
        assert_eq!(p2p_edges.len(), 1);
        assert_eq!((p2p_edges[0].from, p2p_edges[0].to), (k1, k2));
        let dot = to_dot(&dag, "links", &[]);
        assert!(dot.contains("4.0 MiB migrated (p2p)"));
        assert!(dot.contains("style=bold, color=blue"));
        assert!(dot.contains("3.0 KiB migrated (via host)"));
        assert!(dot.contains("style=bold, color=red"));
        // Styling is per edge, not global: exactly one of each.
        assert_eq!(dot.matches("color=blue").count(), 1);
        assert_eq!(dot.matches("color=red").count(), 1);
    }

    #[test]
    fn one_migration_stamps_exactly_one_edge() {
        // A writer after two readers has two WAR edges for the same
        // value; the single physical migration must label only the edge
        // crossing devices, not both.
        let mut dag = ComputationDag::new();
        let (w, _) =
            dag.add_computation(ElementKind::Kernel, "W", vec![ArgAccess::write(Value(0))]);
        let (r1, _) =
            dag.add_computation(ElementKind::Kernel, "R1", vec![ArgAccess::read(Value(0))]);
        let (r2, _) =
            dag.add_computation(ElementKind::Kernel, "R2", vec![ArgAccess::read(Value(0))]);
        let (w2, _) =
            dag.add_computation(ElementKind::Kernel, "W2", vec![ArgAccess::write(Value(0))]);
        dag.set_device(w, 0);
        dag.set_device(r1, 1);
        dag.set_device(r2, 0);
        dag.set_device(w2, 0);
        dag.annotate_migration_route(w2, Value(0), 1024, false, false);
        let stamped: Vec<_> = dag
            .edges()
            .iter()
            .filter(|e| e.migrated_bytes > 0)
            .collect();
        assert_eq!(stamped.len(), 1, "one migration, one labeled edge");
        assert_eq!(stamped[0].from, r1, "the cross-device parent carries it");
        assert_eq!(stamped[0].to, w2);
        let dot = to_dot(&dag, "t", &[]);
        assert_eq!(dot.matches("migrated").count(), 1);
    }

    #[test]
    fn eviction_and_prefetch_notes_render_as_aux_nodes() {
        let mut dag = ComputationDag::new();
        let (k1, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (k2, _) =
            dag.add_computation(ElementKind::Kernel, "K2", vec![ArgAccess::write(Value(1))]);
        dag.annotate_prefetch(k1, Value(0), 2 << 20);
        dag.annotate_evict(k2, Value(0), 2 << 20, true);
        dag.annotate_evict(k2, Value(2), 512, false);
        assert_eq!(dag.mem_notes().len(), 3);
        let dot = to_dot(&dag, "mem", &[]);
        assert!(dot.contains("prefetch v0\\n2.0 MiB"));
        assert!(dot.contains("evict v0\\n2.0 MiB spilled"));
        assert!(dot.contains("evict v2\\n512 B dropped"));
        assert!(dot.contains("color=green") && dot.contains("color=orange"));
        // Direction: prefetch feeds the vertex, eviction hangs off it.
        assert!(dot.contains("mem0 -> n0"));
        assert!(dot.contains("n1 -> mem1"));
        // Compaction prunes notes with their vertices.
        let mut dag2 = dag.clone();
        dag2.retire(k2);
        dag2.retire(k1);
        dag2.compact();
        assert!(dag2.mem_notes().is_empty());
        assert!(!to_dot(&dag2, "mem", &[]).contains("evict"));
    }

    #[test]
    fn notes_for_unknown_vertices_are_ignored() {
        let mut dag = ComputationDag::new();
        dag.annotate_evict(crate::vertex::VertexId(7), Value(0), 64, false);
        dag.annotate_prefetch(crate::vertex::VertexId(7), Value(0), 64);
        assert!(dag.mem_notes().is_empty());
    }

    #[test]
    fn redundant_edges_render_dashed_gray() {
        // K1 writes X,Y; K2 reads X writes Z; K3 reads Y,Z — the direct
        // K1→K3 edge is covered by the K1→K2→K3 path and must render
        // de-emphasized once stamped.
        let mut dag = ComputationDag::new();
        let (_, _) = dag.add_computation(
            ElementKind::Kernel,
            "K1",
            vec![ArgAccess::write(Value(0)), ArgAccess::write(Value(1))],
        );
        let (_, _) = dag.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(Value(0)), ArgAccess::write(Value(2))],
        );
        let (_, _) = dag.add_computation(
            ElementKind::Kernel,
            "K3",
            vec![ArgAccess::read(Value(1)), ArgAccess::read(Value(2))],
        );
        assert!(
            !to_dot(&dag, "t", &[]).contains("redundant"),
            "not stamped yet"
        );
        assert_eq!(dag.mark_redundant_edges(), 1);
        let dot = to_dot(&dag, "t", &[]);
        assert_eq!(dot.matches("(redundant)").count(), 1);
        assert_eq!(dot.matches("style=dashed, color=gray").count(), 1);
    }

    #[test]
    fn clustered_render_boxes_nodes_and_colors_cross_node_edges() {
        // 2 nodes × 2 GPUs: K1@dev0 (node 0) feeds K2@dev2 (node 1) —
        // a cross-node migration — and K2 feeds K3@dev3 in-node.
        let mut dag = ComputationDag::new();
        let (k1, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (k2, _) = dag.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(Value(0)), ArgAccess::write(Value(1))],
        );
        dag.set_device(k1, 0);
        dag.set_device(k2, 2);
        dag.annotate_migration_route(k2, Value(0), 4 << 20, false, true);
        let (k3, _) = dag.add_computation(
            ElementKind::Kernel,
            "K3",
            vec![ArgAccess::read(Value(1)), ArgAccess::write(Value(2))],
        );
        dag.set_device(k3, 3);
        dag.annotate_migration_route(k3, Value(1), 1 << 20, true, false);
        let node_of = [0, 0, 1, 1];
        let dot = to_dot(&dag, "cluster", &node_of);
        // One box per node, each holding its vertices.
        assert!(dot.contains("subgraph cluster_0"));
        assert!(dot.contains("subgraph cluster_1"));
        assert!(dot.contains("label=\"node 0\""));
        assert!(dot.contains("label=\"node 1\""));
        let c1 = dot.find("subgraph cluster_1").unwrap();
        assert!(dot[c1..].contains("@dev2") && dot[c1..].contains("@dev3"));
        assert!(!dot[..c1].contains("@dev2"));
        // Cross-node edge styled distinctly from the in-node p2p one.
        assert!(dot.contains("4.0 MiB migrated (cross-node)"));
        assert_eq!(dot.matches("color=magenta").count(), 1);
        assert!(dot.contains("1.0 MiB migrated (p2p)"));
        assert_eq!(dot.matches("color=blue").count(), 1);
        // An empty map is the plain, box-free render.
        assert!(!to_dot(&dag, "plain", &[]).contains("subgraph"));
    }

    #[test]
    fn unplaced_vertices_render_outside_cluster_boxes() {
        let mut dag = ComputationDag::new();
        let (k1, _) =
            dag.add_computation(ElementKind::Kernel, "K1", vec![ArgAccess::write(Value(0))]);
        let (_, _) =
            dag.add_computation(ElementKind::Kernel, "K2", vec![ArgAccess::read(Value(0))]);
        dag.set_device(k1, 1);
        let dot = to_dot(&dag, "partial", &[0, 0, 1, 1]);
        assert!(dot.contains("subgraph cluster_0"), "placed vertex boxed");
        assert!(!dot.contains("subgraph cluster_1"), "empty nodes omitted");
        let close = dot.rfind('}').unwrap();
        let after_boxes = &dot[dot.rfind("  }\n").unwrap()..close];
        assert!(after_boxes.contains("K2"), "unplaced vertex at top level");
    }

    #[test]
    fn unplaced_vertices_render_without_device_decoration() {
        let mut dag = ComputationDag::new();
        let (_, _) =
            dag.add_computation(ElementKind::Kernel, "K", vec![ArgAccess::write(Value(0))]);
        let dot = to_dot(&dag, "plain", &[]);
        assert!(!dot.contains("@dev"));
        assert!(!dot.contains("fillcolor"));
    }
}
