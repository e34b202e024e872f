//! The soundness half of the sanitizer: effective per-value access
//! modes, and the conflicting-pair ordering check.

use dag::{ComputationDag, DenseMap, ElementKind, Reachability, Value, VertexId};

use super::{ConflictKind, EffectsTable, ScheduleViolation};

/// One vertex's *effective* access to one value, after the effects table
/// overrode what the NIDL signature declared.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    /// The accessing vertex.
    pub id: VertexId,
    /// Its index into [`ComputationDag::vertices`] (label lookup).
    pub slot: usize,
    /// The vertex may read the value. Writable-but-not-pure-`out`
    /// parameters count as reads (`inout` may read what it overwrites);
    /// so do CPU accesses, which touch elements, not whole arrays.
    pub reads: bool,
    /// The vertex writes the value (actual effect when the kernel is
    /// registered, declared access mode otherwise).
    pub writes: bool,
    /// The write provably replaces the whole value without reading it:
    /// every parameter touching the value is declared pure `out` *and*
    /// actually writes. Only such a write can kill an earlier one.
    pub pure_kill: bool,
    /// Whether the vertex was still active when the audit ran.
    pub active: bool,
}

/// Per-value access lists in submission order, arena-addressed by the
/// value id (same zero-hash discipline as the DAG's own value states).
pub(crate) type AccessMap = DenseMap<Value, Vec<Access>>;

/// Walk the stored vertices and build each value's effective access
/// list. Effects-table entries (matched by vertex label, with one flag
/// per recorded argument) override the declared access modes, so a
/// lying `const` parameter surfaces as an effective write here and the
/// soundness check sees the conflict the scheduler missed.
pub(crate) fn collect_accesses(dag: &ComputationDag, effects: &EffectsTable) -> AccessMap {
    let mut map: AccessMap = DenseMap::new();
    for (slot, v) in dag.vertices().iter().enumerate() {
        let entry = match v.kind {
            ElementKind::Kernel | ElementKind::Library => effects
                .get(v.label)
                .filter(|e| e.writes.len() == v.args.len()),
            ElementKind::ArrayAccess => None,
        };
        // Aggregate per distinct value: a kernel may pass the same array
        // through several parameters.
        for (i, arg) in v.args.iter().enumerate() {
            let (writes, reads, pure) = match entry {
                Some(e) => {
                    let w = e.writes[i];
                    let pure = w && e.declared_out[i];
                    (w, !pure, pure)
                }
                // No ground truth: trust the recorded access mode, and
                // treat writes as possibly-reading (inout).
                None => (!arg.read_only, true, false),
            };
            let list = map.entry_or_default(arg.value);
            match list.iter_mut().rev().find(|a| a.id == v.id) {
                Some(a) => {
                    a.reads |= reads;
                    a.writes |= writes;
                    // Every parameter touching the value must be a pure
                    // write for the vertex's access to stay a pure kill.
                    a.pure_kill &= pure;
                }
                None => list.push(Access {
                    id: v.id,
                    slot,
                    reads,
                    writes,
                    pure_kill: pure,
                    active: v.active,
                }),
            }
        }
    }
    map
}

/// Check every conflicting access pair for happens-before ordering under
/// `reach`. Returns the violations plus the number of pairs checked.
///
/// Pairs whose earlier vertex is retired are exempt: the recorded edges
/// are the edges the scheduler honored, so a retired vertex was
/// synchronized with the CPU before the later access was submitted
/// (retirement is transitive to ancestors, so an active-to-active path
/// can never run through a retired vertex — if the pair had needed an
/// edge, one would exist).
pub(crate) fn unordered_conflicts(
    dag: &ComputationDag,
    accesses: &AccessMap,
    reach: &Reachability,
) -> (Vec<ScheduleViolation>, usize) {
    let vertices = dag.vertices();
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for (value, list) in accesses.iter() {
        for (j, b) in list.iter().enumerate() {
            for a in &list[..j] {
                let conflict = (a.writes && (b.writes || b.reads)) || (a.reads && b.writes);
                if !conflict {
                    continue;
                }
                checked += 1;
                if reach.ordered(a.id, b.id) {
                    continue;
                }
                if !a.active {
                    continue;
                }
                violations.push(ScheduleViolation::UnorderedConflict {
                    kind: if a.writes && b.writes {
                        ConflictKind::WriteWrite
                    } else {
                        ConflictKind::ReadWrite
                    },
                    first: a.id,
                    first_label: vertices[a.slot].label,
                    second: b.id,
                    second_label: vertices[b.slot].label,
                    value,
                });
            }
        }
    }
    (violations, checked)
}
