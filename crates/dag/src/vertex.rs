//! Vertices of the computation DAG.

/// Identifier of a computational element inside one [`crate::ComputationDag`].
/// Monotonically increasing in submission order, so `a.0 < b.0` iff `a`
/// was submitted before `b` — the property that makes the graph acyclic
/// by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of a data value (a managed array) referenced by arguments.
/// This mirrors `gpu_sim::ValueId`; the crate is kept dependency-free so
/// the DAG logic can be tested in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Value(pub u64);

/// What kind of computational element a vertex represents (§IV-A lists
/// exactly these three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// A GPU kernel execution.
    Kernel,
    /// A CPU access (read or write) to a managed unified-memory array.
    ArrayAccess,
    /// A pre-registered library function (e.g. RAPIDS); scheduled
    /// synchronously when it does not expose stream choice.
    Library,
}

/// One argument of a computational element: which value it touches and
/// whether the access is read-only (`const`/`in` NIDL annotations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgAccess {
    /// The value (managed array) accessed.
    pub value: Value,
    /// True if the element only reads the value. Scalars passed by copy
    /// are never registered as arguments at all (paper Fig. 4: "scalar
    /// value passed by copy, ignored for dependencies").
    pub read_only: bool,
}

impl ArgAccess {
    /// A read-only (const) argument.
    pub fn read(value: Value) -> Self {
        ArgAccess {
            value,
            read_only: true,
        }
    }

    /// A read-write argument (the conservative default when no
    /// annotation is given).
    pub fn write(value: Value) -> Self {
        ArgAccess {
            value,
            read_only: false,
        }
    }
}

/// A computational element in the DAG.
#[derive(Debug, Clone)]
pub struct Vertex {
    /// This vertex's id.
    pub id: VertexId,
    /// Element class.
    pub kind: ElementKind,
    /// Name of the element: the kernel's declared name, or a fixed tag
    /// for a CPU access.
    pub label: &'static str,
    /// The argument list the element was created with.
    pub args: Vec<ArgAccess>,
    /// The *dependency set*: values through which this vertex can still
    /// introduce dependencies on future computations. Starts as all
    /// argument values; shrinks as later writers consume them. Sorted
    /// ascending, each value once.
    pub dep_set: Vec<Value>,
    /// Direct parents (dependencies), deduplicated, in discovery order.
    pub parents: Vec<VertexId>,
    /// Whether the vertex is still *active*: not yet synchronized by the
    /// CPU. Only active vertices can be dependency sources.
    pub active: bool,
    /// Device the scheduler placed the computation on. `None` until a
    /// placement policy assigned one — including on single-GPU runs,
    /// where the scheduler deliberately records nothing so single-GPU
    /// DOT renders stay undecorated. Purely diagnostic for the DAG
    /// itself — the scheduler keys its decisions on its own maps — but
    /// it lets [`crate::to_dot`] color multi-GPU schedules by device.
    pub device: Option<u32>,
}

impl Vertex {
    pub(crate) fn new(
        id: VertexId,
        kind: ElementKind,
        label: &'static str,
        args: &[ArgAccess],
    ) -> Self {
        let mut v = Vertex {
            id,
            kind,
            label,
            args: Vec::new(),
            dep_set: Vec::new(),
            parents: Vec::new(),
            active: true,
            device: None,
        };
        v.reset(id, kind, label, args);
        v
    }

    /// Make this a freshly registered vertex again, keeping the heap
    /// buffers of whatever it was before: how the DAG turns a retired
    /// vertex into the next registration without allocating.
    pub(crate) fn reset(
        &mut self,
        id: VertexId,
        kind: ElementKind,
        label: &'static str,
        args: &[ArgAccess],
    ) {
        self.id = id;
        self.kind = kind;
        self.label = label;
        self.args.clear();
        self.args.extend_from_slice(args);
        self.dep_set.clear();
        for a in args {
            if let Err(at) = self.dep_set.binary_search(&a.value) {
                self.dep_set.insert(at, a.value);
            }
        }
        self.parents.clear();
        self.active = true;
        self.device = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_vertex_dep_set_is_all_args() {
        let v = Vertex::new(
            VertexId(0),
            ElementKind::Kernel,
            "k",
            &[ArgAccess::write(Value(1)), ArgAccess::read(Value(2))],
        );
        assert_eq!(v.dep_set.len(), 2);
        assert!(v.dep_set.contains(&Value(1)) && v.dep_set.contains(&Value(2)));
        assert!(v.active);
    }

    #[test]
    fn duplicate_arg_values_collapse_in_dep_set() {
        let v = Vertex::new(
            VertexId(0),
            ElementKind::Kernel,
            "k",
            &[ArgAccess::read(Value(1)), ArgAccess::write(Value(1))],
        );
        assert_eq!(v.dep_set.len(), 1);
    }
}
