//! The liveness half of the sanitizer: dead writes and never-read
//! arrays.

use std::fmt;

use dag::{ComputationDag, Value, VertexId};

use super::soundness::AccessMap;

/// What a liveness lint flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintKind {
    /// The write is overwritten by a pure-`out` access before anyone
    /// reads it — the flagged computation's work on this value is
    /// provably wasted.
    DeadWrite {
        /// The overwriting vertex.
        overwriter: VertexId,
        /// Its label.
        overwriter_label: &'static str,
    },
    /// The value is written but no stored computation reads it *after
    /// its last write* — the final result is never consumed. (Reads
    /// before the last write, including the last writer's own potential
    /// inout read of the previous content, consume earlier values, not
    /// this one.) Informational: the host may read it after the audit
    /// runs (a pre-read audit flags every output array).
    NeverRead,
}

/// One liveness finding: a write whose result goes unused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// The value whose write is wasted.
    pub value: Value,
    /// The writing vertex.
    pub writer: VertexId,
    /// Its label.
    pub writer_label: &'static str,
    /// Why the write is wasted.
    pub kind: LintKind,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            LintKind::DeadWrite {
                overwriter,
                overwriter_label,
            } => write!(
                f,
                "dead write: `{}` (v{}) writes value {} but `{overwriter_label}` (v{}) \
                 overwrites it (pure out) before any read",
                self.writer_label, self.writer.0, self.value.0, overwriter.0
            ),
            LintKind::NeverRead => write!(
                f,
                "never read: value {} is last written by `{}` (v{}) and no stored \
                 computation reads it afterwards",
                self.value.0, self.writer_label, self.writer.0
            ),
        }
    }
}

/// Scan each value's access list for dead writes and never-read values.
///
/// A write is dead only when the *next* write is a provable pure kill
/// (declared `out` and actually written) with no intervening read, and
/// both endpoints are still active — once a chain is retired, the host
/// may have read the value invisibly (unmodeled free accesses), so
/// retired writes are given the benefit of the doubt. The same caution
/// applies to never-read: only values whose last writer is still active
/// are flagged.
pub(crate) fn liveness(dag: &ComputationDag, accesses: &AccessMap) -> (Vec<Lint>, Vec<Lint>) {
    let vertices = dag.vertices();
    let mut dead = Vec::new();
    let mut never = Vec::new();
    for (value, list) in accesses.iter() {
        for (i, a) in list.iter().enumerate() {
            if !a.writes {
                continue;
            }
            for b in &list[i + 1..] {
                if b.reads {
                    break;
                }
                if b.writes {
                    if b.pure_kill && a.active && b.active {
                        dead.push(Lint {
                            value,
                            writer: a.id,
                            writer_label: vertices[a.slot].label,
                            kind: LintKind::DeadWrite {
                                overwriter: b.id,
                                overwriter_label: vertices[b.slot].label,
                            },
                        });
                    }
                    break;
                }
            }
        }
        // Never-read: nothing after the last write reads the value. A
        // writer's own (potential inout) read precedes its write and
        // consumes the previous content, so it does not count.
        if let Some(wi) = list.iter().rposition(|a| a.writes) {
            let w = &list[wi];
            if w.active && !list[wi + 1..].iter().any(|a| a.reads) {
                never.push(Lint {
                    value,
                    writer: w.id,
                    writer_label: vertices[w.slot].label,
                    kind: LintKind::NeverRead,
                });
            }
        }
    }
    (dead, never)
}
