//! NIDL signature parsing (§IV-D).
//!
//! GrCUDA kernels are declared with a *Native Interface Definition
//! Language* string, e.g. `buildkernel(code, "square", "ptr, sint32")`.
//! The scheduler reads two things out of the signature:
//!
//! * which parameters are **pointers** (managed arrays that create
//!   dependencies) and which are scalars passed by copy (ignored for
//!   dependencies — paper Fig. 4);
//! * which pointers are **read-only** (`const` or `in` annotations),
//!   enabling the Fig. 3 concurrency rules. "Not specifying arguments as
//!   read-only does not affect correctness, but might limit the scheduler
//!   from performing further optimizations."
//!
//! Accepted grammar (comma-separated parameters):
//!
//! ```text
//! param   := [name ':'] qualifier* ('pointer' type | type)
//! qualifier := 'const' | 'in' | 'out' | 'inout'
//! type    := 'float' | 'double' | 'sint32' | 'sint64' | 'uint8' | 'char' | 'ptr'
//! ```
//!
//! `ptr` is accepted as an untyped pointer (GrCUDA's original spelling).

use std::fmt;

/// Element / scalar types NIDL can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NidlType {
    /// 32-bit float.
    Float,
    /// 64-bit float.
    Double,
    /// 32-bit signed integer.
    Sint32,
    /// 64-bit signed integer.
    Sint64,
    /// Unsigned byte (images).
    Uint8,
    /// Untyped (`ptr`) — matches any element type.
    Untyped,
}

impl NidlType {
    fn parse(tok: &str) -> Option<NidlType> {
        Some(match tok {
            "float" => NidlType::Float,
            "double" => NidlType::Double,
            "sint32" | "int" | "int32" => NidlType::Sint32,
            "sint64" | "long" | "int64" => NidlType::Sint64,
            "uint8" | "char" => NidlType::Uint8,
            _ => return None,
        })
    }

    /// The buffer type-name this NIDL type accepts (None = any).
    pub(crate) fn buffer_type_name(self) -> Option<&'static str> {
        match self {
            NidlType::Float => Some("float"),
            NidlType::Double => Some("double"),
            NidlType::Sint32 => Some("sint32"),
            NidlType::Uint8 => Some("char"),
            NidlType::Sint64 => Some("sint64"),
            NidlType::Untyped => None,
        }
    }
}

impl fmt::Display for NidlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NidlType::Float => "float",
            NidlType::Double => "double",
            NidlType::Sint32 => "sint32",
            NidlType::Sint64 => "sint64",
            NidlType::Uint8 => "uint8",
            NidlType::Untyped => "ptr",
        };
        f.write_str(s)
    }
}

/// One parsed parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NidlParam {
    /// A managed-array parameter.
    Pointer {
        /// Optional parameter name (`x: const pointer float`).
        name: Option<String>,
        /// Element type.
        ty: NidlType,
        /// True for `const`/`in` parameters: the kernel only reads it.
        read_only: bool,
        /// True for `out`-annotated parameters: the kernel overwrites the
        /// array without reading it. A plain (unannotated) writable
        /// pointer is treated as `inout` — it *may* read what it
        /// overwrites — so only pure `out` parameters let the schedule
        /// sanitizer prove an earlier write dead.
        declared_out: bool,
    },
    /// A scalar passed by copy — never a dependency source.
    Scalar {
        /// Optional parameter name.
        name: Option<String>,
        /// Scalar type.
        ty: NidlType,
    },
}

impl NidlParam {
    /// Is this parameter a pointer?
    pub fn is_pointer(&self) -> bool {
        matches!(self, NidlParam::Pointer { .. })
    }

    /// Is this parameter a read-only pointer?
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            NidlParam::Pointer {
                read_only: true,
                ..
            }
        )
    }

    /// Is this parameter a pure-`out` pointer (overwritten, never read)?
    pub(crate) fn is_declared_out(&self) -> bool {
        matches!(
            self,
            NidlParam::Pointer {
                declared_out: true,
                ..
            }
        )
    }
}

/// A fully parsed kernel signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Parameters in declaration order.
    pub params: Vec<NidlParam>,
}

/// Signature parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NidlError {
    /// Human-readable description with the offending parameter.
    pub message: String,
    /// Byte offset of the offending token (or parameter) within the
    /// signature string. Signatures are single-line, so the 1-based
    /// column is `offset + 1`.
    pub offset: usize,
}

impl NidlError {
    /// 1-based column of the offending token (signatures are one line).
    fn column(&self) -> usize {
        self.offset + 1
    }
}

impl fmt::Display for NidlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NIDL parse error at byte {} (column {}): {}",
            self.offset,
            self.column(),
            self.message
        )
    }
}

impl std::error::Error for NidlError {}

impl Signature {
    /// Parse a NIDL signature string.
    pub fn parse(s: &str) -> Result<Signature, NidlError> {
        let mut params = Vec::new();
        let mut pos = 0usize;
        for (i, seg) in s.split(',').enumerate() {
            let seg_start = pos;
            pos += seg.len() + 1; // past this segment and its comma
            let raw = seg.trim();
            if raw.is_empty() {
                return Err(NidlError {
                    message: format!("parameter {i} is empty in `{s}`"),
                    offset: seg_start,
                });
            }
            // Byte offset of the trimmed parameter within `s`; every
            // token inside `raw` is a subslice of `s`, so token offsets
            // fall out of pointer arithmetic against `s` below.
            let param_start = seg_start + (seg.len() - seg.trim_start().len());
            params.push(Self::parse_param(s, raw, param_start, i)?);
        }
        Ok(Signature { params })
    }

    fn parse_param(
        full: &str,
        raw: &str,
        param_start: usize,
        index: usize,
    ) -> Result<NidlParam, NidlError> {
        // Byte offset of a token (a subslice of `full`) within `full`.
        let offset_of = |tok: &str| tok.as_ptr() as usize - full.as_ptr() as usize;
        debug_assert_eq!(offset_of(raw), param_start);
        // Optional `name :` prefix.
        let (name, rest) = match raw.split_once(':') {
            Some((n, r)) => (Some(n.trim().to_string()), r.trim()),
            None => (None, raw),
        };
        let mut read_only = false;
        let mut declared_out = false;
        let mut is_pointer = false;
        let mut ty: Option<NidlType> = None;
        for tok in rest.split_whitespace() {
            match tok {
                "const" | "in" => read_only = true,
                "out" => {
                    read_only = false;
                    declared_out = true;
                }
                "inout" => read_only = false,
                "pointer" => is_pointer = true,
                "ptr" => {
                    is_pointer = true;
                    ty.get_or_insert(NidlType::Untyped);
                }
                other => match NidlType::parse(other) {
                    Some(t) => {
                        if ty.is_some() && ty != Some(NidlType::Untyped) {
                            return Err(NidlError {
                                message: format!("parameter {index} `{raw}` has two types"),
                                offset: offset_of(tok),
                            });
                        }
                        ty = Some(t);
                    }
                    None => {
                        return Err(NidlError {
                            message: format!(
                                "unknown token `{other}` in parameter {index} `{raw}`"
                            ),
                            offset: offset_of(tok),
                        })
                    }
                },
            }
        }
        let ty = ty.ok_or_else(|| NidlError {
            message: format!("parameter {index} `{raw}` has no type"),
            offset: param_start,
        })?;
        if is_pointer {
            Ok(NidlParam::Pointer {
                name,
                ty,
                read_only,
                declared_out,
            })
        } else {
            if read_only {
                return Err(NidlError {
                    message: format!(
                        "parameter {index} `{raw}` is a const scalar — scalars are always by-copy"
                    ),
                    offset: param_start,
                });
            }
            Ok(NidlParam::Scalar { name, ty })
        }
    }

    /// Number of pointer parameters.
    pub fn pointer_count(&self) -> usize {
        self.params.iter().filter(|p| p.is_pointer()).count()
    }

    /// Number of scalar parameters.
    pub fn scalar_count(&self) -> usize {
        self.params.len() - self.pointer_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_vec_signature() {
        // Fig. 4: K2 = buildkernel(..., "const ptr, const ptr, ptr, sint32")
        let sig = Signature::parse("const ptr, const ptr, ptr, sint32").unwrap();
        assert_eq!(sig.params.len(), 4);
        assert!(sig.params[0].is_read_only());
        assert!(sig.params[1].is_read_only());
        assert!(sig.params[2].is_pointer() && !sig.params[2].is_read_only());
        assert!(!sig.params[3].is_pointer());
        assert_eq!(sig.pointer_count(), 3);
        assert_eq!(sig.scalar_count(), 1);
    }

    #[test]
    fn parses_typed_pointers() {
        let sig = Signature::parse("const pointer float, pointer double, sint32").unwrap();
        match &sig.params[0] {
            NidlParam::Pointer { ty, read_only, .. } => {
                assert_eq!(*ty, NidlType::Float);
                assert!(read_only);
            }
            _ => panic!("expected pointer"),
        }
        match &sig.params[1] {
            NidlParam::Pointer { ty, read_only, .. } => {
                assert_eq!(*ty, NidlType::Double);
                assert!(!read_only);
            }
            _ => panic!("expected pointer"),
        }
    }

    #[test]
    fn parses_named_params_and_in_qualifier() {
        let sig = Signature::parse("x: in pointer float, n: sint32").unwrap();
        match &sig.params[0] {
            NidlParam::Pointer {
                name, read_only, ..
            } => {
                assert_eq!(name.as_deref(), Some("x"));
                assert!(read_only);
            }
            _ => panic!("expected pointer"),
        }
        match &sig.params[1] {
            NidlParam::Scalar { name, ty } => {
                assert_eq!(name.as_deref(), Some("n"));
                assert_eq!(*ty, NidlType::Sint32);
            }
            _ => panic!("expected scalar"),
        }
    }

    #[test]
    fn scalar_float_is_by_copy() {
        let sig = Signature::parse("pointer float, float, sint32").unwrap();
        assert_eq!(sig.pointer_count(), 1);
        assert_eq!(sig.scalar_count(), 2);
    }

    #[test]
    fn rejects_unknown_tokens() {
        let err = Signature::parse("pointer quux").unwrap_err();
        assert!(err.message.contains("quux"));
    }

    #[test]
    fn rejects_missing_type() {
        assert!(Signature::parse("const pointer").is_err());
    }

    #[test]
    fn rejects_const_scalars() {
        assert!(Signature::parse("const sint32").is_err());
    }

    #[test]
    fn rejects_empty_params() {
        assert!(Signature::parse("float,,sint32").is_err());
    }

    #[test]
    fn parses_pure_out_qualifier() {
        let sig =
            Signature::parse("out pointer float, inout pointer float, pointer float").unwrap();
        assert!(sig.params[0].is_declared_out());
        assert!(!sig.params[0].is_read_only());
        assert!(!sig.params[1].is_declared_out(), "inout may read");
        assert!(!sig.params[2].is_declared_out(), "plain pointer is inout");
        assert!(!Signature::parse("const ptr").unwrap().params[0].is_declared_out());
    }

    #[test]
    fn errors_carry_the_offending_tokens_byte_offset() {
        let src = "pointer float, pointer quux";
        let err = Signature::parse(src).unwrap_err();
        assert_eq!(err.offset, src.find("quux").unwrap());
        assert_eq!(err.column(), err.offset + 1);

        // Second type token, not the first, is the offender.
        let src = "x: pointer float sint32";
        let err = Signature::parse(src).unwrap_err();
        assert_eq!(err.offset, src.find("sint32").unwrap());

        // Structural errors point at the parameter start.
        let src = "float,  const pointer";
        let err = Signature::parse(src).unwrap_err();
        assert_eq!(err.offset, src.find("const").unwrap());
        let src = "float,,sint32";
        assert_eq!(Signature::parse(src).unwrap_err().offset, 6);
    }

    #[test]
    fn error_rendering_names_byte_and_column() {
        let err = Signature::parse("const ptr, bogus ptr").unwrap_err();
        let rendered = err.to_string();
        assert_eq!(
            rendered,
            "NIDL parse error at byte 11 (column 12): unknown token `bogus` \
             in parameter 1 `bogus ptr`"
        );
    }

    #[test]
    fn every_registered_kernel_signature_parses() {
        for k in kernels::all_kernels() {
            let sig = Signature::parse(k.nidl)
                .unwrap_or_else(|e| panic!("{} signature invalid: {e}", k.name));
            assert!(sig.pointer_count() > 0, "{} takes no arrays", k.name);
        }
    }

    /// The point of the `const`/`in` annotations (§IV-D, Fig. 3 case C):
    /// a signature's read-only flags feed dependency inference, and
    /// computations that only *read* a value must never be ordered
    /// against each other — only against the value's last writer.
    #[test]
    fn const_annotated_args_create_no_edges_between_readers() {
        use dag::{ArgAccess, ComputationDag, ElementKind, Value};

        // `out, n` writer followed by `in, out, n` readers, as NIDL
        // declares them.
        let writer_sig = Signature::parse("ptr, sint32").unwrap();
        let reader_sig = Signature::parse("const ptr, ptr, sint32").unwrap();

        // Dependency inference sees exactly one ArgAccess per pointer
        // param, read-only iff the signature says `const`/`in`.
        let accesses = |sig: &Signature, values: &[u64]| -> Vec<ArgAccess> {
            sig.params
                .iter()
                .filter(|p| p.is_pointer())
                .zip(values)
                .map(|(p, &v)| ArgAccess {
                    value: Value(v),
                    read_only: p.is_read_only(),
                })
                .collect()
        };

        let mut g = ComputationDag::new();
        // K0 writes value 0; readers K1..K4 each read value 0 and write
        // their own private output (values 1..=4).
        let (writer, _) = g.add_computation(ElementKind::Kernel, "W", accesses(&writer_sig, &[0]));
        let mut readers = Vec::new();
        for out in 1..=4u64 {
            let (id, deps) =
                g.add_computation(ElementKind::Kernel, "R", accesses(&reader_sig, &[0, out]));
            assert_eq!(
                deps,
                vec![writer],
                "a const-annotated read must depend on the writer and nothing else"
            );
            readers.push(id);
        }

        // Contrast: without the `const` annotation the same launches are
        // treated as writes and serialize into a chain (correct but
        // parallelism-free — "not specifying arguments as read-only does
        // not affect correctness").
        let plain_sig = Signature::parse("ptr, ptr, sint32").unwrap();
        let mut g2 = ComputationDag::new();
        let (w2, _) = g2.add_computation(ElementKind::Kernel, "W", accesses(&writer_sig, &[0]));
        let mut prev = w2;
        for out in 1..=4u64 {
            let (id, deps) =
                g2.add_computation(ElementKind::Kernel, "R", accesses(&plain_sig, &[0, out]));
            assert_eq!(
                deps,
                vec![prev],
                "without const, each op must wait for the previous accessor"
            );
            prev = id;
        }
    }

    #[test]
    fn type_display_roundtrips() {
        for (t, s) in [
            (NidlType::Float, "float"),
            (NidlType::Double, "double"),
            (NidlType::Sint32, "sint32"),
            (NidlType::Uint8, "uint8"),
        ] {
            assert_eq!(t.to_string(), s);
        }
    }
}
