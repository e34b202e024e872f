//! Kernel handles and launch arguments.

use std::fmt;

use cuda_sim::UnifiedArray;
use gpu_sim::Grid;
use kernels::KernelDef;

use crate::array::DeviceArray;
use crate::context::GrCuda;
use crate::nidl::{NidlParam, NidlType, Signature};

/// A launch argument: a managed array or a scalar passed by copy.
///
/// Scalars are "ignored for dependencies" (paper Fig. 4) — only array
/// arguments participate in DAG construction.
#[derive(Clone)]
pub enum Arg {
    /// A managed device array.
    Array(DeviceArray),
    /// A scalar (sizes, coefficients). All scalars ride as `f64` and are
    /// converted by the kernel's functional implementation.
    Scalar(f64),
}

impl Arg {
    /// Wrap an array argument.
    pub fn array(a: &DeviceArray) -> Arg {
        Arg::Array(a.clone())
    }

    /// Wrap a scalar argument.
    pub fn scalar(v: f64) -> Arg {
        Arg::Scalar(v)
    }
}

/// The distinct arrays among a validated launch's arguments, in
/// first-use order — what must be resident on the chosen device for the
/// kernel to run. The one place duplicates are folded: the scheduler's
/// [`LaunchError::OutOfMemory`] check, its placement probe and prefetch
/// loops, and the serving layer's admission control all use this
/// answer. Borrowed from `args`, so asking allocates nothing.
pub(crate) fn distinct_arrays(args: &[Arg]) -> impl Iterator<Item = &UnifiedArray> {
    args.iter().enumerate().filter_map(move |(i, a)| {
        let Arg::Array(arr) = a else { return None };
        let seen = |b: &Arg| matches!(b, Arg::Array(other) if other.arr.id == arr.arr.id);
        (!args[..i].iter().any(seen)).then_some(&arr.arr)
    })
}

/// Total bytes of a launch's [`distinct_arrays`].
pub(crate) fn arg_bytes(args: &[Arg]) -> usize {
    distinct_arrays(args).map(UnifiedArray::byte_len).sum()
}

/// Errors raised when a launch does not match the kernel's NIDL
/// signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Wrong number of arguments.
    ArityMismatch {
        /// Kernel name.
        kernel: String,
        /// Parameters the signature declares.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// An array was passed where a scalar was declared, or vice versa.
    KindMismatch {
        /// Kernel name.
        kernel: String,
        /// Zero-based parameter index.
        index: usize,
    },
    /// An array's element type does not match the declared pointer type.
    TypeMismatch {
        /// Kernel name.
        kernel: String,
        /// Zero-based parameter index.
        index: usize,
        /// Type the signature declares.
        expected: String,
        /// Element type of the array supplied.
        got: String,
    },
    /// An array argument was allocated by a different [`GrCuda`]
    /// runtime than the one launching. Array identities are only
    /// meaningful inside the runtime that issued them, so the launch is
    /// refused before anything enters the DAG.
    ForeignArray {
        /// Kernel name.
        kernel: String,
        /// Zero-based parameter index.
        index: usize,
    },
    /// A scalar passed for an integer parameter (`sint32`, `sint64`) is
    /// not a value of that type: NaN, infinite, fractional or outside
    /// its range. Scalars ride as `f64` and the kernel converts them
    /// back, so anything else would reach it as a different number.
    BadScalar {
        /// Kernel name.
        kernel: String,
        /// Zero-based parameter index.
        index: usize,
    },
    /// The launch's argument set is larger than any device's memory:
    /// even evicting every other resident array could not make it fit.
    /// Raised only under a finite [`gpu_sim::MemoryConfig`] capacity.
    OutOfMemory {
        /// Kernel name.
        kernel: String,
        /// Total distinct argument bytes the launch needs resident.
        needed: usize,
        /// The per-device capacity none of the devices can stretch.
        capacity: usize,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::ArityMismatch {
                kernel,
                expected,
                got,
            } => {
                write!(f, "kernel `{kernel}` takes {expected} arguments, got {got}")
            }
            LaunchError::KindMismatch { kernel, index } => {
                write!(
                    f,
                    "kernel `{kernel}` argument {index}: array/scalar kind mismatch"
                )
            }
            LaunchError::TypeMismatch {
                kernel,
                index,
                expected,
                got,
            } => write!(
                f,
                "kernel `{kernel}` argument {index}: expected {expected} array, got {got}"
            ),
            LaunchError::ForeignArray { kernel, index } => write!(
                f,
                "kernel `{kernel}` argument {index}: array belongs to another runtime"
            ),
            LaunchError::BadScalar { kernel, index } => write!(
                f,
                "kernel `{kernel}` argument {index}: scalar is not a value of \
                 the declared integer type"
            ),
            LaunchError::OutOfMemory {
                kernel,
                needed,
                capacity,
            } => write!(
                f,
                "kernel `{kernel}` is out of memory: its arguments need {needed} \
                 bytes resident but every device caps at {capacity} bytes"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Can a scalar parameter declared `ty` hold `v`? An integer parameter
/// takes integral values inside its type's range, so the kernel's
/// conversion back from `f64` is exact. The round trip through `i64`
/// is the integrality test (a fraction is truncated, NaN lands on 0):
/// one conversion each way, no call into libm on the launch path.
fn scalar_fits(ty: NidlType, v: f64) -> bool {
    let bound = match ty {
        NidlType::Sint32 => 2f64.powi(31),
        NidlType::Sint64 => 2f64.powi(63),
        _ => return true,
    };
    (-bound..bound).contains(&v) && v as i64 as f64 == v
}

/// One entry of a batched submission ([`GrCuda::launch_batch`]): a
/// kernel, its grid and its arguments, exactly as a standalone
/// [`Kernel::launch`] would take them.
///
/// [`GrCuda::launch_batch`]: crate::GrCuda::launch_batch
pub struct BatchLaunch<'a> {
    /// The kernel to launch.
    pub kernel: &'a Kernel,
    /// Launch grid.
    pub grid: Grid,
    /// Launch arguments (validated against the NIDL signature before
    /// anything in the batch is submitted).
    pub args: &'a [Arg],
}

/// A compiled kernel bound to a [`GrCuda`] context — what GrCUDA's
/// `buildkernel` returns. Launch it like a CUDA kernel:
/// `k.launch(grid, &[args...])`.
#[derive(Clone)]
pub struct Kernel {
    pub(crate) ctx: GrCuda,
    pub(crate) def: KernelDef,
    pub(crate) sig: Signature,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.def.name)
            .field("nidl", &self.def.nidl)
            .finish()
    }
}

impl Kernel {
    /// Kernel name.
    pub(crate) fn name(&self) -> &'static str {
        self.def.name
    }

    /// Parsed signature.
    pub(crate) fn signature(&self) -> &Signature {
        &self.sig
    }

    /// Validate arguments against the NIDL signature and hand the launch
    /// to the scheduler. Returns when the launch is *scheduled* (parallel
    /// policy) or *complete* (serial policy), with the device the
    /// placement policy chose (always 0 on single-device runtimes) — how
    /// callers observe scheduling decisions without changing them.
    pub fn launch(&self, grid: Grid, args: &[Arg]) -> Result<u32, LaunchError> {
        self.launch_as(dag::ElementKind::Kernel, grid, args)
    }

    /// Whether the runtime would accept this call — the acceptance check
    /// every launch path asks first — with nothing submitted: the error
    /// [`Kernel::launch`] would return for these arguments, or `Ok` when
    /// it would schedule them. Lets a caller refuse a whole program
    /// before any of it runs.
    pub fn accepts(&self, args: &[Arg]) -> Result<(), LaunchError> {
        self.ctx.accept(self, args)
    }

    /// Have the call accepted ([`GrCuda::accept`]) and hand it to the
    /// scheduler as a `kind` element: a kernel, or a pre-registered
    /// library call (same scheduling, tagged
    /// [`dag::ElementKind::Library`] in the DAG).
    pub(crate) fn launch_as(
        &self,
        kind: dag::ElementKind,
        grid: Grid,
        args: &[Arg],
    ) -> Result<u32, LaunchError> {
        self.ctx.accept(self, args)?;
        Ok(self.ctx.launch_accepted(self, grid, args, kind, true, None))
    }

    /// Launch with an **autotuned** 1-D block size (the paper's §VI
    /// future-work heuristic: "estimating the ideal block size based on
    /// data size and previous executions"). The runtime's per-kernel
    /// history first explores the candidate block sizes for this input
    /// magnitude, then exploits the fastest observed one. Returns the
    /// grid it chose.
    ///
    /// The history is §IV-A's: "We track each kernel's historical
    /// performance and scheduling to allow the creation of heuristics
    /// that guide future scheduling of the same kernel." It lives where
    /// a kernel's duration becomes known: the engine records every
    /// completed launch into [`gpu_sim::Calibration`] (per-signature
    /// `(block size, size bucket)` cells over
    /// [`gpu_sim::CANDIDATE_BLOCK_SIZES`]), which also holds
    /// the explore-then-exploit chooser used here. Read it through
    /// [`crate::GrCuda::calibration`].
    ///
    /// A launch's measurement reaches the tuner as soon as the simulator
    /// completes the kernel — at any [`crate::GrCuda::sync`], array read
    /// or other call that advances virtual time past its end — and not
    /// before: launches issued back to back while the first is still
    /// running all see the same history and pick the same block size.
    /// Synchronize between launches so each one builds on the last. The
    /// moment is deterministic (it is virtual time).
    ///
    /// `blocks` is the fixed 1-D block count (the paper tunes only the
    /// threads-per-block dimension).
    pub fn launch_autotuned(&self, blocks: u32, args: &[Arg]) -> Result<Grid, LaunchError> {
        self.ctx.accept(self, args)?;
        let elements = args
            .iter()
            .filter_map(|a| match a {
                Arg::Array(arr) => Some(arr.len()),
                Arg::Scalar(_) => None,
            })
            .max()
            .unwrap_or(0);
        let bs = self.ctx.choose_block_size(self.def.name, elements);
        let grid = Grid::d1(blocks, bs);
        self.ctx
            .launch_accepted(self, grid, args, dag::ElementKind::Kernel, true, None);
        Ok(grid)
    }

    /// Check arity, kinds, element types and integer scalars, and that
    /// every array belongs to this kernel's runtime — the signature half
    /// of [`GrCuda::accept`], its one caller.
    pub(crate) fn validate(&self, args: &[Arg]) -> Result<(), LaunchError> {
        if args.len() != self.sig.params.len() {
            return Err(LaunchError::ArityMismatch {
                kernel: self.def.name.into(),
                expected: self.sig.params.len(),
                got: args.len(),
            });
        }
        for (i, (p, a)) in self.sig.params.iter().zip(args).enumerate() {
            match (p, a) {
                (NidlParam::Pointer { ty, .. }, Arg::Array(arr)) => {
                    if !arr.ctx.same_runtime(&self.ctx) {
                        return Err(LaunchError::ForeignArray {
                            kernel: self.def.name.into(),
                            index: i,
                        });
                    }
                    if let Some(expected) = ty.buffer_type_name() {
                        let got = arr.type_name();
                        if got != expected {
                            return Err(LaunchError::TypeMismatch {
                                kernel: self.def.name.into(),
                                index: i,
                                expected: expected.into(),
                                got: got.into(),
                            });
                        }
                    }
                }
                (NidlParam::Scalar { ty, .. }, Arg::Scalar(v)) => {
                    if !scalar_fits(*ty, *v) {
                        return Err(LaunchError::BadScalar {
                            kernel: self.def.name.into(),
                            index: i,
                        });
                    }
                }
                _ => {
                    return Err(LaunchError::KindMismatch {
                        kernel: self.def.name.into(),
                        index: i,
                    })
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_scalars_take_exactly_their_types_values() {
        let (i32_end, i64_end) = (2f64.powi(31), 2f64.powi(63));
        for (ty, v, fits) in [
            (NidlType::Sint32, 0.0, true),
            (NidlType::Sint32, -i32_end, true),
            (NidlType::Sint32, i32_end - 1.0, true),
            (NidlType::Sint32, i32_end, false),
            (NidlType::Sint32, -i32_end - 1.0, false),
            (NidlType::Sint32, 0.5, false),
            (NidlType::Sint32, f64::NAN, false),
            (NidlType::Sint32, f64::NEG_INFINITY, false),
            (NidlType::Sint64, i32_end, true),
            (NidlType::Sint64, -i64_end, true),
            (NidlType::Sint64, i64_end, false),
            (NidlType::Sint64, f64::INFINITY, false),
            (NidlType::Float, f64::NAN, true),
            (NidlType::Double, 0.5, true),
        ] {
            assert_eq!(scalar_fits(ty, v), fits, "{ty:?} {v}");
        }
    }
}
