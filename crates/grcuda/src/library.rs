//! Pre-registered library functions (§IV-A).
//!
//! "Pre-registered libraries can also take advantage of our scheduler if
//! they expose the choice of execution stream in their API. If not, they
//! are scheduled synchronously to guarantee correctness." (The paper
//! names RAPIDS as the canonical example.)
//!
//! A [`Library`] wraps a callable with a fixed internal launch
//! configuration (libraries pick their own grids). Stream-aware
//! libraries flow through the DAG scheduler like kernels, as
//! [`dag::ElementKind::Library`] elements; stream-oblivious ones are
//! bracketed by full-device synchronization.

use gpu_sim::Grid;
use kernels::KernelDef;

use crate::context::GrCuda;
use crate::kernel::{Arg, Kernel, LaunchError};

/// A registered library function bound to a [`GrCuda`] context.
#[derive(Clone)]
pub struct Library {
    kernel: Kernel,
    grid: Grid,
    stream_aware: bool,
}

impl std::fmt::Debug for Library {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Library")
            .field("name", &self.kernel.name())
            .field("stream_aware", &self.stream_aware)
            .finish()
    }
}

impl GrCuda {
    /// Register a library function. `stream_aware` declares whether the
    /// library exposes stream selection in its API; if not, every call
    /// is a synchronization barrier (the correctness fallback §IV-A
    /// prescribes).
    pub fn register_library(
        &self,
        def: &KernelDef,
        grid: Grid,
        stream_aware: bool,
    ) -> Result<Library, crate::NidlError> {
        Ok(Library {
            kernel: self.build_kernel(def)?,
            grid,
            stream_aware,
        })
    }
}

impl Library {
    /// Invoke the library function. Stream-aware: scheduled through the
    /// DAG like any kernel. Stream-oblivious: the device is drained
    /// before and after the call.
    pub fn call(&self, args: &[Arg]) -> Result<(), LaunchError> {
        let launch = || {
            let kind = dag::ElementKind::Library;
            self.kernel.launch_as(kind, self.grid, args).map(|_| ())
        };
        if self.stream_aware {
            launch()
        } else {
            // Correctness fallback: the library may use internal streams
            // we cannot see, so nothing may be in flight around it.
            self.kernel.ctx.sync();
            let r = launch();
            self.kernel.ctx.sync();
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Options;
    use gpu_sim::DeviceProfile;
    use kernels::vec_ops::SQUARE;

    fn ctx() -> GrCuda {
        GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel())
    }

    const G: Grid = Grid {
        blocks: (64, 1, 1),
        threads: (256, 1, 1),
    };

    #[test]
    fn stream_aware_library_overlaps_with_kernels() {
        let g = ctx();
        let n = 1 << 20;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        x.fill_f32(2.0);
        y.fill_f32(3.0);
        let lib = g.register_library(&SQUARE, G, true).unwrap();
        // Two independent "library" calls must land on separate streams.
        lib.call(&[Arg::array(&x), Arg::scalar(n as f64)]).unwrap();
        lib.call(&[Arg::array(&y), Arg::scalar(n as f64)]).unwrap();
        g.sync();
        let tl = g.timeline();
        let streams: std::collections::HashSet<u32> = tl.kernels().map(|iv| iv.stream).collect();
        assert_eq!(streams.len(), 2);
        assert_eq!(x.get_f32(0), 4.0);
        assert_eq!(y.get_f32(0), 9.0);
        assert!(g.races().is_empty());
    }

    #[test]
    fn oblivious_library_serializes_everything() {
        let g = ctx();
        let n = 1 << 20;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        x.fill_f32(2.0);
        y.fill_f32(3.0);
        let lib = g.register_library(&SQUARE, G, false).unwrap();
        g.clear_timeline();
        lib.call(&[Arg::array(&x), Arg::scalar(n as f64)]).unwrap();
        lib.call(&[Arg::array(&y), Arg::scalar(n as f64)]).unwrap();
        g.sync();
        let tl = g.timeline();
        let ks: Vec<_> = tl.kernels().collect();
        assert_eq!(ks.len(), 2);
        // The second call may not start before the first ends, even
        // though the arguments are independent.
        assert!(
            ks[1].start >= ks[0].end - 1e-12,
            "oblivious library must act as a barrier"
        );
        assert_eq!(x.get_f32(0), 4.0);
        assert_eq!(y.get_f32(0), 9.0);
    }

    #[test]
    fn library_validates_signatures() {
        let g = ctx();
        let x = g.array_f32(8);
        let lib = g.register_library(&SQUARE, G, true).unwrap();
        assert!(matches!(
            lib.call(&[Arg::array(&x)]),
            Err(LaunchError::ArityMismatch { .. })
        ));
        assert!(format!("{lib:?}").contains("square"));
    }
}
