//! Managed device arrays with intercepted CPU accesses.
//!
//! GrCUDA arrays are backed by unified memory (§IV-A): the CPU can read
//! or write elements at any time, and the runtime models conflicting
//! accesses as computational elements so that "if the access introduces a
//! data dependency on a GPU computation, the scheduler ensures that the
//! CPU waits for that computation to end". Accesses with no conflicts are
//! executed immediately, without DAG bookkeeping.

use cuda_sim::UnifiedArray;

use crate::context::GrCuda;

/// A managed array bound to a [`GrCuda`] context. Cheap to clone; clones
/// are the same allocation.
#[derive(Clone)]
pub struct DeviceArray {
    pub(crate) ctx: GrCuda,
    pub(crate) arr: UnifiedArray,
}

impl std::fmt::Debug for DeviceArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceArray")
            .field("id", &self.arr.id)
            .field("len", &self.arr.len())
            .field("type", &self.arr.buf.type_name())
            .finish()
    }
}

macro_rules! typed_array_api {
    ($get:ident, $set:ident, $fill:ident, $copy_from:ident, $to_vec:ident, $as_ref:ident, $as_mut:ident, $ty:ty, $elem:expr) => {
        /// Read one element; synchronizes with any GPU work producing it.
        pub fn $get(&self, i: usize) -> $ty {
            self.ctx.host_access(&self.arr, $elem, false);
            self.arr.buf.$as_ref()[i]
        }

        /// Write one element; synchronizes with any GPU work using the
        /// array and invalidates the device copy.
        pub fn $set(&self, i: usize, v: $ty) {
            self.ctx.host_access(&self.arr, $elem, true);
            self.arr.buf.$as_mut()[i] = v;
        }

        /// Fill the whole array from the CPU.
        pub fn $fill(&self, v: $ty) {
            self.ctx.host_access(&self.arr, self.arr.byte_len(), true);
            for x in self.arr.buf.$as_mut().iter_mut() {
                *x = v;
            }
        }

        /// Copy a slice into the array from the CPU.
        pub fn $copy_from(&self, src: &[$ty]) {
            self.ctx.host_access(&self.arr, src.len() * $elem, true);
            self.arr.buf.$as_mut()[..src.len()].copy_from_slice(src);
        }

        /// Copy the whole array out to a `Vec`; synchronizes first.
        pub fn $to_vec(&self) -> Vec<$ty> {
            self.ctx.host_access(&self.arr, self.arr.byte_len(), false);
            self.arr.buf.$as_ref().clone()
        }
    };
}

impl DeviceArray {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty()
    }

    /// Size in bytes.
    pub fn byte_len(&self) -> usize {
        self.arr.byte_len()
    }

    /// NIDL element-type name (`float`, `double`, `sint32`, `char`).
    pub(crate) fn type_name(&self) -> &'static str {
        self.arr.buf.type_name()
    }

    /// Block the virtual host until every computation writing this
    /// array has completed, retiring the synchronized chain's scheduler
    /// bookkeeping — the same fine-grained wait a CPU read performs,
    /// but without charging a unified-memory migration: nothing is
    /// read, so this is an event wait on the producing streams, not a
    /// data access. Use it to observe completion of a chain (e.g. a
    /// served request) without pulling its output back to the host.
    pub(crate) fn sync_writes(&self) {
        self.ctx.await_writers(&self.arr);
    }

    /// The raw host-visible buffer, bypassing synchronization — for
    /// validators and analysis tools that inspect final state after a
    /// full [`crate::GrCuda::sync`]. Normal code should use the typed
    /// accessors, which synchronize with in-flight GPU work.
    pub fn raw_buffer(&self) -> gpu_sim::DataBuffer {
        self.arr.buf.clone()
    }

    /// Read one element of any element type, cast up to `f64` — charged
    /// and synchronized like the typed `get_*` (one element's bytes).
    pub fn get(&self, i: usize) -> f64 {
        let elem = self.arr.buf.data().elem_size();
        self.ctx.host_access(&self.arr, elem, false);
        self.arr.buf.data().get(i)
    }

    /// Fill the whole array from the CPU with `v` cast to the element
    /// type — charged like the typed `fill_*` (the array's bytes).
    pub(crate) fn fill(&self, v: f64) {
        self.ctx.host_access(&self.arr, self.arr.byte_len(), true);
        self.arr.buf.data_mut().fill(v);
    }

    /// Copy host data of the array's element type over its first
    /// `src.len()` elements — charged like the typed `copy_from_*`
    /// (`src`'s bytes). Panics on another element type, as they do.
    pub fn copy_from(&self, src: &gpu_sim::TypedData) {
        self.ctx.host_access(&self.arr, src.byte_len(), true);
        self.arr.buf.data_mut().copy_from(src);
    }

    typed_array_api!(
        get_f32,
        set_f32,
        fill_f32,
        copy_from_f32,
        to_vec_f32,
        as_f32,
        as_f32_mut,
        f32,
        4
    );
    typed_array_api!(
        get_f64,
        set_f64,
        fill_f64,
        copy_from_f64,
        to_vec_f64,
        as_f64,
        as_f64_mut,
        f64,
        8
    );
    typed_array_api!(
        get_i32,
        set_i32,
        fill_i32,
        copy_from_i32,
        to_vec_i32,
        as_i32,
        as_i32_mut,
        i32,
        4
    );
    typed_array_api!(
        get_u8,
        set_u8,
        fill_u8,
        copy_from_u8,
        to_vec_u8,
        as_u8,
        as_u8_mut,
        u8,
        1
    );
}
