//! Host-visible data storage shared between the simulator, the CUDA-shaped
//! API layer, and the functional kernel implementations.
//!
//! The simulation is single-threaded and deterministic, so buffers are
//! `Rc<RefCell<...>>` handles. Kernel payload closures capture clones of
//! these handles and mutate them when their task completes in virtual
//! time; tests then read the same handles to validate results.

use std::cell::{Ref, RefCell, RefMut};
use std::rc::Rc;

/// Identity of a logical value (an allocation) for dependency tracking and
/// race detection.
///
/// Ids are dense: `Cuda::alloc` in `cuda-sim` mints them from zero, one
/// per allocation, and never retires one. Three tables index by the id
/// instead of hashing it — `cuda-sim`'s array states (`Inner::arrays`),
/// the [`MemoryManager`](crate::MemoryManager)'s resident table and the
/// [`Engine`](crate::Engine)'s values in flight — and each grows to the
/// largest id it has seen, so an id far beyond the others costs memory
/// in proportion to the id, not to the number of values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u64);

/// The element type + payload of a buffer. GrCUDA's NIDL types map onto
/// these variants (`float` → F32, `double` → F64, `sint32` → I32,
/// `char`/`uint8` → U8).
#[derive(Debug, Clone, PartialEq)]
pub enum TypedData {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// Raw bytes / 8-bit image channels.
    U8(Vec<u8>),
}

impl TypedData {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            TypedData::F32(v) => v.len(),
            TypedData::F64(v) => v.len(),
            TypedData::I32(v) => v.len(),
            TypedData::U8(v) => v.len(),
        }
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of one element in bytes.
    pub fn elem_size(&self) -> usize {
        match self {
            TypedData::F32(_) | TypedData::I32(_) => 4,
            TypedData::F64(_) => 8,
            TypedData::U8(_) => 1,
        }
    }

    /// Total size in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * self.elem_size()
    }

    /// Short type name matching the NIDL spelling.
    pub fn type_name(&self) -> &'static str {
        match self {
            TypedData::F32(_) => "float",
            TypedData::F64(_) => "double",
            TypedData::I32(_) => "sint32",
            TypedData::U8(_) => "char",
        }
    }

    /// Element `i` of any element type, cast up to `f64` (exact for all
    /// four). Panics when `i` is out of bounds, like indexing.
    pub fn get(&self, i: usize) -> f64 {
        match self {
            TypedData::F32(v) => f64::from(v[i]),
            TypedData::F64(v) => v[i],
            TypedData::I32(v) => f64::from(v[i]),
            TypedData::U8(v) => f64::from(v[i]),
        }
    }

    /// Set every element to `v`, cast to the element type the way `as`
    /// does (saturating, NaN to zero for the integer types).
    pub fn fill(&mut self, v: f64) {
        match self {
            TypedData::F32(d) => d.fill(v as f32),
            TypedData::F64(d) => d.fill(v),
            TypedData::I32(d) => d.fill(v as i32),
            TypedData::U8(d) => d.fill(v as u8),
        }
    }

    /// Copy `src` over the first `src.len()` elements. Panics when the
    /// element types differ or `src` is longer, like the typed
    /// accessors of [`DataBuffer`] and `copy_from_slice`.
    pub fn copy_from(&mut self, src: &TypedData) {
        match (self, src) {
            (TypedData::F32(d), TypedData::F32(s)) => d[..s.len()].copy_from_slice(s),
            (TypedData::F64(d), TypedData::F64(s)) => d[..s.len()].copy_from_slice(s),
            (TypedData::I32(d), TypedData::I32(s)) => d[..s.len()].copy_from_slice(s),
            (TypedData::U8(d), TypedData::U8(s)) => d[..s.len()].copy_from_slice(s),
            (d, s) => panic!(
                "copy of {} data into a {} buffer",
                s.type_name(),
                d.type_name()
            ),
        }
    }
}

/// A shared, mutable, type-tagged buffer. Cheap to clone (reference
/// counted); all clones observe the same contents.
#[derive(Debug, Clone)]
pub struct DataBuffer {
    inner: Rc<RefCell<TypedData>>,
}

macro_rules! typed_accessors {
    ($as_ref:ident, $as_mut:ident, $variant:ident, $ty:ty) => {
        /// Borrow the payload as a typed slice; panics if the buffer holds
        /// a different element type (a kernel signature mismatch).
        pub fn $as_ref(&self) -> Ref<'_, Vec<$ty>> {
            Ref::map(self.inner.borrow(), |d| match d {
                TypedData::$variant(v) => v,
                other => panic!(
                    concat!("expected ", stringify!($variant), " buffer, found {}"),
                    other.type_name()
                ),
            })
        }

        /// Mutably borrow the payload as a typed vector; panics on a type
        /// mismatch.
        pub fn $as_mut(&self) -> RefMut<'_, Vec<$ty>> {
            RefMut::map(self.inner.borrow_mut(), |d| match d {
                TypedData::$variant(v) => v,
                other => panic!(
                    concat!("expected ", stringify!($variant), " buffer, found {}"),
                    other.type_name()
                ),
            })
        }
    };
}

impl DataBuffer {
    /// Wrap typed data in a shared buffer.
    pub fn new(data: TypedData) -> Self {
        DataBuffer {
            inner: Rc::new(RefCell::new(data)),
        }
    }

    /// A zero-initialized f32 buffer of `n` elements.
    pub fn f32_zeros(n: usize) -> Self {
        Self::new(TypedData::F32(vec![0.0; n]))
    }

    /// A zero-initialized f64 buffer of `n` elements.
    pub fn f64_zeros(n: usize) -> Self {
        Self::new(TypedData::F64(vec![0.0; n]))
    }

    /// A zero-initialized i32 buffer of `n` elements.
    pub fn i32_zeros(n: usize) -> Self {
        Self::new(TypedData::I32(vec![0; n]))
    }

    typed_accessors!(as_f32, as_f32_mut, F32, f32);
    typed_accessors!(as_f64, as_f64_mut, F64, f64);
    typed_accessors!(as_i32, as_i32_mut, I32, i32);
    typed_accessors!(as_u8, as_u8_mut, U8, u8);

    /// Borrow the raw typed payload.
    pub fn data(&self) -> Ref<'_, TypedData> {
        self.inner.borrow()
    }

    /// Mutably borrow the raw typed payload.
    pub fn data_mut(&self) -> RefMut<'_, TypedData> {
        self.inner.borrow_mut()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes.
    pub fn byte_len(&self) -> usize {
        self.inner.borrow().byte_len()
    }

    /// NIDL type name of the element type.
    pub fn type_name(&self) -> &'static str {
        self.inner.borrow().type_name()
    }

    /// Whether two handles alias the same storage.
    pub fn same_buffer(&self, other: &DataBuffer) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// How many handles share this storage, this one included — what a
    /// test asks to show that nothing kept a buffer alive.
    pub fn handle_count(&self) -> usize {
        Rc::strong_count(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = DataBuffer::f32_zeros(4);
        let b = a.clone();
        a.as_f32_mut()[2] = 7.5;
        assert_eq!(b.as_f32()[2], 7.5);
        assert!(a.same_buffer(&b));
    }

    #[test]
    fn distinct_buffers_do_not_alias() {
        let a = DataBuffer::f32_zeros(4);
        let b = DataBuffer::f32_zeros(4);
        assert!(!a.same_buffer(&b));
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(DataBuffer::f32_zeros(10).byte_len(), 40);
        assert_eq!(DataBuffer::f64_zeros(10).byte_len(), 80);
        assert_eq!(DataBuffer::i32_zeros(10).byte_len(), 40);
        assert_eq!(DataBuffer::new(TypedData::U8(vec![0; 10])).byte_len(), 10);
    }

    #[test]
    #[should_panic(expected = "expected F32 buffer")]
    fn type_mismatch_panics() {
        let a = DataBuffer::f64_zeros(1);
        let _ = a.as_f32();
    }

    #[test]
    fn type_erased_access_agrees_with_the_typed_accessors() {
        let bufs = [
            DataBuffer::f32_zeros(4),
            DataBuffer::f64_zeros(4),
            DataBuffer::i32_zeros(4),
            DataBuffer::new(TypedData::U8(vec![0; 4])),
        ];
        for b in &bufs {
            b.data_mut().fill(7.9);
        }
        assert_eq!(*bufs[0].as_f32(), vec![7.9f32; 4]);
        assert_eq!(*bufs[1].as_f64(), vec![7.9f64; 4]);
        assert_eq!(*bufs[2].as_i32(), vec![7; 4]);
        assert_eq!(*bufs[3].as_u8(), vec![7u8; 4]);
        bufs[2].data_mut().copy_from(&TypedData::I32(vec![-3, 5]));
        assert_eq!(*bufs[2].as_i32(), vec![-3, 5, 7, 7]);
        let read: Vec<f64> = bufs.iter().map(|b| b.data().get(0)).collect();
        assert_eq!(read, [f64::from(7.9f32), 7.9, -3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "copy of double data into a float buffer")]
    fn typed_copy_refuses_another_element_type() {
        let a = DataBuffer::f32_zeros(1);
        a.data_mut().copy_from(&TypedData::F64(vec![1.0]));
    }

    #[test]
    fn type_names_follow_nidl() {
        assert_eq!(DataBuffer::f32_zeros(1).type_name(), "float");
        assert_eq!(DataBuffer::f64_zeros(1).type_name(), "double");
        assert_eq!(DataBuffer::i32_zeros(1).type_name(), "sint32");
        assert_eq!(DataBuffer::new(TypedData::U8(vec![0])).type_name(), "char");
    }
}
