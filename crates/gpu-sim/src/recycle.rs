//! Buffers that outlive the task they were allocated for.
//!
//! A steady-state launch submits tasks shaped like the ones that just
//! completed: a read list, a write list, a dependents list, a kernel's
//! argument buffers and scalars (its name is a `&'static str` and
//! needs no buffer). The engine therefore keeps what a completed task
//! leaves behind — emptied, capacity intact — in a [`Recycler`], and
//! the layer that builds the next [`TaskSpec`] takes its buffers from
//! there instead of from the allocator.
//!
//! Ownership between launches: a buffer belongs to the task carrying it
//! from submission to completion, and to the recycler otherwise. Each
//! pool keeps at most [`POOL_MAX`] buffers and frees the rest, so what
//! is retained follows the in-flight window and never the number of
//! tasks run. Pooled buffers are always empty:
//! no array stays alive because a launch once used it.
//!
//! [`TaskSpec`]: crate::TaskSpec

use crate::data::{DataBuffer, ValueId};
use crate::engine::TaskId;
use crate::task::{KernelBody, Payload};

/// Most buffers one pool keeps: one and a half times the 256 launches a
/// batching caller typically leaves pending before it synchronizes, so
/// such a window and the copies riding with it are served from the
/// pools entirely. A longer burst pays the allocator for the excess, as
/// every task did before. (Measured on the repository benchmark: 128
/// costs `pipeline_batch` a tenth of its throughput, 1024 gains nothing
/// over this; peak RSS does not follow the bound — the pools never hold
/// more buffers than were in use at once.)
const POOL_MAX: usize = 384;

/// Empty lists of `E` awaiting reuse.
pub(crate) struct Pool<E>(Vec<Vec<E>>);

impl<E> Pool<E> {
    /// An empty list: a recycled one while they last.
    pub(crate) fn take(&mut self) -> Vec<E> {
        self.0.pop().unwrap_or_default()
    }

    /// Keep `list` (emptied) for a later [`Pool::take`], unless it owns
    /// no memory or the pool is full.
    pub(crate) fn give(&mut self, mut list: Vec<E>) {
        if list.capacity() > 0 && self.0.len() < POOL_MAX {
            list.clear();
            self.0.push(list);
        }
    }
}

impl<E> Default for Pool<E> {
    fn default() -> Self {
        Pool(Vec::new())
    }
}

/// The engine's store of reusable task buffers (why and how: the header
/// of `recycle.rs`); reached through [`crate::Engine::recycler`].
#[derive(Default)]
pub struct Recycler {
    pub(crate) values: Pool<ValueId>,
    pub(crate) dependents: Pool<TaskId>,
    pub(crate) buffers: Pool<DataBuffer>,
    pub(crate) scalars: Pool<f64>,
}

impl Recycler {
    /// An empty list for [`crate::TaskSpec::reads`] or
    /// [`crate::TaskSpec::writes`].
    pub fn values(&mut self) -> Vec<ValueId> {
        self.values.take()
    }

    /// A kernel payload holding its own copies of the argument buffer
    /// handles and scalars.
    pub fn kernel_payload(
        &mut self,
        body: KernelBody,
        buffers: &[DataBuffer],
        scalars: &[f64],
    ) -> Payload {
        let mut b = self.buffers.take();
        b.extend_from_slice(buffers);
        let mut s = self.scalars.take();
        s.extend_from_slice(scalars);
        Payload {
            body,
            buffers: b,
            scalars: s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_buffer_comes_back_empty_with_its_capacity() {
        let mut r = Recycler::default();
        let mut list = r.values();
        assert_eq!(list.capacity(), 0, "nothing to reuse yet");
        list.push(ValueId(3));
        let capacity = list.capacity();
        r.values.give(list);
        let again = r.values();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), capacity);
    }

    #[test]
    fn pools_drop_what_they_cannot_use() {
        let mut r = Recycler::default();
        r.values.give(Vec::new());
        assert!(r.values.0.is_empty(), "a buffer without memory is not kept");
        for _ in 0..POOL_MAX + 10 {
            r.values.give(vec![ValueId(1)]);
        }
        assert_eq!(r.values.0.len(), POOL_MAX, "bounded");
    }

    #[test]
    fn pooled_argument_lists_hold_no_buffer_alive() {
        let mut r = Recycler::default();
        let buf = DataBuffer::f32_zeros(4);
        let payload = r.kernel_payload(
            KernelBody::Fn(|_, _| {}),
            std::slice::from_ref(&buf),
            &[1.0],
        );
        let Payload {
            buffers, scalars, ..
        } = payload;
        assert_eq!(buf.handle_count(), 2, "the payload holds its own handle");
        r.buffers.give(buffers);
        r.scalars.give(scalars);
        assert_eq!(buf.handle_count(), 1);
        assert!(r.buffers.0[0].is_empty() && r.scalars.0[0].is_empty());
    }
}
