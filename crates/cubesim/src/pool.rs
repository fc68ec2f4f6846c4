//! A reusable buffer arena for message payloads.
//!
//! The exchange engines build one payload vector per node per round and
//! tear it down after delivery. [`BufferPool`] keeps those vectors alive
//! across rounds: [`BufferPool::take`] hands out an empty vector with its
//! previous capacity intact, [`BufferPool::put`] returns a spent one. A
//! round allocates only where it needs more capacity than the buffers
//! the previous rounds returned.

/// An arena of spare `Vec<T>` buffers.
#[derive(Debug, Default)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool { free: Vec::new() }
    }

    /// Hands out an empty buffer, reusing a pooled allocation when one is
    /// available.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool; its contents are dropped, its
    /// capacity kept.
    pub fn put(&mut self, mut buf: Vec<T>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Total elements of capacity held by idle buffers — the pool's
    /// resident footprint in units of `T`. Benches multiply by
    /// `size_of::<T>()` to report scratch bytes.
    pub fn capacity_elems(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }
}

/// Pooled capacity is a cache, not data: clones start empty.
impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_capacity() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let mut v = pool.take();
        v.extend(0..100);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.put(v);
        assert_eq!(pool.idle(), 1);
        let v2 = pool.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn empty_pool_hands_out_fresh_buffers() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        assert_eq!(pool.idle(), 0);
        assert!(pool.take().is_empty());
    }

    #[test]
    fn clone_is_empty() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        pool.put(Vec::with_capacity(64));
        assert_eq!(pool.clone().idle(), 0);
    }
}
