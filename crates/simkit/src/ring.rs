//! A bounded keep-the-newest buffer.
//!
//! [`Ring`] backs every recorder in the `obs` crate (finished spans, the
//! flight-recorder journal): an enabled recorder on a long simulation
//! retains only the newest `capacity` items instead of growing without
//! limit, and counts what it dropped.

/// A bounded buffer that keeps the newest `capacity` items.
///
/// Backed by a `Vec` whose contents stay contiguous (so readers get plain
/// slices); overflow evicts the oldest half in one block, which amortizes to
/// O(1) per push while guaranteeing `len() <= capacity()` after every push.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    cap: usize,
    buf: Vec<T>,
    evicted: u64,
}

impl<T> Ring<T> {
    /// A ring retaining at most `capacity` items (clamped to at least 2).
    pub fn new(capacity: usize) -> Self {
        Ring {
            cap: capacity.max(2),
            buf: Vec::new(),
            evicted: 0,
        }
    }

    /// Append an item, evicting the oldest items if the ring is full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() >= self.cap {
            let drop_n = (self.cap / 2).max(1);
            self.buf.drain(..drop_n);
            self.evicted += drop_n as u64;
        }
        self.buf.push(item);
    }

    /// The retained items, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.buf
    }

    /// Iterate the retained items, oldest first.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.buf.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Change the retention bound (evicts oldest items if shrinking).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.cap = capacity.max(2);
        if self.buf.len() > self.cap {
            let drop_n = self.buf.len() - self.cap;
            self.buf.drain(..drop_n);
            self.evicted += drop_n as u64;
        }
    }

    /// How many items have been evicted since the last [`Ring::clear`].
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Drop everything (also resets the eviction counter).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.evicted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_eviction_is_block_wise_and_counted() {
        let mut r: Ring<u32> = Ring::new(4);
        for i in 0..6 {
            r.push(i);
        }
        // Overflow at the 5th push evicted the oldest half (0, 1).
        assert_eq!(r.as_slice(), &[2, 3, 4, 5]);
        assert_eq!(r.evicted(), 2);
        // Nothing is lost uncounted, and what stays keeps push order.
        for i in 6..100 {
            r.push(i);
        }
        assert_eq!(r.evicted() as usize + r.len(), 100);
        assert_eq!(r.as_slice().last(), Some(&99));
        assert!(r.as_slice().windows(2).all(|p| p[0] < p[1]));
        r.set_capacity(2);
        assert_eq!(r.as_slice(), &[98, 99]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.evicted(), 0);
    }
}
