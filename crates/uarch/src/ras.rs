//! Return address stack (Table II: 64 entries).
//!
//! Calls push the address of the instruction after the call; returns pop
//! it. The stack is circular: overflowing pushes overwrite the oldest
//! entry (deep recursion then mispredicts, as on real hardware), and
//! popping an empty stack yields `None`.

/// A fixed-capacity circular return address stack.
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    /// Index of the next push slot.
    top: usize,
    /// Live entries (≤ capacity).
    len: usize,
}

impl ReturnAddressStack {
    /// Create a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be positive");
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            len: 0,
        }
    }

    /// Push a return address (the PC after a call).
    pub fn push(&mut self, ret_addr: u64) {
        self.entries[self.top] = ret_addr;
        self.top = (self.top + 1) % self.entries.len();
        self.len = (self.len + 1).min(self.entries.len());
    }

    /// Pop the most recent return address.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.len -= 1;
        Some(self.entries[self.top])
    }

    /// Peek at the top without popping (used by prediction paths that
    /// must not disturb state).
    pub fn peek(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let i = (self.top + self.entries.len() - 1) % self.entries.len();
        Some(self.entries[i])
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.len = 0;
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut r = ReturnAddressStack::new(8);
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), Some(0x200));
        assert_eq!(r.pop(), Some(0x100));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut r = ReturnAddressStack::new(4);
        r.push(0x42);
        assert_eq!(r.peek(), Some(0x42));
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop(), Some(0x42));
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // evicts 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "oldest entry was lost");
    }

    #[test]
    fn wraparound_is_consistent() {
        let mut r = ReturnAddressStack::new(3);
        for round in 0..5u64 {
            r.push(round * 10 + 1);
            r.push(round * 10 + 2);
            assert_eq!(r.pop(), Some(round * 10 + 2));
            assert_eq!(r.pop(), Some(round * 10 + 1));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut r = ReturnAddressStack::new(4);
        r.push(7);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.pop(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        ReturnAddressStack::new(0);
    }
}
