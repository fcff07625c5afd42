//! Fixed-capacity rolling windows over recent telemetry.
//!
//! The CMF predictor's features are *changes over the trailing six hours*
//! of each coolant-monitor channel (Sec. VI-B of the paper). With 300 s
//! samples that is a 72-slot ring buffer per channel per rack —
//! [`RollingWindow`] is that buffer, with the delta/mean/extraction
//! helpers the feature pipeline needs.

use mira_units::convert;
use serde::{Deserialize, Serialize};

/// A fixed-capacity FIFO window over the most recent readings.
///
/// ```
/// use mira_timeseries::RollingWindow;
///
/// let mut w = RollingWindow::new(3);
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
/// assert_eq!(w.delta(), Some(2.0)); // newest − oldest
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollingWindow {
    buf: Vec<f64>,
    capacity: usize,
    head: usize,
    len: usize,
}

impl RollingWindow {
    /// Creates a window holding at most `capacity` readings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            buf: vec![0.0; capacity],
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// Appends a reading, evicting the oldest if full.
    // head is always < capacity == buf.len() (capacity > 0 asserted in
    // `new`). mira-lint: allow(panic-reachability)
    pub fn push(&mut self, x: f64) {
        self.buf[self.head] = x;
        self.head = (self.head + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Number of readings currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no readings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the window has reached capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Maximum number of readings the window can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The oldest reading currently held.
    #[must_use]
    // idx is reduced mod capacity == buf.len().
    // mira-lint: allow(panic-reachability)
    pub fn oldest(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let idx = (self.head + self.capacity - self.len) % self.capacity;
        Some(self.buf[idx])
    }

    /// The most recent reading.
    #[must_use]
    // idx is reduced mod capacity == buf.len().
    // mira-lint: allow(panic-reachability)
    pub fn newest(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let idx = (self.head + self.capacity - 1) % self.capacity;
        Some(self.buf[idx])
    }

    /// The reading `k` steps back from the newest (`k = 0` is the newest).
    #[must_use]
    // idx is reduced mod capacity == buf.len().
    // mira-lint: allow(panic-reachability)
    pub fn back(&self, k: usize) -> Option<f64> {
        if k >= self.len {
            return None;
        }
        let idx = (self.head + self.capacity - 1 - k) % self.capacity;
        Some(self.buf[idx])
    }

    /// `newest − oldest`, the change over the window.
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        Some(self.newest()? - self.oldest()?)
    }

    /// Relative change over the window, `(newest − oldest) / oldest`.
    ///
    /// Returns `None` when empty or when the oldest reading is zero.
    #[must_use]
    pub fn relative_delta(&self) -> Option<f64> {
        let oldest = self.oldest()?;
        // Exact-zero divide guard.
        if oldest == 0.0 {
            return None;
        }
        Some((self.newest()? - oldest) / oldest)
    }

    /// Mean of the readings currently held (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.iter().sum::<f64>() / convert::f64_from_usize(self.len)
    }

    /// Iterates oldest → newest.
    // idx is reduced mod capacity == buf.len().
    // mira-lint: allow(panic-reachability)
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len).map(move |i| {
            let idx = (self.head + self.capacity - self.len + i) % self.capacity;
            self.buf[idx]
        })
    }

    /// Copies the window oldest → newest into a `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }

    /// Clears all readings, keeping the capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_then_evicts_fifo() {
        let mut w = RollingWindow::new(3);
        assert!(w.is_empty());
        w.push(1.0);
        w.push(2.0);
        assert!(!w.is_full());
        w.push(3.0);
        assert!(w.is_full());
        w.push(4.0);
        assert_eq!(w.to_vec(), vec![2.0, 3.0, 4.0]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn oldest_newest_back() {
        let mut w = RollingWindow::new(4);
        for x in [10.0, 20.0, 30.0] {
            w.push(x);
        }
        assert_eq!(w.oldest(), Some(10.0));
        assert_eq!(w.newest(), Some(30.0));
        assert_eq!(w.back(0), Some(30.0));
        assert_eq!(w.back(2), Some(10.0));
        assert_eq!(w.back(3), None);
    }

    #[test]
    fn delta_and_relative_delta() {
        let mut w = RollingWindow::new(10);
        w.push(64.0);
        w.push(62.0);
        w.push(59.5);
        assert_eq!(w.delta(), Some(-4.5));
        let rel = w.relative_delta().unwrap();
        assert!((rel + 0.0703).abs() < 1e-3);
    }

    #[test]
    fn relative_delta_zero_oldest_is_none() {
        let mut w = RollingWindow::new(2);
        w.push(0.0);
        w.push(5.0);
        assert_eq!(w.relative_delta(), None);
    }

    #[test]
    fn empty_window_is_safe() {
        let w = RollingWindow::new(5);
        assert_eq!(w.oldest(), None);
        assert_eq!(w.newest(), None);
        assert_eq!(w.delta(), None);
        assert_eq!(w.mean(), 0.0);
        assert!(w.to_vec().is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut w = RollingWindow::new(2);
        w.push(1.0);
        w.push(2.0);
        w.clear();
        assert!(w.is_empty());
        w.push(7.0);
        assert_eq!(w.to_vec(), vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RollingWindow::new(0);
    }

    proptest! {
        #[test]
        fn window_matches_tail_of_stream(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
            cap in 1usize..32,
        ) {
            let mut w = RollingWindow::new(cap);
            for &x in &xs {
                w.push(x);
            }
            let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
            prop_assert_eq!(w.to_vec(), tail);
        }

        #[test]
        fn mean_matches_naive(
            xs in proptest::collection::vec(-100.0f64..100.0, 1..64),
            cap in 1usize..16,
        ) {
            let mut w = RollingWindow::new(cap);
            for &x in &xs {
                w.push(x);
            }
            let tail: Vec<f64> = xs.iter().rev().take(cap).rev().copied().collect();
            let naive = tail.iter().sum::<f64>() / tail.len() as f64;
            prop_assert!((w.mean() - naive).abs() < 1e-9);
        }
    }
}
