//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// # Examples
///
/// ```
/// use hbat_core::cycle::Cycle;
///
/// let t = Cycle(10) + 5;
/// assert_eq!(t, Cycle(15));
/// assert_eq!(t - Cycle(10), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The start of time.
    pub const ZERO: Cycle = Cycle(0);

    /// Saturating distance from `earlier` to `self`; zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two points in time.
    pub fn max(self, other: Cycle) -> Cycle {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// Tracks when each port of a fixed-bandwidth resource is next free, and
/// allocates service slots in arrival order.
///
/// Used to model contention for the L2 TLB port(s) behind an L1 TLB and for
/// the single-ported base TLB behind a pretranslation cache: each port can
/// begin one new request per cycle, and requests that find every port busy
/// are queued until the earliest port frees up.
///
/// # Examples
///
/// ```
/// use hbat_core::cycle::{Cycle, PortTimeline};
///
/// let mut ports = PortTimeline::new(1);
/// assert_eq!(ports.allocate(Cycle(5), 1), Cycle(5)); // starts immediately
/// assert_eq!(ports.allocate(Cycle(5), 1), Cycle(6)); // queued one cycle
/// ```
#[derive(Debug, Clone)]
pub struct PortTimeline {
    next_free: Vec<Cycle>,
}

impl PortTimeline {
    /// Creates a timeline for a resource with `ports` independent ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports == 0`.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "a port timeline needs at least one port");
        PortTimeline {
            next_free: vec![Cycle::ZERO; ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.next_free.len()
    }

    /// Reserves the earliest available slot at or after `earliest` and
    /// occupies the chosen port for `busy` cycles. Returns the cycle at
    /// which service begins.
    pub fn allocate(&mut self, earliest: Cycle, busy: u64) -> Cycle {
        // `new` rejects zero ports, so a minimum always exists; the
        // `None` arm keeps the degenerate case well-defined regardless.
        match self.next_free.iter_mut().min_by_key(|c| **c) {
            Some(slot) => {
                let start = (*slot).max(earliest);
                *slot = start + busy;
                start
            }
            None => earliest,
        }
    }

    /// True if some port could begin service exactly at `now`.
    pub fn available_at(&self, now: Cycle) -> bool {
        self.next_free.iter().any(|&c| c <= now)
    }

    /// Number of ports still serving (or queued past) requests at
    /// `now` — an occupancy probe for observability sampling.
    pub fn busy_at(&self, now: Cycle) -> usize {
        self.next_free.iter().filter(|&&c| c > now).count()
    }

    /// Forgets all reservations (e.g. across simulation runs).
    pub fn clear(&mut self) {
        for c in &mut self.next_free {
            *c = Cycle::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_port_serializes_requests() {
        let mut p = PortTimeline::new(1);
        assert_eq!(p.allocate(Cycle(10), 1), Cycle(10));
        assert_eq!(p.allocate(Cycle(10), 1), Cycle(11));
        assert_eq!(p.allocate(Cycle(10), 1), Cycle(12));
        // A later arrival after the queue drains starts on time.
        assert_eq!(p.allocate(Cycle(20), 1), Cycle(20));
    }

    #[test]
    fn two_ports_serve_pairs_in_parallel() {
        let mut p = PortTimeline::new(2);
        assert_eq!(p.allocate(Cycle(3), 1), Cycle(3));
        assert_eq!(p.allocate(Cycle(3), 1), Cycle(3));
        assert_eq!(p.allocate(Cycle(3), 1), Cycle(4));
    }

    #[test]
    fn busy_time_extends_occupancy() {
        let mut p = PortTimeline::new(1);
        assert_eq!(p.allocate(Cycle(0), 30), Cycle(0));
        assert_eq!(p.allocate(Cycle(1), 1), Cycle(30));
    }

    #[test]
    fn availability_probe() {
        let mut p = PortTimeline::new(1);
        assert!(p.available_at(Cycle(0)));
        p.allocate(Cycle(0), 2);
        assert!(!p.available_at(Cycle(1)));
        assert!(p.available_at(Cycle(2)));
    }

    #[test]
    fn busy_port_count() {
        let mut p = PortTimeline::new(2);
        assert_eq!(p.busy_at(Cycle(0)), 0);
        p.allocate(Cycle(0), 3);
        p.allocate(Cycle(0), 1);
        assert_eq!(p.busy_at(Cycle(0)), 2);
        assert_eq!(p.busy_at(Cycle(1)), 1, "short request finished");
        assert_eq!(p.busy_at(Cycle(3)), 0);
    }

    #[test]
    fn clear_resets_time() {
        let mut p = PortTimeline::new(1);
        p.allocate(Cycle(0), 100);
        p.clear();
        assert!(p.available_at(Cycle(0)));
    }

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycle(7).since(Cycle(3)), 4);
        assert_eq!(Cycle(3).since(Cycle(7)), 0);
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        assert_eq!(format!("{}", Cycle(9)), "cycle 9");
    }
}
