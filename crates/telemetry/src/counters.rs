//! Interface octet counters with SNMP wrap semantics.
//!
//! Real SNMP agents expose `ifOutOctets` as a 32-bit counter (ifTable)
//! and a 64-bit one (ifXTable's `ifHCOutOctets`). Pollers must handle
//! wraps; we reproduce both widths so the rate-estimation pipeline is
//! exercised the way a real NMS exercises it — on a 10 Mb/s-class link
//! a 32-bit octet counter wraps in under an hour, well within demo
//! timescales once polling is slow. An agent keeps one [`Counter`] per
//! interface ([`crate::mib::Agent`]).

/// Width of an SNMP counter object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterWidth {
    /// 32-bit `Counter32` (ifTable).
    C32,
    /// 64-bit `Counter64` (ifXTable).
    C64,
}

impl CounterWidth {
    /// The modulus of the counter (2^32 or 2^64).
    pub fn modulus(self) -> u128 {
        match self {
            CounterWidth::C32 => 1 << 32,
            CounterWidth::C64 => 1 << 64,
        }
    }
}

/// A monotonically increasing counter exposed modulo its width.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    width: CounterWidth,
    total: u128,
}

impl Counter {
    /// A zeroed counter of the given width.
    pub fn new(width: CounterWidth) -> Counter {
        Counter { width, total: 0 }
    }

    /// Accumulate `n` units.
    pub fn add(&mut self, n: u64) {
        self.total += u128::from(n);
    }

    /// The value a poller reads: the true total modulo the width (a
    /// power of two, so a mask).
    pub fn read(&self) -> u64 {
        (self.total & (self.width.modulus() - 1)) as u64
    }
}

/// Compute the delta between two successive reads of a counter,
/// assuming at most one wrap (standard NMS practice).
pub fn counter_delta(width: CounterWidth, prev: u64, cur: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        let m = width.modulus();
        ((u128::from(cur) + m) - u128::from(prev)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_wraps_at_width() {
        let mut c = Counter::new(CounterWidth::C32);
        c.add(u32::MAX as u64);
        assert_eq!(c.read(), u32::MAX as u64);
        c.add(3);
        assert_eq!(c.read(), 2); // wrapped
    }

    #[test]
    fn read_masks_as_the_modulus_does() {
        let c32 = [(1u128 << 32) - 1, 1 << 32, (1 << 33) + 5];
        let c64 = [u128::from(u64::MAX), 1 << 64, (1 << 64) + 7];
        let cases = c32
            .map(|t| (CounterWidth::C32, t))
            .into_iter()
            .chain(c64.map(|t| (CounterWidth::C64, t)));
        let mut reads = Vec::new();
        for (width, total) in cases {
            let mut c = Counter::new(width);
            let mut left = total;
            while left > 0 {
                let step = left.min(u128::from(u64::MAX));
                c.add(step as u64);
                left -= step;
            }
            assert_eq!(
                c.read(),
                (total % width.modulus()) as u64,
                "{width:?} {total}"
            );
            reads.push(c.read());
        }
        assert_eq!(reads, [u64::from(u32::MAX), 0, 5, u64::MAX, 0, 7]);
    }

    #[test]
    fn counter64_effectively_never_wraps() {
        let mut c = Counter::new(CounterWidth::C64);
        c.add(u64::MAX / 2);
        c.add(u64::MAX / 2);
        assert_eq!(c.read(), u64::MAX - 1);
    }

    #[test]
    fn delta_handles_single_wrap() {
        assert_eq!(counter_delta(CounterWidth::C32, 100, 300), 200);
        // prev near top, cur small: one wrap.
        let prev = u32::MAX as u64 - 10;
        assert_eq!(counter_delta(CounterWidth::C32, prev, 20), 31);
        assert_eq!(counter_delta(CounterWidth::C64, u64::MAX - 1, 1), 3);
    }
}
