//! Lightweight unit newtypes.
//!
//! The models in this workspace juggle quantities in decibels, femtojoules,
//! picoseconds, micrometers and gigabits per second. Mixing those up is the
//! classic failure mode of analytical interconnect models, so each quantity
//! gets a zero-cost wrapper around `f64` with only the arithmetic that makes
//! physical sense. Raw values are always available through
//! [`value`](Decibels::value) for formulas that genuinely need plain floats.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Wraps a raw value.
            #[inline]
            pub const fn new(v: f64) -> Self {
                Self(v)
            }

            /// Returns the raw value.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns `true` if the value is finite (not NaN/inf).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Element-wise maximum.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Element-wise minimum.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.4} {}", self.0, $suffix)
            }
        }
    };
}

unit!(
    /// Optical power ratio or loss, in decibels.
    Decibels,
    "dB"
);
unit!(
    /// Length in micrometers.
    Micrometers,
    "um"
);
unit!(
    /// Time in picoseconds.
    Picoseconds,
    "ps"
);
unit!(
    /// Energy in femtojoules.
    Femtojoules,
    "fJ"
);
unit!(
    /// Data rate in gigabits per second.
    Gbps,
    "Gb/s"
);
unit!(
    /// Area in square micrometers.
    SquareMicrometers,
    "um^2"
);
unit!(
    /// Power in milliwatts.
    Milliwatts,
    "mW"
);

impl Micrometers {
    /// Constructs from millimeters.
    #[inline]
    pub fn from_mm(mm: f64) -> Self {
        Self(mm * 1e3)
    }

    /// Constructs from centimeters.
    #[inline]
    pub fn from_cm(cm: f64) -> Self {
        Self(cm * 1e4)
    }

    /// Converts to millimeters.
    #[inline]
    pub fn as_mm(self) -> f64 {
        self.0 / 1e3
    }

    /// Converts to centimeters.
    #[inline]
    pub fn as_cm(self) -> f64 {
        self.0 / 1e4
    }
}

impl Milliwatts {
    /// Constructs from watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Self(w * 1e3)
    }

    /// Converts to watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0 / 1e3
    }

    /// Constructs from microwatts.
    #[inline]
    pub fn from_uw(uw: f64) -> Self {
        Self(uw / 1e3)
    }

    /// Energy spent per bit at a given line rate.
    ///
    /// `P [mW] / R [Gb/s] = E [pJ/bit]`, converted here to femtojoules.
    #[inline]
    pub fn energy_per_bit(self, rate: Gbps) -> Femtojoules {
        Femtojoules(self.0 / rate.0 * 1e3)
    }
}

impl Femtojoules {
    /// Constructs from picojoules.
    #[inline]
    pub fn from_pj(pj: f64) -> Self {
        Self(pj * 1e3)
    }

    /// Converts to picojoules.
    #[inline]
    pub fn as_pj(self) -> f64 {
        self.0 / 1e3
    }

    /// Converts to joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0 * 1e-15
    }
}

impl Picoseconds {
    /// Constructs from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Self(ns * 1e3)
    }

    /// Converts to nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 / 1e3
    }
}

impl SquareMicrometers {
    /// Converts to square millimeters.
    #[inline]
    pub fn as_mm2(self) -> f64 {
        self.0 / 1e6
    }

    /// Constructs from square millimeters.
    #[inline]
    pub fn from_mm2(mm2: f64) -> Self {
        Self(mm2 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Decibels::new(1.5);
        let b = Decibels::new(0.5);
        assert_eq!((a + b).value(), 2.0);
        assert_eq!((a - b).value(), 1.0);
        assert_eq!((a * 2.0).value(), 3.0);
        assert_eq!((a / 3.0).value(), 0.5);
        assert_eq!(a / b, 3.0);
    }

    #[test]
    fn length_conversions() {
        assert_eq!(Micrometers::from_mm(1.0).value(), 1000.0);
        assert_eq!(Micrometers::from_cm(1.0).value(), 10_000.0);
        assert!((Micrometers::new(2500.0).as_mm() - 2.5).abs() < 1e-12);
        assert!((Micrometers::new(25_000.0).as_cm() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn power_energy_conversions() {
        // 1 mW at 1 Gb/s is 1 pJ/bit = 1000 fJ/bit.
        let e = Milliwatts::new(1.0).energy_per_bit(Gbps::new(1.0));
        assert!((e.value() - 1000.0).abs() < 1e-9);
        // 50 mW at 50 Gb/s is 1 pJ/bit.
        let e = Milliwatts::new(50.0).energy_per_bit(Gbps::new(50.0));
        assert!((e.as_pj() - 1.0).abs() < 1e-9);
        assert!((Milliwatts::from_watts(1.53).value() - 1530.0).abs() < 1e-9);
        assert!((Milliwatts::from_uw(250.0).value() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn energy_conversions() {
        assert!((Femtojoules::from_pj(2.0).value() - 2000.0).abs() < 1e-9);
        assert!((Femtojoules::new(1e15).as_joules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sums_and_display() {
        let total: Femtojoules = [1.0, 2.0, 3.0].iter().map(|&v| Femtojoules::new(v)).sum();
        assert_eq!(total.value(), 6.0);
        assert_eq!(format!("{}", Gbps::new(50.0)), "50.0000 Gb/s");
    }

    #[test]
    fn min_max() {
        let a = Picoseconds::new(3.0);
        let b = Picoseconds::new(5.0);
        assert_eq!(a.max(b).value(), 5.0);
        assert_eq!(a.min(b).value(), 3.0);
    }

    #[test]
    fn area_conversions() {
        assert!((SquareMicrometers::from_mm2(1.0).value() - 1e6).abs() < 1e-6);
        assert!((SquareMicrometers::new(500.0).as_mm2() - 0.0005).abs() < 1e-12);
    }
}
