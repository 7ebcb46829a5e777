//! Node, link and coordinate identifiers.

use std::fmt;

/// Identifies one node (core + router) in the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into node-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Index into link-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Grid coordinate of a node in a W×H layout. `x` grows east, `y` south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0 = west edge).
    pub x: u16,
    /// Row (0 = north edge).
    pub y: u16,
}

impl Coord {
    /// Manhattan distance to another coordinate.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Coord { x: 0, y: 0 };
        let b = Coord { x: 3, y: 4 };
        assert_eq!(a.manhattan(b), 7);
        assert_eq!(b.manhattan(a), 7);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NodeId(12)), "n12");
        assert_eq!(format!("{}", LinkId(3)), "l3");
        assert_eq!(format!("{}", Coord { x: 1, y: 2 }), "(1,2)");
    }
}
