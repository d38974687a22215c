//! Autonomous system numbers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An autonomous system number (32-bit per RFC 6793).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct Asn(pub u32);

impl Asn {
    /// The reserved AS0, used here as "unknown / unmapped address space".
    pub const UNKNOWN: Asn = Asn(0);
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Asn {
        Asn(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_form() {
        assert_eq!(Asn(3320).to_string(), "AS3320");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn(701) < Asn(3215));
    }
}
