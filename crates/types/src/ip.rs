//! IPv4 address helpers and CIDR prefixes.
//!
//! The paper's Table 7 compares consecutive addresses at three granularities:
//! the enclosing BGP-routed prefix, the /16, and the /8. This module provides
//! the prefix type used by the route table ([`crate::asn`]-keyed, in
//! `dynaddr-ip2as`) and the fixed-length extraction helpers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// Converts an [`Ipv4Addr`] to its 32-bit big-endian integer value.
pub fn ipv4_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Converts a 32-bit integer back to an [`Ipv4Addr`].
pub fn u32_to_ipv4(v: u32) -> Ipv4Addr {
    Ipv4Addr::from(v)
}

/// The enclosing /8 of an address (Table 7's coarsest granularity).
pub fn slash8(addr: Ipv4Addr) -> Prefix {
    Prefix::new(addr, 8).expect("/8 is always valid")
}

/// The enclosing /16 of an address.
pub fn slash16(addr: Ipv4Addr) -> Prefix {
    Prefix::new(addr, 16).expect("/16 is always valid")
}

/// An IPv4 CIDR prefix: a base address and a mask length in `0..=32`.
///
/// The base address is always stored in canonical (masked) form, so two
/// prefixes are equal iff they cover exactly the same address range.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Prefix {
    base: u32,
    len: u8,
}

/// Error produced when parsing or constructing a [`Prefix`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Mask length greater than 32.
    BadLength(u8),
    /// Input was not `a.b.c.d/len`.
    Malformed(String),
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::BadLength(l) => write!(f, "prefix length {l} exceeds 32"),
            PrefixParseError::Malformed(s) => write!(f, "malformed prefix: {s:?}"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl Prefix {
    /// Creates a prefix, canonicalizing the base address by masking.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Prefix, PrefixParseError> {
        if len > 32 {
            return Err(PrefixParseError::BadLength(len));
        }
        let base = ipv4_to_u32(addr) & Self::mask(len);
        Ok(Prefix { base, len })
    }

    /// The network mask for a given length as a `u32`.
    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// The (masked) base address.
    pub fn base(self) -> Ipv4Addr {
        u32_to_ipv4(self.base)
    }

    /// Mask length.
    #[allow(clippy::len_without_is_empty)] // a prefix always covers addresses
    pub fn len(self) -> u8 {
        self.len
    }

    /// Number of addresses covered by the prefix.
    pub fn size(self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }

    /// Whether `addr` falls inside the prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        ipv4_to_u32(addr) & Self::mask(self.len) == self.base
    }

    /// Whether `other` is fully covered by `self` (equal or more specific).
    pub fn covers(self, other: Prefix) -> bool {
        other.len >= self.len && (other.base & Self::mask(self.len)) == self.base
    }

    /// The `i`-th address within the prefix. Panics if out of range.
    pub fn nth(self, i: u64) -> Ipv4Addr {
        assert!(i < self.size(), "address index {i} out of range for {self}");
        u32_to_ipv4(self.base + i as u32)
    }

    /// The offset of `addr` within the prefix, if it is contained.
    pub fn index_of(self, addr: Ipv4Addr) -> Option<u64> {
        self.contains(addr)
            .then(|| u64::from(ipv4_to_u32(addr) - self.base))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixParseError::Malformed(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| PrefixParseError::Malformed(s.to_string()))?;
        let len: u8 = len
            .parse()
            .map_err(|_| PrefixParseError::Malformed(s.to_string()))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "91.55.0.0/16", "193.0.0.78/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn canonicalizes_base() {
        assert_eq!(p("91.55.174.103/16"), p("91.55.0.0/16"));
        assert_eq!(p("91.55.174.103/16").base(), Ipv4Addr::new(91, 55, 0, 0));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            "1.2.3.4".parse::<Prefix>(),
            Err(PrefixParseError::Malformed(_))
        ));
        assert!(matches!(
            "1.2.3.4/33".parse::<Prefix>(),
            Err(PrefixParseError::BadLength(33))
        ));
        assert!(matches!(
            "1.2.3/8".parse::<Prefix>(),
            Err(PrefixParseError::Malformed(_))
        ));
        assert!(matches!(
            "1.2.3.4/x".parse::<Prefix>(),
            Err(PrefixParseError::Malformed(_))
        ));
    }

    #[test]
    fn contains_and_covers() {
        let net = p("91.55.128.0/17");
        assert!(net.contains(Ipv4Addr::new(91, 55, 174, 103)));
        assert!(!net.contains(Ipv4Addr::new(91, 55, 0, 1)));
        assert!(p("91.55.0.0/16").covers(net));
        assert!(!net.covers(p("91.55.0.0/16")));
        assert!(net.covers(net));
        assert!(p("0.0.0.0/0").covers(net));
    }

    #[test]
    fn size_nth_index_roundtrip() {
        let net = p("198.51.100.0/24");
        assert_eq!(net.size(), 256);
        for i in [0u64, 1, 17, 255] {
            let a = net.nth(i);
            assert_eq!(net.index_of(a), Some(i));
        }
        assert_eq!(net.index_of(Ipv4Addr::new(198, 51, 101, 0)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_out_of_range_panics() {
        p("198.51.100.0/24").nth(256);
    }

    #[test]
    fn fixed_length_extraction() {
        let a = Ipv4Addr::new(91, 55, 174, 103);
        assert_eq!(slash8(a), p("91.0.0.0/8"));
        assert_eq!(slash16(a), p("91.55.0.0/16"));
    }

    #[test]
    fn default_route() {
        let d = p("0.0.0.0/0");
        assert!(d.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(d.size(), 1 << 32);
    }
}
