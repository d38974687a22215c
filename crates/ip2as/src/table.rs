//! Route table: prefix → origin ASN, with the pfx2as text format.
//!
//! CAIDA's `pfx2as` files are tab-separated lines of `base length asn`.
//! We reproduce that wire format so snapshots can be written to disk and
//! reloaded, and so the pipeline genuinely parses external data.

use crate::trie::PrefixTrie;
use dynaddr_types::{Asn, Prefix};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The result of an origin lookup: the matched BGP prefix and its origin AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Origin {
    /// The most specific announced prefix covering the queried address.
    pub prefix: Prefix,
    /// The origin autonomous system of that prefix.
    pub asn: Asn,
}

/// Errors from parsing the pfx2as text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pfx2as parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A snapshot of BGP-announced prefixes with their origin ASes.
///
/// ```
/// use dynaddr_ip2as::RouteTable;
/// use dynaddr_types::Asn;
///
/// let mut table = RouteTable::new();
/// table.announce("91.55.0.0/16".parse().unwrap(), Asn(3320));
/// table.announce("91.55.128.0/17".parse().unwrap(), Asn(3320));
///
/// // Longest-prefix match:
/// let origin = table.origin("91.55.174.103".parse().unwrap()).unwrap();
/// assert_eq!(origin.prefix, "91.55.128.0/17".parse().unwrap());
/// assert_eq!(origin.asn, Asn(3320));
///
/// // pfx2as text round-trip:
/// let text = table.to_pfx2as();
/// let back: RouteTable = text.parse().unwrap();
/// assert_eq!(back.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    trie: PrefixTrie<Asn>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> RouteTable {
        RouteTable {
            trie: PrefixTrie::new(),
        }
    }

    /// Builds a table from `(prefix, asn)` pairs. Later duplicates win.
    pub fn from_entries(entries: impl IntoIterator<Item = (Prefix, Asn)>) -> RouteTable {
        let mut t = RouteTable::new();
        for (p, a) in entries {
            t.announce(p, a);
        }
        t
    }

    /// Announces (inserts) a prefix with its origin.
    pub fn announce(&mut self, prefix: Prefix, asn: Asn) -> Option<Asn> {
        self.trie.insert(prefix, asn)
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Longest-prefix-match origin lookup for an address.
    pub fn origin(&self, addr: Ipv4Addr) -> Option<Origin> {
        self.trie
            .lookup(addr)
            .map(|(prefix, &asn)| Origin { prefix, asn })
    }

    /// Shorthand for the origin AS only; `Asn::UNKNOWN` when unannounced.
    pub fn asn_of(&self, addr: Ipv4Addr) -> Asn {
        self.origin(addr).map(|o| o.asn).unwrap_or(Asn::UNKNOWN)
    }

    /// Reference linear-scan lookup used by tests and the ablation bench to
    /// validate the trie: scans all entries keeping the most specific match.
    pub fn origin_linear(&self, addr: Ipv4Addr) -> Option<Origin> {
        self.trie
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|(prefix, &asn)| Origin { prefix, asn })
    }

    /// Iterates all `(prefix, asn)` entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, Asn)> + '_ {
        self.trie.iter().map(|(p, &a)| (p, a))
    }

    /// Serializes in pfx2as text format, sorted for determinism.
    pub fn to_pfx2as(&self) -> String {
        let mut entries: Vec<(Prefix, Asn)> = self.iter().collect();
        entries.sort();
        let mut out = String::with_capacity(entries.len() * 24);
        for (p, a) in entries {
            out.push_str(&format!("{}\t{}\t{}\n", p.base(), p.len(), a.0));
        }
        out
    }
}

impl FromStr for RouteTable {
    type Err = ParseError;

    /// Parses the pfx2as text format: `base<TAB>len<TAB>asn` per line.
    /// Blank lines and `#` comments are skipped. CAIDA encodes multi-origin
    /// prefixes as `asn1_asn2` or `asn1,asn2`; like the paper's analysis we
    /// take the first listed origin.
    fn from_str(s: &str) -> Result<RouteTable, ParseError> {
        let mut table = RouteTable::new();
        for (idx, line) in s.lines().enumerate() {
            let line_no = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let (base, len, asn) = match (fields.next(), fields.next(), fields.next()) {
                (Some(b), Some(l), Some(a)) => (b, l, a),
                _ => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("expected 3 fields, got {line:?}"),
                    })
                }
            };
            let base: Ipv4Addr = base.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("bad address {base:?}"),
            })?;
            let len: u8 = len.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("bad prefix length {len:?}"),
            })?;
            let prefix = Prefix::new(base, len).map_err(|e| ParseError {
                line: line_no,
                message: e.to_string(),
            })?;
            let first_asn = asn.split(['_', ',']).next().unwrap_or(asn);
            let asn: u32 = first_asn.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("bad ASN {asn:?}"),
            })?;
            table.announce(prefix, Asn(asn));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_lookup() {
        let mut t = RouteTable::new();
        t.announce(p("91.55.0.0/16"), Asn(3320));
        t.announce(p("91.55.128.0/17"), Asn(3320));
        let o = t.origin(a("91.55.174.103")).unwrap();
        assert_eq!(o.prefix, p("91.55.128.0/17"));
        assert_eq!(o.asn, Asn(3320));
        assert_eq!(t.asn_of(a("8.8.8.8")), Asn::UNKNOWN);
    }

    #[test]
    fn pfx2as_roundtrip() {
        let mut t = RouteTable::new();
        t.announce(p("91.55.0.0/16"), Asn(3320));
        t.announce(p("2.0.0.0/12"), Asn(3215));
        t.announce(p("193.0.0.0/21"), Asn(3333));
        let text = t.to_pfx2as();
        let t2: RouteTable = text.parse().unwrap();
        assert_eq!(t2.len(), 3);
        assert_eq!(t2.asn_of(a("91.55.1.1")), Asn(3320));
        assert_eq!(t2.asn_of(a("2.5.0.1")), Asn(3215));
        assert_eq!(t2.to_pfx2as(), text, "serialization is canonical");
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text = "# caida-style header\n\n10.0.0.0\t8\t701\n";
        let t: RouteTable = text.parse().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.asn_of(a("10.9.9.9")), Asn(701));
    }

    #[test]
    fn parse_multi_origin_takes_first() {
        let t: RouteTable = "10.0.0.0\t8\t701_702\n11.0.0.0\t8\t3320,3215\n"
            .parse()
            .unwrap();
        assert_eq!(t.asn_of(a("10.0.0.1")), Asn(701));
        assert_eq!(t.asn_of(a("11.0.0.1")), Asn(3320));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = "10.0.0.0\t8\t701\nnot-an-ip\t8\t1\n"
            .parse::<RouteTable>()
            .unwrap_err();
        assert_eq!(err.line, 2);
        let err = "10.0.0.0\t99\t701\n".parse::<RouteTable>().unwrap_err();
        assert!(err.message.contains("99"), "{err}");
        let err = "10.0.0.0\t8\n".parse::<RouteTable>().unwrap_err();
        assert!(err.message.contains("3 fields"), "{err}");
    }

    #[test]
    fn linear_reference_agrees_on_examples() {
        let mut t = RouteTable::new();
        t.announce(p("91.0.0.0/8"), Asn(1));
        t.announce(p("91.55.0.0/16"), Asn(2));
        t.announce(p("91.55.174.0/24"), Asn(3));
        for addr in ["91.55.174.103", "91.55.1.1", "91.1.1.1", "8.8.8.8"] {
            assert_eq!(t.origin(a(addr)), t.origin_linear(a(addr)), "{addr}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32)
            .prop_map(|(base, len)| Prefix::new(Ipv4Addr::from(base), len).unwrap())
    }

    proptest! {
        /// The trie LPM must agree with the brute-force linear scan for any
        /// set of prefixes and any query address.
        #[test]
        fn trie_matches_linear_scan(
            entries in proptest::collection::vec((arb_prefix(), 1u32..65536), 1..60),
            queries in proptest::collection::vec(any::<u32>(), 1..40),
        ) {
            let table = RouteTable::from_entries(
                entries.iter().map(|(p, a)| (*p, Asn(*a))),
            );
            for q in queries {
                let addr = Ipv4Addr::from(q);
                prop_assert_eq!(table.origin(addr), table.origin_linear(addr));
            }
        }

        /// Round-tripping through the text format preserves lookups.
        #[test]
        fn pfx2as_text_roundtrip(
            entries in proptest::collection::vec((arb_prefix(), 1u32..65536), 1..40),
            queries in proptest::collection::vec(any::<u32>(), 1..20),
        ) {
            let table = RouteTable::from_entries(
                entries.iter().map(|(p, a)| (*p, Asn(*a))),
            );
            let reparsed: RouteTable = table.to_pfx2as().parse().unwrap();
            prop_assert_eq!(table.len(), reparsed.len());
            for q in queries {
                let addr = Ipv4Addr::from(q);
                prop_assert_eq!(table.origin(addr), reparsed.origin(addr));
            }
        }
    }
}
