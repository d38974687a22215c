//! Countries and continents for the geographic rollups (§4.2, Fig. 1).
//!
//! The paper aggregates probes by country (from the RIPE Atlas probe
//! database) and then by continent. We carry ISO-3166-style two-letter codes
//! and a static country→continent mapping covering every country used by the
//! scripted world plus the regions the paper mentions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A continent, using the paper's legend abbreviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Continent {
    /// Europe.
    EU,
    /// North America.
    NA,
    /// Asia.
    AS,
    /// Africa.
    AF,
    /// South America.
    SA,
    /// Oceania.
    OC,
}

impl Continent {
    /// All continents in the paper's Fig. 1 legend order.
    pub const ALL: [Continent; 6] = [
        Continent::EU,
        Continent::NA,
        Continent::AS,
        Continent::AF,
        Continent::SA,
        Continent::OC,
    ];
}

impl fmt::Display for Continent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Continent::EU => "EU",
            Continent::NA => "NA",
            Continent::AS => "AS",
            Continent::AF => "AF",
            Continent::SA => "SA",
            Continent::OC => "OC",
        };
        f.write_str(s)
    }
}

/// A country as a two-letter uppercase code (ISO-3166 alpha-2 style).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Country([u8; 2]);

/// Error for invalid country codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountryParseError(pub String);

impl fmt::Display for CountryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid country code: {:?}", self.0)
    }
}

impl std::error::Error for CountryParseError {}

/// Static country→continent table. Covers the countries named in the paper's
/// tables plus enough of each region to build diverse worlds.
const COUNTRY_CONTINENTS: &[(&str, Continent)] = &[
    // Europe
    ("DE", Continent::EU),
    ("FR", Continent::EU),
    ("GB", Continent::EU),
    ("NL", Continent::EU),
    ("BE", Continent::EU),
    ("AT", Continent::EU),
    ("HR", Continent::EU),
    ("PL", Continent::EU),
    ("HU", Continent::EU),
    ("IT", Continent::EU),
    ("ES", Continent::EU),
    ("SE", Continent::EU),
    ("NO", Continent::EU),
    ("FI", Continent::EU),
    ("DK", Continent::EU),
    ("CH", Continent::EU),
    ("CZ", Continent::EU),
    ("SK", Continent::EU),
    ("RO", Continent::EU),
    ("BG", Continent::EU),
    ("GR", Continent::EU),
    ("PT", Continent::EU),
    ("IE", Continent::EU),
    ("RU", Continent::EU),
    ("UA", Continent::EU),
    ("RS", Continent::EU),
    ("SI", Continent::EU),
    ("LU", Continent::EU),
    ("EE", Continent::EU),
    ("LV", Continent::EU),
    ("LT", Continent::EU),
    // North America
    ("US", Continent::NA),
    ("CA", Continent::NA),
    ("MX", Continent::NA),
    // Asia
    ("JP", Continent::AS),
    ("CN", Continent::AS),
    ("IN", Continent::AS),
    ("KR", Continent::AS),
    ("SG", Continent::AS),
    ("HK", Continent::AS),
    ("ID", Continent::AS),
    ("TH", Continent::AS),
    ("MY", Continent::AS),
    ("KZ", Continent::AS),
    ("TR", Continent::AS),
    ("IL", Continent::AS),
    ("AE", Continent::AS),
    ("IR", Continent::AS),
    ("PK", Continent::AS),
    ("VN", Continent::AS),
    ("PH", Continent::AS),
    ("TW", Continent::AS),
    // Africa
    ("ZA", Continent::AF),
    ("MU", Continent::AF),
    ("EG", Continent::AF),
    ("NG", Continent::AF),
    ("KE", Continent::AF),
    ("SN", Continent::AF),
    ("MA", Continent::AF),
    ("TN", Continent::AF),
    ("GH", Continent::AF),
    // South America
    ("BR", Continent::SA),
    ("UY", Continent::SA),
    ("AR", Continent::SA),
    ("CL", Continent::SA),
    ("CO", Continent::SA),
    ("PE", Continent::SA),
    ("EC", Continent::SA),
    ("VE", Continent::SA),
    // Oceania
    ("AU", Continent::OC),
    ("NZ", Continent::OC),
    ("FJ", Continent::OC),
];

impl Country {
    /// Creates a country from a two-letter code; normalizes to uppercase.
    pub fn new(code: &str) -> Result<Country, CountryParseError> {
        let bytes = code.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(|b| b.is_ascii_alphabetic()) {
            return Err(CountryParseError(code.to_string()));
        }
        Ok(Country([
            bytes[0].to_ascii_uppercase(),
            bytes[1].to_ascii_uppercase(),
        ]))
    }

    /// The two-letter code.
    pub fn code(self) -> &'static str {
        // Look the canonical &'static str back up; fall back to a leaked-free
        // representation via the table. Unknown codes format through Display.
        for (code, _) in COUNTRY_CONTINENTS {
            if code.as_bytes() == self.0 {
                return code;
            }
        }
        "??"
    }

    /// The continent this country belongs to, if known to the static table.
    pub fn continent(self) -> Option<Continent> {
        COUNTRY_CONTINENTS
            .iter()
            .find(|(code, _)| code.as_bytes() == self.0)
            .map(|(_, cont)| *cont)
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.0[0] as char, self.0[1] as char)
    }
}

impl fmt::Debug for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Country({self})")
    }
}

impl FromStr for Country {
    type Err = CountryParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Country::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_countries_map_to_paper_continents() {
        for (code, cont) in [
            ("DE", Continent::EU),
            ("US", Continent::NA),
            ("KZ", Continent::AS),
            ("MU", Continent::AF),
            ("UY", Continent::SA),
            ("AU", Continent::OC),
        ] {
            assert_eq!(Country::new(code).unwrap().continent(), Some(cont));
        }
    }

    #[test]
    fn normalizes_case() {
        assert_eq!(Country::new("de").unwrap(), Country::new("DE").unwrap());
        assert_eq!(Country::new("de").unwrap().to_string(), "DE");
    }

    #[test]
    fn rejects_bad_codes() {
        assert!(Country::new("DEU").is_err());
        assert!(Country::new("D").is_err());
        assert!(Country::new("1A").is_err());
        assert!(Country::new("").is_err());
    }

    #[test]
    fn unknown_country_has_no_continent() {
        // Valid shape but absent from the table.
        assert_eq!(Country::new("ZZ").unwrap().continent(), None);
    }

    #[test]
    fn continent_listing_nonempty_everywhere() {
        for cont in Continent::ALL {
            let listed = COUNTRY_CONTINENTS.iter().any(|&(_, c)| c == cont);
            assert!(listed, "{cont} has no countries");
        }
    }

    #[test]
    fn parse_via_fromstr() {
        let c: Country = "fr".parse().unwrap();
        assert_eq!(c.code(), "FR");
    }
}
