//! IPv4 address-space modelling.
//!
//! NCSA's deployment uses a dedicated class-B (/16) range — 65,536 host
//! addresses — with a /24 honeynet segment carved out of it (§IV-C). This
//! module provides CIDR blocks with containment/iteration, plus helpers for
//! carving sub-blocks and drawing random hosts, which the scenario
//! generators use to model scanners sweeping the full /16.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A CIDR block of IPv4 addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    base: u32,
    prefix: u8,
}

/// Error returned when parsing a CIDR string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CidrParseError(pub String);

impl fmt::Display for CidrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for CidrParseError {}

impl Cidr {
    /// Create a CIDR block. The base address is masked to the prefix.
    ///
    /// # Panics
    /// Panics if `prefix > 32`.
    pub fn new(base: Ipv4Addr, prefix: u8) -> Self {
        assert!(prefix <= 32, "prefix {prefix} out of range");
        let raw = u32::from(base) & Self::mask_bits(prefix);
        Cidr { base: raw, prefix }
    }

    fn mask_bits(prefix: u8) -> u32 {
        if prefix == 0 {
            0
        } else {
            u32::MAX << (32 - prefix)
        }
    }

    /// The (masked) network base address.
    pub fn base(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// The prefix length.
    pub fn prefix(&self) -> u8 {
        self.prefix
    }

    /// Number of addresses in the block (2^(32-prefix)).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix)
    }

    /// Whether `addr` falls inside this block.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask_bits(self.prefix) == self.base
    }

    /// The `i`-th address of the block.
    ///
    /// # Panics
    /// Panics if `i >= self.size()`.
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        assert!(
            i < self.size(),
            "index {i} out of range for /{}",
            self.prefix
        );
        Ipv4Addr::from(self.base + i as u32)
    }

    /// Iterate over every address in the block.
    pub fn iter(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.size()).map(move |i| Ipv4Addr::from(self.base + i as u32))
    }

    /// Carve the `i`-th sub-block of length `sub_prefix` out of this block.
    ///
    /// Example: `141.142.0.0/16` → subblock(5, 24) = `141.142.5.0/24`.
    ///
    /// # Panics
    /// Panics if `sub_prefix < self.prefix` or the index is out of range.
    pub fn subblock(&self, i: u64, sub_prefix: u8) -> Cidr {
        assert!(
            sub_prefix >= self.prefix && sub_prefix <= 32,
            "invalid sub-prefix"
        );
        let count = 1u64 << (sub_prefix - self.prefix);
        assert!(
            i < count,
            "sub-block index {i} out of range ({count} sub-blocks)"
        );
        let step = 1u64 << (32 - sub_prefix);
        Cidr {
            base: self.base + (i * step) as u32,
            prefix: sub_prefix,
        }
    }

    /// Whether another block lies entirely inside this one.
    pub fn covers(&self, other: &Cidr) -> bool {
        other.prefix >= self.prefix && self.contains(other.base())
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base(), self.prefix)
    }
}

impl FromStr for Cidr {
    type Err = CidrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, prefix) = s.split_once('/').ok_or_else(|| CidrParseError(s.into()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| CidrParseError(s.into()))?;
        let prefix: u8 = prefix.parse().map_err(|_| CidrParseError(s.into()))?;
        if prefix > 32 {
            return Err(CidrParseError(s.into()));
        }
        Ok(Cidr::new(addr, prefix))
    }
}

/// The production /16 used throughout the paper's figures (141.142.0.0/16).
pub fn ncsa_production() -> Cidr {
    Cidr::new(Ipv4Addr::new(141, 142, 0, 0), 16)
}

/// A secondary internal range that appears in the Fig. 1 DOT sample
/// (143.219.0.0/16).
pub fn ncsa_secondary() -> Cidr {
    Cidr::new(Ipv4Addr::new(143, 219, 0, 0), 16)
}

/// Anonymize an address the way the paper prints them: keep the first two
/// octets, mask the rest (`103.102.xxx.yyy` → `103.102.`).
pub fn anonymize(addr: Ipv4Addr) -> String {
    let o = addr.octets();
    format!("{}.{}.", o[0], o[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slash16_has_65536_hosts() {
        assert_eq!(ncsa_production().size(), 65_536);
    }

    #[test]
    fn containment() {
        let net = ncsa_production();
        assert!(net.contains(Ipv4Addr::new(141, 142, 20, 5)));
        assert!(!net.contains(Ipv4Addr::new(141, 143, 0, 1)));
    }

    #[test]
    fn nth_and_iter_agree() {
        let block = Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 28);
        let via_iter: Vec<_> = block.iter().collect();
        assert_eq!(via_iter.len(), 16);
        for (i, a) in via_iter.iter().enumerate() {
            assert_eq!(block.nth(i as u64), *a);
        }
    }

    #[test]
    fn subblock_carving() {
        let net = ncsa_production();
        let honeynet = net.subblock(77, 24);
        assert_eq!(honeynet.to_string(), "141.142.77.0/24");
        assert_eq!(honeynet.size(), 256);
        assert!(net.covers(&honeynet));
        assert!(!honeynet.covers(&net));
    }

    #[test]
    fn base_is_masked() {
        let c = Cidr::new(Ipv4Addr::new(192, 168, 5, 77), 24);
        assert_eq!(c.base(), Ipv4Addr::new(192, 168, 5, 0));
    }

    #[test]
    fn parse_roundtrip() {
        let c: Cidr = "141.142.0.0/16".parse().unwrap();
        assert_eq!(c, ncsa_production());
        assert!("141.142.0.0".parse::<Cidr>().is_err());
        assert!("x/16".parse::<Cidr>().is_err());
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
    }

    #[test]
    fn anonymization_matches_paper_format() {
        assert_eq!(anonymize(Ipv4Addr::new(103, 102, 8, 9)), "103.102.");
    }

    #[test]
    fn zero_prefix_covers_everything() {
        let all = Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(all.size(), 1u64 << 32);
    }
}
