//! Endpoint addresses.
//!
//! ElGA configures ZeroMQ "to use TCP between nodes and its
//! interprocess protocol within a node" (§3.5); we mirror the two
//! schemes with `inproc://name` and `tcp://host:port`.

use std::fmt;
use std::net::SocketAddr;

/// Address of a bindable endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// In-process endpoint, identified by name.
    Inproc(String),
    /// TCP endpoint.
    Tcp(SocketAddr),
}

impl Addr {
    /// An in-process address.
    pub fn inproc(name: impl Into<String>) -> Self {
        Addr::Inproc(name.into())
    }

    /// A TCP address.
    pub fn tcp(addr: SocketAddr) -> Self {
        Addr::Tcp(addr)
    }

    /// Parse `inproc://name` or `tcp://ip:port`.
    pub fn parse(s: &str) -> Result<Self, AddrParseError> {
        if let Some(name) = s.strip_prefix("inproc://") {
            if name.is_empty() {
                return Err(AddrParseError(s.to_string()));
            }
            return Ok(Addr::Inproc(name.to_string()));
        }
        if let Some(hostport) = s.strip_prefix("tcp://") {
            return hostport
                .parse()
                .map(Addr::Tcp)
                .map_err(|_| AddrParseError(s.to_string()));
        }
        Err(AddrParseError(s.to_string()))
    }

    /// The `inproc` name, if this is an in-process address.
    pub fn as_inproc(&self) -> Option<&str> {
        match self {
            Addr::Inproc(n) => Some(n),
            Addr::Tcp(_) => None,
        }
    }

    /// The socket address, if this is a TCP address.
    pub fn as_tcp(&self) -> Option<SocketAddr> {
        match self {
            Addr::Inproc(_) => None,
            Addr::Tcp(a) => Some(*a),
        }
    }

    /// FNV-1a over the display form: stable across runs and processes,
    /// so it seeds an address's streams (fault delays, retry jitter).
    pub(crate) fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Inproc(n) => write!(f, "inproc://{n}"),
            Addr::Tcp(a) => write!(f, "tcp://{a}"),
        }
    }
}

/// Error parsing an address string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_inproc() {
        let a = Addr::parse("inproc://agent-3").unwrap();
        assert_eq!(a, Addr::inproc("agent-3"));
        assert_eq!(a.as_inproc(), Some("agent-3"));
        assert_eq!(a.to_string(), "inproc://agent-3");
        assert!(a.as_tcp().is_none());
    }

    #[test]
    fn parse_tcp() {
        let a = Addr::parse("tcp://127.0.0.1:5555").unwrap();
        assert_eq!(a.as_tcp().unwrap().port(), 5555);
        assert_eq!(a.to_string(), "tcp://127.0.0.1:5555");
        assert!(a.as_inproc().is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Addr::parse("inproc://").is_err());
        assert!(Addr::parse("tcp://notanaddr").is_err());
        assert!(Addr::parse("http://x").is_err());
        assert!(Addr::parse("").is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        for s in ["inproc://d0", "tcp://10.0.0.1:9999"] {
            assert_eq!(Addr::parse(s).unwrap().to_string(), s);
        }
    }
}
