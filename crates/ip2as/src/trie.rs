//! Binary longest-prefix-match trie over IPv4 prefixes.
//!
//! A straightforward unibit trie: nodes are stored in a flat `Vec`, children
//! addressed by index, payloads live on the node where a prefix ends. LPM
//! walks the address bits high-to-low remembering the deepest payload seen.
//! This is the structure the `repro ablation` bench compares against a naive
//! linear scan.

use dynaddr_types::ip::{ipv4_to_u32, Prefix};
use std::net::Ipv4Addr;

const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    children: [u32; 2],
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Node<T> {
        Node {
            children: [NO_NODE, NO_NODE],
            value: None,
        }
    }
}

/// A map from IPv4 prefixes to values with longest-prefix-match lookup.
///
/// ```
/// use dynaddr_ip2as::PrefixTrie;
///
/// let mut trie = PrefixTrie::new();
/// trie.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// trie.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (prefix, value) = trie.lookup("10.1.2.3".parse().unwrap()).unwrap();
/// assert_eq!(*value, "fine");
/// assert_eq!(prefix, "10.1.0.0/16".parse().unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> PrefixTrie<T> {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `depth` of the prefix base (0 = most significant).
    fn bit(base: u32, depth: u8) -> usize {
        ((base >> (31 - depth)) & 1) as usize
    }

    /// Inserts a prefix, returning the previous value if one existed.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let base = ipv4_to_u32(prefix.base());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let b = Self::bit(base, depth);
            let child = self.nodes[node].children[b];
            node = if child == NO_NODE {
                self.nodes.push(Node::new());
                let idx = (self.nodes.len() - 1) as u32;
                self.nodes[node].children[b] = idx;
                idx as usize
            } else {
                child as usize
            };
        }
        let old = self.nodes[node].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match lookup of a prefix.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        let base = ipv4_to_u32(prefix.base());
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let child = self.nodes[node].children[Self::bit(base, depth)];
            if child == NO_NODE {
                return None;
            }
            node = child as usize;
        }
        self.nodes[node].value.as_ref()
    }

    /// Longest-prefix match: the most specific stored prefix containing
    /// `addr`, along with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        let key = ipv4_to_u32(addr);
        let mut node = 0usize;
        let mut best: Option<(u8, &T)> = self.nodes[0].value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            let child = self.nodes[node].children[((key >> (31 - depth)) & 1) as usize];
            if child == NO_NODE {
                break;
            }
            node = child as usize;
            if let Some(v) = self.nodes[node].value.as_ref() {
                best = Some((depth + 1, v));
            }
        }
        best.map(|(len, v)| {
            let p = Prefix::new(addr, len).expect("len <= 32");
            (p, v)
        })
    }

    /// Iterates all stored `(prefix, value)` pairs in depth-first order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![(0u32, 0u32, 0u8)]; // (node, base, depth)
        while let Some((node, base, depth)) = stack.pop() {
            let n = &self.nodes[node as usize];
            if let Some(v) = n.value.as_ref() {
                let p = Prefix::new(Ipv4Addr::from(base), depth).expect("depth <= 32");
                out.push((p, v));
            }
            for b in 0..2u32 {
                let child = n.children[b as usize];
                if child != NO_NODE {
                    let child_base = base | (b << (31 - depth));
                    stack.push((child, child_base, depth + 1));
                }
            }
        }
        out.into_iter()
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
    fn empty_trie_finds_nothing() {
        let t: PrefixTrie<u32> = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(a("1.2.3.4")), None);
    }

    #[test]
    fn insert_and_get() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
    }

    #[test]
    fn longest_match_wins() {
        let mut t = PrefixTrie::new();
        t.insert(p("91.0.0.0/8"), "eight");
        t.insert(p("91.55.0.0/16"), "sixteen");
        t.insert(p("91.55.128.0/17"), "seventeen");
        let (pre, v) = t.lookup(a("91.55.174.103")).unwrap();
        assert_eq!(*v, "seventeen");
        assert_eq!(pre, p("91.55.128.0/17"));
        let (pre, v) = t.lookup(a("91.55.1.1")).unwrap();
        assert_eq!(*v, "sixteen");
        assert_eq!(pre, p("91.55.0.0/16"));
        let (pre, v) = t.lookup(a("91.200.0.1")).unwrap();
        assert_eq!(*v, "eight");
        assert_eq!(pre, p("91.0.0.0/8"));
        assert_eq!(t.lookup(a("92.0.0.1")), None);
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("203.0.113.0/24"), 1);
        assert_eq!(t.lookup(a("8.8.8.8")).unwrap().1, &0);
        assert_eq!(t.lookup(a("203.0.113.9")).unwrap().1, &1);
    }

    #[test]
    fn host_routes_work() {
        let mut t = PrefixTrie::new();
        t.insert(p("193.0.0.78/32"), "testing");
        assert_eq!(t.lookup(a("193.0.0.78")).unwrap().1, &"testing");
        assert_eq!(t.lookup(a("193.0.0.79")), None);
    }

    #[test]
    fn iter_returns_all() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "91.55.0.0/16", "203.0.113.0/24", "0.0.0.0/0"];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let mut got: Vec<String> = t.iter().map(|(pre, _)| pre.to_string()).collect();
        got.sort();
        let mut want: Vec<String> = prefixes.iter().map(|s| s.to_string()).collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        let mut t = PrefixTrie::new();
        t.insert(p("128.0.0.0/1"), "high");
        t.insert(p("0.0.0.0/1"), "low");
        assert_eq!(t.lookup(a("200.0.0.1")).unwrap().1, &"high");
        assert_eq!(t.lookup(a("100.0.0.1")).unwrap().1, &"low");
    }
}
