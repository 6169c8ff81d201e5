//! The alert type and attack entities.
//!
//! An [`Alert`] is a symbolized, sanitized log message with provenance
//! metadata (§II-A: "each log message is annotated with metadata indicating
//! the log's origin, such as source IP address or hostname").
//!
//! The [`Entity`] is the unit the threat model groups attacks by (§III-B):
//! activity under the same user account is one attack, even across machines
//! and even for multiple coordinated attackers; different accounts are
//! separate attacks. Network-only activity with no account is keyed by
//! source address.
//!
//! Both types are `Copy` and allocation-free: user names are interned
//! [`Sym`]s, messages are lazily rendered [`MessageSpec`]s, and per-entity
//! detector state is keyed by the integer [`EntityId`] instead of a
//! formatted key string. Where a key string is needed (reports,
//! snapshots), it is an [`EntityKey`], stored inline.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};
use simnet::intern::{Sym, SymMap, SymScope};
use simnet::time::SimTime;
use simnet::topology::HostId;

use crate::message::MessageSpec;
use crate::taxonomy::{AlertKind, Severity};

/// The acting entity an alert is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Entity {
    /// A user account (the primary attack-session key, §III-B).
    User(Sym),
    /// A source address, for unauthenticated network activity.
    Address(Ipv4Addr),
    /// Unknown origin.
    Unknown,
}

/// A compact integer identity for an [`Entity`] — the hot-path key of
/// every per-entity map (detector state, session buffers, filter windows).
///
/// Encoding: a tag in bits 32.. plus the 32-bit payload (interned user
/// symbol id, or the address as a `u32`). The encoding is lossless, so an
/// id converts back to its [`Entity`] (and key string) without any lookup
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EntityId(u64);

const TAG_USER: u64 = 1 << 32;
const TAG_ADDR: u64 = 2 << 32;
const TAG_UNKNOWN: u64 = 3 << 32;

impl EntityId {
    /// The raw 64-bit encoding (tag | payload).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw encoding. Raw ids embed interner-local
    /// symbol ids for user entities, so this is only valid within the
    /// process (and sym table) that minted `raw` — snapshots go through
    /// [`EntityId::snap_key`] / [`EntityId::from_snap_key`] instead.
    #[inline]
    pub fn from_raw(raw: u64) -> EntityId {
        EntityId(raw)
    }

    /// Reconstruct the entity this id encodes.
    pub fn entity(self) -> Entity {
        let payload = self.0 as u32;
        match self.0 & !0xFFFF_FFFF {
            TAG_USER => Entity::User(Sym::from_id(payload)),
            TAG_ADDR => Entity::Address(Ipv4Addr::from(payload)),
            _ => Entity::Unknown,
        }
    }

    /// The canonical key (`user:…` / `addr:…` / `unknown`) for reports
    /// and ground-truth tables. Resolves user symbols against the global
    /// scope; snapshot paths carrying tenant-scoped ids use
    /// [`EntityId::key_in`].
    pub fn key(self) -> EntityKey {
        self.key_in(&SymScope::global())
    }

    /// [`EntityId::key`] against an explicit symbol scope. Rebuilds the
    /// user handle via [`SymScope::sym_from_id`] (not
    /// [`EntityId::entity`], whose handles are global-tagged) so
    /// tenant-scoped ids resolve against the table that minted them.
    pub fn key_in(self, scope: &SymScope) -> EntityKey {
        let payload = self.0 as u32;
        match self.0 & !0xFFFF_FFFF {
            TAG_USER => EntityKey::render(format_args!(
                "user:{}",
                scope.resolve(scope.sym_from_id(payload))
            )),
            TAG_ADDR => EntityKey::render(format_args!("addr:{}", Ipv4Addr::from(payload))),
            _ => EntityKey::from("unknown"),
        }
    }

    /// Parse a canonical key string back to an id (interning the user
    /// name in the global scope if it has not been seen). The
    /// ground-truth hooks accept keys so evaluation harnesses can keep
    /// using strings at the boundary.
    pub fn from_key(key: &str) -> Option<EntityId> {
        if key == "unknown" {
            return Some(Entity::Unknown.id());
        }
        if let Some(user) = key.strip_prefix("user:") {
            return Some(Entity::User(Sym::from(user)).id());
        }
        if let Some(addr) = key.strip_prefix("addr:") {
            return addr
                .parse::<Ipv4Addr>()
                .ok()
                .map(|a| Entity::Address(a).id());
        }
        None
    }
}

/// A key as a snapshot stores it: a kind and a 32-bit id, no strings.
/// For a user the id is a position in the snapshot's symbol universe
/// (see [`SymMap`]); otherwise it is the key's own payload (an IPv4
/// address as a `u32`, 0 for `unknown`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SnapKey {
    /// One of [`SnapKey::USER`], [`SnapKey::ADDR`], [`SnapKey::UNKNOWN`]
    /// or [`SnapKey::SOURCE`].
    pub kind: u8,
    pub id: u32,
}

impl SnapKey {
    pub const USER: u8 = 1;
    pub const ADDR: u8 = 2;
    pub const UNKNOWN: u8 = 3;
    /// An anonymous source address: keys scan-filter windows only, never
    /// an entity.
    pub const SOURCE: u8 = 4;
}

impl EntityId {
    /// This id as a snapshot stores it. A user's symbol id is its
    /// position in the minting scope's universe
    /// ([`SymScope::snapshot`]), so nothing is looked up.
    pub fn snap_key(self) -> SnapKey {
        let (kind, id) = match self.0 & !0xFFFF_FFFF {
            TAG_USER => (SnapKey::USER, self.0 as u32),
            TAG_ADDR => (SnapKey::ADDR, self.0 as u32),
            _ => (SnapKey::UNKNOWN, 0),
        };
        SnapKey { kind, id }
    }

    /// Rebuild an id from its snapshot form, translating a user's
    /// universe position through `syms`. The error says why the key is
    /// no entity: a kind other than user, address or unknown, or a user
    /// past the universe.
    pub fn from_snap_key(key: SnapKey, syms: &SymMap) -> Result<EntityId, String> {
        match key.kind {
            SnapKey::USER => match syms.id(key.id) {
                Some(id) => Ok(EntityId(TAG_USER | u64::from(id))),
                None => Err(format!(
                    "user {} is past the {}-symbol universe",
                    key.id,
                    syms.len()
                )),
            },
            SnapKey::ADDR => Ok(EntityId(TAG_ADDR | u64::from(key.id))),
            SnapKey::UNKNOWN => Ok(EntityId(TAG_UNKNOWN)),
            kind => Err(format!("kind {kind} is not an entity kind")),
        }
    }
}

impl Entity {
    /// Canonical key for reports, ground truth and sessionization
    /// *boundaries*. Hot paths key by [`Entity::id`] instead. Resolves
    /// user symbols against the global scope; see [`Entity::key_in`].
    pub fn key(&self) -> EntityKey {
        self.key_in(&SymScope::global())
    }

    /// [`Entity::key`] against an explicit symbol scope.
    pub fn key_in(&self, scope: &SymScope) -> EntityKey {
        match self {
            Entity::User(u) => EntityKey::render(format_args!("user:{}", scope.resolve(*u))),
            Entity::Address(a) => EntityKey::render(format_args!("addr:{a}")),
            Entity::Unknown => EntityKey::from("unknown"),
        }
    }

    /// The allocation-free integer identity (see [`EntityId`]).
    #[inline]
    pub fn id(&self) -> EntityId {
        match self {
            Entity::User(u) => EntityId(TAG_USER | u.id() as u64),
            Entity::Address(a) => EntityId(TAG_ADDR | u32::from(*a) as u64),
            Entity::Unknown => EntityId(TAG_UNKNOWN),
        }
    }

    /// The user name if this is a user entity.
    pub fn user(&self) -> Option<&'static str> {
        match self {
            Entity::User(u) => Some(u.as_str()),
            _ => None,
        }
    }

    /// The user name resolved against an explicit scope.
    pub fn user_in<'a>(&self, scope: &'a SymScope) -> Option<&'a str> {
        match self {
            Entity::User(u) => Some(scope.resolve(*u)),
            _ => None,
        }
    }

    /// Stable 64-bit hash of the entity, for partitioning per-entity work
    /// (detector shards). All alerts of one entity land on the same shard,
    /// which is what makes per-entity detector state shardable at all
    /// (§III-B: one entity = one attack session). Hashes the integer
    /// [`EntityId`] — no string key is ever built.
    pub fn shard_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = simnet::rng::FxHasher::default();
        self.id().0.hash(&mut h);
        h.finish()
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::User(u) => write!(f, "user {u}"),
            Entity::Address(a) => write!(f, "address {a}"),
            Entity::Unknown => write!(f, "unknown entity"),
        }
    }
}

/// A canonical entity key (`user:…` / `addr:…` / `unknown`), stored
/// inline: what [`EntityId::key_in`] returns and what reports hold.
///
/// Keys of up to [`EntityKey::INLINE_CAP`] bytes (every address, and
/// user names of up to 25 bytes) live in the value itself, so rendering
/// one allocates nothing; a longer key falls back to one heap `String`.
/// Like a `String` key, it does not borrow the symbol scope that resolved
/// it. Equality, ordering, hashing, `Display` and `Debug` are those of the
/// `str` it holds.
#[derive(Clone)]
pub struct EntityKey(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    Inline {
        len: u8,
        buf: [u8; EntityKey::INLINE_CAP],
    },
    Heap(String),
}

impl EntityKey {
    /// The longest key stored without a heap allocation, in bytes. It
    /// keeps the whole key at 32 bytes.
    pub const INLINE_CAP: usize = 30;

    /// Format a key in place, spilling to the heap only past
    /// [`EntityKey::INLINE_CAP`].
    fn render(args: fmt::Arguments<'_>) -> EntityKey {
        let mut repr = KeyRepr::Inline {
            len: 0,
            buf: [0; EntityKey::INLINE_CAP],
        };
        fmt::Write::write_fmt(&mut KeyWriter(&mut repr), args)
            .expect("formatting into memory does not fail");
        EntityKey(repr)
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { len, buf } => inline_str(&buf[..*len as usize]),
            KeyRepr::Heap(s) => s,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, buf } => &buf[..*len as usize],
            KeyRepr::Heap(s) => s.as_bytes(),
        }
    }

    /// The keyed entity as operator text (`user X`, `address A` or
    /// `unknown entity`), as [`Entity`]'s `Display` writes it.
    pub fn describe(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            if let Some(user) = self.strip_prefix("user:") {
                write!(f, "user {user}")
            } else if let Some(addr) = self.strip_prefix("addr:") {
                write!(f, "address {addr}")
            } else {
                f.write_str("unknown entity")
            }
        })
    }
}

/// An inline buffer only ever receives whole `&str`s, so it is UTF-8.
fn inline_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("inline keys hold whole UTF-8 strings")
}

/// Appends to a key, moving it to the heap when the inline buffer is full.
struct KeyWriter<'a>(&'a mut KeyRepr);

impl fmt::Write for KeyWriter<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self.0 {
            KeyRepr::Inline { len, buf } => {
                let at = *len as usize;
                if let Some(dst) = buf.get_mut(at..at + s.len()) {
                    dst.copy_from_slice(s.as_bytes());
                    *len = (at + s.len()) as u8;
                } else {
                    let mut heap = String::with_capacity(at + s.len());
                    heap.push_str(inline_str(&buf[..at]));
                    heap.push_str(s);
                    *self.0 = KeyRepr::Heap(heap);
                }
            }
            KeyRepr::Heap(heap) => heap.push_str(s),
        }
        Ok(())
    }
}

impl From<&str> for EntityKey {
    fn from(s: &str) -> EntityKey {
        EntityKey::render(format_args!("{s}"))
    }
}

impl From<EntityKey> for String {
    /// One exact-size allocation for an inline key; a heap key moves.
    fn from(key: EntityKey) -> String {
        match key.0 {
            KeyRepr::Heap(s) => s,
            KeyRepr::Inline { .. } => key.as_str().to_owned(),
        }
    }
}

impl std::ops::Deref for EntityKey {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for EntityKey {
    fn eq(&self, other: &EntityKey) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for EntityKey {}

impl PartialEq<&str> for EntityKey {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for EntityKey {
    fn partial_cmp(&self, other: &EntityKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EntityKey {
    /// Byte order, which is `str`'s order.
    fn cmp(&self, other: &EntityKey) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for EntityKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for EntityKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for EntityKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A symbolized alert. `Copy`-cheap: no field owns heap storage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    pub ts: SimTime,
    pub kind: AlertKind,
    pub entity: Entity,
    /// Host the alert was observed on, when host-based.
    pub host: Option<HostId>,
    /// Source address of the triggering activity, when network-borne.
    pub src: Option<Ipv4Addr>,
    /// Destination address, when network-borne.
    pub dst: Option<Ipv4Addr>,
    /// Structured message, sanitized and rendered on demand
    /// (see [`MessageSpec::render`]).
    pub message: MessageSpec,
}

impl Alert {
    /// Minimal constructor for tests and generators. Takes the entity by
    /// value — a `Copy`, so no call site ever needs to clone one.
    pub fn new(ts: SimTime, kind: AlertKind, entity: Entity) -> Alert {
        Alert {
            ts,
            kind,
            entity,
            host: None,
            src: None,
            dst: None,
            message: MessageSpec::Empty,
        }
    }

    pub fn with_src(mut self, src: Ipv4Addr) -> Alert {
        self.src = Some(src);
        self
    }

    pub fn with_dst(mut self, dst: Ipv4Addr) -> Alert {
        self.dst = Some(dst);
        self
    }

    pub fn with_host(mut self, host: HostId) -> Alert {
        self.host = Some(host);
        self
    }

    pub fn with_message(mut self, msg: impl Into<MessageSpec>) -> Alert {
        self.message = msg.into();
        self
    }

    /// Severity shortcut.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// Whether this alert signals irreversible damage (Insight 4).
    pub fn is_critical(&self) -> bool {
        self.kind.is_critical()
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]", self.ts, self.kind, self.entity)?;
        if !self.message.is_empty() {
            write!(f, " {}", self.message)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_keys_are_distinct() {
        let u = Entity::User("alice".into());
        let a = Entity::Address("10.0.0.1".parse().unwrap());
        assert_ne!(u.key(), a.key());
        assert_eq!(u.key(), "user:alice");
        assert_eq!(u.user(), Some("alice"));
        assert_eq!(a.user(), None);
    }

    #[test]
    fn entity_id_round_trips() {
        for e in [
            Entity::User("alice".into()),
            Entity::Address("10.0.0.1".parse().unwrap()),
            Entity::Unknown,
        ] {
            let id = e.id();
            assert_eq!(id.entity(), e, "lossless encoding");
            assert_eq!(id.key(), e.key());
            assert_eq!(EntityId::from_key(&e.key()), Some(id), "key parses back");
            assert_eq!(
                e.key().describe().to_string(),
                e.to_string(),
                "operator text"
            );
        }
        assert_eq!(EntityId::from_key("garbage"), None);
        assert_eq!(EntityId::from_key("addr:not-an-ip"), None);
        // User "10.0.0.1" and address 10.0.0.1 have different ids.
        assert_ne!(
            Entity::User("10.0.0.1".into()).id(),
            Entity::Address("10.0.0.1".parse().unwrap()).id()
        );
    }

    #[test]
    fn entity_keys_spill_only_past_the_inline_capacity() {
        const CAP: usize = EntityKey::INLINE_CAP;
        assert_eq!(std::mem::size_of::<EntityKey>(), 32);
        let inline = |k: &EntityKey| matches!(k.0, KeyRepr::Inline { .. });
        assert!(inline(&EntityKey::from("u".repeat(CAP).as_str())));
        assert!(!inline(&EntityKey::from("u".repeat(CAP + 1).as_str())));
        // A key that crosses the capacity mid-write keeps its whole text.
        let long = Entity::User("a-user-name-of-exactly-thirty-two".into());
        let key = long.key();
        assert!(!inline(&key));
        assert_eq!(key, "user:a-user-name-of-exactly-thirty-two");
        let widest = Entity::Address(Ipv4Addr::new(255, 255, 255, 255)).key();
        assert!(inline(&widest));
        assert_eq!(widest, "addr:255.255.255.255");
        assert_eq!(Entity::Unknown.key(), "unknown");
    }

    #[test]
    fn shard_key_is_stable_and_discriminates() {
        let u = Entity::User("alice".into());
        assert_eq!(u.shard_key(), Entity::User("alice".into()).shard_key());
        // User "10.0.0.1" and address 10.0.0.1 must not collide by
        // construction (tagged encoding).
        let a = Entity::Address("10.0.0.1".parse().unwrap());
        assert_ne!(Entity::User("10.0.0.1".into()).shard_key(), a.shard_key());
    }

    #[test]
    fn builder_chain() {
        let a = Alert::new(
            SimTime::from_secs(1),
            AlertKind::DownloadSensitive,
            Entity::User("bob".into()),
        )
        .with_src("64.215.1.1".parse().unwrap())
        .with_host(HostId(3))
        .with_message("wget 64.215.xxx.yyy/abs.c");
        assert_eq!(a.kind, AlertKind::DownloadSensitive);
        assert!(a.src.is_some());
        assert!(a.dst.is_none());
        assert_eq!(a.severity(), Severity::Significant);
        assert!(!a.is_critical());
    }

    #[test]
    fn display_includes_symbol() {
        let a = Alert::new(
            SimTime::from_secs(0),
            AlertKind::PrivilegeEscalation,
            Entity::Unknown,
        );
        let s = a.to_string();
        assert!(s.contains("alert_priv_escalation"));
        assert!(a.is_critical());
    }

    #[test]
    fn alerts_are_copy() {
        let a = Alert::new(
            SimTime::from_secs(0),
            AlertKind::PortScan,
            Entity::Address("1.2.3.4".parse().unwrap()),
        );
        let b = a; // Copy, not move
        assert_eq!(a, b);
    }
}
