//! JSON wire format for [`ServiceSnapshot`] — the on-disk shape of a
//! tenant's detection state across service restarts.
//!
//! Format 2, the only one written, is compact JSON: no whitespace, fixed
//! key order, and no entity or palette strings. Every key is a `[kind,
//! id]` integer pair (see [`SnapKey`]); palette join keys carry an `id`.
//! User and palette ids are positions in `sym_universe`, a plain string
//! array holding each symbol once.
//!
//! The codec streams in both directions; there is no intermediate
//! `serde_json::Value` tree. [`Writer`] appends the document into one
//! pre-sized `String`. [`Reader`] pulls tokens off the input bytes,
//! matches object keys as borrowed slices and decodes straight into the
//! snapshot structs. The rings inside an entity or join key (posterior,
//! dedup, step and slot rings) decode into fixed-length arrays whose
//! length comes from the field's type, and the universe's strings are
//! copied, or unescaped, straight into one [`SymUniverse`] text buffer.
//! So a decode allocates per top-level array and per campaign, never per
//! entity or per symbol.
//!
//! The bytes are exactly what `serde_json::to_string` prints for the
//! equivalent tree: `"`, `\\`, `\n`, `\r`, `\t` and other control bytes
//! (as `\u00xx`) escaped, floats in Rust's shortest-repr `Display` text
//! (non-finite as `null`). Floats round-trip exactly, negative zero
//! included: float fields parse their number token with `f64::from_str`.
//!
//! Decoding accepts keys in any order, skips unknown keys after
//! validating their JSON (nesting bounded by [`MAX_DEPTH`]), and keeps the
//! first occurrence of a repeated key. A missing or `null` `tagger` /
//! `correlator` decodes to `None`; every other missing field, wrong type,
//! out-of-range integer, wrong tuple or ring arity, unknown link kind or
//! trailing byte is an `Err` naming the field. Whether an id fits the universe is
//! the restore's check, not the codec's.
//!
//! Format 1 (pretty-printed, with canonical key strings such as
//! `user:alice`, `addr:10.0.0.5` and `src:10.0.0.9`, palette payloads as
//! strings and an `[id, string]` universe) is still read. Its strings are
//! resolved against the document's own universe; names missing from it
//! are appended in the order the document first mentions them.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use alertlib::alert::SnapKey;
use alertlib::filter::FilterStats;
use alertlib::filter::{FilterSnapshot, FilterWindowSnapshot};
use detect::attack_tagger::{EntityStateSnapshot, TaggerSnapshot, DEDUP_SLOTS};
use detect::correlate::{
    CampaignSnapshot, CorrelatorEntitySnapshot, CorrelatorSnapshot, JoinKeySnapshot, LinkKind,
    LinkSnapshot, RING, SEQ_RING,
};
use detect::Stage;
use simnet::intern::{SymUniverse, TenantId};
use simnet::time::SimTime;

use super::ServiceSnapshot;
use crate::stage::StreamStats;

/// Wire-format version; bumped on incompatible shape changes so a stale
/// fixture fails loudly instead of restoring garbage.
const FORMAT: u64 = 2;

/// The older, string-keyed format this build still reads.
const FORMAT_V1: u64 = 1;

/// Deepest nesting accepted inside an unknown key's value.
const MAX_DEPTH: usize = 128;

impl ServiceSnapshot {
    /// Encode to the compact JSON wire format.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(self.wire_len_hint());
        w.object(|w| {
            w.key("format").uint(FORMAT);
            w.key("tenant").uint(self.tenant.0);
            w.key("stats");
            write_stats(w, &self.stats);
            w.key("filter");
            write_filter(w, &self.filter);
            w.key("tagger");
            match &self.tagger {
                Some(t) => write_tagger(w, t),
                None => w.null(),
            }
            w.key("correlator");
            match &self.correlator {
                Some(c) => write_correlator(w, c),
                None => w.null(),
            }
            w.key("sym_universe").array(|w| {
                for s in self.sym_universe.iter() {
                    w.item().str(s);
                }
            });
        });
        w.out
    }

    /// Parse the wire format (2, or the older 1) back. Errors carry the
    /// field name and byte offset so a corrupt fixture points at its own
    /// breakage.
    pub fn from_json(text: &str) -> Result<ServiceSnapshot, String> {
        let format = top_level(text, "format", Reader::uint)?
            .ok_or_else(|| "snapshot JSON: `format` missing".to_string())?;
        let mut r = Reader::new(text);
        match format {
            FORMAT => {}
            FORMAT_V1 => {
                let universe =
                    top_level(text, "sym_universe", |r, f| r.universe(f, read_v1_symbol))?
                        .ok_or_else(|| "snapshot JSON: `sym_universe` missing".to_string())?;
                r.v1 = Some(V1Names::new(universe));
            }
            other => {
                return Err(format!(
                    "snapshot format {other} (this build reads {FORMAT} and {FORMAT_V1})"
                ))
            }
        }
        let snap = read_snapshot(&mut r)?;
        if r.peek().is_some() {
            return Err(format!(
                "snapshot JSON: trailing characters at byte {}",
                r.pos
            ));
        }
        Ok(snap)
    }

    /// Encoded size from typical bytes per item, with an eighth of
    /// headroom so the output buffer is allocated once.
    fn wire_len_hint(&self) -> usize {
        const TAGGER_ENTITY: usize = 120 + 22 * Stage::COUNT + 24 * DEDUP_SLOTS;
        const CORRELATOR_ENTITY: usize = 130 + 24 * SEQ_RING;
        const JOIN_KEY: usize = 60 + 36 * RING;
        let tagger = self.tagger.as_ref().map_or(0, |t| {
            TAGGER_ENTITY * t.entities.len() + 16 * t.evicted_latches.len()
        });
        let correlator = self.correlator.as_ref().map_or(0, |c| {
            let entities = CORRELATOR_ENTITY * c.entities.len();
            let keys = JOIN_KEY * c.keys.len();
            let campaigns: usize = c
                .campaigns
                .iter()
                .map(|cs| 200 + 16 * cs.members.len() + 60 * cs.links.len())
                .sum();
            entities + keys + campaigns + 16 * c.promoted_latches.len()
        });
        let universe: usize = self.sym_universe.iter().map(|s| s.len() + 3).sum();
        let bytes = 1024 + 90 * self.filter.windows.len() + tagger + correlator + universe;
        bytes + bytes / 8
    }
}

// ---- encode ----

/// Compact JSON writer over one growing `String`, byte-identical to the
/// `serde_json` compact printer.
struct Writer {
    out: String,
    /// Whether the innermost open container has no items yet.
    empty: bool,
}

impl Writer {
    fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: String::with_capacity(bytes),
            empty: true,
        }
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.out.push(open);
        let outer = std::mem::replace(&mut self.empty, true);
        body(self);
        self.empty = outer;
        self.out.push(close);
    }

    fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', '}', body)
    }

    fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', ']', body)
    }

    /// An array of `items`, each written by `each`.
    fn seq<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.array(|w| {
            for x in items {
                each(w.item(), x);
            }
        })
    }

    /// Start the next item of the innermost container.
    fn item(&mut self) -> &mut Self {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self
    }

    /// Start the next object member (keys are plain identifiers).
    fn key(&mut self, key: &str) -> &mut Self {
        self.item();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self
    }

    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn uint(&mut self, v: impl Into<u64>) {
        let mut v = v.into();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
    }

    fn time(&mut self, t: SimTime) {
        self.uint(t.as_nanos());
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            write!(self.out, "{v}").expect("writing to a String cannot fail");
        } else {
            // JSON has no Inf/NaN; serde_json writes `null`.
            self.null();
        }
    }

    fn str(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `run..i` ends on a char boundary.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                write!(self.out, "\\u{b:04x}").expect("writing to a String cannot fail");
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// `[kind, id]`.
    fn snap_key(&mut self, k: SnapKey) {
        self.array(|w| {
            w.item().uint(k.kind);
            w.item().uint(k.id);
        })
    }

    fn snap_keys(&mut self, keys: &[SnapKey]) {
        self.seq(keys, |w, &k| w.snap_key(k))
    }

    /// `[ts, kind]` step-ring slots.
    fn step_ring(&mut self, steps: &[(SimTime, u16)]) {
        self.seq(steps, |w, &(ts, kind)| {
            w.array(|w| {
                w.item().time(ts);
                w.item().uint(kind);
            })
        })
    }
}

fn write_stats(w: &mut Writer, s: &StreamStats) {
    w.object(|w| {
        w.key("records").uint(s.records);
        w.key("alerts").uint(s.alerts);
        w.key("admitted").uint(s.admitted);
        w.key("detections").uint(s.detections);
    })
}

fn write_filter(w: &mut Writer, f: &FilterSnapshot) {
    w.object(|w| {
        w.key("windows").seq(&f.windows, |w, win| {
            w.object(|w| {
                w.key("source").snap_key(win.source);
                w.key("kind").uint(win.kind);
                w.key("start").time(win.start);
                w.key("admitted").uint(win.admitted);
            })
        });
        w.key("seen").uint(f.stats.seen);
        w.key("admitted").uint(f.stats.admitted);
        w.key("suppressed").uint(f.stats.suppressed);
        w.key("last_sweep").time(f.last_sweep);
    })
}

fn write_tagger(w: &mut Writer, t: &TaggerSnapshot) {
    w.object(|w| {
        w.key("entities").seq(&t.entities, |w, e| {
            w.object(|w| {
                w.key("entity").snap_key(e.entity);
                w.key("alpha").seq(&e.alpha, |w, &p| w.f64(p));
                w.key("steps").uint(e.steps as u64);
                w.key("detected").bool(e.detected);
                w.key("last_ts").time(e.last_ts);
                w.key("recent").step_ring(&e.recent);
                w.key("recent_head").uint(e.recent_head);
            })
        });
        w.key("evicted_latches").snap_keys(&t.evicted_latches);
        w.key("duplicates_suppressed").uint(t.duplicates_suppressed);
        w.key("entities_evicted").uint(t.entities_evicted);
    })
}

fn write_correlator(w: &mut Writer, c: &CorrelatorSnapshot) {
    w.object(|w| {
        w.key("entities").seq(&c.entities, |w, e| {
            w.object(|w| {
                w.key("entity").snap_key(e.entity);
                w.key("campaign").uint(e.campaign);
                w.key("mass").f64(e.mass);
                w.key("last_ts").time(e.last_ts);
                w.key("seen").uint(e.seen);
                w.key("promoted").bool(e.promoted);
                w.key("steps").step_ring(&e.steps);
                w.key("steps_head").uint(e.steps_head);
            })
        });
        w.key("keys").seq(&c.keys, |w, k| {
            w.object(|w| {
                w.key("kind").str(k.kind.as_str());
                w.key("id").uint(k.id);
                w.key("slots").seq(&k.slots, |w, slot| match *slot {
                    Some((entity, ts)) => w.array(|w| {
                        w.item().snap_key(entity);
                        w.item().time(ts);
                    }),
                    None => w.null(),
                });
                w.key("head").uint(k.head);
            })
        });
        w.key("campaigns").seq(&c.campaigns, |w, cs| {
            w.object(|w| {
                w.key("id").uint(cs.id);
                w.key("members").snap_keys(&cs.members);
                w.key("links").seq(&cs.links, |w, l| {
                    w.array(|w| {
                        w.item().time(l.ts);
                        w.item().snap_key(l.a);
                        w.item().snap_key(l.b);
                        w.item().str(l.kind.as_str());
                    })
                });
                w.key("best_key");
                match cs.best_key {
                    Some(k) => w.snap_key(k),
                    None => w.null(),
                }
                w.key("best_mass").f64(cs.best_mass);
                w.key("second").f64(cs.second);
                w.key("support_ts").time(cs.support_ts);
                w.key("promotions").uint(cs.promotions);
                w.key("detections").uint(cs.detections);
            })
        });
        w.key("promoted_latches").snap_keys(&c.promoted_latches);
        w.key("next_campaign").uint(c.next_campaign);
        w.key("promotions").uint(c.promotions);
        w.key("tagger_confirmations").uint(c.tagger_confirmations);
        w.key("entities_evicted").uint(c.entities_evicted);
    })
}

// ---- decode ----

type Res<T> = Result<T, String>;

/// Pull reader over the JSON text. Every method takes the name of the
/// field being read, for its error message.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    scratch: Scratch,
    /// Set while reading a format-1 document: its key strings resolve
    /// against these names.
    v1: Option<V1Names>,
}

/// Reused buffers for the variable-length arrays inside campaigns (and
/// the latch lists): items are decoded here, then copied out at their
/// final length, so each decoded vector allocates exactly once. The
/// rings inside entities and join keys need none: they decode into
/// fixed-length arrays.
#[derive(Default)]
struct Scratch {
    keys: Vec<SnapKey>,
    links: Vec<LinkSnapshot>,
}

/// A format-1 document's universe, growing as its key strings name
/// symbols it lacks.
struct V1Names {
    universe: SymUniverse,
    positions: HashMap<String, u32>,
}

impl V1Names {
    fn new(universe: SymUniverse) -> Self {
        let mut positions = HashMap::with_capacity(universe.len());
        for (i, s) in universe.iter().enumerate() {
            positions.entry(s.to_owned()).or_insert(i as u32);
        }
        V1Names {
            universe,
            positions,
        }
    }

    /// `name`'s position, appending it when the universe lacks it.
    fn position(&mut self, name: &str) -> u32 {
        if let Some(&at) = self.positions.get(name) {
            return at;
        }
        let at = self.universe.len() as u32;
        self.universe.push(name);
        self.positions.insert(name.to_owned(), at);
        at
    }

    /// A canonical key string: `user:…`, `addr:…`, `unknown`, or `src:…`
    /// for an anonymous-source filter window.
    fn key(&mut self, key: &str) -> Option<SnapKey> {
        if key == "unknown" {
            return Some(SnapKey {
                kind: SnapKey::UNKNOWN,
                id: 0,
            });
        }
        if let Some(user) = key.strip_prefix("user:") {
            return Some(SnapKey {
                kind: SnapKey::USER,
                id: self.position(user),
            });
        }
        let (kind, addr) = match key.strip_prefix("addr:") {
            Some(addr) => (SnapKey::ADDR, addr),
            None => (SnapKey::SOURCE, key.strip_prefix("src:")?),
        };
        let addr: Ipv4Addr = addr.parse().ok()?;
        Some(SnapKey {
            kind,
            id: u32::from(addr),
        })
    }
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            scratch: Scratch::default(),
            v1: None,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, field: &str, what: impl std::fmt::Display) -> String {
        format!("snapshot JSON: `{field}` at byte {}: {what}", self.pos)
    }

    /// The next non-whitespace byte, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = bytes.get(self.pos) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, field: &str) -> Res<()> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(field, format_args!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, word: &str) -> bool {
        let hit = self.peek().is_some() && self.bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    fn null(&mut self) -> bool {
        self.keyword("null")
    }

    /// After an item: `,` means another follows, `close` ends the
    /// container.
    fn more(&mut self, close: u8, field: &str) -> Res<bool> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(field, format_args!("expected `,` or `{}`", close as char))),
        }
    }

    /// Walk an object's members. `member` decodes the value of a key it
    /// knows and returns `true`; for any other key it returns `false` and
    /// the value is validated and skipped.
    fn object(
        &mut self,
        field: &str,
        mut member: impl FnMut(&mut Self, &str) -> Res<bool>,
    ) -> Res<()> {
        self.expect(b'{', field)?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string(field)?;
            self.expect(b':', &key)?;
            if !member(self, &key)? {
                self.skip(&key, 0)?;
            }
            if !self.more(b'}', field)? {
                return Ok(());
            }
        }
    }

    /// Walk an array's items.
    fn array(&mut self, field: &str, mut item: impl FnMut(&mut Self) -> Res<()>) -> Res<()> {
        self.expect(b'[', field)?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.more(b']', field)? {
                return Ok(());
            }
        }
    }

    /// A long array (entities, keys, symbols, latches), reserved from its
    /// first item — the rest of the input holds at most `rest / first-item
    /// bytes` more like it — and trimmed to its length at the end. The
    /// reservation never exceeds the bytes the input has left, so hostile
    /// input cannot inflate it.
    fn vec<T>(
        &mut self,
        field: &str,
        mut item: impl FnMut(&mut Self, &str) -> Res<T>,
    ) -> Res<Vec<T>> {
        let mut out = Vec::new();
        self.array(field, |r| {
            let start = r.pos;
            let next = item(r, field)?;
            if out.capacity() == 0 {
                let first = (r.pos - start).max(std::mem::size_of::<T>()).max(1);
                out.reserve_exact(1 + (r.text.len() - r.pos) / first);
            }
            out.push(next);
            Ok(())
        })?;
        out.shrink_to_fit();
        Ok(out)
    }

    /// A fixed-arity array of exactly `N` items, `N` taken from the
    /// field's type; any other count is an error naming the field.
    /// Unread slots start as `fill`.
    fn ring<T: Copy, const N: usize>(
        &mut self,
        field: &str,
        fill: T,
        mut item: impl FnMut(&mut Self, &str) -> Res<T>,
    ) -> Res<[T; N]> {
        let mut out = [fill; N];
        let mut n = 0;
        self.array(field, |r| {
            let next = item(r, field)?;
            *out.get_mut(n)
                .ok_or_else(|| r.err(field, format_args!("more than {N} items")))? = next;
            n += 1;
            Ok(())
        })?;
        if n < N {
            return Err(self.err(field, format_args!("{n} items, expected {N}")));
        }
        Ok(out)
    }

    /// The symbol universe: each string is copied, or unescaped, straight
    /// into one [`SymUniverse`]. Its text is reserved for every byte the
    /// input has left (never more), its offsets for one string per
    /// offset's worth of those bytes, and both are trimmed at the end.
    fn universe(
        &mut self,
        field: &str,
        mut item: impl FnMut(&mut Self, &str, &mut SymUniverse) -> Res<()>,
    ) -> Res<SymUniverse> {
        let rest = self.text.len() - self.pos;
        let mut out = SymUniverse::with_capacity(rest / std::mem::size_of::<usize>(), rest);
        self.array(field, |r| item(r, field, &mut out))?;
        out.shrink_to_fit();
        Ok(out)
    }

    /// A short array, decoded through the [`Scratch`] buffer `buf` selects.
    fn short_vec<T>(
        &mut self,
        field: &str,
        buf: fn(&mut Scratch) -> &mut Vec<T>,
        mut item: impl FnMut(&mut Self, &str) -> Res<T>,
    ) -> Res<Vec<T>> {
        let mut items = std::mem::take(buf(&mut self.scratch));
        self.array(field, |r| {
            items.push(item(r, field)?);
            Ok(())
        })?;
        let mut out = Vec::with_capacity(items.len());
        out.append(&mut items);
        *buf(&mut self.scratch) = items;
        Ok(out)
    }

    /// A string token, borrowed from the input unless it has escapes.
    fn string(&mut self, field: &str) -> Res<Cow<'a, str>> {
        let (body, escaped) = self.string_token(field)?;
        if !escaped {
            return Ok(Cow::Borrowed(body));
        }
        let mut out = String::with_capacity(body.len());
        unescape(body, &mut out).map_err(|why| self.err(field, why))?;
        Ok(Cow::Owned(out))
    }

    /// A string token appended to `universe`.
    fn symbol(&mut self, field: &str, universe: &mut SymUniverse) -> Res<()> {
        let (body, escaped) = self.string_token(field)?;
        if !escaped {
            universe.push(body);
            return Ok(());
        }
        universe
            .push_with(|text| unescape(body, text))
            .map_err(|why| self.err(field, why))
    }

    /// The body of a string token as it stands in the input, and whether
    /// it holds escapes.
    fn string_token(&mut self, field: &str) -> Res<(&'a str, bool)> {
        if self.peek() != Some(b'"') {
            return Err(self.err(field, "expected string"));
        }
        let bytes = self.bytes();
        let start = self.pos;
        let mut end = start + 1;
        let mut escaped = false;
        loop {
            match bytes.get(end) {
                None => return Err(self.err(field, "unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    escaped = true;
                    end += 2;
                }
                Some(_) => end += 1,
            }
        }
        self.pos = end + 1;
        // Both ends sit on ASCII quotes: valid char boundaries.
        Ok((&self.text[start + 1..end], escaped))
    }

    /// An entity or filter-source key: `[kind, id]`, or in a format-1
    /// document its canonical string.
    fn key(&mut self, field: &str) -> Res<SnapKey> {
        if self.v1.is_some() {
            let key = self.string(field)?;
            let names = self.v1.as_mut().expect("checked above");
            return match names.key(&key) {
                Some(k) => Ok(k),
                None => Err(self.err(field, format_args!("malformed entity key {key:?}"))),
            };
        }
        self.expect(b'[', field)?;
        let kind = self.uint(field)?;
        self.expect(b',', field)?;
        let id = self.uint(field)?;
        self.expect(b']', field)?;
        Ok(SnapKey { kind, id })
    }

    fn opt_key(&mut self, field: &str) -> Res<Option<SnapKey>> {
        if self.null() {
            Ok(None)
        } else {
            self.key(field).map(Some)
        }
    }

    fn bool(&mut self, field: &str) -> Res<bool> {
        if self.keyword("true") {
            Ok(true)
        } else if self.keyword("false") {
            Ok(false)
        } else {
            Err(self.err(field, "expected bool"))
        }
    }

    /// An unsigned integer (a plain digit run) that must fit `T`.
    fn uint<T: TryFrom<u64>>(&mut self, field: &str) -> Res<T> {
        self.peek();
        let bytes = self.bytes();
        let start = self.pos;
        let mut v = 0u64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(self.pos) {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.err(field, "out of u64 range"))?;
            self.pos += 1;
        }
        if self.pos == start
            || matches!(bytes.get(self.pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            return Err(self.err(field, "expected unsigned integer"));
        }
        T::try_from(v).map_err(|_| {
            self.err(
                field,
                format_args!("{v} out of {} range", std::any::type_name::<T>()),
            )
        })
    }

    /// A float: the run of digits, `.`, `e`, `E`, `+` and `-` that the
    /// `serde_json` parser scans as a number, parsed by `f64::from_str`.
    /// Integer text is accepted (`1.0` is written as `1`), and `-0`
    /// keeps its sign.
    fn f64(&mut self, field: &str) -> Res<f64> {
        self.peek();
        let bytes = self.bytes();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err(field, "expected number"))
    }

    fn time(&mut self, field: &str) -> Res<SimTime> {
        self.uint(field).map(SimTime::from_nanos)
    }

    /// Validate and discard one value of any shape.
    fn skip(&mut self, field: &str, depth: usize) -> Res<()> {
        if depth > MAX_DEPTH {
            return Err(self.err(field, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(field, |r, key| r.skip(key, depth + 1).map(|()| true)),
            Some(b'[') => self.array(field, |r| r.skip(field, depth + 1)),
            Some(b'"') => self.string(field).map(drop),
            Some(b'n') if self.null() => Ok(()),
            Some(b't' | b'f') => self.bool(field).map(drop),
            _ => self.f64(field).map(drop),
        }
    }

    /// Decode `field`'s value into `slot` unless an earlier occurrence of
    /// the key filled it: the first occurrence wins, repeats are skipped.
    fn field<T>(
        &mut self,
        slot: &mut Option<T>,
        field: &str,
        read: impl FnOnce(&mut Self, &str) -> Res<T>,
    ) -> Res<bool> {
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(read(self, field)?);
        Ok(true)
    }
}

/// Append the string-token body `body` to `out`, decoding its escapes as
/// the `serde_json` parser does: the two-character escapes, and `\uXXXX`
/// with surrogate pairs combined.
fn unescape(body: &str, out: &mut String) -> Result<(), &'static str> {
    let bytes = body.as_bytes();
    let (mut run, mut i) = (0, 0);
    while let Some(at) = bytes[i..].iter().position(|&b| b == b'\\') {
        // Escapes are ASCII, so `run..i + at` ends on a char boundary.
        out.push_str(&body[run..i + at]);
        i += at + 2;
        let c = match bytes.get(i - 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let first = hex4(bytes, i)?;
                i += 4;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // A high surrogate: a `\uXXXX` low surrogate follows.
                    if bytes.get(i..i + 2) != Some(b"\\u") {
                        return Err("unpaired surrogate");
                    }
                    let second = hex4(bytes, i + 2)?;
                    i += 6;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err("invalid low surrogate");
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code).ok_or("bad code point")?
            }
            _ => return Err("bad escape"),
        };
        out.push(c);
        run = i;
    }
    out.push_str(&body[run..]);
    Ok(())
}

/// The four hex digits of a `\u` escape at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, &'static str> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |v, &d| {
        let d = char::from(d).to_digit(16).ok_or("bad \\u escape")?;
        Ok(v * 16 + d)
    })
}

fn need<T>(slot: Option<T>, field: &str) -> Res<T> {
    slot.ok_or_else(|| format!("snapshot JSON: `{field}` missing"))
}

/// Decode an object into `Struct`, one `field: reader` per member: keys in
/// any order, unknown keys skipped, the first of repeated keys kept, and
/// every listed field required.
macro_rules! read_struct {
    ($r:expr, $field:expr, $Struct:ident { $($name:ident: $read:expr),* $(,)? }) => {{
        $(let mut $name = None;)*
        $r.object($field, |r, key| match key {
            $(stringify!($name) => r.field(&mut $name, key, $read),)*
            _ => Ok(false),
        })?;
        Res::Ok($Struct { $($name: need($name, stringify!($name))?,)* })
    }};
}

/// The first value of the document's top-level member `name`, read by
/// `read`: a pass that validates and skips the members before it. How
/// the rest of the document reads depends on its `format`, and a format-1
/// document's keys on its `sym_universe`, wherever they sit.
fn top_level<'a, T>(
    text: &'a str,
    name: &str,
    read: impl FnOnce(&mut Reader<'a>, &str) -> Res<T>,
) -> Res<Option<T>> {
    let mut r = Reader::new(text);
    r.expect(b'{', "snapshot")?;
    if r.eat(b'}') {
        return Ok(None);
    }
    loop {
        let key = r.string("snapshot")?;
        r.expect(b':', &key)?;
        if key == name {
            return read(&mut r, name).map(Some);
        }
        r.skip(&key, 0)?;
        if !r.more(b'}', "snapshot")? {
            return Ok(None);
        }
    }
}

/// A format-1 universe entry, `[id, string]`; positions, not the stored
/// ids, name symbols.
fn read_v1_symbol(r: &mut Reader, field: &str, universe: &mut SymUniverse) -> Res<()> {
    r.expect(b'[', field)?;
    r.uint::<u32>(field)?;
    r.expect(b',', field)?;
    r.symbol(field, universe)?;
    r.expect(b']', field)
}

fn read_snapshot(r: &mut Reader) -> Res<ServiceSnapshot> {
    let (mut tenant, mut stats, mut filter) = (None, None, None);
    let (mut tagger, mut correlator, mut sym_universe) = (None, None, None);
    let v1 = r.v1.is_some();
    // `format` (and a format-1 universe) were read up front.
    r.object("snapshot", |r, key| match key {
        "tenant" => r.field(&mut tenant, key, Reader::uint),
        "stats" => r.field(&mut stats, key, read_stats),
        "filter" => r.field(&mut filter, key, read_filter),
        "tagger" => r.field(&mut tagger, key, |r, f| nullable(r, f, read_tagger)),
        "correlator" => r.field(&mut correlator, key, |r, f| nullable(r, f, read_correlator)),
        "sym_universe" if !v1 => {
            r.field(&mut sym_universe, key, |r, f| r.universe(f, Reader::symbol))
        }
        _ => Ok(false),
    })?;
    let sym_universe = match r.v1.take() {
        Some(names) => names.universe,
        None => need(sym_universe, "sym_universe")?,
    };
    Ok(ServiceSnapshot {
        tenant: TenantId(need(tenant, "tenant")?),
        stats: need(stats, "stats")?,
        filter: need(filter, "filter")?,
        tagger: tagger.flatten(),
        correlator: correlator.flatten(),
        sym_universe,
    })
}

fn nullable<T>(
    r: &mut Reader,
    field: &str,
    read: fn(&mut Reader, &str) -> Res<T>,
) -> Res<Option<T>> {
    if r.null() {
        Ok(None)
    } else {
        read(r, field).map(Some)
    }
}

fn link_kind(r: &mut Reader, field: &str) -> Res<LinkKind> {
    match &*r.string(field)? {
        "victim" => Ok(LinkKind::Victim),
        "source" => Ok(LinkKind::Source),
        "host" => Ok(LinkKind::Host),
        "palette" => Ok(LinkKind::Palette),
        other => Err(r.err(field, format_args!("unknown link kind `{other}`"))),
    }
}

/// `[ts, kind]` step-ring slots.
fn read_step_ring<const N: usize>(r: &mut Reader, field: &str) -> Res<[(SimTime, u16); N]> {
    r.ring(field, (SimTime::EPOCH, 0), |r, f| {
        r.expect(b'[', f)?;
        let ts = r.time(f)?;
        r.expect(b',', f)?;
        let kind = r.uint(f)?;
        r.expect(b']', f)?;
        Ok((ts, kind))
    })
}

fn read_stats(r: &mut Reader, field: &str) -> Res<StreamStats> {
    read_struct!(
        r,
        field,
        StreamStats {
            records: Reader::uint,
            alerts: Reader::uint,
            admitted: Reader::uint,
            detections: Reader::uint,
        }
    )
}

fn read_filter(r: &mut Reader, field: &str) -> Res<FilterSnapshot> {
    // The wire flattens `stats` into the filter object.
    struct Flat {
        windows: Vec<FilterWindowSnapshot>,
        seen: u64,
        admitted: u64,
        suppressed: u64,
        last_sweep: SimTime,
    }
    let f: Flat = read_struct!(
        r,
        field,
        Flat {
            windows: |r, f| r.vec(f, read_window),
            seen: Reader::uint,
            admitted: Reader::uint,
            suppressed: Reader::uint,
            last_sweep: Reader::time,
        }
    )?;
    Ok(FilterSnapshot {
        windows: f.windows,
        stats: FilterStats {
            seen: f.seen,
            admitted: f.admitted,
            suppressed: f.suppressed,
        },
        last_sweep: f.last_sweep,
    })
}

fn read_window(r: &mut Reader, field: &str) -> Res<FilterWindowSnapshot> {
    read_struct!(
        r,
        field,
        FilterWindowSnapshot {
            source: Reader::key,
            kind: Reader::uint,
            start: Reader::time,
            admitted: Reader::uint,
        }
    )
}

fn read_keys(r: &mut Reader, field: &str) -> Res<Vec<SnapKey>> {
    r.short_vec(field, |s| &mut s.keys, Reader::key)
}

fn read_tagger(r: &mut Reader, field: &str) -> Res<TaggerSnapshot> {
    read_struct!(
        r,
        field,
        TaggerSnapshot {
            entities: |r, f| r.vec(f, read_tagger_entity),
            evicted_latches: read_keys,
            duplicates_suppressed: Reader::uint,
            entities_evicted: Reader::uint,
        }
    )
}

fn read_tagger_entity(r: &mut Reader, field: &str) -> Res<EntityStateSnapshot> {
    read_struct!(
        r,
        field,
        EntityStateSnapshot {
            entity: Reader::key,
            alpha: |r, f| r.ring(f, 0.0, Reader::f64),
            steps: Reader::uint,
            detected: Reader::bool,
            last_ts: Reader::time,
            recent: read_step_ring,
            recent_head: Reader::uint,
        }
    )
}

fn read_correlator(r: &mut Reader, field: &str) -> Res<CorrelatorSnapshot> {
    read_struct!(
        r,
        field,
        CorrelatorSnapshot {
            entities: |r, f| r.vec(f, read_correlator_entity),
            keys: |r, f| r.vec(f, read_join_key),
            campaigns: |r, f| r.vec(f, read_campaign),
            promoted_latches: read_keys,
            next_campaign: Reader::uint,
            promotions: Reader::uint,
            tagger_confirmations: Reader::uint,
            entities_evicted: Reader::uint,
        }
    )
}

fn read_correlator_entity(r: &mut Reader, field: &str) -> Res<CorrelatorEntitySnapshot> {
    read_struct!(
        r,
        field,
        CorrelatorEntitySnapshot {
            entity: Reader::key,
            campaign: Reader::uint,
            mass: Reader::f64,
            last_ts: Reader::time,
            seen: Reader::uint,
            promoted: Reader::bool,
            steps: read_step_ring,
            steps_head: Reader::uint,
        }
    )
}

fn read_join_key(r: &mut Reader, field: &str) -> Res<JoinKeySnapshot> {
    // Format 1 splits the payload into `addr` and a `palette` string.
    let (mut kind, mut id, mut addr, mut palette) = (None, None, None, None);
    let (mut slots, mut head) = (None, None);
    let v1 = r.v1.is_some();
    r.object(field, |r, key| match key {
        "kind" => r.field(&mut kind, key, link_kind),
        "id" if !v1 => r.field(&mut id, key, Reader::uint),
        "addr" if v1 => r.field(&mut addr, key, Reader::uint),
        "palette" if v1 => r.field(&mut palette, key, |r, f| {
            if r.null() {
                return Ok(None);
            }
            let name = r.string(f)?;
            Ok(Some(r.v1.as_mut().expect("format 1").position(&name)))
        }),
        "slots" => r.field(&mut slots, key, |r, f| {
            r.ring(f, None, |r, f| {
                if r.null() {
                    return Ok(None);
                }
                r.expect(b'[', f)?;
                let entity = r.key(f)?;
                r.expect(b',', f)?;
                let ts = r.time(f)?;
                r.expect(b']', f)?;
                Ok(Some((entity, ts)))
            })
        }),
        "head" => r.field(&mut head, key, Reader::uint),
        _ => Ok(false),
    })?;
    let kind = need(kind, "kind")?;
    let id = if v1 {
        let addr = need(addr, "addr")?;
        match (kind, need(palette, "palette")?) {
            (LinkKind::Palette, Some(at)) => at,
            (LinkKind::Palette, None) => {
                return Err(r.err("palette", "palette join key without payload"))
            }
            _ => addr,
        }
    } else {
        need(id, "id")?
    };
    Ok(JoinKeySnapshot {
        kind,
        id,
        slots: need(slots, "slots")?,
        head: need(head, "head")?,
    })
}

fn read_campaign(r: &mut Reader, field: &str) -> Res<CampaignSnapshot> {
    read_struct!(
        r,
        field,
        CampaignSnapshot {
            id: Reader::uint,
            members: read_keys,
            links: |r, f| {
                r.short_vec(
                    f,
                    |s| &mut s.links,
                    |r, f| {
                        r.expect(b'[', f)?;
                        let ts = r.time(f)?;
                        r.expect(b',', f)?;
                        let a = r.key(f)?;
                        r.expect(b',', f)?;
                        let b = r.key(f)?;
                        r.expect(b',', f)?;
                        let kind = link_kind(r, f)?;
                        r.expect(b']', f)?;
                        Ok(LinkSnapshot { ts, a, b, kind })
                    },
                )
            },
            best_key: Reader::opt_key,
            best_mass: Reader::f64,
            second: Reader::f64,
            support_ts: Reader::time,
            promotions: Reader::uint,
            detections: Reader::uint,
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_wire_snapshots_fail_loudly() {
        assert!(ServiceSnapshot::from_json("").is_err());
        assert!(ServiceSnapshot::from_json("{}").is_err(), "missing format");
        assert!(
            ServiceSnapshot::from_json(r#"{"format":999}"#)
                .unwrap_err()
                .contains("format 999"),
            "future format version rejected by number"
        );
    }

    /// The decoder's unescaping agrees with the `serde_json` parser on
    /// every escape form, and refuses what it refuses.
    #[test]
    fn unescape_agrees_with_the_serde_json_parser() {
        let bodies = [
            r#"plain"#,
            r#"q\"uote\\back\/slash"#,
            r#"\b\f\n\r\t"#,
            r#"\u0001\u001f\u00e9\u20AC"#,
            r#"pair \ud83d\ude00 end"#,
            r#"é\n€"#,
        ];
        for body in bodies {
            let mut out = String::from("kept:");
            unescape(body, &mut out).unwrap();
            let parsed = serde_json::from_str(&format!("\"{body}\""));
            let Ok(serde_json::Value::String(want)) = parsed else {
                panic!("{body}: {parsed:?}");
            };
            assert_eq!(out, format!("kept:{want}"), "{body}");
        }
        for bad in [
            r#"\x"#,
            r#"\u12"#,
            r#"\u12G4"#,
            r#"\ud83d"#,
            r#"\ud83d\u0041"#,
            r#"\udc00"#,
        ] {
            assert!(unescape(bad, &mut String::new()).is_err(), "{bad}");
            assert!(
                serde_json::from_str(&format!("\"{bad}\"")).is_err(),
                "{bad}"
            );
        }
    }
}
