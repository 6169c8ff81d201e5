//! String interning for the record/alert hot path.
//!
//! The symbolize → filter → detect pipeline used to round-trip heap
//! `String`s on every record: user names, hostnames, command lines, URIs.
//! At production-scale replay volume (millions of records) the allocator
//! becomes the bottleneck, not the detection math. This module provides the
//! shared interning layer every record type builds on:
//!
//! - [`Sym`] — a `Copy` 32-bit handle to an interned string. Comparing,
//!   hashing and moving a `Sym` never touches the heap.
//! - [`SymTable`] — the append-only table itself: one implementation
//!   backing *every* interning scope in the process.
//! - [`SymScope`] — a cheap clonable handle to one table: the
//!   process-wide scope ([`SymScope::global`]) or a tenant scope of the
//!   same type with a bounded lifetime.
//! - [`TenantSymbols`] — a registry of per-tenant [`SymScope`]s for the
//!   always-on service mode: each tenant's symbol universe lives in its own
//!   scope and is *freed* when the tenant is evicted, unlike the global
//!   scope whose entries live for the process.
//!
//! # Lock-free interning and resolution
//!
//! Both directions of the hot path are lock-free:
//!
//! - **`Sym → &str` (resolve)**: strings live in an *atomic
//!   pointer-chunked arena* — a fixed ladder of exponentially-sized chunks
//!   (64, 128, 256, … slots) published through one atomic length. Chunks
//!   are never reallocated, so a slot's address is stable for the table's
//!   lifetime; a writer fills the slot *before* publishing, and readers
//!   index straight into the chunk — no lock, no retry loop.
//! - **`&str → Sym` (intern hit)**: the id map is an open-addressing
//!   probe table of `AtomicU64` entries (hash tag in the upper half,
//!   `id + 1` in the lower), published through an `AtomicPtr`. A hit
//!   hashes the string with a length-seeded folded multiply per 8-byte
//!   word (every output bit depends on every byte), probes linearly from
//!   the hash's low bits, and compares strings only where the 32-bit tag
//!   matches — zero lock acquisitions, zero atomic RMWs. The index grows
//!   at 7/8 load, so a hit inspects about 1.5–2 slots on average, even
//!   for sequential names like `user00013` (a test pins the mean at ≤ 3).
//!   This used to take the table's
//!   `RwLock` read lock on *every* intern hit — an uncontended-but-real
//!   atomic RMW per record field at replay volume, and the last shared
//!   mutable structure on the per-record path before multi-core shard
//!   scaling.
//!
//! Only a **miss** — once per *distinct* string per scope — takes the
//! short append path: a `Mutex` serializes writers while the new slot is
//! filled and its index entry is published with `Release` ordering.
//! Readers racing a resize may probe a just-retired index and miss an
//! entry that is in fact present; they fall through to the append lock and
//! re-probe the current index there, so the result is still exactly one id
//! per distinct string. Retired probe tables are kept alive until the
//! table drops (their memory is bounded by a geometric series), which is
//! what lets concurrent readers probe them without any epoch scheme.
//!
//! A miss copies the string into a byte arena instead of allocating it on
//! its own: chunks double from a small first size (a string longer than a
//! chunk gets a chunk of its own), so a table of `n` strings makes
//! `O(log n)` allocations, not `n`. Chunks are allocated under the append
//! lock before the slot that points into them is published, and never
//! move or free while the table lives. Scoped tables *own* their arena
//! chunks (dropping the table frees them); the global table is simply
//! never dropped, which is what makes `Sym::as_str`'s `&'static str`
//! sound.
//!
//! [`SymUniverse`] is the exported form of a table: every string in
//! intern order, packed into one text buffer, so a snapshot of `n`
//! symbols is two allocations.
//!
//! # Naming the scope
//!
//! Every pipeline API that mints or resolves symbols takes its scope from
//! the caller: as an argument (`Entity::key(scope)`,
//! `MessageSpec::render(scope)`, `LogRecord::user(scope)`), or from the
//! object that owns one (a symbolizer, correlator or response stage
//! after `set_scope`). The global scope is one value of that argument,
//! not a fallback. What stays global-only is `Sym`'s own surface:
//! [`Sym::new`], `From<&str>`, `as_str`, `Deref`, `Display`,
//! `Debug`, `Ord` and the string comparisons all use the global table.
//! They serve tests, generators and single-site tools that work in the
//! global scope throughout.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::rng::FxHashMap;

/// A `Copy` handle to an interned string in a [`SymTable`].
///
/// `Sym` is the string type of every record field on the pipeline hot path.
/// Equality and hashing operate on the 32-bit id (two `Sym`s from the same
/// table are equal iff their strings are equal); ordering resolves and
/// compares the underlying strings so sort-based reports keep their
/// pre-interning order.
///
/// A handle means nothing without its table. The conveniences on `Sym`
/// itself (`Sym::new`, `From<&str>`, `as_str`, `Deref`, `Display`,
/// `Debug`, `Ord`, string comparisons) are global-only: they mint into
/// and resolve against the global table. A handle from a tenant scope
/// resolves through that [`SymScope`].
///
/// In debug builds each handle additionally carries the id of the table
/// that minted it, and resolving against any *other* table is a typed
/// error (panic via [`SymTable::resolve`]) instead of silently returning an
/// unrelated string. Release builds keep the handle at 32 bits and fall
/// back to bounds-checking alone.
#[derive(Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct Sym {
    id: u32,
    /// Table that minted this handle — debug builds only (see above).
    #[cfg(debug_assertions)]
    table: u32,
}

/// Table id of the process-wide [`global`] table.
const GLOBAL_TABLE_ID: u32 = 0;

#[inline]
const fn sym_with_table(id: u32, table: u32) -> Sym {
    #[cfg(not(debug_assertions))]
    let _ = table;
    Sym {
        id,
        #[cfg(debug_assertions)]
        table,
    }
}

impl Sym {
    /// The interned empty string.
    pub const EMPTY: Sym = sym_with_table(0, GLOBAL_TABLE_ID);

    /// Intern `s` in the global table (idempotent).
    #[inline]
    pub fn new(s: &str) -> Sym {
        global().intern(s)
    }

    /// The interned string. `&'static`: global-table entries live for the
    /// process.
    #[inline]
    pub fn as_str(self) -> &'static str {
        global().resolve(self)
    }

    /// Raw table id (stable within a process; assigned in intern order).
    #[inline]
    pub fn id(self) -> u32 {
        self.id
    }

    /// Rebuild a handle from a raw id previously obtained via [`Sym::id`]
    /// in this process. The handle is scoped to the **global** table (raw
    /// ids of scoped tables round-trip through
    /// [`SymTable::sym_from_id`] instead); resolving a fabricated id
    /// panics.
    #[inline]
    pub fn from_id(id: u32) -> Sym {
        sym_with_table(id, GLOBAL_TABLE_ID)
    }

    /// Whether this symbol is the empty string.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.id == 0
    }
}

impl Default for Sym {
    fn default() -> Self {
        Sym::EMPTY
    }
}

// Equality/hashing are over the 32-bit id alone — the hot-path property
// (neither ever resolves the table). The debug-only minting-table tag is
// deliberately excluded: it is a diagnostic, not part of identity, and
// including it would make debug and release builds disagree.
impl PartialEq for Sym {
    #[inline]
    fn eq(&self, other: &Sym) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl std::hash::Hash for Sym {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl Deref for Sym {
    type Target = str;

    #[inline]
    fn deref(&self) -> &'static str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// NOTE: deliberately NO `Borrow<str>` impl. `Sym`'s `Hash` is over the
// 32-bit id (the hot-path property: hashing never resolves the table),
// while `str` hashes its bytes — the `Borrow` contract requires the two
// to agree, and implementing it would make `HashMap<Sym, _>::get::<str>`
// compile and then silently miss every key. The consistency proptest in
// `tests/intern_consistency.rs` pins the invariants that *do* hold
// (`Eq`/`Ord`/hash agree across `Sym`, `&str` and `String` views).

impl From<&str> for Sym {
    #[inline]
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

impl From<&String> for Sym {
    #[inline]
    fn from(s: &String) -> Sym {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    #[inline]
    fn from(s: String) -> Sym {
        Sym::new(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Typed resolution failure — see [`SymTable::try_resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymResolveError {
    /// The id is past the table's published length: the handle was minted
    /// by a different (larger) table, fabricated, or deserialized against
    /// the wrong universe.
    OutOfRange { sym: u32, len: u32 },
    /// Debug builds only: the handle's minting-table tag does not match
    /// the table it is being resolved against. This is the *silent* form
    /// of cross-table misuse — the id is in range, so release builds would
    /// return an unrelated string.
    WrongTable {
        sym: u32,
        minted_by: u32,
        resolved_against: u32,
    },
}

impl fmt::Display for SymResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymResolveError::OutOfRange { sym, len } => {
                write!(f, "Sym({sym}) was not minted by this SymTable (len {len})")
            }
            SymResolveError::WrongTable {
                sym,
                minted_by,
                resolved_against,
            } => write!(
                f,
                "Sym({sym}) minted by table {minted_by} resolved against table {resolved_against}"
            ),
        }
    }
}

impl std::error::Error for SymResolveError {}

/// One published string: a pointer into the table's arena (dangling for
/// the empty string) and its length.
#[derive(Clone, Copy)]
struct Slot {
    ptr: *const u8,
    len: usize,
}

/// Size of the first arena chunk; each later chunk doubles the last.
const ARENA_CHUNK0: usize = 512;

/// The byte arena interned strings are copied into, behind the append
/// lock. Chunks are raw parts of `Box<[u8]>`s, freed only when the table
/// drops, so a published slot's bytes never move.
struct Arena {
    /// Every chunk allocated so far: `(base, capacity)`.
    chunks: Vec<(*mut u8, usize)>,
    /// Next free byte of the current chunk, and the bytes left after it.
    cursor: *mut u8,
    left: usize,
    /// Capacity of the next regular chunk.
    next: usize,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            chunks: Vec::new(),
            cursor: std::ptr::null_mut(),
            left: 0,
            next: ARENA_CHUNK0,
        }
    }

    fn alloc_chunk(&mut self, cap: usize) -> *mut u8 {
        let base = Box::into_raw(vec![0u8; cap].into_boxed_slice()) as *mut u8;
        self.chunks.push((base, cap));
        base
    }

    /// Copy `s` into the arena and return its stable address.
    fn copy(&mut self, s: &str) -> *const u8 {
        let len = s.len();
        if len == 0 {
            return std::ptr::NonNull::<u8>::dangling().as_ptr();
        }
        let dst = if len > self.next {
            // Too long for a regular chunk: it gets one of its own, and the
            // current chunk keeps its free tail.
            self.alloc_chunk(len)
        } else {
            if len > self.left {
                let cap = self.next;
                self.next *= 2;
                self.cursor = self.alloc_chunk(cap);
                self.left = cap;
            }
            let dst = self.cursor;
            // SAFETY: `len ≤ left` (a fresh chunk holds `next ≥ len`
            // bytes), so the cursor stays inside its chunk.
            self.cursor = unsafe { self.cursor.add(len) };
            self.left -= len;
            dst
        };
        // SAFETY: `dst` has `len` unused bytes no published slot points at.
        unsafe { std::ptr::copy_nonoverlapping(s.as_ptr(), dst, len) };
        dst
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for &(base, cap) in &self.chunks {
            // SAFETY: allocated in `alloc_chunk` via `Box::into_raw` with
            // this exact length; freed once, here.
            unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(base, cap))) };
        }
    }
}

/// First chunk holds `1 << CHUNK0_BITS` slots; chunk `k` holds twice as
/// many as chunk `k − 1`. 27 chunks cover every `u32` id.
const CHUNK0_BITS: u32 = 6;
const NUM_CHUNKS: usize = 27;

/// Map an id to its (chunk, offset) in the exponential ladder.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let adjusted = id as u64 + (1 << CHUNK0_BITS);
    let chunk = (63 - adjusted.leading_zeros()) - CHUNK0_BITS;
    let offset = adjusted as usize - ((1usize << CHUNK0_BITS) << chunk);
    (chunk as usize, offset)
}

#[inline]
fn chunk_capacity(chunk: usize) -> usize {
    (1usize << CHUNK0_BITS) << chunk
}

/// Multiplier constants of [`hash_str`]: digits of π, as rustc-hash 2 and
/// foldhash use.
const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;
const HASH_WORD: u64 = 0x1319_8a2e_0370_7344;
const HASH_FINAL: u64 = 0xa409_3822_299f_31d0;

/// The 64×64→128-bit product of `x` and `y`, high half folded onto the
/// low half: every output bit depends on every input bit.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = (x as u128) * (y as u128);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Hash used by the id index. The full 64 bits are split: the low half
/// picks the probe start, the high half is the in-entry tag that screens
/// out almost every non-matching slot before the string compare.
///
/// Both halves must depend on every input byte. FxHash's single
/// multiply leaves its low bits blind to the high bytes of each word,
/// which piles sequential names (`user00013`, `compute-7`) into probe
/// runs hundreds of slots long. Here the state is seeded
/// with the length, and each 8-byte word, the zero-padded tail included,
/// is folded in with a full-width multiply. A final fold multiplies the
/// state by a rotation of itself: a constant multiplier alone leaves
/// names that differ in one digit on a lattice of nearby probe starts.
#[inline]
fn hash_str(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = HASH_SEED ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = folded_multiply(h ^ w, HASH_WORD);
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    h = folded_multiply(h ^ u64::from_le_bytes(tail), HASH_WORD);
    folded_multiply(h, HASH_FINAL ^ h.rotate_left(32))
}

/// Initial id-index capacity (entries). Power of two.
const INDEX_INITIAL_CAP: usize = 64;

/// The lock-free `&str → id` map: an open-addressing probe table of
/// `(tag, id + 1)` entries. Entries go empty → occupied exactly once and
/// are never mutated afterwards, so readers need no synchronization beyond
/// the `Acquire` entry load that also publishes the id's slot. Grown
/// copies are published through the owning table's `AtomicPtr`; stale
/// copies stay readable (a reader may miss a fresh entry and fall through
/// to the append lock, never observe a wrong one).
struct IdIndex {
    mask: usize,
    entries: Box<[AtomicU64]>,
    /// Successful lookups and the slots they inspected, for the
    /// probe-length gate in the tests.
    #[cfg(test)]
    hits: AtomicU64,
    #[cfg(test)]
    hit_probes: AtomicU64,
}

impl IdIndex {
    fn with_capacity(cap: usize) -> Box<IdIndex> {
        debug_assert!(cap.is_power_of_two());
        let entries: Box<[AtomicU64]> = (0..cap).map(|_| AtomicU64::new(0)).collect();
        Box::new(IdIndex {
            mask: cap - 1,
            entries,
            #[cfg(test)]
            hits: AtomicU64::new(0),
            #[cfg(test)]
            hit_probes: AtomicU64::new(0),
        })
    }

    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Probe for `s`. Lock-free; sound against concurrent appends because
    /// an entry is stored (`Release`) only after its slot string is
    /// written and the table length published.
    #[inline]
    fn lookup(&self, hash: u64, s: &str, table: &SymTable) -> Option<u32> {
        let tag = hash >> 32;
        let start = (hash as usize) & self.mask;
        let mut i = start;
        loop {
            let e = self.entries[i].load(Ordering::Acquire);
            if e == 0 {
                return None;
            }
            if e >> 32 == tag {
                let id = (e as u32) - 1;
                // SAFETY: a published entry happens-after its slot write.
                if unsafe { table.read_slot(id) } == s {
                    #[cfg(test)]
                    {
                        let probes = (i.wrapping_sub(start) & self.mask) as u64 + 1;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.hit_probes.fetch_add(probes, Ordering::Relaxed);
                    }
                    return Some(id);
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Insert `(hash, id)`. Caller must hold the append lock (single
    /// writer) and have published the id's slot already.
    fn insert(&self, hash: u64, id: u32) {
        let tag = hash >> 32;
        let mut i = (hash as usize) & self.mask;
        loop {
            if self.entries[i].load(Ordering::Relaxed) == 0 {
                self.entries[i].store((tag << 32) | (id as u64 + 1), Ordering::Release);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Cold state behind the append mutex.
struct AppendState {
    /// Probe tables retired by growth, kept alive for concurrent readers
    /// until the table drops. Geometric sizes: total retired memory is
    /// bounded by the live index's size.
    retired: Vec<*mut IdIndex>,
    /// Backing bytes of every interned string.
    arena: Arena,
}

/// An append-only string table: `&str → Sym` on intern, `Sym → &str` on
/// resolve — **both lock-free on the hot path** (see the module docs for
/// the publication protocol). A miss takes the short append path once per
/// distinct string.
///
/// This one type backs every interning scope in the process: the
/// [`global`] table and every tenant table are the same implementation,
/// differing only in ownership ([`SymScope`]). **Handles are
/// table-scoped.** A [`Sym`] minted by [`SymTable::intern`] is an index
/// into *that* table and resolves through it; `Sym`'s own conveniences
/// are global-only (see [`Sym`]). Resolving a handle against the wrong
/// table is caught: debug builds tag each handle with its minting table
/// and panic on any mismatch, release builds bounds-check the id (see
/// [`SymTable::try_resolve`] for the non-panicking form). Scoped tables
/// ([`TenantSymbols`]) own their string arena, so evicting a dead tenant
/// actually returns its symbol memory — the global table's entries live
/// for the process instead.
pub struct SymTable {
    /// Process-unique table id (0 is the global table).
    table_id: u32,
    /// Published length: slots `0..len` are initialized and immutable.
    len: AtomicU32,
    /// Total bytes of interned string payload (memory accounting).
    bytes: AtomicUsize,
    chunks: [AtomicPtr<MaybeUninit<Slot>>; NUM_CHUNKS],
    /// The live `&str → id` probe table (lock-free readers).
    index: AtomicPtr<IdIndex>,
    /// Serializes the miss/append path; guards index growth.
    append: Mutex<AppendState>,
}

// SAFETY: the raw chunk/slot/index pointers are only written while holding
// the append lock and only read after an `Acquire` load publishes them
// (index entries for slots, the atomic index pointer for probe tables).
// The arena's bytes are written under the same lock before the slot that
// points at them, so the slot's publication publishes them too; the
// arena's own pointers are touched only under the lock. All published
// data is immutable thereafter, and nothing is freed before the table
// drops.
unsafe impl Send for SymTable {}
unsafe impl Sync for SymTable {}

/// Ids for tables other than the global one (0).
static NEXT_TABLE_ID: AtomicU32 = AtomicU32::new(1);

impl SymTable {
    /// A fresh scoped table with `""` pre-interned as id 0.
    pub fn new() -> SymTable {
        SymTable::with_table_id(NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed))
    }

    fn with_table_id(table_id: u32) -> SymTable {
        let index = Box::into_raw(IdIndex::with_capacity(INDEX_INITIAL_CAP));
        let table = SymTable {
            table_id,
            len: AtomicU32::new(0),
            bytes: AtomicUsize::new(0),
            chunks: [const { AtomicPtr::new(std::ptr::null_mut()) }; NUM_CHUNKS],
            index: AtomicPtr::new(index),
            append: Mutex::new(AppendState {
                retired: Vec::new(),
                arena: Arena::new(),
            }),
        };
        table.intern("");
        table
    }

    /// This table's process-unique id (0 is the [`global`] table).
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    #[inline]
    fn tag(&self, id: u32) -> Sym {
        sym_with_table(id, self.table_id)
    }

    /// Intern a string, returning its stable handle (scoped to this
    /// table). **Lock-free on a hit**; a miss (once per distinct string)
    /// takes the append lock.
    #[inline]
    pub fn intern(&self, s: &str) -> Sym {
        let hash = hash_str(s);
        // SAFETY: the index pointer is always a live IdIndex (retired
        // copies are freed only on drop).
        let index = unsafe { &*self.index.load(Ordering::Acquire) };
        if let Some(id) = index.lookup(hash, s, self) {
            return self.tag(id);
        }
        self.intern_slow(hash, s)
    }

    /// The append path: serialize writers, re-probe (the miss may have
    /// raced an append or a resize), then publish slot + index entry.
    #[cold]
    fn intern_slow(&self, hash: u64, s: &str) -> Sym {
        let mut state = self.append.lock().expect("sym table");
        // Re-probe under the lock against the *current* index: a racing
        // writer may have interned `s`, or a resize may have moved it past
        // the copy we probed lock-free.
        let mut index = unsafe { &*self.index.load(Ordering::Relaxed) };
        if let Some(id) = index.lookup(hash, s, self) {
            return self.tag(id);
        }
        let id = self.len.load(Ordering::Relaxed);
        assert!(id != u32::MAX, "symbol universe exceeds u32");
        // The arena chunk exists before the slot that points into it is
        // published, and stays put until the table drops.
        let slot = Slot {
            ptr: state.arena.copy(s),
            len: s.len(),
        };
        // SAFETY: we hold the append lock, so we are the only writer; slot
        // `id == len` is not yet visible to any reader.
        unsafe {
            self.write_slot(id, slot);
        }
        self.bytes.fetch_add(slot.len, Ordering::Relaxed);
        // Publish the arena length first: an index entry must never point
        // past it.
        self.len.store(id + 1, Ordering::Release);
        // Grow at 7/8 load so probes stay short and never cycle.
        if (id as usize + 1) * 8 >= index.capacity() * 7 {
            index = self.grow_index(&mut state, index.capacity() * 2);
        }
        index.insert(hash, id);
        self.tag(id)
    }

    /// Build a doubled probe table holding every published id, publish it,
    /// and retire the old copy (freed on drop; concurrent readers may
    /// still be probing it).
    fn grow_index(&self, state: &mut AppendState, new_cap: usize) -> &IdIndex {
        let fresh = IdIndex::with_capacity(new_cap);
        let len = self.len.load(Ordering::Relaxed);
        for id in 0..len {
            // SAFETY: ids below the published length are initialized.
            let s = unsafe { self.read_slot(id) };
            fresh.insert(hash_str(s), id);
        }
        let fresh = Box::into_raw(fresh);
        let old = self.index.swap(fresh, Ordering::Release);
        state.retired.push(old);
        // SAFETY: just published; freed only on drop.
        unsafe { &*fresh }
    }

    /// Write `slot` at `id`, allocating the containing chunk on first use.
    ///
    /// # Safety
    /// Caller must hold the append lock (single writer) and `id` must
    /// equal the unpublished length.
    unsafe fn write_slot(&self, id: u32, slot: Slot) {
        let (chunk, offset) = locate(id);
        let mut base = self.chunks[chunk].load(Ordering::Acquire);
        if base.is_null() {
            let fresh: Box<[MaybeUninit<Slot>]> = Box::new_uninit_slice(chunk_capacity(chunk));
            base = Box::into_raw(fresh) as *mut MaybeUninit<Slot>;
            self.chunks[chunk].store(base, Ordering::Release);
        }
        unsafe { (*base.add(offset)).write(slot) };
    }

    /// Read the published slot at `id`.
    ///
    /// # Safety
    /// `id` must be below the published length (the slot is then
    /// initialized and immutable).
    #[inline]
    unsafe fn read_slot(&self, id: u32) -> &str {
        let (chunk, offset) = locate(id);
        let base = self.chunks[chunk].load(Ordering::Acquire);
        unsafe {
            let slot = (*base.add(offset)).assume_init_ref();
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(slot.ptr, slot.len))
        }
    }

    /// Resolve a handle minted by **this** table (see the type-level note
    /// on table scoping). Lock-free. Panics on a foreign handle; use
    /// [`SymTable::try_resolve`] for the non-panicking form.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        match self.try_resolve(sym) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Resolve a handle, reporting foreign handles as a typed error
    /// instead of panicking. Release builds detect ids past this table's
    /// length; debug builds additionally reject in-range handles minted
    /// by a different table (the silently-wrong-string case).
    #[inline]
    pub fn try_resolve(&self, sym: Sym) -> Result<&str, SymResolveError> {
        #[cfg(debug_assertions)]
        if sym.table != self.table_id {
            return Err(SymResolveError::WrongTable {
                sym: sym.id,
                minted_by: sym.table,
                resolved_against: self.table_id,
            });
        }
        let len = self.len.load(Ordering::Acquire);
        if sym.id >= len {
            return Err(SymResolveError::OutOfRange { sym: sym.id, len });
        }
        // SAFETY: `sym.id < len` was published with Release ordering.
        Ok(unsafe { self.read_slot(sym.id) })
    }

    /// Rebuild a handle scoped to **this** table from a raw id previously
    /// obtained via [`Sym::id`] on one of this table's handles.
    #[inline]
    pub fn sym_from_id(&self, id: u32) -> Sym {
        self.tag(id)
    }

    /// Number of interned strings (including the empty string). Lock-free.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        false // "" is always present
    }

    /// Total bytes of interned string payload — the figure freed when a
    /// scoped table is evicted.
    pub fn payload_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Every interned string in intern order, so a string's position is
    /// its id — lets a report, artifact or service snapshot embed the
    /// symbol universe it references. Lock-free; concurrent interns past
    /// the observed length are not included. Two allocations, sized from
    /// [`len`](SymTable::len) and [`payload_bytes`](SymTable::payload_bytes).
    pub fn snapshot(&self) -> SymUniverse {
        let len = self.len.load(Ordering::Acquire);
        // Every id below `len` has its bytes counted already: the count is
        // bumped before the length is published.
        let mut universe = SymUniverse::with_capacity(len as usize, self.payload_bytes());
        for id in 0..len {
            // SAFETY: every id below the published length is initialized.
            universe.push(unsafe { self.read_slot(id) });
        }
        universe
    }
}

impl Drop for SymTable {
    fn drop(&mut self) {
        // The arena's chunks are freed when the append state drops.
        for (chunk, ptr) in self.chunks.iter().enumerate() {
            let base = ptr.load(Ordering::Acquire);
            if !base.is_null() {
                // SAFETY: allocated in `write_slot` via `Box::into_raw`
                // with this exact capacity.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        base,
                        chunk_capacity(chunk),
                    )));
                }
            }
        }
        // The live probe table plus every retired copy.
        let index = self.index.load(Ordering::Acquire);
        // SAFETY: allocated via Box::into_raw; no readers can outlive the
        // table (resolution borrows it).
        unsafe { drop(Box::from_raw(index)) };
        for retired in self.append.get_mut().expect("sym table").retired.drain(..) {
            // SAFETY: as above — retired copies are never freed earlier.
            unsafe { drop(Box::from_raw(retired)) };
        }
    }
}

impl Default for SymTable {
    fn default() -> Self {
        SymTable::new()
    }
}

fn global_scope_arc() -> &'static Arc<SymTable> {
    static TABLE: OnceLock<Arc<SymTable>> = OnceLock::new();
    TABLE.get_or_init(|| Arc::new(SymTable::with_table_id(GLOBAL_TABLE_ID)))
}

/// The process-wide table behind [`Sym`] — the default [`SymScope`].
pub fn global() -> &'static SymTable {
    global_scope_arc()
}

/// A clonable handle to one interning scope — the unified way every layer
/// names *which* symbol universe it mints into and resolves against.
///
/// The process-global table and per-tenant tables are the **same
/// implementation type** ([`SymTable`]); a `SymScope` is just shared
/// ownership of one of them. [`SymScope::global`] is the scope `Sym`'s
/// own global-only conveniences use; [`TenantSymbols::scope`] hands out
/// tenant scopes whose strings are freed when the last handle goes.
/// There is no default scope: a caller names the global scope the same
/// way it names a tenant's. Cloning is one `Arc` bump; interning and resolving through a
/// scope are exactly as lock-free as the underlying table.
///
/// Holding a `SymScope` keeps its table alive: a reader resolving through
/// a clone of an evicted tenant's scope still sees valid strings — the
/// memory is returned when the last clone drops, never under a live
/// reader.
#[derive(Clone)]
pub struct SymScope {
    table: Arc<SymTable>,
}

impl SymScope {
    /// The process-wide default scope (table id 0, entries live forever).
    #[inline]
    pub fn global() -> SymScope {
        SymScope {
            table: Arc::clone(global_scope_arc()),
        }
    }

    /// A fresh private scope with its own table (for tests, tools, and
    /// registries like [`TenantSymbols`]).
    pub fn fresh() -> SymScope {
        SymScope {
            table: Arc::new(SymTable::new()),
        }
    }

    /// Whether this is the process-global scope.
    #[inline]
    pub fn is_global(&self) -> bool {
        self.table.table_id == GLOBAL_TABLE_ID
    }

    /// The underlying table.
    #[inline]
    pub fn table(&self) -> &SymTable {
        &self.table
    }

    /// This scope's process-unique table id (0 is the global scope).
    /// Table ids are never reused, so the id also distinguishes a
    /// re-created tenant scope from the evicted one it replaced — which is
    /// what makes it a sound cache key for per-scope memoization.
    #[inline]
    pub fn scope_id(&self) -> u32 {
        self.table.table_id
    }

    /// Intern `s` in this scope. Lock-free on a hit.
    #[inline]
    pub fn sym(&self, s: &str) -> Sym {
        self.table.intern(s)
    }

    /// Resolve a handle minted by this scope. Lock-free. The borrow ties
    /// the string to the scope handle, so an evicted tenant's strings
    /// outlive every outstanding reader.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.table.resolve(sym)
    }

    /// Non-panicking [`SymScope::resolve`].
    #[inline]
    pub fn try_resolve(&self, sym: Sym) -> Result<&str, SymResolveError> {
        self.table.try_resolve(sym)
    }

    /// Rebuild a handle scoped to this table from a raw id.
    #[inline]
    pub fn sym_from_id(&self, id: u32) -> Sym {
        self.table.sym_from_id(id)
    }

    /// Whether two handles name the same underlying table.
    pub fn ptr_eq(&self, other: &SymScope) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// Number of interned strings in this scope.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        false // "" is always present
    }

    /// Total bytes of interned string payload in this scope.
    pub fn payload_bytes(&self) -> usize {
        self.table.payload_bytes()
    }

    /// This scope's strings in intern order (a string's position is its
    /// id).
    pub fn snapshot(&self) -> SymUniverse {
        self.table.snapshot()
    }
}

/// A symbol universe: strings in order, packed into one text buffer plus
/// one end offset per string. The exported form of a [`SymTable`]
/// ([`SymTable::snapshot`]) and the `sym_universe` of a service snapshot,
/// where a string's position is its id in the exporting scope. Holding
/// `n` strings costs two allocations, not `n + 1`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SymUniverse {
    text: String,
    /// `ends[i]` is where string `i` ends in `text`; it starts where
    /// string `i - 1` ends (string 0 at 0).
    ends: Vec<usize>,
}

impl SymUniverse {
    /// An empty universe with room for `symbols` strings of `bytes` text
    /// in total.
    pub fn with_capacity(symbols: usize, bytes: usize) -> SymUniverse {
        SymUniverse {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(symbols),
        }
    }

    /// Drop unused capacity.
    pub fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.text.shrink_to_fit();
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string at position `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.text[start..end])
    }

    /// The strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.text[start..end];
            start = end;
            s
        })
    }

    /// Append `s`.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    /// Append one string that `write` appends to the text buffer (it must
    /// only append), such as a decoder unescaping a string token in place.
    /// If `write` fails, the universe is left as it was.
    pub fn push_with<E>(
        &mut self,
        write: impl FnOnce(&mut String) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.text.len();
        match write(&mut self.text) {
            Ok(()) => {
                self.ends.push(self.text.len());
                Ok(())
            }
            Err(e) => {
                self.text.truncate(start);
                Err(e)
            }
        }
    }
}

impl<S: AsRef<str>> FromIterator<S> for SymUniverse {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> SymUniverse {
        let mut universe = SymUniverse::default();
        for s in iter {
            universe.push(s.as_ref());
        }
        universe
    }
}

impl fmt::Debug for SymUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl std::ops::Index<usize> for SymUniverse {
    type Output = UniverseStr;

    /// The string at position `i`; panics past the end.
    fn index(&self, i: usize) -> &UniverseStr {
        match self.get(i) {
            Some(s) => UniverseStr::new(s),
            None => panic!("position {i} past a {}-symbol universe", self.len()),
        }
    }
}

/// One string of a [`SymUniverse`], as indexing returns it: a `str`
/// (through `Deref`) that also compares with `&str`, so
/// `universe[i] == "name"` reads as it would on a `Vec<String>`.
#[repr(transparent)]
#[derive(PartialEq, Eq)]
pub struct UniverseStr(str);

impl UniverseStr {
    fn new(s: &str) -> &UniverseStr {
        // SAFETY: `UniverseStr` is a `repr(transparent)` wrapper of `str`.
        unsafe { &*(s as *const str as *const UniverseStr) }
    }
}

impl Deref for UniverseStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for UniverseStr {
    fn eq(&self, other: &&str) -> bool {
        &self.0 == *other
    }
}

impl fmt::Debug for UniverseStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// Translation from the symbol positions a snapshot stores to ids in the
/// scope it is restored into. A snapshot names symbols by their position
/// in its own universe (the exporting scope's strings in intern order);
/// restoring interns that universe into the target scope, in order, and
/// looks every stored position up here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMap {
    ids: Vec<u32>,
}

impl SymMap {
    /// Intern `universe` into `scope` in order and map each position to
    /// the id it got. Into a fresh scope that interned the same prefix,
    /// every string keeps its position and the map is the identity.
    pub fn replay(scope: &SymScope, universe: &SymUniverse) -> SymMap {
        SymMap {
            ids: universe.iter().map(|s| scope.sym(s).id()).collect(),
        }
    }

    /// The id position `pos` maps to, or `None` past the universe.
    #[inline]
    pub fn id(&self, pos: u32) -> Option<u32> {
        self.ids.get(pos as usize).copied()
    }

    /// Number of positions (the universe's length).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl PartialEq for SymScope {
    fn eq(&self, other: &SymScope) -> bool {
        self.table.table_id == other.table.table_id
    }
}

impl Eq for SymScope {}

impl fmt::Debug for SymScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymScope")
            .field("table_id", &self.table.table_id)
            .field("len", &self.table.len())
            .finish()
    }
}

/// A tenant of the always-on service mode — an isolated ingest scope with
/// its own detector state and symbol universe.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Per-tenant [`SymScope`]s with eviction.
///
/// The global scope deliberately never frees: its `&'static str` contract
/// is what makes `Sym` a zero-cost string on the hot path. A long-lived
/// multi-tenant service cannot afford that for *tenant* universes — a
/// tenant that stops sending traffic must not pin its user names and
/// command palettes forever. `TenantSymbols` scopes each tenant to its own
/// table (the same [`SymTable`] implementation as the global scope, not a
/// parallel one); [`evict`](TenantSymbols::evict) drops the registry's
/// handle, and the table's memory is returned as soon as the last
/// outstanding [`SymScope`] clone (e.g. a snapshot in progress) is
/// released.
#[derive(Default)]
pub struct TenantSymbols {
    scopes: Mutex<FxHashMap<u32, SymScope>>,
    /// Tables evicted so far (monotonic; for reports).
    evicted: AtomicU64,
}

impl TenantSymbols {
    pub fn new() -> TenantSymbols {
        TenantSymbols::default()
    }

    /// The tenant's scope, created on first use.
    pub fn scope(&self, tenant: TenantId) -> SymScope {
        self.scopes
            .lock()
            .expect("tenant registry")
            .entry(tenant.0)
            .or_insert_with(SymScope::fresh)
            .clone()
    }

    /// Register `scope` as the tenant's universe, replacing any earlier
    /// one — for a session built on a scope before it is known to be kept.
    pub fn insert(&self, tenant: TenantId, scope: SymScope) {
        self.scopes
            .lock()
            .expect("tenant registry")
            .insert(tenant.0, scope);
    }

    /// The tenant's scope, if it exists.
    pub fn get(&self, tenant: TenantId) -> Option<SymScope> {
        self.scopes
            .lock()
            .expect("tenant registry")
            .get(&tenant.0)
            .cloned()
    }

    /// Drop a dead tenant's symbol universe. Returns whether the tenant
    /// existed. Memory is freed when the last outstanding scope handle
    /// goes.
    pub fn evict(&self, tenant: TenantId) -> bool {
        let existed = self
            .scopes
            .lock()
            .expect("tenant registry")
            .remove(&tenant.0)
            .is_some();
        if existed {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Number of live tenant universes.
    pub fn len(&self) -> usize {
        self.scopes.lock().expect("tenant registry").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tables evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Live tenants, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self
            .scopes
            .lock()
            .expect("tenant registry")
            .keys()
            .map(|&id| TenantId(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Total interned payload bytes across live tenants.
    pub fn payload_bytes(&self) -> usize {
        self.scopes
            .lock()
            .expect("tenant registry")
            .values()
            .map(|t| t.payload_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_is_idempotent_and_copy() {
        let a = Sym::new("alice");
        let b = Sym::new("alice");
        let c = Sym::new("bob");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alice");
        let copied = a; // Copy, not move
        assert_eq!(a, copied);
    }

    #[test]
    fn empty_sym_is_default() {
        assert_eq!(Sym::default(), Sym::EMPTY);
        assert_eq!(Sym::new(""), Sym::EMPTY);
        assert!(Sym::EMPTY.is_empty());
        assert!(!Sym::new("x").is_empty());
    }

    #[test]
    fn string_like_ergonomics() {
        let s = Sym::new("wget http://64.215.4.5/abs.c");
        // Deref gives str methods.
        assert!(s.starts_with("wget"));
        assert!(s.contains("abs.c"));
        // Mixed-type comparisons in both directions.
        assert!(s == "wget http://64.215.4.5/abs.c");
        assert!("wget http://64.215.4.5/abs.c" == s);
        let owned = String::from("wget http://64.215.4.5/abs.c");
        assert!(s == owned);
        assert!(owned == s);
        assert_eq!(format!("{s}"), "wget http://64.215.4.5/abs.c");
        assert_eq!(format!("{s:?}"), "\"wget http://64.215.4.5/abs.c\"");
    }

    #[test]
    fn ordering_follows_strings_not_ids() {
        // Intern in reverse lexical order: ids disagree with the strings.
        let z = Sym::new("zzz-order-test");
        let a = Sym::new("aaa-order-test");
        assert!(a < z, "Ord must compare strings");
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn from_impls_intern() {
        let owned: Sym = String::from("owned-str").into();
        let borrowed: Sym = "owned-str".into();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn private_table_snapshot() {
        let t = SymTable::new();
        let a = t.intern("one");
        let b = t.intern("two");
        assert_eq!(t.intern("one"), a);
        assert_eq!(t.resolve(b), "two");
        assert_eq!(t.len(), 3);
        assert_eq!(t.snapshot(), SymUniverse::from_iter(["", "one", "two"]));
    }

    #[test]
    fn universe_packs_strings_in_order() {
        let mut u: SymUniverse = ["", "alpha", "", "βeta"].into_iter().collect();
        assert_eq!(u.len(), 4);
        assert_eq!(u.get(0), Some(""));
        assert_eq!(u.get(1), Some("alpha"));
        assert_eq!(u.get(3), Some("βeta"));
        assert_eq!(u.get(4), None);
        let refused = u.push_with(|text| {
            text.push_str("half-written");
            Err(())
        });
        assert_eq!(refused, Err(()));
        assert_eq!(u.len(), 4, "a failed push leaves no string");
        u.push_with::<()>(|text| {
            text.push_str("gam");
            text.push('m');
            Ok(())
        })
        .unwrap();
        u.push("a");
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            ["", "alpha", "", "βeta", "gamm", "a"]
        );
        assert_ne!(
            u,
            ["", "alpha", "", "βeta", "gam", "ma"].into_iter().collect()
        );
    }

    #[test]
    fn arena_strings_survive_chunk_boundaries_and_long_strings() {
        // Short strings fill chunks past several doublings; strings longer
        // than the current chunk get chunks of their own in between.
        let t = SymTable::new();
        let strings: Vec<String> = (0..3_000)
            .map(|i| match i % 500 {
                0 => "L".repeat(ARENA_CHUNK0 * (1 + i / 500)),
                _ => format!("arena-{i}"),
            })
            .collect();
        let syms: Vec<Sym> = strings.iter().map(|s| t.intern(s)).collect();
        for (s, &sym) in strings.iter().zip(&syms) {
            assert_eq!(t.resolve(sym), s);
            assert_eq!(t.intern(s), sym);
        }
        let bytes: usize = strings.iter().map(String::len).sum();
        assert_eq!(t.payload_bytes(), bytes, "payload counts string bytes");
        let universe = t.snapshot();
        assert_eq!(universe.len(), 1 + strings.len());
        assert!(universe
            .iter()
            .skip(1)
            .eq(strings.iter().map(String::as_str)));
    }

    #[test]
    fn id_assignment_matches_locked_reference_model() {
        // The lock-free probe table must assign exactly the ids the old
        // RwLock<HashMap> implementation would have: first-come,
        // dense, idempotent.
        let t = SymTable::new();
        let mut reference: HashMap<String, u32> = HashMap::new();
        reference.insert(String::new(), 0);
        let mut next = 1u32;
        // A workload with heavy repeats and enough distinct strings to
        // force several index growths (64 → 128 → … entries), interleaving
        // the generator's sequential user names with a second family.
        for round in 0..3 {
            for i in 0..600 {
                let s = if i % 2 == 0 {
                    format!("user{:05}", i % 400)
                } else {
                    format!("ref-model-{}", i % 400)
                };
                let expect = *reference.entry(s.clone()).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                let got = t.intern(&s);
                assert_eq!(got.id(), expect, "round {round}, string {s}");
                assert_eq!(t.resolve(got), s);
            }
        }
        assert_eq!(t.len(), 401);
    }

    /// Mean slots inspected per successful lookup when re-interning
    /// `keys` into a table that holds exactly them.
    fn mean_hit_probes(keys: &[String]) -> f64 {
        let t = SymTable::new();
        for k in keys {
            t.intern(k);
        }
        // SAFETY: the live index is freed only when `t` drops.
        let index = unsafe { &*t.index.load(Ordering::Acquire) };
        let hits = index.hits.load(Ordering::Relaxed);
        let probes = index.hit_probes.load(Ordering::Relaxed);
        for k in keys {
            t.intern(k);
        }
        let hits = index.hits.load(Ordering::Relaxed) - hits;
        let probes = index.hit_probes.load(Ordering::Relaxed) - probes;
        assert_eq!(hits, keys.len() as u64, "every re-intern is a hit");
        probes as f64 / hits as f64
    }

    #[test]
    fn sequential_names_keep_probe_runs_short() {
        // The workload's names differ only in a few digits. A hash whose
        // low bits ignore some input bytes clusters them into one probe
        // run (a mean of hundreds of slots per hit); a well-mixed hash
        // stays near the linear-probing expectation at this load.
        let families: [(&str, Vec<String>); 3] = [
            ("user", (0..20_000).map(|i| format!("user{i:05}")).collect()),
            (
                "fresh-miss",
                (0..4_096).map(|i| format!("fresh-miss-{i}")).collect(),
            ),
            ("compute", (0..64).map(|h| format!("compute-{h}")).collect()),
        ];
        for (family, keys) in &families {
            let mean = mean_hit_probes(keys);
            assert!(mean <= 3.0, "{family}: {mean:.2} probes per hit");
        }
    }

    #[test]
    fn concurrent_intern_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for j in 0..64 {
                        ids.push(Sym::new(&format!("concurrent-{}", (i + j) % 16)).id());
                    }
                    ids
                })
            })
            .collect();
        let all: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread resolved each distinct string to the same id.
        for j in 0..16 {
            let expect = Sym::new(&format!("concurrent-{j}")).id();
            for ids in &all {
                assert!(ids.contains(&expect));
            }
        }
    }

    #[test]
    fn concurrent_overlapping_palettes_yield_one_id_per_string() {
        // The satellite stress test: N threads intern overlapping
        // palettes into one scope; every distinct string must get exactly
        // one id and every resolution must return the exact bytes
        // (no torn publication), across many index growths.
        let scope = SymScope::fresh();
        let threads = 8;
        let palette = 900; // overlapping window per thread
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let scope = scope.clone();
                std::thread::spawn(move || {
                    let mut seen: Vec<(String, u32)> = Vec::new();
                    for j in 0..palette {
                        // Each thread walks a shifted window over a shared
                        // universe, so most interns race another thread.
                        let s = format!("palette-{:04}", (t * 128 + j) % 1200);
                        let sym = scope.sym(&s);
                        assert_eq!(scope.resolve(sym), s, "torn resolution");
                        seen.push((s, sym.id()));
                    }
                    seen
                })
            })
            .collect();
        let mut by_string: HashMap<String, u32> = HashMap::new();
        for h in handles {
            for (s, id) in h.join().unwrap() {
                match by_string.entry(s) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(*e.get(), id, "{}: two ids for one string", e.key());
                    }
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(id);
                    }
                }
            }
        }
        assert_eq!(by_string.len(), 1200);
        assert_eq!(scope.len(), 1 + 1200, "dense ids, no gaps");
        // Ids are dense 1..=1200 (the empty string is 0).
        let mut ids: Vec<u32> = by_string.values().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=1200).collect::<Vec<u32>>());
    }

    #[test]
    fn resolution_is_stable_under_concurrent_intern_storm() {
        // Readers resolve a pinned prefix while writers grow the table
        // across multiple chunk boundaries — the lock-free publication
        // protocol must never show a torn or missing slot.
        let t = std::sync::Arc::new(SymTable::new());
        let pinned: Vec<Sym> = (0..100).map(|i| t.intern(&format!("pinned-{i}"))).collect();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                let pinned = pinned.clone();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    // At least one full round always runs (single-core
                    // runners may not schedule a reader until `stop`).
                    loop {
                        for (i, &s) in pinned.iter().enumerate() {
                            assert_eq!(t.resolve(s), format!("pinned-{i}"));
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                })
            })
            .collect();
        // Push well past several chunk boundaries (64, 192, 448, …) and
        // index growths; interleave re-interns of the pinned prefix so
        // lock-free hits race the appends.
        for i in 0..2_000 {
            let s = t.intern(&format!("storm-{i}"));
            assert_eq!(t.resolve(s), format!("storm-{i}"));
            if i % 7 == 0 {
                let p = i % 100;
                assert_eq!(t.intern(&format!("pinned-{p}")), pinned[p]);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(t.len(), 1 + 100 + 2_000);
    }

    #[test]
    fn evict_then_reintern_is_safe_under_concurrent_readers() {
        // The satellite eviction stress test: readers hold a clone of a
        // tenant's scope and resolve its symbols while the registry
        // evicts the tenant and a successor scope re-interns the same
        // strings. The readers' strings must stay valid (their clone
        // keeps the table alive) and the successor must mint fresh ids in
        // a fresh table, never aliasing the evicted universe.
        let reg = std::sync::Arc::new(TenantSymbols::new());
        let tenant = TenantId(7);
        let first = reg.scope(tenant);
        let pinned: Vec<Sym> = (0..256)
            .map(|i| first.sym(&format!("tenant-string-{i}")))
            .collect();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let scope = first.clone();
                let pinned = pinned.clone();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || loop {
                    for (i, &s) in pinned.iter().enumerate() {
                        assert_eq!(scope.resolve(s), format!("tenant-string-{i}"));
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                })
            })
            .collect();
        let first_id = first.scope_id();
        drop(first); // registry handle is now the readers' only peer
        assert!(reg.evict(tenant));
        // Successor scope: same tenant id, same strings, new table.
        let second = reg.scope(tenant);
        assert_ne!(second.scope_id(), first_id, "table ids are never reused");
        for i in 0..256 {
            let s = second.sym(&format!("tenant-string-{i}"));
            assert_eq!(second.resolve(s), format!("tenant-string-{i}"));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn try_resolve_rejects_out_of_range() {
        let t = SymTable::new();
        let s = t.intern("here");
        assert_eq!(t.try_resolve(s), Ok("here"));
        let forged = t.sym_from_id(999);
        assert_eq!(
            t.try_resolve(forged),
            Err(SymResolveError::OutOfRange { sym: 999, len: 2 })
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_catch_cross_table_resolution() {
        // The lethal case: the foreign id is *in range*, so a bounds check
        // alone would silently return an unrelated string.
        let a = SymTable::new();
        let b = SymTable::new();
        let from_a = a.intern("minted-in-a");
        b.intern("minted-in-b");
        match b.try_resolve(from_a) {
            Err(SymResolveError::WrongTable {
                minted_by,
                resolved_against,
                ..
            }) => {
                assert_eq!(minted_by, a.table_id());
                assert_eq!(resolved_against, b.table_id());
            }
            other => panic!("cross-table resolution not caught: {other:?}"),
        }
        // Global-table conveniences on a scoped handle are equally caught.
        assert!(global().try_resolve(from_a).is_err());
    }

    #[test]
    fn dropping_a_scoped_table_frees_its_strings() {
        let t = SymTable::new();
        for i in 0..500 {
            t.intern(&format!("ephemeral-{i:04}"));
        }
        assert!(t.payload_bytes() >= 500 * "ephemeral-0000".len());
        drop(t); // miri/asan would flag a leak or double free here
    }

    // "Default" here means `SymScope::global()`: the scope `Sym`'s own
    // global-only conveniences use.
    #[test]
    fn global_scope_is_the_default_scope_of_the_same_type() {
        let scope = SymScope::global();
        assert!(scope.is_global());
        assert_eq!(scope.scope_id(), 0);
        let via_scope = scope.sym("default-scope-roundtrip");
        let via_global = Sym::new("default-scope-roundtrip");
        assert_eq!(via_scope, via_global);
        assert_eq!(scope.resolve(via_scope), "default-scope-roundtrip");
        assert!(scope.ptr_eq(&SymScope::global()));
        assert!(!scope.ptr_eq(&SymScope::fresh()));
    }

    #[test]
    fn tenant_scopes_are_isolated_and_evictable() {
        let reg = TenantSymbols::new();
        let t1 = reg.scope(TenantId(1));
        let t2 = reg.scope(TenantId(2));
        let a = t1.sym("cluster-a-user");
        let b = t2.sym("cluster-b-user");
        // Same id-space position, different universes.
        assert_eq!(a.id(), b.id());
        assert_eq!(t1.resolve(a), "cluster-a-user");
        assert_eq!(t2.resolve(b), "cluster-b-user");
        assert!(reg.scope(TenantId(1)).ptr_eq(&t1), "scope is stable");
        assert_eq!(reg.tenants(), vec![TenantId(1), TenantId(2)]);
        assert!(reg.payload_bytes() >= "cluster-a-user".len() * 2);

        drop(t1);
        assert!(reg.evict(TenantId(1)));
        assert!(!reg.evict(TenantId(1)), "already gone");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.evicted(), 1);
        assert!(reg.get(TenantId(1)).is_none());
        // Tenant 2 is untouched.
        assert_eq!(reg.get(TenantId(2)).unwrap().resolve(b), "cluster-b-user");
    }

    #[test]
    fn chunk_ladder_locates_every_boundary() {
        // First and last slot of the first few chunks, plus u32::MAX.
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        let (chunk, offset) = locate(u32::MAX);
        assert!(chunk < NUM_CHUNKS);
        assert!(offset < chunk_capacity(chunk));
    }
}
