//! The vectorized hash engine: key hashing and open-addressing slot tables
//! shared by the keyed chunk kernels ([`super::chunked`]).
//!
//! Two pieces compose (see `DESIGN.md` §5):
//!
//! 1. **Hashing** — a hand-rolled non-cryptographic hasher (FNV-1a over
//!    string bytes, a splitmix64-style finalizer over scalar payloads; no
//!    dependencies). The one invariant everything else rests on:
//!    *equal [`Value`]s hash equal*, where equality is `Value`'s
//!    variant-exact total order. `Float` hashes its `to_bits()`, exactly
//!    matching `total_cmp`-based equality: distinct NaN payloads are
//!    distinct values (and may hash apart), `-0.0` and `0.0` are distinct,
//!    and `Int(5)` never collides-by-contract with `Float(5.0)` because
//!    each variant folds in its own tag. The typed helpers ([`hash_i64`],
//!    [`hash_str`], ...) are the *same function* as [`hash_value`] on the
//!    corresponding variant, so a typed key lane and a materialized
//!    `Value` key always agree — which is what lets a dictionary-encoded
//!    string lane hash each distinct string once and join against an
//!    inline `Value::Str` probe.
//! 2. **Slot tables** — power-of-two open-addressing tables
//!    ([`SlotTable`]) mapping hashes to dense `u32` group slots, compared
//!    through caller-supplied closures so one table serves `i64` lanes,
//!    dict-code lanes, and generic `Value` keys without boxing.
//!    [`build_index`] runs one table over a whole key column. An `i64`
//!    lane of small range skips hashing: [`dense_index_i64`] addresses its
//!    slots by key, for grouping and join probes alike.
//!
//! Determinism: hash values only ever decide *where a key's state lives*,
//! never what is emitted. Group membership comes from key equality,
//! member order from input-order scans of [`GroupIndex::slot_of_row`], and
//! output order from a final key sort — so a different hash function
//! yields byte-identical results (the collision tests drive every key onto
//! one probe sequence to prove it).

use crate::data::Value;

/// Distinct keys a [`build_index`] table is first sized for, at most; it
/// grows past that as keys arrive.
const PRESIZE_KEYS: usize = 8192;

// Per-variant seeds folded into the payload before mixing, so values of
// different variants live in unrelated hash families (variant-exact
// equality never needs cross-variant collisions resolved).
const TAG_NULL: u64 = 0x9ae1_6a3b_2f90_404f;
const TAG_BOOL: u64 = 0x3c79_ac49_2ba7_b653;
const TAG_INT: u64 = 0x1d8e_4e27_c47d_124f;
const TAG_FLOAT: u64 = 0x60be_e2be_e120_fc15;
const TAG_STR: u64 = 0xa3aa_c7cc_6b07_05d1;

/// splitmix64-style finalizer: full-avalanche mixing of one 64-bit word.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of `Value::Null`.
#[inline]
pub(crate) fn hash_null() -> u64 {
    mix(TAG_NULL)
}

/// Hash of `Value::Bool(b)`.
#[inline]
pub(crate) fn hash_bool(b: bool) -> u64 {
    mix(TAG_BOOL ^ u64::from(b))
}

/// Hash of `Value::Int(k)` — and of a typed `i64` key lane entry.
#[inline]
pub fn hash_i64(k: i64) -> u64 {
    mix(TAG_INT ^ k as u64)
}

/// Hash of `Value::Float(x)` — and of a typed `f64` key lane entry.
///
/// Hashes the raw bits, matching `Value` equality under `total_cmp`:
/// `-0.0`/`0.0` and distinct NaN payloads are *different* keys.
#[inline]
pub(crate) fn hash_f64(x: f64) -> u64 {
    mix(TAG_FLOAT ^ x.to_bits())
}

/// Hash of `Value::Str(s)` — and of a dictionary entry.
///
/// FNV-1a over the bytes, then finalized; content-addressed, so a
/// dictionary entry and a value's [`Text`](crate::Text) with equal bytes
/// hash equal whether or not they share an allocation.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(TAG_STR ^ h)
}

/// Hash any [`Value`], consistent with `Value` equality: `a == b` implies
/// `hash_value(&a) == hash_value(&b)`, and each typed helper above equals
/// this function on the corresponding variant.
#[inline]
pub(crate) fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => hash_null(),
        Value::Bool(b) => hash_bool(*b),
        Value::Int(k) => hash_i64(*k),
        Value::Float(x) => hash_f64(*x),
        Value::Str(s) => hash_str(s),
    }
}

/// Fold one key field's hash into a key tuple's: `combine(acc, h)` over
/// the fields left to right, starting from 0, is the tuple's hash. A typed
/// lane folding [`hash_i64`] per row and a row loop folding [`hash_value`]
/// per field therefore agree on every tuple.
#[inline]
pub fn combine(acc: u64, field_hash: u64) -> u64 {
    mix(acc.rotate_left(21) ^ field_hash)
}

/// An open-addressing hash table mapping 64-bit hashes to dense `u32`
/// slots, with linear probing over a power-of-two array.
///
/// The table stores no keys: callers resolve candidate slots through an
/// equality closure against their own key storage (an `i64` lane, a
/// dictionary code array, a `Vec<Value>`), so the table layout is one flat
/// `(hash, slot)` pair per entry regardless of key type.
#[derive(Debug)]
pub struct SlotTable {
    hashes: Vec<u64>,
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl SlotTable {
    /// A table pre-sized for about `n` distinct keys (load factor ≤ 1/2 at
    /// `n` inserts; grows past that, so `n` is a hint, not a cap).
    pub(crate) fn with_capacity(n: usize) -> SlotTable {
        let cap = (n.max(1) * 2).next_power_of_two().max(8);
        SlotTable {
            hashes: vec![0; cap],
            slots: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    fn grow(&mut self) {
        let cap = (self.mask + 1) * 2;
        let hashes = std::mem::replace(&mut self.hashes, vec![0; cap]);
        let slots = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.mask = cap - 1;
        for (h, s) in hashes.into_iter().zip(slots) {
            if s == EMPTY {
                continue;
            }
            let mut i = (h as usize) & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.hashes[i] = h;
            self.slots[i] = s;
        }
    }

    /// Find the slot whose entry matches `hash` and `is_same` (called with
    /// each candidate slot), or insert `new_slot` and return it. The bool
    /// is `true` iff an insert happened.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        mut is_same: impl FnMut(u32) -> bool,
        new_slot: u32,
    ) -> (u32, bool) {
        if self.len * 2 > self.mask {
            self.grow();
        }
        let mut i = (hash as usize) & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                self.hashes[i] = hash;
                self.slots[i] = new_slot;
                self.len += 1;
                return (new_slot, true);
            }
            if self.hashes[i] == hash && is_same(s) {
                return (s, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Find the slot matching `hash` and `is_same` without inserting.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut is_same: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = (hash as usize) & self.mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return None;
            }
            if self.hashes[i] == hash && is_same(s) {
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// The result of hashing one key column into dense group slots: a slot id
/// per row plus, per slot, the first input row carrying that key. Retains
/// its table so joins can probe it after the build.
#[derive(Debug)]
pub struct GroupIndex {
    table: SlotTable,
    /// Group slot of each input row.
    pub slot_of_row: Vec<u32>,
    /// First input row of each slot's key (slot-indexed).
    pub first_row: Vec<u32>,
}

impl GroupIndex {
    /// Probe for the slot of a key with hash `hash`; `is_same` receives
    /// candidate slots and compares the probe key against the build key at
    /// `first_row[slot]`.
    #[inline]
    pub(crate) fn lookup(&self, hash: u64, is_same: impl FnMut(u32) -> bool) -> Option<u32> {
        self.table.find(hash, is_same)
    }

    /// Drop the probe table, keeping only the grouping — for callers
    /// (grouping, reduction) that never look keys up again.
    pub(crate) fn into_groups(self) -> DenseGroups {
        DenseGroups {
            slot_of_row: self.slot_of_row,
            first_row: self.first_row,
        }
    }
}

/// The grouping a [`GroupIndex`] induces, without the probe table: each
/// row's dense group slot and each slot's canonical first row. This is
/// all `hash_group` / `reduce_by_key` consume — and what the hash-free
/// direct-address builders below produce.
#[derive(Debug)]
pub struct DenseGroups {
    /// Group slot of each input row.
    pub slot_of_row: Vec<u32>,
    /// First input row of each slot's key (slot-indexed).
    pub first_row: Vec<u32>,
}

impl DenseGroups {
    /// Number of distinct keys found.
    pub(crate) fn n_groups(&self) -> usize {
        self.first_row.len()
    }
}

/// Largest `max - min + 1` range an integer lane may span and still take
/// the direct-address path (a `u32` table entry per possible key).
const DENSE_MAX_RANGE: i128 = 1 << 16;

/// Direct-address slots of an integer key lane whose value range is small:
/// one table entry per possible key, no hashing, no collisions. It groups
/// the lane ([`DenseIndex::into_groups`]) and, kept whole, answers a join
/// probe with one subtraction and one load ([`DenseIndex::lookup`]).
#[derive(Debug)]
pub struct DenseIndex {
    /// The smallest key; key `k` lives at `slot_of_key[k - lo]`.
    lo: i64,
    slot_of_key: Vec<u32>,
    /// The grouping of the lane the index was built over.
    pub groups: DenseGroups,
}

impl DenseIndex {
    /// The slot of key `k`, if the lane holds it.
    #[inline]
    pub(crate) fn lookup(&self, k: i64) -> Option<u32> {
        // Outside `lo..=hi` the wrapped difference is at least the table
        // length (the range is below 2^16), so `get` misses.
        let s = *self
            .slot_of_key
            .get(k.wrapping_sub(self.lo) as u64 as usize)?;
        (s != EMPTY).then_some(s)
    }

    /// Drop the key table, keeping only the grouping.
    pub(crate) fn into_groups(self) -> DenseGroups {
        self.groups
    }
}

/// Direct-address slots for an integer key lane whose value range is
/// small — one pass after the min/max scan. Slots are assigned in
/// first-encounter order, exactly as [`build_index`] numbers them, so the
/// two paths are interchangeable for grouping and probing. Returns `None`
/// when the range exceeds `DENSE_MAX_RANGE` (the caller falls back to the
/// hash path).
pub(crate) fn dense_index_i64(lane: &[i64]) -> Option<DenseIndex> {
    let (lo, hi) = lane
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    // An empty lane spans no key (`hi < lo`).
    let range = (i128::from(hi) - i128::from(lo) + 1).max(0);
    if range > DENSE_MAX_RANGE {
        return None;
    }
    let mut slot_of_key = vec![EMPTY; range as usize];
    let mut slot_of_row = vec![0u32; lane.len()];
    let mut first_row: Vec<u32> = Vec::new();
    for (row, &k) in lane.iter().enumerate() {
        let idx = (k - lo) as usize;
        let mut s = slot_of_key[idx];
        if s == EMPTY {
            s = first_row.len() as u32;
            slot_of_key[idx] = s;
            first_row.push(row as u32);
        }
        slot_of_row[row] = s;
    }
    Some(DenseIndex {
        lo,
        slot_of_key,
        groups: DenseGroups {
            slot_of_row,
            first_row,
        },
    })
}

/// Direct-address grouping for a dictionary-code lane: codes are already
/// dense in `0..n_codes` (distinct code ⇔ distinct string), so the
/// dictionary *is* the perfect hash — no range check needed.
pub(crate) fn dense_groups_codes(codes: &[u32], n_codes: usize) -> DenseGroups {
    let mut slot_of_code = vec![EMPTY; n_codes];
    let mut slot_of_row = vec![0u32; codes.len()];
    let mut first_row: Vec<u32> = Vec::new();
    for (row, &c) in codes.iter().enumerate() {
        let mut s = slot_of_code[c as usize];
        if s == EMPTY {
            s = first_row.len() as u32;
            slot_of_code[c as usize] = s;
            first_row.push(row as u32);
        }
        slot_of_row[row] = s;
    }
    DenseGroups {
        slot_of_row,
        first_row,
    }
}

/// Assign every row a dense group slot by key, in first-encounter order,
/// through one slot table.
///
/// `hashes[i]` must be the key hash of row `i`; `same_key(a, b)` decides
/// whether rows `a` and `b` carry equal keys (it is only called on rows
/// whose hashes collide).
pub(crate) fn build_index(
    hashes: &[u64],
    mut same_key: impl FnMut(u32, u32) -> bool,
) -> GroupIndex {
    debug_assert!(
        u32::try_from(hashes.len()).is_ok(),
        "chunk exceeds u32 rows"
    );
    let mut table = SlotTable::with_capacity(hashes.len().min(PRESIZE_KEYS));
    let mut slot_of_row = vec![0u32; hashes.len()];
    let mut first_row: Vec<u32> = Vec::new();
    for (row, &h) in hashes.iter().enumerate() {
        let row = row as u32;
        let (slot, inserted) = table.find_or_insert(
            h,
            |s| same_key(first_row[s as usize], row),
            first_row.len() as u32,
        );
        if inserted {
            first_row.push(row);
        }
        slot_of_row[row as usize] = slot;
    }
    GroupIndex {
        table,
        slot_of_row,
        first_row,
    }
}

/// CSR member lists: per-slot row lists in input order, as one offsets
/// array (`n_groups + 1` entries) over one row-id array.
pub(crate) fn member_lists(slot_of_row: &[u32], n_groups: usize) -> (Vec<usize>, Vec<u32>) {
    let mut offsets = vec![0usize; n_groups + 1];
    for &s in slot_of_row {
        offsets[s as usize + 1] += 1;
    }
    for g in 0..n_groups {
        offsets[g + 1] += offsets[g];
    }
    let mut rows = vec![0u32; slot_of_row.len()];
    let mut cursors = offsets.clone();
    for (row, &s) in slot_of_row.iter().enumerate() {
        rows[cursors[s as usize]] = row as u32;
        cursors[s as usize] += 1;
    }
    (offsets, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_helpers_agree_with_hash_value() {
        assert_eq!(hash_null(), hash_value(&Value::Null));
        for b in [false, true] {
            assert_eq!(hash_bool(b), hash_value(&Value::Bool(b)));
        }
        for k in [0i64, 1, -1, i64::MIN, i64::MAX, 42] {
            assert_eq!(hash_i64(k), hash_value(&Value::Int(k)));
        }
        for x in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(hash_f64(x), hash_value(&Value::Float(x)));
        }
        for s in ["", "a", "hello world"] {
            assert_eq!(hash_str(s), hash_value(&Value::str(s)));
        }
    }

    #[test]
    fn equal_values_hash_equal_and_variants_differ() {
        // Same bits, same hash — including NaN payload classes.
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(hash_f64(nan_a), hash_f64(nan_b));
        // Distinct values (under total_cmp) are allowed to hash apart —
        // and with this mixer, they do.
        assert_ne!(hash_f64(0.0), hash_f64(-0.0));
        assert_ne!(
            hash_f64(f64::from_bits(0x7ff8_0000_0000_0001)),
            hash_f64(f64::from_bits(0x7ff8_0000_0000_0002))
        );
        // Variant tags separate equal payloads.
        assert_ne!(hash_i64(1), hash_f64(1.0f64));
        assert_ne!(hash_i64(0), hash_null());
        assert_ne!(hash_bool(false), hash_i64(0));
    }

    #[test]
    fn build_index_groups_by_key() {
        let keys = [3i64, 1, 3, 2, 1, 3];
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_i64(k)).collect();
        let idx = build_index(&hashes, |a, b| keys[a as usize] == keys[b as usize]);
        assert_eq!(idx.first_row.len(), 3);
        // First-appearance slots: 3 → 0, 1 → 1, 2 → 2.
        assert_eq!(idx.slot_of_row, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(idx.first_row, vec![0, 1, 3]);
        let (offsets, rows) = member_lists(&idx.slot_of_row, idx.first_row.len());
        assert_eq!(offsets, vec![0, 3, 5, 6]);
        assert_eq!(rows, vec![0, 2, 5, 1, 4, 3]);
        // Probing finds the same slots.
        let slot = idx
            .lookup(hash_i64(2), |s| {
                keys[idx.first_row[s as usize] as usize] == 2
            })
            .unwrap();
        assert_eq!(slot, 2);
        assert!(idx.lookup(hash_i64(9), |_| true).is_none());
    }

    #[test]
    fn collision_pileup_stays_correct() {
        // Degenerate hash column: every row collides into one probe chain.
        // Grouping must fall back to key equality and still be exact.
        let keys: Vec<i64> = (0..500).map(|i| i % 17).collect();
        let hashes = vec![0u64; keys.len()];
        let idx = build_index(&hashes, |a, b| keys[a as usize] == keys[b as usize]);
        assert_eq!(idx.first_row.len(), 17);
        for (row, &s) in idx.slot_of_row.iter().enumerate() {
            assert_eq!(keys[idx.first_row[s as usize] as usize], keys[row]);
        }
    }

    #[test]
    fn table_growth_preserves_entries() {
        let mut table = SlotTable::with_capacity(1);
        let keys: Vec<i64> = (0..1000).collect();
        for (i, &k) in keys.iter().enumerate() {
            let (slot, inserted) =
                table.find_or_insert(hash_i64(k), |s| keys[s as usize] == k, i as u32);
            assert!(inserted);
            assert_eq!(slot, i as u32);
        }
        assert_eq!(table.len, 1000);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                table.find(hash_i64(k), |s| keys[s as usize] == k),
                Some(i as u32)
            );
        }
        assert!(table.find(hash_i64(5000), |_| true).is_none());
    }

    #[test]
    fn dense_i64_matches_hash_path_exactly() {
        // Negative keys, gaps, skew — all within the direct-address range.
        let keys: Vec<i64> = (0..500).map(|i| ((i * 37) % 90) - 45).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| hash_i64(k)).collect();
        let hashed = build_index(&hashes, |a, b| keys[a as usize] == keys[b as usize]);
        let dense = dense_index_i64(&keys).expect("small range");
        for k in -50..50 {
            let probe = hashed.lookup(hash_i64(k), |s| {
                keys[hashed.first_row[s as usize] as usize] == k
            });
            assert_eq!(dense.lookup(k), probe, "key {k}");
        }
        let dense = dense.into_groups();
        assert_eq!(dense.first_row, hashed.first_row);
        assert_eq!(dense.slot_of_row, hashed.slot_of_row);
        assert_eq!(dense.n_groups(), hashed.first_row.len());
    }

    #[test]
    fn dense_i64_rejects_wide_ranges_and_handles_edges() {
        assert!(dense_index_i64(&[i64::MIN, i64::MAX]).is_none());
        assert!(dense_index_i64(&[0, 1 << 16]).is_none());
        assert!(dense_index_i64(&[0, (1 << 16) - 1]).is_some());
        let empty = dense_index_i64(&[]).unwrap();
        assert_eq!(empty.groups.n_groups(), 0);
        assert_eq!(empty.lookup(0), None);
        let single = dense_index_i64(&[i64::MIN; 4]).unwrap();
        assert_eq!(single.groups.n_groups(), 1);
        assert_eq!(single.groups.slot_of_row, vec![0, 0, 0, 0]);
        // Probes outside the range miss, however far the difference wraps.
        assert_eq!(single.lookup(i64::MIN), Some(0));
        for k in [i64::MIN + 1, -1, 0, i64::MAX] {
            assert_eq!(single.lookup(k), None, "key {k}");
        }
        let top = dense_index_i64(&[i64::MAX - 2, i64::MAX]).unwrap();
        assert_eq!(top.lookup(i64::MAX), Some(1));
        for k in [i64::MIN, i64::MIN + 2, i64::MAX - 1, i64::MAX - 3] {
            assert_eq!(top.lookup(k), None, "key {k}");
        }
    }

    #[test]
    fn dense_codes_group_by_dictionary_entry() {
        let codes = vec![2u32, 0, 2, 1, 0];
        let dense = dense_groups_codes(&codes, 3);
        assert_eq!(dense.n_groups(), 3);
        assert_eq!(dense.first_row, vec![0, 1, 3]);
        assert_eq!(dense.slot_of_row, vec![0, 1, 0, 2, 1]);
    }
}
