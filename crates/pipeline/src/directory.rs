//! The correlation directory.
//!
//! The directory maps `correlation id → home shard` so asynchronous
//! activity records — which carry no thread identity — find the shard
//! their launch was routed to. It sits on the producer-side enqueue
//! path (bind on every launch flush, lookup on every activity record),
//! so it is lock-striped: [`StripedHashDirectory`] keeps one
//! `HashMap` per stripe, keyed by one splitmix64 round, and binding and
//! resolving rarely contend.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Mixes a routing key so sequential tids/correlation ids spread across
/// shards and stripes (splitmix64 finalizer). Shared with the sink's
/// shard routing so a correlation's directory stripe and fallback shard
/// derive from one well-mixed word.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-entry byte estimate for the sink's peak accounting (key + value +
/// map overhead).
pub(crate) const DIR_ENTRY_BYTES: usize =
    std::mem::size_of::<u64>() + std::mem::size_of::<u32>() + 16;

/// Events per stack-allocated chunk in
/// [`StripedHashDirectory::bind_batch`].
const BIND_CHUNK: usize = 256;

/// Most stripes a directory holds: `bind_batch` records each event's
/// stripe as a `u16`. Beyond this, shards share stripes (a stripe is
/// only a lock, so routing is unaffected).
const MAX_STRIPES: usize = 1 << 16;

/// Hasher for the directory's `u64` keys: one splitmix64 round instead
/// of SipHash — the default hasher's setup cost is measurable on the
/// enqueue path.
#[derive(Default, Clone)]
struct CorrHasher(u64);

impl std::hash::Hasher for CorrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused for u64 keys): fold bytes then mix.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
        self.0 = mix(self.0);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(n);
    }
}

#[derive(Default, Clone)]
struct CorrHashBuilder;

impl std::hash::BuildHasher for CorrHashBuilder {
    type Hasher = CorrHasher;
    fn build_hasher(&self) -> CorrHasher {
        CorrHasher::default()
    }
}

type HashStripe = std::collections::HashMap<u64, u32, CorrHashBuilder>;

/// A concurrent `correlation id → home shard` directory: lock stripes
/// of `HashMap` keyed by one splitmix64 round. It tracks its own
/// live-entry count, so [`len`](Self::len) never contends with binding.
pub(crate) struct StripedHashDirectory {
    stripes: Vec<Mutex<HashStripe>>,
    entries: AtomicUsize,
}

impl StripedHashDirectory {
    /// Creates a directory with `stripes` lock stripes (clamped to
    /// `1..=MAX_STRIPES`).
    pub(crate) fn new(stripes: usize) -> Self {
        StripedHashDirectory {
            stripes: (0..stripes.clamp(1, MAX_STRIPES))
                .map(|_| Mutex::new(HashStripe::default()))
                .collect(),
            entries: AtomicUsize::new(0),
        }
    }

    fn stripe_of(&self, corr: u64) -> usize {
        (mix(corr) % self.stripes.len() as u64) as usize
    }

    /// Registers `corr`'s home shard (idempotent; later binds win).
    pub(crate) fn bind(&self, corr: u64, shard: u32) {
        if self.stripes[self.stripe_of(corr)]
            .lock()
            .insert(corr, shard)
            .is_none()
        {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`bind`](Self::bind) for a whole launch batch in one striped
    /// pass: each stripe holding any of `corrs` is locked exactly once,
    /// so a flushed thread-local batch pays one lock round-trip per
    /// *stripe touched* instead of one per launch.
    pub(crate) fn bind_batch(&self, corrs: &[u64], shard: u32) {
        match corrs.len() {
            0 => {}
            1 => self.bind(corrs[0], shard),
            _ => {
                // Allocation-free: each chunk's stripe indices live on
                // the stack (`u16` suffices: see `MAX_STRIPES`).
                for chunk in corrs.chunks(BIND_CHUNK) {
                    let mut slots = [0u16; BIND_CHUNK];
                    for (slot, corr) in slots.iter_mut().zip(chunk) {
                        *slot = self.stripe_of(*corr) as u16;
                    }
                    let mut remaining = chunk.len();
                    for stripe in 0..self.stripes.len() {
                        if remaining == 0 {
                            break;
                        }
                        let mut map = None;
                        let mut added = 0usize;
                        for (corr, slot) in chunk.iter().zip(&slots) {
                            if *slot as usize != stripe {
                                continue;
                            }
                            let map = map.get_or_insert_with(|| self.stripes[stripe].lock());
                            if map.insert(*corr, shard).is_none() {
                                added += 1;
                            }
                            remaining -= 1;
                        }
                        if added > 0 {
                            self.entries.fetch_add(added, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
    }

    /// The home shard `corr` was bound to, if any.
    pub(crate) fn lookup(&self, corr: u64) -> Option<u32> {
        self.stripes[self.stripe_of(corr)]
            .lock()
            .get(&corr)
            .copied()
    }

    /// Removes `corr`'s binding, returning the shard it pointed at.
    pub(crate) fn remove(&self, corr: u64) -> Option<u32> {
        let removed = self.stripes[self.stripe_of(corr)].lock().remove(&corr);
        if removed.is_some() {
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Live entries across all stripes (lock-free).
    pub(crate) fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Sheds high-water capacity after a flush boundary.
    pub(crate) fn trim(&self) {
        for stripe in &self.stripes {
            let mut map = stripe.lock();
            if map.capacity() > 64 && map.capacity() / 4 > map.len() {
                map.shrink_to_fit();
            }
        }
    }

    /// Approximate heap bytes held (capacity-based, for tool-memory
    /// accounting).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().capacity() * DIR_ENTRY_BYTES)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_remove_round_trip() {
        let dir = StripedHashDirectory::new(4);
        assert_eq!(dir.len(), 0);
        dir.bind(7, 3);
        dir.bind(u64::MAX, 1);
        dir.bind(0, 2);
        assert_eq!(dir.lookup(7), Some(3));
        assert_eq!(dir.lookup(u64::MAX), Some(1));
        assert_eq!(dir.lookup(0), Some(2));
        assert_eq!(dir.lookup(8), None);
        assert_eq!(dir.len(), 3);
        dir.bind(7, 5);
        assert_eq!(dir.lookup(7), Some(5), "later binds win");
        assert_eq!(dir.len(), 3, "rebind is not a new entry");
        assert_eq!(dir.remove(7), Some(5));
        assert_eq!(dir.remove(7), None);
        assert_eq!(dir.lookup(7), None);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    fn bind_batch_matches_singles() {
        // Spans several BIND_CHUNK chunks and all stripes.
        let corrs: Vec<u64> = (0..1000).map(|n| n * 11).collect();
        let dir = StripedHashDirectory::new(4);
        dir.bind_batch(&corrs, 6);
        assert_eq!(dir.len(), corrs.len());
        for corr in &corrs {
            assert_eq!(dir.lookup(*corr), Some(6), "corr {corr}");
        }
        // Re-binding the same batch adds nothing.
        dir.bind_batch(&corrs, 6);
        assert_eq!(dir.len(), corrs.len());
    }

    #[test]
    fn bind_batch_finds_every_binding_past_u16_stripes() {
        // More shards than a `u16` stripe index can name: every batched
        // binding must still be found by `lookup`.
        let dir = StripedHashDirectory::new(MAX_STRIPES + 4_464);
        let corrs: Vec<u64> = (0..2 * BIND_CHUNK as u64).collect();
        dir.bind_batch(&corrs, 9);
        assert_eq!(dir.len(), corrs.len());
        let lost = corrs.iter().filter(|c| dir.lookup(**c) != Some(9)).count();
        assert_eq!(lost, 0, "batched bindings lost to lookup");
    }

    #[test]
    fn matches_a_std_hashmap_oracle_under_churn() {
        // Deterministic mixed workload: insert / lookup / remove in a
        // pattern with frequent collisions and key reuse, checked
        // against std::collections::HashMap.
        let dir = StripedHashDirectory::new(4);
        let mut oracle = std::collections::HashMap::new();
        let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Small key space so collisions and reuse are common.
            let key = state >> 56;
            match step % 3 {
                0 | 1 => {
                    let shard = (step % 13) as u32;
                    dir.bind(key, shard);
                    oracle.insert(key, shard);
                }
                _ => {
                    assert_eq!(dir.remove(key), oracle.remove(&key), "step {step}");
                }
            }
            assert_eq!(dir.lookup(key), oracle.get(&key).copied(), "step {step}");
        }
        assert_eq!(dir.len(), oracle.len());
        for (key, shard) in &oracle {
            assert_eq!(dir.lookup(*key), Some(*shard), "final key {key}");
        }
    }

    #[test]
    fn trim_sheds_capacity_and_preserves_entries() {
        let dir = StripedHashDirectory::new(4);
        let corrs: Vec<u64> = (0..4096).collect();
        dir.bind_batch(&corrs, 1);
        let full = dir.approx_bytes();
        for corr in corrs.iter().skip(16) {
            dir.remove(*corr);
        }
        dir.trim();
        assert!(dir.approx_bytes() < full, "trim sheds high-water capacity");
        for corr in corrs.iter().take(16) {
            assert_eq!(dir.lookup(*corr), Some(1), "survivors intact");
        }
        assert_eq!(dir.len(), 16);
        // Empty stripes shed down to (at most) the sub-trim-threshold
        // residue.
        for corr in corrs.iter().take(16) {
            dir.remove(*corr);
        }
        dir.trim();
        assert_eq!(dir.len(), 0);
        assert!(
            dir.approx_bytes() <= 64 * DIR_ENTRY_BYTES,
            "empty directory keeps at most the trim threshold"
        );
    }

    #[test]
    fn concurrent_binds_and_lookups_agree() {
        let dir = &StripedHashDirectory::new(4);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    let base = t * 10_000;
                    let corrs: Vec<u64> = (base..base + 500).collect();
                    dir.bind_batch(&corrs, t as u32);
                    for corr in &corrs {
                        assert_eq!(dir.lookup(*corr), Some(t as u32));
                    }
                    for corr in corrs.iter().step_by(2) {
                        assert_eq!(dir.remove(*corr), Some(t as u32));
                    }
                });
            }
        });
        assert_eq!(dir.len(), 8 * 250);
    }
}
