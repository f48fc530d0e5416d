//! The server's content-addressed result cache.
//!
//! Keys are FNV-1a hashes of `(request kind, machine name, option flags,
//! canonical program text)` — the canonical text is the pretty-printer's
//! stable rendering, so two requests that differ only in formatting share
//! an entry.  Values are the compact-rendered `result` JSON, each charged
//! its bytes plus a fixed per-entry overhead against the byte budget.
//! The cache itself is the workspace's one single-flight [`Memo`]: a hit
//! hands back the *same bytes* the miss produced, so responses are
//! bit-identical by construction, and concurrent identical requests
//! simulate once.
//!
//! In a shard tier ([`cluster`](crate::cluster)) each node keeps its own
//! cache; coherence comes from routing, not replication — the
//! consistent-hash ring sends every key to one owning node, so the tier
//! as a whole fills one entry per unique key and serves the same bytes
//! from every member.

use mbb_core::memo::Memo;

/// The result cache: rendered `result` JSON by content address.
pub type ResultCache = Memo<String>;

/// 64-bit FNV-1a over a byte string.  Delegates to the shared
/// [`mbb_core::canon`] definition so every content-addressed cache in the
/// workspace (this result cache, the search score cache) hashes
/// identically; kept as a re-export for existing callers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    mbb_core::canon::fnv1a(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_close_inputs() {
        assert_ne!(fnv1a(b"report\0origin"), fnv1a(b"advise\0origin"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
    }
}
