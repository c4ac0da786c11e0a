//! Shared on-disk commit-record (log-region header) layout.
//!
//! Every write-ahead log in the workspace writes this header:
//! `xv6fs::log::Log`, which all three xv6 stacks (Bento, VFS, FUSE) mount,
//! is a thin adapter over [`crate::Journal`], which owns the
//! encode/decode logic here.  The stacks' on-disk images must stay
//! byte-compatible — the crash harness mounts one stack's image under
//! another's fsck oracle — so exactly one module owns the field offsets,
//! the two digests, and the encode/decode logic.
//!
//! Header layout (one 4 KiB block per log region):
//!
//! | offset | field                                                  |
//! |-------:|--------------------------------------------------------|
//! |      0 | `u32` count of logged blocks (0 = clean)               |
//! |      8 | `u64` commit sequence number                           |
//! |     16 | `u64` self-checksum over every other field             |
//! |     24 | `u64` digest of the `count` log blocks after the header |
//! |     32 | `count` consecutive `u32` home block numbers            |
//!
//! The record is **self-validating over its payload**: the self-checksum
//! covers the count, the sequence, the home list *and* the payload digest,
//! so a record binds all four, and recovery accepts it only when both the
//! checksum and the digest of the log blocks actually on the medium match.
//! That is what lets the commit record share a barrier epoch with the
//! payload it names: whichever subset of the epoch's writes a crash
//! persists, a record without its whole payload does not validate.

use simkernel::hash::Digest64;

/// Block size in bytes.  Every stack in the workspace (and the simkernel
/// page cache) uses 4 KiB blocks; the commit-record capacity derives from
/// it.
pub const BSIZE: usize = 4096;

/// Byte offset of the logged-block count in a log-region header.
pub const LOG_HEAD_COUNT_OFF: usize = 0;

/// Byte offset of the commit sequence number (`u64`) in a log-region
/// header.  Recovery uses it to replay regions in commit order.
pub const LOG_HEAD_SEQ_OFF: usize = 8;

/// Byte offset of the header self-checksum (`u64`, over count, seq, the
/// payload digest and the home-block list).  A commit-record write is
/// eight sector writes on a real device; the checksum lets recovery reject
/// a header whose sectors only partially reached the platter instead of
/// installing log blocks to a half-stale home list.
pub const LOG_HEAD_CHECKSUM_OFF: usize = 16;

/// Byte offset of the payload digest (`u64`, [`payload_digest`] of the
/// group's log blocks in region order).
pub const LOG_HEAD_DIGEST_OFF: usize = 24;

/// Byte offset of the first logged home block number in a log-region
/// header; entries are consecutive `u32`s.
pub const LOG_HEAD_BLOCKS_OFF: usize = 32;

/// Digest seeds: distinct per user, so bytes valid as one structure never
/// validate as the other.
const HEAD_SEED: u64 = 0x6a6f_7572_6e61_6c48; // "journalH"
const PAYLOAD_SEED: u64 = 0x6a6f_7572_6e61_6c50; // "journalP"

/// Most home-block entries one header block can name.
pub const LOG_HEAD_MAX_ENTRIES: usize = (BSIZE - LOG_HEAD_BLOCKS_OFF) / 4;

/// Writes a little-endian `u32` at `off`.
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes a little-endian `u64` at `off`.
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` at `off`.
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("u32 slice"))
}

/// Reads a little-endian `u64` at `off`.
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("u64 slice"))
}

/// Computes the self-checksum a log-region header should carry: over the
/// count and sequence fields, the payload digest and the `count`
/// home-block entries (the checksum field itself is excluded).  A garbage
/// count is clamped to the block so the function never panics on corrupt
/// input.
pub fn log_head_checksum(head: &[u8]) -> u64 {
    let count = (get_u32(head, LOG_HEAD_COUNT_OFF) as usize).min(LOG_HEAD_MAX_ENTRIES);
    let mut h = Digest64::new(HEAD_SEED);
    h.update(&head[..LOG_HEAD_CHECKSUM_OFF]);
    h.update(&head[LOG_HEAD_DIGEST_OFF..LOG_HEAD_BLOCKS_OFF + 4 * count]);
    h.finish()
}

/// Digest of a group's log blocks, fed in log-region order: what a commit
/// record carries at [`LOG_HEAD_DIGEST_OFF`] and what recovery recomputes
/// from the medium.  Position-dependent, so the right blocks in the wrong
/// slots do not match.
pub fn payload_digest<'a>(blocks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = Digest64::new(PAYLOAD_SEED);
    for block in blocks {
        h.update(block);
    }
    h.finish()
}

/// Encodes a sealed commit record into `head`: count, sequence, the
/// [`payload_digest`] of the blocks it names, home-block list, and the
/// self-checksum stamped last.
///
/// # Panics
///
/// Panics if `homes` exceeds [`LOG_HEAD_MAX_ENTRIES`] (the log's region
/// capacity is derived from that bound, so this is a caller bug).
pub fn encode_head<I>(head: &mut [u8], seq: u64, homes: I, payload_digest: u64)
where
    I: ExactSizeIterator<Item = u64>,
{
    assert!(homes.len() <= LOG_HEAD_MAX_ENTRIES, "commit record overflows header block");
    put_u32(head, LOG_HEAD_COUNT_OFF, homes.len() as u32);
    put_u64(head, LOG_HEAD_SEQ_OFF, seq);
    put_u64(head, LOG_HEAD_DIGEST_OFF, payload_digest);
    for (i, home) in homes.enumerate() {
        put_u32(head, LOG_HEAD_BLOCKS_OFF + i * 4, home as u32);
    }
    let checksum = log_head_checksum(head);
    put_u64(head, LOG_HEAD_CHECKSUM_OFF, checksum);
}

/// Encodes a clean (count 0) header into `head`, keeping the region's last
/// commit sequence visible for diagnostics, sealed with the checksum.
pub fn encode_clear(head: &mut [u8], seq: u64) {
    put_u32(head, LOG_HEAD_COUNT_OFF, 0);
    put_u64(head, LOG_HEAD_SEQ_OFF, seq);
    let checksum = log_head_checksum(head);
    put_u64(head, LOG_HEAD_CHECKSUM_OFF, checksum);
}

/// A structurally valid commit record: its sequence number, home blocks,
/// and the digest its payload must match before recovery may replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedHead {
    /// Commit sequence number (orders replay across regions).
    pub seq: u64,
    /// [`payload_digest`] the log blocks after the header must have.
    pub payload_digest: u64,
    /// Home block of each logged block, in log-region order.
    pub homes: Vec<u64>,
}

/// Decodes a commit record, returning `None` for anything recovery must
/// treat as a clean region: a zero count, a count beyond `capacity`, or a
/// checksum mismatch (a torn commit-record write — the transaction never
/// committed).  Callers still validate the home blocks against their own
/// valid range and the log blocks against [`ParsedHead::payload_digest`].
pub fn parse_head(head: &[u8], capacity: usize) -> Option<ParsedHead> {
    let n = get_u32(head, LOG_HEAD_COUNT_OFF) as usize;
    if n == 0 || n > capacity.min(LOG_HEAD_MAX_ENTRIES) {
        return None;
    }
    if get_u64(head, LOG_HEAD_CHECKSUM_OFF) != log_head_checksum(head) {
        return None;
    }
    let seq = get_u64(head, LOG_HEAD_SEQ_OFF);
    let payload_digest = get_u64(head, LOG_HEAD_DIGEST_OFF);
    let homes = (0..n).map(|i| get_u32(head, LOG_HEAD_BLOCKS_OFF + i * 4) as u64).collect();
    Some(ParsedHead { seq, payload_digest, homes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 7, [100u64, 200, 300].into_iter(), 0xD16E);
        let parsed = parse_head(&head, 64).expect("valid header parses");
        assert_eq!(
            parsed,
            ParsedHead { seq: 7, payload_digest: 0xD16E, homes: vec![100, 200, 300] }
        );
    }

    #[test]
    fn clear_parses_as_clean() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 3, [50u64].into_iter(), 1);
        encode_clear(&mut head, 3);
        assert!(parse_head(&head, 64).is_none());
        assert_eq!(get_u64(&head, LOG_HEAD_SEQ_OFF), 3, "sequence stays visible");
    }

    #[test]
    fn torn_record_is_rejected() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64, 200].into_iter(), 1);
        // Simulate a tear: one home entry changes after the checksum sealed.
        put_u32(&mut head, LOG_HEAD_BLOCKS_OFF, 999);
        assert!(parse_head(&head, 64).is_none());
    }

    #[test]
    fn the_checksum_binds_the_payload_digest() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64, 200].into_iter(), 0xAAAA);
        put_u64(&mut head, LOG_HEAD_DIGEST_OFF, 0xAAAB);
        assert!(parse_head(&head, 64).is_none(), "a swapped digest must not validate");
    }

    #[test]
    fn payload_digest_depends_on_content_order_and_count() {
        let (a, b) = ([0xA5u8; BSIZE], [0x5Au8; BSIZE]);
        let ab = payload_digest([&a[..], &b[..]]);
        assert_eq!(ab, payload_digest([&a[..], &b[..]]));
        assert_ne!(ab, payload_digest([&b[..], &a[..]]), "block order");
        assert_ne!(ab, payload_digest([&a[..]]), "block count");
        let zero = [0u8; BSIZE];
        assert_ne!(payload_digest([&zero[..]]), payload_digest([&zero[..], &zero[..]]));
    }

    #[test]
    fn over_capacity_count_is_rejected() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, (0..10u32).map(|i| 100 + u64::from(i)), 1);
        assert!(parse_head(&head, 4).is_none(), "count beyond region capacity");
        assert!(parse_head(&head, 10).is_some());
    }

    #[test]
    fn offsets_are_the_documented_layout() {
        assert_eq!(LOG_HEAD_COUNT_OFF, 0);
        assert_eq!(LOG_HEAD_SEQ_OFF, 8);
        assert_eq!(LOG_HEAD_CHECKSUM_OFF, 16);
        assert_eq!(LOG_HEAD_DIGEST_OFF, 24);
        assert_eq!(LOG_HEAD_BLOCKS_OFF, 32);
    }
}
