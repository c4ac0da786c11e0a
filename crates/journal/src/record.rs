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
//! | offset | field                                                     |
//! |-------:|-----------------------------------------------------------|
//! |      0 | `u32` count of logged blocks                              |
//! |      4 | `u32` count of direct homes (0 and 0 = clean)             |
//! |      8 | `u64` commit sequence number                              |
//! |     16 | `u64` self-checksum over every other field                |
//! |     24 | `u64` digest of the `count` log blocks after the header    |
//! |     32 | `count` consecutive `u32` home block numbers               |
//! |  32+4c | `direct` entries: `u32` home, `u64` [`direct_checksum`]    |
//!
//! A **direct home** is a block the group allocated and wrote straight to
//! its home in the commit's epoch, with no log copy: its entry carries the
//! checksum of the bytes written there.
//!
//! The record is **self-validating over its payload**: the self-checksum
//! covers the counts, the sequence, the home list, the direct entries
//! *and* the payload digest, so a record binds all of them, and recovery
//! accepts it only when the checksum holds, the digest of the log blocks
//! actually on the medium matches, and each direct home holds the bytes
//! its entry names (or a newer valid record names that home too).  That is
//! what lets the commit record share a barrier epoch with the payload and
//! the direct writes it names: whichever subset of the epoch's writes a
//! crash persists, a record without all of them does not validate.

use simkernel::hash::Digest64;

/// Block size in bytes.  Every stack in the workspace (and the simkernel
/// page cache) uses 4 KiB blocks; the commit-record capacity derives from
/// it.
pub const BSIZE: usize = 4096;

/// Byte offset of the logged-block count in a log-region header.
pub const LOG_HEAD_COUNT_OFF: usize = 0;

/// Byte offset of the direct-home count (`u32`) in a log-region header.
pub const LOG_HEAD_DIRECT_OFF: usize = 4;

/// Byte offset of the commit sequence number (`u64`) in a log-region
/// header.  Recovery uses it to replay regions in commit order.
pub const LOG_HEAD_SEQ_OFF: usize = 8;

/// Byte offset of the header self-checksum (`u64`, over the counts, seq,
/// the payload digest, the home-block list and the direct entries).  A commit-record write is
/// eight sector writes on a real device; the checksum lets recovery reject
/// a header whose sectors only partially reached the platter instead of
/// installing log blocks to a half-stale home list.
pub const LOG_HEAD_CHECKSUM_OFF: usize = 16;

/// Byte offset of the payload digest (`u64`, [`payload_digest`] of the
/// group's log blocks in region order).
pub const LOG_HEAD_DIGEST_OFF: usize = 24;

/// Byte offset of the first logged home block number in a log-region
/// header; entries are consecutive `u32`s, and the direct entries follow
/// them.
pub const LOG_HEAD_BLOCKS_OFF: usize = 32;

/// Bytes of one direct entry: a `u32` home and a `u64` checksum.
const DIRECT_ENTRY: usize = 12;

/// Digest seeds: distinct per user, so bytes valid as one structure never
/// validate as another.
const HEAD_SEED: u64 = 0x6a6f_7572_6e61_6c48; // "journalH"
const PAYLOAD_SEED: u64 = 0x6a6f_7572_6e61_6c50; // "journalP"
const DIRECT_SEED: u64 = 0x6a6f_7572_6e61_6c44; // "journalD"

/// Most logged home-block entries one header block can name.
pub const LOG_HEAD_MAX_ENTRIES: usize = (BSIZE - LOG_HEAD_BLOCKS_OFF) / 4;

/// End of the entries of a header naming `logged` log blocks and `direct`
/// direct homes (beyond [`BSIZE`] if they do not fit).
fn entries_end(logged: usize, direct: usize) -> usize {
    LOG_HEAD_BLOCKS_OFF + 4 * logged + DIRECT_ENTRY * direct
}

/// Most direct homes a record of `blocks` blocks in all can name: every
/// block fits as a logged entry, and a direct entry takes 8 bytes more.
pub fn max_direct(blocks: usize) -> usize {
    BSIZE.saturating_sub(entries_end(blocks, 0)) / (DIRECT_ENTRY - 4)
}

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
/// counts and sequence fields, the payload digest, the `count` home-block
/// entries and the direct entries (the checksum field itself is
/// excluded).  Garbage counts are clamped to the block so the function
/// never panics on corrupt input.
pub fn log_head_checksum(head: &[u8]) -> u64 {
    let count = get_u32(head, LOG_HEAD_COUNT_OFF) as usize;
    let direct = get_u32(head, LOG_HEAD_DIRECT_OFF) as usize;
    let end = entries_end(count.min(BSIZE), direct.min(BSIZE)).min(BSIZE);
    let mut h = Digest64::new(HEAD_SEED);
    h.update(&head[..LOG_HEAD_CHECKSUM_OFF]);
    h.update(&head[LOG_HEAD_DIGEST_OFF..end]);
    h.finish()
}

/// Whether `head` is a clean header: it names no block at all.
pub fn is_clean(head: &[u8]) -> bool {
    get_u32(head, LOG_HEAD_COUNT_OFF) == 0 && get_u32(head, LOG_HEAD_DIRECT_OFF) == 0
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

/// Checksum of a direct home's bytes, as its entry in a commit record
/// carries it and recovery recomputes it from the home.
pub fn direct_checksum(block: &[u8]) -> u64 {
    let mut h = Digest64::new(DIRECT_SEED);
    h.update(block);
    h.finish()
}

/// Encodes a sealed commit record into `head`: counts, sequence, the
/// [`payload_digest`] of the log blocks it names, their home-block list,
/// the `(home, checksum)` of every direct home, and the self-checksum
/// stamped last.
///
/// # Panics
///
/// Panics if the entries overflow the header block (the log's region
/// capacity and [`max_direct`] bound them, so this is a caller bug).
pub fn encode_head<I>(
    head: &mut [u8],
    seq: u64,
    homes: I,
    payload_digest: u64,
    direct: &[(u64, u64)],
) where
    I: ExactSizeIterator<Item = u64>,
{
    let count = homes.len();
    assert!(entries_end(count, direct.len()) <= BSIZE, "commit record overflows header block");
    put_u32(head, LOG_HEAD_COUNT_OFF, count as u32);
    put_u32(head, LOG_HEAD_DIRECT_OFF, direct.len() as u32);
    put_u64(head, LOG_HEAD_SEQ_OFF, seq);
    put_u64(head, LOG_HEAD_DIGEST_OFF, payload_digest);
    for (i, home) in homes.enumerate() {
        put_u32(head, LOG_HEAD_BLOCKS_OFF + i * 4, home as u32);
    }
    for (i, &(home, checksum)) in direct.iter().enumerate() {
        let at = entries_end(count, i);
        put_u32(head, at, home as u32);
        put_u64(head, at + 4, checksum);
    }
    let checksum = log_head_checksum(head);
    put_u64(head, LOG_HEAD_CHECKSUM_OFF, checksum);
}

/// Encodes a clean header (both counts 0) into `head`, keeping the
/// region's last commit sequence visible for diagnostics, sealed with the
/// checksum.
pub fn encode_clear(head: &mut [u8], seq: u64) {
    put_u32(head, LOG_HEAD_COUNT_OFF, 0);
    put_u32(head, LOG_HEAD_DIRECT_OFF, 0);
    put_u64(head, LOG_HEAD_SEQ_OFF, seq);
    let checksum = log_head_checksum(head);
    put_u64(head, LOG_HEAD_CHECKSUM_OFF, checksum);
}

/// A structurally valid commit record: its sequence number, home blocks,
/// direct homes, and the digest its payload must match before recovery may
/// replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedHead {
    /// Commit sequence number (orders replay across regions).
    pub seq: u64,
    /// [`payload_digest`] the log blocks after the header must have.
    pub payload_digest: u64,
    /// Home block of each logged block, in log-region order.
    pub homes: Vec<u64>,
    /// Each direct home and the [`direct_checksum`] of the bytes the group
    /// wrote there.
    pub direct: Vec<(u64, u64)>,
}

/// Decodes a commit record, returning `None` for anything recovery must
/// treat as a clean region: no entry at all, more entries than `capacity`
/// or than the block holds, or a checksum mismatch (a torn commit-record
/// write — the transaction never committed).  Callers still validate the
/// home blocks against their own valid range, the log blocks against
/// [`ParsedHead::payload_digest`] and the direct homes against their
/// checksums.
pub fn parse_head(head: &[u8], capacity: usize) -> Option<ParsedHead> {
    let n = get_u32(head, LOG_HEAD_COUNT_OFF) as usize;
    let d = get_u32(head, LOG_HEAD_DIRECT_OFF) as usize;
    let entries = n.checked_add(d)?;
    if entries == 0 || entries > capacity || entries_end(n, d) > BSIZE {
        return None;
    }
    if get_u64(head, LOG_HEAD_CHECKSUM_OFF) != log_head_checksum(head) {
        return None;
    }
    let seq = get_u64(head, LOG_HEAD_SEQ_OFF);
    let payload_digest = get_u64(head, LOG_HEAD_DIGEST_OFF);
    let homes = (0..n).map(|i| get_u32(head, LOG_HEAD_BLOCKS_OFF + i * 4) as u64).collect();
    let direct = (0..d)
        .map(|i| {
            let at = entries_end(n, i);
            (get_u32(head, at) as u64, get_u64(head, at + 4))
        })
        .collect();
    Some(ParsedHead { seq, payload_digest, homes, direct })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip() {
        let mut head = vec![0u8; BSIZE];
        let direct = [(400u64, 0xC0FFEE), (500, 7)];
        encode_head(&mut head, 7, [100u64, 200, 300].into_iter(), 0xD16E, &direct);
        let parsed = parse_head(&head, 64).expect("valid header parses");
        assert_eq!(
            parsed,
            ParsedHead {
                seq: 7,
                payload_digest: 0xD16E,
                homes: vec![100, 200, 300],
                direct: direct.to_vec()
            }
        );
        assert!(!is_clean(&head));
    }

    #[test]
    fn a_record_of_direct_homes_alone_is_not_clean() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 2, std::iter::empty(), payload_digest([]), &[(900, 1)]);
        assert!(!is_clean(&head));
        let parsed = parse_head(&head, 64).expect("valid header parses");
        assert_eq!((parsed.homes.len(), parsed.direct), (0, vec![(900, 1)]));
    }

    #[test]
    fn the_checksum_binds_the_direct_entries() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64].into_iter(), 1, &[(200, 0xAAAA)]);
        let mut other = head.clone();
        put_u64(&mut other, LOG_HEAD_BLOCKS_OFF + 4 + 4, 0xAAAB);
        assert!(parse_head(&other, 64).is_none(), "a changed direct checksum must not validate");
        put_u32(&mut head, LOG_HEAD_BLOCKS_OFF + 4, 201);
        assert!(parse_head(&head, 64).is_none(), "a changed direct home must not validate");
    }

    #[test]
    fn direct_entries_are_bounded_by_the_block() {
        // Every block of a record fits as a logged entry; max_direct of
        // them can be direct instead.
        for blocks in [1, 64, 256, 700, LOG_HEAD_MAX_ENTRIES] {
            let direct = max_direct(blocks).min(blocks);
            let entries: Vec<(u64, u64)> = (0..direct as u64).map(|i| (1000 + i, i)).collect();
            let mut head = vec![0u8; BSIZE];
            encode_head(
                &mut head,
                1,
                (0..(blocks - direct) as u32).map(|i| 5000 + u64::from(i)),
                1,
                &entries,
            );
            let parsed = parse_head(&head, LOG_HEAD_MAX_ENTRIES).expect("fits");
            assert_eq!((parsed.homes.len(), parsed.direct.len()), (blocks - direct, direct));
        }
        assert_eq!(max_direct(256), 380, "an xv6 region's 256 blocks may all go direct");
        // A count that claims more entries than the block holds.
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64].into_iter(), 1, &[]);
        put_u32(&mut head, LOG_HEAD_DIRECT_OFF, 400);
        let checksum = log_head_checksum(&head);
        put_u64(&mut head, LOG_HEAD_CHECKSUM_OFF, checksum);
        assert!(parse_head(&head, 1016).is_none());
    }

    #[test]
    fn direct_checksums_tell_blocks_apart() {
        let (a, b) = ([0xA5u8; BSIZE], [0x5Au8; BSIZE]);
        assert_eq!(direct_checksum(&a), direct_checksum(&a));
        assert_ne!(direct_checksum(&a), direct_checksum(&b));
        assert_ne!(direct_checksum(&a), payload_digest([&a[..]]), "seeds differ");
    }

    #[test]
    fn clear_parses_as_clean() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 3, [50u64].into_iter(), 1, &[(60, 2)]);
        encode_clear(&mut head, 3);
        assert!(is_clean(&head));
        assert!(parse_head(&head, 64).is_none());
        assert_eq!(get_u64(&head, LOG_HEAD_SEQ_OFF), 3, "sequence stays visible");
    }

    #[test]
    fn torn_record_is_rejected() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64, 200].into_iter(), 1, &[]);
        // Simulate a tear: one home entry changes after the checksum sealed.
        put_u32(&mut head, LOG_HEAD_BLOCKS_OFF, 999);
        assert!(parse_head(&head, 64).is_none());
    }

    #[test]
    fn the_checksum_binds_the_payload_digest() {
        let mut head = vec![0u8; BSIZE];
        encode_head(&mut head, 1, [100u64, 200].into_iter(), 0xAAAA, &[]);
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
        encode_head(&mut head, 1, (0..10u32).map(|i| 100 + u64::from(i)), 1, &[]);
        assert!(parse_head(&head, 4).is_none(), "count beyond region capacity");
        assert!(parse_head(&head, 10).is_some());
    }

    #[test]
    fn offsets_are_the_documented_layout() {
        assert_eq!(LOG_HEAD_COUNT_OFF, 0);
        assert_eq!(LOG_HEAD_DIRECT_OFF, 4);
        assert_eq!(LOG_HEAD_SEQ_OFF, 8);
        assert_eq!(LOG_HEAD_CHECKSUM_OFF, 16);
        assert_eq!(LOG_HEAD_DIGEST_OFF, 24);
        assert_eq!(LOG_HEAD_BLOCKS_OFF, 32);
    }
}
