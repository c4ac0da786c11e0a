//! Dual-slot checkpoint records: the second commit-record format the
//! workspace's stacks write, shared here for the same reason as
//! [`crate::record`].
//!
//! ext4sim keeps its metadata in memory and checkpoints it wholesale.  The
//! crash-safe scheme is two alternating *slots*, each holding a length- and
//! checksum-sealed body with the header block written *after* the body:
//! mount picks the highest-sequence valid slot, so a crash that tears the
//! newest checkpoint falls back to the previous one.  This module owns the
//! slot geometry, the header byte layout, and the torn-slot rejection;
//! callers serialize/deserialize the body and decide when to barrier.
//!
//! Header block layout (little-endian `u64`s):
//!
//! | offset | field                       |
//! |-------:|-----------------------------|
//! |      0 | magic                       |
//! |      8 | sequence number             |
//! |     16 | body length in bytes        |
//! |     24 | `digest64` of the body       |

use simkernel::dev::BlockDevice;
use simkernel::error::{Errno, KernelError, KernelResult};
use simkernel::hash::digest64;

/// Digest seed of checkpoint bodies (distinct from the commit record's).
const BODY_SEED: u64 = 0x6a6f_7572_6e61_6c43; // "journalC"

/// Geometry and identity of a two-slot checkpoint area on a device.
#[derive(Debug, Clone, Copy)]
pub struct DualSlotCheckpoint {
    /// First block of the checkpoint area (slot 0's header block).
    pub area_start: u64,
    /// Blocks per slot (header block + body blocks); the area spans
    /// `2 * slot_blocks`.
    pub slot_blocks: u64,
    /// Device block size in bytes.
    pub block_size: usize,
    /// Magic value identifying a slot header of this format.
    pub magic: u64,
}

impl DualSlotCheckpoint {
    /// Largest body (in bytes) one slot can hold.
    pub fn max_body_len(&self) -> usize {
        (self.slot_blocks as usize - 1) * self.block_size
    }

    /// Header block of `slot` (0 or 1).
    pub fn slot_start(&self, slot: u64) -> u64 {
        self.area_start + slot * self.slot_blocks
    }

    /// Writes checkpoint `seq` into the slot `seq % 2` (the slot *not*
    /// holding the previous checkpoint): body blocks first, the sealed
    /// header last, so recovery can always tell a complete checkpoint from
    /// a torn one and fall back.  The caller is responsible for the
    /// surrounding barrier; this function does not flush.
    ///
    /// # Errors
    ///
    /// [`Errno::NoSpc`] if `body` exceeds
    /// [`DualSlotCheckpoint::max_body_len`]; propagates device errors.
    pub fn write(&self, dev: &dyn BlockDevice, seq: u64, body: &[u8]) -> KernelResult<()> {
        if body.len() > self.max_body_len() {
            return Err(KernelError::with_context(Errno::NoSpc, "journal: checkpoint area full"));
        }
        let slot_start = self.slot_start(seq % 2);
        for (i, chunk) in body.chunks(self.block_size).enumerate() {
            let mut buf = vec![0u8; self.block_size];
            buf[..chunk.len()].copy_from_slice(chunk);
            dev.write_block(slot_start + 1 + i as u64, &buf)?;
        }
        let mut header = vec![0u8; self.block_size];
        header[..8].copy_from_slice(&self.magic.to_le_bytes());
        header[8..16].copy_from_slice(&seq.to_le_bytes());
        header[16..24].copy_from_slice(&(body.len() as u64).to_le_bytes());
        header[24..32].copy_from_slice(&digest64(BODY_SEED, body).to_le_bytes());
        dev.write_block(slot_start, &header)
    }

    /// Reads one slot's checkpoint; `None` if the slot is absent (wrong
    /// magic), carries an impossible length, or is torn (the body checksum
    /// does not match the sealed header — the header persisted but part of
    /// the body did not, or vice versa; the other slot is authoritative).
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn load_slot(
        &self,
        dev: &dyn BlockDevice,
        slot: u64,
    ) -> KernelResult<Option<(u64, Vec<u8>)>> {
        let slot_start = self.slot_start(slot);
        let mut header = vec![0u8; self.block_size];
        dev.read_block(slot_start, &mut header)?;
        let field =
            |i: usize| u64::from_le_bytes(header[i * 8..(i + 1) * 8].try_into().expect("u64"));
        if field(0) != self.magic {
            return Ok(None);
        }
        let (seq, len, checksum) = (field(1), field(2) as usize, field(3));
        if len == 0 || len > self.max_body_len() {
            return Ok(None);
        }
        let mut body = Vec::with_capacity(len);
        let mut block = slot_start + 1;
        while body.len() < len {
            let mut buf = vec![0u8; self.block_size];
            dev.read_block(block, &mut buf)?;
            let take = (len - body.len()).min(self.block_size);
            body.extend_from_slice(&buf[..take]);
            block += 1;
        }
        if digest64(BODY_SEED, &body) != checksum {
            return Ok(None);
        }
        Ok(Some((seq, body)))
    }

    /// Reads the newest valid checkpoint across both slots — the torn-slot
    /// fallback: a torn or absent slot simply loses to the other one.
    /// Returns `None` when neither slot holds a valid checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn load_newest(&self, dev: &dyn BlockDevice) -> KernelResult<Option<(u64, Vec<u8>)>> {
        let mut best: Option<(u64, Vec<u8>)> = None;
        for slot in 0..2 {
            if let Some((seq, body)) = self.load_slot(dev, slot)? {
                if best.as_ref().is_none_or(|(best_seq, _)| seq > *best_seq) {
                    best = Some((seq, body));
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::dev::RamDisk;
    use std::sync::Arc;

    fn layout() -> DualSlotCheckpoint {
        DualSlotCheckpoint { area_start: 8, slot_blocks: 4, block_size: 4096, magic: 0xC0FFEE }
    }

    fn disk() -> Arc<RamDisk> {
        Arc::new(RamDisk::new(4096, 64))
    }

    #[test]
    fn write_load_roundtrip_alternates_slots() {
        let (cp, dev) = (layout(), disk());
        cp.write(&*dev, 1, b"first checkpoint").unwrap();
        cp.write(&*dev, 2, b"second, longer checkpoint body").unwrap();
        // Both slots are valid; the newest wins.
        let (seq, body) = cp.load_newest(&*dev).unwrap().unwrap();
        assert_eq!(seq, 2);
        assert_eq!(body, b"second, longer checkpoint body");
        // Slot 1 still holds seq 1 intact.
        let (seq1, body1) = cp.load_slot(&*dev, 1).unwrap().unwrap();
        assert_eq!((seq1, body1.as_slice()), (1, b"first checkpoint".as_slice()));
    }

    #[test]
    fn torn_body_falls_back_to_previous_slot() {
        let (cp, dev) = (layout(), disk());
        cp.write(&*dev, 1, b"old state").unwrap();
        cp.write(&*dev, 2, &vec![0x5A; 5000]).unwrap();
        // Tear the newest checkpoint's second body block.
        let mut block = vec![0u8; 4096];
        dev.read_block(cp.slot_start(0) + 2, &mut block).unwrap();
        block[0] ^= 0xFF;
        dev.write_block(cp.slot_start(0) + 2, &block).unwrap();
        let (seq, body) = cp.load_newest(&*dev).unwrap().unwrap();
        assert_eq!(seq, 1, "torn slot must lose to the intact one");
        assert_eq!(body, b"old state");
    }

    #[test]
    fn empty_area_and_oversized_body_are_rejected() {
        let (cp, dev) = (layout(), disk());
        assert!(cp.load_newest(&*dev).unwrap().is_none());
        let too_big = vec![0u8; cp.max_body_len() + 1];
        assert_eq!(cp.write(&*dev, 1, &too_big).unwrap_err().errno(), Errno::NoSpc);
    }

    #[test]
    fn bogus_length_is_rejected() {
        let (cp, dev) = (layout(), disk());
        cp.write(&*dev, 1, b"victim").unwrap();
        // Corrupt the sealed length beyond the slot capacity.
        let mut header = vec![0u8; 4096];
        dev.read_block(cp.slot_start(1), &mut header).unwrap();
        header[16..24].copy_from_slice(&(u64::MAX).to_le_bytes());
        dev.write_block(cp.slot_start(1), &header).unwrap();
        assert!(cp.load_slot(&*dev, 1).unwrap().is_none());
    }
}
