//! Pinning the run to one CPU.
//!
//! Every untraced pass has one runnable thread at a time: the client, or —
//! on FUSE, a strict ping-pong — the one daemon worker serving it.  Left to
//! the scheduler, that hand-off is bimodal in this kind of VM: same-CPU
//! context switches cost `mail_sync` on FUSE about 55 us of software time
//! per op, cross-CPU wake-ups of a halted vCPU about 370 us, and the mode
//! flips every few seconds.  One CPU makes the hand-off a plain context
//! switch every time and keeps the other CPU free for the rest of the
//! machine.  `std` has no affinity call, so this asks libc, which `std`
//! already links.

/// Bits of the CPU mask handed to the kernel (glibc's `cpu_set_t`).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set_mask(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed; the kernel
    // only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// Restores the calling thread's CPU mask when dropped.
pub struct Pinned {
    previous: Option<[u64; MASK_WORDS]>,
}

/// Pins the calling thread — and every thread it spawns from now on — to
/// the highest-numbered CPU it may run on (CPU 0 takes most interrupts).
/// Does nothing where the kernel refuses; the run is then merely noisier.
pub fn pin_to_one_cpu() -> Pinned {
    let Some(previous) = get_mask() else {
        return Pinned { previous: None };
    };
    let mut one = [0u64; MASK_WORDS];
    if let Some(word) = previous.iter().rposition(|&w| w != 0) {
        one[word] = 1u64 << (63 - previous[word].leading_zeros());
    }
    Pinned { previous: set_mask(&one).then_some(previous) }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            set_mask(previous);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_unpinning_restores_the_mask() {
        let before = get_mask().expect("linux reports an affinity mask");
        {
            let _pinned = pin_to_one_cpu();
            let during = get_mask().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        assert_eq!(get_mask().unwrap(), before);
    }
}
