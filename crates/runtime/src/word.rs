//! Checksummed, shadow-backed atomic words.
//!
//! Every shared word of the barrier (arrival slots, the release word, the
//! phase word) is packed as `[epoch:48][payload:8][checksum:8]`. The
//! checksum turns most memory corruption into a *detectable* fault: a reader
//! that finds an ill-formed word repairs it from a mutex-guarded shadow
//! written alongside every legitimate store. Corruption that happens to
//! forge a well-formed word is *undetectable* — the barrier's epoch
//! discipline bounds its damage (see crate docs).

use crate::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub const EPOCH_BITS: u32 = 48;
pub const EPOCH_MAX: u64 = (1 << EPOCH_BITS) - 1;

/// Mix function for the 8-bit checksum (xor-folded multiply).
fn checksum(epoch: u64, payload: u8) -> u8 {
    let x = (epoch << 8 | payload as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = x ^ (x >> 32);
    let x = x ^ (x >> 16);
    ((x ^ (x >> 8)) & 0xFF) as u8
}

/// Pack `(epoch, payload)` into a checksummed word.
pub fn pack(epoch: u64, payload: u8) -> u64 {
    assert!(epoch <= EPOCH_MAX, "epoch overflow");
    (epoch << 16) | ((payload as u64) << 8) | checksum(epoch, payload) as u64
}

/// Unpack and verify; `None` means the word is corrupted (detectably).
pub fn unpack(word: u64) -> Option<(u64, u8)> {
    let epoch = word >> 16;
    let payload = ((word >> 8) & 0xFF) as u8;
    if checksum(epoch, payload) as u64 == word & 0xFF {
        Some((epoch, payload))
    } else {
        None
    }
}

/// An atomic word with a shadow copy for corruption repair.
pub struct CheckedWord {
    atomic: AtomicU64,
    shadow: Mutex<u64>,
}

impl CheckedWord {
    pub fn new(epoch: u64, payload: u8) -> CheckedWord {
        let w = pack(epoch, payload);
        CheckedWord {
            atomic: AtomicU64::new(w),
            shadow: Mutex::new(w),
        }
    }

    /// Legitimate store: shadow first, then the atomic (release ordering).
    pub fn store(&self, epoch: u64, payload: u8) {
        let w = pack(epoch, payload);
        *lock(&self.shadow) = w;
        self.atomic.store(w, Ordering::Release);
    }

    /// Read, repairing detectable corruption from the shadow. Never blocks
    /// on the mutex in the fast path.
    pub fn load(&self) -> (u64, u8) {
        loop {
            let raw = self.atomic.load(Ordering::Acquire);
            if let Some(v) = unpack(raw) {
                return v;
            }
            // Detected corruption: restore the last legitimate word. CAS so
            // a racing legitimate store is never clobbered.
            let shadow = *lock(&self.shadow);
            let _ = self
                .atomic
                .compare_exchange(raw, shadow, Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// Fault injection: scribble the raw atomic (bypassing the shadow), as
    /// memory corruption would.
    pub fn corrupt(&self, raw: u64) {
        self.atomic.store(raw, Ordering::Release);
    }

    /// Raw view (tests).
    pub fn raw(&self) -> u64 {
        self.atomic.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for epoch in [0u64, 1, 47, 1 << 20, EPOCH_MAX] {
            for payload in [0u8, 1, 2, 3, 255] {
                assert_eq!(unpack(pack(epoch, payload)), Some((epoch, payload)));
            }
        }
    }

    #[test]
    fn detects_bit_flips() {
        let w = pack(1234, 2);
        let mut detected = 0;
        for bit in 0..64 {
            if unpack(w ^ (1 << bit)).is_none() {
                detected += 1;
            }
        }
        // A single bit flip is essentially always detected (the checksum
        // covers all bits).
        assert!(
            detected >= 60,
            "only {detected}/64 single-bit flips detected"
        );
    }

    #[test]
    #[should_panic]
    fn epoch_overflow_panics() {
        let _ = pack(EPOCH_MAX + 1, 0);
    }

    #[test]
    fn store_load_roundtrip() {
        let w = CheckedWord::new(0, 0);
        w.store(7, 1);
        assert_eq!(w.load(), (7, 1));
    }

    #[test]
    fn corruption_is_repaired_from_shadow() {
        let w = CheckedWord::new(5, 2);
        w.corrupt(0xDEAD_BEEF_0BAD_F00D);
        // If by chance the scribble is well-formed this test would be
        // vacuous; assert it is not.
        assert!(unpack(0xDEAD_BEEF_0BAD_F00D).is_none());
        assert_eq!(w.load(), (5, 2), "load must repair to the shadow value");
        assert_eq!(unpack(w.raw()), Some((5, 2)), "the atomic itself is healed");
    }

    #[test]
    fn repair_does_not_clobber_concurrent_store() {
        // Simulate: reader observes corruption, then a legitimate store
        // lands, then the reader's CAS must fail and the new value win.
        let w = CheckedWord::new(1, 0);
        let bad = 0xFFFF_FFFF_FFFF_FFFF;
        assert!(unpack(bad).is_none());
        w.corrupt(bad);
        w.store(2, 1); // legitimate store wins the race
        assert_eq!(w.load(), (2, 1));
    }

    #[test]
    fn concurrent_hammering() {
        use std::sync::Arc;
        let w = Arc::new(CheckedWord::new(0, 0));
        let mut handles = Vec::new();
        // One writer advancing epochs, two corruptors, two readers.
        {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for e in 1..2000 {
                    w.store(e, (e % 3) as u8);
                }
            }));
        }
        for seed in 0..2u64 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    let mut raw = i.wrapping_mul(seed + 3) | 1;
                    if unpack(raw).is_some() {
                        // Force detectability: flipping the checksum byte of
                        // a well-formed word always invalidates it.
                        raw ^= 0xFF;
                    }
                    w.corrupt(raw);
                    std::hint::spin_loop();
                }
            }));
        }
        for _ in 0..2 {
            let w = Arc::clone(&w);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    let (e, p) = w.load();
                    // Every observed value is well-formed and consistent.
                    assert!(e < 2000);
                    assert!(p <= 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
