//! Faulty channels: unidirectional links that lose, duplicate, reorder, and
//! detectably corrupt messages, with configurable per-message probabilities.
//!
//! These are the §1 "communication faults" — all *detectable* per §2's
//! classification (a corrupted message carries a poisoned checksum, so the
//! receiver sees [`Delivery::Corrupted`] and can discard it; a lost message
//! is simply absent). Program MB's gossip-with-retransmission makes all of
//! them equivalent to transient loss.

use ftbarrier_gcs::SimRng;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-message fault probabilities of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFaults {
    /// Message silently dropped.
    pub loss: f64,
    /// Message delivered twice.
    pub duplication: f64,
    /// Message delivered with a detectable corruption flag.
    pub corruption: f64,
    /// Message swapped with the next message sent on the link.
    pub reorder: f64,
}

impl ChannelFaults {
    /// A perfect link.
    pub const NONE: ChannelFaults = ChannelFaults {
        loss: 0.0,
        duplication: 0.0,
        corruption: 0.0,
        reorder: 0.0,
    };

    /// A nasty link for stress tests.
    pub fn nasty() -> ChannelFaults {
        ChannelFaults {
            loss: 0.2,
            duplication: 0.1,
            corruption: 0.1,
            reorder: 0.1,
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("loss", self.loss),
            ("duplication", self.duplication),
            ("corruption", self.corruption),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability {p} out of range"
            );
        }
    }
}

/// What the receiver observes for one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery<T> {
    /// Intact payload.
    Ok(T),
    /// The message arrived but its integrity check failed — a *detectable*
    /// corruption; the payload is withheld.
    Corrupted,
}

impl<T> Delivery<T> {
    pub fn ok(self) -> Option<T> {
        match self {
            Delivery::Ok(t) => Some(t),
            Delivery::Corrupted => None,
        }
    }
}

/// Sending half of a faulty link. Fault decisions are made at send time from
/// a seeded RNG, so a single-threaded test is fully reproducible.
pub struct FaultySender<T> {
    tx: Sender<Delivery<T>>,
    faults: ChannelFaults,
    rng: Mutex<SimRng>,
    /// A message held back for reordering (swapped with the next send).
    held: Mutex<Option<Delivery<T>>>,
}

/// Receiving half of a faulty link.
pub struct FaultyReceiver<T> {
    rx: Receiver<Delivery<T>>,
}

/// Lock `m`, taking the guard even if a thread panicked while holding it:
/// a panic elsewhere must not turn a send into a second panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Create a faulty link.
pub fn faulty_channel<T: Clone>(
    faults: ChannelFaults,
    seed: u64,
) -> (FaultySender<T>, FaultyReceiver<T>) {
    faults.validate();
    let (tx, rx) = mpsc::channel();
    (
        FaultySender {
            tx,
            faults,
            rng: Mutex::new(SimRng::seed_from_u64(seed)),
            held: Mutex::new(None),
        },
        FaultyReceiver { rx },
    )
}

impl<T: Clone> FaultySender<T> {
    /// Send a message through the fault model. Returns `false` if the
    /// receiver is gone.
    pub fn send(&self, msg: T) -> bool {
        let mut rng = lock(&self.rng);
        if rng.chance(self.faults.loss) {
            return true; // silently dropped
        }
        let delivery = if rng.chance(self.faults.corruption) {
            Delivery::Corrupted
        } else {
            Delivery::Ok(msg)
        };
        let duplicate = rng.chance(self.faults.duplication);
        let hold = rng.chance(self.faults.reorder);
        drop(rng);

        // Reordering: park this message; release any previously held one
        // after the next send (a swap of adjacent messages).
        let mut to_send: Vec<Delivery<T>> = Vec::with_capacity(3);
        {
            let mut held = lock(&self.held);
            if hold && held.is_none() {
                *held = Some(delivery.clone());
            } else {
                to_send.push(delivery.clone());
                if let Some(prev) = held.take() {
                    to_send.push(prev);
                }
            }
        }
        if duplicate {
            to_send.push(delivery);
        }
        for d in to_send {
            if self.tx.send(d).is_err() {
                return false;
            }
        }
        true
    }

    /// Flush a held (reordered) message — call when a link goes quiet.
    pub fn flush(&self) -> bool {
        if let Some(prev) = lock(&self.held).take() {
            return self.tx.send(prev).is_ok();
        }
        true
    }
}

impl<T> FaultyReceiver<T> {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Delivery<T>> {
        match self.rx.try_recv() {
            Ok(d) => Some(d),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Delivery<T>> {
        let mut out = Vec::new();
        while let Some(d) = self.try_recv() {
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_link_delivers_in_order() {
        let (tx, rx) = faulty_channel::<u32>(ChannelFaults::NONE, 1);
        for i in 0..100 {
            assert!(tx.send(i));
        }
        let got: Vec<u32> = rx.drain().into_iter().filter_map(Delivery::ok).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn loss_rate_is_respected() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                loss: 0.5,
                ..ChannelFaults::NONE
            },
            7,
        );
        for i in 0..10_000 {
            tx.send(i);
        }
        let got = rx.drain().len();
        assert!(
            (4000..6000).contains(&got),
            "got {got} of 10000 at 50% loss"
        );
    }

    #[test]
    fn duplication_inflates_count() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                duplication: 0.5,
                ..ChannelFaults::NONE
            },
            7,
        );
        for i in 0..10_000 {
            tx.send(i);
        }
        let got = rx.drain().len();
        assert!((14_000..16_000).contains(&got), "got {got}");
    }

    #[test]
    fn corruption_is_detectable() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                corruption: 1.0,
                ..ChannelFaults::NONE
            },
            7,
        );
        tx.send(42);
        assert_eq!(rx.try_recv(), Some(Delivery::Corrupted));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            7,
        );
        // With reorder=1, the first message is held; the second send parks
        // nothing new (held is occupied) and releases the first afterwards.
        tx.send(1);
        tx.send(2);
        tx.flush();
        let got: Vec<u32> = rx.drain().into_iter().filter_map(Delivery::ok).collect();
        assert_eq!(got, vec![2, 1]);
    }

    #[test]
    fn flush_releases_held_message() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            7,
        );
        tx.send(9);
        assert_eq!(rx.try_recv(), None, "message is parked");
        tx.flush();
        assert_eq!(rx.try_recv(), Some(Delivery::Ok(9)));
    }

    #[test]
    fn all_messages_conserved_without_loss() {
        // dup + corruption + reorder but no loss: every send yields >= 1
        // delivery.
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                loss: 0.0,
                duplication: 0.3,
                corruption: 0.3,
                reorder: 0.3,
            },
            11,
        );
        let n = 5000;
        for i in 0..n {
            tx.send(i);
        }
        tx.flush();
        let got = rx.drain();
        assert!(got.len() >= n as usize, "got {} < {n}", got.len());
    }

    #[test]
    fn flush_on_quiet_link_with_nothing_held_is_a_no_op() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            7,
        );
        // Nothing held yet: flush must succeed and deliver nothing.
        assert!(tx.flush());
        assert_eq!(rx.try_recv(), None);
        tx.send(9);
        assert!(tx.flush(), "flush releases the held message");
        assert_eq!(rx.try_recv(), Some(Delivery::Ok(9)));
        // Held slot is now empty again: flushing twice is harmless.
        assert!(tx.flush());
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn duplication_and_reorder_can_hit_the_same_message() {
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                duplication: 1.0,
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            7,
        );
        // send(1): the original is parked for reordering but its duplicate
        // goes out immediately — the receiver sees a copy of a message that
        // is still "in flight".
        tx.send(1);
        assert_eq!(rx.drain(), vec![Delivery::Ok(1)]);
        // send(2): held slot is occupied, so 2 goes out, releases the parked
        // 1 behind it, and 2's duplicate follows.
        tx.send(2);
        let got: Vec<u32> = rx.drain().into_iter().filter_map(Delivery::ok).collect();
        assert_eq!(got, vec![2, 1, 2]);
        assert!(tx.flush());
        assert_eq!(rx.try_recv(), None, "nothing left in the held slot");
    }

    #[test]
    fn corruption_always_surfaces_as_corrupted_never_as_a_wrong_payload() {
        // Statistical check over a seeded run: with corruption the only
        // fault, every send is delivered exactly once, each delivery is
        // either the intact payload or an explicit `Corrupted` marker, and
        // no payload is ever altered in flight.
        let p = 0.3;
        let n: u32 = 10_000;
        let (tx, rx) = faulty_channel::<u32>(
            ChannelFaults {
                corruption: p,
                ..ChannelFaults::NONE
            },
            0xC0FFEE,
        );
        for i in 0..n {
            tx.send(i);
        }
        let got = rx.drain();
        assert_eq!(got.len(), n as usize, "no loss, dup, or reorder configured");
        let mut corrupted = 0u32;
        let mut expected = 0u32;
        for d in got {
            match d {
                Delivery::Corrupted => corrupted += 1,
                Delivery::Ok(v) => {
                    // Intact deliveries appear in order and are drawn only
                    // from the sent values — corruption withholds a payload,
                    // it never substitutes one.
                    while expected != v {
                        assert!(expected < v, "payload {v} was never sent intact");
                        expected += 1;
                    }
                    expected += 1;
                }
            }
        }
        let expected_corrupted = (n as f64 * p) as u32;
        assert!(
            corrupted.abs_diff(expected_corrupted) < n / 20,
            "corrupted {corrupted} of {n} at p={p}"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_bad_probability() {
        let _ = faulty_channel::<u32>(
            ChannelFaults {
                loss: 1.5,
                ..ChannelFaults::NONE
            },
            0,
        );
    }
}
