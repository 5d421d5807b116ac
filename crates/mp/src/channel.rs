//! The link fault model: the one place every message-passing transport —
//! the threaded channels ([`crate::transport`]), the simulated network
//! ([`crate::simnet`]) and the TCP sockets ([`crate::socket`]) — decides
//! what happens to a message it sends.
//!
//! These are the §1 "communication faults" — all *detectable* per §2's
//! classification (a corrupted message carries a poisoned checksum, so the
//! receiver sees [`Delivery::Corrupted`] and can discard it; a lost message
//! is simply absent). Program MB's gossip-with-retransmission makes all of
//! them equivalent to transient loss.
//!
//! A `FaultyLink` makes four draws from its seeded RNG on every send, in
//! this order, whatever the earlier ones decided:
//!
//! 1. **loss** — the message is dropped, and the other three draws are void;
//! 2. **corruption** — the message arrives flagged [`Delivery::Corrupted`];
//! 3. **duplication** — a second copy follows;
//! 4. **reorder** — the message is parked in the link's one hold slot, if
//!    it is empty, and released after the next send's copy (a swap of
//!    adjacent messages) or by a flush when the link goes quiet.
//!
//! The surviving copies come back in a fixed order: this message, then the
//! released held one, then the duplicate. A transport only puts them on its
//! medium, so one seed gives every transport the same fault stream.

use ftbarrier_gcs::SimRng;

/// Per-message fault probabilities of a link. Building a link on any
/// transport panics, naming the field, on a probability outside `[0, 1]`
/// or NaN (`ChannelFaults.loss probability NaN out of range`).
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
                "ChannelFaults.{name} probability {p} out of range"
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

    /// What the receiver sees of a `(message, corrupted)` copy from
    /// [`FaultyLink::send`].
    pub(crate) fn of((msg, corrupted): (T, bool)) -> Delivery<T> {
        if corrupted {
            Delivery::Corrupted
        } else {
            Delivery::Ok(msg)
        }
    }
}

/// What one [`FaultyLink::send`] did. The flags after `lost` are false for
/// a lost message.
pub(crate) struct Sent<T> {
    pub lost: bool,
    pub corrupted: bool,
    pub duplicated: bool,
    /// The message went into the empty hold slot.
    pub held: bool,
    /// The `(message, corrupted)` copies to put on the medium, in order:
    /// this message, the released held one, the duplicate.
    copies: [Option<(T, bool)>; 3],
}

impl<T> Sent<T> {
    /// Hand each copy to `put`, in order.
    #[inline(always)]
    pub(crate) fn for_each(self, mut put: impl FnMut((T, bool))) {
        // Unrolled by hand: a loop over the array made the simulated
        // network's whole send path about 10% slower.
        let [first, released, duplicate] = self.copies;
        if let Some(copy) = first {
            put(copy);
        }
        if let Some(copy) = released {
            put(copy);
        }
        if let Some(copy) = duplicate {
            put(copy);
        }
    }
}

/// The send-time fault model of one unidirectional link: its
/// probabilities, its RNG and its hold slot.
pub(crate) struct FaultyLink<T> {
    faults: ChannelFaults,
    rng: SimRng,
    /// A copy held back for reordering (swapped with the next send).
    held: Option<(T, bool)>,
}

impl<T: Clone> FaultyLink<T> {
    /// Panics, naming the field, on a probability outside `[0, 1]` or NaN.
    pub(crate) fn new(faults: ChannelFaults, rng: SimRng) -> FaultyLink<T> {
        faults.validate();
        FaultyLink {
            faults,
            rng,
            held: None,
        }
    }

    /// Draw the faults of one send of `msg`.
    #[inline(always)]
    pub(crate) fn send(&mut self, msg: T) -> Sent<T> {
        let f = self.faults;
        let [lost, corrupted, duplicated, hold] =
            [f.loss, f.corruption, f.duplication, f.reorder].map(|p| self.rng.chance(p));
        if lost {
            return Sent {
                lost,
                corrupted: false,
                duplicated: false,
                held: false,
                copies: [None, None, None],
            };
        }
        let copy = (msg, corrupted);
        let dup = duplicated.then(|| copy.clone());
        let held = hold && self.held.is_none();
        let (first, released) = if held {
            self.held = Some(copy);
            (None, None)
        } else {
            (Some(copy), self.held.take())
        };
        Sent {
            lost,
            corrupted,
            duplicated,
            held,
            copies: [first, released, dup],
        }
    }

    /// Empty the hold slot — call when the link goes quiet, and put the
    /// copy it returns on the medium (or drop it, for a cut link).
    pub(crate) fn flush(&mut self) -> Option<(T, bool)> {
        self.held.take()
    }

    /// The copy in the hold slot, still on the sender's side of the link.
    pub(crate) fn held_mut(&mut self) -> Option<&mut (T, bool)> {
        self.held.as_mut()
    }

    /// The link's RNG, for a transport's own draws after the fault draws.
    pub(crate) fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(faults: ChannelFaults, seed: u64) -> FaultyLink<u32> {
        FaultyLink::new(faults, SimRng::seed_from_u64(seed))
    }

    /// What the receiver sees of one send, in order.
    fn send(link: &mut FaultyLink<u32>, msg: u32) -> Vec<Delivery<u32>> {
        let mut got = Vec::new();
        link.send(msg).for_each(|copy| got.push(Delivery::of(copy)));
        got
    }

    fn flush(link: &mut FaultyLink<u32>) -> Vec<Delivery<u32>> {
        link.flush().into_iter().map(Delivery::of).collect()
    }

    /// Send `msgs`, then flush: everything the receiver sees, in order.
    fn run(link: &mut FaultyLink<u32>, msgs: impl IntoIterator<Item = u32>) -> Vec<Delivery<u32>> {
        let mut got: Vec<_> = msgs.into_iter().flat_map(|m| send(link, m)).collect();
        got.extend(flush(link));
        got
    }

    fn intact(got: Vec<Delivery<u32>>) -> Vec<u32> {
        got.into_iter().filter_map(Delivery::ok).collect()
    }

    #[test]
    fn perfect_link_delivers_in_order() {
        let got = run(&mut link(ChannelFaults::NONE, 1), 0..100);
        assert_eq!(intact(got), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn loss_rate_is_respected() {
        let faults = ChannelFaults {
            loss: 0.5,
            ..ChannelFaults::NONE
        };
        let got = run(&mut link(faults, 7), 0..10_000).len();
        assert!(
            (4000..6000).contains(&got),
            "got {got} of 10000 at 50% loss"
        );
    }

    #[test]
    fn duplication_inflates_count() {
        let faults = ChannelFaults {
            duplication: 0.5,
            ..ChannelFaults::NONE
        };
        let got = run(&mut link(faults, 7), 0..10_000).len();
        assert!((14_000..16_000).contains(&got), "got {got}");
    }

    #[test]
    fn corruption_is_detectable() {
        let faults = ChannelFaults {
            corruption: 1.0,
            ..ChannelFaults::NONE
        };
        let mut l = link(faults, 7);
        assert_eq!(send(&mut l, 42), vec![Delivery::Corrupted]);
        assert_eq!(flush(&mut l), vec![]);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let faults = ChannelFaults {
            reorder: 1.0,
            ..ChannelFaults::NONE
        };
        // With reorder=1, the first message is held; the second send parks
        // nothing new (held is occupied) and releases the first afterwards.
        assert_eq!(intact(run(&mut link(faults, 7), [1, 2])), vec![2, 1]);
    }

    #[test]
    fn flush_releases_held_message() {
        let faults = ChannelFaults {
            reorder: 1.0,
            ..ChannelFaults::NONE
        };
        let mut l = link(faults, 7);
        assert_eq!(send(&mut l, 9), vec![], "message is parked");
        assert_eq!(flush(&mut l), vec![Delivery::Ok(9)]);
    }

    #[test]
    fn all_messages_conserved_without_loss() {
        // dup + corruption + reorder but no loss: every send yields >= 1
        // delivery.
        let faults = ChannelFaults {
            loss: 0.0,
            duplication: 0.3,
            corruption: 0.3,
            reorder: 0.3,
        };
        let n = 5000;
        let got = run(&mut link(faults, 11), 0..n);
        assert!(got.len() >= n as usize, "got {} < {n}", got.len());
    }

    #[test]
    fn flush_on_quiet_link_with_nothing_held_is_a_no_op() {
        let faults = ChannelFaults {
            reorder: 1.0,
            ..ChannelFaults::NONE
        };
        let mut l = link(faults, 7);
        // Nothing held yet: flush delivers nothing.
        assert_eq!(flush(&mut l), vec![]);
        assert_eq!(send(&mut l, 9), vec![]);
        assert_eq!(
            flush(&mut l),
            vec![Delivery::Ok(9)],
            "flush releases the held message"
        );
        // Held slot is now empty again: flushing twice is harmless.
        assert_eq!(flush(&mut l), vec![]);
    }

    #[test]
    fn duplication_and_reorder_can_hit_the_same_message() {
        let faults = ChannelFaults {
            duplication: 1.0,
            reorder: 1.0,
            ..ChannelFaults::NONE
        };
        let mut l = link(faults, 7);
        // send(1): the original is parked for reordering but its duplicate
        // goes out immediately — the receiver sees a copy of a message that
        // is still "in flight".
        assert_eq!(send(&mut l, 1), vec![Delivery::Ok(1)]);
        // send(2): held slot is occupied, so 2 goes out, releases the parked
        // 1 behind it, and 2's duplicate follows.
        assert_eq!(intact(send(&mut l, 2)), vec![2, 1, 2]);
        assert_eq!(flush(&mut l), vec![], "nothing left in the held slot");
    }

    #[test]
    fn corruption_always_surfaces_as_corrupted_never_as_a_wrong_payload() {
        // Statistical check over a seeded run: with corruption the only
        // fault, every send is delivered exactly once, each delivery is
        // either the intact payload or an explicit `Corrupted` marker, and
        // no payload is ever altered in flight.
        let p = 0.3;
        let n: u32 = 10_000;
        let faults = ChannelFaults {
            corruption: p,
            ..ChannelFaults::NONE
        };
        let got = run(&mut link(faults, 0xC0FFEE), 0..n);
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
    #[should_panic(expected = "ChannelFaults.loss probability 1.5 out of range")]
    fn rejects_bad_probability() {
        let _ = link(
            ChannelFaults {
                loss: 1.5,
                ..ChannelFaults::NONE
            },
            0,
        );
    }
}
