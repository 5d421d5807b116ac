//! Seeded discrete-event simulated network.
//!
//! A [`SimNet`] is a set of unidirectional links, each carrying messages
//! through the link fault model of [`crate::channel`] and a latency model,
//! plus *link partitions*: while a link is partitioned every send on it is
//! dropped; healing restores it (retransmission masks the gap as loss,
//! exactly the §5 argument).
//!
//! Event model: `send` stamps each surviving copy of the message with a
//! delivery time `now + latency`, the latency drawn from the link's RNG
//! after its fault draws, and pushes it on one global queue keyed
//! `(Time, seq)` with `seq` a monotone counter, packed into one integer
//! (the message waits in a slab beside the queue), so the delivery order
//! is a pure function of the seed — no hashing, no wall clock. The driver
//! alternates between `next_event_time` and `advance_to`, which moves due
//! messages into per-link inboxes in deterministic order. Once the queue,
//! the slab, the inboxes and the driver's `advance_to` buffer have grown to
//! the run's working size, neither a send nor a delivery allocates.

use crate::channel::{ChannelFaults, Delivery, FaultyLink};
use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_telemetry::{EventId, Telemetry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-message latency of a link, in virtual time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(f64),
    /// Uniformly distributed in `[lo, hi)` — jitter, a second (physical)
    /// source of reordering on top of the fault model's hold-and-swap.
    Uniform { lo: f64, hi: f64 },
}

impl LatencyModel {
    fn validate(&self) {
        match *self {
            LatencyModel::Fixed(l) => {
                assert!(l.is_finite() && l >= 0.0, "latency {l} out of range")
            }
            LatencyModel::Uniform { lo, hi } => {
                assert!(
                    lo.is_finite() && lo >= 0.0 && hi >= lo,
                    "latency range [{lo}, {hi}) invalid"
                );
            }
        }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            LatencyModel::Fixed(l) => l,
            LatencyModel::Uniform { lo, hi } => {
                if hi > lo {
                    lo + rng.unit() * (hi - lo)
                } else {
                    lo
                }
            }
        }
    }
}

/// Configuration of one simulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    pub latency: LatencyModel,
    pub faults: ChannelFaults,
}

impl LinkConfig {
    /// A perfect link with the given fixed latency.
    pub fn perfect(latency: f64) -> LinkConfig {
        LinkConfig {
            latency: LatencyModel::Fixed(latency),
            faults: ChannelFaults::NONE,
        }
    }
}

/// Aggregate traffic counters of a [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    pub sent: u64,
    pub delivered: u64,
    pub lost: u64,
    pub corrupted: u64,
    pub duplicated: u64,
    pub held: u64,
    /// Sends swallowed by a partitioned link.
    pub blocked: u64,
}

struct Link<T> {
    latency: LatencyModel,
    /// The fault model of the message and its causal tag; its RNG draws the
    /// latencies too.
    faults: FaultyLink<(T, Option<EventId>)>,
    partitioned: bool,
    inbox: VecDeque<(Delivery<T>, Option<EventId>)>,
}

/// A queue key ordering events by time, then by a monotone sequence number:
/// `time bits << 64 | seq`. A [`Time`] is finite and non-negative, so its
/// bits order like its value, and one integer compare orders two events.
pub(crate) fn event_key(at: Time, seq: u64) -> u128 {
    // `+ 0.0` turns a -0.0, which `Time::new` admits, into the 0.0 whose
    // bits order first.
    u128::from((at.as_f64() + 0.0).to_bits()) << 64 | u128::from(seq)
}

/// The time of an [`event_key`].
pub(crate) fn key_time(key: u128) -> Time {
    Time::new(f64::from_bits((key >> 64) as u64))
}

struct InFlight<T> {
    link: usize,
    /// When the message entered the queue — for delivery-latency telemetry
    /// only; not part of the event order.
    sent_at: Time,
    delivery: Delivery<T>,
    /// The sender's last causal event at send time — rides every fault
    /// transformation (duplicates share it, corruption keeps it) so a
    /// delivery edge names the exact send that produced it.
    tag: Option<EventId>,
}

/// The simulated network: links, one event queue, one seed.
pub struct SimNet<T> {
    links: Vec<Link<T>>,
    /// `(event_key(at, seq), slot)` of every message in flight.
    queue: BinaryHeap<Reverse<(u128, u32)>>,
    /// The messages in flight, by slot; `free` lists the empty slots.
    slab: Vec<Option<InFlight<T>>>,
    free: Vec<u32>,
    seq: u64,
    now: Time,
    stats: NetStats,
    telemetry: Telemetry,
    /// Pre-rendered per-link label values (avoids formatting per event).
    link_labels: Vec<String>,
}

impl<T: Clone> SimNet<T> {
    /// One entry in `links` per unidirectional link; all fault/latency
    /// randomness is forked from `seed`. Panics, naming the field, on a
    /// fault probability outside `[0, 1]` or NaN.
    pub fn new(links: Vec<LinkConfig>, seed: u64) -> SimNet<T> {
        let mut rng = SimRng::seed_from_u64(seed);
        let links = links
            .into_iter()
            .map(|cfg| {
                cfg.latency.validate();
                Link {
                    latency: cfg.latency,
                    faults: FaultyLink::new(cfg.faults, rng.fork()),
                    partitioned: false,
                    inbox: VecDeque::new(),
                }
            })
            .collect();
        SimNet {
            links,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: Time::ZERO,
            stats: NetStats::default(),
            telemetry: Telemetry::off(),
            link_labels: Vec::new(),
        }
    }

    /// Mirror traffic into `telemetry`: per-link
    /// `net_{sent,delivered,lost,corrupted,duplicated,blocked}_total`
    /// counters, a `net_in_flight` queue-depth gauge, and per-link
    /// `net_delivery_latency` histograms. Recording never touches the
    /// fault/latency RNG streams, so the delivery schedule is unchanged.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> SimNet<T> {
        self.link_labels = (0..self.links.len()).map(|l| l.to_string()).collect();
        self.telemetry = telemetry;
        self
    }

    fn count(&self, name: &str, link: usize) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter(name, &[("link", &self.link_labels[link])], 1);
        }
    }

    fn update_depth_gauge(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge("net_in_flight", &[], self.queue.len() as f64);
        }
    }

    pub fn now(&self) -> Time {
        self.now
    }

    pub fn stats(&self) -> NetStats {
        self.stats
    }

    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    pub fn is_partitioned(&self, link: usize) -> bool {
        self.links[link].partitioned
    }

    /// Cut or heal a link. Cutting also discards any held (reordered)
    /// message — it was still on the sender's side of the cut.
    pub fn set_partitioned(&mut self, link: usize, cut: bool) {
        self.links[link].partitioned = cut;
        if cut && self.links[link].faults.flush().is_some() {
            self.stats.lost += 1;
            self.count("net_lost_total", link);
        }
    }

    fn schedule(&mut self, link: usize, ((msg, tag), corrupted): ((T, Option<EventId>), bool)) {
        let latency = {
            let l = &mut self.links[link];
            l.latency.sample(l.faults.rng())
        };
        let at = self.now + Time::new(latency);
        self.seq += 1;
        let message = Some(InFlight {
            link,
            sent_at: self.now,
            delivery: Delivery::of((msg, corrupted)),
            tag,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = message;
                slot
            }
            None => {
                self.slab.push(message);
                (self.slab.len() - 1) as u32
            }
        };
        self.queue.push(Reverse((event_key(at, self.seq), slot)));
        self.update_depth_gauge();
    }

    /// Send `msg` on `link` at the current virtual time, through the link's
    /// fault model; each surviving copy is scheduled straight onto the queue.
    pub fn send(&mut self, link: usize, msg: T) {
        self.send_tagged(link, msg, None);
    }

    /// [`Self::send`] with a causal tag: the sender's last recorded event
    /// id travels with every surviving copy of the message (duplicates
    /// share it, detectable corruption keeps it), so the receiver can draw
    /// an exact delivery edge instead of inferring one. The fault/latency
    /// decision stream is identical to an untagged send.
    pub fn send_tagged(&mut self, link: usize, msg: T, tag: Option<EventId>) {
        self.stats.sent += 1;
        self.count("net_sent_total", link);
        if self.links[link].partitioned {
            self.stats.blocked += 1;
            self.count("net_blocked_total", link);
            return;
        }
        let sent = self.links[link].faults.send((msg, tag));
        if sent.lost {
            self.stats.lost += 1;
            self.count("net_lost_total", link);
        }
        if sent.corrupted {
            self.stats.corrupted += 1;
            self.count("net_corrupted_total", link);
        }
        if sent.duplicated {
            self.stats.duplicated += 1;
            self.count("net_duplicated_total", link);
        }
        self.stats.held += u64::from(sent.held);
        sent.for_each(|copy| self.schedule(link, copy));
    }

    /// Release a held (reordered) message — call when a link goes quiet.
    pub fn flush(&mut self, link: usize) {
        if let Some(copy) = self.links[link].faults.flush() {
            self.schedule(link, copy);
        }
    }

    /// Delivery time of the earliest in-flight message, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek().map(|&Reverse((key, _))| key_time(key))
    }

    /// Advance virtual time to `t`, moving every message due at or before
    /// `t` into its link's inbox. `touched` is cleared, then filled with the
    /// link ids that received something, in delivery order (duplicates
    /// possible) — a caller-owned buffer, so a driver loop reusing it
    /// allocates nothing per step.
    pub fn advance_to(&mut self, t: Time, touched: &mut Vec<usize>) {
        assert!(t >= self.now, "time went backwards: {} -> {}", self.now, t);
        self.now = t;
        touched.clear();
        let due = event_key(self.now, u64::MAX);
        while self
            .queue
            .peek()
            .is_some_and(|&Reverse((key, _))| key <= due)
        {
            let Reverse((key, slot)) = self.queue.pop().expect("peeked");
            let m = self.slab[slot as usize]
                .take()
                .expect("a queued slot is full");
            self.free.push(slot);
            self.stats.delivered += 1;
            if self.telemetry.is_enabled() {
                self.count("net_delivered_total", m.link);
                self.telemetry.observe(
                    "net_delivery_latency",
                    &[("link", &self.link_labels[m.link])],
                    (key_time(key) - m.sent_at).as_f64(),
                );
            }
            self.links[m.link].inbox.push_back((m.delivery, m.tag));
            touched.push(m.link);
        }
        self.update_depth_gauge();
    }

    /// Pop the next delivery waiting in `link`'s inbox.
    pub fn pop_inbox(&mut self, link: usize) -> Option<Delivery<T>> {
        self.links[link].inbox.pop_front().map(|(d, _)| d)
    }

    /// [`Self::pop_inbox`] with the causal tag the message was sent with
    /// (`None` for untagged sends).
    pub fn pop_inbox_tagged(&mut self, link: usize) -> Option<(Delivery<T>, Option<EventId>)> {
        self.links[link].inbox.pop_front()
    }

    /// Apply `f` to every intact in-flight payload on `link` (including a
    /// held reordered message), *undetectably* — delivery times, event order
    /// and already-`Corrupted` markers are untouched. This is how the
    /// corruption campaign forges wire contents: unlike the fault model's
    /// `corruption` (which flags the delivery as `Corrupted` and is therefore
    /// detectable), a forge rewrites bytes in place and the receiver has no
    /// way to tell. Returns the number of payloads rewritten.
    pub fn corrupt_in_flight(&mut self, link: usize, f: &mut dyn FnMut(&mut T)) -> usize {
        let mut hit = 0;
        for m in self.slab.iter_mut().flatten() {
            if m.link == link {
                if let Delivery::Ok(payload) = &mut m.delivery {
                    f(payload);
                    hit += 1;
                }
            }
        }
        if let Some(((payload, _), false)) = self.links[link].faults.held_mut() {
            f(payload);
            hit += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(faults: ChannelFaults, latency: LatencyModel, seed: u64) -> SimNet<u32> {
        SimNet::new(vec![LinkConfig { latency, faults }], seed)
    }

    #[test]
    fn perfect_link_delivers_in_order_after_latency() {
        let mut n = net(ChannelFaults::NONE, LatencyModel::Fixed(0.5), 1);
        n.send(0, 1);
        n.send(0, 2);
        assert_eq!(n.next_event_time(), Some(Time::new(0.5)));
        // The buffer is the caller's: cleared on entry, refilled in order.
        let mut touched = vec![9];
        n.advance_to(Time::new(0.4), &mut touched);
        assert!(touched.is_empty());
        n.advance_to(Time::new(0.5), &mut touched);
        assert_eq!(touched, vec![0, 0]);
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(1)));
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(2)));
        assert_eq!(n.pop_inbox(0), None);
    }

    #[test]
    fn partition_drops_sends_and_heals() {
        let mut n = net(ChannelFaults::NONE, LatencyModel::Fixed(0.0), 1);
        n.set_partitioned(0, true);
        n.send(0, 7);
        assert_eq!(n.next_event_time(), None);
        assert_eq!(n.stats().blocked, 1);
        n.set_partitioned(0, false);
        n.send(0, 8);
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(8)));
    }

    #[test]
    fn reorder_hold_and_swap_matches_channel_semantics() {
        let mut n = net(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.0),
            1,
        );
        n.send(0, 1); // held
        n.send(0, 2); // releases 1 after 2
        n.flush(0);
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(2)));
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(1)));
    }

    #[test]
    fn corruption_is_detectable_and_loss_is_silent() {
        let mut n = net(
            ChannelFaults {
                corruption: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.1),
            3,
        );
        n.send(0, 9);
        n.advance_to(Time::new(1.0), &mut Vec::new());
        assert_eq!(n.pop_inbox(0), Some(Delivery::Corrupted));

        let mut n = net(
            ChannelFaults {
                loss: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.1),
            3,
        );
        n.send(0, 9);
        assert_eq!(n.next_event_time(), None);
        assert_eq!(n.stats().lost, 1);
    }

    #[test]
    fn uniform_jitter_can_reorder_messages() {
        let mut n = net(
            ChannelFaults::NONE,
            LatencyModel::Uniform { lo: 0.0, hi: 1.0 },
            5,
        );
        // With enough messages, at least one pair must arrive out of send
        // order under i.i.d. latencies.
        for i in 0..100 {
            n.send(0, i);
        }
        n.advance_to(Time::new(2.0), &mut Vec::new());
        let mut got = Vec::new();
        while let Some(Delivery::Ok(v)) = n.pop_inbox(0) {
            got.push(v);
        }
        assert_eq!(got.len(), 100);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(got, sorted, "jitter should reorder at least one pair");
    }

    #[test]
    fn same_seed_same_delivery_schedule() {
        let run = |seed| {
            let mut n = net(
                ChannelFaults::nasty(),
                LatencyModel::Uniform { lo: 0.0, hi: 0.5 },
                seed,
            );
            let mut log = Vec::new();
            for i in 0..200 {
                n.send(0, i);
            }
            n.flush(0);
            n.advance_to(Time::new(5.0), &mut Vec::new());
            while let Some(d) = n.pop_inbox(0) {
                log.push(format!("{d:?}"));
            }
            (log, n.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    #[should_panic]
    fn time_cannot_go_backwards() {
        let mut n = net(ChannelFaults::NONE, LatencyModel::Fixed(0.0), 1);
        n.advance_to(Time::new(1.0), &mut Vec::new());
        n.advance_to(Time::new(0.5), &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn rejects_negative_latency() {
        let _ = net(ChannelFaults::NONE, LatencyModel::Fixed(-0.1), 1);
    }

    #[test]
    fn corrupt_in_flight_rewrites_payloads_without_reordering() {
        let mut n = net(ChannelFaults::NONE, LatencyModel::Fixed(0.5), 1);
        n.send(0, 1);
        n.send(0, 2);
        let before = n.next_event_time();
        let hit = n.corrupt_in_flight(0, &mut |v| *v += 100);
        assert_eq!(hit, 2);
        assert_eq!(n.next_event_time(), before, "delivery schedule untouched");
        n.advance_to(Time::new(0.5), &mut Vec::new());
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(101)));
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(102)));
        // A held (reordered) message is part of the in-flight set too.
        let mut n = net(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.0),
            1,
        );
        n.send(0, 5); // held
        assert_eq!(n.corrupt_in_flight(0, &mut |v| *v = 9), 1);
        n.flush(0);
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(n.pop_inbox(0), Some(Delivery::Ok(9)));
    }

    #[test]
    fn causal_tags_ride_every_fault_transformation() {
        let id = |pid, seq| EventId { pid, seq };
        // Duplication: both copies carry the sender's tag.
        let mut n = net(
            ChannelFaults {
                duplication: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.0),
            1,
        );
        n.send_tagged(0, 1, Some(id(3, 7)));
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(
            n.pop_inbox_tagged(0),
            Some((Delivery::Ok(1), Some(id(3, 7))))
        );
        assert_eq!(
            n.pop_inbox_tagged(0),
            Some((Delivery::Ok(1), Some(id(3, 7))))
        );
        // Corruption: the delivery is flagged but still names its send.
        let mut n = net(
            ChannelFaults {
                corruption: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.0),
            1,
        );
        n.send_tagged(0, 2, Some(id(1, 1)));
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(
            n.pop_inbox_tagged(0),
            Some((Delivery::Corrupted, Some(id(1, 1))))
        );
        // Reorder hold-and-swap: each message keeps its own tag.
        let mut n = net(
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            LatencyModel::Fixed(0.0),
            1,
        );
        n.send_tagged(0, 1, Some(id(0, 1)));
        n.send_tagged(0, 2, Some(id(0, 2)));
        n.flush(0);
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(
            n.pop_inbox_tagged(0),
            Some((Delivery::Ok(2), Some(id(0, 2))))
        );
        assert_eq!(
            n.pop_inbox_tagged(0),
            Some((Delivery::Ok(1), Some(id(0, 1))))
        );
        // Untagged sends pop as tagless.
        let mut n = net(ChannelFaults::NONE, LatencyModel::Fixed(0.0), 1);
        n.send(0, 4);
        n.advance_to(Time::ZERO, &mut Vec::new());
        assert_eq!(n.pop_inbox_tagged(0), Some((Delivery::Ok(4), None)));
    }

    #[test]
    fn telemetry_mirrors_stats_without_changing_schedule() {
        use ftbarrier_telemetry::{Telemetry, TimeDomain};
        let run = |tele: Telemetry| {
            let mut n = net(
                ChannelFaults::nasty(),
                LatencyModel::Uniform { lo: 0.0, hi: 0.5 },
                42,
            )
            .with_telemetry(tele);
            let mut log = Vec::new();
            for i in 0..200 {
                n.send(0, i);
            }
            n.flush(0);
            n.advance_to(Time::new(5.0), &mut Vec::new());
            while let Some(d) = n.pop_inbox(0) {
                log.push(format!("{d:?}"));
            }
            (log, n.stats())
        };
        let tele = Telemetry::recording(TimeDomain::Virtual);
        let (log_on, stats_on) = run(tele.clone());
        let (log_off, stats_off) = run(Telemetry::off());
        // Pure observer: identical delivery schedule and stats.
        assert_eq!(log_on, log_off);
        assert_eq!(stats_on, stats_off);
        // And the mirrored counters agree with NetStats.
        let snap = tele.snapshot();
        let m = &snap.metrics;
        assert_eq!(m.counter("net_sent_total", &[("link", "0")]), stats_on.sent);
        assert_eq!(
            m.counter("net_delivered_total", &[("link", "0")]),
            stats_on.delivered
        );
        assert_eq!(m.counter("net_lost_total", &[("link", "0")]), stats_on.lost);
        assert_eq!(
            m.counter("net_corrupted_total", &[("link", "0")]),
            stats_on.corrupted
        );
        assert_eq!(
            m.counter("net_duplicated_total", &[("link", "0")]),
            stats_on.duplicated
        );
        let h = m
            .histogram("net_delivery_latency", &[("link", "0")])
            .expect("latency histogram");
        assert_eq!(h.count(), stats_on.delivered);
        assert!(h.max() <= 0.5 + 1e-9);
        // Queue fully drained at the end.
        assert_eq!(m.gauge("net_in_flight", &[]), Some(0.0));
    }
}
