//! The one transport seam every process core is driven through.
//!
//! An [`Endpoint`] is a process's *port*: `send_tagged` fans a message out on
//! every outgoing link, `try_recv_tagged` yields what arrived on any incoming
//! one. The ring of program MB is the fan-out-1 case (successor out,
//! predecessor in); the sweep program's port has one link per subscriber and
//! per subscription. The step logic ([`crate::proc::pump`]) and both process
//! cores ([`crate::proc::MbCore`], [`crate::sweep_core::SweepCore`]) are
//! written against this trait only, so each core runs unchanged on every
//! medium:
//!
//! * [`ChannelEndpoint`] — real `std::sync::mpsc` channels, one OS thread
//!   per process, wired by [`channel_mesh`] ([`channel_ring`] is its ring
//!   case);
//! * the simulated driver's port ([`crate::sim`]) — one type for both
//!   programs: it stages a burst, sends it link by link into the
//!   discrete-event simulated network and reads the one link its driver
//!   names, single-threaded and byte-for-byte replayable from a seed;
//! * [`crate::socket::SocketEndpoint`] — length-prefixed TCP between OS
//!   processes.
//!
//! Every medium draws its send-time faults from one model per link,
//! `FaultyLink` (its fault classes and draw order are documented in
//! [`crate::channel`]), and only puts the copies it hands back on the wire.
//!
//! # Causal tags
//!
//! Every message carries the sender's latest causal [`EventId`] alongside
//! the payload, so a receiver can link its next committed event to the exact
//! send that enabled it — the happens-before delivery edge of the flight
//! recorder. [`Endpoint::send`] / [`Endpoint::try_recv`] are the untagged
//! conveniences.

use crate::channel::{ChannelFaults, Delivery, FaultyLink};
use crate::proc::StateMsg;
use ftbarrier_gcs::SimRng;
use ftbarrier_telemetry::EventId;
use std::sync::mpsc::{self, Receiver, Sender};

/// A process's port onto the network, carrying messages of type `M`.
pub trait Endpoint<M = StateMsg> {
    /// Send `msg` on every outgoing link, stamped with the sender's latest
    /// causal event. Returns `false` if a peer is gone.
    fn send_tagged(&mut self, msg: M, tag: Option<EventId>) -> bool;
    /// Next pending delivery from any incoming link, with the causal tag it
    /// was sent with.
    fn try_recv_tagged(&mut self) -> Option<(Delivery<M>, Option<EventId>)>;
    /// End of a gossip burst: everything sent so far is on the wire and no
    /// message stays held back by a link's reorder model.
    fn flush(&mut self) -> bool;

    /// [`Endpoint::send_tagged`] without a tag.
    fn send(&mut self, msg: M) -> bool {
        self.send_tagged(msg, None)
    }

    /// [`Endpoint::try_recv_tagged`], dropping the tag.
    fn try_recv(&mut self) -> Option<Delivery<M>> {
        self.try_recv_tagged().map(|(d, _)| d)
    }
}

/// What travels on a threaded-backend link: the gossiped state plus the
/// sender's causal tag. The tag rides *inside* the payload, so duplication
/// copies it and detectable corruption withholds it along with the state —
/// exactly the semantics a receiver needs (no applied state, no edge).
pub type TaggedMsg<M = StateMsg> = (M, Option<EventId>);

/// Threaded backend port: the fault model and channel of every outgoing
/// link, and the receiving end of every incoming one.
pub struct ChannelEndpoint<M = StateMsg> {
    links: Vec<FaultyLink<TaggedMsg<M>>>,
    txs: Vec<Sender<Delivery<TaggedMsg<M>>>>,
    rxs: Vec<Receiver<Delivery<TaggedMsg<M>>>>,
}

impl<M: Clone> Endpoint<M> for ChannelEndpoint<M> {
    fn send_tagged(&mut self, msg: M, tag: Option<EventId>) -> bool {
        // Every link gets the message, even past a dead one.
        let mut ok = true;
        for (link, tx) in self.links.iter_mut().zip(&self.txs) {
            let sent = link.send((msg.clone(), tag));
            sent.for_each(|copy| ok &= tx.send(Delivery::of(copy)).is_ok());
        }
        ok
    }

    fn try_recv_tagged(&mut self) -> Option<(Delivery<M>, Option<EventId>)> {
        Some(match self.rxs.iter().find_map(|rx| rx.try_recv().ok())? {
            Delivery::Ok((msg, tag)) => (Delivery::Ok(msg), tag),
            Delivery::Corrupted => (Delivery::Corrupted, None),
        })
    }

    fn flush(&mut self) -> bool {
        let mut ok = true;
        for (link, tx) in self.links.iter_mut().zip(&self.txs) {
            if let Some(copy) = link.flush() {
                ok &= tx.send(Delivery::of(copy)).is_ok();
            }
        }
        ok
    }
}

/// Build one faulty link per `(from, to)` pair among `n` processes and hand
/// each process its port: the sending half of every link it is the `from`
/// of, the receiving half of every link it is the `to` of. Each link's fault
/// stream is forked off `rng` in the order `links` yields them, so the whole
/// mesh is reproducible from one seed.
pub fn channel_mesh<M: Clone>(
    n: usize,
    links: impl IntoIterator<Item = (usize, usize)>,
    faults: ChannelFaults,
    rng: &mut SimRng,
) -> Vec<ChannelEndpoint<M>> {
    let mut ports: Vec<ChannelEndpoint<M>> = (0..n)
        .map(|_| ChannelEndpoint {
            links: Vec::new(),
            txs: Vec::new(),
            rxs: Vec::new(),
        })
        .collect();
    for (from, to) in links {
        let (tx, rx) = mpsc::channel();
        ports[from].links.push(FaultyLink::new(faults, rng.fork()));
        ports[from].txs.push(tx);
        ports[to].rxs.push(rx);
    }
    ports
}

/// The ring case of [`channel_mesh`]: endpoint `j` sends on link `j → j+1`
/// and receives on link `j-1 → j`.
pub fn channel_ring(n: usize, faults: ChannelFaults, rng: &mut SimRng) -> Vec<ChannelEndpoint> {
    channel_mesh(n, (0..n).map(|j| (j, (j + 1) % n)), faults, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_ring_connects_successors() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut eps = channel_ring(3, ChannelFaults::NONE, &mut rng);
        let msg = StateMsg::initial();
        // 0 sends; 1 (its successor) receives.
        assert!(eps[0].send(msg));
        assert_eq!(eps[1].try_recv(), Some(Delivery::Ok(msg)));
        assert_eq!(eps[2].try_recv(), None);
        // The ring wraps: 2 sends; 0 receives.
        assert!(eps[2].send(msg));
        assert_eq!(eps[0].try_recv(), Some(Delivery::Ok(msg)));
    }

    #[test]
    fn causal_tags_ride_the_channel_and_untagged_sends_stay_untagged() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut eps = channel_ring(2, ChannelFaults::NONE, &mut rng);
        let msg = StateMsg::initial();
        let id = EventId { pid: 0, seq: 3 };
        assert!(eps[0].send_tagged(msg, Some(id)));
        assert!(eps[0].send(msg));
        assert_eq!(
            eps[1].try_recv_tagged(),
            Some((Delivery::Ok(msg), Some(id)))
        );
        assert_eq!(eps[1].try_recv_tagged(), Some((Delivery::Ok(msg), None)));
        assert_eq!(eps[1].try_recv_tagged(), None);
    }

    #[test]
    fn a_mesh_port_fans_out_and_drains_every_incoming_link() {
        // A star: 0 sends to 1 and 2, both send back to 0.
        let mut rng = SimRng::seed_from_u64(3);
        let links = [(0, 1), (0, 2), (1, 0), (2, 0)];
        let mut eps: Vec<ChannelEndpoint<u32>> =
            channel_mesh(3, links, ChannelFaults::NONE, &mut rng);
        assert!(eps[0].send(7));
        assert_eq!(eps[1].try_recv(), Some(Delivery::Ok(7)));
        assert_eq!(eps[2].try_recv(), Some(Delivery::Ok(7)));
        assert!(eps[1].send(1));
        assert!(eps[2].send(2));
        let mut got = vec![eps[0].try_recv(), eps[0].try_recv()];
        got.sort_by_key(|d| d.and_then(Delivery::ok));
        assert_eq!(got, vec![Some(Delivery::Ok(1)), Some(Delivery::Ok(2))]);
        assert_eq!(eps[0].try_recv(), None);
    }
}
