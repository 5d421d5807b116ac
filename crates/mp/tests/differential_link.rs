//! One link fault model under every transport: the threaded channels and
//! the simulated network, seeded alike, deliver the same sequence.
//!
//! `channel_mesh` and `SimNet::new` both fork one RNG per link off a
//! `SimRng` seeded with the run's seed, in link order. At a fixed latency
//! of 0 the simulated network draws nothing beyond the fault draws and
//! delivers every copy in the order it was scheduled, so each link's
//! delivery sequence is a function of the fault stream alone, and the two
//! transports must agree on it exactly — under every fault class at once.

use ftbarrier_gcs::{SimRng, Time};
use ftbarrier_mp::channel::{ChannelFaults, Delivery};
use ftbarrier_mp::simnet::{LatencyModel, LinkConfig, SimNet};
use ftbarrier_mp::transport::{channel_mesh, ChannelEndpoint, Endpoint};

const N: usize = 3;
const MESSAGES: u32 = 1_200;

/// The script: message `i` goes out on link `sender(i)`, and every
/// `FLUSH_EVERY`th message ends a burst, flushing every link.
fn sender(i: u32) -> usize {
    (i as usize * 7 + i as usize / 5) % N
}
const FLUSH_EVERY: u32 = 9;

fn ring() -> impl Iterator<Item = (usize, usize)> {
    (0..N).map(|j| (j, (j + 1) % N))
}

/// Per link, what its receiver saw through the threaded channels.
fn through_channels(faults: ChannelFaults, seed: u64) -> Vec<Vec<Delivery<u32>>> {
    let mut eps: Vec<ChannelEndpoint<u32>> =
        channel_mesh(N, ring(), faults, &mut SimRng::seed_from_u64(seed));
    for i in 0..MESSAGES {
        assert!(eps[sender(i)].send(i));
        if i % FLUSH_EVERY == 0 {
            eps.iter_mut().for_each(|ep| assert!(ep.flush()));
        }
    }
    eps.iter_mut().for_each(|ep| assert!(ep.flush()));
    // On the ring, link `j` is the only way into endpoint `j + 1`.
    (0..N)
        .map(|j| std::iter::from_fn(|| eps[(j + 1) % N].try_recv()).collect())
        .collect()
}

/// Per link, what its receiver saw through the simulated network.
fn through_simnet(faults: ChannelFaults, seed: u64) -> Vec<Vec<Delivery<u32>>> {
    let link = LinkConfig {
        latency: LatencyModel::Fixed(0.0),
        faults,
    };
    let mut net = SimNet::new(vec![link; N], seed);
    for i in 0..MESSAGES {
        net.send(sender(i), i);
        if i % FLUSH_EVERY == 0 {
            (0..N).for_each(|l| net.flush(l));
        }
    }
    (0..N).for_each(|l| net.flush(l));
    net.advance_to(Time::ZERO, &mut Vec::new());
    (0..N)
        .map(|l| std::iter::from_fn(|| net.pop_inbox(l)).collect())
        .collect()
}

#[test]
fn channels_and_simnet_deliver_the_same_sequence_on_nasty_links() {
    for seed in [42, 7, 0xC0FFEE] {
        let faults = ChannelFaults::nasty();
        let channels = through_channels(faults, seed);
        let simnet = through_simnet(faults, seed);
        for (l, (c, s)) in channels.iter().zip(&simnet).enumerate() {
            let first_difference = c.iter().zip(s).position(|(a, b)| a != b);
            assert_eq!(
                (c.len(), first_difference),
                (s.len(), None),
                "seed {seed}, link {l}: channel and simnet deliveries diverge"
            );
        }
        // Every fault class fired, so the agreement covers each of them.
        let all: Vec<_> = channels.concat();
        let sent = MESSAGES as usize;
        assert!(all.len() < sent, "losses outweigh duplicates at 20% / 10%");
        assert!(all.contains(&Delivery::Corrupted));
        let swapped = |link: &Vec<Delivery<u32>>| {
            let intact: Vec<u32> = link.iter().filter_map(|d| d.ok()).collect();
            intact.windows(2).any(|w| w[0] > w[1])
        };
        assert!(channels.iter().any(swapped), "a reorder swap");
        let mut intact: Vec<u32> = all.iter().filter_map(|d| d.ok()).collect();
        intact.sort_unstable();
        assert!(intact.windows(2).any(|w| w[0] == w[1]), "a duplicate");
    }
}
