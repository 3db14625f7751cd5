//! The session protocol of the TCP link, as data: one endpoint's
//! sequence/ack state and every decision the link makes on it, returned
//! as a value for [`super::tcp`] to carry out. Nothing here touches a
//! socket, a lock, a clock or a thread, so the whole protocol is
//! checked below by a model test that drives two endpoints through
//! arbitrary fault schedules.

use super::frame::Frame;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// The receive decision for one sequenced packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Receipt {
    /// The next frame in order: deliver it, exactly once.
    Deliver,
    /// Already delivered: drop it.
    Duplicate,
    /// Frames before it were lost on the wire: break the link, so the
    /// reconnect replay resynchronizes.
    Gap,
}

/// One endpoint's session state, one direction-pair of a link. `F` is
/// the form the endpoint holds its outbound frames in.
#[derive(Debug)]
pub(super) struct Session<F = Frame> {
    /// Next sequence number to assign to an outbound frame.
    pub(super) send_seq: u64,
    /// Sent but unacked frames, oldest first, for retransmission.
    pub(super) sent: VecDeque<(u64, F)>,
    /// Receive cursor: the next peer sequence number to deliver, and
    /// the cumulative ack every outbound packet carries.
    pub(super) recv_next: u64,
}

impl<F> Default for Session<F> {
    fn default() -> Self {
        Session {
            send_seq: 0,
            sent: VecDeque::new(),
            recv_next: 0,
        }
    }
}

impl<F> Session<F> {
    /// Number `frame` and queue it for retransmission until acked.
    pub(super) fn sequence(&mut self, frame: F) -> u64 {
        let seq = self.send_seq;
        self.send_seq += 1;
        self.sent.push_back((seq, frame));
        seq
    }

    /// Drop acked frames: everything below the peer's receive cursor.
    pub(super) fn prune(&mut self, ack: u64) {
        while self.sent.front().is_some_and(|(seq, _)| *seq < ack) {
            self.sent.pop_front();
        }
    }

    /// One `Data { seq, ack }` arrived: its `ack` prunes, and `seq`
    /// against the cursor decides the frame.
    pub(super) fn receive(&mut self, seq: u64, ack: u64) -> Receipt {
        self.prune(ack);
        match seq.cmp(&self.recv_next) {
            Ordering::Equal => {
                self.recv_next += 1;
                Receipt::Deliver
            }
            Ordering::Greater => Receipt::Gap,
            Ordering::Less => Receipt::Duplicate,
        }
    }

    /// The peer's `Ping { ack, sent }`: prune, and report a gap when
    /// the peer has sent frames this end never received.
    pub(super) fn probe(&mut self, ack: u64, sent: u64) -> bool {
        self.prune(ack);
        sent > self.recv_next
    }

    /// A (re)connection handshake: the peer has delivered everything
    /// below `peer_resume`. Returns what it still needs, in order.
    pub(super) fn resume(&mut self, peer_resume: u64) -> impl Iterator<Item = &(u64, F)> {
        self.prune(peer_resume);
        self.sent.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(id: u64) -> Frame {
        Frame::Hello { rank: id }
    }

    fn unacked(session: &Session) -> Vec<u64> {
        session.sent.iter().map(|(seq, _)| *seq).collect()
    }

    #[test]
    fn prune_drops_only_acked_entries() {
        let mut session = Session::default();
        for id in 0..5 {
            session.sequence(frame(id));
        }
        session.prune(3);
        assert_eq!(unacked(&session), vec![3, 4]);
        session.prune(3);
        assert_eq!(unacked(&session), vec![3, 4]);
        session.prune(100);
        assert!(session.sent.is_empty());
        assert_eq!(session.send_seq, 5);
    }

    /// A packet on the model wire: what `tcp::TcpPacket` carries,
    /// minus the handshake, which the model runs atomically.
    #[derive(Clone, Debug)]
    enum Packet {
        Data { seq: u64, ack: u64, frame: Frame },
        Ping { ack: u64, sent: u64 },
    }

    /// One end of the model link: its session, every frame id it ever
    /// sent, and every frame id it delivered.
    #[derive(Default)]
    struct End {
        session: Session,
        sent_ids: Vec<u64>,
        delivered: Vec<u64>,
    }

    /// Two sessions joined by two wires, driven by the TCP driver's
    /// rules: end 0 is the supervisor (it pings), end 1 the worker (it
    /// heartbeats). `wires[d]` carries end `d`'s packets to end `1 - d`.
    /// A break closes the connection and loses whatever is in flight.
    #[derive(Default)]
    struct Model {
        ends: [End; 2],
        wires: [VecDeque<Packet>; 2],
        connected: bool,
    }

    impl Model {
        fn send(&mut self, d: usize) {
            let end = &mut self.ends[d];
            let id = end.sent_ids.len() as u64;
            end.sent_ids.push(id);
            let ack = end.session.recv_next;
            let seq = end.session.sequence(frame(id));
            if self.connected {
                self.wires[d].push_back(Packet::Data {
                    seq,
                    ack,
                    frame: frame(id),
                });
            }
        }

        fn ping(&mut self) {
            let s = &self.ends[0].session;
            if self.connected {
                self.wires[0].push_back(Packet::Ping {
                    ack: s.recv_next,
                    sent: s.send_seq,
                });
            }
        }

        fn break_link(&mut self) {
            self.connected = false;
            self.wires.iter_mut().for_each(VecDeque::clear);
        }

        /// The handshake: each end resumes from the other's cursor and
        /// replays onto the fresh connection.
        fn reconnect(&mut self) {
            if self.connected {
                return;
            }
            self.connected = true;
            let resumes = [0, 1].map(|d| self.ends[d].session.recv_next);
            for d in 0..2 {
                let end = &mut self.ends[d];
                let ack = end.session.recv_next;
                for (seq, frame) in end.session.resume(resumes[1 - d]) {
                    let (seq, frame) = (*seq, frame.clone());
                    self.wires[d].push_back(Packet::Data { seq, ack, frame });
                }
            }
        }

        /// The packet at `i` of wire `d` arrives at end `1 - d`.
        fn deliver(&mut self, d: usize, i: usize) {
            let Some(packet) = self.wires[d].remove(i) else {
                return;
            };
            let end = &mut self.ends[1 - d];
            let gap = match packet {
                Packet::Data { seq, ack, frame } => match end.session.receive(seq, ack) {
                    Receipt::Deliver => {
                        let Frame::Hello { rank: id } = frame else {
                            unreachable!("the model sends only Hello frames")
                        };
                        end.delivered.push(id);
                        false
                    }
                    Receipt::Duplicate => false,
                    Receipt::Gap => true,
                },
                Packet::Ping { ack, sent } => end.session.probe(ack, sent),
            };
            if gap {
                self.break_link();
            }
        }

        fn drain(&mut self) {
            while let Some(d) = (0..2).find(|&d| !self.wires[d].is_empty()) {
                self.deliver(d, 0);
            }
        }

        /// Exactly once and in order: what each end delivered is a
        /// prefix of what the other sent.
        fn in_order(&self) -> bool {
            (0..2).all(|d| {
                let (from, to) = (&self.ends[d], &self.ends[1 - d]);
                from.sent_ids.starts_with(&to.delivered)
            })
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any schedule of sends, deliveries, drops, duplicates,
        /// reorders, pings, resets and reconnects keeps both directions
        /// exactly-once and in order at every step. Once the faults
        /// stop, the driver's own rules heal the link — a gap or a
        /// lagging ping breaks it, a broken link reconnects and
        /// replays, the worker keeps heartbeating and the supervisor
        /// keeps pinging — and then everything sent is delivered and
        /// acked both ways.
        #[test]
        fn two_sessions_stay_exactly_once_and_heal(
            ops in proptest::collection::vec((0u8..9, 0usize..2, 0usize..16), 0..160),
        ) {
            let mut m = Model::default();
            for (step, &(op, d, i)) in ops.iter().enumerate() {
                let len = m.wires[d].len();
                match op {
                    0 | 1 => m.send(d),
                    2 | 3 if len > 0 => m.deliver(d, i % len),
                    4 if len > 0 => drop(m.wires[d].remove(i % len)),
                    5 if len > 0 => {
                        let copy = m.wires[d][i % len].clone();
                        m.wires[d].insert(i % (len + 1), copy);
                    }
                    6 if len > 1 => m.wires[d].swap(i % (len - 1), i % (len - 1) + 1),
                    7 if d == 0 => m.ping(),
                    7 => m.break_link(),
                    8 => m.reconnect(),
                    _ => {}
                }
                prop_assert!(m.in_order(), "step {step}: op {op} on wire {d}");
            }
            for _ in 0..4 {
                m.reconnect();
                m.send(1);
                m.drain();
                m.ping();
                m.drain();
                prop_assert!(m.in_order(), "while healing");
            }
            for d in 0..2 {
                let (from, to) = (&m.ends[d], &m.ends[1 - d]);
                prop_assert_eq!(&to.delivered, &from.sent_ids, "end {} → end {}", d, 1 - d);
                prop_assert!(from.session.sent.is_empty(), "end {d} still holds unacked frames");
            }
        }
    }
}
