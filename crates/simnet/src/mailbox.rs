//! Message envelopes and MPI-style (source, tag) matching.
//!
//! Each rank owns a single unbounded channel on which all other ranks
//! deposit [`NetMsg`] envelopes. Matching follows MPI semantics: a receive
//! names a source (or any) and a tag (or [`ANY_TAG`]); messages that arrive
//! before a matching receive is posted are parked in an *unexpected queue*
//! and matched in FIFO order per (source, tag), exactly as an MPI
//! implementation's unexpected-message queue behaves.
//!
//! Every operation here is non-blocking ([`Mailbox::try_match`] /
//! [`Mailbox::probe`] / [`Mailbox::peek`]): blocking is a property of the
//! runtime, which parks the rank's task with the event scheduler on a miss
//! and retries once a matching envelope has been deposited (see
//! [`crate::sched`]).

use std::collections::VecDeque;

use crossbeam::channel::Receiver;

use crate::time::SimTime;

/// An MPI-style message tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

/// Wildcard tag matching any message tag (like `MPI_ANY_TAG`).
pub const ANY_TAG: Tag = Tag(u32::MAX);

/// A message in flight: payload plus the simulated arrival timestamp
/// computed by the sender (departure clock + latency + serialization).
#[derive(Clone, Debug)]
pub struct NetMsg {
    pub src: usize,
    pub tag: Tag,
    /// Communicator context: messages only match receives posted with the
    /// same context (how MPI keeps traffic of different communicators
    /// apart). The world communicator uses context 0.
    pub context: u32,
    pub data: Vec<u8>,
    /// Simulated time at which the last byte is available at the receiver.
    pub arrival: SimTime,
    /// Sender-assigned correlation id (monotone per sending rank), so a
    /// traced receive can be paired with the exact send that produced it
    /// when building the happens-before graph (see [`crate::analysis`]).
    pub seq: u64,
}

impl NetMsg {
    fn matches(&self, src: Option<usize>, tag: Tag, context: u32) -> bool {
        self.context == context
            && src.is_none_or(|s| s == self.src)
            && (tag == ANY_TAG || tag == self.tag)
    }
}

/// Receiving endpoint of one rank: the channel plus the unexpected queue.
pub struct Mailbox {
    rx: Receiver<NetMsg>,
    unexpected: VecDeque<NetMsg>,
}

impl Mailbox {
    pub fn new(rx: Receiver<NetMsg>) -> Self {
        Mailbox {
            rx,
            unexpected: VecDeque::new(),
        }
    }

    /// Non-blocking receive: take the first FIFO match out of the
    /// unexpected queue (draining the channel first), or `None` when no
    /// matching envelope has physically arrived yet. This is the matching
    /// half of a *posted* receive — the request layer holds the posted
    /// receive and asks the mailbox for its envelope when it needs to make
    /// progress.
    pub fn try_match(&mut self, src: Option<usize>, tag: Tag, context: u32) -> Option<NetMsg> {
        while let Ok(msg) = self.rx.try_recv() {
            self.unexpected.push_back(msg);
        }
        let pos = self
            .unexpected
            .iter()
            .position(|m| m.matches(src, tag, context))?;
        self.unexpected.remove(pos)
    }

    /// Non-blocking probe: is a matching message already available?
    /// Drains the channel into the unexpected queue to make the answer
    /// authoritative at the time of the call.
    pub fn probe(&mut self, src: Option<usize>, tag: Tag, context: u32) -> bool {
        self.peek(src, tag, context).is_some()
    }

    /// Like [`Mailbox::probe`], but hands back a borrow of the earliest
    /// matching envelope so the caller can inspect its metadata (e.g. its
    /// simulated arrival time) without consuming it.
    pub fn peek(&mut self, src: Option<usize>, tag: Tag, context: u32) -> Option<&NetMsg> {
        while let Ok(msg) = self.rx.try_recv() {
            self.unexpected.push_back(msg);
        }
        self.unexpected
            .iter()
            .find(|m| m.matches(src, tag, context))
    }

    /// Number of messages currently parked in the unexpected queue.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn msg(src: usize, tag: u32, byte: u8) -> NetMsg {
        NetMsg {
            src,
            tag: Tag(tag),
            context: 0,
            data: vec![byte],
            arrival: SimTime::ZERO,
            seq: 0,
        }
    }

    #[test]
    fn matches_exact_and_wildcards() {
        let m = msg(3, 9, 0);
        assert!(m.matches(Some(3), Tag(9), 0));
        assert!(m.matches(None, Tag(9), 0));
        assert!(m.matches(Some(3), ANY_TAG, 0));
        assert!(m.matches(None, ANY_TAG, 0));
        assert!(!m.matches(Some(2), Tag(9), 0));
        assert!(!m.matches(Some(3), Tag(8), 0));
        assert!(!m.matches(Some(3), Tag(9), 1), "context must match");
    }

    #[test]
    fn out_of_order_arrivals_are_parked_and_matched_fifo() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx);
        tx.send(msg(1, 5, b'a')).expect("mailbox channel open");
        tx.send(msg(2, 7, b'b')).expect("mailbox channel open");
        tx.send(msg(1, 5, b'c')).expect("mailbox channel open");

        // Ask for tag 7 first: the two tag-5 messages get parked.
        let m = mb.try_match(Some(2), Tag(7), 0).unwrap();
        assert_eq!(m.data, vec![b'b']);
        assert_eq!(mb.unexpected_len(), 2);

        // Tag-5 messages from rank 1 must come back in FIFO order.
        assert_eq!(mb.try_match(Some(1), Tag(5), 0).unwrap().data, vec![b'a']);
        assert_eq!(mb.try_match(Some(1), Tag(5), 0).unwrap().data, vec![b'c']);
        assert_eq!(mb.unexpected_len(), 0);
    }

    #[test]
    fn any_source_matches_earliest_parked() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx);
        tx.send(msg(4, 1, b'x')).expect("mailbox channel open");
        tx.send(msg(5, 1, b'y')).expect("mailbox channel open");
        // Park both.
        assert!(mb.probe(None, Tag(1), 0));
        let m = mb.try_match(None, Tag(1), 0).unwrap();
        assert_eq!((m.src, m.data[0]), (4, b'x'));
    }

    #[test]
    fn probe_does_not_consume() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx);
        assert!(!mb.probe(Some(0), Tag(3), 0));
        tx.send(msg(0, 3, b'z')).expect("mailbox channel open");
        assert!(mb.probe(Some(0), Tag(3), 0));
        assert!(mb.probe(Some(0), Tag(3), 0)); // still there
        assert_eq!(mb.try_match(Some(0), Tag(3), 0).unwrap().data, vec![b'z']);
        assert!(!mb.probe(Some(0), Tag(3), 0));
    }

    #[test]
    fn try_match_is_nonblocking_and_fifo() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx);
        assert!(mb.try_match(Some(1), Tag(5), 0).is_none());
        tx.send(msg(1, 5, b'a')).expect("mailbox channel open");
        tx.send(msg(1, 5, b'b')).expect("mailbox channel open");
        tx.send(msg(2, 5, b'c')).expect("mailbox channel open");
        // Same (src, tag): FIFO order; other sources are left parked.
        assert_eq!(mb.try_match(Some(1), Tag(5), 0).unwrap().data, vec![b'a']);
        assert_eq!(mb.try_match(Some(1), Tag(5), 0).unwrap().data, vec![b'b']);
        assert!(mb.try_match(Some(1), Tag(5), 0).is_none());
        assert_eq!(mb.unexpected_len(), 1, "rank 2's message stays parked");
        assert_eq!(mb.try_match(None, ANY_TAG, 0).unwrap().data, vec![b'c']);
    }

    #[test]
    fn peek_exposes_arrival_without_consuming() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(rx);
        let mut m = msg(0, 3, b'z');
        m.arrival = SimTime(777);
        tx.send(m).expect("mailbox channel open");
        assert_eq!(mb.peek(Some(0), Tag(3), 0).unwrap().arrival, SimTime(777));
        assert!(mb.peek(Some(0), Tag(3), 0).is_some(), "still there");
        assert_eq!(mb.try_match(Some(0), Tag(3), 0).unwrap().data, vec![b'z']);
        assert!(mb.peek(Some(0), Tag(3), 0).is_none());
    }
}
