//! Offline stand-in for the `crossbeam` crate (channel module only).
//!
//! Implements MPMC [`channel::bounded`] / [`channel::unbounded`] channels
//! over `Mutex` + `Condvar`. Both [`channel::Sender`] and
//! [`channel::Receiver`] are cloneable; disconnection is tracked by
//! endpoint counts. A capacity of 0 creates a rendezvous channel, like
//! crossbeam's: `send` returns only after a receiver has taken the
//! message. Its remaining user is the sharded runtime at
//! `ShardedPipeline::set_queue_capacity(0)` (the `shard.rs` test
//! `tiny_queue_capacity_still_correct`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        /// Each queued message carries a unique ticket so a rendezvous
        /// sender can tell whether *its* message was taken, even when
        /// other blocked senders withdraw theirs first.
        queue: VecDeque<(u64, T)>,
        senders: usize,
        receivers: usize,
        next_ticket: u64,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders have disconnected.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Sender::try_send`]; carries the unsent
    /// message.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is full (or a rendezvous channel with no waiting
        /// receiver guaranteed — the shim treats rendezvous channels as
        /// always full, since a rendezvous send always blocks).
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// Whether the failure was a full channel (backpressure).
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Creates an unbounded channel: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded channel: sends block while `cap` messages are
    /// queued. `cap == 0` creates a rendezvous channel where each send
    /// completes only when a receiver takes the message.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                next_ticket: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] with the value when every receiver has
        /// been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let inner = &self.inner;
            let mut state = inner.state.lock().expect("channel poisoned");
            if inner.capacity == Some(0) {
                // Rendezvous: enqueue, then wait until *this* message
                // (identified by ticket, not queue position — other
                // blocked senders may withdraw theirs first) is taken.
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let ticket = state.next_ticket;
                state.next_ticket += 1;
                state.queue.push_back((ticket, value));
                inner.not_empty.notify_one();
                loop {
                    let mine = state.queue.iter().position(|(t, _)| *t == ticket);
                    match mine {
                        None => return Ok(()), // a receiver took it
                        Some(idx) if state.receivers == 0 => {
                            // No receiver will ever take it; withdraw it.
                            let (_, value) = state.queue.remove(idx).expect("position just found");
                            return Err(SendError(value));
                        }
                        Some(_) => {
                            state = inner.not_full.wait(state).expect("channel poisoned");
                        }
                    }
                }
            }
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = inner.not_full.wait(state).expect("channel poisoned");
                    }
                    _ => break,
                }
            }
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            state.queue.push_back((ticket, value));
            drop(state);
            inner.not_empty.notify_one();
            Ok(())
        }

        /// Sends `value` without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity
        /// (a rendezvous channel always reports full: its sends always
        /// block until a receiver takes the message), or
        /// [`TrySendError::Disconnected`] when every receiver has been
        /// dropped. Both carry the unsent value.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = &self.inner;
            let mut state = inner.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            match inner.capacity {
                Some(0) => return Err(TrySendError::Full(value)),
                Some(cap) if state.queue.len() >= cap => {
                    return Err(TrySendError::Full(value));
                }
                _ => {}
            }
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            state.queue.push_back((ticket, value));
            drop(state);
            inner.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.inner.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake receivers blocked on an empty queue so they can
                // observe the disconnect.
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, blocking while the channel is empty.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] when the channel is empty and every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let inner = &self.inner;
            let mut state = inner.state.lock().expect("channel poisoned");
            loop {
                if let Some((_, value)) = state.queue.pop_front() {
                    drop(state);
                    // notify_all: rendezvous senders each wait for their
                    // own ticket, so every waiter must re-check.
                    inner.not_full.notify_all();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = inner.not_empty.wait(state).expect("channel poisoned");
            }
        }

        /// Receives without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued yet,
        /// [`TryRecvError::Disconnected`] when additionally every sender
        /// has been dropped.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let inner = &self.inner;
            let mut state = inner.state.lock().expect("channel poisoned");
            if let Some((_, value)) = state.queue.pop_front() {
                drop(state);
                inner.not_full.notify_all();
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// `true` when no message is queued. A zero-capacity channel is
        /// always empty, as in crossbeam: a rendezvous message belongs
        /// to its blocked sender until a receiver takes it.
        pub fn is_empty(&self) -> bool {
            self.inner.capacity == Some(0)
                || self
                    .inner
                    .state
                    .lock()
                    .expect("channel poisoned")
                    .queue
                    .is_empty()
        }

        /// A blocking iterator that yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.inner.state.lock().expect("channel poisoned").receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                // Wake senders blocked on a full queue so they can error.
                self.inner.not_full.notify_all();
            }
        }
    }

    /// Blocking iterator over received messages; see [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    /// Owning blocking iterator over received messages.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, unbounded, TryRecvError};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_blocks_then_drains() {
        let (tx, rx) = bounded(2);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        thread::sleep(Duration::from_millis(10));
        let got: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn is_empty_tracks_the_queue() {
        let (tx, rx) = unbounded::<u8>();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert!(!rx.is_empty());
        let other = rx.clone();
        assert!(!other.is_empty(), "every receiver sees the one queue");
        assert_eq!(rx.recv(), Ok(1));
        assert!(!rx.is_empty());
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
        // Dropping every sender leaves what was queued, then nothing.
        tx.send(3).unwrap();
        drop(tx);
        assert!(!rx.is_empty());
        assert_eq!(rx.recv(), Ok(3));
        assert!(rx.is_empty());
        // A rendezvous channel holds nothing between sends.
        let (_tx0, rx0) = bounded::<u8>(0);
        assert!(rx0.is_empty());
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        use super::channel::TrySendError;

        let (tx, rx) = bounded(1);
        assert!(tx.try_send(1u8).is_ok());
        match tx.try_send(2u8) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3u8).is_ok());
        drop(rx);
        match tx.try_send(4u8) {
            Err(TrySendError::Disconnected(v)) => assert_eq!(v, 4),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // Rendezvous channels always report full: their sends always
        // block until a receiver takes the message.
        let (tx0, _rx0) = bounded(0);
        assert!(matches!(tx0.try_send(5u8), Err(TrySendError::Full(_))));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }

    #[test]
    fn rendezvous_capacity_zero_works() {
        let (tx, rx) = bounded(0);
        let producer = thread::spawn(move || {
            for i in 0..20 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(got.len(), 20);
    }

    #[test]
    fn rendezvous_send_blocks_until_taken() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (tx, rx) = bounded(0);
        let handed_off = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&handed_off);
        let producer = thread::spawn(move || {
            tx.send(1u8).unwrap();
            flag.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(50));
        assert!(
            !handed_off.load(Ordering::SeqCst),
            "send returned before the message was received"
        );
        assert_eq!(rx.recv(), Ok(1));
        producer.join().unwrap();
        assert!(handed_off.load(Ordering::SeqCst));
    }

    #[test]
    fn rendezvous_withdraw_returns_own_message() {
        // Regression: with several senders blocked on a rendezvous
        // channel, dropping the receiver must hand each sender back its
        // *own* message (tickets, not queue positions) without panicking.
        for _ in 0..200 {
            let (tx, rx) = bounded(0);
            let senders: Vec<_> = (0..3u8)
                .map(|i| {
                    let tx = tx.clone();
                    thread::spawn(move || tx.send(i))
                })
                .collect();
            drop(tx);
            thread::sleep(Duration::from_micros(50));
            drop(rx);
            for (i, h) in senders.into_iter().enumerate() {
                match h.join().expect("sender must not panic") {
                    Ok(()) => {} // receiver took it before dropping
                    Err(super::channel::SendError(v)) => {
                        assert_eq!(v, i as u8, "sender got someone else's message back");
                    }
                }
            }
        }
    }

    #[test]
    fn mpmc_clone_endpoints() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        let mut got = vec![rx.recv().unwrap(), rx2.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(rx.recv().is_err());
    }
}
