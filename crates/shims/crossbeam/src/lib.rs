//! Offline stand-in for the `crossbeam` crate (channel module only).
//!
//! One unbounded MPMC channel over `Mutex` + `Condvar`: both
//! [`channel::Sender`] and [`channel::Receiver`] are cloneable,
//! disconnection is tracked by endpoint counts, and
//! [`channel::Receiver::is_empty`] sees the one queue every receiver
//! shares. Its one user is `dynamic-river`'s `serve.rs`, whose session
//! pool workers all receive from one job queue and whose fairness bound
//! asks that queue whether another job waits — the two things
//! `std::sync::mpsc` has no answer for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
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

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Creates an unbounded channel: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Queues `value`; never blocks.
        ///
        /// # Errors
        ///
        /// Returns [`SendError`] with the value when every receiver has
        /// been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().expect("channel poisoned");
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.inner.not_empty.notify_one();
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
            let mut state = self.inner.state.lock().expect("channel poisoned");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.inner.not_empty.wait(state).expect("channel poisoned");
            }
        }

        /// `true` when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.inner
                .state
                .lock()
                .expect("channel poisoned")
                .queue
                .is_empty()
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
            self.inner.state.lock().expect("channel poisoned").receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
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
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }

    #[test]
    fn blocked_receivers_wake_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let started = Arc::new(Barrier::new(4));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (rx, started) = (rx.clone(), Arc::clone(&started));
                thread::spawn(move || {
                    started.wait();
                    rx.recv()
                })
            })
            .collect();
        drop(rx);
        started.wait();
        // Whether a waiter is already asleep in `recv` or not, dropping
        // the last sender must end it with an error, never a hang; the
        // pause only makes the asleep case the likely one.
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        for w in waiters {
            assert!(w.join().unwrap().is_err());
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
