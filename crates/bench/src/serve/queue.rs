//! A bounded MPMC queue with explicit overload rejection.
//!
//! The admission-control heart of `bandwall serve`: the acceptor
//! `try_push`es new connections and *immediately* learns when the queue
//! is full (so it can shed load with an `overloaded` reply instead of
//! queueing unboundedly — the queueing collapse the bandwidth wall
//! itself describes), while workers block on [`BoundedQueue::pop`]
//! until work arrives or the queue is closed and drained.
//!
//! Built on `Mutex<VecDeque>` + `Condvar` (std only). All locks recover
//! from poisoning: a panicking worker can never wedge admission.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a [`BoundedQueue::try_push`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the value is handed back for an
    /// immediate shed reply.
    Full(T),
    /// The queue is closed (shutting down); no new work is admitted.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` pending items.
    /// A zero capacity is clamped to one (a queue that can never admit
    /// anything would deadlock the acceptor's shed path tests).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits `value` unless the queue is full or closed — never blocks.
    ///
    /// # Errors
    ///
    /// Returns the value inside [`PushError`] when refused.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(value));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(value));
        }
        inner.items.push_back(value);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed *and* drained (returning `None`). Closed-but-nonempty
    /// queues keep handing out items so shutdown drains in-flight work.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Closes the queue: producers are refused from now on, consumers
    /// drain what is already queued and then observe `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue is at capacity (the readiness probe's
    /// saturation signal).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bounded_admission_and_fifo_order() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(q.is_full());
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(8));
        let produced = 4 * 100;
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let mut v = p * 100 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, produced);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = BoundedQueue::new(0);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(PushError::Full(2)));
    }
}
