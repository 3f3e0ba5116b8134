//! Bounded MPMC work queue with blocking and non-blocking producers.
//!
//! The queue is the backpressure point of the serving layer: producers
//! either block until a slot frees up ([`BoundedQueue::push`]) or get the
//! item handed back immediately ([`BoundedQueue::try_push`]), which the
//! server surfaces as a typed `Overloaded` outcome — never a panic.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded FIFO shared between one or more producers and a worker pool.
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Create a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn note_depth(&self, depth: usize) {
        if obskit::enabled() {
            obskit::current().set_gauge("servekit.queue.depth", depth as f64);
        }
    }

    /// Non-blocking enqueue. Returns the item back when the queue is full
    /// or closed — the caller sheds the load instead of waiting.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().unwrap();
        if g.closed || g.items.len() >= self.capacity {
            return Err(item);
        }
        g.items.push_back(item);
        let depth = g.items.len();
        drop(g);
        self.note_depth(depth);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking enqueue: waits for a slot. Returns the item back only if
    /// the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.inner.lock().unwrap();
        while !g.closed && g.items.len() >= self.capacity {
            g = self.not_full.wait(g).unwrap();
        }
        if g.closed {
            return Err(item);
        }
        g.items.push_back(item);
        let depth = g.items.len();
        drop(g);
        self.note_depth(depth);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking dequeue. Returns `None` once the queue is closed *and*
    /// drained — the worker-pool shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if let Some(item) = g.items.pop_front() {
                let depth = g.items.len();
                drop(g);
                self.note_depth(depth);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap();
        }
    }

    /// Close the queue: producers fail fast, consumers drain then stop.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current number of queued items.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_sheds_when_full() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue hands the item back");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "slot freed after pop");
    }

    #[test]
    fn pop_returns_none_after_close_and_drain() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(2), "closed queue rejects producers");
        assert_eq!(q.pop(), Some(1), "items enqueued before close still drain");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_push_waits_for_consumer() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2));
        // Unblock the producer by draining; then drain its item too.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }
}
