//! Micro-batch formation policy.
//!
//! The batcher is deliberately *pure*: it owns no queue and reads no clock.
//! A worker that is free asks it how many of the queued rows to take, so
//! batch formation is testable with a simulated clock (no sleeps, no
//! flakes), and the engine's worker loop only has to report the queue
//! depth honestly.

/// Work-conserving batch cut: a free worker takes `min(queued, max_rows)`
/// rows at once.
///
/// No request waits while a worker is free, and batches grow only while
/// every worker is busy: the rows that arrive during one batch are the next
/// batch. Holding a lone request for company would only idle a worker; a
/// batch of `r` rows costs about `a + b·r` (the packed-model stream plus
/// the rows' compute), so waiting saves nothing that the next free worker
/// does not already amortise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroBatcher {
    /// Largest batch the plan allows (memory- and capacity-bounded).
    pub max_rows: usize,
}

impl MicroBatcher {
    /// Creates a batcher; `max_rows` is clamped to at least 1.
    pub fn new(max_rows: usize) -> Self {
        MicroBatcher {
            max_rows: max_rows.max(1),
        }
    }

    /// How many rows a free worker takes from a queue `depth` rows deep:
    /// `Some(min(depth, max_rows))`, or `None` when the queue is empty.
    pub fn ready(&self, depth: usize) -> Option<usize> {
        (depth > 0).then(|| depth.min(self.max_rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_never_ready() {
        let b = MicroBatcher::new(8);
        assert_eq!(b.ready(0), None);
    }

    #[test]
    fn full_batch_cuts_immediately() {
        let b = MicroBatcher::new(8);
        assert_eq!(b.ready(8), Some(8));
        assert_eq!(b.ready(20), Some(8));
    }

    #[test]
    fn lone_request_is_taken_at_once() {
        let b = MicroBatcher::new(8);
        assert_eq!(b.ready(1), Some(1));
        assert_eq!(b.ready(3), Some(3));
    }

    #[test]
    fn max_rows_clamped_to_one() {
        let b = MicroBatcher::new(0);
        assert_eq!(b.max_rows, 1);
        assert_eq!(b.ready(1), Some(1));
    }
}
