//! The one scheduling order: highest [`Priority`] first, then release order.
//!
//! [`crate::Runtime`] keeps its ready tasks in a [`ReadyQueue`] and so does
//! each simulated node of the distributed DES (`exa-distsim`), so the order
//! the executor runs and the order the simulator models are the same code.

use crate::Priority;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ready tasks ordered by priority, then by release (push) order.
pub struct ReadyQueue<T> {
    heap: BinaryHeap<(Priority, Reverse<u64>, T)>,
    released: u64,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue {
            heap: BinaryHeap::new(),
            released: 0,
        }
    }
}

impl<T: Ord> ReadyQueue<T> {
    /// Releases `task`. Release numbers are unique, so `T`'s own order never
    /// decides anything.
    pub fn push(&mut self, priority: Priority, task: T) {
        self.released += 1;
        self.heap.push((priority, Reverse(self.released), task));
    }

    /// The highest-priority task, earliest released among equals.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|(_, _, task)| task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CholTask;

    #[test]
    fn equal_priorities_pop_in_push_order_not_in_task_order() {
        // `CholTask`'s derived `Ord` has `Potrf < first < last`, so neither a
        // max- nor a min-order on the task would pop `first` first.
        let first = CholTask::Gemm { k: 0, j: 1, i: 2 };
        let potrf = CholTask::Potrf { k: 3 };
        let last = CholTask::Gemm { k: 1, j: 2, i: 3 };
        let mut q = ReadyQueue::default();
        for task in [first, potrf, last] {
            q.push(0, task);
        }
        q.push(1, CholTask::Trsm { k: 0, i: 1 });
        assert_eq!(q.pop(), Some(CholTask::Trsm { k: 0, i: 1 }));
        assert_eq!(q.pop(), Some(first));
        assert_eq!(q.pop(), Some(potrf));
        assert_eq!(q.pop(), Some(last));
        assert_eq!(q.pop(), None);
    }
}
