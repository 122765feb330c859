// Package agepick is the one aging-then-priority pick policy shared by
// the real I/O engine (internal/aio) and its discrete-event model
// (internal/des), so the simulator cannot drift from the engine on which
// queued op is served next.
//
// Queues are per-class FIFOs indexed by priority, index 0 the most
// urgent. A queue head whose enqueue stamp is at or before the aging
// cutoff is aged: the oldest aged head is served regardless of class, so
// every class is guaranteed progress. Otherwise the head of the most
// urgent non-empty class is served. On equal stamps among aged heads the
// more urgent class wins.
package agepick

import "cmp"

// Pick returns the index of the queue whose head is served next, or -1
// when every queue is empty. stamp reports an element's enqueue time in
// any ordered unit; a head is aged when aging is set and its stamp is
// <= cutoff (the caller's now minus the aging threshold, in the same
// unit). Pick allocates nothing and does not modify the queues.
func Pick[E any, T cmp.Ordered](queues [][]E, stamp func(E) T, aging bool, cutoff T) int {
	if aging {
		best := -1
		var bestT T
		for c, q := range queues {
			if len(q) == 0 {
				continue
			}
			// FIFO per class: the head is the oldest of its class.
			if t := stamp(q[0]); t <= cutoff && (best == -1 || t < bestT) {
				best, bestT = c, t
			}
		}
		if best >= 0 {
			return best
		}
	}
	for c, q := range queues {
		if len(q) > 0 {
			return c
		}
	}
	return -1
}
