package sim

import "math/bits"

// Hierarchical timing wheel: the data structure behind the engine's
// pending-event queue.
//
// Virtual time is bucketed on a 1 ns tick grid. wheelLevels levels of
// wheelSlots buckets each cover a horizon of 2^(wheelBits*wheelLevels)
// ticks (~3.3 virtual days at 8×64); events beyond the horizon park in an
// unsorted overflow slice that is folded back through the wheel when the
// wheel itself runs dry. Near-horizon schedule, cancel, and fire are O(1):
// placement is two shifts and an append, cancel is a swap-remove through
// the location stamped on the record, and firing scans per-level occupancy
// bitmaps instead of walking empty buckets.
//
// Events that share the current tick live in a small binary heap ("due")
// ordered by the full (at, seq) key, so fractional-nanosecond times and
// the FIFO tie-break keep exactly the ordering of a (time, seq) heap:
// the wheel only ever coarsens *future* placement, never fire order.
//
// Invariants:
//   - due holds every pending event whose tick is ≤ cur (times before the
//     cursor appear only transiently, when peek advanced the cursor ahead
//     of the engine clock and a later schedule lands between the two).
//   - a set occupancy bit at any level marks a bucket whose events all
//     have ticks strictly after cur.
//   - a pending record's loc/idx always name its exact container slot.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// slot.loc values. A non-negative loc encodes a wheel bucket as
// level<<wheelBits | bucket; idx is the record's position inside whichever
// container loc names.
const (
	locNone int32 = -1 // settled: not in any timeline container
	locDue  int32 = -2 // wheel due heap
	locOver int32 = -3 // wheel overflow slice
)

// tick truncates a virtual time to the wheel's 1 ns grid. Sub-nanosecond
// precision is not lost: equal-tick events are ordered by the exact
// (at, seq) key in the due heap.
func tick(t Time) uint64 { return uint64(t) }

type wheel struct {
	cur  uint64 // current tick; see the invariants above
	size int
	// due is a binary min-heap by (at, seq) holding the events next to
	// fire. It is small in steady state: one tick's worth of events.
	due      []*slot
	occ      [wheelLevels]uint64
	buckets  [wheelLevels][wheelSlots][]*slot
	overflow []*slot
}

func (w *wheel) len() int { return w.size }

func (w *wheel) push(s *slot) {
	w.size++
	if tk := tick(s.at); tk > w.cur {
		w.place(s, tk)
	} else {
		w.duePush(s)
	}
}

// place files a future event (tk > cur) into the wheel proper.
func (w *wheel) place(s *slot, tk uint64) {
	// The level is picked by the highest bit where tk differs from the
	// cursor: level l resolves time to 2^(wheelBits·l) ticks, so the event
	// lands in the coarsest bucket that still separates it from cur.
	level := (bits.Len64(tk^w.cur) - 1) / wheelBits
	if level >= wheelLevels {
		s.loc = locOver
		s.idx = len(w.overflow)
		w.overflow = append(w.overflow, s)
		return
	}
	b := (tk >> (uint(level) * wheelBits)) & wheelMask
	s.loc = int32(level)<<wheelBits | int32(b)
	s.idx = len(w.buckets[level][b])
	w.buckets[level][b] = append(w.buckets[level][b], s)
	w.occ[level] |= 1 << b
}

func (w *wheel) pop() *slot {
	if w.size == 0 {
		return nil
	}
	if len(w.due) == 0 {
		w.advance()
	}
	s := w.duePop()
	w.size--
	return s
}

func (w *wheel) peek() (Time, bool) {
	if w.size == 0 {
		return 0, false
	}
	if len(w.due) == 0 {
		w.advance()
	}
	return w.due[0].at, true
}

func (w *wheel) remove(s *slot) {
	switch {
	case s.loc == locDue:
		w.dueRemove(s.idx)
	case s.loc == locOver:
		last := len(w.overflow) - 1
		if s.idx != last {
			moved := w.overflow[last]
			w.overflow[s.idx] = moved
			moved.idx = s.idx
		}
		w.overflow[last] = nil
		w.overflow = w.overflow[:last]
		s.loc = locNone
		s.idx = -1
	case s.loc >= 0:
		l := int(s.loc >> wheelBits)
		b := int(s.loc & wheelMask)
		bucket := w.buckets[l][b]
		last := len(bucket) - 1
		if s.idx != last {
			moved := bucket[last]
			bucket[s.idx] = moved
			moved.idx = s.idx
		}
		bucket[last] = nil
		w.buckets[l][b] = bucket[:last]
		if last == 0 {
			w.occ[l] &^= 1 << uint(b)
		}
		s.loc = locNone
		s.idx = -1
	default:
		return // not queued; Cancel's generation check normally prevents this
	}
	w.size--
}

// advance moves the cursor to the next occupied tick and drains that
// tick's events into the due heap. Called only with size > 0 and due
// empty.
func (w *wheel) advance() {
	for len(w.due) == 0 {
		if m := w.occ[0]; m != 0 {
			// Next event is inside the current 64-tick window: jump
			// straight to its tick and drain the bucket.
			b := uint64(bits.TrailingZeros64(m))
			w.cur = w.cur&^uint64(wheelMask) | b
			sl := w.buckets[0][b]
			w.buckets[0][b] = sl[:0]
			w.occ[0] &^= 1 << b
			for _, s := range sl {
				w.duePush(s)
			}
			continue
		}
		if !w.cascade() {
			w.refillFromOverflow()
		}
	}
}

// cascade finds the lowest level with an occupied bucket, jumps the
// cursor to that bucket's first tick, and redistributes its events into
// finer levels (or straight to due). Reports false when every level is
// empty.
func (w *wheel) cascade() bool {
	for l := 1; l < wheelLevels; l++ {
		m := w.occ[l]
		if m == 0 {
			continue
		}
		b := uint64(bits.TrailingZeros64(m))
		span := uint64(1) << (uint(l) * wheelBits)
		base := w.cur &^ (span*wheelSlots - 1)
		w.cur = base + b*span
		sl := w.buckets[l][b]
		w.buckets[l][b] = sl[:0]
		w.occ[l] &^= 1 << b
		for _, s := range sl {
			// Every tick in the bucket is ≥ the new cursor and within
			// span of it, so redistribution always lands strictly below
			// level l — the cascade terminates.
			if tk := tick(s.at); tk > w.cur {
				w.place(s, tk)
			} else {
				w.duePush(s)
			}
		}
		return true
	}
	return false
}

// refillFromOverflow jumps the cursor to the earliest overflow tick and
// folds the overflow events back through the wheel. The O(n) scan is
// amortized over the ≥2^48 ticks that had to elapse to reach it.
func (w *wheel) refillFromOverflow() {
	if len(w.overflow) == 0 {
		panic("sim: timeline lost events (empty wheel with size > 0)")
	}
	min := tick(w.overflow[0].at)
	for _, s := range w.overflow[1:] {
		if tk := tick(s.at); tk < min {
			min = tk
		}
	}
	w.cur = min
	sl := w.overflow
	w.overflow = sl[:0]
	for _, s := range sl {
		// place may re-append to w.overflow (events still beyond the new
		// horizon). That reuses sl's backing array in place, which is safe:
		// at most i records have been kept when sl[i] is read, so appends
		// never overwrite an unread element.
		if tk := tick(s.at); tk > w.cur {
			w.place(s, tk)
		} else {
			w.duePush(s)
		}
	}
}

// due-heap primitives: a plain binary heap over (at, seq) with the
// record's idx kept in sync so dueRemove is O(log n) from a handle.

func dueLess(a, b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (w *wheel) duePush(s *slot) {
	s.loc = locDue
	s.idx = len(w.due)
	w.due = append(w.due, s)
	w.dueUp(s.idx)
}

func (w *wheel) duePop() *slot {
	s := w.due[0]
	last := len(w.due) - 1
	if last > 0 {
		w.due[0] = w.due[last]
		w.due[0].idx = 0
	}
	w.due[last] = nil
	w.due = w.due[:last]
	if last > 1 {
		w.dueDown(0)
	}
	s.loc = locNone
	s.idx = -1
	return s
}

func (w *wheel) dueRemove(i int) {
	s := w.due[i]
	last := len(w.due) - 1
	if i != last {
		moved := w.due[last]
		w.due[i] = moved
		moved.idx = i
	}
	w.due[last] = nil
	w.due = w.due[:last]
	if i < last {
		w.dueDown(i)
		w.dueUp(i)
	}
	s.loc = locNone
	s.idx = -1
}

func (w *wheel) dueUp(i int) {
	s := w.due[i]
	for i > 0 {
		p := (i - 1) / 2
		if !dueLess(s, w.due[p]) {
			break
		}
		w.due[i] = w.due[p]
		w.due[i].idx = i
		i = p
	}
	w.due[i] = s
	s.idx = i
}

func (w *wheel) dueDown(i int) {
	n := len(w.due)
	s := w.due[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && dueLess(w.due[r], w.due[c]) {
			c = r
		}
		if !dueLess(w.due[c], s) {
			break
		}
		w.due[i] = w.due[c]
		w.due[i].idx = i
		i = c
	}
	w.due[i] = s
	s.idx = i
}
