package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// Differential check between the engine's timing wheel and a reference
// binary heap: one binary replays the same operation script against both
// and demands identical observable behavior: same peek, same pop order,
// same survivors after cancels.

// tlOps is the common surface of wheel and heapTimeline.
type tlOps interface {
	len() int
	push(*slot)
	pop() *slot
	peek() (Time, bool)
	remove(*slot)
}

// tlEntry pairs the two records that represent one logical event, one per
// timeline. The slot's arg field carries the entry index so pops can be
// matched by logical identity, not just (at, seq).
type tlEntry struct {
	ws, hs *slot
	live   bool
}

type tlScript struct {
	t       *testing.T
	w, h    tlOps
	entries []tlEntry
	liveIdx []int
	now     Time
	seq     uint64
}

func (sc *tlScript) push(at Time) {
	idx := len(sc.entries)
	ws := &slot{at: at, seq: sc.seq, arg: uint64(idx), loc: locNone, idx: -1}
	hs := &slot{at: at, seq: sc.seq, arg: uint64(idx), loc: locNone, idx: -1}
	sc.seq++
	sc.w.push(ws)
	sc.h.push(hs)
	sc.entries = append(sc.entries, tlEntry{ws: ws, hs: hs, live: true})
	sc.liveIdx = append(sc.liveIdx, idx)
}

func (sc *tlScript) pop() {
	ws, hs := sc.w.pop(), sc.h.pop()
	if (ws == nil) != (hs == nil) {
		sc.t.Fatalf("pop divergence: wheel=%v heap=%v", ws != nil, hs != nil)
	}
	if ws == nil {
		return
	}
	if ws.arg != hs.arg || ws.at != hs.at || ws.seq != hs.seq {
		sc.t.Fatalf("pop order divergence: wheel popped event %d (at=%v seq=%d), heap popped event %d (at=%v seq=%d)",
			ws.arg, ws.at, ws.seq, hs.arg, hs.at, hs.seq)
	}
	if ws.at < sc.now {
		sc.t.Fatalf("wheel popped event at %v after clock reached %v", ws.at, sc.now)
	}
	sc.now = ws.at
	sc.retire(int(ws.arg))
}

func (sc *tlScript) peek() {
	wt, wok := sc.w.peek()
	ht, hok := sc.h.peek()
	if wok != hok || (wok && wt != ht) {
		sc.t.Fatalf("peek divergence: wheel=(%v,%v) heap=(%v,%v)", wt, wok, ht, hok)
	}
}

func (sc *tlScript) cancel(k int) {
	if len(sc.liveIdx) == 0 {
		return
	}
	idx := sc.liveIdx[k%len(sc.liveIdx)]
	en := &sc.entries[idx]
	sc.w.remove(en.ws)
	sc.h.remove(en.hs)
	sc.retire(idx)
	if sc.w.len() != sc.h.len() {
		sc.t.Fatalf("len divergence after cancel: wheel=%d heap=%d", sc.w.len(), sc.h.len())
	}
}

func (sc *tlScript) retire(idx int) {
	sc.entries[idx].live = false
	for i, v := range sc.liveIdx {
		if v == idx {
			sc.liveIdx[i] = sc.liveIdx[len(sc.liveIdx)-1]
			sc.liveIdx = sc.liveIdx[:len(sc.liveIdx)-1]
			return
		}
	}
	sc.t.Fatalf("event %d retired twice", idx)
}

// replayTimelines decodes data as an operation script and replays it
// against both timelines, then drains them comparing every pop.
func replayTimelines(t *testing.T, data []byte) {
	sc := &tlScript{t: t, w: &wheel{}, h: &heapTimeline{}}
	for i := 0; i+1 < len(data); i += 2 {
		op, v := data[i], data[i+1]
		switch op % 8 {
		case 0, 1, 2: // schedule: mix of ties, near, cascade-far, and overflow-far times
			var d Time
			switch {
			case v == 255:
				d = 3e15 // beyond the 2^48-tick wheel horizon
			case v == 254:
				d = 3e9 // multi-level cascade distance
			case v%5 == 0:
				d = 0 // exact tie on (time); seq breaks it
			default:
				d = Time(v) + Time(v%7)/8 // fractional ticks share a bucket
			}
			sc.push(sc.now + d)
		case 3, 4: // fire
			sc.pop()
		case 5:
			sc.peek()
		case 6:
			sc.cancel(int(v))
		case 7: // reschedule = cancel + schedule later
			sc.cancel(int(v))
			sc.push(sc.now + Time(v)*17)
		}
	}
	for sc.w.len() > 0 || sc.h.len() > 0 {
		sc.peek()
		sc.pop()
	}
}

func FuzzTimelineDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 0})
	f.Add([]byte{0, 255, 0, 254, 0, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 6, 1, 7, 2, 5, 0, 3, 0})
	f.Add([]byte{2, 253, 5, 0, 0, 3, 3, 0, 1, 255, 6, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayTimelines(t, data)
	})
}

// TestTimelineDifferentialRandom is the always-on property test: seeded
// random scripts, so plain `go test` gets differential coverage without
// the fuzzer.
func TestTimelineDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		rng.Read(data)
		replayTimelines(t, data)
	}
}

// locHeap marks a slot held by the reference heap timeline.
const locHeap int32 = -4

// heapTimeline is the reference timeline: the container/heap queue the
// timing wheel replaced. A binary heap ordered by (at, seq) is simple
// enough to be obviously right, so the differential tests hold the wheel
// to it.
type heapTimeline struct {
	h eventHeap
}

func (t *heapTimeline) len() int { return len(t.h) }

func (t *heapTimeline) push(s *slot) {
	s.loc = locHeap
	heap.Push(&t.h, s)
}

func (t *heapTimeline) pop() *slot {
	if len(t.h) == 0 {
		return nil
	}
	s := heap.Pop(&t.h).(*slot)
	s.loc = locNone
	return s
}

func (t *heapTimeline) peek() (Time, bool) {
	if len(t.h) == 0 {
		return 0, false
	}
	return t.h[0].at, true
}

func (t *heapTimeline) remove(s *slot) {
	heap.Remove(&t.h, s.idx)
	s.loc = locNone
	s.idx = -1
}

// eventHeap orders events by (time, sequence).
type eventHeap []*slot

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*slot)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}
