package sim

import (
	"container/heap"
	"testing"
)

// The calendar queue replaced the binary heap as the kernel's event
// store; eventHeap — the old implementation in its entirety — stays on
// as the overflow/early rung and as the ordering oracle here: every
// test that asserts pop order derives the expected sequence from an
// eventHeap fed the same (at, seq) pairs.

// oracleOrder pushes the given (at, seq) pairs into an eventHeap and
// pops them all, returning the seqs in heap order.
func oracleOrder(ats []Time) []uint64 {
	var h eventHeap
	for i, at := range ats {
		heap.Push(&h, &eventNode{at: at, seq: uint64(i)})
	}
	out := make([]uint64, 0, len(ats))
	for h.Len() > 0 {
		out = append(out, heap.Pop(&h).(*eventNode).seq)
	}
	return out
}

// TestSameInstantFIFOTorture schedules thousands of events at one
// timestamp (with a few neighbours and interleaved cancellations) and
// asserts the kernel fires them in exactly the order the heap oracle
// produces: scheduling order within the shared instant.
func TestSameInstantFIFOTorture(t *testing.T) {
	const n = 4000
	shared := Time(3*Millisecond + 137)
	k := NewKernel(1)
	ats := make([]Time, 0, n)
	events := make([]Event, 0, n)
	var got []uint64
	for i := 0; i < n; i++ {
		at := shared
		switch {
		case i%97 == 13:
			at = shared - Time(i%5+1) // a few strictly-before neighbours
		case i%89 == 7:
			at = shared + Time(i%5+1) // and strictly-after ones
		}
		seq := uint64(i)
		events = append(events, k.At(at, func() { got = append(got, seq) }))
		ats = append(ats, at)
	}
	canceled := make(map[uint64]bool)
	for i := 0; i < n; i += 7 {
		k.Cancel(events[i])
		canceled[uint64(i)] = true
	}
	k.Run()
	want := make([]uint64, 0, n)
	for _, seq := range oracleOrder(ats) {
		if !canceled[seq] {
			want = append(want, seq)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, oracle expects %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order diverges from heap oracle at position %d: got seq %d, want %d",
				i, got[i], want[i])
		}
	}
}

// TestCalendarMatchesHeapOracle drives the queue through a seeded random
// schedule/pop walk spanning same-bucket ties, cross-bucket spreads,
// far-future overflow pushes and empty-queue cursor jumps, checking every
// popped (at, seq) against a heap oracle fed the identical pushes.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	rng := NewRNG(7)
	var q calendarQueue
	var oracle eventHeap
	seq := uint64(0)
	now := Time(0)
	push := func(at Time) {
		q.push(&eventNode{at: at, seq: seq})
		heap.Push(&oracle, &eventNode{at: at, seq: seq})
		seq++
	}
	pop := func() {
		want := heap.Pop(&oracle).(*eventNode)
		if got := q.peek(); got.at != want.at || got.seq != want.seq {
			t.Fatalf("peek (at %v, seq %d), oracle wants (at %v, seq %d)",
				got.at, got.seq, want.at, want.seq)
		}
		got := q.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop (at %v, seq %d), oracle wants (at %v, seq %d)",
				got.at, got.seq, want.at, want.seq)
		}
		now = got.at
	}
	for i := 0; i < 30000; i++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			// Near-term: lands in the bucket ring, often colliding with
			// other pushes in the same window (and sometimes the same at).
			push(now + Time(rng.Intn(int(2*Millisecond))))
		case r < 0.55:
			// Far-future: beyond the ~67 ms horizon, so it takes the
			// overflow rung and must migrate back in order.
			push(now + calSpan + Time(rng.Intn(int(200*Millisecond))))
		case r < 0.60 && q.len() > 0:
			// Drain to empty now and then to exercise the cursor jump.
			for q.len() > 0 {
				pop()
			}
		default:
			if q.len() > 0 {
				pop()
			} else {
				push(now + Time(rng.Intn(int(Millisecond))))
			}
		}
	}
	for q.len() > 0 {
		pop()
	}
	if oracle.Len() != 0 {
		t.Fatalf("oracle still holds %d events after queue drained", oracle.Len())
	}
}

// TestCalendarEarlyInsertAfterRunUntil covers the early rung: RunUntil
// leaves the cursor committed to the next event's window ahead of the
// clock, and an event then scheduled behind that window must still fire
// first, in (at, seq) order.
func TestCalendarEarlyInsertAfterRunUntil(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(50*Millisecond, func() { got = append(got, 3) })
	k.RunUntil(10 * Millisecond) // peeks the 50 ms event, cursor commits to its window
	k.At(11*Millisecond, func() { got = append(got, 1) })
	k.At(11*Millisecond, func() { got = append(got, 2) }) // same-instant FIFO on the early rung
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
	if k.Now() != 50*Millisecond {
		t.Fatalf("clock %v, want 50ms", k.Now())
	}
}

// TestCalendarOverflowMigration checks that events beyond the bucket
// horizon (overflow rung) fire in exact order relative to near-term
// events, including ties created between a bucketed and an overflowed
// event at the same instant.
func TestCalendarOverflowMigration(t *testing.T) {
	k := NewKernel(1)
	var got []int
	far := calSpan + 10*Millisecond
	// Scheduled first, so it overflows (beyond horizon at push time).
	k.At(far, func() { got = append(got, 1) })
	// March the clock close to far, then schedule the same instant from
	// within the horizon: the overflow event has the older seq and must
	// still fire first after migrating into the same bucket.
	k.At(far-20*Millisecond, func() {
		k.At(far, func() { got = append(got, 2) })
	})
	k.At(far+Millisecond, func() { got = append(got, 3) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", got)
	}
}
