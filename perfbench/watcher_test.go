package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestSummarizeSweep(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Two workers, three cells: busy 2+1+2 = 5 worker-seconds over a
	// 3 s span from the first start (1 s) to the last finish (4 s), so
	// one of the 6 worker-seconds is idle.
	cells := []cellInterval{
		{cell: 0, start: at(1), end: at(3)},
		{cell: 1, start: at(1), end: at(2)},
		{cell: 2, start: at(2), end: at(4)},
	}
	st := summarizeSweep(t0, at(5), cells, 2)
	if st.preFanout != time.Second || st.postJoin != time.Second {
		t.Errorf("pre-fanout %v, post-join %v; want 1s, 1s", st.preFanout, st.postJoin)
	}
	if math.Abs(st.idleFrac-1.0/6) > 1e-12 {
		t.Errorf("idle fraction %g, want 1/6", st.idleFrac)
	}
	if len(st.cellSecs) != 3 || st.cellSecs[0] != 2 || st.cellSecs[1] != 1 || st.cellSecs[2] != 2 {
		t.Errorf("cell seconds %v, want [2 1 2]", st.cellSecs)
	}

	// One worker running back to back is never idle.
	serial := []cellInterval{{start: at(1), end: at(2)}, {start: at(2), end: at(4)}}
	if st := summarizeSweep(t0, at(4), serial, 1); st.idleFrac != 0 {
		t.Errorf("serial sweep idle fraction %g, want 0", st.idleFrac)
	}

	// A sweep whose cells never started is all pre-fanout.
	if st := summarizeSweep(t0, at(2), nil, 2); st.preFanout != 2*time.Second || st.idleFrac != 0 {
		t.Errorf("empty sweep: %+v", st)
	}
}

func TestCellWatcherConcurrent(t *testing.T) {
	w := newCellWatcher()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.CellStarted(c)
			w.CellFinished(c)
		}(c)
	}
	wg.Wait()
	got := w.intervals()
	if len(got) != 8 {
		t.Fatalf("%d intervals, want 8", len(got))
	}
	seen := map[int]bool{}
	for i, c := range got {
		seen[c.cell] = true
		if c.end.Before(c.start) || (i > 0 && c.start.Before(got[i-1].start)) {
			t.Errorf("interval %d out of order: %+v", i, c)
		}
	}
	if len(seen) != 8 {
		t.Errorf("cells seen %v, want 0..7", seen)
	}
}
