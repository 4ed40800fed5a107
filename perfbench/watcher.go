package main

import (
	"sort"
	"sync"
	"time"
)

// cellWatcher is the parallel.Watcher the benchmark hands to a sweep
// through experiments.RunControl. Workers call it concurrently, so it
// only records wall-clock start and finish times under a mutex; all
// arithmetic happens after the sweep has joined.
type cellWatcher struct {
	mu       sync.Mutex
	started  map[int]time.Time
	finished []cellInterval
}

type cellInterval struct {
	cell       int
	start, end time.Time
}

func newCellWatcher() *cellWatcher { return &cellWatcher{started: map[int]time.Time{}} }

// CellStarted implements parallel.Watcher.
func (w *cellWatcher) CellStarted(cell int) {
	now := time.Now()
	w.mu.Lock()
	w.started[cell] = now
	w.mu.Unlock()
}

// CellFinished implements parallel.Watcher.
func (w *cellWatcher) CellFinished(cell int) {
	now := time.Now()
	w.mu.Lock()
	w.finished = append(w.finished, cellInterval{cell: cell, start: w.started[cell], end: now})
	delete(w.started, cell)
	w.mu.Unlock()
}

// intervals returns the finished cells in start order.
func (w *cellWatcher) intervals() []cellInterval {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := append([]cellInterval(nil), w.finished...)
	sort.Slice(out, func(a, b int) bool { return out[a].start.Before(out[b].start) })
	return out
}

// sweepTiming is what one sweep's watcher record says about the harness
// around the cells.
type sweepTiming struct {
	// preFanout runs from the call to the first CellStarted: the serial
	// snapshot builds before the pool starts.
	preFanout time.Duration
	// postJoin runs from the last CellFinished to the call's return: the
	// aggregation after the join.
	postJoin time.Duration
	// cellSecs is each cell's wall time in seconds.
	cellSecs []float64
	// idleFrac is the share of worker time, between the first cell start
	// and the last cell finish, in which a worker ran no cell.
	idleFrac float64
}

// summarizeSweep derives the harness timings of one sweep called at call
// and returning at ret, whose cells ran on the given number of workers.
func summarizeSweep(call, ret time.Time, cells []cellInterval, workers int) sweepTiming {
	if len(cells) == 0 {
		return sweepTiming{preFanout: ret.Sub(call)}
	}
	first, last := cells[0].start, cells[0].end
	busy := 0.0
	var st sweepTiming
	for _, c := range cells {
		if c.start.Before(first) {
			first = c.start
		}
		if c.end.After(last) {
			last = c.end
		}
		d := c.end.Sub(c.start).Seconds()
		busy += d
		st.cellSecs = append(st.cellSecs, d)
	}
	st.preFanout = first.Sub(call)
	st.postJoin = ret.Sub(last)
	if span := last.Sub(first).Seconds(); span > 0 && workers > 0 {
		st.idleFrac = 1 - busy/(float64(workers)*span)
	}
	return st
}
