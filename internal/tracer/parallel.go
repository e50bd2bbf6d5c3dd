package tracer

import (
	"runtime"
	"sync"
	"sync/atomic"

	"backtrace/internal/ids"
)

// This file implements the work-stealing relaxation engine shared by the
// multi-worker full trace (dense.go) and the parallel incremental remark
// (incremental.go).

// parChunk is the granularity of work stealing: workers keep a private
// LIFO stack for locality and expose surplus in chunks of this size.
const parChunk = 256

// parEngine runs one relaxation to fixpoint over a set of workers.
type parEngine struct {
	workers []*parWorker
	// pending counts chunks published to deques and not yet fully
	// processed. A worker exits only when its private stack is empty, it
	// found nothing to pop or steal, and pending is zero; remaining work
	// then necessarily sits in some still-running worker's private stack,
	// and that worker cannot exit before draining it.
	pending atomic.Int64
	steals  atomic.Int64
	// scan processes one work item; it may push follow-up work on w.
	scan func(w *parWorker, obj ids.ObjID)
}

// parWorker is one mark worker: a private stack, a deque of stealable
// chunks, and per-worker accumulators merged deterministically afterwards.
type parWorker struct {
	eng   *parEngine
	id    int
	local []ids.ObjID

	mu     sync.Mutex
	chunks [][]ids.ObjID

	// outMin is the worker's running minimum of outref distances; the
	// merge folds all workers' minima together.
	outMin  map[ids.Ref]int
	scanned int64
}

func newParEngine(workers int, scan func(w *parWorker, obj ids.ObjID)) *parEngine {
	e := &parEngine{workers: make([]*parWorker, workers), scan: scan}
	for i := range e.workers {
		e.workers[i] = &parWorker{eng: e, id: i, outMin: make(map[ids.Ref]int)}
	}
	return e
}

// seed distributes initial work items round-robin across workers' private
// stacks. Must be called before run.
func (e *parEngine) seed(objs []ids.ObjID) {
	for i, obj := range objs {
		w := e.workers[i%len(e.workers)]
		w.local = append(w.local, obj)
	}
}

// run executes the relaxation to fixpoint and blocks until all workers
// exit.
func (e *parEngine) run() {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *parWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()
}

// push adds a work item to the worker's private stack, publishing a
// stealable chunk when the stack grows past four chunks' worth.
func (w *parWorker) push(obj ids.ObjID) {
	w.local = append(w.local, obj)
	if len(w.local) >= 4*parChunk {
		n := len(w.local)
		c := make([]ids.ObjID, parChunk)
		copy(c, w.local[n-parChunk:])
		w.local = w.local[:n-parChunk]
		w.eng.pending.Add(1)
		w.mu.Lock()
		w.chunks = append(w.chunks, c)
		w.mu.Unlock()
	}
}

func (w *parWorker) popOwn() []ids.ObjID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.chunks); n > 0 {
		c := w.chunks[n-1]
		w.chunks = w.chunks[:n-1]
		return c
	}
	return nil
}

// stealFrom takes the victim's oldest chunk (FIFO end — the opposite end
// from the victim's own pops, minimizing contention and stealing the
// largest subtrees first).
func (w *parWorker) stealFrom(v *parWorker) []ids.ObjID {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.chunks) > 0 {
		c := v.chunks[0]
		v.chunks = v.chunks[1:]
		return c
	}
	return nil
}

func (w *parWorker) run() {
	e := w.eng
	for {
		if n := len(w.local); n > 0 {
			obj := w.local[n-1]
			w.local = w.local[:n-1]
			e.scan(w, obj)
			continue
		}
		if c := w.popOwn(); c != nil {
			w.processChunk(c)
			continue
		}
		if c := w.stealAny(); c != nil {
			e.steals.Add(1)
			w.processChunk(c)
			continue
		}
		if e.pending.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
}

func (w *parWorker) stealAny() []ids.ObjID {
	n := len(w.eng.workers)
	for i := 1; i < n; i++ {
		if c := w.stealFrom(w.eng.workers[(w.id+i)%n]); c != nil {
			return c
		}
	}
	return nil
}

func (w *parWorker) processChunk(c []ids.ObjID) {
	for _, obj := range c {
		w.eng.scan(w, obj)
	}
	w.eng.pending.Add(-1)
}
