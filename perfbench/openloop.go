package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// timeline is one open-loop request, as offsets from the loop's start:
// when it was due, when a sender put it on the wire, when its reply was
// in.
type timeline struct {
	due, sent, done time.Duration
}

// latency is what the user sees: from the request's due time, so time a
// request spent waiting for a free sender counts.
func (t timeline) latency() time.Duration { return t.done - t.due }

// service is the time the daemon took once the request was sent.
func (t timeline) service() time.Duration { return t.done - t.sent }

// late is how far behind schedule the generator sent the request.
func (t timeline) late() time.Duration { return t.sent - t.due }

// openLoop sends request i at due[i] (ascending offsets from the start)
// over at most conns senders, each waiting for its reply before taking
// the next due request. The schedule never waits for the system: a
// request whose senders are all busy goes out late, and because its
// latency still runs from its due time, a stall is charged to every
// request it delays. send(i) is called from up to conns goroutines at
// once. It returns every request's timeline and the most requests that
// were in flight at once.
func openLoop(due []time.Duration, conns int, send func(i int)) ([]timeline, int) {
	out := make([]timeline, len(due))
	var next, inflight, peak atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				out[i].due = due[i]
				out[i].sent = time.Since(start)
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				send(i)
				inflight.Add(-1)
				out[i].done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out, int(peak.Load())
}
