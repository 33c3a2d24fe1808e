// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with coroutine-backed processes and a zero-handoff callback fast
// path.
//
// The kernel maintains virtual time at nanosecond resolution. Exactly one
// process (or event callback) executes at any instant. Run is a single
// dispatch loop on the caller's goroutine: it runs callback events (timers,
// completions scheduled with At/After/AtCall/AfterCall) inline, and resumes
// a process by switching straight into its iter.Pull coroutine, so the Go
// scheduler never takes part in a handoff. A process that parks when the
// next event is its own wake-up (the common Sleep case) takes that event in
// place and keeps running without any switch. Event records are pooled on a
// per-kernel free list, events scheduled for the current instant go through
// a FIFO ready ring that bypasses the time-ordered heap, and simulated code
// is still written in ordinary blocking style (Sleep, Lock, Push/Pop on
// queues) without data races and without real wall-clock delays.
//
// Events scheduled for the same virtual time fire in schedule order, which
// makes every run bit-for-bit reproducible for a given seed.
package sim

import "fmt"

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel for Run meaning "run until the event queue drains".
const Forever Time = -1

// String formats a Time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

type event struct {
	t    Time
	seq  uint64
	proc *Proc     // if non-nil, resume this process
	fn   func()    // else run this callback (must not block)
	fnA  func(any) // else run fnA(arg): closure-free callback
	arg  any
}

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now Time
	seq uint64

	// events is a hand-rolled binary min-heap ordered by (t, seq); it only
	// holds events scheduled for a future instant.
	events []*event

	// ready is a FIFO ring of events scheduled for the current instant.
	// Time is non-decreasing and seq is assigned in push order, so the ring
	// head is always the ring's (t, seq) minimum.
	ready fifo[*event]

	free []*event // event record free list

	running *Proc
	idle    []*runner // parked coroutines free for the next Go
	live    int       // spawned processes that have not finished
	stopped bool
	inRun   bool
	until   Time // horizon of the current Run
	nextID  int64
	counts  Counters
}

// Counters splits the kernel's dispatched events by what each one did.
// The four fields always sum to Dispatched.
type Counters struct {
	// Resumes counts process resumes through the dispatch loop, each a
	// coroutine switch.
	Resumes uint64
	// SelfResumes counts fast-path resumes: a parking process whose own
	// wake-up was the next event took it in place, with no switch.
	SelfResumes uint64
	// Callbacks counts callback events (At, After, AtCall, AfterCall).
	Callbacks uint64
	// Stale counts wake-ups for processes that had already finished.
	Stale uint64
}

// NewKernel returns a fresh kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{until: Forever}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Live returns the number of spawned processes that have not yet finished.
func (k *Kernel) Live() int { return k.live }

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.events) + k.ready.len() }

// Dispatched returns the total number of events executed so far.
func (k *Kernel) Dispatched() uint64 {
	c := k.counts
	return c.Resumes + c.SelfResumes + c.Callbacks + c.Stale
}

// Counters returns the dispatched events so far, split by kind.
func (k *Kernel) Counters() Counters { return k.counts }

// Stop makes the current or next Run call return as soon as the event in
// flight completes.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

func (k *Kernel) newEvent(t Time) *event {
	if t < k.now {
		t = k.now
	}
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	k.seq++
	ev.t, ev.seq = t, k.seq
	return ev
}

func (k *Kernel) recycle(ev *event) {
	ev.proc, ev.fn, ev.fnA, ev.arg = nil, nil, nil, nil
	k.free = append(k.free, ev)
}

func (k *Kernel) enqueue(ev *event) {
	if ev.t <= k.now {
		k.ready.push(ev)
	} else {
		k.heapPush(ev)
	}
}

func (k *Kernel) schedule(t Time, p *Proc, fn func()) {
	ev := k.newEvent(t)
	ev.proc, ev.fn = p, fn
	k.enqueue(ev)
}

// At schedules fn to run at absolute time t. fn runs in kernel context and
// must not block on simulation primitives; it may schedule events and wake
// processes.
func (k *Kernel) At(t Time, fn func()) { k.schedule(t, nil, fn) }

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.schedule(k.now+d, nil, fn) }

// AfterCall schedules fn(arg) to run d nanoseconds from now. It is the
// allocation-free variant of After for hot paths: arg rides in the pooled
// event record, so callers can use one shared top-level function instead of
// allocating a capturing closure per event.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) {
	ev := k.newEvent(k.now + d)
	ev.fnA, ev.arg = fn, arg
	k.enqueue(ev)
}

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free variant of At, and the injection point the sharded
// executive uses to deliver merged cross-shard events.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) {
	ev := k.newEvent(t)
	ev.fnA, ev.arg = fn, arg
	k.enqueue(ev)
}

// Run executes events until the queue drains, Stop is called, or virtual
// time would exceed `until` (use Forever for no limit). It returns the
// number of events dispatched by this call. Run must not be re-entered. A
// panic raised by a callback or a process surfaces from Run.
func (k *Kernel) Run(until Time) uint64 {
	if k.inRun {
		panic("sim: Kernel.Run re-entered")
	}
	k.inRun = true
	defer func() { k.inRun, k.running = false, nil }()
	k.until = until
	start := k.Dispatched()
	k.dispatch()
	if until != Forever && k.now < until {
		k.now = until
	}
	return k.Dispatched() - start
}

// dispatch executes events in (t, seq) order until runnable reports the
// run over. Callbacks run inline; a process runs on its coroutine until it
// parks or returns, and control then comes back here.
func (k *Kernel) dispatch() {
	for {
		ev, fromReady := k.runnable()
		if ev == nil {
			return
		}
		k.take(ev, fromReady)
		if p := ev.proc; p != nil {
			k.recycle(ev)
			if p.done {
				k.counts.Stale++
				continue
			}
			k.counts.Resumes++
			if p.r == nil {
				k.start(p)
			}
			k.running = p
			p.r.next()
			k.running = nil
			continue
		}
		k.counts.Callbacks++
		if ev.fnA != nil {
			fn, arg := ev.fnA, ev.arg
			k.recycle(ev)
			fn(arg)
			continue
		}
		fn := ev.fn
		k.recycle(ev)
		if fn != nil {
			fn()
		}
	}
}

// peekEvent returns the next event in (t, seq) order without removing it,
// or nil if none is queued.
func (k *Kernel) peekEvent() (ev *event, fromReady bool) {
	if k.ready.len() > 0 {
		re := k.ready.peek()
		if len(k.events) > 0 {
			he := k.events[0]
			if he.t < re.t || (he.t == re.t && he.seq < re.seq) {
				return he, false
			}
		}
		return re, true
	}
	if len(k.events) > 0 {
		return k.events[0], false
	}
	return nil, false
}

// runnable returns the event the current Run dispatches next, without
// removing it, or nil when the run is over: Stop was called, nothing is
// queued, or the next event lies past the Run horizon.
func (k *Kernel) runnable() (ev *event, fromReady bool) {
	if k.stopped {
		return nil, false
	}
	ev, fromReady = k.peekEvent()
	if ev == nil || (k.until != Forever && ev.t > k.until) {
		return nil, false
	}
	return ev, fromReady
}

// take removes ev, just returned by runnable, and advances the clock to it.
func (k *Kernel) take(ev *event, fromReady bool) {
	if fromReady {
		k.ready.pop()
	} else {
		k.heapPop()
	}
	if ev.t > k.now {
		k.now = ev.t
	}
}

// Running returns the currently executing process, or nil when the kernel is
// running a callback or is idle.
func (k *Kernel) Running() *Proc { return k.running }

// --- event heap -----------------------------------------------------------

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (k *Kernel) heapPush(ev *event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

func (k *Kernel) heapPop() *event {
	h := k.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(h[l], h[min]) {
			min = l
		}
		if r < n && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	k.events = h
	return ev
}
