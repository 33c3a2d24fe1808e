//go:build go1.23

package sim

import "iter"

// Proc is a simulated process: a coroutine whose execution is interleaved
// deterministically by the kernel. All blocking methods must be called from
// the process's own code.
type Proc struct {
	k    *Kernel
	id   int64
	name string
	fn   func(p *Proc) // the body, until the process first runs
	r    *runner       // the coroutine running the body; nil before and after
	done bool
}

// runner is a coroutine that runs process bodies one after another. When a
// body returns, the runner goes back on its kernel's idle list and parks,
// so a process starting later reuses it instead of creating a coroutine.
type runner struct {
	// next runs the current body until it parks or returns; only the
	// dispatch loop calls it. yield, called by park, switches back there.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the process being run; nil while idle
}

// Go spawns a new simulated process that executes fn. The process starts at
// the current virtual time, after the currently running event yields. Go may
// be called from outside Run (to set up the world), from callbacks and from
// running processes.
//
// When the process first runs, the kernel gives it an iter.Pull coroutine,
// one a finished process left idle if there is one: resuming it is a direct
// switch from the dispatch loop, with no trip through the Go scheduler. A
// panic in the body re-raises from the dispatch loop's call to next, so it
// surfaces from Run with its original value; the panicked coroutine is not
// reused.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.nextID++
	p := &Proc{k: k, id: k.nextID, name: name, fn: fn}
	k.live++
	k.schedule(k.now, p, nil)
	return p
}

// start gives p, about to run for the first time, an idle coroutine or a
// new one.
func (k *Kernel) start(p *Proc) {
	var r *runner
	if n := len(k.idle); n > 0 {
		r = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		r = k.newRunner()
	}
	r.p, p.r = p, r
}

func (k *Kernel) newRunner() *runner {
	r := &runner{}
	r.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		for {
			p := r.p
			fn := p.fn
			p.fn = nil
			fn(p)
			p.done, p.r = true, nil
			k.live--
			r.p = nil
			k.idle = append(k.idle, r)
			yield(struct{}{})
		}
	})
	return r
}

// ID returns the process's unique id (assigned in spawn order).
func (p *Proc) ID() int64 { return p.id }

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park suspends the process until it is rescheduled. Every blocking
// primitive bottoms out here. If the next event the current Run would
// dispatch is this process's own wake-up, park takes it in place and
// returns without switching: the same event, in the same order, that the
// dispatch loop would have delivered. Otherwise it yields to the dispatch
// loop, which runs callbacks on the kernel's goroutine and resumes the
// next process with a coroutine switch.
func (p *Proc) park() {
	k := p.k
	if ev, fromReady := k.runnable(); ev != nil && ev.proc == p {
		k.take(ev, fromReady)
		k.recycle(ev)
		k.counts.SelfResumes++
		return
	}
	p.r.yield(struct{}{})
}

// resume schedules the process to continue at time t.
func (p *Proc) resumeAt(t Time) { p.k.schedule(t, p, nil) }

// Sleep advances the process by d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.resumeAt(p.k.now + d)
	p.park()
}

// Yield reschedules the process at the current time, letting every other
// event already queued for this instant run first.
func (p *Proc) Yield() {
	p.resumeAt(p.k.now)
	p.park()
}

// Go spawns a child process (convenience for p.Kernel().Go).
func (p *Proc) Go(name string, fn func(p *Proc)) *Proc { return p.k.Go(name, fn) }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }
