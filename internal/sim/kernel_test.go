package sim

import (
	"fmt"
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3*Second + 500*Millisecond, "3.500s"},
		{-1500, "-1.500us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Millisecond
	if tt.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
	if tt.Millis() != 1500 {
		t.Errorf("Millis = %v", tt.Millis())
	}
	if Time(2500).Micros() != 2.5 {
		t.Errorf("Micros = %v", Time(2500).Micros())
	}
}

func TestRunEmptyKernel(t *testing.T) {
	k := NewKernel()
	if n := k.Run(Forever); n != 0 {
		t.Fatalf("dispatched %d events on empty kernel", n)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced to %v", k.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel()
	k.Run(5 * Second)
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * Millisecond)
		woke = p.Now()
	})
	k.Run(Forever)
	if woke != 10*Millisecond {
		t.Fatalf("woke at %v, want 10ms", woke)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Go("p", func(p *Proc) {
		p.Sleep(-5)
		woke = p.Now()
	})
	k.Run(Forever)
	if woke != 0 {
		t.Fatalf("woke at %v, want 0", woke)
	}
}

func TestEventOrderingSameTime(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Millisecond, func() { order = append(order, i) })
	}
	k.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; same-time events must fire in schedule order", order)
		}
	}
}

func TestAfterAndAt(t *testing.T) {
	k := NewKernel()
	var times []Time
	k.After(3*Millisecond, func() { times = append(times, k.Now()) })
	k.At(Millisecond, func() { times = append(times, k.Now()) })
	k.Run(Forever)
	if len(times) != 2 || times[0] != Millisecond || times[1] != 3*Millisecond {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	fired := false
	k.At(10*Second, func() { fired = true })
	k.Run(5 * Second)
	if fired {
		t.Fatal("event past until-boundary fired")
	}
	if k.Now() != 5*Second {
		t.Fatalf("Now = %v", k.Now())
	}
	k.Run(Forever)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	k.Go("loop", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			count++
			if count == 5 {
				k.Stop()
			}
			p.Sleep(Millisecond)
		}
	})
	k.Run(Forever)
	if count != 5 {
		t.Fatalf("ran %d iterations, want 5", count)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel()
	var id int64
	var name string
	p := k.Go("worker", func(p *Proc) {
		id = p.ID()
		name = p.Name()
		if p.Kernel() != k {
			t.Error("Kernel() mismatch")
		}
	})
	k.Run(Forever)
	if id != p.ID() || name != "worker" {
		t.Fatalf("id=%d name=%q", id, name)
	}
	if !p.Done() {
		t.Fatal("proc not done")
	}
}

func TestLiveCount(t *testing.T) {
	k := NewKernel()
	k.Go("a", func(p *Proc) { p.Sleep(Second) })
	k.Go("b", func(p *Proc) { p.Sleep(2 * Second) })
	if k.Live() != 2 {
		t.Fatalf("Live = %d before run", k.Live())
	}
	k.Run(1500 * Millisecond)
	if k.Live() != 1 {
		t.Fatalf("Live = %d at 1.5s", k.Live())
	}
	k.Run(Forever)
	if k.Live() != 0 {
		t.Fatalf("Live = %d at end", k.Live())
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("parent", func(p *Proc) {
		trace = append(trace, "parent-start")
		p.Go("child", func(c *Proc) {
			trace = append(trace, "child")
		})
		p.Sleep(Millisecond)
		trace = append(trace, "parent-end")
	})
	k.Run(Forever)
	want := []string{"parent-start", "child", "parent-end"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestYieldReordersSameInstant(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	k.Go("b", func(p *Proc) {
		trace = append(trace, "b")
	})
	k.Run(Forever)
	want := []string{"a1", "b", "a2"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestRunReentryPanics(t *testing.T) {
	k := NewKernel()
	k.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("nested Run did not panic")
			}
		}()
		k.Run(Forever)
	})
	k.Run(Forever)
}

// determinismTrace runs a contended scenario and returns an execution trace.
func determinismTrace(seedProcs int) []string {
	k := NewKernel()
	m := NewMutex(k, "m")
	q := NewQueue[int](k, "q", 4)
	var trace []string
	for i := 0; i < seedProcs; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				m.Lock(p)
				p.Sleep(Time(100 + i*13))
				trace = append(trace, fmt.Sprintf("w%d.%d@%d", i, j, p.Now()))
				m.Unlock(p)
				q.Push(p, i*100+j)
			}
		})
	}
	k.Go("drain", func(p *Proc) {
		for i := 0; i < seedProcs*20; i++ {
			v, ok := q.Pop(p)
			if !ok {
				return
			}
			trace = append(trace, fmt.Sprintf("pop%d@%d", v, p.Now()))
			p.Sleep(50)
		}
	})
	k.Run(Forever)
	return trace
}

func TestDeterminism(t *testing.T) {
	a := determinismTrace(5)
	b := determinismTrace(5)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two identical runs produced different traces")
	}
}

func TestDispatchedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.At(Time(i), func() {})
	}
	n := k.Run(Forever)
	if n != 7 || k.Dispatched() != 7 {
		t.Fatalf("n=%d dispatched=%d", n, k.Dispatched())
	}
}

// runPanicValue runs k to completion and returns the value Run panicked
// with, or nil.
func runPanicValue(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run(Forever)
	return nil
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	k := NewKernel()
	k.Go("bystander", func(p *Proc) { p.Sleep(Second) })
	k.Go("faulty", func(p *Proc) {
		p.Sleep(Millisecond)
		panic(boom{7})
	})
	if r := runPanicValue(k); r != (boom{7}) {
		t.Fatalf("Run panicked with %#v, want boom{7}", r)
	}
	if k.Now() != Millisecond {
		t.Fatalf("Now = %v after the panic, want 1ms", k.Now())
	}
	if k.Running() != nil {
		t.Fatal("Running() still set after Run unwound")
	}
	// The panicked coroutine is not reused: a new process gets a live one.
	// The panicked process never finished, so it still counts as live.
	ran := false
	k.Go("after", func(p *Proc) { ran = true })
	k.Run(Forever)
	if !ran || k.Live() != 1 {
		t.Fatalf("process spawned after the panic: ran = %v, Live = %d", ran, k.Live())
	}
}

func TestFinishedProcsReuseCoroutines(t *testing.T) {
	k := NewKernel()
	var spawned []*Proc
	var chain func(p *Proc)
	chain = func(p *Proc) {
		p.Sleep(Microsecond)
		if len(spawned) < 100 {
			spawned = append(spawned, p.Go("link", chain))
		}
	}
	spawned = append(spawned, k.Go("link", chain))
	k.Run(Forever)
	// Each link has returned before its child first runs, so one coroutine
	// serves all 100.
	if len(spawned) != 100 || len(k.idle) != 1 {
		t.Fatalf("spawned %d processes on %d coroutines, want 100 on 1", len(spawned), len(k.idle))
	}
	for i, p := range spawned {
		if !p.Done() || p.ID() != int64(i+1) {
			t.Fatalf("process %d: done = %v, id = %d", i, p.Done(), p.ID())
		}
	}
}

func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) { p.Sleep(Second) })
	k.At(Millisecond, func() { panic("callback boom") })
	if r := runPanicValue(k); r != "callback boom" {
		t.Fatalf("Run panicked with %#v, want \"callback boom\"", r)
	}
	// The kernel is usable again: the sleeper finishes on the next Run.
	k.Run(Forever)
	if k.Live() != 0 || k.Now() != Second {
		t.Fatalf("Live = %d, Now = %v after resumed run", k.Live(), k.Now())
	}
}

func TestStopFromProcEndsRunAfterCurrentEvent(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go("stopper", func(p *Proc) {
		p.Sleep(Millisecond)
		k.Stop()
		trace = append(trace, "stop")
		// The wake-up is the next event, but Stop forbids taking it in
		// place: park must hand back to Run.
		p.Sleep(0)
		trace = append(trace, "after-stop")
	})
	k.Go("late", func(p *Proc) {
		p.Sleep(Millisecond) // queued behind the stopper's wake-up
		trace = append(trace, "late")
	})
	k.Run(Forever)
	if fmt.Sprint(trace) != "[stop]" {
		t.Fatalf("trace = %v, want [stop]", trace)
	}
	if k.Now() != Millisecond {
		t.Fatalf("Now = %v, want 1ms", k.Now())
	}
}

func TestSelfWakePastHorizonIsNotFastForwarded(t *testing.T) {
	k := NewKernel()
	var woke []Time
	k.Go("ticker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			woke = append(woke, p.Now())
			p.Sleep(3 * Millisecond)
		}
	})
	k.Run(5 * Millisecond)
	if fmt.Sprint(woke) != "[0ns 3.000ms]" || k.Now() != 5*Millisecond {
		t.Fatalf("after Run(5ms): woke = %v, Now = %v", woke, k.Now())
	}
	k.Run(Forever)
	if fmt.Sprint(woke) != "[0ns 3.000ms 6.000ms]" || k.Now() != 9*Millisecond {
		t.Fatalf("after Run(Forever): woke = %v, Now = %v", woke, k.Now())
	}
}

// TestGoFromCallback spawns from kernel context; TestNestedSpawn covers
// spawning from a process.
func TestGoFromCallback(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.At(Millisecond, func() {
		k.Go("from-callback", func(p *Proc) {
			trace = append(trace, fmt.Sprintf("start@%v", p.Now()))
			p.Sleep(Millisecond)
			trace = append(trace, fmt.Sprintf("end@%v", p.Now()))
		})
	})
	k.Run(Forever)
	if want := "[start@1.000ms end@2.000ms]"; fmt.Sprint(trace) != want {
		t.Fatalf("trace = %v, want %s", trace, want)
	}
	if k.Live() != 0 {
		t.Fatalf("Live = %d", k.Live())
	}
}

func TestProcReturnDoesNotEndRun(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var woke Time = -1
	k.Go("waiter", func(p *Proc) {
		ev.Wait(p)
		woke = p.Now()
	})
	k.Go("quitter", func(p *Proc) {}) // returns while waiter is parked
	k.Go("firer", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		ev.Fire()
	})
	k.Run(Forever)
	if woke != 2*Millisecond || k.Live() != 0 {
		t.Fatalf("waiter woke at %v, Live = %d", woke, k.Live())
	}
}

// TestCountersSumToDispatched scripts a run whose event mix is known
// exactly and checks every counter, and that they sum to Dispatched.
func TestCountersSumToDispatched(t *testing.T) {
	k := NewKernel()
	for i := 1; i <= 3; i++ {
		k.At(Time(i)*Second, func() {}) // 3 callbacks
	}
	// A ping-pong pair: 2 starting resumes plus 2 per round trip.
	ping, pong := NewQueue[int](k, "ping", 1), NewQueue[int](k, "pong", 1)
	const rounds = 10
	k.Go("ping", func(p *Proc) {
		p.Sleep(Millisecond)
		for i := 0; i < rounds; i++ {
			ping.Push(p, i)
			pong.Pop(p)
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			v, _ := ping.Pop(p)
			pong.Push(p, v)
		}
	})
	// A wake-up delivered after the process finished is stale; the
	// callback delivering it is the fourth callback.
	quick := k.Go("quick", func(p *Proc) {})
	k.At(4*Second, func() { quick.resumeAt(k.Now()) })
	// Spawned last, so nothing else is left at t=0 when it first sleeps:
	// 1 resume to start, then 4 self-resumes, each wake-up being the next
	// event (ping's lies at 1ms, the callbacks later still).
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Microsecond)
		}
	})

	n := k.Run(Forever)
	c := k.Counters()
	// Resumes: ping's start and its Sleep wake-up (the other processes'
	// starts lie between), pong's start, two per round trip, quick's and
	// the sleeper's starts.
	want := Counters{Resumes: 2 + 1 + 2*rounds + 1 + 1, SelfResumes: 4, Callbacks: 4, Stale: 1}
	if c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
	if sum := c.Resumes + c.SelfResumes + c.Callbacks + c.Stale; sum != k.Dispatched() || sum != n {
		t.Fatalf("counters sum to %d, Dispatched = %d, Run = %d", sum, k.Dispatched(), n)
	}
}
