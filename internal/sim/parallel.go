package sim

// The bounded worker pool behind point fan-out: the figure and qa harnesses
// run independent simulation points (each with its own kernel and seed) on
// it. The pool is the ONLY place the simulator meets host parallelism, and
// it is built so host scheduling cannot leak into simulated results: jobs
// are claimed from a single atomic cursor, every job writes only state it
// owns (its point's result slot), and the barrier returns only after every
// job finished. Which worker ran which job — and in what wall-clock order —
// is unobservable to the model; GOMAXPROCS=1 and a 64-core box produce
// bit-identical output, which the differential determinism harness
// (figures, qa) verifies on every run.

import (
	"runtime"     //afvet:allow determinism GOMAXPROCS sizes the worker pool; it never reaches simulated state
	"sync"        //afvet:allow determinism pool barrier only: jobs share no state and results land in index-owned slots
	"sync/atomic" //afvet:allow determinism job-claim cursor only: which worker claims a job is unobservable to the model
)

// DefaultWorkers returns the default parallelism for RunParallel: the
// runtime's GOMAXPROCS. The simulation result is identical for any value.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunParallel executes every job on a bounded pool of workers goroutines
// and returns when all have finished (a full barrier). workers <= 0 means
// DefaultWorkers. Jobs must be mutually independent: they may not share
// mutable state, and each must confine its writes to state it exclusively
// owns (RunParallel establishes the happens-before edges for the caller to
// read those writes afterwards).
//
// If jobs panic, the panic of the lowest-indexed panicking job is re-raised
// after the barrier — a deterministic choice, so a panicking model fails
// identically at any worker count.
func RunParallel(workers int, jobs []func()) {
	if len(jobs) == 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, same job order as the cursor
		// would produce, panics surface directly.
		for _, job := range jobs {
			job()
		}
		return
	}
	panics := make([]any, len(jobs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runJob(jobs[i], &panics[i])
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runJob executes one job, capturing a panic into *slot so the barrier can
// re-raise it deterministically.
func runJob(job func(), slot *any) {
	defer func() {
		if r := recover(); r != nil {
			*slot = r
		}
	}()
	job()
}
