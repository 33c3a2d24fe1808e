package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/filestore"
	"repro/internal/sim"
)

// benchSpec is the part of BENCHMARK.json the benchmark must honour.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyRun(t *testing.T, name string, trace bool, h hooks) (*result, string) {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	w = w.tiny()
	run := func(profiled bool) (*rep, error) { return runRep(w, 7, profiled, h) }
	var log bytes.Buffer
	res, err := bench(&log, options{name: name, trace: trace, commit: "test", run: run})
	if err != nil {
		t.Fatal(err)
	}
	return res, log.String()
}

// TestTinyRunsPrintEveryMetric runs every workload of BENCHMARK.json at a
// smoke-test size, untraced and traced, and checks that each run passes
// its correctness checks and prints exactly the metrics of BENCHMARK.json, each
// by name with its unit.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	c := loadSpec(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			res, log := tinyRun(t, cw.Name, trace, hooks{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", cw.Name, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", cw.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", cw.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(log, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed", cw.Name, trace, m.Name)
				}
			}
			if trace {
				checkShares(t, cw.Name, res)
			}
		}
	}
}

// checkShares checks that the profile buckets partition the profiled time.
func checkShares(t *testing.T, name string, res *result) {
	t.Helper()
	if sum := shareSum(res.Metrics); res.Metrics["bench.profile_samples"].Value > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("%s: profile shares sum to %v", name, sum)
	}
}

// TestDamagedReplicaFailsRun diverges one replica after the drain; the
// scrub must catch it and the whole repetition must count as failed.
func TestDamagedReplicaFailsRun(t *testing.T) {
	reps := 0
	damage := func(c *cluster.Cluster) {
		if reps++; reps != 2 {
			return
		}
		for _, o := range c.OSDs() {
			if names := o.Store().ObjectNames(); len(names) > 0 {
				c.K.Go("damage", func(p *sim.Proc) {
					o.FileStore().Apply(p, &filestore.Transaction{OID: names[0], Len: 4096})
				})
				c.K.Run(sim.Forever)
				return
			}
		}
		t.Fatal("no object to damage")
	}
	res, log := tinyRun(t, "randwrite-4k", false, hooks{afterDrain: damage})
	if res.Correct || res.Failed == 0 || !strings.Contains(log, "scrub:") {
		t.Fatalf("damaged replica not caught: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
}

// TestDigestMismatchFailsRun lets one repetition simulate an extra client
// write before its timed phase. Every other check still passes, but its
// digest differs from the first repetition's, so it counts as failed.
func TestDigestMismatchFailsRun(t *testing.T) {
	reps := 0
	extra := func(c *cluster.Cluster) {
		if reps++; reps != 2 {
			return
		}
		bd := c.NewClient().OpenDevice("extra", 1<<20)
		c.K.Go("extra", func(p *sim.Proc) { bd.WriteAt(p, 0, 4096, 1) })
		c.K.Run(sim.Forever)
	}
	res, log := tinyRun(t, "randwrite-4k", false, hooks{beforeRun: extra})
	if res.Correct || res.Failed == 0 || !strings.Contains(log, "digest") || strings.Contains(log, "scrub:") {
		t.Fatalf("digest mismatch not caught alone: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
}

func TestAttributeChargesRuntimeFrames(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.chansend1", "repro/internal/sim.(*Proc).resume"}, bucketSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/osd.(*OSD).handle"}, bucketGC},
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/netsim.(*Endpoint).Send"}, "netsim"},
		{[]string{"sort.Strings", "repro/internal/cluster.(*Cluster).ScrubAll"}, "cluster"},
		{[]string{"main.(*meteredDev).WriteAt"}, "bench"},
		{[]string{"runtime/pprof.profileWriter"}, bucketOther},
	}
	for _, tc := range cases {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// tiny shrinks a workload to a smoke-test size: same code paths, a few
// hundred ops.
func (w workloadDef) tiny() workloadDef {
	if w.fio != nil {
		f := *w.fio
		f.vms, f.iodepth, f.image = 4, 4, 64<<20
		f.ramp, f.measure = 5*sim.Millisecond, 20*sim.Millisecond
		w.fio = &f
	}
	if w.scn != nil {
		s := *w.scn
		s.scale = 0.1
		w.scn = &s
	}
	return w
}
