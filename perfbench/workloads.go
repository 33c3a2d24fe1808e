package main

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadDef is one named benchmark input. Exactly one of fio and scn is
// set: fio cells are closed-loop VM fleets, scn cells run a canonical
// open-loop scenario through the scenario engine.
type workloadDef struct {
	name string
	fio  *fioCell
	scn  *scnCell
}

// fioCell is a closed-loop fleet on the paper's testbed: vms clients, each
// keeping iodepth requests outstanding against its own image.
type fioCell struct {
	pool    string // "" keeps 2x replication
	backend string // "" keeps journal+filestore
	pattern workload.Pattern
	readPct int // for workload.RandRW
	vms     int
	iodepth int
	image   int64
	ramp    sim.Time
	measure sim.Time
	prefill bool
}

// scnCell is a canonical scenario run with its durations multiplied by
// scale. protected names the tenant whose latency is reported: the one
// admission control exists to protect.
type scnCell struct {
	canon     string
	scale     float64
	protected string
}

// Every fio cell runs the paper's testbed with the cluster model's own
// seed left at its default; the workload seed drives what the clients ask
// for. The simulated lengths give every workload tens of thousands of
// measured ops (so hundreds of samples lie beyond p99) while one
// repetition stays within a few host seconds on a 2-core machine.
//
// randread-4k and ec-rw70-4k keep 4 requests per VM in flight: at 8 both
// sit past saturation, where a seed-dependent queueing tail moves their
// p99 by 15-30% from seed to seed (see README.md).
var workloads = []workloadDef{
	{name: "randwrite-4k", fio: &fioCell{
		pattern: workload.RandWrite, vms: 20, iodepth: 8, image: 1 << 30,
		ramp: 100 * sim.Millisecond, measure: 600 * sim.Millisecond,
	}},
	{name: "randread-4k", fio: &fioCell{
		pattern: workload.RandRead, vms: 20, iodepth: 4, image: 1 << 30,
		ramp: 100 * sim.Millisecond, measure: 1000 * sim.Millisecond, prefill: true,
	}},
	{name: "ec-rw70-4k", fio: &fioCell{
		pool: "ec4+2", backend: "directstore",
		pattern: workload.RandRW, readPct: 70, vms: 20, iodepth: 4, image: 1 << 30,
		ramp: 100 * sim.Millisecond, measure: 1200 * sim.Millisecond, prefill: true,
	}},
	{name: "tenants-noisy", scn: &scnCell{
		canon: "noisy-neighbor", scale: 5, protected: "steady-gold",
	}},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
