package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/afceph"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// rep is the outcome of one repetition of a workload: a fresh cluster set
// up, run for the workload's fixed simulated length, drained and verified.
type rep struct {
	// Host time of the benchmark's own calls into the program.
	Parse, Build, Prefill, Run, Drain, Verify time.Duration

	SimSec float64 // simulated seconds covered by the timed phase
	Events uint64  // kernel events dispatched in the timed phase (0: not exposed)
	RunOps uint64  // client ops decided inside the timed phase

	Attempted, Failed uint64

	IOPS, P50, P99 float64 // simulated ops/s and ms
	Samples        uint64  // ops behind P50/P99
	Digest         uint64

	Problems []string // failed correctness checks
	Layers   map[string]float64

	AllocBytes, Mallocs uint64  // host allocation during the timed phase
	Profile             []byte  // CPU profile of the timed phase (traced reps)
	PeakMB              float64 // resident-memory high-water mark of the repetition
}

func (r *rep) setup() time.Duration { return r.Parse + r.Build + r.Prefill }

func (r *rep) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// hooks lets tests damage a repetition on purpose.
type hooks struct {
	// beforeRun runs after set-up, before the timed phase.
	beforeRun func(c *cluster.Cluster)
	// afterDrain runs once the cluster is idle, before verification.
	afterDrain func(c *cluster.Cluster)
}

// phase times fn, with the host allocation it caused and, when profiled,
// a CPU profile covering exactly fn.
type phase struct {
	Wall                time.Duration
	AllocBytes, Mallocs uint64
	Profile             []byte
}

func timePhase(profiled bool, fn func()) (phase, error) {
	// Collect set-up garbage first so every timed phase starts from the
	// same heap state.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var buf bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return phase{}, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	if profiled {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	return phase{
		Wall:       wall,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		Profile:    buf.Bytes(),
	}, nil
}

// runRep runs one repetition of w.
func runRep(w workloadDef, seed uint64, profiled bool, h hooks) (*rep, error) {
	if w.scn != nil {
		return runScenarioRep(w.scn, seed, profiled)
	}
	return runFioRep(w.fio, seed, profiled, h)
}

// meter wraps each VM's block device and counts, at the benchmark's own
// call into the cluster, every op issued and how it ended. Latencies of
// ops inside the measured window are kept exactly, by the same rule
// workload.Fleet uses for its histogram.
type meter struct {
	from, end           sim.Time
	issued, done, fails uint64
	writeBytes          uint64
	lat                 []int64 // ns, measured window only
	perVM               []uint64
}

type meteredDev struct {
	bd *cluster.BlockDevice
	m  *meter
	vm int
}

func (d *meteredDev) Size() int64 { return d.bd.Size() }

func (d *meteredDev) WriteAt(p *sim.Proc, off, size int64, stamp uint64) {
	d.m.issued++
	d.m.writeBytes += uint64(size)
	t0 := p.Now()
	d.bd.WriteAt(p, off, size, stamp)
	d.m.finish(p, t0, d.vm, true)
}

func (d *meteredDev) ReadAt(p *sim.Proc, off, size int64) (uint64, bool) {
	d.m.issued++
	t0 := p.Now()
	st, ok := d.bd.ReadAt(p, off, size)
	d.m.finish(p, t0, d.vm, ok)
	return st, ok
}

func (m *meter) finish(p *sim.Proc, t0 sim.Time, vm int, ok bool) {
	if !ok {
		// Every image is prefilled before a read workload, so a read
		// that finds no data lost it.
		m.fails++
		return
	}
	m.done++
	m.perVM[vm]++
	if t0 >= m.from && p.Now() <= m.end {
		m.lat = append(m.lat, int64(p.Now()-t0))
	}
}

// deviceBytes sums bytes written to every data array and journal device.
func deviceBytes(c *cluster.Cluster) uint64 {
	var n uint64
	for i := range c.OSDs() {
		n += c.DataDevice(i).Stats().BytesWritten.Value()
	}
	for _, nv := range c.NVRAMs() {
		n += nv.Stats().BytesWritten.Value()
	}
	return n
}

func busyNanos(c *cluster.Cluster) (busy uint64, cores int64) {
	for _, n := range c.Nodes() {
		busy += n.BusyNanos()
		cores += n.Cores()
	}
	return busy, cores
}

// setupFio builds the cluster and VM fleet of f and, when f asks,
// prefills every image, timing both.
func setupFio(r *rep, f *fioCell, seed uint64) (*cluster.Cluster, *workload.Fleet) {
	runtime.GC()
	t0 := time.Now()
	cfg := afceph.DefaultConfig()
	cfg.Pool, cfg.Backend = f.pool, f.backend
	c := afceph.New(cfg).Internal()
	fleet := workload.VMFleet(c, f.vms, f.image, workload.Spec{
		Pattern: f.pattern, BlockSize: 4096, IODepth: f.iodepth, ReadPct: f.readPct,
		Runtime: f.measure, Ramp: f.ramp, Seed: seed,
	})
	r.Build = time.Since(t0)

	t0 = time.Now()
	if f.prefill {
		bds := make([]workload.BlockDev, len(fleet.Jobs))
		for i, j := range fleet.Jobs {
			bds[i] = j.BD
		}
		workload.Prefill(c.K, bds, 4096, cluster.ObjectSize)
	}
	r.Prefill = time.Since(t0)
	return c, fleet
}

// parseSpan is how long the scenario decoder is timed for. One parse and
// validate takes tens of microseconds, too short to time on its own.
const parseSpan = 10 * time.Millisecond

// parseScenario parses and validates s until parseSpan has passed and
// records the mean time of one parse and validate. Parsing keeps nothing
// alive between iterations, so the repeats do not warm the heap the
// timed phase runs on.
func parseScenario(r *rep, s *scnCell, seed uint64) (*scenario.Scenario, error) {
	runtime.GC()
	var sc *scenario.Scenario
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < parseSpan {
		var err error
		sc, err = scenario.Parse([]byte(scenario.Canon(s.canon)))
		if err != nil {
			return nil, fmt.Errorf("parse scenario %s: %w", s.canon, err)
		}
		sc.Seed = seed
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("validate scenario %s: %w", s.canon, err)
		}
		n++
	}
	r.Parse = time.Since(t0) / time.Duration(n)
	return sc, nil
}

func runFioRep(f *fioCell, seed uint64, profiled bool, h hooks) (*rep, error) {
	r := &rep{}
	c, fleet := setupFio(r, f, seed)
	k := c.K

	if h.beforeRun != nil {
		h.beforeRun(c)
	}
	start := k.Now()
	m := &meter{from: start + f.ramp, end: start + f.ramp + f.measure, perVM: make([]uint64, f.vms)}
	var clients []*cluster.Client
	for i := range fleet.Jobs {
		bd := fleet.Jobs[i].BD.(*cluster.BlockDevice)
		clients = append(clients, bd.Client)
		fleet.Jobs[i].BD = &meteredDev{bd: bd, m: m, vm: i}
	}
	before, err := parseDump(c.PerfDump())
	if err != nil {
		return nil, err
	}
	dev0 := deviceBytes(c)
	busy0, cores := busyNanos(c)
	ev0 := k.Dispatched()

	var res workload.Result
	ph, err := timePhase(profiled, func() { res = fleet.Run(k) })
	if err != nil {
		return nil, err
	}
	r.Run, r.AllocBytes, r.Mallocs, r.Profile = ph.Wall, ph.AllocBytes, ph.Mallocs, ph.Profile
	r.SimSec = (k.Now() - start).Seconds()
	r.Events = k.Dispatched() - ev0
	r.RunOps = m.done + m.fails

	t0 := time.Now()
	k.Run(sim.Forever)
	r.Drain = time.Since(t0)
	if h.afterDrain != nil {
		h.afterDrain(c)
	}

	t0 = time.Now()
	r.Attempted, r.Failed = m.issued, m.fails
	r.checkf(m.issued == m.done+m.fails, "ops not conserved: issued %d != completed %d + failed %d", m.issued, m.done, m.fails)
	r.checkf(uint64(len(m.lat)) == res.Ops, "measured ops disagree: benchmark %d, workload %d", len(m.lat), res.Ops)
	r.checkf(k.Pending() == 0, "%d events still queued after drain", k.Pending())
	var retries, eios uint64
	for _, cl := range clients {
		retries += cl.Retries()
		eios += cl.EIOs()
	}
	r.checkf(retries == 0, "%d client retries", retries)
	r.checkf(eios == 0, "%d client EIOs", eios)
	if inc := c.ScrubAll(); len(inc) > 0 {
		r.checkf(false, "scrub: %d inconsistencies, first %s: %s", len(inc), inc[0].OID, inc[0].Detail)
	}
	dumpText := c.PerfDump()
	after, err := parseDump(dumpText)
	if err != nil {
		return nil, err
	}

	slices.Sort(m.lat)
	r.Samples = uint64(len(m.lat))
	r.IOPS = res.IOPS
	r.P50, r.P99 = quantileMs(m.lat, 0.50), quantileMs(m.lat, 0.99)

	hs := fnv.New64a()
	fmt.Fprintf(hs, "%d %v %v %v %v %v %d %d %d\n", res.Ops, res.IOPS, res.Lat.P50, res.Lat.P99,
		r.P50, r.P99, k.Now(), k.Dispatched(), m.issued)
	hs.Write([]byte(dumpText))
	r.Digest = hs.Sum64()

	busy1, _ := busyNanos(c)
	decided := float64(m.issued)
	var ssdUtil float64
	for _, s := range c.SSDs() {
		ssdUtil += s.Utilization()
	}
	if n := len(c.SSDs()); n > 0 {
		ssdUtil /= float64(n)
	}
	shares := make([]float64, len(m.perVM))
	for i, v := range m.perVM {
		shares[i] = float64(v)
	}
	r.Layers = modelLayers(before, after, decided)
	r.Layers["device.write_amp"] = ratio(float64(deviceBytes(c)-dev0), float64(m.writeBytes))
	r.Layers["device.util"] = ssdUtil
	r.Layers["cpumodel.util"] = ratio(float64(busy1-busy0), float64(cores)*float64(k.Now()-start))
	r.Layers["scenario.rejected_frac"] = 0
	r.Layers["scenario.fairness"] = stats.JainFairness(shares)
	r.Layers["cluster.retries"] = float64(retries)
	r.Layers["cluster.eios"] = float64(eios)
	r.Verify = time.Since(t0)
	return r, nil
}

func runScenarioRep(s *scnCell, seed uint64, profiled bool) (*rep, error) {
	r := &rep{}
	sc, err := parseScenario(r, s, seed)
	if err != nil {
		return nil, err
	}

	// scenario.Run builds, prefills, runs and drains its own cluster, so
	// build and prefill fall inside the timed phase here.
	var res *scenario.Result
	ph, err := timePhase(profiled, func() {
		res, err = scenario.Run(sc, scenario.Options{Scale: s.scale, Perf: true})
	})
	if err != nil {
		return nil, fmt.Errorf("run scenario %s: %w", s.canon, err)
	}
	r.Run, r.AllocBytes, r.Mallocs, r.Profile = ph.Wall, ph.AllocBytes, ph.Mallocs, ph.Profile
	r.SimSec = res.SimulatedTime.Seconds()
	r.RunOps = res.Offered

	t0 := time.Now()
	limited := map[string]bool{}
	for _, t := range sc.Tenants {
		limited[t.Name] = t.Admission != nil
	}
	r.Attempted = res.Offered
	var protected *scenario.TenantResult
	for i := range res.Tenants {
		t := &res.Tenants[i]
		r.checkf(t.Offered == t.Accepted+t.Rejected, "tenant %s: offered %d != accepted %d + rejected %d",
			t.Name, t.Offered, t.Accepted, t.Rejected)
		if !limited[t.Name] {
			// A tenant without an admission limit must never be refused;
			// a limited tenant's refusals are admission doing its job.
			r.Failed += t.Rejected
		}
		if t.Name == s.protected {
			protected = t
		}
	}
	r.checkf(res.Offered == res.Accepted+res.Rejected, "offered %d != accepted %d + rejected %d",
		res.Offered, res.Accepted, res.Rejected)
	r.checkf(res.OSDAccepted+res.OSDRejected == res.Offered, "OSD decisions %d+%d != offered %d",
		res.OSDAccepted, res.OSDRejected, res.Offered)
	if protected == nil {
		return nil, fmt.Errorf("scenario %s has no tenant %s", s.canon, s.protected)
	}
	r.checkf(protected.Rejected == 0, "protected tenant %s refused %d ops", protected.Name, protected.Rejected)

	after, err := parseDump(res.PerfJSON)
	if err != nil {
		return nil, err
	}
	eios := after.sum("", "eios")
	r.checkf(eios == 0, "%v OSD EIOs", eios)

	r.IOPS = res.IOPS
	r.P50, r.P99 = protected.Lat.P50, protected.Lat.P99
	r.Samples = protected.Measured

	hs := fnv.New64a()
	fmt.Fprintf(hs, "%d\n", res.Fingerprint())
	hs.Write([]byte(res.PerfJSON))
	r.Digest = hs.Sum64()

	r.Layers = modelLayers(dump{}, after, float64(res.Offered))
	var cpu float64
	var nodes int
	for _, v := range after["cpu"] {
		if f, ok := v.(float64); ok {
			cpu += f
			nodes++
		}
	}
	r.Layers["device.write_amp"] = 0
	r.Layers["device.util"] = 0
	r.Layers["cpumodel.util"] = ratio(cpu, float64(nodes))
	r.Layers["scenario.rejected_frac"] = ratio(float64(res.Rejected), float64(res.Offered))
	r.Layers["scenario.fairness"] = res.Fairness
	// Without failures every offered op is decided once at an OSD; a
	// client retry is the only way to decide one twice.
	r.Layers["cluster.retries"] = float64(res.OSDAccepted+res.OSDRejected) - float64(res.Offered)
	r.Layers["cluster.eios"] = eios
	r.Verify = time.Since(t0)
	return r, nil
}

// quantileMs returns the nearest-rank q-quantile of sorted ns latencies,
// in milliseconds.
func quantileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
