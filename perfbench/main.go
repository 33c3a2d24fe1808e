// Command perfbench is the repository's end-to-end benchmark. Each run
// builds a fresh simulated cluster for one named workload, runs it for a
// fixed simulated length, drains and verifies it, and repeats that until
// the requested host time is spent. It prints one line per repetition and
// then, as its last line, a JSON object with the correctness verdict, the
// op totals and the metrics:
//
//	--trace 0: simulator speed, set-up time, memory, and the modelled
//	           cluster's IOPS and latency (the end-to-end metrics);
//	--trace 1: the same workload with alternating untraced and CPU-profiled
//	           repetitions, reporting per-layer metrics.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner performs one repetition of the workload.
type runner func(profiled bool) (*rep, error)

// minReps is the fewest repetitions a run makes, however short --seconds.
const minReps = 3

type options struct {
	name    string
	seconds float64
	trace   bool
	commit  string
	run     runner
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "host seconds to spend repeating the workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: profiled run with per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit being measured, recorded with the host context")
		worker   = flag.Bool("worker", false, "internal: perform one repetition and print it as JSON")
		profiled = flag.Bool("profiled", false, "internal: profile the timed phase, with -worker")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs())
	if *worker {
		if err := workerMain(w, *seed, *profiled); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: locate own binary:", err)
		os.Exit(1)
	}
	res, err := bench(os.Stdout, options{
		name: *name, seconds: *seconds, trace: *trace == 1, commit: *commit,
		run: subprocess(exe, *name, *seed),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// gomaxprocs is the parallelism every repetition runs with.
func gomaxprocs() int { return min(runtime.NumCPU(), 2) }

// workerMain performs one repetition in this process and prints it as
// JSON. A cluster's parked simulation processes are never torn down, so a
// process that ran one repetition keeps its memory; a fresh process per
// repetition keeps memory and GC cost from carrying over, makes every
// set-up a cold one, and makes the peak RSS that of the workload alone.
func workerMain(w workloadDef, seed uint64, profiled bool) error {
	r, err := runRep(w, seed, profiled, hooks{})
	if err != nil {
		return err
	}
	r.PeakMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(r)
}

// subprocess returns a runner that performs each repetition in a fresh
// worker process (exe, this binary) and waits for it to exit.
func subprocess(exe, name string, seed uint64) runner {
	return func(profiled bool) (*rep, error) {
		cmd := exec.Command(exe, "--worker", "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--profiled="+strconv.FormatBool(profiled))
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		// A worker must not outlive an interrupted benchmark.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("worker: %w", err)
		}
		var r rep
		if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("worker output: %w", err)
		}
		return &r, nil
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// bench runs the repetitions and returns the result the last output line
// carries. Per-repetition detail goes to log.
func bench(log io.Writer, o options) (*result, error) {
	host, err := json.Marshal(hostContext(gomaxprocs(), o.commit))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "host %s\n", host)
	fmt.Fprintf(log, "workload %s trace %v\n", o.name, o.trace)

	var plain, traced []*rep
	start := time.Now()
	for i := 0; ; i++ {
		// In traced mode repetitions alternate untraced and profiled, so
		// the overhead is measured under the same host conditions.
		profiled := o.trace && i%2 == 1
		r, err := o.run(profiled)
		if err != nil {
			return nil, err
		}
		if len(plain) > 0 {
			r.checkf(r.Digest == plain[0].Digest, "digest %016x differs from the first repetition's %016x", r.Digest, plain[0].Digest)
		}
		if profiled {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(log, "rep %d profiled=%v setup=%.6fs run=%.4fs drain=%.4fs verify=%.4fs peak_rss=%.1fMB sim=%.4fs events=%d ops=%d digest=%016x checks=%s\n",
			i, profiled, r.setup().Seconds(), r.Run.Seconds(), r.Drain.Seconds(), r.Verify.Seconds(),
			r.PeakMB, r.SimSec, r.Events, r.Attempted, r.Digest, verdict(r.Problems))
		// Stop before a repetition that would overrun the time asked for.
		n := len(plain) + len(traced)
		elapsed := time.Since(start).Seconds()
		enough := n >= minReps && (!o.trace || len(traced) > 0)
		if enough && elapsed*float64(n+1)/float64(n) > o.seconds {
			break
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range slices.Concat(plain, traced) {
		res.Attempted += r.Attempted
		if len(r.Problems) > 0 {
			res.Correct = false
			res.Failed += r.Attempted
		} else {
			res.Failed += r.Failed
		}
	}
	first := plain[0]
	fmt.Fprintf(log, "sim_iops %.1f sim_p50_ms %.6f sim_p99_ms %.6f over %d ops (digest %016x)\n",
		first.IOPS, first.P50, first.P99, first.Samples, first.Digest)
	if o.trace {
		if err := layerMetrics(res, plain, traced); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "profile shares sum to %.9f over %v samples\n", shareSum(res.Metrics), res.Metrics["bench.profile_samples"].Value)
	} else {
		endToEnd(res, plain)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(log, "metric %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

func verdict(problems []string) string {
	if len(problems) == 0 {
		return "ok"
	}
	return "FAILED: " + strings.Join(problems, "; ")
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf applies f to every repetition and returns the median.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd sets the end-to-end metrics from the untraced repetitions.
func endToEnd(res *result, reps []*rep) {
	first := reps[0]
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("sim_wall_x", medianOf(reps, func(r *rep) float64 { return r.SimSec / r.Run.Seconds() }), "x")
	set("setup_s", medianOf(reps, func(r *rep) float64 { return r.setup().Seconds() }), "s")
	set("peak_rss_mb", medianOf(reps, func(r *rep) float64 { return r.PeakMB }), "MB")
	set("sim_iops", first.IOPS, "ops/s")
	set("sim_p50_ms", first.P50, "sim_ms")
	set("sim_p99_ms", first.P99, "sim_ms")
}

// layerMetrics sets the per-layer metrics from the untraced and profiled
// repetitions. The profile covers only the run span, so set-up spans are
// taken over both.
func layerMetrics(res *result, plain, traced []*rep) error {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	var profiles [][]byte
	for _, r := range traced {
		profiles = append(profiles, r.Profile)
	}
	shares, samples, err := profileShares(profiles)
	if err != nil {
		return err
	}
	for b, v := range shares {
		switch b {
		case bucketSched:
			set("runtime.sched_frac", v, "frac")
		case bucketGC:
			set("runtime.gc_frac", v, "frac")
		default:
			set(b+".self_frac", v, "frac")
		}
	}
	set("bench.profile_samples", float64(samples), "count")
	runWall := func(r *rep) float64 { return r.Run.Seconds() }
	set("bench.trace_overhead_s", medianOf(traced, runWall)-medianOf(plain, runWall), "s")

	first := plain[0]
	ops := float64(first.RunOps)
	set("sim.events_per_op", ratio(float64(first.Events), ops), "count")
	set("sim.events_per_s", medianOf(plain, func(r *rep) float64 { return float64(r.Events) / r.Run.Seconds() }), "1/s")
	set("host.alloc_kb_per_op", medianOf(plain, func(r *rep) float64 { return float64(r.AllocBytes) / 1024 / ops }), "KiB")
	set("host.mallocs_per_op", medianOf(plain, func(r *rep) float64 { return float64(r.Mallocs) / ops }), "count")
	all := slices.Concat(plain, traced)
	set("setup.parse_s", medianOf(all, func(r *rep) float64 { return r.Parse.Seconds() }), "s")
	set("setup.build_s", medianOf(all, func(r *rep) float64 { return r.Build.Seconds() }), "s")
	set("setup.prefill_s", medianOf(all, func(r *rep) float64 { return r.Prefill.Seconds() }), "s")

	for name, v := range first.Layers {
		set(name, v, layerUnits[name])
	}
	return nil
}

// shareSum adds up the profile buckets, which partition the profiled time.
func shareSum(metrics map[string]metric) float64 {
	var sum float64
	for name, m := range metrics {
		if strings.HasSuffix(name, ".self_frac") || name == "runtime.sched_frac" || name == "runtime.gc_frac" {
			sum += m.Value
		}
	}
	return sum
}

// layerUnits gives the unit of each modelled-cluster layer metric. Times
// marked sim_ms are simulated, not host, milliseconds.
var layerUnits = map[string]string{
	"osd.pg_lock_wait_ms_per_kop": "sim_ms",
	"osd.opq_delay_p99_ms":        "sim_ms",
	"osd.msgcap_wait_ms":          "sim_ms",
	"osd.fs_throttle_wait_ms":     "sim_ms",
	"journal.stall_ms":            "sim_ms",
	"oslog.block_ms":              "sim_ms",
	"oslog.dropped":               "count",
	"core.comp_batch":             "count",
	"filestore.syscalls_per_op":   "count",
	"filestore.meta_reads":        "count",
	"kvstore.write_amp":           "x",
	"kvstore.stall_ms":            "sim_ms",
	"kvstore.compaction_mb":       "MiB",
	"device.write_amp":            "x",
	"device.util":                 "frac",
	"netsim.msgs_per_op":          "count",
	"cpumodel.util":               "frac",
	"scenario.rejected_frac":      "frac",
	"scenario.fairness":           "frac",
	"cluster.retries":             "count",
	"cluster.eios":                "count",
}
