// Command benchgate turns `go test -bench` output into a machine-readable
// result file and gates it against a committed baseline.
//
// Pipeline (scripts/bench.sh):
//
//	go test -run '^$' -bench 'Fig' -benchtime 1x -count 3 -benchmem . \
//	    | go run ./cmd/benchgate -out BENCH_results.json -baseline BENCH_baseline.json
//
// Parsing: every "BenchmarkName N value unit [value unit]..." line becomes
// one entry; repeated -count runs collapse to the minimum ns/op and
// allocs/op (best-of is the stable estimator on noisy machines) while
// custom metrics keep the last value (the simulation is deterministic, so
// repeats agree anyway).
//
// Gate, per benchmark in the baseline (a baseline benchmark missing from
// the results fails unless -allow-subset marks the partial run as
// intentional):
//
//   - allocs/op: tight (default +10%). Allocation counts are near
//     deterministic, so growth is a real regression.
//   - ns/op: loose (default +100%). Wall time on shared hardware is noisy;
//     only a gross slowdown fails.
//   - custom metrics except sim-wall-x: exact (1e-6 relative). They are
//     simulator outputs — IOPS, latencies — and must not move at all for a
//     fixed seed and scale; a drift here is a determinism bug, not noise.
//   - sim-wall-x (simulated/wall time ratio) and B/op: recorded but not
//     gated exactly; the ratio is hardware-bound, bytes track allocs
//     closely.
//   - "min" entries: authored per-metric lower bounds. A baseline
//     benchmark may carry {"min": {"sim-wall-x": 0.25}} and the gate fails
//     if the measured metric drops below the floor — the mechanism that
//     keeps hardware-bound ratios from silently collapsing while leaving
//     them free to improve.
//
// -update rewrites the baseline from the parsed results instead of
// comparing (see EXPERIMENTS.md for when that is legitimate). Min floors
// are authored, not measured, so -update carries them over from the old
// baseline unchanged. Results and baseline both record the measuring
// host's core count as host_cpus, since sim-wall-x scales with it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's collapsed result.
type Bench struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	BytesOp  float64            `json:"bytes_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	// Min holds authored per-metric lower bounds: the gate fails when a
	// measured metric falls below its floor. Floors survive -update.
	Min  map[string]float64 `json:"min,omitempty"`
	runs int
}

// File is the BENCH_results.json / BENCH_baseline.json schema.
type File struct {
	// Note documents how the numbers were produced.
	Note string `json:"note,omitempty"`
	// HostCPUs is the core count of the host that measured the numbers.
	// sim-wall-x, and so every floor on it, depends on it.
	HostCPUs   int               `json:"host_cpus,omitempty"`
	Benchmarks map[string]*Bench `json:"benchmarks"`
}

func main() {
	var (
		in        = flag.String("in", "", "bench output file (default stdin)")
		out       = flag.String("out", "BENCH_results.json", "result file to write ('' = none)")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline to gate against ('' = skip gate)")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
		nsTol     = flag.Float64("ns-tol", 1.0, "allowed relative ns/op growth")
		allocsTol = flag.Float64("allocs-tol", 0.10, "allowed relative allocs/op growth")
		subset    = flag.Bool("allow-subset", false, "permit results to cover only part of the baseline (intentional -bench pattern runs)")
	)
	flag.Parse()

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	res, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(res.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	res.HostCPUs = runtime.NumCPU()

	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: wrote %s (%d benchmarks)\n", *out, len(res.Benchmarks))
	}
	if *update {
		if old, err := readJSON(*baseline); err == nil {
			carryMin(old, res)
		}
		res.Note = "benchmark baseline; update only via scripts/bench.sh -update (see EXPERIMENTS.md)"
		if err := writeJSON(*baseline, res); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchgate: baseline %s updated\n", *baseline)
		return
	}
	if *baseline == "" {
		return
	}
	base, err := readJSON(*baseline)
	if err != nil {
		fatal(fmt.Errorf("%v (run scripts/bench.sh -update to create the baseline)", err))
	}
	fails := gate(base, res, *nsTol, *allocsTol, *subset)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) vs %s\n", len(fails), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: ok vs %s\n", *baseline)
}

// parse collapses bench output lines into per-benchmark results.
func parse(r *os.File) (*File, error) {
	out := &File{Benchmarks: map[string]*Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := normalizeName(fields[0])
		b := out.Benchmarks[name]
		if b == nil {
			b = &Bench{Metrics: map[string]float64{}}
			out.Benchmarks[name] = b
		}
		b.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if b.runs == 1 || v < b.NsOp {
					b.NsOp = v
				}
			case "allocs/op":
				if b.AllocsOp == 0 || v < b.AllocsOp {
					b.AllocsOp = v
				}
			case "B/op":
				if b.BytesOp == 0 || v < b.BytesOp {
					b.BytesOp = v
				}
			default:
				b.Metrics[unit] = v
			}
		}
	}
	return out, sc.Err()
}

// normalizeName strips the -GOMAXPROCS suffix so results compare across
// machines with different core counts.
func normalizeName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}

// gate compares results to the baseline and returns failure descriptions.
// A benchmark in the baseline but absent from the results is a failure —
// a silently skipped benchmark would otherwise let regressions through —
// unless allowSubset marks the partial run as intentional.
func gate(base, res *File, nsTol, allocsTol float64, allowSubset bool) []string {
	var fails []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, r := base.Benchmarks[name], res.Benchmarks[name]
		if r == nil {
			if allowSubset {
				continue // intentional partial run: gate only what was measured
			}
			fails = append(fails, fmt.Sprintf("%s: in baseline but missing from results — partial bench run? pass -allow-subset for intentional subsets, or -update to rebuild the baseline", name))
			continue
		}
		if lim := b.NsOp * (1 + nsTol); b.NsOp > 0 && r.NsOp > lim {
			fails = append(fails, fmt.Sprintf("%s: ns/op %.0f > %.0f (baseline %.0f +%.0f%%)",
				name, r.NsOp, lim, b.NsOp, nsTol*100))
		}
		if lim := b.AllocsOp * (1 + allocsTol); b.AllocsOp > 0 && r.AllocsOp > lim {
			fails = append(fails, fmt.Sprintf("%s: allocs/op %.0f > %.0f (baseline %.0f +%.0f%%)",
				name, r.AllocsOp, lim, b.AllocsOp, allocsTol*100))
		}
		mnames := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			mnames = append(mnames, m)
		}
		sort.Strings(mnames)
		for _, m := range mnames {
			if m == "sim-wall-x" {
				continue // hardware-bound, informational
			}
			want := b.Metrics[m]
			got, ok := r.Metrics[m]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: metric %q missing", name, m))
				continue
			}
			if !closeEnough(want, got) {
				fails = append(fails, fmt.Sprintf("%s: metric %q = %v, baseline %v (simulator outputs are deterministic; a drift is a correctness bug or an unrefreshed baseline)",
					name, m, got, want))
			}
		}
		fnames := make([]string, 0, len(b.Min))
		for m := range b.Min {
			fnames = append(fnames, m)
		}
		sort.Strings(fnames)
		for _, m := range fnames {
			floor := b.Min[m]
			got, ok := r.Metrics[m]
			if !ok {
				fails = append(fails, fmt.Sprintf("%s: floor metric %q missing from results", name, m))
				continue
			}
			if got < floor {
				fails = append(fails, fmt.Sprintf("%s: metric %q = %v below floor %v",
					name, m, got, floor))
			}
		}
	}
	return fails
}

// carryMin copies the authored Min floors of the old baseline onto the
// freshly measured results, so -update never drops a floor. Floors whose
// benchmark vanished from the run are dropped with it.
func carryMin(old, res *File) {
	for name, ob := range old.Benchmarks {
		if len(ob.Min) == 0 {
			continue
		}
		if nb := res.Benchmarks[name]; nb != nil {
			nb.Min = ob.Min
		}
	}
}

// closeEnough is exact equality modulo float formatting noise.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

func writeJSON(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
