package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a small decoder for the fields of
// profile.proto that attribution needs (samples, locations, functions and
// the string table), so the benchmark needs nothing beyond the standard
// library.

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one tag and returns its number, wire type, and either its
// varint value or its length-delimited bytes.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(tag>>3), int(tag&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated varint field, packed or not.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	in := pbuf{data}
	for len(in.b) > 0 {
		x, err := in.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// cpuSample is one profile sample: CPU nanoseconds and its stack, leaf
// first, with inlined frames expanded.
type cpuSample struct {
	nanos int64
	stack []string
}

// decodeProfile returns the samples of a gzipped CPU profile.
func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, wire, _, data, err := top.field()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		switch num {
		case 2: // sample
			var s rawSample
			in := pbuf{data}
			for len(in.b) > 0 {
				n, w, x, d, err := in.field()
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, x, d)
				case 2:
					s.vals, err = uints(s.vals, w, x, d)
				}
				if err != nil {
					return nil, fmt.Errorf("profile sample: %w", err)
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			in := pbuf{data}
			for len(in.b) > 0 {
				n, _, x, d, err := in.field()
				if err != nil {
					return nil, fmt.Errorf("profile location: %w", err)
				}
				switch n {
				case 1:
					id = x
				case 4: // line
					line := pbuf{d}
					for len(line.b) > 0 {
						ln, _, lx, _, err := line.field()
						if err != nil {
							return nil, fmt.Errorf("profile line: %w", err)
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // function
			var id, name uint64
			in := pbuf{data}
			for len(in.b) > 0 {
				n, _, x, _, err := in.field()
				if err != nil {
					return nil, fmt.Errorf("profile function: %w", err)
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcs[id] = name
		case 6: // string table
			if wire != 2 {
				return nil, errors.New("profile: bad string table entry")
			}
			strs = append(strs, string(data))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: int64(s.vals[1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// profileModules are the simulator packages whose self time is reported,
// plus the public API and the benchmark itself.
var profileModules = []string{
	"sim", "netsim", "osd", "core", "store", "filestore", "journal", "kvstore",
	"device", "oslog", "cpumodel", "redundancy", "crush", "cluster", "workload",
	"scenario", "stats", "rng", "metrics", "trace", "fault", "afceph", "bench",
}

// Profile buckets besides the modules: Go runtime scheduling (park,
// channel, futex and scheduler frames), GC and allocation, and samples
// with no simulator frame at all.
const (
	bucketSched = "runtime.sched"
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a frame to its profile module, or "" for the runtime and
// the rest of the standard library.
func moduleOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main":
		return "bench"
	case pkg == "repro/afceph":
		return "afceph"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	}
	return ""
}

var gcFrames = []string{
	"mallocgc", "newobject", "makeslice", "growslice", "makemap", "newarray",
	"gcBgMarkWorker", "gcDrain", "gcAssistAlloc", "gcMark", "gcStart", "gcWriteBarrier",
	"scanobject", "scanblock", "scanstack", "scanframe", "markroot", "greyobject",
	"wbBuf", "bulkBarrier", "sweep", "mheap", "mcache", "mcentral", "mspan", "scavenge",
	"heapBits", "findObject", "memclrNoHeapPointers", "nextFreeFast", "freeSomeWbufs",
}

var schedFrames = []string{
	"gopark", "park_m", "goready", "ready", "chansend", "chanrecv", "closechan",
	"selectgo", "futex", "notesleep", "notewakeup", "semasleep", "semawakeup",
	"schedule", "findRunnable", "findrunnable", "mcall", "gogo", "goexit", "gosched",
	"runqget", "runqput", "runqgrab", "runqsteal", "stealWork", "casgstatus", "wakep",
	"startm", "stopm", "handoffp", "acquirep", "releasep", "resetspinning", "execute",
	"lock2", "unlock2", "osyield", "usleep", "procyield", "sysmon", "netpoll",
	"newproc", "gfget", "gfput", "entersyscall", "exitsyscall", "checkTimers",
	"semacquire", "semrelease", "runtime_Semacquire", "runtime_Semrelease",
	"injectglist", "mPark", "nanotime",
}

func frameIn(fn string, set []string) bool {
	pkg := funcPackage(fn)
	if pkg != "runtime" && pkg != "sync" && pkg != "internal/sync" {
		return false
	}
	for _, s := range set {
		if strings.Contains(fn, s) {
			return true
		}
	}
	return false
}

// attribute charges one sample to a bucket. A simulator leaf frame owns
// the sample. Otherwise the frames between the leaf and the nearest
// simulator frame decide: the first one that is GC/allocation or
// scheduling work charges the sample to that runtime bucket, and any
// other helper (maps, memmove, hashing, sort, ...) is charged to the
// nearest simulator frame that called it.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
		if frameIn(fn, gcFrames) {
			return bucketGC
		}
		if frameIn(fn, schedFrames) {
			return bucketSched
		}
	}
	return bucketOther
}

// profileShares returns each bucket's share of the CPU time in samples and
// the number of samples.
func profileShares(profiles [][]byte) (map[string]float64, int, error) {
	nanos := map[string]int64{}
	var total int64
	n := 0
	for _, p := range profiles {
		samples, err := decodeProfile(p)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range samples {
			nanos[attribute(s.stack)] += s.nanos
			total += s.nanos
			n++
		}
	}
	shares := map[string]float64{}
	for _, m := range profileModules {
		shares[m] = 0
	}
	shares[bucketSched], shares[bucketGC], shares[bucketOther] = 0, 0, 0
	for b, v := range nanos {
		if _, ok := shares[b]; !ok {
			b = bucketOther // a package outside the reported set
		}
		shares[b] += ratio(float64(v), float64(total))
	}
	return shares, n, nil
}
