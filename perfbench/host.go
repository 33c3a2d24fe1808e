package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo is recorded with every result set: sim_wall_x depends on the
// host's cores and the GOMAXPROCS the simulator ran with.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func hostContext(procs int, commit string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the resident-memory high-water mark in MB (10^6
// bytes). VmHWM belongs to this process image alone, unlike the rusage
// maximum, which also counts whatever process exec'd it.
func peakRSSMB() float64 {
	if v := procField("/proc/self/status", "VmHWM"); v != "unknown" {
		if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil {
			return kb * 1024 / 1e6
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
