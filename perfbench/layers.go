package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// dump is a parsed perf dump: subsystem -> counter -> value, where a value
// is a float64 or, for a histogram, a map of its summary fields.
type dump map[string]map[string]any

func parseDump(text string) (dump, error) {
	var d dump
	if err := json.Unmarshal([]byte(text), &d); err != nil {
		return nil, fmt.Errorf("parse perf dump: %w", err)
	}
	return d, nil
}

// osdSection reports whether name is "osd.<id>" followed by suffix.
func osdSection(name, suffix string) bool {
	rest, ok := strings.CutPrefix(name, "osd.")
	if !ok {
		return false
	}
	id, ok := strings.CutSuffix(rest, suffix)
	if !ok || id == "" {
		return false
	}
	for _, ch := range id {
		if ch < '0' || ch > '9' {
			return false
		}
	}
	return true
}

// sum adds key over every OSD subsystem with the given suffix ("" for the
// daemon itself, ".journal", ".kv", ...).
func (d dump) sum(suffix, key string) float64 {
	var s float64
	for name, sub := range d {
		if osdSection(name, suffix) {
			if v, ok := sub[key].(float64); ok {
				s += v
			}
		}
	}
	return s
}

// maxHist returns the largest value of a histogram field over every OSD.
func (d dump) maxHist(key, field string) float64 {
	var m float64
	for name, sub := range d {
		if osdSection(name, "") {
			if h, ok := sub[key].(map[string]any); ok {
				if v, ok := h[field].(float64); ok && v > m {
					m = v
				}
			}
		}
	}
	return m
}

// modelLayers derives the modelled-cluster layer metrics from perf dumps
// taken before and after the timed phase (before may be empty: the
// scenario engine dumps only once, after its run). ops is the number of
// client ops the counters are divided by.
func modelLayers(before, after dump, ops float64) map[string]float64 {
	delta := func(suffix, key string) float64 { return after.sum(suffix, key) - before.sum(suffix, key) }
	kvDevice := delta(".kv", "wal_bytes") + delta(".kv", "flush_bytes") + delta(".kv", "compaction_write_bytes")
	net := func(d dump) float64 {
		v, _ := d["net"]["msgs"].(float64)
		return v
	}
	return map[string]float64{
		"osd.pg_lock_wait_ms_per_kop": ratio(delta("", "pg_lock_wait_ns")/1e6, ops/1000),
		"osd.opq_delay_p99_ms":        after.maxHist("opq_delay", "p99_ms"),
		"osd.msgcap_wait_ms":          delta("", "msgcap_wait_ns") / 1e6,
		"osd.fs_throttle_wait_ms":     delta("", "fs_throttle_wait_ns") / 1e6,
		"journal.stall_ms":            delta(".journal", "stall_time_ns") / 1e6,
		"oslog.block_ms":              delta(".log", "block_time_ns") / 1e6,
		"oslog.dropped":               delta(".log", "dropped"),
		"core.comp_batch":             ratio(delta("", "comp_completions"), delta("", "comp_batches")),
		"filestore.syscalls_per_op":   ratio(delta(".filestore", "syscalls"), ops),
		"filestore.meta_reads":        delta(".filestore", "meta_reads"),
		"kvstore.write_amp":           ratio(kvDevice, delta(".kv", "user_bytes")),
		"kvstore.stall_ms":            delta(".kv", "stall_time_ns") / 1e6,
		"kvstore.compaction_mb":       delta(".kv", "compaction_write_bytes") / (1 << 20),
		"netsim.msgs_per_op":          ratio(net(after)-net(before), ops),
	}
}
