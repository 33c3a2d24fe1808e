package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseCanonical(t *testing.T) {
	for _, name := range CanonNames {
		sc, err := Parse([]byte(Canon(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("%s: parsed name %q", name, sc.Name)
		}
		if len(sc.Tenants) == 0 {
			t.Fatalf("%s: no tenants", name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "d", "runtime_sec": 1,
		"cluster": {"nodes": 1, "osds_per_node": 2},
		"tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 10}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", sc.Seed)
	}
	r := resolveTenant(&sc.Tenants[0])
	if r.Class != "standard" || r.ImageMB != 64 || r.InFlight != 8 {
		t.Fatalf("tenant defaults = %q/%d/%d", r.Class, r.ImageMB, r.InFlight)
	}
	if len(r.sizes) != 1 || r.sizes[0].Bytes != 4096 {
		t.Fatalf("default sizes = %+v", r.sizes)
	}
}

func TestParseComments(t *testing.T) {
	in := `{
		// a line comment
		"name": "c", # a hash comment with "quotes"
		"runtime_sec": 1,
		"cluster": {"nodes": 1, "osds_per_node": 1},
		"tenants": [{"name": "a // not a comment", "clients": 1,
			"arrival": {"process": "poisson", "rate_ops_sec": 5}},]
	}`
	sc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tenants[0].Name != "a // not a comment" {
		t.Fatalf("comment stripping reached into a string: %q", sc.Tenants[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"empty", ``, "unexpected end"},
		{"non-object", `[1]`, "top level"},
		{"trailing", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5}}]} extra`, "trailing data"},
		{"unknown-top", `{"nmae": "x"}`, `unknown field "nmae"`},
		{"unknown-tenant", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [{"name": "a", "clinets": 1}]}`, "tenants[0]"},
		{"dup-key", `{"name": "x", "name": "y"}`, "duplicate key"},
		{"bad-type", `{"name": 4}`, "must be a string"},
		{"no-cluster", `{"name": "x", "runtime_sec": 1, "tenants": []}`, "cluster section is required"},
		{"no-tenants", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": []}`, "at least one tenant"},
		{"bad-process", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "pareto", "rate_ops_sec": 5}}]}`, "not poisson, gamma or weibull"},
		{"poisson-cv", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5, "cv": 2}}]}`, "cv fixed at 1"},
		{"failure-needs-timeout", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2}, "failure": {"osd": 0, "at_sec": 0.5, "recover_at_sec": 0.8}, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5}}]}`, "op_timeout_ms"},
		{"huge-number", `{"name": "x", "seed": 1e300}`, "must be an integer"},
		{"bad-escape", `{"name": "\q"}`, "invalid escape"},
		{"deep-nest", `{"a": ` + strings.Repeat(`[`, 100) + strings.Repeat(`]`, 100) + `}`, "nesting deeper"},
		{"no-commas", `{"name": "x" "runtime_sec": 1 "cluster": {"nodes": 1 "osds_per_node": 1} "tenants": [{"name": "a" "clients": 1 "arrival": {"process": "poisson" "rate_ops_sec": 5}}]}`, "expected ','"},
		{"leading-commas", `{,,"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5}}]}`, "object key must be a string"},
		{"leading-comma-array", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [,{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5}}]}`, "unexpected character ','"},
		{"case-folded-key", `{"NAME": "x"}`, `unknown field "NAME"`},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParseAllKeys sets every key of the format once and compares the
// result field by field, so a misspelt struct tag fails here even where
// no canonical scenario uses the key.
func TestParseAllKeys(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "all", "seed": 9, "runtime_sec": 2, "ramp_sec": 0.5,
		"cluster": {"nodes": 2, "osds_per_node": 2, "ssds_per_osd": 1, "pgs": 64,
			"replicas": 2, "profile": "afceph", "backend": "directstore", "journal_mb": 32,
			"op_timeout_ms": 200, "heartbeat_ms": 50, "heartbeat_grace_ms": 150},
		"admission": true,
		"failure": {"osd": 1, "at_sec": 1, "recover_at_sec": 2},
		"tenants": [{
			"name": "t", "slo_class": "gold", "clients": 3, "image_mb": 16, "in_flight": 4,
			"arrival": {"process": "gamma", "rate_ops_sec": 100, "cv": 2},
			"mix": {"read_pct": 70, "pattern": "seq", "sizes": [{"bytes": 4096, "weight": 3}, {"bytes": 8192}]},
			"diurnal": {"period_sec": 10, "amplitude": 0.5},
			"burst": {"at_sec": 1, "duration_sec": 0.5, "multiplier": 4},
			"admission": {"rate_ops_sec": 80, "burst": 8}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := &Scenario{
		Name: "all", Seed: 9, RuntimeSec: 2, RampSec: 0.5,
		Cluster: ClusterSpec{Nodes: 2, OSDsPerNode: 2, SSDsPerOSD: 1, PGs: 64,
			Replicas: 2, Profile: "afceph", Backend: "directstore", JournalMB: 32,
			OpTimeoutMs: 200, HeartbeatMs: 50, HeartbeatGraceMs: 150},
		Admission: true,
		Failure:   &FailureSpec{OSD: 1, AtSec: 1, RecoverAtSec: 2},
		Tenants: []TenantSpec{{
			Name: "t", Class: "gold", Clients: 3, ImageMB: 16, InFlight: 4,
			Arrival:   ArrivalSpec{Process: ProcGamma, RateOpsSec: 100, CV: 2},
			Mix:       MixSpec{ReadPct: 70, Pattern: "seq", Sizes: []SizeWeight{{Bytes: 4096, Weight: 3}, {Bytes: 8192, Weight: 1}}},
			Diurnal:   &DiurnalSpec{PeriodSec: 10, Amplitude: 0.5},
			Burst:     &BurstSpec{AtSec: 1, DurationSec: 0.5, Multiplier: 4},
			Admission: &ThrottleSpec{OpsPerSec: 80, Burst: 8},
		}},
	}
	if !reflect.DeepEqual(sc, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", sc, want)
	}
}

// marshal renders sc with encoding/json; the struct tags make its output a
// scenario file that Parse reads back.
func marshal(t testing.TB, sc *Scenario) []byte {
	t.Helper()
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncodeFixedPoint: parse→marshal→parse is a fixed point for every
// canonical scenario — the property the fuzz harness extends to the whole
// valid input space.
func TestEncodeFixedPoint(t *testing.T) {
	for _, name := range CanonNames {
		sc, err := Parse([]byte(Canon(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e1 := marshal(t, sc)
		sc2, err := Parse(e1)
		if err != nil {
			t.Fatalf("%s: reparse of marshalled scenario: %v\n%s", name, err, e1)
		}
		e2 := marshal(t, sc2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("%s: marshal is not a fixed point:\n--- first\n%s\n--- second\n%s", name, e1, e2)
		}
	}
}

func TestEncodeEscaping(t *testing.T) {
	sc := &Scenario{
		Name: "weird \"name\"\twith\nescapes\x01", Seed: 7, RuntimeSec: 1,
		Cluster: ClusterSpec{Nodes: 1, OSDsPerNode: 1},
		Tenants: []TenantSpec{{Name: "t", Clients: 1, Arrival: ArrivalSpec{Process: ProcPoisson, RateOpsSec: 5}}},
	}
	e1 := marshal(t, sc)
	sc2, err := Parse(e1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, e1)
	}
	if sc2.Name != sc.Name {
		t.Fatalf("name round trip: %q != %q", sc2.Name, sc.Name)
	}
	if !bytes.Equal(e1, marshal(t, sc2)) {
		t.Fatal("escaped marshal is not a fixed point")
	}
}
