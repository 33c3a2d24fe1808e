package scenario

import (
	"bytes"
	"testing"
)

// FuzzScenarioParse: arbitrary bytes must never panic the parser, invalid
// specs must come back as errors (Validate never panics on user input),
// and for anything that parses, parse→marshal→parse must be a fixed point.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range CanonNames {
		f.Add([]byte(Canon(name)))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "x", "tenants": [{"arrival": {}}]}`))
	f.Add([]byte(`[1, 2, {"a": "bé😀"}]`))
	f.Add([]byte(`{"name": "x", "seed": -1, "runtime_sec": 1e999}`))
	f.Add([]byte("{\"name\": \"x\" // comment\n}"))
	f.Add([]byte(`{"a": [[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]}`))
	f.Add([]byte(`{"name": "x" "runtime_sec": 1}`))
	f.Add([]byte(`{,,"name": "x", "tenants": [,{}]}`))
	f.Add([]byte(`{"NAME": "x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data) // must not panic
		if err != nil {
			return
		}
		e1 := marshal(t, sc)
		sc2, err := Parse(e1)
		if err != nil {
			t.Fatalf("marshalled scenario failed to reparse: %v\n%s", err, e1)
		}
		e2 := marshal(t, sc2)
		if !bytes.Equal(e1, e2) {
			t.Fatalf("marshal not a fixed point:\n--- first\n%s\n--- second\n%s", e1, e2)
		}
	})
}
