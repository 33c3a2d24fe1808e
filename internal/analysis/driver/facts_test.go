package driver

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

const (
	fixtureA = "repro/internal/analysis/testdata/src/driver/a"
	fixtureB = "repro/internal/analysis/testdata/src/driver/b"
)

// loadFixture loads testdata/src/<rel> through the production loader with
// an isolated summary cache.
func loadFixture(t *testing.T, rel string) []*Package {
	t.Helper()
	t.Setenv("AFVET_FACTS_CACHE", t.TempDir())
	dir, err := filepath.Abs(filepath.Join("..", "testdata", "src", rel))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestSummariesCrossPackageFacts(t *testing.T) {
	pkgs := loadFixture(t, "driver/a")
	if len(pkgs) != 1 || pkgs[0].PkgPath != fixtureA {
		t.Fatalf("loaded %v, want exactly %s", pkgs, fixtureA)
	}
	s := pkgs[0].Summaries

	cases := []struct {
		id   string
		want FuncFacts
	}{
		// Primitive facts in the dependency.
		{fixtureB + ".(*Pool).Put", FuncFacts{ReleasesParams: []int{0}}},
		{fixtureB + ".(*Pool).Keep", FuncFacts{RetainsParams: []int{0}}},
		// Lock() is consumed as an acquisition fact, not a call edge;
		// Get and Unlock remain ordinary module-internal edges.
		{fixtureB + ".LockShard", FuncFacts{
			Acquires: []int{LockPG},
			Calls: []FuncID{
				"repro/internal/core.(*ShardLocks).Get",
				"repro/internal/sim.(*Mutex).Unlock",
			},
		}},
		// Facts inherited across the package boundary.
		{fixtureA + ".CallBump", FuncFacts{
			Calls: []FuncID{FuncID(fixtureB + ".Bump")},
		}},
		{fixtureA + ".CallBumpTwice", FuncFacts{
			Calls: []FuncID{FuncID(fixtureA + ".CallBump")},
		}},
		{fixtureA + ".HandOff", FuncFacts{
			ReleasesParams: []int{1},
			Calls:          []FuncID{FuncID(fixtureB + ".(*Pool).Put")},
		}},
		{fixtureA + ".Hold", FuncFacts{
			RetainsParams: []int{1},
			Calls:         []FuncID{FuncID(fixtureB + ".(*Pool).Keep")},
		}},
		{fixtureA + ".UseLock", FuncFacts{
			Acquires: []int{LockPG},
			Calls:    []FuncID{FuncID(fixtureB + ".LockShard")},
		}},
		{fixtureA + ".Pure", FuncFacts{}},
	}
	for _, c := range cases {
		got := s.Facts(FuncID(c.id))
		if got == nil {
			t.Errorf("Facts(%s) = nil", c.id)
			continue
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("Facts(%s) = %+v, want %+v", c.id, *got, c.want)
		}
	}

	// Unknown functions and foreign packages have no facts.
	for _, id := range []string{"", "fmt.Println", fixtureA + ".NoSuch", "no/such/pkg.F"} {
		if f := s.Facts(FuncID(id)); f != nil {
			t.Errorf("Facts(%q) = %+v, want nil", id, f)
		}
	}
	// Nil receivers are safe.
	var nilS *Summaries
	if f := nilS.Facts(FuncID(fixtureA + ".Pure")); f != nil {
		t.Errorf("nil Summaries.Facts = %+v, want nil", f)
	}
}

func TestSummariesCachePersistence(t *testing.T) {
	cache := t.TempDir()
	t.Setenv("AFVET_FACTS_CACHE", cache)
	dir, err := filepath.Abs(filepath.Join("..", "testdata", "src", "driver", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "."); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	// At minimum a, b, and their sim/core dependency chain were persisted.
	if len(entries) < 4 {
		t.Errorf("cache holds %d summaries after Load, want >= 4", len(entries))
	}
	// A second load must reuse the cache and produce identical facts.
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	got := pkgs[0].Summaries.Facts(FuncID(fixtureA + ".HandOff"))
	if got == nil || !reflect.DeepEqual(got.ReleasesParams, []int{1}) {
		t.Errorf("cached reload: Facts(HandOff) = %+v, want ReleasesParams [1]", got)
	}
}

func TestFactsCacheRoundTrip(t *testing.T) {
	t.Setenv("AFVET_FACTS_CACHE", t.TempDir())
	pf := &PkgFacts{
		Path: "example.test/p",
		Hash: "0123456789abcdef",
		Funcs: map[FuncID]*FuncFacts{
			"example.test/p.F": {Acquires: []int{LockKV}, RetainsParams: []int{0}},
		},
	}
	storeFacts(pf)
	got := loadCachedFacts(pf.Hash)
	if got == nil {
		t.Fatal("loadCachedFacts returned nil after storeFacts")
	}
	if !reflect.DeepEqual(got, pf) {
		t.Errorf("round trip mismatch: got %+v, want %+v", got, pf)
	}
	if miss := loadCachedFacts("feedfacefeedface"); miss != nil {
		t.Errorf("loadCachedFacts(unknown) = %+v, want nil", miss)
	}
}

func TestFactsHashChaining(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "x.go")
	if err := os.WriteFile(file, []byte("package x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	deps := map[string]string{"dep/one": "h1"}
	h1, err := factsHash("mod/x", dir, []string{"x.go"}, deps)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := factsHash("mod/x", dir, []string{"x.go"}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash is not deterministic: %s vs %s", h1, h2)
	}
	// A changed dependency summary invalidates the package above it.
	h3, err := factsHash("mod/x", dir, []string{"x.go"}, map[string]string{"dep/one": "h1'"})
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash ignored a dependency summary change")
	}
	// Changed source bytes invalidate too.
	if err := os.WriteFile(file, []byte("package x // v2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	h4, err := factsHash("mod/x", dir, []string{"x.go"}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h1 {
		t.Error("hash ignored a source change")
	}
}
