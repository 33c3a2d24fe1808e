package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// Summaries is the cross-package fact table shared by every package
	// of the same Load: per-function lock-acquisition, pool-release and
	// retention facts, closed transitively over the module call graph
	// (facts.go).
	Summaries *Summaries
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Standard   bool
	Export     string
	DepOnly    bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load lists patterns with the go tool (run in dir, "" meaning the current
// directory), then parses and typechecks every matched package. Only the
// matched packages are analyzed; their dependencies — standard library and
// module-internal alike — are typechecked from the compiler's export data,
// which `go list -export` guarantees is present in the build cache. Test
// files are not analyzed: afvet audits the simulator, and the
// golden/property tests exercise maps and host I/O legitimately.
//
// In addition, every module-internal package in the dependency closure is
// summarized for the interprocedural layer: `go list -deps` emits
// packages in dependency order (post-order DFS), so summaries are
// computed bottom-up — by the time a package is summarized, the facts of
// everything it imports are final. Summaries of dep-only packages come
// from the per-package cache when fresh (factscache.go) and are parsed
// from source only on a miss; target packages are always recomputed from
// the syntax already in hand.
//
// Explicit directory arguments may point below testdata; that is how the
// analysistest harness loads fixture packages through the exact production
// loader, and how fixture packages see real module summaries.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("driver.Load: no packages given")
	}
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var order []*listPkg           // module-internal packages, dependency-first
	moduleOf := map[string]bool{}  // import path -> module-internal
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main && len(p.GoFiles) > 0 {
			q := p
			order = append(order, &q)
			moduleOf[p.ImportPath] = true
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	summaries := NewSummaries()
	depHash := map[string]string{} // import path -> summary hash
	var pkgs []*Package
	for _, t := range order {
		if len(t.CgoFiles) > 0 {
			if t.DepOnly {
				continue // no summary for cgo deps; facts degrade gracefully
			}
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		deps := map[string]string{}
		for _, ip := range t.Imports {
			if moduleOf[ip] {
				deps[ip] = depHash[ip]
			}
		}
		hash, err := factsHash(t.ImportPath, t.Dir, t.GoFiles, deps)
		if err != nil {
			return nil, fmt.Errorf("hashing %s: %v", t.ImportPath, err)
		}
		depHash[t.ImportPath] = hash

		if t.DepOnly {
			// Summary-only package: prefer the persisted summary; parse
			// and typecheck from source only on a cache miss.
			if pf := loadCachedFacts(hash); pf != nil {
				summaries.add(pf)
				continue
			}
			pkg, err := parseAndCheck(t, fset, imp)
			if err != nil {
				return nil, err
			}
			pf := ComputeFacts(pkg, summaries)
			pf.Hash = hash
			summaries.add(pf)
			storeFacts(pf)
			continue
		}

		pkg, err := parseAndCheck(t, fset, imp)
		if err != nil {
			return nil, err
		}
		pkg.Summaries = summaries
		pf := ComputeFacts(pkg, summaries)
		pf.Hash = hash
		summaries.add(pf)
		storeFacts(pf)
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// parseAndCheck parses t's sources into fset and typechecks them against
// export data via imp.
func parseAndCheck(t *listPkg, fset *token.FileSet, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, gf := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
	}
	return &Package{
		PkgPath:   t.ImportPath,
		Dir:       t.Dir,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
