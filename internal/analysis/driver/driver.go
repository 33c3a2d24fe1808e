// Package driver is a minimal, dependency-free equivalent of the
// golang.org/x/tools/go/analysis framework, sized for this repository's
// needs. The build environment is offline and the module deliberately has
// no external requirements, so instead of depending on x/tools the afvet
// suite runs on this driver: the Analyzer/Pass/Diagnostic shapes mirror
// go/analysis closely enough that the five checkers could be ported to the
// real framework by changing imports.
//
// The driver loads packages by shelling out to `go list -export -deps
// -json` (the same mechanism go/packages uses), parses the target
// packages' sources, and typechecks them against the compiler's export
// data for every dependency — no source re-typechecking of the standard
// library, no network, no GOPATH assumptions.
//
// Suppression: a diagnostic is suppressed when the offending line, or the
// line directly above it, carries a comment of the form
//
//	//afvet:allow <analyzer> <reason>
//
// The analyzer name must match (or be "all") and a non-empty reason is
// mandatory — an annotation without a justification does not suppress.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //afvet:allow annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces,
	// ending with a pointer to the written invariant it checks.
	Doc string
	// Run is invoked once per loaded package.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
// It mirrors analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath and Dir identify the package on disk (import path and
	// source directory); hotalloc uses them to drive the compiler.
	PkgPath string
	Dir     string

	// Summaries is the cross-package fact table (facts.go): transitive
	// lock-acquisition and pool-release/retention facts plus call-graph
	// edges for every module-internal function in the dependency
	// closure. Nil only in hand-constructed test passes; the accessors on
	// Summaries are nil-safe.
	Summaries *Summaries

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with a resolved file position. Suppressed
// marks findings silenced by a valid //afvet:allow annotation; Run drops
// them, RunAll keeps them flagged so tooling (afvet -json) can surface
// the suppression inventory.
type Diagnostic struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. Diagnostics silenced by a valid
// //afvet:allow annotation are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAll(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	diags := all[:0:0]
	for _, d := range all {
		if !d.Suppressed {
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// RunAll applies every analyzer to every package and returns all
// diagnostics sorted by position, with suppressed findings kept and
// flagged rather than dropped.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				Dir:       pkg.Dir,
				Summaries: pkg.Summaries,
				diags:     &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		for _, d := range pkgDiags {
			d.Suppressed = allows.suppresses(d)
			diags = append(diags, d)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders diagnostics by position, then analyzer, then
// message — the stable order every afvet output mode emits.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowKey addresses one annotated line of one file.
type allowKey struct {
	file string
	line int
}

type allowSet map[allowKey][]string // analyzer names allowed at that line

// collectAllows gathers valid //afvet:allow annotations from a package's
// comments. The annotation must name an analyzer (or "all") and carry at
// least one word of justification.
func collectAllows(pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "afvet:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "afvet:allow"))
				if len(fields) < 2 {
					continue // no reason given: annotation does not count
				}
				pos := pkg.Fset.Position(c.Pos())
				k := allowKey{file: pos.Filename, line: pos.Line}
				set[k] = append(set[k], fields[0])
			}
		}
	}
	return set
}

// suppresses reports whether d is silenced by an annotation on its own
// line or the line directly above.
func (s allowSet) suppresses(d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range s[allowKey{file: d.Pos.Filename, line: line}] {
			if name == d.Analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// PkgNamed reports whether the package's name is one of names. The afvet
// analyzers scope their audits by package name (osd, sim, store, ...) so
// that analysistest fixture packages under testdata/src/<case>/<name>
// exercise exactly the production configuration.
func PkgNamed(pkg *types.Package, names ...string) bool {
	for _, n := range names {
		if pkg.Name() == n {
			return true
		}
	}
	return false
}
