package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// Run executes the analyzers over the packages and returns the surviving
// findings sorted by file, line, column and analyzer name. Suppression is
// applied here, centrally: a finding is dropped when a comment containing
// "<analyzer.Tag>:" sits on the flagged line or the line directly above
// it, in the same file. Analyzers therefore never need to inspect
// comments themselves.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		tags := collectTags(fset, pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if tags.suppressed(a.Tag, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// tagIndex records which suppression tags appear on which source lines.
type tagIndex map[tagKey]bool

type tagKey struct {
	file string
	line int
	tag  string
}

// suppressed reports whether tag is present on pos's line or the line
// directly above it.
func (t tagIndex) suppressed(tag string, pos token.Position) bool {
	return t[tagKey{pos.Filename, pos.Line, tag}] || t[tagKey{pos.Filename, pos.Line - 1, tag}]
}

// knownTags are the suppression markers the suite recognizes; anything
// else in a comment is ignored.
var knownTags = []string{"order-ok", "panic-ok", "wrap-ok", "clock-ok"}

// collectTags scans every comment of the package for suppression tags.
// Multi-line comment groups register each tag on the line it appears on.
func collectTags(fset *token.FileSet, pkg *Package) tagIndex {
	idx := make(tagIndex)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for i, line := range strings.Split(c.Text, "\n") {
					for _, tag := range knownTags {
						if strings.Contains(line, tag+":") {
							pos := fset.Position(c.Pos())
							idx[tagKey{pos.Filename, pos.Line + i, tag}] = true
						}
					}
				}
			}
		}
	}
	return idx
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
