package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitNames are exported method names that satisfy a standard
// interface (fmt.Stringer, error, json/text marshalers, sort.Interface,
// http.Handler): the library calls them, no repository code names them.
var implicitNames = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true,
}

// ownTestOnly are exported functions that only their own package's
// tests call, each kept for the stated reason.
var ownTestOnly = map[string]string{
	"RunTest":              "the analyzer fixture harness every analyzer's test runs",
	"IsNormalized":         "the cq invariant the normalisation tests assert",
	"RenameApart":          "the cq fixture the containment tests build disjoint copies with",
	"DefaultSocialConfig":  "the workload fixture of the social generator tests",
	"BoundedlyEvaluable":   "the Section 2 definition of a bounded plan, pinned by the plan tests",
	"FullyParameterizable": "Proposition 5.4, pinned by the specialize tests",
}

// TestEveryExportHasACaller fails when an exported top-level function or
// method under internal/ is referenced neither by non-test Go anywhere
// in the repository (benchmark/, cmd/ and examples/ included) nor by a
// test file of another package directory. References are matched by
// name, so a name shared with a used identifier passes: the test
// catches exports nothing names at all.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct{ dir, pos string }
	decls := map[string][]decl{}
	// refs maps each referenced name to the directories of the test
	// files that name it; "" stands for non-test code anywhere.
	refs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		isTest := strings.HasSuffix(path, "_test.go")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !isTest && fd.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], decl{dir, fset.Position(fd.Pos()).String()})
			}
		}
		from := ""
		if isTest {
			from = dir
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if refs[id.Name] == nil {
					refs[id.Name] = map[string]bool{}
				}
				refs[id.Name][from] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, ds := range decls {
		if implicitNames[name] || ownTestOnly[name] != "" {
			continue
		}
		for _, d := range ds {
			called := false
			for from := range refs[name] {
				if from == "" || from != d.dir {
					called = true
					break
				}
			}
			if !called {
				dead = append(dead, d.pos+": "+name)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside its own package's tests", d)
	}
}
