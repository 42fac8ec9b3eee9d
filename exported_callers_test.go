package wsnlink_test

// Guard against dead internal API: nothing outside this module can import a
// package under internal/, so an exported package-level function there that
// no non-test code calls is only weight. Methods are out of scope: the
// facade's type aliases and interfaces (heap.Interface, slog.Handler, ...)
// reach them without a visible call.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testSeams are the internal functions kept exported for other packages'
// tests, each with its reason.
var testSeams = map[string]string{
	"internal/sweep.NewRowGate":      "parks a campaign mid-run for the interrupt and resume tests of serve, fabric, wsnsweep and wsnlinkd",
	"internal/phy.PowInt":            "sim's batch tests check it against math.Pow on the ACK exponents the kernel uses",
	"internal/sweep.WriteCSV":        "writes the link CSV fixtures of the wsnopt, wsnstats and serve tests",
	"internal/sweep.ReadScenarioCSV": "decodes wsnsweep's scenario CSV output in its tests",
}

func TestInternalExportsHaveCallers(t *testing.T) {
	const mod = "wsnlink"
	type fn struct{ pkg, name, pos string }
	var exported []fn
	called := map[string]bool{}   // "<import path>.<name>"
	skip := map[*ast.Ident]bool{} // identifiers that name no package-level function
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		internal := strings.HasPrefix(pkg, mod+"/internal/")
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, decl := range f.Decls {
			// A function's own name and its recursive calls are not callers.
			self := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fd.Recv == nil {
					self = fd.Name.Name
					if internal && fd.Name.IsExported() {
						exported = append(exported, fn{pkg, self, fset.Position(fd.Pos()).String()})
					}
				}
				skip[fd.Name] = true
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[id.Name]; ok {
							called[p+"."+n.Sel.Name] = true
							return false
						}
					}
					skip[n.Sel] = true // a field or method, not a function
				case *ast.Ident:
					if !skip[n] && n.Name != self {
						called[pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range testSeams {
		found := false
		for _, e := range exported {
			found = found || strings.TrimPrefix(e.pkg, mod+"/")+"."+e.name == key
		}
		if !found {
			t.Errorf("test seam %s is not an exported internal function; drop it from testSeams", key)
		}
	}
	var dead []string
	for _, e := range exported {
		key := strings.TrimPrefix(e.pkg, mod+"/") + "." + e.name
		if _, seam := testSeams[key]; !seam && !called[e.pkg+"."+e.name] {
			dead = append(dead, e.pos+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests; delete it, move it into a _test.go file, or list it in testSeams with a reason", d)
	}
}
