package gbd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/groupdetect/gbd"

// interfaceMethods are method names the standard library calls through an
// interface (error, fmt.Stringer, rand.Source64, sort and heap, http,
// json), so a method with one of these names may have no call site in the
// module and still be used.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "String": true,
	"Int63": true, "Uint64": true, "Seed": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// knownUnused is the backlog of exports that only tests reference, recorded
// when the check was introduced. An export may leave the list (delete it,
// or give it a real caller) but none may join it: the test fails on a new
// unused export and on a listed one that is no longer unused.
var knownUnused = map[string]bool{
	"internal/detect.CriticalDeadFrac":         true,
	"internal/detect.DegradationCurve":         true,
	"internal/detect.LossCurve":                true,
	"internal/detect.ThinnedParams":            true,
	"internal/dist.ConvolveAll":                true,
	"internal/dist.MaxAbsDiff":                 true,
	"internal/dist.New":                        true,
	"internal/faults.MeanAliveFraction":        true,
	"internal/field.Grid":                      true,
	"internal/field.NewPhilox":                 true,
	"internal/geom.(DRGeometry).CoverPeriods":  true,
	"internal/geom.(Vec).Angle":                true,
	"internal/geom.MonteCarloArea":             true,
	"internal/markov.New":                      true,
	"internal/matrix.(Matrix).IsRowStochastic": true,
	"internal/matrix.FromRows":                 true,
	"internal/matrix.MaxAbsDiff":               true,
	"internal/numeric.AlmostEqual":             true,
	"internal/numeric.BinomialMean":            true,
	"internal/numeric.BinomialVariance":        true,
	"internal/numeric.ChooseInt64":             true,
	"internal/numeric.LogSumExp":               true,
	"internal/numeric.WithinULP":               true,
	"internal/obs.(Registry).Names":            true,
	"internal/obs.CountBuckets":                true,
	"internal/obs.ValidateManifestJSON":        true,
	"internal/peer.(Ring).Members":             true,
	"internal/stats.StdDev":                    true,
	"internal/sweep.Map":                       true,
}

// sourceFile is one parsed non-test file with its import table.
type sourceFile struct {
	pkg     string            // import path
	file    *ast.File         // syntax
	imports map[string]string // local name -> import path
}

// TestNoUnusedInternalExports lists every exported function and method
// under internal/ that no non-test file of the module references: such an
// export is dead, or kept alive only by tests. A function is referenced by
// a qualified use from another package or a bare use inside its own. A
// method is referenced by any selector of its name, by belonging to a type
// reachable from the root package's API (its exported types, aliases and
// function signatures, through exported fields), by implementing a method
// of an interface reachable that way, or by satisfying a standard-library
// interface.
func TestNoUnusedInternalExports(t *testing.T) {
	files := parseModule(t)

	qualified := map[string]bool{} // "pkg.Name" used from another package
	bare := map[string]bool{}      // "pkg.Name" used unqualified in pkg
	selected := map[string]bool{}  // every selector name
	types := map[string]*ast.TypeSpec{}
	typeFile := map[string]sourceFile{}
	for _, sf := range files {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use; visit the rest.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && sf.imports[x.Name] != "" {
					qualified[sf.imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.TypeSpec:
				types[sf.pkg+"."+n.Name.Name] = n
				typeFile[sf.pkg+"."+n.Name.Name] = sf
			case *ast.Ident:
				bare[sf.pkg+"."+n.Name] = true
			}
			return true
		}
		for _, decl := range sf.file.Decls {
			ast.Inspect(decl, visit)
		}
	}

	// Types reachable from the root package's API, and the method names of
	// reachable interfaces.
	reachable := map[string]bool{}
	ifaceMethods := map[string]bool{}
	var walk func(sf sourceFile, e ast.Expr)
	mark := func(key string) {
		spec, ok := types[key]
		if !ok || reachable[key] {
			return
		}
		reachable[key] = true
		sf := typeFile[key]
		switch tt := spec.Type.(type) {
		case *ast.StructType:
			for _, f := range tt.Fields.List {
				if len(f.Names) == 0 || f.Names[0].IsExported() {
					walk(sf, f.Type)
				}
			}
		case *ast.InterfaceType:
			for _, m := range tt.Methods.List {
				for _, name := range m.Names {
					ifaceMethods[name.Name] = true
				}
				if len(m.Names) == 0 {
					walk(sf, m.Type)
				}
			}
		default:
			walk(sf, spec.Type)
		}
	}
	walk = func(sf sourceFile, e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && sf.imports[x.Name] != "" {
					mark(sf.imports[x.Name] + "." + n.Sel.Name)
				}
				return false
			case *ast.Ident:
				mark(sf.pkg + "." + n.Name)
			}
			return true
		})
	}
	for _, sf := range files {
		if sf.pkg != modulePath {
			continue
		}
		for _, decl := range sf.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					walk(sf, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						mark(sf.pkg + "." + ts.Name.Name)
					}
				}
			}
		}
	}

	unused := map[string]bool{}
	for _, sf := range files {
		if !strings.HasPrefix(sf.pkg, modulePath+"/internal/") {
			continue
		}
		for _, decl := range sf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := strings.TrimPrefix(sf.pkg, modulePath+"/") + "."
			name := fn.Name.Name
			if fn.Recv == nil {
				if !qualified[sf.pkg+"."+name] && !bare[sf.pkg+"."+name] {
					unused[key+name] = true
				}
				continue
			}
			recv := receiverType(fn.Recv.List[0].Type)
			if !selected[name] && !reachable[sf.pkg+"."+recv] && !ifaceMethods[name] && !interfaceMethods[name] {
				unused[key+"("+recv+")."+name] = true
			}
		}
	}
	for _, u := range sortedKeys(unused) {
		if !knownUnused[u] {
			t.Errorf("exported but referenced by no non-test file: %s", u)
		}
	}
	for _, k := range sortedKeys(knownUnused) {
		if !unused[k] {
			t.Errorf("%s is no longer an unused export: drop it from knownUnused", k)
		}
	}
}

// parseModule parses every non-test Go file of the module rooted at the
// working directory, skipping nested modules, hidden directories and
// testdata.
func parseModule(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []sourceFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a module of its own
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
		sf := sourceFile{pkg: modulePath, file: f, imports: map[string]string{}}
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			sf.pkg += "/" + dir
		}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			sf.imports[name] = ip
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
