package heax

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerless lists the exported package-level functions under internal/
// that may stand with no caller. The noise and precision measurements are
// kept for the precision contract of ROADMAP.md ("Precision as a compiler
// contract"), whose gate is to call them.
var callerless = map[string]bool{
	"internal/ckks.Precision":    true,
	"internal/ckks.MeasureNoise": true,
}

// TestInternalFunctionsHaveCallers keeps product code that only tests
// reach out of the product: every exported package-level function under
// internal/ must be referenced by the module's non-test Go somewhere
// other than its own declaration. benchmark/, cmd/ and examples/ count as
// callers; tools/ is a module of its own and does not. Methods are out of
// scope: heax and heax/arch alias internal types, so a method's callers
// may be outside the module. A test oracle belongs in its package's
// _test.go files, and code nothing calls belongs nowhere.
func TestInternalFunctionsHaveCallers(t *testing.T) {
	const module = "heax"
	pkgs := map[string][]*ast.File{} // by import path
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (base == "tools" || base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		pkgs[ip] = append(pkgs[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The candidates, and the identifiers that declare them.
	used := map[string]bool{} // "importpath.Name" → referenced
	decl := map[*ast.Ident]bool{}
	for ip, files := range pkgs {
		if !strings.HasPrefix(ip, module+"/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					used[ip+"."+fd.Name.Name] = false
					decl[fd.Name] = true
				}
			}
		}
	}

	// A reference is a bare identifier in the declaring package, or a
	// selector on the package's import name anywhere else (every package
	// the module imports is named after its directory).
	for ip, files := range pkgs {
		for _, f := range files {
			imports := map[string]string{} // local name → import path
			for _, is := range f.Imports {
				p := strings.Trim(is.Path.Value, `"`)
				name := path.Base(p)
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = p
			}
			for _, d := range f.Decls {
				// A function's own body does not count as its caller.
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					self = ip + "." + fd.Name.Name
				}
				mark := func(key string) {
					if _, ok := used[key]; ok && key != self {
						used[key] = true
					}
				}
				var visit func(ast.Node) bool
				visit = func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							if p, ok := imports[x.Name]; ok {
								mark(p + "." + n.Sel.Name)
							}
						}
						ast.Inspect(n.X, visit) // not n.Sel: a field or method
						return false
					case *ast.Ident:
						if !decl[n] {
							mark(ip + "." + n.Name)
						}
					}
					return true
				}
				ast.Inspect(d, visit)
			}
		}
	}

	var missing []string
	for key, ok := range used {
		short := strings.TrimPrefix(key, module+"/")
		if !ok && !callerless[short] {
			missing = append(missing, short)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside tests: call it, move it into its package's _test.go files, or delete it", m)
	}
	for name := range callerless {
		if _, ok := used[module+"/"+name]; !ok {
			t.Errorf("callerless names %s, which is not an exported function under internal/", name)
		}
	}
}
