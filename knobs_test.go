package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// coneConfigs are the config structs of the service cone (coopd, its
// replica and clients, fleetd and fleetsim), by package directory.
var coneConfigs = []struct{ dir, typ string }{
	{"internal/ctrlplane", "ServerConfig"},
	{"internal/ctrlplane/persist", "Options"},
	{"internal/ctrlplane/replica", "Config"},
	{"internal/ctrlplane/client", "Config"},
	{"internal/fleet", "ServerConfig"},
	{"internal/fleet", "InventoryConfig"},
	{"internal/adapt", "Config"},
	{"internal/roofline", "Options"},
	{"internal/fleetsim", "EngineConfig"},
}

// knobExceptions are the cone config fields that stay fields although
// no program sets them, each with its reason. A bare field name covers
// that field in every cone struct; "pkg.Type.Field" covers one.
var knobExceptions = map[string]string{
	"Clock":      "seam: tests pin the time source",
	"Transport":  "seam: fault injection hooks the peer transport",
	"HTTPClient": "seam: tests and benchmarks supply the HTTP transport",
	"NewClient":  "seam: tests inject fault-injecting member clients",
	"Logf":       "seam: the caller's log sink",

	"client.Config.BaseBackoff": "the chaos suites' retry timing depends on it",
	"client.Config.MaxBackoff":  "the chaos suites' retry timing depends on it",

	"roofline.Options.NoBaseline": "ablation: the reference model variant tests compare against",
	"roofline.Options.LocalFirst": "ablation: the reference model variant tests compare against",
}

// TestConfigKnobsHaveSetters holds the cone's config surface to the
// fields some program sets: a field nothing outside its own package
// sets in non-test code under internal/, cmd/ or bench/ has one value
// in use and belongs in a constant. A setter is a keyed composite
// literal of the struct's type, or an assignment to, an increment of or
// the address (a flag binding) of a selector naming the field in a file
// that imports the struct's package.
func TestConfigKnobsHaveSetters(t *testing.T) {
	type knob struct{ pkg, typ, field string }
	var knobs []knob
	fieldsOf := map[string]map[string]bool{} // "dir.Type" -> field names
	for _, c := range coneConfigs {
		fields := structFields(t, c.dir, c.typ)
		if len(fields) == 0 {
			t.Fatalf("%s: no struct type %s", c.dir, c.typ)
		}
		fieldsOf[c.dir+"."+c.typ] = map[string]bool{}
		for _, f := range fields {
			knobs = append(knobs, knob{c.dir, c.typ, f})
			fieldsOf[c.dir+"."+c.typ][f] = true
		}
	}

	set := map[knob]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
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
			dir := filepath.ToSlash(filepath.Dir(p))
			for _, c := range coneConfigs {
				if c.dir == dir {
					continue // a package's own defaults are not a second use
				}
				name, ok := importName(f, "repro/"+c.dir)
				if !ok {
					continue
				}
				fields := fieldsOf[c.dir+"."+c.typ]
				mark := func(field string) {
					if fields[field] {
						set[knob{c.dir, c.typ, field}] = true
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == c.typ && isIdent(sel.X, name) {
							for _, e := range n.Elts {
								if kv, ok := e.(*ast.KeyValueExpr); ok {
									if k, ok := kv.Key.(*ast.Ident); ok {
										mark(k.Name)
									}
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								mark(sel.Sel.Name)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := n.X.(*ast.SelectorExpr); ok {
							mark(sel.Sel.Name)
						}
					case *ast.UnaryExpr:
						if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
							mark(sel.Sel.Name)
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
	}

	used := map[string]bool{}
	var unset []string
	for _, k := range knobs {
		qualified := path.Base(k.pkg) + "." + k.typ + "." + k.field
		for _, key := range []string{k.field, qualified} {
			if _, ok := knobExceptions[key]; ok {
				used[key] = true
			}
		}
		_, bare := knobExceptions[k.field]
		_, one := knobExceptions[qualified]
		if !set[k] && !bare && !one {
			unset = append(unset, qualified)
		}
	}
	for key := range knobExceptions {
		if !used[key] {
			t.Errorf("exception %q names no field of a cone config struct", key)
		}
	}
	sort.Strings(unset)
	for _, q := range unset {
		t.Errorf("%s: no program sets it; make it a constant at its default or add it to knobExceptions with a reason", q)
	}
	t.Logf("%d settable fields in %d cone config structs", len(knobs), len(coneConfigs))
}

// structFields returns the field names of struct type typ declared in
// the non-test Go files of dir.
func structFields(t *testing.T, dir, typ string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != typ {
					continue
				}
				var names []string
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						names = append(names, n.Name)
					}
				}
				return names
			}
		}
	}
	return nil
}

// importName returns the name f refers to the package at importPath by.
func importName(f *ast.File, importPath string) (string, bool) {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
			if imp.Name != nil {
				return imp.Name.Name, true
			}
			return path.Base(p), true
		}
	}
	return "", false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
