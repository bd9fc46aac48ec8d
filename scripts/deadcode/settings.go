package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// allowSettings names the settings fields that no program sets but that
// stay, each with its reason. Keys are "pkg.Type.Field" without the
// "adainf/internal/" prefix; "pkg.Type.*" covers every field of Type.
var allowSettings = map[string]string{
	"profile.Config.BatchSizes": "tests build 1x2 and 2x2 profile grids",
	"profile.Config.Fractions":  "tests build 1x2 and 2x2 profile grids",
	"gpumem.Config.PinBytes":    "the bench/ layer benchmark sizes PIN memory in a test file",
	"faults.Config.*":           "faults.Parse fills it from the -faults spec",
}

// settingsSuffixes name the struct types whose exported fields are
// settings: a type's name ends in one of them.
var settingsSuffixes = []string{"Config", "Options", "Params", "Spec"}

// settings returns the settings fields no program sets and the stale
// settings allowlist entries. A settings field is an exported field of
// a struct type named *Config, *Options, *Params or *Spec under
// internal/. It is set when a non-test file of the root module or of
// bench/, outside the field's package, writes it: as a key of a
// composite literal (go vet rejects unkeyed literals of imported
// structs), on the left of an assignment or increment, or by taking its
// address. Fields are
// resolved with go/types over the packages' export data, so writes are
// found through import names, elided literal types and promoted
// selectors.
func settings() (unset, stale []string, err error) {
	var pkgs [][]string // path, export file, dep-only, dir, files
	export := map[string]string{}
	for _, dir := range []string{"", "bench"} {
		out, err := command(dir, "go", "list", "-deps", "-export",
			"-f", `{{.ImportPath}}	{{.Export}}	{{.DepOnly}}	{{.Dir}}	{{join .GoFiles " "}}`, "./...")
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			f := strings.Split(line, "\t")
			if _, ok := export[f[0]]; !ok {
				export[f[0]] = f[1]
			}
			if f[2] == "false" {
				pkgs = append(pkgs, f)
			}
		}
	}
	// One importer serves both modules, so a field is one *types.Var
	// wherever it is written. A package checked from source holds its
	// own copies of its fields, which leaves writes inside a field's
	// package out by construction.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	fields := map[types.Object]string{}
	for _, p := range pkgs {
		rel, ok := strings.CutPrefix(p[0], module+"/internal/")
		if !ok {
			continue
		}
		pkg, err := imp.Import(p[0])
		if err != nil {
			return nil, nil, err
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !slices.ContainsFunc(settingsSuffixes, func(suf string) bool { return strings.HasSuffix(name, suf) }) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = rel + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	set := map[string]bool{}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range strings.Fields(p[4]) {
			f, err := parser.ParseFile(fset, filepath.Join(p[3], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(p[0], fset, files, info); err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p[0], err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set[fields[info.Uses[id]]] = true
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						lhs = n.Lhs
					}
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs = []ast.Expr{n.X}
					}
				}
				for _, x := range lhs {
					if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
						set[fields[info.Uses[sel.Sel]]] = true
					}
				}
				return true
			})
		}
	}

	used := map[string]bool{}
	for _, key := range fields {
		wild := key[:strings.LastIndexByte(key, '.')] + ".*"
		switch {
		case set[key]:
		case allowSettings[key] != "":
			used[key] = true
		case allowSettings[wild] != "":
			used[wild] = true
		default:
			unset = append(unset, "setting set by no program: "+key)
		}
	}
	for key := range allowSettings {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unset)
	sort.Strings(stale)
	return unset, stale, nil
}
