// Command deadcode lists the functions declared under internal/ that no
// program of the module links, and the settings fields no program sets.
//
// It builds every program with inlining off (-gcflags=all=-l): each
// main package of the root module, the bench/ binary and the bench/
// test binary. It reads their adainf/internal/... text symbols with
// go tool nm, strips generic instantiations ("[...]"), and compares
// that set with the functions and methods declared in non-test source
// under internal/ (read with go/parser). A declared function missing
// from every binary is unreachable: it is printed with its position
// and the command exits 1, unless the allowlist below names it with a
// reason. An allowlist entry that names a reachable or undeclared
// function is reported too, so the list cannot go stale.
//
// A second pass reports each settings field no program sets, unless
// its own allowlist names it with a reason (see settings).
//
// Run it from the module root:
//
//	go run ./scripts/deadcode
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "adainf"

// allow names the unreachable functions that stay, each with its
// reason. Keys are symbols without the "adainf/internal/" prefix; a
// key "pkg.*" covers every function of package pkg.
var allow = map[string]string{
	// Markers: serving finds them by type assertion and never calls them.
	"baselines.(*Ekya).SteadyStatePlanning": "sched.SteadyStatePlanner marker, found by type assertion",
	"core.(*Scheduler).SteadyStatePlanning": "sched.SteadyStatePlanner marker, found by type assertion",

	// Checkers.
	"sched.(*SessionPlan).Validate": "checker: tests validate every plan they build with it",
	"dist.(*Categorical).Sample":    "reference: tests check dist.SampleCDF's and synthdata.Recollect's class draws against it",

	// Observers: tests read live state through them.
	"app.(*NodeInstance).TrainedThisPeriod":    "app tests read the per-period retrain flag",
	"dist.(*Categorical).Probs":                "dist, dnn and synthdata tests read class probabilities",
	"gpu.(*Executor).Partition":                "gpu tests reach an executor's memory manager",
	"gpu.(*Partition).Fraction":                "gpu tests read a partition's compute share",
	"gpumem.(*Manager).Capacity":               "gpumem and gpu tests read memory capacity",
	"gpumem.(*Manager).GPUUsed":                "gpumem tests read resident GPU bytes",
	"gpumem.(*Manager).PinUsed":                "gpumem tests read PIN-memory bytes",
	"gpumem.(*Manager).Resident":               "gpumem and gpu tests read where a content lives",
	"gpumem.(*Manager).Stats":                  "gpumem tests compare communication counters",
	"synthdata.(*Stream).ClassMean":            "drift tests build drifted samples from class means",
	"synthdata.FromRows":                       "drift tests build pools with hand-placed features (ties, NaN, another length)",
	"synthdata.(*Stream).Period":               "app tests read that a boundary advanced every stream",
	"telemetry.(*Collector).CacheCorruptCount": "profile tests count evicted corrupt cache entries",
	"telemetry.(*Collector).CacheCounts":       "telemetry tests read profile-cache hits and misses",
	"telemetry.(*Collector).GPUBusyMs":         "telemetry tests read per-lane busy time",
	"telemetry.(*Histogram).Count":             "telemetry tests read observation counts",

	// Kept for the benchmark, which still measures the engine.
	"eventsim.*": "bench/ measures the discrete-event engine; deleted with the benchmark's next change",
}

func main() {
	dead, stale, err := run()
	if err == nil {
		var unset, staleSettings []string
		unset, staleSettings, err = settings()
		dead, stale = append(dead, unset...), append(stale, staleSettings...)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	for _, s := range stale {
		fmt.Println("stale allowlist entry:", s)
	}
	if len(dead) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d unreachable function(s) or unset setting(s), %d stale allowlist entr(ies)\n", len(dead), len(stale))
		os.Exit(1)
	}
}

// run returns the unreachable functions outside the allowlist, as
// "file:line: symbol", and the allowlist entries that no longer name
// an unreachable function.
func run() (dead, stale []string, err error) {
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	bins, err := buildPrograms(tmp)
	if err != nil {
		return nil, nil, err
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		if err := addSymbols(bin, linked); err != nil {
			return nil, nil, err
		}
	}
	decls, err := declared("internal")
	if err != nil {
		return nil, nil, err
	}

	used := map[string]bool{}
	for _, d := range decls {
		if d.reachable(linked) {
			continue
		}
		key := strings.TrimPrefix(d.sym, module+"/internal/")
		if _, ok := allow[key]; ok {
			used[key] = true
			continue
		}
		if _, ok := allow[d.pkg+".*"]; ok {
			used[d.pkg+".*"] = true
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", d.pos, key))
	}
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// buildPrograms links every program into dir with inlining off and
// returns the binaries' paths.
func buildPrograms(dir string) ([]string, error) {
	out, err := command("", "go", "list", "-f", `{{if and (eq .Name "main") .GoFiles}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(out)
	if len(mains) == 0 {
		return nil, fmt.Errorf("no main packages found; run from the module root")
	}
	progs := filepath.Join(dir, "progs") + string(filepath.Separator)
	if _, err := command("", "go", append([]string{"build", "-gcflags=all=-l", "-o", progs}, mains...)...); err != nil {
		return nil, err
	}
	benchBin := filepath.Join(dir, "bench")
	if _, err := command("bench", "go", "build", "-gcflags=all=-l", "-o", benchBin, "."); err != nil {
		return nil, err
	}
	benchTest := filepath.Join(dir, "bench.test")
	if _, err := command("bench", "go", "test", "-c", "-gcflags=all=-l", "-o", benchTest, "."); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(progs)
	if err != nil {
		return nil, err
	}
	bins := []string{benchBin, benchTest}
	for _, e := range entries {
		bins = append(bins, filepath.Join(progs, e.Name()))
	}
	if len(bins) != len(mains)+2 {
		return nil, fmt.Errorf("built %d binaries for %d main packages plus bench", len(bins), len(mains))
	}
	return bins, nil
}

// addSymbols adds bin's text symbols under internal/ to set, with
// generic instantiations stripped.
func addSymbols(bin string, set map[string]bool) error {
	out, err := command("", "go", "tool", "nm", bin)
	if err != nil {
		return err
	}
	prefix := module + "/internal/"
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := strings.Join(f[2:], " ")
		if strings.HasPrefix(name, prefix) {
			set[stripGeneric(name)] = true
		}
	}
	return nil
}

// stripGeneric removes every bracketed type-argument list from sym:
// "p.F[go.shape.int]" is "p.F" and "p.(*T[...]).M" is "p.(*T).M".
func stripGeneric(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type decl struct {
	pkg string // path under internal/, e.g. "gpumem"
	sym string // linker symbol, e.g. "adainf/internal/gpumem.(*Manager).GPUUsed"
	alt string // for a value-receiver method, its pointer wrapper
	pos token.Position
}

func (d decl) reachable(linked map[string]bool) bool {
	return linked[d.sym] || (d.alt != "" && linked[d.alt])
}

// declared parses the non-test Go files under root and returns every
// function and method they declare, except init functions.
func declared(root string) ([]decl, error) {
	fset := token.NewFileSet()
	var decls []decl
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		pkg = strings.TrimPrefix(pkg, root+"/")
		base := module + "/internal/" + pkg + "."
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			dc := decl{pkg: pkg, pos: fset.Position(fn.Pos())}
			if fn.Recv == nil {
				dc.sym = base + fn.Name.Name
			} else {
				typ, ptr := recvType(fn.Recv.List[0].Type)
				if ptr {
					dc.sym = base + "(*" + typ + ")." + fn.Name.Name
				} else {
					dc.sym = base + typ + "." + fn.Name.Name
					dc.alt = base + "(*" + typ + ")." + fn.Name.Name
				}
			}
			decls = append(decls, dc)
		}
		return nil
	})
	return decls, err
}

// recvType returns a receiver's type name without type parameters and
// whether it is a pointer.
func recvType(x ast.Expr) (name string, ptr bool) {
	if s, ok := x.(*ast.StarExpr); ok {
		x, ptr = s.X, true
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	return x.(*ast.Ident).Name, ptr
}

// command runs name with args in dir and returns its standard output;
// on failure the error carries standard error.
func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), nil
}
