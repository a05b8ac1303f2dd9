// legato-lint is a zero-dependency linter for the repository, with five
// passes:
//
//   - errcheck-style: flags bare expression-statement calls whose callee
//     is defined in the scanned package and returns an error as its last
//     result. On those paths a dropped error is a dropped fault — a
//     crash, a failed checkpoint, or an admission bug silently swallowed.
//   - determinism: flags any reference to time.Now or time.Since.
//     Fleet-time code must read the virtual clock (sim.Engine.Now); a
//     wall-clock read would make schedules, fault timelines and the
//     straggler watchdog non-reproducible per seed.
//   - operator output: flags fmt.Print* and log.Print*/Fatal*/Panic* in
//     the runtime packages. Runtime telemetry must flow through the
//     event bus and metric registry (internal/obs, internal/monitor) so
//     it stays observable, testable and silent by default; printing to
//     stdout/stderr from library code is a debugging leftover.
//   - map order: flags every range over a map-typed expression in the
//     fleet-time packages (internal/taskrt, internal/engine,
//     internal/power, internal/faults, internal/sim) and in the pure
//     model they read (internal/hw, the fleet every concurrent job shares,
//     and internal/energy, whose report sums reported numbers). Go
//     randomises map iteration order, so a decision taken while ranging a
//     map (a governor tie-break, the order grants are claimed or events
//     emitted) or a float sum taken that way differs run to run at the
//     same seed. Iterate a slice instead, or sorted keys. This pass
//     type-checks the package from source.
//   - test-only API: flags every exported package-level func, method,
//     const, var and type declared under internal/ that no non-test file
//     of the repository refers to (the bench/ module included). A method
//     also counts as used when its receiver type implements an interface
//     that has it. Such a name is code that only its tests keep alive:
//     delete it with those tests, give it a real caller, or add it to
//     allowlist with the reason it stays. This pass type-checks every
//     package of the repository from source as one program.
//
// The build fails on any finding.
//
// Usage:
//
//	legato-lint [package-dir ...]
//
// With no arguments it runs the first four passes over every package
// under internal/ (the map-order pass only on the fleet-time packages
// above) and the test-only-API pass over the whole repository. With
// arguments it runs the first four passes over the named directories.
// Test files are skipped; an ignored error in a test is an assertion
// choice, not a recovery bug, and tests may legitimately time out on the
// wall clock.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// fset positions every parsed file; sources imports packages from source
// for the map-order pass, caching each across directories.
var (
	fset    = token.NewFileSet()
	sources = importer.ForCompiler(fset, "source", nil)
)

// fleetTimeDirs are the packages the map-order pass checks: the code that
// decides what happens on the fleet clock, and the model it reads.
var fleetTimeDirs = map[string]bool{
	"internal/taskrt": true, "internal/engine": true, "internal/power": true,
	"internal/faults": true, "internal/sim": true,
	"internal/hw": true, "internal/energy": true,
}

// finding is one lint violation.
type finding struct {
	pos token.Position
	msg string
}

func main() {
	dirs := os.Args[1:]
	whole := len(dirs) == 0
	if whole {
		var err error
		if dirs, err = packageDirs("internal"); err != nil {
			fmt.Fprintf(os.Stderr, "legato-lint: %v\n", err)
			os.Exit(2)
		}
	}
	var findings []finding
	for _, dir := range dirs {
		fs, err := lintDir(dir, fleetTimeDirs[filepath.ToSlash(filepath.Clean(dir))])
		if err != nil {
			fmt.Fprintf(os.Stderr, "legato-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if whole {
		fs, err := testOnlyAPI(".", "legato", allowlist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "legato-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "legato-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// packageDirs returns every directory under root that holds a non-test Go
// file, skipping testdata and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if isSource(name) {
			if dir := filepath.Dir(path); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// isSource reports whether a file name is a non-test Go file.
func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseDir parses every non-test Go file of one package directory.
func parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// lintDir parses every non-test file of one package directory and returns
// its findings; mapOrder adds the map-order pass.
func lintDir(dir string, mapOrder bool) ([]finding, error) {
	files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}

	// Pass 1: names of package-local functions and methods whose last
	// result is `error`. Without full type-checking this is a name-based
	// set; plain function calls resolve precisely, and method selectors
	// are matched by name *and* arity so foreign same-named methods with a
	// different signature (sync.WaitGroup.Wait vs Job.Wait) don't trip it.
	funcs := map[string]bool{}
	methods := map[string][]arity{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !returnsErrorLast(fd.Type) {
				continue
			}
			if fd.Recv != nil {
				methods[fd.Name.Name] = append(methods[fd.Name.Name], arityOf(fd.Type))
			} else {
				funcs[fd.Name.Name] = true
			}
		}
	}

	// Pass 2: bare ExprStmt calls resolving into that set.
	var findings []finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if funcs[fn.Name] {
					findings = append(findings, finding{fset.Position(call.Pos()),
						fmt.Sprintf("error result of %s ignored", fn.Name)})
				}
			case *ast.SelectorExpr:
				for _, a := range methods[fn.Sel.Name] {
					if a.accepts(len(call.Args)) {
						findings = append(findings, finding{fset.Position(call.Pos()),
							fmt.Sprintf("error result of %s ignored", fn.Sel.Name)})
						break
					}
				}
			}
			return true
		})
	}

	// Pass 3 (determinism): no wall-clock reads. Any selector time.Now or
	// time.Since — called or merely referenced — is a finding: fleet-time
	// code must derive every timestamp from the virtual clock, or schedules
	// and fault timelines stop being reproducible per seed. Name-based like
	// pass 2: these packages never alias another import as `time`.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "time" {
				return true
			}
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				findings = append(findings, finding{fset.Position(sel.Pos()),
					fmt.Sprintf("wall-clock time.%s in fleet-time code (use the virtual clock)", sel.Sel.Name)})
			}
			return true
		})
	}
	// Pass 4 (operator output): runtime packages must not print. fmt.Print*
	// writes to stdout and log.Print*/Fatal*/Panic* to stderr — both bypass
	// the event bus and metric registry, the only sanctioned telemetry
	// channels for library code. fmt.Fprintf and friends stay legal: they
	// target a caller-chosen writer (string builders, exporters).
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case pkg.Name == "fmt" && strings.HasPrefix(name, "Print"):
			case pkg.Name == "log" && (strings.HasPrefix(name, "Print") ||
				strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")):
			default:
				return true
			}
			findings = append(findings, finding{fset.Position(sel.Pos()),
				fmt.Sprintf("%s.%s in runtime code (publish on the event bus or metric registry instead)", pkg.Name, name)})
			return true
		})
	}
	if mapOrder {
		fs, err := mapRanges(dir, files)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}

// mapRanges is the map-order pass: it type-checks the package, importing
// its dependencies from source, and flags every range statement whose
// operand has a map type.
func mapRanges(dir string, files []*ast.File) ([]finding, error) {
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: sources}
	if _, err := conf.Check(dir, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", dir, err)
	}
	var findings []finding
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, ok := info.Types[rs.X].Type.Underlying().(*types.Map); ok {
				findings = append(findings, finding{fset.Position(rs.Pos()),
					"range over a map in fleet-time code visits keys in random order (iterate a slice, or sorted keys)"})
			}
			return true
		})
	}
	return findings, nil
}

// arity is a callable's parameter count signature.
type arity struct {
	params   int
	variadic bool
}

// accepts reports whether a call with n arguments could bind this arity.
func (a arity) accepts(n int) bool {
	if a.variadic {
		return n >= a.params-1
	}
	return n == a.params
}

// arityOf extracts the parameter arity from a function type.
func arityOf(ft *ast.FuncType) arity {
	var a arity
	if ft.Params == nil {
		return a
	}
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		a.params += n
		if _, ok := field.Type.(*ast.Ellipsis); ok {
			a.variadic = true
		}
	}
	return a
}

// returnsErrorLast reports whether the function type's last result is the
// identifier `error`.
func returnsErrorLast(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1]
	id, ok := last.Type.(*ast.Ident)
	return ok && id.Name == "error"
}
