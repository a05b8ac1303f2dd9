package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist holds the exported names under internal/ that the test-only-API
// pass accepts without a non-test caller, each with the reason it stays.
// Keys are qualified as the pass prints them: the package directory, then
// the receiver type for a method, then the name.
var allowlist = map[string]string{
	"internal/heat2d.Reference":     "the serial solver the distributed heat2d runs are checked against",
	"internal/nn.MLP.Predict":       "the float model the int8 quantisation is checked against",
	"internal/power.Ledger.InUse":   "the stranded-capacity witness: engine and taskrt tests check every device is back to 0 granted cores",
	"internal/rs.Code.Verify":       "the parity-consistency check every rs encode and reconstruction test asserts",
	"internal/energy.Report.Get":    "the one per-component read of the energy report that legato's JobReport exposes",
	"internal/monitor.Registry.Get": "the point read of one metric that TestRegistryReplay, the root API tests and the engine fold tests assert",
	"internal/gpu.HostAlloc":        "the only producer of host buffers (Listing 1's host class), which fti's host-snapshot branch checkpoints",
	"internal/gpu.Device.Malloc":    "the only producer of device buffers (Listing 1's cudaMalloc class), which fti's explicit-DMA branch checkpoints",
	// Pending deletion: each goes with the tests named, which test only it.
	"internal/gpu.Device.Free":           "pending deletion with TestFreeWrongDevicePanics",
	"internal/mpi.Rank.Sendrecv":         "pending deletion with TestSendrecvRing",
	"internal/mpi.Rank.Allreduce":        "pending deletion with TestAllreduce and TestAllreduceMax",
	"internal/mpi.Rank.Gather":           "pending deletion with TestGather",
	"internal/mpi.Rank.Bcast":            "pending deletion with TestBcast",
	"internal/ft.RootCause":              "pending deletion with TestRootCauseFindsOrigin and TestRootCauseMultipleOrigins",
	"internal/fpga.Board.SetTemperature": "pending deletion with the temperature model and the four tests of temp_test.go",
	"internal/fpga.Board.Reconfigure":    "pending deletion with TestReconfigureRestoresFaultMaskAtLowVoltage",
	"internal/hw.MaxelerDFE":             "pending deletion with TestDFEOnPCIeExpansionCarrier and TestDFEStreamEfficiency",
	"internal/plot.Bars":                 "pending deletion with TestBars and TestBarsZeroMax",
}

// importFunc adapts a function to types.Importer.
type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// testOnlyAPI is the test-only-API pass over the module tree at root, whose
// module path is module. It type-checks every non-test package of the tree
// from source as one program, so an object has one identity wherever it is
// named, and reports each exported package-level name and method declared
// under internal/ that none of them refers to. A receiver's own type name
// is not a reference; a function is referenced when any instantiation of
// it is; a method also counts as referenced when its receiver type
// implements an interface, of the tree or of a package it imports, that has
// the method. Allowed names are not reported; an allowlist entry that names
// nothing unreferenced is.
func testOnlyAPI(root, module string, allow map[string]string) ([]finding, error) {
	used := map[types.Object]bool{}
	var pkgs []*types.Package
	loaded := map[string]*types.Package{}
	var load importFunc
	load = func(importPath string) (*types.Package, error) {
		if pkg, ok := loaded[importPath]; ok {
			return pkg, nil
		}
		rel, ok := strings.CutPrefix(importPath, module)
		if !ok || rel != "" && rel[0] != '/' {
			return sources.Import(importPath)
		}
		dir := filepath.Join(root, filepath.FromSlash(rel))
		files, err := parseDir(dir)
		if err != nil {
			return nil, err
		}
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := (&types.Config{Importer: load}).Check(importPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", dir, err)
		}
		receivers := map[*ast.Ident]bool{}
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range info.Uses {
			if receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		loaded[importPath] = pkg
		pkgs = append(pkgs, pkg)
		return pkg, nil
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if _, err := load(path.Join(module, filepath.ToSlash(rel))); err != nil {
			return nil, err
		}
	}

	ifaces := interfaces(pkgs)
	var findings []finding
	listed := map[string]bool{}
	report := func(obj types.Object, qual string) {
		if _, ok := allow[qual]; ok {
			listed[qual] = true
			return
		}
		findings = append(findings, finding{fset.Position(obj.Pos()),
			qual + " is referenced only from tests (delete it, give it a caller, or allowlist it with a reason)"})
	}
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(pkg.Path(), module+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, rel+"."+name)
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
				continue // not a defined type, or an alias of one
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] && !satisfies(named, m.Name(), ifaces) {
					report(m, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	var stale []string
	for qual := range allow {
		if !listed[qual] {
			stale = append(stale, qual)
		}
	}
	sort.Strings(stale)
	for _, qual := range stale {
		findings = append(findings, finding{token.Position{Filename: "allowlist"},
			qual + " names nothing referenced only from tests (drop the entry)"})
	}
	return findings, nil
}

// interfaces returns error and every non-generic named interface declared
// in pkgs or in a package they import, directly or not.
func interfaces(pkgs []*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if named, ok := pkg.Scope().Lookup(name).Type().(*types.Named); ok && named.TypeParams() == nil {
				if it, ok := named.Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg)
	}
	return out
}

// satisfies reports whether T or *T implements one of ifaces that has the
// method name.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	if t.TypeParams() != nil {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
