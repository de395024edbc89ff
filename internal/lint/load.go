package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// A Package is one loaded, parsed, type-checked package.
type Package struct {
	Path     string
	Name     string
	Dir      string
	Standard bool
	// DepOnly marks packages pulled in only as dependencies of the
	// requested patterns; analyzers run over non-DepOnly packages.
	DepOnly bool
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// A Universe is the full dependency closure of one load: every package —
// including the standard library — parsed and type-checked from source, so
// analyzers see complete type information without any export-data reader.
type Universe struct {
	Fset *token.FileSet
	// Targets are the packages matched by the load patterns, in
	// dependency order.
	Targets []*Package

	all map[string]*Package
}

// Import implements types.Importer.
func (u *Universe) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom over the loaded universe. The
// standard library vendors golang.org/x packages under the "vendor/"
// prefix while source files import them by their canonical path, so a
// failed lookup retries with the prefix.
func (u *Universe) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	for _, p := range []string{path, "vendor/" + path} {
		if pkg, ok := u.all[p]; ok && pkg.Types != nil {
			return pkg.Types, nil
		}
	}
	return nil, fmt.Errorf("package %q not in loaded universe", path)
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load builds the universe for the module rooted at dir: `go list -deps`
// enumerates the patterns' full dependency closure in dependency order, and
// each package is parsed and type-checked from source. Type errors in
// target (non-DepOnly) packages fail the load; errors inside the standard
// library are tolerated, as dependency-only packages are checked without
// function bodies.
func Load(dir string, patterns ...string) (*Universe, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-deps", "-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Without cgo the net and os/user packages list their pure-Go
	// fallbacks, which typecheck from source like everything else.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	u := &Universe{Fset: token.NewFileSet(), all: map[string]*Package{}}
	var order []*Package
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var m listedPackage
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if m.Error != nil && !m.DepOnly {
			return nil, fmt.Errorf("load %s: %s", m.ImportPath, m.Error.Err)
		}
		pkg := &Package{
			Path:     m.ImportPath,
			Name:     m.Name,
			Dir:      m.Dir,
			Standard: m.Standard,
			DepOnly:  m.DepOnly,
		}
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(u.Fset, filepath.Join(m.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", filepath.Join(m.Dir, name), err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		u.all[pkg.Path] = pkg
		order = append(order, pkg)
	}

	for _, pkg := range order {
		if err := u.check(pkg); err != nil && !pkg.Standard {
			return nil, fmt.Errorf("typecheck %s: %w", pkg.Path, err)
		}
		if !pkg.DepOnly {
			u.Targets = append(u.Targets, pkg)
		}
	}
	return u, nil
}

// check type-checks one package in place against the universe loaded so
// far. `go list -deps` emits dependencies before dependents, so every
// import is already resolved when its importer is checked.
func (u *Universe) check(pkg *Package) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{
		Importer: u,
		// Dependency-only stdlib packages only contribute their API;
		// skipping their bodies roughly halves full-universe check time.
		IgnoreFuncBodies: pkg.Standard && pkg.DepOnly,
		FakeImportC:      true,
		Error:            func(error) {}, // collect all, report first via Check's return
	}
	tpkg, err := cfg.Check(pkg.Path, u.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg // possibly incomplete on error; importers still need it
	return err
}

// CheckDir parses and type-checks the .go files of a single directory as a
// package with import path asPath, resolving its imports against the
// universe. This is the fixture loader: analyzer testdata lives in
// directories the go tool ignores, and is checked under the real import
// path whose contract the fixture exercises.
func (u *Universe) CheckDir(dir, asPath string) (*Package, error) {
	files, err := u.parseDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: asPath, Name: files[0].Name.Name, Dir: dir, Files: files}
	if err := u.check(pkg); err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %w", dir, err)
	}
	return pkg, nil
}

// TypeErrors type-checks the .go files of dir together with with (the
// sources of a package the fixture joins, or nothing) as a package with
// import path asPath, and returns the fixture's parsed files and every type
// error. A contract a type carries is tested this way: a fixture that
// breaks it must not compile.
func (u *Universe) TypeErrors(dir, asPath string, with ...*ast.File) ([]*ast.File, []types.Error, error) {
	files, err := u.parseDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var errs []types.Error
	cfg := types.Config{Importer: u, Error: func(err error) {
		if terr, ok := err.(types.Error); ok {
			errs = append(errs, terr)
		}
	}}
	if _, err := cfg.Check(asPath, u.Fset, append(slices.Clone(with), files...), nil); err != nil && len(errs) == 0 {
		return nil, nil, err
	}
	return files, errs, nil
}

// parseDir parses the .go files of one directory, in name order.
func (u *Universe) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(u.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}

// ModuleRoot walks up from dir to the enclosing go.mod, the directory Load
// should run in.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod at or above %s", dir)
		}
		dir = parent
	}
}
