// Package loader turns Go package patterns into type-checked
// analysis-ready packages using only the standard library: `go list
// -json` enumerates the packages, go/parser parses their non-test
// sources, and go/types checks them with the stdlib source importer
// (which resolves module-internal and standard-library imports from
// source). It exists because this repository vendors no dependencies
// and builds offline — golang.org/x/tools/go/packages is not
// available, so panda-lint carries its own minimal equivalent.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package: everything an
// analysis.Pass needs.
type Package struct {
	Path  string // import path ("go list" ImportPath, or the directory name for bare dirs)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader uses.
type listEntry struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Incomplete bool
	Error      *struct{ Err string }
}

// Load enumerates patterns with `go list` and type-checks every
// matched package from source. Test files are excluded (GoFiles only):
// the invariants the suite pins are production-code contracts, and
// tests legitimately use bare literals, time.Now and context.Background.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, e := range entries {
		if e.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", e.ImportPath, e.Error.Err)
		}
		if len(e.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(e.GoFiles))
		for i, f := range e.GoFiles {
			files[i] = filepath.Join(e.Dir, f)
		}
		pkg, err := check(fset, imp, e.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the .go files of one directory as a
// single package named after the directory — the linttest entry point
// for testdata packages, which live outside the module's package tree.
// Imports still resolve through the source importer, so testdata may
// import real module packages (the wire package, sync, net/http, ...).
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no .go files in %s", dir)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return check(fset, imp, filepath.Base(dir), files)
}

// check parses and type-checks one package's files.
func check(fset *token.FileSet, imp types.Importer, path string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		asts = append(asts, af)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: asts, Types: tpkg, Info: info}, nil
}
