package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	Path  string // import path ("vhadoop/internal/sim"), synthetic for testdata
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without external tooling:
// module-local import paths are resolved against the repository root,
// everything else falls through to the standard library's source
// importer. Loaded packages are cached, so shared dependencies are
// checked once.
type Loader struct {
	Fset     *token.FileSet
	RepoRoot string
	ModPath  string

	byDir   map[string]*Package
	loading map[string]bool
	stdlib  types.Importer
}

// NewLoader locates go.mod upward from dir (or the working directory if
// dir is empty) and returns a Loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		dir = wd
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		RepoRoot: root,
		ModPath:  modPath,
		byDir:    make(map[string]*Package),
		loading:  make(map[string]bool),
		stdlib:   importer.ForCompiler(fset, "source", nil),
	}, nil
}

func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		// A missing go.mod at this level just walks up; only exhausting
		// every parent is an error.
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found upward of %s", dir)
		}
		dir = parent
	}
}

// LoadDir parses and type-checks the package in dir. importPath may be
// empty, in which case it is derived from the directory's position
// under the repository root.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.byDir[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	if importPath == "" {
		importPath = l.importPathFor(abs)
	}
	bp, err := build.Default.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", abs, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   abs,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.byDir[abs] = pkg
	return pkg, nil
}

func (l *Loader) importPathFor(abs string) string {
	// An unrelatable path falls back to the absolute form, which is still
	// a usable synthetic import path.
	rel, err := filepath.Rel(l.RepoRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return abs
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// loaderImporter routes module-local imports to the Loader and
// everything else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(path, l.ModPath)
		rel = strings.TrimPrefix(rel, "/")
		pkg, err := l.LoadDir(filepath.Join(l.RepoRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

// Expand resolves command-line package patterns ("./...", "./internal/sim",
// a bare directory) into package directories, relative to base. Directories
// without buildable Go files, testdata trees, hidden directories and, as in
// go tooling, nested modules are skipped.
func Expand(base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		// A dir that cannot be made absolute is dropped from the expansion,
		// as go tooling does.
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(base, rest)
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || isModuleRoot(path)) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isModuleRoot(dir string) bool {
	// Stat failing means "no go.mod here", which is this predicate's false.
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func hasGoFiles(dir string) bool {
	// ImportDir failing means "no buildable Go files", which is this
	// predicate's false.
	_, err := build.Default.ImportDir(dir, 0)
	return err == nil
}
