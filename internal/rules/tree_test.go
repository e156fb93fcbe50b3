package rules

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// A tree is the module as the rules read it: every text file the root
// .gitignore does not leave out, by slash-separated path from the root,
// and every .go file among them parsed, whatever its build tags.
type tree struct {
	text  map[string]string
	hits  map[string][]string // the text rules a file has a line of, by its path
	files []*goFile
}

// A goFile is what the rules need of one Go file.
type goFile struct {
	path  string
	test  bool     // a _test.go file
	uses  []use    // in source order
	tests []string // its Test and Fuzz functions
	// exported are its exported top-level funcs, consts and vars.
	exported []string
}

// A use is one thing a Go file does that a rule can refuse. Its key says
// what, in one form per kind:
//
//	import encoding/xml                        an import, by path, whatever it is named
//	net/url.Values                             a package-qualified name, by import path
//	.Clone()                                   a call of a method (or a func field) by name
//	make([]starlink/internal/message.Field)    a make or new, by its type
//	starlink/internal/network.Semantics{}      a composite literal, by its type
//	Transport:                                 a key of a composite literal
//	"_giop_id"                                 a string literal, quoted
//	func exec                                  a function or method declared
//	fieldToValue                               any other identifier
//
// Comments are no part of the syntax tree, so nothing in one is a use.
type use struct {
	key  string
	line int
	fn   string   // the top-level function or method it is in, "" for none
	node ast.Node // the call, for a call; else the node the key names
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

// moduleTree reads the module the test runs in, once.
func moduleTree(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = readTree() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func readTree() (*tree, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod above the test's directory")
		}
		root = parent
	}
	ignore, err := os.ReadFile(filepath.Join(root, ".gitignore"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	patterns := strings.Split(string(ignore), "\n")
	tr := &tree{text: map[string]string{}, hits: map[string][]string{}}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.Name() == ".git" || rel != "." && ignored(patterns, rel, d.IsDir()) {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.IsDir() || !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		// Like git grep, pass over a file with a NUL byte near its start.
		if bytes.IndexByte(data[:min(len(data), 8000)], 0) >= 0 {
			return nil
		}
		return tr.put(rel, string(data))
	})
	return tr, err
}

// ignored reports whether one of the root .gitignore's patterns leaves a
// path out: one with a slash but a trailing one is matched against the
// path from the root, one without against the last name of the path.
func ignored(patterns []string, rel string, dir bool) bool {
	for _, p := range patterns {
		if p = strings.TrimSpace(p); p == "" || strings.HasPrefix(p, "#") {
			continue
		}
		p, dirOnly := strings.CutSuffix(p, "/")
		if dirOnly && !dir {
			continue
		}
		subject := path.Base(rel)
		if strings.Contains(p, "/") {
			p, subject = strings.TrimPrefix(p, "/"), rel
		}
		if ok, _ := path.Match(p, subject); ok {
			return true
		}
	}
	return false
}

// put adds a file to the tree, or replaces it, parsing it if it is Go.
// What the text rules match in it is found here, once a file, for
// regular expressions over the whole tree are most of a check's time.
func (tr *tree) put(rel, src string) error {
	tr.text[rel] = src
	tr.hits[rel] = nil
	for _, r := range table {
		for _, re := range r.text {
			if re.MatchString(src) {
				tr.hits[rel] = append(tr.hits[rel], r.name)
				break
			}
		}
	}
	if !strings.HasSuffix(rel, ".go") {
		return nil
	}
	f, err := parseGo(rel, src)
	if err != nil {
		return err
	}
	for i, g := range tr.files {
		if g.path == rel {
			tr.files[i] = f
			return nil
		}
	}
	tr.files = append(tr.files, f)
	return nil
}

// with returns a copy of the tree whose file rel is edit of what the tree
// holds there ("" if nothing).
func (tr *tree) with(rel string, edit func(string) string) (*tree, error) {
	cp := &tree{text: maps.Clone(tr.text), hits: maps.Clone(tr.hits), files: slices.Clone(tr.files)}
	return cp, cp.put(rel, edit(tr.text[rel]))
}

var majorVersion = regexp.MustCompile(`^v[0-9]+$`)

// walker collects the uses of one file.
type walker struct {
	fset  *token.FileSet
	f     *goFile
	fn    string
	pkgs  map[string]string          // import path by the name the file gives it
	calls map[ast.Expr]*ast.CallExpr // a call by its callee
}

func parseGo(rel, src string) (*goFile, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, rel, src, 0)
	if err != nil {
		return nil, err
	}
	f := &goFile{path: rel, test: strings.HasSuffix(rel, "_test.go")}
	w := &walker{fset: fset, f: f, pkgs: map[string]string{}, calls: map[ast.Expr]*ast.CallExpr{}}
	for _, imp := range file.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if majorVersion.MatchString(name) && strings.Contains(p, "/") {
			name = path.Base(path.Dir(p)) // math/rand/v2 is rand
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		w.pkgs[name] = p
		w.add("import "+p, imp)
	}
	for _, d := range file.Decls {
		w.fn = ""
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, s := range d.Specs {
				if v, ok := s.(*ast.ValueSpec); ok && !f.test {
					for _, n := range v.Names {
						if n.IsExported() {
							f.exported = append(f.exported, n.Name)
						}
					}
				}
			}
		case *ast.FuncDecl:
			w.fn = d.Name.Name
			w.add("func "+d.Name.Name, d)
			switch {
			case d.Recv != nil:
			case f.test && isTestName(d.Name.Name):
				f.tests = append(f.tests, d.Name.Name)
			case !f.test && d.Name.IsExported():
				f.exported = append(f.exported, d.Name.Name)
			}
		}
		ast.Inspect(d, w.visit)
	}
	return f, nil
}

// isTestName reports whether go test runs a function of this name: Test
// or Fuzz, then nothing or a character that is not a lower-case letter.
func isTestName(name string) bool {
	for _, prefix := range []string{"Test", "Fuzz"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok && name != "TestMain" {
			return rest == "" || !('a' <= rest[0] && rest[0] <= 'z')
		}
	}
	return false
}

func (w *walker) add(key string, n ast.Node) {
	w.f.uses = append(w.f.uses, use{key: key, line: w.fset.Position(n.Pos()).Line, fn: w.fn, node: n})
}

// pkg is the import path x names, if x is a package name of the file.
// An identifier the parser resolved is a local declaration, which may
// shadow an import.
func (w *walker) pkg(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok && id.Obj == nil {
		return w.pkgs[id.Name]
	}
	return ""
}

func (w *walker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		w.calls[n.Fun] = n
		if id, ok := n.Fun.(*ast.Ident); ok && id.Obj == nil && (id.Name == "make" || id.Name == "new") && len(n.Args) > 0 {
			w.add(id.Name+"("+w.typeName(n.Args[0])+")", n)
		}
	case *ast.SelectorExpr:
		call, isCall := w.calls[n]
		var at ast.Node = n
		if isCall {
			at = call
		}
		if p := w.pkg(n.X); p != "" {
			w.add(p+"."+n.Sel.Name, at)
			return false
		}
		if isCall {
			w.add("."+n.Sel.Name+"()", call)
		}
	case *ast.CompositeLit:
		if n.Type != nil {
			w.add(w.typeName(n.Type)+"{}", n)
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if k, ok := kv.Key.(*ast.Ident); ok {
					w.add(k.Name+":", kv)
				}
			}
		}
	case *ast.BasicLit:
		if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
			w.add(strconv.Quote(s), n)
		}
	case *ast.Ident:
		w.add(n.Name, n)
	}
	return true
}

// typeName writes a type expression with import paths for package names.
func (w *walker) typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if p := w.pkg(e.X); p != "" {
			return p + "." + e.Sel.Name
		}
		return w.typeName(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + w.typeName(e.X)
	case *ast.ArrayType:
		if e.Len == nil {
			return "[]" + w.typeName(e.Elt)
		}
		return "[N]" + w.typeName(e.Elt)
	case *ast.MapType:
		return "map[" + w.typeName(e.Key) + "]" + w.typeName(e.Value)
	}
	return "?"
}
