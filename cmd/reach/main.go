// Command reach checks that every function declared in the module's
// internal/ packages is linked into at least one of its binaries.
//
// Usage (from the module root):
//
//	go run ./cmd/reach
//
// It builds every main package of the module, and of each module one
// directory down (perfbench), with inlining off and the linker's
// dependency dump on (-gcflags=all=-l -ldflags=-dumpdep). Inlining must be
// off, or a function whose every call was inlined looks unlinked. Each
// function declared outside _test.go files under internal/ maps to the
// exact symbol the linker gives it: pkg.F, pkg.T.M or pkg.(*T).M, with a
// generic instantiation's type arguments dropped. Closures (pkg.F.func1),
// method values (pkg.T.M-fm) and the aux data the linker shares between
// identical functions (pkg.F.arginfo1, pkg.F.stkobj) are other symbols
// and do not count as linking F.
//
// A function that no binary links fails the check unless allow.txt lists
// it with a reason naming a test that uses it. An allowlist entry that a
// binary links, or that names no declared function, fails it too, so
// the list cannot go stale. A build whose dump parses to no edges fails,
// so a change in the toolchain's output format cannot pass silently.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

const allowFile = "cmd/reach/allow.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	allow, err := os.ReadFile(allowFile)
	if err != nil {
		return fmt.Errorf("run from the module root: %w", err)
	}
	mod, err := goCmd(".", "list", "-m")
	if err != nil {
		return err
	}
	funcs, tests, err := scan(os.DirFS("."))
	if err != nil {
		return err
	}
	dump, built, err := buildAll()
	if err != nil {
		return err
	}
	reached, err := linked(dump, strings.TrimSpace(mod)+"/internal/", built)
	if err != nil {
		return err
	}
	problems, unlinked, err := check(funcs, tests, reached, string(allow))
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	fmt.Printf("reach: %d binaries link %d of %d functions under internal/; %d unlinked (%d lines), %d problems\n",
		len(built), len(funcs)-unlinked.funcs, len(funcs), unlinked.funcs, unlinked.lines, len(problems))
	if len(problems) > 0 {
		return fmt.Errorf("%d problems; each unlinked function is either deleted or listed in %s with the test that uses it", len(problems), allowFile)
	}
	return nil
}

// buildAll links every main package of the module and of each module one
// directory down, and returns the combined dumps and the packages built.
func buildAll() (dump string, built []string, err error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(tmp)
	nested, err := filepath.Glob("*/go.mod")
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	for i, root := range append([]string{"."}, nested...) {
		root = filepath.Dir(root)
		list, err := goCmd(root, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
		if err != nil {
			return "", nil, err
		}
		pkgs := strings.Fields(list)
		if len(pkgs) == 0 {
			continue
		}
		out := filepath.Join(tmp, strconv.Itoa(i)) + string(filepath.Separator)
		args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", out}, pkgs...)
		text, err := goCmd(root, args...)
		if err != nil {
			return "", nil, err
		}
		b.WriteString(text)
		built = append(built, pkgs...)
	}
	return b.String(), built, nil
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %v\n%s", args[0], dir, err, out)
	}
	return string(out), nil
}

// dumpFlags matches the attribute suffix -dumpdep appends to a symbol,
// such as " <UsedInIface>".
var dumpFlags = regexp.MustCompile(` (<[A-Za-z]+>)+$`)

// linked returns the functions under prefix that the dump's edges reach,
// keyed as symbols with prefix and type arguments removed. The go command
// heads each binary's dump with "# importpath"; every package in built
// must have a section with at least one edge.
func linked(dump, prefix string, built []string) (map[string]bool, error) {
	reached := map[string]bool{}
	edges := map[string]int{}
	section := ""
	for _, line := range strings.Split(dump, "\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			section = name
			continue
		}
		_, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		edges[section]++
		if key, ok := symbolKey(dumpFlags.ReplaceAllString(to, ""), prefix); ok {
			reached[key] = true
		}
	}
	for _, p := range built {
		if edges[p] == 0 {
			return nil, fmt.Errorf("the linker's dump for %s has no edges", p)
		}
	}
	return reached, nil
}

// symbolKey strips prefix and any bracketed type arguments from sym:
// prefix+"experiments.adapt[go.shape.*uint8]" is "experiments.adapt".
func symbolKey(sym, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(sym, prefix)
	if !ok {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range rest {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String(), true
}

// decl is a function declared under internal/.
type decl struct {
	pos   string
	lines int
}

// scan returns the functions declared in non-test files under internal/,
// keyed like symbolKey, and the names of the tests, benchmarks, examples
// and fuzz targets declared anywhere in fsys.
func scan(fsys fs.FS) (funcs map[string]decl, tests map[string]bool, err error) {
	funcs, tests = map[string]decl{}, map[string]bool{}
	fset := token.NewFileSet()
	err = fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		isTest := strings.HasSuffix(name, "_test.go")
		inInternal := strings.HasPrefix(p, "internal/")
		if !strings.HasSuffix(name, ".go") || !isTest && !inInternal {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(path.Dir(p), "internal/")
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if isTest {
				if fd.Recv == nil && testName.MatchString(fd.Name.Name) {
					tests[fd.Name.Name] = true
				}
				continue
			}
			if fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			funcs[funcKey(pkg, fd)] = decl{fmt.Sprintf("%s:%d", p, start.Line), end.Line - start.Line + 1}
		}
		return nil
	})
	return funcs, tests, err
}

var testName = regexp.MustCompile(`^(Test|Benchmark|Example|Fuzz)`)

// funcKey is the linker's symbol for fd in pkg, less the module's
// internal/ prefix: pkg.F, pkg.T.M or pkg.(*T).M.
func funcKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	t, ptr := fd.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	recv := fmt.Sprint(t)
	if ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fd.Name.Name
}

// census counts the unlinked functions and their lines.
type census struct{ funcs, lines int }

// check compares the declared functions with the linked ones and the
// allowlist text (lines of "key reason", # comments). It returns one
// problem per unlinked function not allowlisted and per stale or
// unreasoned entry, sorted, and the count of unlinked functions.
func check(funcs map[string]decl, tests, reached map[string]bool, allowText string) ([]string, census, error) {
	allow := map[string]string{}
	for n, line := range strings.Split(allowText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := strings.Fields(line)[0]
		if _, dup := allow[key]; dup {
			return nil, census{}, fmt.Errorf("%s:%d: %s listed twice", allowFile, n+1, key)
		}
		allow[key] = strings.TrimSpace(line[len(key):])
	}
	var problems []string
	var c census
	for key, d := range funcs {
		_, allowed := allow[key]
		switch {
		case !reached[key]:
			c.funcs++
			c.lines += d.lines
			if !allowed {
				problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary", d.pos, key))
			}
		case allowed:
			problems = append(problems, fmt.Sprintf("%s: %s is linked by a binary; drop it from the allowlist", allowFile, key))
		}
	}
	for key, reason := range allow {
		if _, ok := funcs[key]; !ok {
			problems = append(problems, fmt.Sprintf("%s: %s is not a function declared under internal/", allowFile, key))
		}
		if !namesTest(reason, tests) {
			problems = append(problems, fmt.Sprintf("%s: %s: the reason names no test", allowFile, key))
		}
	}
	sort.Strings(problems)
	return problems, c, nil
}

func namesTest(reason string, tests map[string]bool) bool {
	for _, w := range strings.FieldsFunc(reason, func(r rune) bool {
		return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		if tests[w] {
			return true
		}
	}
	return false
}
