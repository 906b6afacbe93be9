package main

import (
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

const prefix = "heterosched/internal/"

// fixture declares one function of each shape the linker names
// differently.
var fixture = fstest.MapFS{
	"internal/p/p.go": {Data: []byte(`package p

type T struct{}

func (T) M()      {}
func (*T) N()     {}
func (T) V()      {}
func (T) Iface()  {}
func (*T) Bound() {}

func adapt[S any](s S) S { return s }
func Outer() func()      { return func() {} }
func init()              {}

type Exponential struct{}

func (Exponential) CDF(float64) float64 { return 0 }

type Empirical struct{}

func (*Empirical) CDF(float64) float64 { return 0 }

type Set[E comparable] struct{}

func (*Set[E]) Add(E) {}
`)},
	"internal/p/p_test.go":              {Data: []byte("package p\n\nfunc TestP() {}\nfunc helper() {}\n")},
	"internal/p/testdata/skip.go":       {Data: []byte("package skip\n\nfunc Skipped() {}\n")},
	"cmd/tool/main_test.go":             {Data: []byte("package main\n\nfunc BenchmarkTool() {}\n")},
	"cmd/tool/main.go":                  {Data: []byte("package main\n\nfunc main() {}\n")},
	"internal/p/sub/sub.go":             {Data: []byte("package sub\n\nfunc F() {}\n")},
	"internal/p/sub/export_test.go":     {Data: []byte("package sub\n\nfunc G() {}\n")},
	"internal/p/sub/example_test.go":    {Data: []byte("package sub_test\n\nfunc ExampleF() {}\n")},
	"internal/p/sub/fuzz_test.go":       {Data: []byte("package sub\n\nfunc FuzzF() {}\n")},
	"internal/p/sub/receiver_test.go":   {Data: []byte("package sub\n\ntype s struct{}\n\nfunc (s) TestMethod() {}\n")},
	"internal/p/sub/unrelated_test.txt": {Data: []byte("func TestNot() {}\n")},
}

// fixtureDump is -dumpdep output for a binary linking some of fixture.
const fixtureDump = `# heterosched/cmd/tool
_ -> main.main
main.main -> heterosched/internal/p.T.M
main.main -> heterosched/internal/p.(*T).N
main.main -> heterosched/internal/p.(*T).V
type:heterosched/internal/p.T <UsedInIface> -> heterosched/internal/p.T.Iface <UsedInIface>
main.main -> heterosched/internal/p.(*T).Bound-fm
main.main -> heterosched/internal/p.adapt[go.shape.*uint8]
main.main -> heterosched/internal/p..dict.adapt[*uint8]
main.main -> heterosched/internal/p.Outer.func1
main.main -> heterosched/internal/p.(*Set[go.shape.struct { A []int }]).Add
internal/abi.Name.ReadVarint -> heterosched/internal/p.Exponential.CDF.arginfo1
runtime.throw -> heterosched/internal/p.(*Empirical).CDF.stkobj
main.main -> heterosched/internal/p/sub.F
`

func TestScan(t *testing.T) {
	funcs, tests, err := scan(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"p.(*Empirical).CDF", "p.(*Set).Add", "p.(*T).Bound", "p.(*T).N",
		"p.Exponential.CDF", "p.Outer", "p.T.Iface", "p.T.M", "p.T.V", "p.adapt",
		"p/sub.F",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("declared %v\nwant     %v", keys, want)
	}
	if d := funcs["p.adapt"]; d.pos != "internal/p/p.go:11" || d.lines != 1 {
		t.Errorf("p.adapt at %+v, want internal/p/p.go:11, 1 line", d)
	}
	var names []string
	for n := range tests {
		names = append(names, n)
	}
	sort.Strings(names)
	if want := []string{"BenchmarkTool", "ExampleF", "FuzzF", "TestP"}; !slices.Equal(names, want) {
		t.Errorf("tests %v, want %v", names, want)
	}
}

// TestLinkedExactSymbols: only a function's own symbol links it. A value
// method is linked by pkg.T.M and a pointer method by pkg.(*T).M, not by
// each other; type arguments drop; a closure, a method value and aux data
// the linker deduped into another function's symbol link nothing.
func TestLinkedExactSymbols(t *testing.T) {
	funcs, tests, err := scan(fixture)
	if err != nil {
		t.Fatal(err)
	}
	reached, err := linked(fixtureDump, prefix, []string{"heterosched/cmd/tool"})
	if err != nil {
		t.Fatal(err)
	}
	problems, c, err := check(funcs, tests, reached, "")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/p/p.go:17: p.Exponential.CDF is linked by no binary",
		"internal/p/p.go:21: p.(*Empirical).CDF is linked by no binary",
		"internal/p/p.go:7: p.T.V is linked by no binary",
		"internal/p/p.go:12: p.Outer is linked by no binary",
		"internal/p/p.go:9: p.(*T).Bound is linked by no binary",
	}
	sort.Strings(want)
	if !slices.Equal(problems, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	if c.funcs != 5 || c.lines != 5 {
		t.Errorf("census %+v, want 5 functions in 5 lines", c)
	}
}

func TestCheckAllowlist(t *testing.T) {
	funcs := map[string]decl{
		"a.Linked":     {"internal/a/a.go:1", 1},
		"a.Listed":     {"internal/a/a.go:2", 3},
		"a.Reasonless": {"internal/a/a.go:5", 1},
		"a.Unlisted":   {"internal/a/a.go:6", 2},
	}
	reached := map[string]bool{"a.Linked": true}
	tests := map[string]bool{"TestA": true}
	allow := `# comment

a.Listed	oracle for TestA
a.Linked    TestA uses it, but a binary links it
a.Gone      deleted; TestA used it
a.Reasonless  no test named here, Test alone is not one
`
	problems, c, err := check(funcs, tests, reached, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		allowFile + ": a.Gone is not a function declared under internal/",
		allowFile + ": a.Linked is linked by a binary; drop it from the allowlist",
		allowFile + ": a.Reasonless: the reason names no test",
		"internal/a/a.go:6: a.Unlisted is linked by no binary",
	}
	if !slices.Equal(problems, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	if c.funcs != 3 || c.lines != 6 {
		t.Errorf("census %+v, want 3 functions in 6 lines", c)
	}
	if _, _, err := check(funcs, tests, reached, "a.Listed TestA\na.Listed TestA\n"); err == nil {
		t.Error("an entry listed twice was accepted")
	}
}

// TestLinkedRejectsEmptyDump: a build whose dump yields no edges, as a
// change in the linker's output format would, fails the check instead of
// reporting everything unlinked or nothing.
func TestLinkedRejectsEmptyDump(t *testing.T) {
	built := []string{"heterosched/cmd/tool", "heterosched/cmd/other"}
	for name, dump := range map[string]string{
		"empty":          "",
		"header only":    "# heterosched/cmd/tool\n# heterosched/cmd/other\n",
		"other format":   "# heterosched/cmd/tool\nmain.main => heterosched/internal/p.T.M\n",
		"one binary dry": fixtureDump,
	} {
		if _, err := linked(dump, prefix, built); err == nil {
			t.Errorf("%s: dump accepted", name)
		}
	}
	both := fixtureDump + "# heterosched/cmd/other\n_ -> main.main\n"
	if _, err := linked(both, prefix, built); err != nil {
		t.Errorf("a dump with edges for each binary: %v", err)
	}
}
