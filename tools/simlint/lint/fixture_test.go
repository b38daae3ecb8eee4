package lint

// The want-comment fixture harness for all four analyzers: typecheck a
// testdata/src/<name> package under the import path <name>, run one
// analyzer, and compare its diagnostics against the `// want` comments
// in the sources (each holds a regexp, backquoted or double-quoted,
// that must match the diagnostic reported on its line).

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("// want (`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// loadFixtureUnit typechecks testdata/src/<path> under the import path
// <path> (the manifests carry permanent fixture entries under these
// paths, so manifest-driven analyzers exercise their real lookup).
func loadFixtureUnit(t *testing.T, path string) *Unit {
	t.Helper()
	dir := filepath.Join("testdata", "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	info := newInfo()
	tc := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", path, err)
	}
	return &Unit{Fset: fset, Files: files, Info: info, Pkg: pkg, Path: path}
}

// unitFromSource typechecks one in-memory file as package path.
func unitFromSource(t *testing.T, path, src string) *Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	tc := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := tc.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typechecking synthetic package %s: %v", path, err)
	}
	return &Unit{Fset: fset, Files: []*ast.File{f}, Info: info, Pkg: pkg, Path: path}
}

// collectWants maps file:line to the expected-diagnostic regexp there.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat[0] == '"' {
					var err error
					if pat, err = strconv.Unquote(pat); err != nil {
						t.Fatalf("bad want pattern %s: %v", m[1], err)
					}
				} else {
					pat = pat[1 : len(pat)-1]
				}
				pos := fset.Position(c.Pos())
				wants[posKey(pos.Filename, pos.Line)] = regexp.MustCompile(pat)
			}
		}
	}
	return wants
}

func posKey(file string, line int) string {
	return filepath.Base(file) + ":" + strconv.Itoa(line)
}

// testFixture runs one analyzer over one fixture package and holds its
// diagnostics to the fixture's want comments, both directions.
func testFixture(t *testing.T, analyzer, path string) {
	t.Helper()
	a := ByName(analyzer)
	if a == nil {
		t.Fatalf("no analyzer %q", analyzer)
	}
	u := loadFixtureUnit(t, path)
	wants := collectWants(t, u.Fset, u.Files)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", path)
	}

	got := make(map[string]string)
	for _, d := range Run(u, []*Analyzer{a}) {
		pos := u.Fset.Position(d.Pos)
		key := posKey(pos.Filename, pos.Line)
		if prev, dup := got[key]; dup {
			t.Errorf("%s: two diagnostics on one line: %q and %q", key, prev, d.Msg)
		}
		got[key] = d.Msg
	}

	for key, re := range wants {
		msg, ok := got[key]
		if !ok {
			t.Errorf("%s: want diagnostic matching %q, got none", key, re)
			continue
		}
		if !re.MatchString(msg) {
			t.Errorf("%s: diagnostic %q does not match %q", key, msg, re)
		}
	}
	for key, msg := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic %q", key, msg)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { testFixture(t, "determinism", "determ") }
func TestSnapcoverFixture(t *testing.T)   { testFixture(t, "snapcover", "snapcover") }
func TestEnumtotalFixture(t *testing.T)   { testFixture(t, "enumtotal", "enumtotal") }
func TestHookpairFixture(t *testing.T)    { testFixture(t, "hookpair", "hookpair") }

// The approved worker-pool package may use raw go statements: the same
// source that is flagged under any other import path must come back
// clean when typechecked as microscope/analysis/sweep.
func TestGoroutineExemption(t *testing.T) {
	const src = `package sweep

func fanOut(jobs []func()) {
	for _, j := range jobs {
		go j()
	}
}
`
	det := []*Analyzer{ByName("determinism")}
	if diags := Run(unitFromSource(t, "microscope/analysis/sweep", src), det); len(diags) != 0 {
		t.Errorf("worker-pool package flagged: %v", diags)
	}
	if diags := Run(unitFromSource(t, "microscope/attack/experiments", src), det); len(diags) != 1 {
		t.Errorf("non-pool package: got %d diagnostics, want 1", len(diags))
	}
}

// A reasonless exemption suppresses nothing and is itself a finding
// from the owning analyzer.
func TestExemptionReasonMandatory(t *testing.T) {
	const src = `package x

type T struct {
	//simlint:snapexempt
	a int
	b int
}

func (t *T) Snapshot() int { return t.b }
func (t *T) Restore(v int) { t.b = v }
`
	diags := Run(unitFromSource(t, "x", src), []*Analyzer{ByName("snapcover")})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (missing reason + uncovered field): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "missing its mandatory reason") {
		t.Errorf("first diagnostic = %q, want missing-reason", diags[0].Msg)
	}
	if !strings.Contains(diags[1].Msg, "field T.a is not serialized") {
		t.Errorf("second diagnostic = %q, want uncovered field T.a", diags[1].Msg)
	}
}

// A typo'd exemption kind silently disables nothing — the determinism
// analyzer (the base of every gate) flags it.
func TestUnknownExemptKindFlagged(t *testing.T) {
	const src = `package x

//simlint:snapexmpt the typo must be loud
type T struct{ a int }
`
	diags := Run(unitFromSource(t, "x", src), []*Analyzer{ByName("determinism")})
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "unknown simlint directive") {
		t.Fatalf("got %v, want one unknown-directive diagnostic", diags)
	}
}

// TestVetCfgSmoke drives the cmd/go vet protocol end to end for every
// analyzer: a real vet.cfg per fixture package (the fixtures import
// nothing, so no export data is needed), findings counted, facts file
// written. Also covers VetxOnly mode and config failure modes.
func TestVetCfgSmoke(t *testing.T) {
	writeCfg := func(t *testing.T, cfg UnitConfig) string {
		t.Helper()
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "vet.cfg")
		if err := os.WriteFile(p, data, 0o666); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fixtureFiles := func(t *testing.T, path string) []string {
		t.Helper()
		dir, err := filepath.Abs(filepath.Join("testdata", "src", path))
		if err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				out = append(out, filepath.Join(dir, e.Name()))
			}
		}
		return out
	}

	cases := []struct {
		analyzer string
		path     string
		findings int
	}{
		{"snapcover", "snapcover", 2},
		{"enumtotal", "enumtotal", 1},
		{"hookpair", "hookpair", 3},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			facts := filepath.Join(t.TempDir(), "facts.vetx")
			cfgPath := writeCfg(t, UnitConfig{
				ID:         tc.path,
				Compiler:   "gc",
				ImportPath: tc.path,
				GoFiles:    fixtureFiles(t, tc.path),
				VetxOutput: facts,
			})
			diags, err := RunUnit(cfgPath, []*Analyzer{ByName(tc.analyzer)})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != tc.findings {
				t.Errorf("findings = %d, want %d: %v", len(diags), tc.findings, diags)
			}
			if _, err := os.Stat(facts); err != nil {
				t.Errorf("facts file not written: %v", err)
			}
		})
	}

	t.Run("determinism", func(t *testing.T) {
		// The determ fixture imports stdlib (no export data here), so the
		// determinism smoke drives a synthetic import-free unit instead.
		dir := t.TempDir()
		src := filepath.Join(dir, "pool.go")
		if err := os.WriteFile(src, []byte("package smoke\n\nfunc f(fns []func()) {\n\tfor _, fn := range fns {\n\t\tgo fn()\n\t}\n}\n"), 0o666); err != nil {
			t.Fatal(err)
		}
		cfgPath := writeCfg(t, UnitConfig{
			ID: "smoke", Compiler: "gc", ImportPath: "smoke",
			GoFiles: []string{src}, VetxOutput: filepath.Join(dir, "facts.vetx"),
		})
		diags, err := RunUnit(cfgPath, []*Analyzer{ByName("determinism")})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 || !strings.Contains(diags[0].Msg, "goroutine") {
			t.Errorf("got %v, want one goroutine diagnostic", diags)
		}
	})

	t.Run("vetxonly", func(t *testing.T) {
		facts := filepath.Join(t.TempDir(), "facts.vetx")
		cfgPath := writeCfg(t, UnitConfig{ID: "dep", VetxOnly: true, VetxOutput: facts})
		diags, err := RunUnit(cfgPath, All())
		if err != nil || len(diags) != 0 {
			t.Fatalf("VetxOnly: diags=%v err=%v", diags, err)
		}
		if _, err := os.Stat(facts); err != nil {
			t.Errorf("VetxOnly did not write the facts file: %v", err)
		}
	})

	t.Run("badconfig", func(t *testing.T) {
		if _, err := RunUnit(filepath.Join(t.TempDir(), "missing.cfg"), All()); err == nil {
			t.Error("missing config accepted")
		}
		bad := filepath.Join(t.TempDir(), "bad.cfg")
		if err := os.WriteFile(bad, []byte("{"), 0o666); err != nil {
			t.Fatal(err)
		}
		if _, err := RunUnit(bad, All()); err == nil {
			t.Error("malformed config accepted")
		}
	})
}

// The analyzer registry itself: canonical order, lookup, flag defs.
func TestRegistry(t *testing.T) {
	names := []string{"determinism", "snapcover", "enumtotal", "hookpair"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() = %d analyzers, want %d", len(all), len(names))
	}
	for i, want := range names {
		if all[i].Name != want {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Name, want)
		}
		if ByName(want) == nil {
			t.Errorf("ByName(%q) = nil", want)
		}
		if all[i].Doc == "" {
			t.Errorf("%s has no doc", want)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName accepted an unknown name")
	}

	var defs []struct {
		Name string
		Bool bool
	}
	if err := json.Unmarshal([]byte(VetFlagDefs()), &defs); err != nil {
		t.Fatalf("VetFlagDefs is not JSON: %v", err)
	}
	if len(defs) != len(names) {
		t.Errorf("VetFlagDefs lists %d flags, want %d", len(defs), len(names))
	}
	for i, d := range defs {
		if d.Name != names[i] || !d.Bool {
			t.Errorf("flag def %d = %+v, want Bool flag %s", i, d, names[i])
		}
	}
}
