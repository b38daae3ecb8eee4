package lint

// The cmd/go vet-tool protocol, stdlib-only.
//
// For each package, cmd/go writes a JSON config describing the unit of
// work (file list, import map, export-data locations) and invokes the
// tool with the config path as its sole argument. The tool typechecks
// the package against the compiler's export data, runs the enabled
// analyzers, prints findings to stderr as file:line:col: message,
// writes its facts file (empty — all simlint analyzers are
// intraprocedural within a package), and exits 2 when it found
// anything.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// UnitConfig mirrors the fields of cmd/go's vet config that this tool
// consumes (the file carries more; unknown fields are ignored).
type UnitConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// RunUnit loads one vet unit config, typechecks its package and runs
// the given analyzers over it. Diagnostics go to stderr in vet format.
func RunUnit(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg UnitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	if cfg.VetxOnly {
		// Dependency of a listed package: cmd/go only wants our facts
		// (none — the analyzers are intraprocedural), not diagnostics.
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// ParseComments: the exemption grammar lives in comments.
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// Export-data importer: resolve an import path through ImportMap
	// (vendoring, test variants), then read the compiled package file
	// cmd/go listed for it.
	exp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return exp.Import(importPath)
	})

	info := newInfo()
	tc := types.Config{Importer: imp}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	u := &Unit{Fset: fset, Files: files, Info: info, Pkg: pkg, Path: cfg.ImportPath}
	diags := Run(u, analyzers)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Msg)
	}
	// cmd/go caches a facts file per package and feeds it to dependents;
	// it must exist even though these analyzers export no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// PrintVersion answers the -V=full handshake. The format is the one
// cmd/go's tool-ID scanner accepts: name, "version", a version string
// whose buildID term fingerprints the binary.
func PrintVersion(toolName string) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, toolName+":", err)
		os.Exit(1)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, toolName+":", err)
		os.Exit(1)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, toolName+":", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel %s buildID=%02x\n", exe, toolName, h.Sum(nil))
}

// VetFlagDefs renders the -flags answer: the analyzer enable flags and
// the output-mode flags cmd/go may pass through from the `go vet`
// command line (e.g. `go vet -vettool=bin/simlint -snapcover=false`).
func VetFlagDefs() string {
	type flagDef struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	var defs []flagDef
	for _, a := range All() {
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: "enable the " + a.Name + " analyzer"})
	}
	out, _ := json.Marshal(defs)
	return string(out)
}
