package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The benchmark must keep compiling, unedited, while the roadmap deletes
// in-process sharding and the compatibility shims and rewrites the
// corroboration walk. So it may use none of these, directly or through a
// package of its own.
var (
	// forbiddenImports may not be imported by the benchmark. kws itself
	// still imports repro/internal/shard, so that package may appear in
	// the closure, but only below a package of the repository.
	forbiddenImports = []string{"repro/internal/shard", "repro/internal/bench", "repro/cmd/kws-bench"}
	// unreachable may not appear in the closure at all.
	unreachable = []string{"repro/internal/bench", "repro/cmd/kws-bench"}
	// forbiddenSymbols are package-qualified names, a trailing "*"
	// standing for any suffix.
	forbiddenSymbols = []string{
		"repro/kws.WithShards", "repro/kws.WithShardStores", "repro/kws.Open", "repro/kws.LegacyEngine",
		"repro/internal/search/paths.NewWithMatcher",
		"repro/internal/core.WalkConnections", "repro/internal/core.EnumerateConnections*",
	}
)

// TestImportClosure checks the benchmark's dependency closure and every
// name it uses from the repository against what the roadmap removes or
// reworks, and against every function documented "Deprecated:".
func TestImportClosure(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	inClosure := map[string]bool{}
	var repoDeps []string
	for _, p := range strings.Fields(string(out)) {
		inClosure[p] = true
		if strings.HasPrefix(p, "repro/") && p != "repro/perfbench" {
			repoDeps = append(repoDeps, p)
		}
	}
	for _, p := range unreachable {
		if inClosure[p] {
			t.Errorf("%s is in the benchmark's dependency closure", p)
		}
	}

	pkgs, err := analysis.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	self := pkgs[0]
	for _, imp := range self.Types.Imports() {
		for _, f := range forbiddenImports {
			if imp.Path() == f {
				t.Errorf("the benchmark imports %s", f)
			}
		}
	}

	repo, err := analysis.Load("..", repoDeps...)
	if err != nil {
		t.Fatal(err)
	}
	deprecated := map[string]bool{}
	for _, p := range repo {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && analysis.Deprecated(fd) {
					deprecated[p.PkgPath+"."+analysis.FuncDeclName(fd)] = true
				}
			}
		}
	}
	if len(deprecated) == 0 {
		t.Fatal("found no Deprecated: declaration; the scan is broken")
	}

	used := map[string]token.Position{}
	for id, obj := range self.TypesInfo.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/") || obj.Pkg() == self.Types {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok && analysis.ReceiverTypeName(fn) != "" {
			name = analysis.ReceiverTypeName(fn) + "." + fn.Name()
		}
		used[name] = self.Fset.Position(id.Pos())
	}
	if len(used) == 0 {
		t.Fatal("the benchmark uses no name of the repository; the scan is broken")
	}
	for name, pos := range used {
		if deprecated[name] {
			t.Errorf("%s: uses %s, which is documented Deprecated:", pos, name)
		}
		for _, f := range forbiddenSymbols {
			if name == f || strings.HasSuffix(f, "*") && strings.HasPrefix(name, strings.TrimSuffix(f, "*")) {
				t.Errorf("%s: uses %s", pos, name)
			}
		}
	}
}
